(** A process-wide registry of named counters, gauges and histograms.

    One registry serves every subsystem so a single {!dump} yields the
    whole picture of a run: net evaluations, SAT conflicts, PODEM
    backtracks, cache hits, pool tasks.  Metrics are interned by name —
    calling a constructor twice with the same name returns the same
    metric — and every update is domain-safe.

    Naming scheme: [factor.<subsystem>.<name>], e.g.
    [factor.fsim.packed_evals], [factor.sat.conflicts], [factor.pool.tasks].

    Hot-path cost: {!incr}/{!add} are single atomic fetch-and-adds with
    no allocation, so engines may account from inner loops (though
    batching increments locally and flushing once per batch, as the
    fault simulator does, is still preferred). *)

type counter
type gauge
type histogram

(** [counter name] interns a monotonic integer counter.
    @raise Invalid_argument if [name] exists with a different kind. *)
val counter : string -> counter

(** Allocation-free atomic increment. *)
val incr : counter -> unit

(** Allocation-free atomic add. *)
val add : counter -> int -> unit

val value : counter -> int

(** [gauge name] interns a last-value-wins float gauge. *)
val gauge : string -> gauge

val set : gauge -> float -> unit
val get : gauge -> float

(** [histogram name] interns a histogram with exponential bucket upper
    bounds suited to seconds-scale latencies (1 µs × 2{^k}, k = 0..29:
    1 µs to ~537 s).  Observations above the last bound land in an
    overflow bucket. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit
val count : histogram -> int
val sum : histogram -> float

(** [percentile h p] (with [0 < p <= 100]) returns the upper bound of the
    bucket containing the [p]-th percentile observation — exact when the
    bucket bounds enumerate the observed values, otherwise an upper
    estimate.  Overflow observations report the maximum observed value.
    Returns [0.] when the histogram is empty. *)
val percentile : histogram -> float -> float

(** Snapshot of the whole registry as a JSON object keyed by metric name,
    sorted.  Counters render as integers, gauges as floats, histograms as
    [{count, sum, p50, p90, p99, max}]. *)
val dump : unit -> Json.t

val dump_string : unit -> string

(** Look up one metric's snapshot value by name. *)
val find : string -> Json.t option

(** {1 Snapshots and deltas}

    Reset-free per-request accounting: snapshot the registry before and
    after a unit of work and {!diff} the two, leaving the live registry
    (and any concurrent reader, including the exit-time dump)
    untouched. *)

type snapshot

(** Copy every registered cell once.  O(registry size); no locks are
    held while cells are read, so a snapshot taken mid-update is
    per-cell consistent but not globally atomic. *)
val snapshot : unit -> snapshot

(** [diff before after] as JSON: counter and histogram cells subtract
    (a metric born after [before] counts from zero), gauges report the
    [after] value, and entries that did not move are dropped.  A
    histogram delta carries window count/sum and percentiles computed
    from the bucket-count deltas; its [max] is the run maximum (bucket
    counts cannot recover a window maximum). *)
val diff : snapshot -> snapshot -> Json.t

(** Value of a counter inside a snapshot (0 when absent or not a
    counter). *)
val snapshot_counter : snapshot -> string -> int

(** {1 Prometheus exposition}

    The whole registry in Prometheus text format 0.0.4: names are
    sanitized ([factor.fsim.packed_evals] → [factor_fsim_packed_evals]),
    counters and gauges one sample each, histograms as cumulative
    [_bucket{le=...}] series plus [_sum]/[_count].  Served by the
    daemon's [metrics] request. *)
val dump_prometheus : unit -> string
