(** Progress reporting for long-running phases — the live counterpart of
    {!Span}: where a span records how long a phase {e took}, a progress
    reporter tells an attached sink how far along it {e is}.

    Discipline mirrors {!Span}: reporting is off unless a sink is
    installed.  When off, {!start} is one atomic load returning a
    constant and {!step}/{!finish} are a single immediate match — no
    allocation, no timing — so reporters may sit on per-fault hot loops
    unconditionally (the zero-allocation test in [test_obs] covers
    this).

    Sinks come in two scopes: a process-wide sink ({!set_global_sink},
    used by the one-shot CLI's [--progress] console renderer) and a
    domain-local sink ({!with_sink}, used by the serve daemon so each
    concurrent request streams only its own phases).  A reporter binds
    its sink at {!start}, so steps performed on other domains (pool
    workers) still reach the right sink.

    Emission is rate-limited by a shared minimum interval (default
    50 ms, {!set_interval}) so bursts of short-lived reporters cannot
    flood the sink; a reporter that ever emitted always emits its final
    update, so a visible phase closes out at its last count. *)

(** One progress update.  [up_reporter] is unique per {!start}, so a
    consumer can group updates by [(up_phase, up_reporter)] and observe
    [up_done] non-decreasing with [up_total] stable within each group.
    [up_total = 0] means the total is unknown; [up_eta_s < 0] means no
    estimate (unknown total or no rate yet). *)
type update = {
  up_phase : string;
  up_reporter : int;
  up_done : int;
  up_total : int;          (** 0 when unknown *)
  up_elapsed : float;      (** seconds since {!start} *)
  up_rate : float;         (** steps per second *)
  up_eta_s : float;        (** negative when unknown *)
  up_final : bool;         (** emitted by {!finish} *)
}

type sink = update -> unit

(** Install (or clear) the process-wide sink. *)
val set_global_sink : sink option -> unit

(** [with_sink s f] runs [f ()] with [s] as this domain's sink; the
    domain-local sink shadows the global one.  Restored on exit even
    when [f] raises. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** Is any sink installed?  One atomic load. *)
val enabled : unit -> bool

(** Minimum seconds between emitted updates (shared by all reporters;
    default 0.05).  [0.0] emits every step — test use only. *)
val set_interval : float -> unit

type t

(** [start ?total phase] begins a phase.  Returns the no-op reporter
    (one atomic load, no allocation) when no sink is installed. *)
val start : ?total:int -> string -> t

(** Advance by one and emit if the rate limit allows. *)
val step : t -> unit

(** Emit the closing update for the phase. *)
val finish : t -> unit
