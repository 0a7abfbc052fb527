(** Sequential fault simulation behind three interchangeable engines
    with bit-identical detection flags:

    - [Packed] (default): PPSFP — up to [Sim.Packed.width] test patterns
      ride the lanes of a native word, the good circuit is simulated
      once per word, and each fault is event-driven through the word
      with two-mask injection at each of its sites.
    - [Event]: parallel-fault — bit column 0 of a {!Sim.Logic3} word
      carries the good circuit, columns 1..63 one faulty circuit each,
      one test at a time.
    - [Reference]: the straight-line oracle — every net re-evaluated on
      every frame ({!run_batch_reference}); differential-testing and
      benchmark baseline.

    Faults are given to the engines as {!descriptor}s: per-site
    injection rules for stuck-at, transition (slow-to-rise/fall) and
    bridging (wired-AND/OR) faults.  Which engine accepts which model:

    {v
                   stuck-at   transition   bridge
       Packed         yes         yes         yes
       Reference      yes         yes         yes
       Event          yes          -           -
    v}

    The stuck-at entry points ({!run}, {!run_test}, {!run_matrix}, ...)
    take {!Fault.t} and reach every engine; {!run_descriptors} and
    {!coverage} take descriptors of any model and run on the packed
    engine or, under [~engine:Reference], the oracle.

    Flip-flops start at X except loaded PIER registers, so detection is
    exactly as conservative as chip-level pattern translation
    requires.

    Every run entry point takes an optional {!Engine.Budget} token and
    degrades gracefully when it dies: the engines stop sweeping (outer
    loops poll the clock per word/test/batch, the per-fault sweep is one
    atomic load) and return the {e partial} flags accumulated so far —
    missing work reads as "not detected", never as a wrong positive. *)

type observe = {
  ob_pos : bool;           (** observe primary outputs every cycle *)
  ob_pier_ffs : int list;  (** flip-flops whose final state is observable *)
}

val default_observe : observe

(** {1 Engine selection} *)

type engine_kind = Packed | Event | Reference

(** Name/constructor pairs, e.g. for a [Cmdliner.Arg.enum]. *)
val engine_kinds : (string * engine_kind) list

(** Set the process-global default engine (the CLI [--fsim] flag);
    every entry point also takes a per-call [?engine] override. *)
val set_engine : engine_kind -> unit

(** {1 Fault models}

    A fault is described by the nets it injects at and, per net, the
    rule deriving the faulty machine's value there from the value the
    net's driver computes in that machine. *)

type wired = Wired_and | Wired_or

type rule =
  | Stuck of bool
      (** the site holds the value in every frame *)
  | Slow of bool
      (** slow-to-rise ([true]) or slow-to-fall: in a frame where the
          good value makes that transition, the site keeps the previous
          frame's good value; a gross delay of one clock cycle *)
  | Wired of int * wired
      (** shorted to the partner net: the site takes
          [wired(own, partner)], where [partner] is the partner's value
          this frame in the same faulty machine with the [Wired] rules
          lifted; an X on either side leaves [own] *)

(** Injection sites [(net, rule)] on distinct nets: one for a stuck-at
    or transition fault, two (each naming the other as partner) for a
    bridge. *)
type descriptor = (int * rule) list

val stuck_at : Fault.t -> descriptor

(** [run_batch_reference c ~order ~faults ~observe test] simulates one
    test against at most 63 descriptors by straight-line evaluation of
    every net on every frame; the result aligns with [faults]. *)
val run_batch_reference :
  Netlist.t -> order:int array -> faults:descriptor list ->
  observe:observe -> Pattern.test -> bool list

(** [run_test c ~observe ~faults ~active test] simulates one test against
    [faults.(i)] for each [i] in [active]; the result aligns with
    [active].  A single test offers only one pattern lane, so [Packed]
    falls back to the event-driven engine here (already 63 faults per
    word); [~engine:Reference] forces the oracle. *)
val run_test :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  Netlist.t -> observe:observe -> faults:Fault.t array -> active:int array ->
  Pattern.test -> bool array

(** [run_test_sharded ~jobs ...] is {!run_test} with the active faults
    sharded across the global domain pool (disjoint contiguous slices,
    one injection state per domain, shared immutable circuit and
    analysis); bit-identical to {!run_test}.  Falls back to the serial
    engine for [jobs <= 1], small active sets or [Reference]. *)
val run_test_sharded :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  jobs:int -> Netlist.t -> observe:observe -> faults:Fault.t array ->
  active:int array -> Pattern.test -> bool array

(** [run c ~observe ~faults tests] fault-simulates every test with fault
    dropping; per-fault detection flags align with [faults].  All three
    engines return bit-identical flags: detection of a fault by a test
    never depends on other faults or tests, so packing tests into word
    lanes (and dropping at word granularity) changes evaluation counts
    only. *)
val run :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  Netlist.t -> observe:observe -> faults:Fault.t list -> Pattern.test list ->
  bool array

(** [run_sharded ~jobs ...] is {!run} parallelized over the global
    domain pool and bit-identical to it for every [jobs].  Packed: the
    word-sized pattern chunks stay sequential (fault dropping between
    words is preserved) and each word's active faults are sharded
    against one shared good simulation.  Event: contiguous fault shards
    with local dropping.  Falls back to the serial engine for
    [jobs <= 1], small fault lists or [Reference]. *)
val run_sharded :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  jobs:int -> Netlist.t -> observe:observe -> faults:Fault.t list ->
  Pattern.test list -> bool array

(** [run_descriptors c ~observe ~faults tests] is {!run} for descriptors
    of any fault model: the packed engine, or the oracle under
    [~engine:Reference].  The event engine is stuck-at only, so [Event]
    selects the packed engine here. *)
val run_descriptors :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  Netlist.t -> observe:observe -> faults:descriptor list ->
  Pattern.test list -> bool array

(** Percentage of [faults] that {!run_descriptors} detects; 100 for an
    empty list. *)
val coverage :
  Netlist.t -> observe:observe -> faults:descriptor list ->
  Pattern.test list -> float

(** [run_matrix c ~observe ~faults ~active tests] is the full detection
    matrix without fault dropping: one signature per index in [active],
    one byte per test ([1] = detected).  Under the packed engine the
    whole matrix costs one good simulation plus one sweep per fault per
    word-sized test chunk; Compact and Diagnose read their answers
    straight out of it. *)
val run_matrix :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  Netlist.t -> observe:observe -> faults:Fault.t array -> active:int array ->
  Pattern.test array -> Bytes.t array

(** {1 Evaluation counters}

    Each engine owns its own counter in the metrics registry
    ([factor.fsim.evals] / [factor.fsim.ref_evals] /
    [factor.fsim.packed_evals]) so benchmark deltas are attributable
    per engine. *)

(** Event-driven engine net evaluations since program start. *)
val eval_count : unit -> int

(** Straight-line reference engine net evaluations since program start. *)
val ref_eval_count : unit -> int

(** Packed engine net evaluations (each settles a whole word of
    patterns) since program start. *)
val packed_eval_count : unit -> int

(** Packed words simulated (one word = up to [Sim.Packed.width] tests). *)
val packed_word_count : unit -> int

(** The eval counter of the given engine — what BENCH_fsim deltas. *)
val evals_for : engine_kind -> int
