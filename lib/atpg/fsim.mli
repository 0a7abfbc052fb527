(** Sequential fault simulation behind three engines with bit-identical
    detection flags.  {!run} picks the engine from its input:

    - a one-test list runs on [Event]: parallel-fault — bit column 0 of
      a {!Sim.Logic3} word carries the good circuit, columns 1..63 one
      faulty circuit each.  A single test offers only one pattern lane,
      and 63 faults per evaluation beat a one-lane packed word;
    - a longer list runs on [Packed]: PPSFP — up to [Sim.Packed.width]
      test patterns ride the lanes of a native word, the good circuit is
      simulated once per word, and each fault is event-driven through
      the word with two-mask injection at each of its sites.

    [Reference] is the straight-line oracle — every net re-evaluated on
    every frame ({!run_batch_reference}); differential-testing and
    benchmark baseline.  Passing [~engine] forces an engine; only the
    cross-checks do that.

    Faults are given to the engines as {!descriptor}s: per-site
    injection rules for stuck-at, transition (slow-to-rise/fall) and
    bridging (wired-AND/OR) faults.  Which engine runs which model:

    {v
                   stuck-at                  transition   bridge
       Packed      run (> 1 test), matrix       yes         yes
       Event       run (1 test)                  -           -
       Reference   forced only                  yes         yes
    v}

    {!run} and {!run_matrix} take {!Fault.t}; {!run_descriptors} and
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

(** [run c ~observe ~faults tests] fault-simulates every test with fault
    dropping; per-fault detection flags align with [faults].  Without
    [~engine], a one-test list runs on the event engine and any other
    list on the packed engine.  All three engines return bit-identical
    flags: detection of a fault by a test never depends on other faults
    or tests, so packing tests into word lanes (and dropping at word
    granularity) changes evaluation counts only.

    [~jobs] (default 1) shards the work over the global domain pool
    when there are at least 128 faults, bit-identically at every
    [jobs]: one test splits the faults into contiguous slices; a longer
    list keeps its word-sized pattern chunks sequential (fault dropping
    between words is preserved) and shards each word's active faults
    against one shared good simulation.  A forced [Event] or [Reference]
    runs serially. *)
val run :
  ?engine:engine_kind -> ?budget:Engine.Budget.t -> ?jobs:int ->
  Netlist.t -> observe:observe -> faults:Fault.t list -> Pattern.test list ->
  bool array

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
    one byte per test ([1] = detected).  It runs on the packed engine:
    one good simulation plus one sweep per fault per word-sized test
    chunk; Compact and Diagnose read their answers straight out of
    it. *)
val run_matrix :
  ?budget:Engine.Budget.t ->
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

(** The eval counter of the given engine; [bench fsim] reports its
    delta per engine. *)
val evals_for : engine_kind -> int
