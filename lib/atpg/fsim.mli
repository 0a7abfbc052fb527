(** Sequential fault simulation behind one engine, with a straight-line
    oracle beside it; both give bit-identical detection flags.

    - [Packed] runs every test list {!run} is given, one test included:
      PPSFP — up to [Sim.Packed.width] test patterns ride the lanes of a
      native word, the good circuit is simulated once per word, and each
      fault is event-driven through the word with two-mask injection at
      each of its sites.  Gates are evaluated through
      {!Sim.Packed.gate} on the circuit's compiled form
      ({!Netlist.Analysis}: opcodes, fanin slots, level bucket offsets,
      PO bitmap), built once per circuit; a fault's sweep allocates
      nothing and its bookkeeping (level scan, PO check) is proportional
      to the nets it re-evaluates.  The good planes belong to the
      engine and are reused from word to word (grown only for a longer
      word), and the test transpose sets lane bits without branching.
      While fault dropping ({!run}, {!run_descriptors}), a sweep stops
      at the first primary output that shows the fault on a live lane;
      {!run_matrix} never stops early.  A single test is a one-lane
      word.
    - [Reference] is the straight-line oracle — every net re-evaluated
      on every frame, one {!Sim.Logic3} column per fault
      ({!run_batch_reference}); differential-testing and benchmark
      baseline.  Passing [~engine] forces an engine; only the
      cross-checks do that.

    Faults are given to the engines as {!descriptor}s: per-site
    injection rules for stuck-at, transition (slow-to-rise/fall) and
    bridging (wired-AND/OR) faults.  Which engine runs which model:

    {v
                   stuck-at                  transition   bridge
       Packed      run (default), matrix        yes         yes
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

(** [Event] has no engine of its own: it selects the [Reference]
    oracle.  It stays only because the sample gate of perfbench's
    [arm_grade] workload forces it by name; the ROADMAP's
    benchmark-change item removes it. *)
type engine_kind = Packed | Reference | Event

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
    [~engine], every list runs on the packed engine.  Both engines
    return bit-identical flags: detection of a fault by a test never
    depends on other faults or tests, so packing tests into word lanes
    (and dropping at word granularity) changes evaluation counts only.

    [~jobs] (default 1) shards the work over the global domain pool
    when there are at least 128 faults, bit-identically at every
    [jobs]: word-sized pattern chunks stay sequential (fault dropping
    between words is preserved) and each word's active faults are
    sharded against one shared good simulation.  A forced [Reference]
    runs serially. *)
val run :
  ?engine:engine_kind -> ?budget:Engine.Budget.t -> ?jobs:int ->
  Netlist.t -> observe:observe -> faults:Fault.t list -> Pattern.test list ->
  bool array

(** [run_descriptors c ~observe ~faults tests] is {!run} for descriptors
    of any fault model: the packed engine, or the oracle under
    [~engine:Reference]. *)
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
  Netlist.t -> observe:observe -> faults:Fault.t array -> active:int array ->
  Pattern.test array -> Bytes.t array

(** {1 Evaluation counters}

    Each engine owns its own counter in the metrics registry
    ([factor.fsim.packed_evals] / [factor.fsim.ref_evals]) so benchmark
    deltas are attributable per engine. *)

(** Straight-line reference engine net evaluations since program start. *)
val ref_evals : unit -> int

(** Packed engine net evaluations (each settles a whole word of
    patterns) since program start. *)
val packed_evals : unit -> int

(** Packed words simulated (one word = up to [Sim.Packed.width] tests). *)
val packed_words : unit -> int
