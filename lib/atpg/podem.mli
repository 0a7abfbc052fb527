(** PODEM test generation over a time-frame-expanded sequential circuit:
    flip-flops chain frame state, frame-0 state is X except for PIER
    registers (loadable pseudo inputs), PIER next-state at the last frame
    is observable, and the fault is present in every frame.  The
    backtrace is guided by per-frame SCOAP controllability costs
    ({!Scoap.gate_costs}) with a seedable jitter for randomized
    restarts.

    Implication is event-driven: after a decision, a flip or the
    unassigns of a backtrack, only the nets those inputs change are
    re-simulated, in level order, and the D-frontier is kept up to date
    for the nets re-evaluated.  The search itself (objectives, backtrace
    draws, decisions, backtracks, tests) is the one a from-scratch
    simulation at every step would give. *)

type outcome =
  | Detected of Pattern.test
  | Exhausted  (** search space exhausted at this unrolling depth *)
  | Aborted    (** backtrack limit or budget reached *)

type config = {
  frames : int;
  backtrack_limit : int;
  piers : int list;  (** loadable/storable flip-flop indices *)
  seed : int;        (** randomizes tie-breaks; vary across restarts *)
}

(** [run c cfg fault] attempts to generate a test for [fault].  A dead
    [budget] token surfaces as [Aborted]: the decision loop loads the
    token's flag on every decision and polls the clock every 64.
    Counts runs, decisions, backtracks and implication gate evaluations
    ([factor.podem.evals], the initial from-scratch pass included) in
    the [factor.podem.*] metrics, once per run. *)
val run : ?budget:Engine.Budget.t -> Netlist.t -> config -> Fault.t ->
  outcome

(** Differential check of the incremental implication, for tests.
    [check_implication c cfg fault batches] builds the search model,
    then for each batch sets input [k mod num_inputs] to [v] (0, 1, or
    anything else for X) for every [(k, v)] of the batch and implies
    the batch.  Inputs are the PIs frame by frame, then the PIERs.
    Before the first batch and after each, the good and faulty planes
    must equal a from-scratch simulation of the same assignment, and
    the D-frontier, members and order, must equal a full scan's.
    Returns the first mismatch. *)
val check_implication :
  Netlist.t -> config -> Fault.t -> (int * int) list list ->
  (unit, string) result
