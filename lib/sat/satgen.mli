(** SAT-based stuck-at test generation: a miter of the good circuit
    against a faulted copy (built only over the fault's fanout cone),
    unrolled over bounded time frames, with the differences at the
    observation points OR'd into a detection clause per depth.

    Frame semantics mirror [Atpg.Podem] and [Atpg.Fsim]: primary
    inputs are fresh binary variables per frame, frame-0 flip-flops
    are X except PIER registers (which get binary load variables),
    primary outputs are observed on every frame, and PIER next-state
    is observed at the last frame.  The fault is present in every
    frame.  Primary inputs are binary, so on combinational circuits
    the classification agrees exactly with PODEM's. *)

(** A satisfying assignment decoded back to input vectors, in the
    shape of [Atpg.Pattern.test] (this library cannot depend on
    [Atpg], so the record is mirrored here). *)
type cube = {
  tc_vectors : bool array array;  (** per frame, one bool per PI *)
  tc_loads : (int * bool) list;   (** PIER flip-flop index, value *)
}

type outcome =
  | Cube of cube
  | Untestable of int
      (** UNSAT at every unrolling depth [1..n] — for a combinational
          circuit ([n = 1]) a complete untestability proof, otherwise
          a bounded one exactly as strong as PODEM exhausting every
          depth *)
  | Gave_up  (** conflict limit or budget reached before a verdict *)

(** [run c ~net ~stuck] targets the single stuck-at fault
    [net] stuck-at-[stuck].  Depths [1..max_frames] are tried in turn
    ([max_frames] is capped to 1 when [c] has no flip-flops) on one
    solver that is extended by a frame per depth, so clauses learned
    at a shallower depth carry over; each depth's solve gets
    [conflict_limit] conflicts.  A dead [budget] token turns the
    remaining work into [Gave_up] (never a spurious untestability
    verdict).  Also returns that solver's statistics, totals across
    every depth tried.

    With the structured log at [Debug], each depth emits one
    [sat.depth] event: [net], [stuck], [depth], [vars] (solver
    variables after encoding), [conflicts] (this depth's solve),
    [encode_s], [solve_s] and [result] ([sat], [unsat] or
    [unknown]). *)
val run :
  ?max_frames:int -> ?conflict_limit:int -> ?piers:int list ->
  ?budget:Engine.Budget.t ->
  Netlist.t -> net:int -> stuck:bool -> outcome * Solver.stats
