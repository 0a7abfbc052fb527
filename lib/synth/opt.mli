(** Standalone netlist optimization: rebuilds a finished netlist through
    the simplifying constructors, sweeping dead logic and dead state.
    Includes a random-simulation equivalence check. *)

(** [rebuild c] reconstructs [c]; dead cones behind constant selects
    are never rebuilt. *)
val rebuild : Netlist.t -> Netlist.t

(** [Equal] means no counter-example was found within the effort bound. *)
type verdict = Equal | Differ of string

(** [equivalent ?rounds ?cycles ~rng a b] drives both circuits with the
    same random input sequences (matched by PI name) and compares the
    outputs they share (matched by PO name); sequential circuits are
    stepped [cycles] times per round from the all-X state. *)
val equivalent :
  ?rounds:int -> ?cycles:int -> rng:Random.State.t ->
  Netlist.t -> Netlist.t -> verdict

(** [equivalent_exact a b] runs the random check as a fast pre-filter,
    then a SAT proof of matched-register equivalence ({!Sat.Ec}):
    [Equal] is exact over shared outputs and next-state functions.  An
    inconclusive solver answer fails closed as [Differ
    "sat-inconclusive"]. *)
val equivalent_exact :
  ?rounds:int -> ?cycles:int -> ?rng:Random.State.t ->
  Netlist.t -> Netlist.t -> verdict
