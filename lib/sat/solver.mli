(** A CDCL SAT solver: two-watched-literal propagation, first-UIP
    conflict-clause learning, VSIDS-style activity with decay, phase
    saving and Luby restarts.  Clauses may be added between [solve]
    calls, and [solve] takes an assumption list, so the solver is
    incremental in the MiniSat sense. *)

type t

(** A literal packs a variable and a sign: [pos v] is the variable [v]
    itself, [neg l] its complement.  Variables are the integers returned
    by {!new_var}. *)
type lit = private int

val pos : int -> lit
val neg : lit -> lit

(** [lit_of v true] is [pos v]; [lit_of v false] its complement. *)
val lit_of : int -> bool -> lit

val var_of : lit -> int
val positive : lit -> bool

val create : unit -> t

(** Allocate a fresh variable. *)
val new_var : t -> int

val num_vars : t -> int

(** Add a clause (a disjunction of literals).  Adding the empty clause,
    or a clause falsified by the level-0 assignment, makes the instance
    permanently unsatisfiable. *)
val add_clause : t -> lit list -> unit

type result =
  | Sat
  | Unsat
  | Unknown  (** conflict limit reached *)

(** [solve ?budget ?assumptions ?conflict_limit s] decides the
    conjunction of every added clause under the given assumption
    literals.  [Unsat] with assumptions means no model extends the
    assumptions; the clause database itself may still be satisfiable.
    Once a call finds the database itself unsatisfiable, every later
    call returns [Unsat].

    [conflict_limit] counts from this call's start (default: none; a
    limit too large to add to the solver's conflict count is none).
    [budget] bounds the search in wall-clock terms the way
    [conflict_limit] bounds it in conflicts: the search loop polls the
    token every 128 conflicts (and every 1024 decisions) and gives up
    with [Unknown] once it is dead, leaving the solver reusable. *)
val solve : ?budget:Engine.Budget.t -> ?assumptions:lit list ->
  ?conflict_limit:int -> t -> result

(** Model value of a variable after [solve] returned [Sat]. *)
val value : t -> int -> bool

(** Cumulative search statistics since [create]. *)
type stats = {
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_learned : int;
      (** learned clauses recorded since [create], counting every one
          database reduction has since deleted; units, which go to the
          trail, are not counted *)
}

val stats : t -> stats

val zero_stats : stats
val add_stats : stats -> stats -> stats
val stats_to_string : stats -> string
