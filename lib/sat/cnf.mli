(** Tseitin encoding of {!Netlist} circuits into CNF, dual-rail: each
    net has an "is known 1" and an "is known 0" literal, mirroring the
    {!Sim.Logic3} three-valued semantics rail for rail — both rails
    false is X.  Inputs driven by binary variables therefore evaluate
    exactly as the simulator does on binary patterns, and X initial
    state is the constant both-rails-false.

    One {!env} owns one {!Solver.t}; several circuit copies (time
    frames, good/faulty miter halves, two equivalence-check sides) are
    encoded into the same solver and share literals wherever the caller
    routes the same rails into two copies. *)

type env

type rails = {
  r1 : Solver.lit;  (** true iff the net is known 1 *)
  r0 : Solver.lit;  (** true iff the net is known 0 *)
}

val create : unit -> env
val solver : env -> Solver.t

val lit_false : env -> Solver.lit

(** The constant-X value: both rails false. *)
val rails_x : env -> rails

val rails_of_bool : env -> bool -> rails

(** A fresh binary variable as rails: [r0 = neg r1], so the value is
    never X.  Used for primary inputs and PIER load values. *)
val fresh_binary : env -> rails

(** [diff_lit e a b]: a literal true iff the two rail pairs hold
    opposite binary values — the {!Sim.Logic3.diff} of the encoding.
    X never differs from anything. *)
val diff_lit : env -> rails -> rails -> Solver.lit

(** [encode e c ~assign ()] encodes one combinational copy of [c],
    returning the rails of every net (the variable map back to nets).

    [assign] is consulted first on every net: [Some rails] overrides
    the driver entirely — this is how callers supply primary-input
    variables, chain flip-flop state across time frames, inject
    stuck-at faults, and share nets with another copy.  A [Pi] or [Ff]
    net that [assign] does not cover raises [Invalid_argument].

    With [cone], nets outside the mask are skipped (their rails stay
    meaningless); [assign] must then cover every out-of-cone net a
    gate inside the cone reads. *)
val encode :
  env -> Netlist.t -> ?cone:bool array -> assign:(int -> rails option) ->
  unit -> rails array

(** Model value of a rail pair after {!Solver.solve} returned [Sat]:
    [None] is X. *)
val rails_value : env -> rails -> bool option

(** Model value of a literal after [Sat]. *)
val lit_holds : env -> Solver.lit -> bool
