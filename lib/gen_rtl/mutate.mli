(** Mutation operators over Verilog designs, in two families:

    {b semantics-preserving} — operand swap on commutative operators,
    constant-folding seeds (identity wrappers an optimizer must see
    through), dead-module insertion, hierarchy deepening (wrap an
    instance in a fresh pass-through module) and flattening (inline a
    leaf instance) — every differential check must still hold after one
    of these; and

    {b semantics-perturbing} — gate substitution within an operator
    class — the planted-bug generator: a checker that cannot catch a
    random gate swap is not testing anything.

    All operators are deterministic in the [rng] state handed in and
    total over arbitrary parsed designs: when a design offers no
    applicable site the operator returns [None] rather than guessing. *)

type kind =
  | Operand_swap   (** swap operands of a commutative operator *)
  | Gate_subst     (** replace an operator within its class (perturbing) *)
  | Const_seed     (** wrap an expression in [~~e] / [e|0] / [e^0] *)
  | Dead_module    (** insert a fresh never-instantiated module *)
  | Deepen         (** wrap an instance in a pass-through module *)
  | Flatten        (** inline a leaf instance into its parent *)

val kind_name : kind -> string

type info = {
  mi_kind : kind;
  mi_preserving : bool;
  mi_exact : bool;
      (** safe for matched-register exact equivalence checking: the
          mutation renames no flattened register path.  Hierarchy
          changes ([Deepen]/[Flatten]) are preserving but verified with
          random simulation because register names move. *)
  mi_desc : string;  (** site description, for reports *)
}

(** Module names instantiation-reachable from [top] (shared with the
    shrinker, which drops everything outside this set). *)
val reachable :
  Verilog.Ast.design -> top:string -> Verilog.Ast_util.Sset.t

(** [replace_item d ~in_module ~at items] replaces item [at] of module
    [in_module] with [items] (shared with the shrinker's item edits). *)
val replace_item :
  Verilog.Ast.design -> in_module:string -> at:int ->
  Verilog.Ast.item list -> Verilog.Ast.design

(** The counted pre-order expression traversal the operators are built
    on (also shared with the shrinker's expression-hoisting pass).
    [f i ~root e] sees every expression node of every module selected
    by [only], with a global index and a flag marking context-sized
    positions (assignment right-hand sides, if conditions, case
    selectors).  Select indices, part bounds, replication counts, case
    patterns, loop control, parameters and instance connections are
    never visited. *)
val map_exprs :
  only:(string -> bool) ->
  (int -> root:bool -> Verilog.Ast.expr -> Verilog.Ast.expr) ->
  Verilog.Ast.design -> Verilog.Ast.design

(** A random applicable semantics-preserving mutation. *)
val random_preserving :
  rng:Random.State.t -> Verilog.Ast.design -> top:string ->
  (Verilog.Ast.design * info) option

(** Deterministic [Gate_subst]: first eligible site in traversal order,
    first other operator in the class — a pure function of the design.
    The chaos bug seam in {!Diff} uses this so the planted bug stays at
    a stable structural location while the shrinker replays the check
    on ever-smaller candidates. *)
val gate_swap_first :
  Verilog.Ast.design -> top:string ->
  (Verilog.Ast.design * info) option
