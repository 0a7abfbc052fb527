(** Traversal helpers over the Verilog AST: signal read/write sets,
    identifier substitution and renaming.  Widths and constant values
    are decided by [Design.Elaborate]. *)

module Sset : Set.S with type elt = string
module Smap : Map.S with type key = string

(** [expr_reads e acc] adds every name read by [e] (including names used
    inside selects) to [acc]. *)
val expr_reads : Ast.expr -> Sset.t -> Sset.t

(** Names read by an expression. *)
val expr_signals : Ast.expr -> Sset.t

(** [lvalue_writes lv acc] adds the base names written by [lv]. *)
val lvalue_writes : Ast.lvalue -> Sset.t -> Sset.t

(** [lvalue_index_reads lv acc] adds the names read by [lv]'s index
    expressions. *)
val lvalue_index_reads : Ast.lvalue -> Sset.t -> Sset.t

(** All names read anywhere in a statement (right-hand sides, conditions,
    indices).  For-loop variables are not free. *)
val stmt_reads : Ast.stmt -> Sset.t -> Sset.t

(** All names written anywhere in a statement. *)
val stmt_writes : Ast.stmt -> Sset.t -> Sset.t

val stmts_reads : Ast.stmt list -> Sset.t
val stmts_writes : Ast.stmt list -> Sset.t

(** [subst_expr env e] substitutes identifiers by expressions (parameter
    resolution, loop unrolling). *)
val subst_expr : Ast.expr Smap.t -> Ast.expr -> Ast.expr

(** [rename_expr f e] replaces every signal name [n] referenced in [e]
    by [f n] (instance flattening, inlining); likewise for lvalues and
    statements.  A for loop keeps its loop variable; references to it
    in the loop's expressions and body are renamed. *)
val rename_expr : (string -> string) -> Ast.expr -> Ast.expr
val rename_lvalue : (string -> string) -> Ast.lvalue -> Ast.lvalue
val rename_stmt : (string -> string) -> Ast.stmt -> Ast.stmt

(** Signals a module item reads (conditions, right-hand sides, instance
    connections). *)
val item_reads : Ast.item -> Sset.t

(** Signals a module item drives (instance connections excluded: their
    direction is resolved by the caller). *)
val item_writes : Ast.item -> Sset.t
