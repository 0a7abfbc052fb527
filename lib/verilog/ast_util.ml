(** Traversal helpers over the Verilog AST: signal read/write sets,
    identifier substitution and renaming. *)

open Ast

module Sset = Set.Make (String)
module Smap = Map.Make (String)

(** Names read by an expression (including names used inside selects). *)
let rec expr_reads e acc =
  match e with
  | E_const _ | E_masked _ -> acc
  | E_ident s -> Sset.add s acc
  | E_bit (s, i) -> expr_reads i (Sset.add s acc)
  | E_part (s, msb, lsb) -> expr_reads lsb (expr_reads msb (Sset.add s acc))
  | E_unop (_, a) -> expr_reads a acc
  | E_binop (_, a, b) -> expr_reads b (expr_reads a acc)
  | E_cond (c, t, f) -> expr_reads f (expr_reads t (expr_reads c acc))
  | E_concat es -> List.fold_left (fun acc e -> expr_reads e acc) acc es
  | E_repl (n, es) ->
    List.fold_left (fun acc e -> expr_reads e acc) (expr_reads n acc) es

let expr_signals e = expr_reads e Sset.empty

(** Base names written by an lvalue. *)
let rec lvalue_writes lv acc =
  match lv with
  | L_ident s -> Sset.add s acc
  | L_bit (s, _) -> Sset.add s acc
  | L_part (s, _, _) -> Sset.add s acc
  | L_concat lvs -> List.fold_left (fun acc lv -> lvalue_writes lv acc) acc lvs

(** Names read by an lvalue's index expressions. *)
let rec lvalue_index_reads lv acc =
  match lv with
  | L_ident _ -> acc
  | L_bit (_, i) -> expr_reads i acc
  | L_part (_, msb, lsb) -> expr_reads lsb (expr_reads msb acc)
  | L_concat lvs ->
    List.fold_left (fun acc lv -> lvalue_index_reads lv acc) acc lvs

(** All names read anywhere in a statement (RHS, conditions, indices). *)
let rec stmt_reads stmt acc =
  match stmt with
  | S_blocking (lv, e) | S_nonblocking (lv, e) ->
    expr_reads e (lvalue_index_reads lv acc)
  | S_if (c, t, e) ->
    let acc = expr_reads c acc in
    let acc = List.fold_left (fun acc s -> stmt_reads s acc) acc t in
    List.fold_left (fun acc s -> stmt_reads s acc) acc e
  | S_case (_, subject, arms) ->
    let acc = expr_reads subject acc in
    List.fold_left
      (fun acc arm ->
        let acc =
          List.fold_left (fun acc p -> expr_reads p acc) acc arm.arm_patterns
        in
        List.fold_left (fun acc s -> stmt_reads s acc) acc arm.arm_body)
      acc arms
  | S_for f ->
    let acc = expr_reads f.for_init acc in
    let acc = expr_reads f.for_cond acc in
    let acc = expr_reads f.for_step acc in
    let acc = List.fold_left (fun acc s -> stmt_reads s acc) acc f.for_body in
    Sset.remove f.for_var acc

(** All names written anywhere in a statement. *)
let rec stmt_writes stmt acc =
  match stmt with
  | S_blocking (lv, _) | S_nonblocking (lv, _) -> lvalue_writes lv acc
  | S_if (_, t, e) ->
    let acc = List.fold_left (fun acc s -> stmt_writes s acc) acc t in
    List.fold_left (fun acc s -> stmt_writes s acc) acc e
  | S_case (_, _, arms) ->
    List.fold_left
      (fun acc arm ->
        List.fold_left (fun acc s -> stmt_writes s acc) acc arm.arm_body)
      acc arms
  | S_for f ->
    let acc = List.fold_left (fun acc s -> stmt_writes s acc) acc f.for_body in
    Sset.remove f.for_var acc

let stmts_reads stmts =
  List.fold_left (fun acc s -> stmt_reads s acc) Sset.empty stmts

let stmts_writes stmts =
  List.fold_left (fun acc s -> stmt_writes s acc) Sset.empty stmts

(** Substitute identifiers by expressions (used for parameter resolution
    and for-loop unrolling). *)
let rec subst_expr env e =
  match e with
  | E_const _ | E_masked _ -> e
  | E_ident s -> (match Smap.find_opt s env with Some e' -> e' | None -> e)
  | E_bit (s, i) -> E_bit (s, subst_expr env i)
  | E_part (s, msb, lsb) -> E_part (s, subst_expr env msb, subst_expr env lsb)
  | E_unop (op, a) -> E_unop (op, subst_expr env a)
  | E_binop (op, a, b) -> E_binop (op, subst_expr env a, subst_expr env b)
  | E_cond (c, t, f) ->
    E_cond (subst_expr env c, subst_expr env t, subst_expr env f)
  | E_concat es -> E_concat (List.map (subst_expr env) es)
  | E_repl (n, es) -> E_repl (subst_expr env n, List.map (subst_expr env) es)

(** Rename every signal reference (instance flattening, inlining). *)
let rec rename_expr f e =
  match e with
  | E_const _ | E_masked _ -> e
  | E_ident s -> E_ident (f s)
  | E_bit (s, i) -> E_bit (f s, rename_expr f i)
  | E_part (s, m, l) -> E_part (f s, rename_expr f m, rename_expr f l)
  | E_unop (op, a) -> E_unop (op, rename_expr f a)
  | E_binop (op, a, b) -> E_binop (op, rename_expr f a, rename_expr f b)
  | E_cond (c, t, e') ->
    E_cond (rename_expr f c, rename_expr f t, rename_expr f e')
  | E_concat es -> E_concat (List.map (rename_expr f) es)
  | E_repl (n, es) -> E_repl (rename_expr f n, List.map (rename_expr f) es)

let rec rename_lvalue f lv =
  match lv with
  | L_ident s -> L_ident (f s)
  | L_bit (s, i) -> L_bit (f s, rename_expr f i)
  | L_part (s, m, l) -> L_part (f s, rename_expr f m, rename_expr f l)
  | L_concat lvs -> L_concat (List.map (rename_lvalue f) lvs)

let rec rename_stmt f stmt =
  match stmt with
  | S_blocking (lv, e) -> S_blocking (rename_lvalue f lv, rename_expr f e)
  | S_nonblocking (lv, e) ->
    S_nonblocking (rename_lvalue f lv, rename_expr f e)
  | S_if (c, t, e) ->
    S_if (rename_expr f c, List.map (rename_stmt f) t,
          List.map (rename_stmt f) e)
  | S_case (k, subject, arms) ->
    let arm a =
      { arm_patterns = List.map (rename_expr f) a.arm_patterns;
        arm_body = List.map (rename_stmt f) a.arm_body }
    in
    S_case (k, rename_expr f subject, List.map arm arms)
  | S_for fl ->
    S_for
      { for_var = fl.for_var;
        for_init = rename_expr f fl.for_init;
        for_cond = rename_expr f fl.for_cond;
        for_step = rename_expr f fl.for_step;
        for_body = List.map (rename_stmt f) fl.for_body }

(** Signals a module item reads (conditions, RHS, connections). *)
let item_reads = function
  | I_port _ | I_net _ | I_memory _ | I_param _ | I_localparam _ -> Sset.empty
  | I_assign (lv, e) -> expr_reads e (lvalue_index_reads lv Sset.empty)
  | I_always (events, body) ->
    let acc = stmts_reads body in
    List.fold_left
      (fun acc ev ->
        match ev with
        | Ev_posedge s | Ev_negedge s | Ev_level s -> Sset.add s acc
        | Ev_star -> acc)
      acc events
  | I_instance inst ->
    (* conservatively: all connected expressions are both read and written
       depending on port direction, which the caller resolves; here we
       return every name mentioned *)
    (match inst.inst_conns with
     | Positional es ->
       List.fold_left (fun acc e -> expr_reads e acc) Sset.empty es
     | Named conns ->
       List.fold_left
         (fun acc (_, v) ->
           match v with Some e -> expr_reads e acc | None -> acc)
         Sset.empty conns)
  | I_gate (_, _, out, inputs) ->
    List.fold_left
      (fun acc e -> expr_reads e acc)
      (lvalue_index_reads out Sset.empty)
      inputs

(** Signals a module item drives. *)
let item_writes = function
  | I_port _ | I_net _ | I_memory _ | I_param _ | I_localparam _ -> Sset.empty
  | I_assign (lv, _) -> lvalue_writes lv Sset.empty
  | I_always (_, body) -> stmts_writes body
  | I_instance _ -> Sset.empty (* resolved against port directions *)
  | I_gate (_, _, out, _) -> lvalue_writes out Sset.empty
