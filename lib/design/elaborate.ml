(** Elaboration: resolves parameters to constants, unrolls for loops,
    prunes statically-known branches, normalizes instance connections to
    named form, and specializes modules per parameter binding.  The
    result is the representation every downstream pass (chains,
    extraction, synthesis) operates on.  Expression widths and constant
    values are decided here, once, for the whole front end. *)

open Verilog.Ast
module Sset = Verilog.Ast_util.Sset
module Smap = Verilog.Ast_util.Smap

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type signal = {
  sg_name : string;
  sg_msb : int;
  sg_lsb : int;
  sg_reg : bool;
  sg_dir : direction option;  (** [Some _] for ports *)
  sg_words : int;             (** > 1 for register arrays (memories) *)
  sg_addr_base : int;         (** lowest address of a register array *)
}

let signal_width s = s.sg_msb - s.sg_lsb + 1
let is_memory s = s.sg_words > 1

type clocking = Combinational | Clocked of string  (** posedge clock name *)

type einstance = {
  ei_module : string;  (** elaborated (specialized) module name *)
  ei_name : string;
  ei_conns : (string * expr option) list;  (** full port list, in order *)
}

type eitem =
  | EI_assign of lvalue * expr
  | EI_always of clocking * stmt list
  | EI_instance of einstance
  | EI_gate of gate_prim * string * lvalue * expr list

type emodule = {
  em_name : string;
  em_ports : string list;
  em_signals : signal Smap.t;
  em_items : eitem array;
}

type edesign = {
  ed_modules : emodule Smap.t;
  ed_top : string;
}

let find_emodule ed name =
  match Smap.find_opt name ed.ed_modules with
  | Some m -> m
  | None -> errorf "module %s not found in elaborated design" name

let signal_of em name =
  match Smap.find_opt name em.em_signals with
  | Some s -> s
  | None -> errorf "signal %s not declared in module %s" name em.em_name

let port_dir em name =
  match (signal_of em name).sg_dir with
  | Some d -> d
  | None -> errorf "%s is not a port of %s" name em.em_name

(* ------------------------------------------------------------------ *)
(* Widths and constant values.                                         *)
(* ------------------------------------------------------------------ *)

(* Self-determined width of an expression; [signal] looks up the
   declarations of the names it reads. *)
let rec self_width signal e =
  let sum es = List.fold_left (fun acc e -> acc + self_width signal e) 0 es in
  match e with
  | E_const { width = Some w; _ } -> w
  | E_const { width = None; _ } -> 32
  | E_masked m -> m.m_width
  | E_ident s -> signal_width (signal s)
  | E_bit (s, _) ->
    let info = signal s in
    if is_memory info then signal_width info else 1
  | E_part (_, E_const m, E_const l) -> m.value - l.value + 1
  | E_part _ -> errorf "part select bounds must be constant"
  | E_unop ((U_lnot | U_rand | U_ror | U_rxor | U_rnand | U_rnor | U_rxnor), _)
  | E_binop ((B_eq | B_neq | B_lt | B_le | B_gt | B_ge | B_land | B_lor), _, _)
    -> 1
  | E_unop (_, a) | E_binop ((B_shl | B_shr), a, _) -> self_width signal a
  | E_binop (_, a, b) | E_cond (_, a, b) ->
    max (self_width signal a) (self_width signal b)
  | E_concat es -> sum es
  | E_repl (E_const n, es) -> n.value * sum es
  | E_repl _ -> errorf "replication count must be constant"

let rec lvalue_width signal = function
  | L_ident s -> signal_width (signal s)
  | L_bit (s, _) ->
    let info = signal s in
    if is_memory info then signal_width info else 1
  | L_part (_, E_const m, E_const l) -> m.value - l.value + 1
  | L_part _ -> errorf "part select bounds must be constant"
  | L_concat lvs ->
    List.fold_left (fun acc lv -> acc + lvalue_width signal lv) 0 lvs

exception Open

let mask w v = if w >= 62 then v else v land ((1 lsl w) - 1)

(* Whether an expression's width comes from unsized literals alone. *)
let rec unsized = function
  | E_const { width; _ } -> width = None
  | E_unop (_, a) | E_binop ((B_shl | B_shr), a, _) -> unsized a
  | E_binop (_, a, b) | E_cond (_, a, b) -> unsized a && unsized b
  | E_masked _ | E_ident _ | E_bit _ | E_part _ | E_concat _ | E_repl _ ->
    false

let closed_width = self_width (fun _ -> raise Open)

(* [eval e w] is the value of closed [e] in a context [w] bits wide,
   evaluated the way [Synth.Lower] lowers: every context-sized operand at
   the context width, comparison, logical, reduction and shift-amount
   operands at their own.
   @raise Open if [e] reads a signal. *)
let eval e w =
  let width = closed_width in
  let bit b = if b then 1 else 0 in
  let rec parity v = if v = 0 then 0 else (v land 1) lxor parity (v lsr 1) in
  let rec eval e w =
    mask w
      (match e with
       | E_const { value; _ } -> value
       | E_masked _ | E_ident _ | E_bit _ | E_part _ -> raise Open
       | E_unop (U_not, a) -> lnot (eval a w)
       | E_unop (U_neg, a) -> -eval a w
       | E_unop (U_plus, a) -> eval a w
       | E_unop (op, a) ->
         let wa = width a in
         let v = eval a wa and ones = mask wa (-1) in
         (match op with
          | U_lnot | U_rnor -> bit (v = 0)
          | U_ror -> bit (v <> 0)
          | U_rand -> bit (v = ones)
          | U_rnand -> bit (v <> ones)
          | U_rxor -> parity v
          | _ -> 1 - parity v)
       | E_binop ((B_shl | B_shr) as op, a, b) ->
         let wa = max w (width a) in
         let x = eval a wa and k = eval b (width b) in
         if k < 0 || k >= wa then 0
         else if op = B_shl then x lsl k
         else x lsr k
       | E_binop ((B_eq | B_neq | B_lt | B_le | B_gt | B_ge) as op, a, b) ->
         let wc = max (width a) (width b) in
         let x = eval a wc and y = eval b wc in
         bit
           (match op with
            | B_eq -> x = y
            | B_neq -> x <> y
            | B_lt -> x < y
            | B_le -> x <= y
            | B_gt -> x > y
            | _ -> x >= y)
       | E_binop (B_land, a, b) ->
         let x = truth a and y = truth b in
         bit (x && y)
       | E_binop (B_lor, a, b) ->
         let x = truth a and y = truth b in
         bit (x || y)
       | E_binop (op, a, b) ->
         let x = eval a w and y = eval b w in
         (match op with
          | B_add -> x + y
          | B_sub -> x - y
          | B_mul -> x * y
          | B_and -> x land y
          | B_or -> x lor y
          | B_xor -> x lxor y
          | _ -> lnot (x lxor y))
       | E_cond (c, t, f) ->
         let x = eval t w and y = eval f w in
         if truth c then x else y
       | E_concat es ->
         List.fold_left
           (fun acc e ->
             let we = width e in
             (acc lsl we) lor eval e we)
           0 es
       | E_repl (n, es) ->
         let one = E_concat es in
         let wo = width one in
         let v = eval one wo in
         let rec rep i acc =
           if i = 0 then acc else rep (i - 1) ((acc lsl wo) lor v)
         in
         rep (eval n (width n)) 0)
  and truth e = eval e (width e) <> 0 in
  eval e w

let const_value ?width e =
  match closed_width e with
  | exception Open -> None
  | w ->
    (match (width, eval e (Option.value width ~default:w)) with
     | exception Open -> None
     | (Some w, value) -> Some { value; width = Some w }
     | (None, value) ->
       Some { value; width = (if w = 32 && unsized e then None else Some w) })

(* Literal arithmetic: built from literals by the arithmetic, bitwise,
   shift, comparison and logical operators and unary [-], [+] and [!].
   The others (with [~], [~^], a reduction, a concatenation or a
   replication) are lowered gate by gate and left to the builder's
   constant rules.  The split fixes the order in which the builder
   creates constant nets, which the pinned netlists of test_synth record:
   folding more, or less, renumbers correct netlists. *)
let rec foldable = function
  | E_const _ -> true
  | E_unop ((U_neg | U_plus | U_lnot), a) -> foldable a
  | E_binop (op, a, b) -> op <> B_xnor && foldable a && foldable b
  | _ -> false

(* The value of a condition elaboration prunes on. *)
let static_value c = if foldable c then const_value c else None

(* ------------------------------------------------------------------ *)
(* Parameter substitution and the places that need a number.           *)
(* ------------------------------------------------------------------ *)

(* A context-sized expression is left for synthesis to size and fold.
   Elaboration turns into a literal what the language requires to be a
   number (part-select bounds, replication counts) and a foldable select
   index, and prunes the ?: arm a foldable condition rules out, so the
   def-use chains never see a dead branch. *)
let rec prune e =
  match e with
  | E_const _ | E_masked _ | E_ident _ | E_bit (_, E_const _) -> e
  | E_bit (s, i) -> E_bit (s, index i)
  | E_part (s, m, l) ->
    E_part (s, literal "part select bound" m, literal "part select bound" l)
  | E_unop (op, a) -> E_unop (op, prune a)
  | E_binop (op, a, b) -> E_binop (op, prune a, prune b)
  | E_cond (c, t, f) ->
    let c = prune c in
    (match static_value c with
     | Some v -> prune (if v.value <> 0 then t else f)
     | None -> E_cond (c, prune t, prune f))
  | E_concat es -> E_concat (List.map prune es)
  | E_repl (n, es) ->
    E_repl (literal "replication count" n, List.map prune es)

and index i =
  let i = prune i in
  match static_value i with Some c -> E_const c | None -> i

and literal ctx e = E_const (constant ctx e)

and constant ctx e =
  let e = prune e in
  match const_value e with
  | Some c -> c
  | None ->
    let reads = Verilog.Ast_util.expr_signals e in
    errorf "%s: expression is not constant after elaboration%s" ctx
      (if Sset.is_empty reads then ""
       else " (reads " ^ String.concat ", " (Sset.elements reads) ^ ")")

let subst env e = prune (Verilog.Ast_util.subst_expr env e)
let value env ctx e = constant ctx (Verilog.Ast_util.subst_expr env e)

(* ------------------------------------------------------------------ *)
(* Statement elaboration: substitute, prune, unroll for loops.         *)
(* ------------------------------------------------------------------ *)

let max_loop_iterations = 4096

let rec elab_stmt env stmt : stmt list =
  match stmt with
  | S_blocking (lv, e) -> [ S_blocking (elab_lvalue env lv, subst env e) ]
  | S_nonblocking (lv, e) ->
    [ S_nonblocking (elab_lvalue env lv, subst env e) ]
  | S_if (c, t, f) ->
    let c = subst env c in
    (match static_value c with
     | Some { value; _ } ->
       (* statically-known branch: splice the live side *)
       elab_stmts env (if value <> 0 then t else f)
     | None -> [ S_if (c, elab_stmts env t, elab_stmts env f) ])
  | S_case (kind, subject, arms) ->
    let arms =
      List.map
        (fun arm ->
          { arm_patterns = List.map (subst env) arm.arm_patterns;
            arm_body = elab_stmts env arm.arm_body })
        arms
    in
    [ S_case (kind, subst env subject, arms) ]
  | S_for f ->
    let int env ctx e = (value env ctx e).value in
    let rec unroll value count acc =
      if count > max_loop_iterations then
        errorf "for loop on %s exceeds %d iterations" f.for_var
          max_loop_iterations;
      let env = Smap.add f.for_var (E_const { width = None; value }) env in
      if int env "for condition" f.for_cond = 0 then List.rev acc
      else begin
        let body = elab_stmts env f.for_body in
        let next = int env "for step" f.for_step in
        unroll next (count + 1) (List.rev_append body acc)
      end
    in
    unroll (int env "for initializer" f.for_init) 0 []

and elab_stmts env stmts = List.concat_map (elab_stmt env) stmts

and elab_lvalue env lv =
  match lv with
  | L_ident _ -> lv
  | L_bit (s, i) -> L_bit (s, index (Verilog.Ast_util.subst_expr env i))
  | L_part (s, msb, lsb) ->
    L_part (s, E_const (value env "part select bound" msb),
            E_const (value env "part select bound" lsb))
  | L_concat lvs -> L_concat (List.map (elab_lvalue env) lvs)

let elab_clocking em_name events body =
  let edges =
    List.filter_map
      (function Ev_posedge s -> Some s | _ -> None)
      events
  in
  let negedges = List.exists (function Ev_negedge _ -> true | _ -> false) events in
  if negedges then
    errorf "%s: negedge clocking is outside the supported subset" em_name;
  match edges with
  | [] ->
    (* combinational: star or explicit level sensitivity list *)
    (Combinational, body)
  | [ clk ] -> (Clocked clk, body)
  | _ -> errorf "%s: multiple clock edges in one always block" em_name

(* ------------------------------------------------------------------ *)
(* Module elaboration.                                                 *)
(* ------------------------------------------------------------------ *)

(* Specialized module name for a parameter binding; a sized value adds
   its width, since the parameter takes it. *)
let specialized_name base overrides =
  if overrides = [] then base
  else
    let part (n, c) =
      match c.width with
      | None -> Printf.sprintf "%s%d" n c.value
      | Some w -> Printf.sprintf "%s%dw%d" n c.value w
    in
    base ^ "_p_" ^ String.concat "_" (List.map part overrides)

type elab_ctx = {
  source : design;
  mutable done_ : emodule Smap.t;
  guard : unit -> unit;  (* per-module cancellation hook *)
}

let rec elab_module ctx base_name (overrides : (string * const) list) =
  let name = specialized_name base_name overrides in
  match Smap.find_opt name ctx.done_ with
  | Some em -> em
  | None ->
    ctx.guard ();
    let m =
      try Verilog.Ast.find_module ctx.source base_name
      with Not_found -> errorf "module %s is not defined" base_name
    in
    (* 1. parameter environment: a parameter takes the width of its
       value (IEEE 1364-2005 12.2), 32 bits when that is unsized *)
    let env = ref Smap.empty in
    let add_param n c = env := Smap.add n (E_const c) !env in
    List.iter
      (fun item ->
        match item with
        | I_param (n, default) ->
          add_param n
            (match List.assoc_opt n overrides with
             | Some c -> c
             | None -> value !env ("parameter " ^ n) default)
        | I_localparam (n, e) -> add_param n (value !env ("localparam " ^ n) e)
        | _ -> ())
      m.mod_items;
    let env = !env in
    (* 2. signal table *)
    let signals = ref Smap.empty in
    let declare name msb lsb is_reg dir =
      let merged =
        match Smap.find_opt name !signals with
        | None ->
          { sg_name = name; sg_msb = msb; sg_lsb = lsb; sg_reg = is_reg;
            sg_dir = dir; sg_words = 1; sg_addr_base = 0 }
        | Some old ->
          (* e.g. "output y;" plus "reg [3:0] y;" *)
          { old with
            sg_msb = max old.sg_msb msb;
            sg_lsb = min old.sg_lsb lsb;
            sg_reg = old.sg_reg || is_reg;
            sg_dir = (match dir with Some _ -> dir | None -> old.sg_dir) }
      in
      signals := Smap.add name merged !signals
    in
    let declare_memory name msb lsb a b =
      let lo = min a b and hi = max a b in
      signals :=
        Smap.add name
          { sg_name = name; sg_msb = msb; sg_lsb = lsb; sg_reg = true;
            sg_dir = None; sg_words = hi - lo + 1; sg_addr_base = lo }
          !signals
    in
    let resolve_range = function
      | None -> (0, 0)
      | Some { msb; lsb } ->
        let m = (value env "range msb" msb).value in
        let l = (value env "range lsb" lsb).value in
        if l > m then errorf "%s: descending ranges only ([msb:lsb])" name;
        (m, l)
    in
    List.iter
      (fun item ->
        match item with
        | I_port (dir, net, range, names) ->
          let (msb, lsb) = resolve_range range in
          List.iter (fun n -> declare n msb lsb (net = Reg) (Some dir)) names
        | I_net (net, range, names) ->
          let (msb, lsb) = resolve_range range in
          List.iter
            (fun n ->
              if not (Smap.mem n env) then
                declare n msb lsb (net = Reg) None)
            names
        | I_memory (range, arr, names) ->
          let (msb, lsb) = resolve_range range in
          let a = (value env "array bound" arr.msb).value in
          let b = (value env "array bound" arr.lsb).value in
          List.iter (fun n -> declare_memory n msb lsb a b) names
        | _ -> ())
      m.mod_items;
    (* 3. items *)
    let items = ref [] in
    let emit i = items := i :: !items in
    List.iter
      (fun item ->
        match item with
        | I_port _ | I_net _ | I_memory _ | I_param _ | I_localparam _ -> ()
        | I_assign (lv, e) ->
          emit (EI_assign (elab_lvalue env lv, subst env e))
        | I_always (events, body) ->
          let body = elab_stmts env body in
          let (clocking, body) = elab_clocking m.mod_name events body in
          emit (EI_always (clocking, body))
        | I_gate (g, gname, out, inputs) ->
          emit
            (EI_gate (g, gname, elab_lvalue env out,
                      List.map (subst env) inputs))
        | I_instance inst -> emit (EI_instance (elab_instance ctx env inst)))
      m.mod_items;
    let em =
      { em_name = name;
        em_ports = m.mod_ports;
        em_signals = !signals;
        em_items = Array.of_list (List.rev !items) }
    in
    ctx.done_ <- Smap.add name em ctx.done_;
    em

and elab_instance ctx env inst =
  let child_overrides =
    List.map
      (fun (n, e) -> (n, value env ("override " ^ n) e))
      inst.inst_params
  in
  let child = elab_module ctx inst.inst_module child_overrides in
  let conns =
    match inst.inst_conns with
    | Positional es ->
      let es = List.map (fun e -> Some (subst env e)) es in
      let n_ports = List.length child.em_ports in
      if List.length es <> n_ports then
        errorf "instance %s of %s: %d connections for %d ports"
          inst.inst_name inst.inst_module (List.length es) n_ports;
      List.combine child.em_ports es
    | Named given ->
      List.map
        (fun port ->
          match List.assoc_opt port given with
          | Some (Some e) -> (port, Some (subst env e))
          | Some None | None -> (port, None))
        child.em_ports
  in
  { ei_module = child.em_name; ei_name = inst.inst_name; ei_conns = conns }

(** [elaborate design ~top] elaborates [design] rooted at module [top].
    @raise Error on undefined modules, non-constant parameter expressions,
    unsupported constructs, or connection arity mismatches. *)
let elaborate ?(guard = fun () -> ()) design ~top =
  Obs.Span.with_ "elaborate" ~attrs:[ ("top", Obs.Json.String top) ]
  @@ fun () ->
  let ctx = { source = design; done_ = Smap.empty; guard } in
  let top_module = elab_module ctx top [] in
  { ed_modules = ctx.done_; ed_top = top_module.em_name }

(* ------------------------------------------------------------------ *)
(* Queries used throughout the toolchain.                              *)
(* ------------------------------------------------------------------ *)

(** Ports of an elaborated module with directions, in header order. *)
let ports_of em =
  List.map (fun p -> (p, port_dir em p)) em.em_ports

let inputs_of em =
  List.filter_map
    (fun (p, d) -> if d = Input then Some p else None)
    (ports_of em)

let outputs_of em =
  List.filter_map
    (fun (p, d) -> if d = Output then Some p else None)
    (ports_of em)

(** Total port bit counts (PI/PO columns of Table 1). *)
let port_bits em names =
  List.fold_left (fun acc n -> acc + signal_width (signal_of em n)) 0 names
