(** Mutation operators.  See the mli for the family split; the
    implementation is a counted pre-order traversal of every expression
    site in the reachable modules, so "the [k]-th candidate" is a
    stable, scheduler-independent notion. *)

open Verilog.Ast
module U = Verilog.Ast_util
module Sset = U.Sset

type kind =
  | Operand_swap
  | Gate_subst
  | Const_seed
  | Dead_module
  | Deepen
  | Flatten

let kind_name = function
  | Operand_swap -> "operand_swap"
  | Gate_subst -> "gate_subst"
  | Const_seed -> "const_seed"
  | Dead_module -> "dead_module"
  | Deepen -> "deepen"
  | Flatten -> "flatten"

type info = {
  mi_kind : kind;
  mi_preserving : bool;
  mi_exact : bool;
  mi_desc : string;
}

(* ------------------------------------------------------------------ *)
(* Reachability.                                                       *)
(* ------------------------------------------------------------------ *)

let instance_refs m =
  List.filter_map
    (function I_instance i -> Some i.inst_module | _ -> None)
    m.mod_items

let reachable d ~top =
  let rec go acc name =
    if Sset.mem name acc then acc
    else
      match find_module_opt d name with
      | None -> acc
      | Some m -> List.fold_left go (Sset.add name acc) (instance_refs m)
  in
  go Sset.empty top

(* ------------------------------------------------------------------ *)
(* Counted expression traversal.                                       *)
(*                                                                     *)
(* [f] sees every expression node in pre-order (module order, item     *)
(* order, then top-down within each expression) with a global index    *)
(* and a [root] flag marking context-sized positions: assignment       *)
(* right-hand sides, if conditions and case selectors.  Select         *)
(* indices, part bounds, replication counts, case patterns, loop       *)
(* control, parameters and instance connections are never visited —    *)
(* mutations there could break constant-evaluation or connectivity     *)
(* rather than semantics.                                              *)
(* ------------------------------------------------------------------ *)

let map_exprs ~only f d =
  let ctr = ref 0 in
  let rec map_e ~root e =
    let i = !ctr in
    incr ctr;
    let e = f i ~root e in
    match e with
    | E_const _ | E_masked _ | E_ident _ | E_bit _ | E_part _ -> e
    | E_unop (op, a) -> E_unop (op, map_e ~root:false a)
    | E_binop (op, a, b) ->
      E_binop (op, map_e ~root:false a, map_e ~root:false b)
    | E_cond (c, a, b) ->
      E_cond (map_e ~root:false c, map_e ~root:false a, map_e ~root:false b)
    | E_concat es -> E_concat (List.map (map_e ~root:false) es)
    | E_repl (n, es) -> E_repl (n, List.map (map_e ~root:false) es)
  in
  let rec map_s s =
    match s with
    | S_blocking (lv, e) -> S_blocking (lv, map_e ~root:true e)
    | S_nonblocking (lv, e) -> S_nonblocking (lv, map_e ~root:true e)
    | S_if (c, a, b) ->
      let c = map_e ~root:true c in
      S_if (c, List.map map_s a, List.map map_s b)
    | S_case (k, e, arms) ->
      let e = map_e ~root:true e in
      S_case
        (k, e,
         List.map (fun a -> { a with arm_body = List.map map_s a.arm_body })
           arms)
    | S_for fl -> S_for { fl with for_body = List.map map_s fl.for_body }
  in
  let map_item = function
    | I_assign (lv, e) -> I_assign (lv, map_e ~root:true e)
    | I_always (evs, stmts) -> I_always (evs, List.map map_s stmts)
    | item -> item
  in
  let modules =
    List.map
      (fun m ->
        if only m.mod_name then { m with mod_items = List.map map_item m.mod_items }
        else m)
      d.modules
  in
  { modules }

(* Collect the indices at which [pred] holds, with the same numbering
   [map_exprs] uses. *)
let collect_sites ~only pred d =
  let acc = ref [] in
  ignore
    (map_exprs ~only
       (fun i ~root e ->
         if pred ~root e then acc := i :: !acc;
         e)
       d
      : design);
  List.rev !acc

let replace_site ~only target repl d =
  map_exprs ~only (fun i ~root:_ e -> if i = target then repl e else e) d

let pick_site ~rng ~only pred d =
  match collect_sites ~only pred d with
  | [] -> None
  | sites -> Some (List.nth sites (Random.State.int rng (List.length sites)))

(* ------------------------------------------------------------------ *)
(* Expression-level operators.                                         *)
(* ------------------------------------------------------------------ *)

let commutative = function
  | B_add | B_mul | B_and | B_or | B_xor | B_xnor | B_eq | B_neq | B_land
  | B_lor ->
    true
  | _ -> false

(* Substitution classes: every member has the same result width rule as
   the others, so a swap perturbs values, never shapes. *)
let subst_class = function
  | B_and | B_or | B_xor | B_xnor -> Some [ B_and; B_or; B_xor; B_xnor ]
  | B_add | B_sub -> Some [ B_add; B_sub ]
  | B_eq | B_neq -> Some [ B_eq; B_neq ]
  | B_lt | B_le | B_gt | B_ge -> Some [ B_lt; B_le; B_gt; B_ge ]
  | B_land | B_lor -> Some [ B_land; B_lor ]
  | B_shl | B_shr -> Some [ B_shl; B_shr ]
  | B_mul -> None

let operand_swap ~rng ~only d =
  let pred ~root:_ = function
    | E_binop (op, a, b) -> commutative op && a <> b
    | _ -> false
  in
  Option.map
    (fun site ->
      let d =
        replace_site ~only site
          (function E_binop (op, a, b) -> E_binop (op, b, a) | e -> e)
          d
      in
      (d,
       { mi_kind = Operand_swap; mi_preserving = true; mi_exact = true;
         mi_desc = Printf.sprintf "swap@%d" site }))
    (pick_site ~rng ~only pred d)

let gate_subst ~rng ~only d =
  let pred ~root:_ = function
    | E_binop (op, _, _) -> subst_class op <> None
    | _ -> false
  in
  match pick_site ~rng ~only pred d with
  | None -> None
  | Some site ->
    let name = ref "" in
    let d =
      replace_site ~only site
        (function
          | E_binop (op, a, b) ->
            (match subst_class op with
             | Some cls ->
               let others = List.filter (fun o -> o <> op) cls in
               let op' = List.nth others (Random.State.int rng (List.length others)) in
               name :=
                 Printf.sprintf "%s->%s" (binop_to_string op)
                   (binop_to_string op');
               E_binop (op', a, b)
             | None -> E_binop (op, a, b))
          | e -> e)
        d
    in
    Some
      (d,
       { mi_kind = Gate_subst; mi_preserving = false; mi_exact = false;
         mi_desc = Printf.sprintf "subst@%d %s" site !name })

(* Identity wrappers, applied only at context-sized roots so an unsized
   zero can never widen a self-determined operand (e.g. inside a
   concat). *)
let const_seed ~rng ~only d =
  let pred ~root = function
    | E_masked _ -> false
    | _ -> root
  in
  match pick_site ~rng ~only pred d with
  | None -> None
  | Some site ->
    let zero = E_const { width = None; value = 0 } in
    let wrap =
      match Random.State.int rng 3 with
      | 0 -> fun e -> E_unop (U_not, E_unop (U_not, e))
      | 1 -> fun e -> E_binop (B_or, e, zero)
      | _ -> fun e -> E_binop (B_xor, e, zero)
    in
    Some
      (replace_site ~only site wrap d,
       { mi_kind = Const_seed; mi_preserving = true; mi_exact = true;
         mi_desc = Printf.sprintf "seed@%d" site })

(* ------------------------------------------------------------------ *)
(* Module-level operators.                                             *)
(* ------------------------------------------------------------------ *)

let fresh_module_name d base =
  let names = List.map (fun m -> m.mod_name) d.modules in
  let rec go k =
    let n = Printf.sprintf "%s%d" base k in
    if List.mem n names then go (k + 1) else n
  in
  go 0

(* Insert before the last module so "the last module is the top"
   conventions keep holding. *)
let insert_before_last d m =
  let rec ins = function
    | [] -> [ m ]
    | [ last ] -> [ m; last ]
    | x :: rest -> x :: ins rest
  in
  { modules = ins d.modules }

let dead_module ~rng d =
  let name = fresh_module_name d "dead" in
  let m = Gen.leaf rng ~name ~sequential:(Random.State.bool rng) in
  match (Verilog.Parser.parse_design m.Gen.m_src).modules with
  | [ dm ] ->
    Some
      (insert_before_last d dm,
       { mi_kind = Dead_module; mi_preserving = true; mi_exact = true;
         mi_desc = Printf.sprintf "dead module %s" name })
  | _ -> None

(* All (module, item index, instance) triples in reachable modules whose
   instantiated module is defined. *)
let instance_sites ~only d =
  List.concat_map
    (fun m ->
      if not (only m.mod_name) then []
      else
        List.filter_map Fun.id
          (List.mapi
             (fun i item ->
               match item with
               | I_instance inst when find_module_opt d inst.inst_module <> None
                 ->
                 Some (m.mod_name, i, inst)
               | _ -> None)
             m.mod_items))
    d.modules

let replace_item d ~in_module ~at items' =
  { modules =
      List.map
        (fun m ->
          if not (String.equal m.mod_name in_module) then m
          else
            { m with
              mod_items =
                List.concat
                  (List.mapi
                     (fun i item -> if i = at then items' else [ item ])
                     m.mod_items) })
        d.modules }

let deepen ~rng ~only d =
  match instance_sites ~only d with
  | [] -> None
  | sites ->
    let (parent, at, inst) =
      List.nth sites (Random.State.int rng (List.length sites))
    in
    let child =
      match find_module_opt d inst.inst_module with
      | Some c -> c
      | None -> assert false
    in
    let wname = fresh_module_name d "wrap" in
    (* pass-through ports: same names, directions and ranges, always
       plain wires (an [output reg] cannot be driven by an instance) *)
    let ports =
      List.filter_map
        (function
          | I_port (dir, _, r, names) -> Some (I_port (dir, Wire, r, names))
          | _ -> None)
        child.mod_items
    in
    let wrapper =
      { mod_name = wname;
        mod_ports = child.mod_ports;
        mod_items =
          ports
          @ [ I_instance
                { inst_module = child.mod_name;
                  inst_name = "u_inner";
                  inst_params = [];
                  inst_conns =
                    Named
                      (List.map (fun p -> (p, Some (E_ident p)))
                         child.mod_ports) } ] }
    in
    let d =
      replace_item d ~in_module:parent ~at
        [ I_instance { inst with inst_module = wname } ]
    in
    Some
      (insert_before_last d wrapper,
       { mi_kind = Deepen; mi_preserving = true; mi_exact = false;
         mi_desc =
           Printf.sprintf "deepen %s.%s via %s" parent inst.inst_name wname })

(* ------------------------------------------------------------------ *)
(* Flattening: inline a leaf instance.                                 *)
(* ------------------------------------------------------------------ *)

let ren_event ren = function
  | Ev_posedge s -> Ev_posedge (ren s)
  | Ev_negedge s -> Ev_negedge (ren s)
  | Ev_level s -> Ev_level (ren s)
  | Ev_star -> Ev_star

(* A child is inlinable when it is a leaf (no instances, gates or
   parameters) and every connection is a plain identifier covering every
   port — exactly what {!Gen} emits. *)
let inlinable d inst =
  match find_module_opt d inst.inst_module with
  | None -> None
  | Some child ->
    let simple_leaf =
      List.for_all
        (function
          | I_instance _ | I_gate _ | I_param _ | I_localparam _ -> false
          | _ -> true)
        child.mod_items
    in
    (match inst.inst_conns with
     | Named conns
       when simple_leaf
            && List.length conns = List.length child.mod_ports
            && List.for_all
                 (function (_, Some (E_ident _)) -> true | _ -> false)
                 conns
            && List.for_all
                 (fun p -> List.mem_assoc p conns)
                 child.mod_ports ->
       Some (child, conns)
     | _ -> None)

let module_names m =
  List.fold_left
    (fun acc item ->
      match item with
      | I_port (_, _, _, ns) | I_net (_, _, ns) | I_memory (_, _, ns) ->
        List.fold_right Sset.add ns acc
      | _ -> acc)
    Sset.empty m.mod_items

let flatten ~rng ~only d =
  let sites =
    List.filter (fun (_, _, inst) -> inlinable d inst <> None)
      (instance_sites ~only d)
  in
  match sites with
  | [] -> None
  | sites ->
    let (pname, at, inst) =
      List.nth sites (Random.State.int rng (List.length sites))
    in
    let parent =
      match find_module_opt d pname with Some m -> m | None -> assert false
    in
    let (child, conns) =
      match inlinable d inst with Some x -> x | None -> assert false
    in
    let taken = module_names parent in
    let prefix =
      let rec go k =
        let p = Printf.sprintf "fl%d_" k in
        if Sset.exists (fun n -> String.starts_with ~prefix:p n) taken then
          go (k + 1)
        else p
      in
      go 0
    in
    let is_port = List.mem_assoc in
    let ren n =
      if is_port n conns then
        match List.assoc n conns with
        | Some (E_ident x) -> x
        | _ -> assert false
      else prefix ^ n
    in
    let inlined =
      List.filter_map
        (fun item ->
          match item with
          | I_port _ -> None
          | I_net (nt, r, names) -> Some (I_net (nt, r, List.map ren names))
          | I_memory (rw, ra, names) ->
            Some (I_memory (rw, ra, List.map ren names))
          | I_assign (lv, e) ->
            Some (I_assign (U.rename_lvalue ren lv, U.rename_expr ren e))
          | I_always (evs, stmts) ->
            Some
              (I_always
                 (List.map (ren_event ren) evs,
                  List.map (U.rename_stmt ren) stmts))
          | I_param _ | I_localparam _ | I_instance _ | I_gate _ ->
            (* excluded by [inlinable] *)
            assert false)
        child.mod_items
    in
    Some
      (replace_item d ~in_module:pname ~at inlined,
       { mi_kind = Flatten; mi_preserving = true; mi_exact = false;
         mi_desc =
           Printf.sprintf "flatten %s.%s (%s)" pname inst.inst_name
             child.mod_name })

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)
(* ------------------------------------------------------------------ *)

let apply ~rng d ~top kind =
  let r = reachable d ~top in
  let only name = Sset.mem name r in
  match kind with
  | Operand_swap -> operand_swap ~rng ~only d
  | Gate_subst -> gate_subst ~rng ~only d
  | Const_seed -> const_seed ~rng ~only d
  | Dead_module -> dead_module ~rng d
  | Deepen -> deepen ~rng ~only d
  | Flatten -> flatten ~rng ~only d

let random_preserving ~rng d ~top =
  let kinds = [ Operand_swap; Const_seed; Dead_module; Deepen; Flatten ] in
  (* random rotation, then first applicable *)
  let n = Random.State.int rng (List.length kinds) in
  let rotated =
    let rec rot k = function
      | l when k = 0 -> l
      | x :: rest -> rot (k - 1) (rest @ [ x ])
      | [] -> []
    in
    rot n kinds
  in
  List.fold_left
    (fun acc kind ->
      match acc with Some _ -> acc | None -> apply ~rng d ~top kind)
    None rotated

(* Deterministic [Gate_subst] for the chaos bug seam: first
   eligible site in traversal order, first other operator in the class.
   A pure function of the design, so when a shrinker replays the seam
   on candidate designs the planted bug stays at the same structural
   location instead of drifting with a site count. *)
let gate_swap_first d ~top =
  let r = reachable d ~top in
  let only name = Sset.mem name r in
  let pred ~root:_ = function
    | E_binop (op, _, _) -> subst_class op <> None
    | _ -> false
  in
  match collect_sites ~only pred d with
  | [] -> None
  | site :: _ ->
    let name = ref "" in
    let d =
      replace_site ~only site
        (function
          | E_binop (op, a, b) ->
            (match subst_class op with
             | Some cls ->
               let op' = List.find (fun o -> o <> op) cls in
               name :=
                 Printf.sprintf "%s->%s" (binop_to_string op)
                   (binop_to_string op');
               E_binop (op', a, b)
             | None -> E_binop (op, a, b))
          | e -> e)
        d
    in
    Some
      (d,
       { mi_kind = Gate_subst; mi_preserving = false; mi_exact = false;
         mi_desc = Printf.sprintf "subst@%d %s (first)" site !name })
