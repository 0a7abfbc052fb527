(** Greedy deterministic shrinking.  See the mli for the contract.  The
    passes never try to be clever about which edits are sound — any edit
    at all is proposed, and the replayed failure predicate (with
    exceptions counting as rejection) is the only arbiter. *)

open Verilog.Ast
module Sset = Verilog.Ast_util.Sset

let render d = Verilog.Pp.design_to_string d

let size d =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (render d)

let const0 = E_const { width = None; value = 0 }

(* ------------------------------------------------------------------ *)
(* Candidate edits.                                                    *)
(* ------------------------------------------------------------------ *)

(* Output port names of a module — what an instance of it drives. *)
let output_ports m =
  List.concat_map
    (function I_port (Output, _, _, ns) -> ns | _ -> [])
    m.mod_items

(* Dropping an instance leaves its output-connected nets undriven; tie
   them to zero so the candidate still elaborates. *)
let drop_instance d inst =
  match inst.inst_conns with
  | Positional _ -> []
  | Named conns ->
    let outs =
      match find_module_opt d inst.inst_module with
      | Some child -> output_ports child
      | None -> []
    in
    List.filter_map
      (function
        | (p, Some (E_ident w)) when List.mem p outs ->
          Some (I_assign (L_ident w, const0))
        | _ -> None)
      conns

(* --- statement edits ---------------------------------------------- *)

(* Per-node edits: 0 drops the statement; for S_if, 1/2 unwrap the
   then/else branch; for S_case, 1 + k unwraps arm k's body. *)
let edit_variants = function
  | S_if _ -> 3
  | S_case (_, _, arms) -> 1 + List.length arms
  | _ -> 1

let apply_edit n s =
  match (n, s) with
  | (0, _) -> []
  | (1, S_if (_, a, _)) -> a
  | (2, S_if (_, _, b)) -> b
  | (k, S_case (_, _, arms)) when k - 1 < List.length arms ->
    (List.nth arms (k - 1)).arm_body
  | _ -> [ s ]

(* Counted traversal over every statement node of every always block, in
   module/item/pre-order — the numbering both the collection pass and
   the application pass share (they only diverge after the edited
   node, which cannot affect earlier indices). *)
let map_stmts f d =
  let ctr = ref 0 in
  let rec go s =
    let i = !ctr in
    incr ctr;
    match f i s with
    | Some repl -> repl
    | None ->
      (match s with
       | S_if (c, a, b) -> [ S_if (c, go_list a, go_list b) ]
       | S_case (k, e, arms) ->
         [ S_case
             (k, e,
              List.map (fun a -> { a with arm_body = go_list a.arm_body }) arms)
         ]
       | S_for fl -> [ S_for { fl with for_body = go_list fl.for_body } ]
       | s -> [ s ])
  and go_list stmts = List.concat_map go stmts in
  { modules =
      List.map
        (fun m ->
          { m with
            mod_items =
              List.map
                (function
                  | I_always (evs, stmts) -> I_always (evs, go_list stmts)
                  | item -> item)
                m.mod_items })
        d.modules }

let stmt_sites d =
  let acc = ref [] in
  ignore
    (map_stmts
       (fun i s ->
         acc := (i, edit_variants s) :: !acc;
         None)
       d
      : design);
  List.rev !acc

(* --- expression hoisting ------------------------------------------ *)

(* Replace an expression node by one of its operands — the move that
   collapses xor chains and mux trees around the live path.  Strictly
   smaller in rendered bytes by construction. *)
let hoist_variants = function
  | E_binop (_, a, b) -> [ a; b ]
  | E_cond (_, a, b) -> [ a; b ]
  | E_unop (_, a) -> [ a ]
  | _ -> []

let everywhere _ = true

let expr_sites d =
  let acc = ref [] in
  ignore
    (Mutate.map_exprs ~only:everywhere
       (fun i ~root:_ e ->
         (match hoist_variants e with
          | [] -> ()
          | vs -> acc := (i, List.length vs) :: !acc);
         e)
       d
      : design);
  List.rev !acc

let hoist_at d ~site ~variant =
  Mutate.map_exprs ~only:everywhere
    (fun i ~root:_ e ->
      if i = site then List.nth (hoist_variants e) variant else e)
    d

(* --- port drops --------------------------------------------------- *)

let remove_names names item =
  match item with
  | I_port (dir, nt, r, ns) ->
    (match List.filter (fun n -> not (List.mem n names)) ns with
     | [] -> []
     | ns -> [ I_port (dir, nt, r, ns) ])
  | item -> [ item ]

(* Drop port [p] of module [mname]: from the header, the declarations,
   its driving assignments, and every instance connection naming it.
   Whether the result still elaborates (the port might be read inside)
   is the predicate's problem. *)
let drop_port d ~mname ~p =
  { modules =
      List.map
        (fun m ->
          if String.equal m.mod_name mname then
            { m with
              mod_ports = List.filter (fun n -> n <> p) m.mod_ports;
              mod_items =
                List.concat_map
                  (fun item ->
                    match item with
                    | I_assign (L_ident n, _) when n = p -> []
                    | item -> remove_names [ p ] item)
                  m.mod_items }
          else
            { m with
              mod_items =
                List.map
                  (fun item ->
                    match item with
                    | I_instance i when String.equal i.inst_module mname ->
                      (match i.inst_conns with
                       | Named conns ->
                         I_instance
                           { i with
                             inst_conns =
                               Named
                                 (List.filter (fun (n, _) -> n <> p) conns) }
                       | Positional _ -> item)
                    | item -> item)
                  m.mod_items })
        d.modules }

(* --- unused declarations ------------------------------------------ *)

let used_names m =
  let add_item acc item =
    let acc = Sset.union acc (Verilog.Ast_util.item_reads item) in
    let acc = Sset.union acc (Verilog.Ast_util.item_writes item) in
    match item with
    | I_instance { inst_conns = Named conns; _ } ->
      List.fold_left
        (fun acc -> function
          | (_, Some e) -> Verilog.Ast_util.expr_reads e acc
          | (_, None) -> acc)
        acc conns
    | _ -> acc
  in
  let acc = List.fold_left add_item Sset.empty m.mod_items in
  List.fold_right Sset.add m.mod_ports acc

let drop_unused_decls d =
  { modules =
      List.map
        (fun m ->
          let used = used_names m in
          { m with
            mod_items =
              List.concat_map
                (fun item ->
                  match item with
                  | I_net (nt, r, ns) ->
                    (match List.filter (fun n -> Sset.mem n used) ns with
                     | [] -> []
                     | ns -> [ I_net (nt, r, ns) ])
                  | I_memory (rw, ra, ns) ->
                    (match List.filter (fun n -> Sset.mem n used) ns with
                     | [] -> []
                     | ns -> [ I_memory (rw, ra, ns) ])
                  | item -> [ item ])
                m.mod_items })
        d.modules }

(* ------------------------------------------------------------------ *)
(* Candidate enumeration, coarsest first.                              *)
(* ------------------------------------------------------------------ *)

let candidates d ~top =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  (* unreachable modules *)
  let r = Mutate.reachable d ~top in
  let live = List.filter (fun m -> Sset.mem m.mod_name r) d.modules in
  if List.length live < List.length d.modules then add { modules = live };
  (* whole-item edits *)
  List.iter
    (fun m ->
      let replace at items' =
        Mutate.replace_item d ~in_module:m.mod_name ~at items'
      in
      List.iteri
        (fun at item ->
          match item with
          | I_instance inst -> add (replace at (drop_instance d inst))
          | I_always _ -> add (replace at [])
          | I_assign (lv, e) ->
            (* coarse first: drop the assign outright (the decl sweep
               then collects its now-unused left-hand side), else just
               zero the right-hand side *)
            add (drop_unused_decls (replace at []));
            if e <> const0 then add (replace at [ I_assign (lv, const0) ])
          | _ -> ())
        m.mod_items)
    d.modules;
  (* statement edits *)
  List.iter
    (fun (site, variants) ->
      for v = 0 to variants - 1 do
        add
          (map_stmts (fun i s -> if i = site then Some (apply_edit v s) else None)
             d)
      done)
    (stmt_sites d);
  (* expression hoists *)
  List.iter
    (fun (site, variants) ->
      for v = 0 to variants - 1 do
        add (hoist_at d ~site ~variant:v)
      done)
    (expr_sites d);
  (* port drops *)
  List.iter
    (fun m ->
      List.iter (fun p -> add (drop_port d ~mname:m.mod_name ~p)) m.mod_ports)
    d.modules;
  (* declaration sweep *)
  add (drop_unused_decls d);
  List.rev !cands

(* ------------------------------------------------------------------ *)
(* The greedy loop.                                                    *)
(* ------------------------------------------------------------------ *)

(* [FACTOR_LOG=debug] traces the loop: each candidate that raised, each
   accepted step, and the final size.  [attrs] runs only when the event
   is emitted: a step's size renders the design. *)
let debug msg attrs =
  if Obs.Log.enabled Obs.Log.Debug then
    Obs.Log.event Obs.Log.Debug msg (attrs ())

let run ~fails d ~top =
  let tried = ref 0 and errs = ref 0 in
  let still d =
    incr tried;
    try fails d with e ->
      incr errs;
      debug "shrink.raised" (fun () ->
          [ ("exn", Obs.Json.String (Printexc.to_string e)) ]);
      false
  in
  let bytes d = String.length (render d) in
  let rec loop d steps =
    if steps >= 1000 then d
    else
      let sz = bytes d in
      match
        List.find_opt (fun c -> bytes c < sz && still c) (candidates d ~top)
      with
      | Some d' ->
        debug "shrink.step" (fun () ->
            Obs.Json.
              [ ("step", Int steps); ("from_bytes", Int sz);
                ("to_bytes", Int (bytes d')) ]);
        loop d' (steps + 1)
      | None ->
        debug "shrink.done" (fun () ->
            Obs.Json.
              [ ("bytes", Int sz); ("tried", Int !tried);
                ("raised", Int !errs) ]);
        d
  in
  if still d then loop d 0 else d
