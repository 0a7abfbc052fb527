(** Def-use and use-def chains over an elaborated module — the internal
    data structure of the paper's Figure 2.  Sites are identified at leaf
    granularity: an item index plus a path into the statement tree, which
    is what lets extraction keep individual assignments together with
    their enclosing conditional statements. *)

open Verilog.Ast
open Elaborate
module Sset = Verilog.Ast_util.Sset
module Smap = Verilog.Ast_util.Smap

(** A definition or use site inside a module. *)
type site = {
  st_item : int;       (** index into [em_items] *)
  st_path : int list;  (** child indices down the statement tree; [] for
                           whole-item sites (assign/gate/instance) *)
}

let site_to_string s =
  Printf.sprintf "item%d%s" s.st_item
    (match s.st_path with
     | [] -> ""
     | p -> "/" ^ String.concat "." (List.map string_of_int p))

let compare_site a b = compare (a.st_item, a.st_path) (b.st_item, b.st_path)

module Site_set = Set.Make (struct
  type t = site
  let compare = compare_site
end)

type t = {
  ch_module : string;
  ch_use_def : Site_set.t Smap.t;
      (** signal -> sites that define (assign) it *)
  ch_def_use : Site_set.t Smap.t;
      (** signal -> sites that use (read) it *)
}

let add_site signal site map =
  let old = Option.value (Smap.find_opt signal map) ~default:Site_set.empty in
  Smap.add signal (Site_set.add site old) map

let add_all signals site map =
  Sset.fold (fun s m -> add_site s site m) signals map

(* Walk a statement list, producing defs/uses per leaf.  Condition and
   case-subject reads are attributed to every leaf they dominate, because
   extraction must pull in the controlling logic of each kept
   assignment. *)
let rec walk_stmts item path idx stmts (defs, uses) =
  match stmts with
  | [] -> (defs, uses)
  | stmt :: rest ->
    let acc = walk_stmt item (path @ [ idx ]) stmt (defs, uses) in
    walk_stmts item path (idx + 1) rest acc

and walk_stmt item path stmt (defs, uses) =
  let module U = Verilog.Ast_util in
  match stmt with
  | S_blocking (lv, e) | S_nonblocking (lv, e) ->
    let site = { st_item = item; st_path = path } in
    let defs = add_all (U.lvalue_writes lv Sset.empty) site defs in
    let reads = U.expr_reads e (U.lvalue_index_reads lv Sset.empty) in
    let uses = add_all reads site uses in
    (defs, uses)
  | S_if (c, t, f) ->
    (* attribute the condition read to every leaf below *)
    let cond_reads = U.expr_signals c in
    let attach (defs, uses) stmts branch_idx =
      List.fold_left
        (fun (i, acc) s ->
          (i + 1, walk_stmt_with_cond item (path @ [ branch_idx; i ]) cond_reads s acc))
        (0, (defs, uses))
        stmts
      |> snd
    in
    let acc = attach (defs, uses) t 0 in
    attach acc f 1
  | S_case (_, subject, arms) ->
    let subj_reads = U.expr_signals subject in
    let f_arm (arm_idx, acc) arm =
      let pat_reads =
        List.fold_left
          (fun acc p -> U.expr_reads p acc)
          subj_reads arm.arm_patterns
      in
      let acc =
        List.fold_left
          (fun (i, acc) s ->
            (i + 1,
             walk_stmt_with_cond item (path @ [ arm_idx; i ]) pat_reads s acc))
          (0, acc)
          arm.arm_body
        |> snd
      in
      (arm_idx + 1, acc)
    in
    snd (List.fold_left f_arm (0, (defs, uses)) arms)
  | S_for _ ->
    raise (Error "for loops must be unrolled before chain construction")

and walk_stmt_with_cond item path cond_reads stmt (defs, uses) =
  (* the leaves under this branch are the sites this statement defines:
     walk it against an empty def map, then merge *)
  let (own, uses) = walk_stmt item path stmt (Smap.empty, uses) in
  let leaf_sites =
    Smap.fold (fun _ sites acc -> Site_set.union sites acc) own Site_set.empty
  in
  (* register the controlling reads at every leaf site under this branch *)
  let uses =
    Site_set.fold (fun site uses -> add_all cond_reads site uses) leaf_sites
      uses
  in
  (Smap.union (fun _ a b -> Some (Site_set.union a b)) defs own, uses)

(** [build ed em] computes the chains for one elaborated module.
    Instance connections count as definitions (child output ports driving
    a net) or uses (nets feeding child input ports); inout connections are
    both. *)
let build ed em =
  let module U = Verilog.Ast_util in
  let defs = ref Smap.empty and uses = ref Smap.empty in
  Array.iteri
    (fun idx item ->
      let site = { st_item = idx; st_path = [] } in
      match item with
      | EI_assign (lv, e) ->
        defs := add_all (U.lvalue_writes lv Sset.empty) site !defs;
        uses :=
          add_all (U.expr_reads e (U.lvalue_index_reads lv Sset.empty)) site
            !uses
      | EI_gate (_, _, out, inputs) ->
        defs := add_all (U.lvalue_writes out Sset.empty) site !defs;
        let reads =
          List.fold_left
            (fun acc e -> U.expr_reads e acc)
            (U.lvalue_index_reads out Sset.empty)
            inputs
        in
        uses := add_all reads site !uses
      | EI_always (_, body) ->
        let (d, u) = walk_stmts idx [] 0 body (!defs, !uses) in
        defs := d;
        uses := u
      | EI_instance inst ->
        let child = find_emodule ed inst.ei_module in
        List.iter
          (fun (port, conn) ->
            match conn with
            | None -> ()
            | Some e ->
              let signals = U.expr_signals e in
              (match port_dir child port with
               | Input -> uses := add_all signals site !uses
               | Output -> defs := add_all signals site !defs
               | Inout ->
                 uses := add_all signals site !uses;
                 defs := add_all signals site !defs))
          inst.ei_conns)
    em.em_items;
  { ch_module = em.em_name; ch_use_def = !defs; ch_def_use = !uses }

(** Sites defining [signal] (the use-def chain). *)
let defs_of chains signal =
  Option.value (Smap.find_opt signal chains.ch_use_def)
    ~default:Site_set.empty

(** Sites reading [signal] (the def-use chain). *)
let uses_of chains signal =
  Option.value (Smap.find_opt signal chains.ch_def_use)
    ~default:Site_set.empty

(** Chains for every module of a design, memoized by module name. *)
let build_all ed =
  Smap.map (fun em -> build ed em) ed.ed_modules

(* ------------------------------------------------------------------ *)
(* Site inspection: what a given site reads and writes.                 *)
(* ------------------------------------------------------------------ *)

(* Resolve a statement path to the leaf statement and the conditions that
   dominate it. *)
let rec resolve_stmt stmts path conds =
  match path with
  | [] -> raise (Error "empty site path")
  | idx :: rest ->
    let stmt = List.nth stmts idx in
    (match (stmt, rest) with
     | (_, []) -> (stmt, conds)
     | (S_if (c, t, f), branch :: rest') ->
       let stmts' = if branch = 0 then t else f in
       resolve_stmt_in c stmts' rest' conds
     | (S_case (_, subject, arms), arm_idx :: rest') ->
       let arm = List.nth arms arm_idx in
       let cond_exprs = subject :: arm.arm_patterns in
       resolve_stmt_many cond_exprs arm.arm_body rest' conds
     | _ -> raise (Error "site path does not match statement shape"))

and resolve_stmt_in cond stmts path conds =
  resolve_stmt_many [ cond ] stmts path conds

and resolve_stmt_many cond_exprs stmts path conds =
  match path with
  | [] -> raise (Error "truncated site path")
  | _ -> resolve_stmt stmts path (cond_exprs @ conds)

(** The leaf statement at a site together with its dominating condition
    expressions, for always-block sites. *)
let site_leaf em site =
  match em.em_items.(site.st_item) with
  | EI_always (_, body) when site.st_path <> [] ->
    let (stmt, conds) = resolve_stmt body site.st_path [] in
    Some (stmt, conds)
  | _ -> None

(** Signals read at a site: RHS and index reads at the leaf, plus the
    dominating conditions for statement sites; whole connection set for
    instances. *)
let site_reads ed em site =
  let module U = Verilog.Ast_util in
  match em.em_items.(site.st_item) with
  | EI_assign (lv, e) -> U.expr_reads e (U.lvalue_index_reads lv Sset.empty)
  | EI_gate (_, _, out, inputs) ->
    List.fold_left
      (fun acc e -> U.expr_reads e acc)
      (U.lvalue_index_reads out Sset.empty)
      inputs
  | EI_instance inst ->
    let child = find_emodule ed inst.ei_module in
    List.fold_left
      (fun acc (port, conn) ->
        match conn with
        | Some e when port_dir child port = Input -> U.expr_reads e acc
        | _ -> acc)
      Sset.empty inst.ei_conns
  | EI_always (_, body) ->
    (match site.st_path with
     | [] -> U.stmts_reads body
     | _ ->
       let (stmt, conds) = resolve_stmt body site.st_path [] in
       let leaf_reads =
         match stmt with
         | S_blocking (lv, e) | S_nonblocking (lv, e) ->
           U.expr_reads e (U.lvalue_index_reads lv Sset.empty)
         | _ -> U.stmt_reads stmt Sset.empty
       in
       List.fold_left (fun acc c -> U.expr_reads c acc) leaf_reads conds)

(** Signals written at a site. *)
let site_writes em site =
  let module U = Verilog.Ast_util in
  match em.em_items.(site.st_item) with
  | EI_assign (lv, _) -> U.lvalue_writes lv Sset.empty
  | EI_gate (_, _, out, _) -> U.lvalue_writes out Sset.empty
  | EI_instance _ -> Sset.empty
  | EI_always (_, body) ->
    (match site.st_path with
     | [] -> U.stmts_writes body
     | _ ->
       let (stmt, _) = resolve_stmt body site.st_path [] in
       (match stmt with
        | S_blocking (lv, _) | S_nonblocking (lv, _) ->
          U.lvalue_writes lv Sset.empty
        | _ -> U.stmt_writes stmt Sset.empty))
