(** Instance hierarchy of an elaborated design: the tree FACTOR walks when
    composing constraints level by level. *)

open Elaborate
module Smap = Verilog.Ast_util.Smap

type node = {
  nd_path : string list;  (** instance names from the top, top excluded *)
  nd_module : string;
  nd_depth : int;  (** 0 for the top module *)
  nd_children : node list;
}

(** [build ed] constructs the instance tree rooted at the top module. *)
let build ed =
  let rec node path depth mod_name =
    let em = find_emodule ed mod_name in
    let children =
      Array.to_list em.em_items
      |> List.filter_map (function
           | EI_instance inst ->
             Some (node (path @ [ inst.ei_name ]) (depth + 1) inst.ei_module)
           | _ -> None)
    in
    { nd_path = path; nd_module = mod_name; nd_depth = depth;
      nd_children = children }
  in
  node [] 0 ed.ed_top

let path_to_string path = String.concat "." path

(** All nodes in preorder. *)
let rec flatten node = node :: List.concat_map flatten node.nd_children

(** [child node inst] is the child of [node] created by instance
    [inst].
    @raise Not_found when [node] has no such instance. *)
let child node inst =
  List.find
    (fun c ->
      match List.rev c.nd_path with
      | last :: _ -> String.equal last inst
      | [] -> false)
    node.nd_children

exception Unknown_path of string

(** [find_path tree path] resolves an instance path ["a.b.c"].
    @raise Unknown_path when no such instance exists. *)
let find_path tree path =
  let segs = if String.equal path "" then [] else String.split_on_char '.' path in
  try List.fold_left child tree segs
  with Not_found -> raise (Unknown_path path)

(** [parent_of tree node] is the node whose child [node] is, if any. *)
let parent_of tree target =
  let rec go candidate =
    if List.exists (fun c -> c.nd_path = target.nd_path) candidate.nd_children
    then Some candidate
    else List.find_map go candidate.nd_children
  in
  if target.nd_path = [] then None else go tree

(** [instance_item ed parent node] returns the [einstance] in [parent]'s
    module that creates [node]. *)
let instance_item ed parent node =
  let em = find_emodule ed parent.nd_module in
  let inst_name = List.nth node.nd_path (List.length node.nd_path - 1) in
  let found =
    Array.to_list em.em_items
    |> List.find_map (function
         | EI_instance i when String.equal i.ei_name inst_name -> Some i
         | _ -> None)
  in
  match found with
  | Some i -> i
  | None ->
    raise
      (Error
         (Printf.sprintf "instance %s not found in %s" inst_name
            parent.nd_module))

(** Depth of the deepest node. *)
let max_depth tree =
  List.fold_left (fun acc n -> max acc n.nd_depth) 0 (flatten tree)

(** Modules used in a design, each with its instance count. *)
let module_census tree =
  List.fold_left
    (fun acc n ->
      let count = Option.value (Smap.find_opt n.nd_module acc) ~default:0 in
      Smap.add n.nd_module (count + 1) acc)
    Smap.empty (flatten tree)
