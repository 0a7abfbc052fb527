(** Instance hierarchy of an elaborated design: the tree FACTOR walks when
    composing constraints level by level. *)

type node = {
  nd_path : string list;  (** instance names from the top, top excluded *)
  nd_module : string;
  nd_depth : int;         (** 0 for the top module *)
  nd_children : node list;
}

(** [build ed] constructs the instance tree rooted at the top module. *)
val build : Elaborate.edesign -> node

val path_to_string : string list -> string

(** All nodes in preorder. *)
val flatten : node -> node list

(** [child node inst] is the child of [node] created by instance
    [inst] of its module.
    @raise Not_found when [node] has no such instance. *)
val child : node -> string -> node

(** Raised by {!find_path} with the path that names no instance. *)
exception Unknown_path of string

(** [find_path tree "a.b.c"] resolves an instance path; [""] is the root.
    @raise Unknown_path when no such instance exists. *)
val find_path : node -> string -> node

(** The node whose child the given node is; [None] for the root. *)
val parent_of : node -> node -> node option

(** [instance_item ed parent node] returns the instance in [parent]'s
    module that creates [node].
    @raise Elaborate.Error if absent. *)
val instance_item : Elaborate.edesign -> node -> node -> Elaborate.einstance

(** Depth of the deepest node. *)
val max_depth : node -> int

(** Modules used in the design, each with its instance count. *)
val module_census : node -> int Verilog.Ast_util.Smap.t
