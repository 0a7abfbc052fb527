(** RTL-level hierarchy flattening: inlines every instance below a chosen
    root into one flat module with dot-separated signal names and
    per-item origin tags. *)

exception Error of string

type flat = {
  fl_name : string;
  fl_ports : (string * Verilog.Ast.direction) list;
      (** root ports, header order *)
  fl_signals : Design.Elaborate.signal Verilog.Ast_util.Smap.t;
  fl_items : (string * Design.Elaborate.eitem) array;
      (** origin instance path, item.  Input-port connection shims carry
          the child's origin so boundary pins belong to the child. *)
}

(** [flatten ed root] flattens the subtree rooted at module [root].
    Unconnected input ports are tied to zero.
    @raise Error on inout ports. *)
val flatten : Design.Elaborate.edesign -> string -> flat
