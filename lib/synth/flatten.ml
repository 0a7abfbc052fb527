(** RTL-level hierarchy flattening: inlines every instance below a chosen
    root into one flat module with dot-separated signal names, keeping a
    per-item origin tag (the instance path) so gate-level fault sites can
    be attributed to the module under test after synthesis. *)

open Verilog.Ast
open Design.Elaborate
module U = Verilog.Ast_util
module Smap = U.Smap

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type flat = {
  fl_name : string;
  fl_ports : (string * direction) list;  (** root ports, header order *)
  fl_signals : signal Smap.t;            (** flattened names *)
  fl_items : (string * eitem) array;     (** origin instance path, item *)
}

(** Convert an instance-output connection expression into an lvalue. *)
let rec expr_to_lvalue e =
  match e with
  | E_ident s -> L_ident s
  | E_bit (s, i) -> L_bit (s, i)
  | E_part (s, m, l) -> L_part (s, m, l)
  | E_concat es -> L_concat (List.map expr_to_lvalue es)
  | _ -> errorf "instance output connected to a non-lvalue expression"

(* ------------------------------------------------------------------ *)
(* Flattening.                                                         *)
(* ------------------------------------------------------------------ *)

(** [flatten ed root] flattens the subtree rooted at module [root].
    Unconnected input ports are tied to zero. *)
let flatten ed root =
  Obs.Span.with_ "synth.flatten"
    ~attrs:[ ("root", Obs.Json.String root) ]
  @@ fun () ->
  let root_m = find_emodule ed root in
  let signals = ref Smap.empty in
  let items = ref [] in
  let declare prefix s =
    let name = if prefix = "" then s.sg_name else prefix ^ "." ^ s.sg_name in
    (* ports of inner modules become plain nets in the flat module *)
    let dir = if prefix = "" then s.sg_dir else None in
    signals := Smap.add name { s with sg_name = name; sg_dir = dir } !signals;
    name
  in
  let rec inline prefix em =
    let qualify s = if prefix = "" then s else prefix ^ "." ^ s in
    Smap.iter (fun _ s -> ignore (declare prefix s)) em.em_signals;
    Array.iter
      (fun item ->
        match item with
        | EI_assign (lv, e) ->
          items :=
            (prefix,
             EI_assign (U.rename_lvalue qualify lv, U.rename_expr qualify e))
            :: !items
        | EI_gate (g, n, out, ins) ->
          items :=
            (prefix,
             EI_gate (g, qualify n, U.rename_lvalue qualify out,
                      List.map (U.rename_expr qualify) ins))
            :: !items
        | EI_always (ck, body) ->
          let ck =
            match ck with
            | Combinational -> Combinational
            | Clocked clk -> Clocked (qualify clk)
          in
          items :=
            (prefix, EI_always (ck, List.map (U.rename_stmt qualify) body))
            :: !items
        | EI_instance inst ->
          let child = find_emodule ed inst.ei_module in
          let child_prefix = qualify inst.ei_name in
          (* port binding shims, owned by the parent *)
          List.iter
            (fun (port, conn) ->
              let child_port = child_prefix ^ "." ^ port in
              match (port_dir child port, conn) with
              | (Input, Some e) ->
                (* tagged with the child's origin: the input pin and its
                   faults belong to the child module's boundary *)
                items :=
                  (child_prefix,
                   EI_assign (L_ident child_port, U.rename_expr qualify e))
                  :: !items
              | (Input, None) ->
                items :=
                  (child_prefix,
                   EI_assign (L_ident child_port,
                              E_const { width = None; value = 0 }))
                  :: !items
              | (Output, Some e) ->
                items :=
                  (prefix,
                   EI_assign (U.rename_lvalue qualify (expr_to_lvalue e),
                              E_ident child_port))
                  :: !items
              | (Output, None) -> ()
              | (Inout, _) ->
                errorf "inout port %s.%s is outside the supported subset"
                  inst.ei_module port)
            inst.ei_conns;
          inline child_prefix child)
      em.em_items
  in
  inline "" root_m;
  { fl_name = root;
    fl_ports = ports_of root_m;
    fl_signals = !signals;
    fl_items = Array.of_list (List.rev !items) }
