(** Width linting: reports places where an assignment or connection
    silently truncates.  (Zero-extension is idiomatic Verilog and not
    flagged.)  The synthesizer applies the standard width rules either
    way; these diagnostics exist because truncations are where RTL bugs
    hide. *)

open Verilog.Ast
open Elaborate
module Smap = Verilog.Ast_util.Smap

type finding = {
  ln_module : string;
  ln_context : string;  (** what was being assigned/connected *)
  ln_lhs_width : int;
  ln_rhs_width : int;
}

let to_string f =
  Printf.sprintf "%s: %s is %d bits wide but is driven by %d bits (truncated)"
    f.ln_module f.ln_context f.ln_lhs_width f.ln_rhs_width

let rec lvalue_name = function
  | L_ident s | L_bit (s, _) | L_part (s, _, _) -> s
  | L_concat (lv :: _) -> lvalue_name lv
  | L_concat [] -> "{}"

(* Unsized constants are always "wide": only flag them when truncated to
   fewer bits than their value needs. *)
let effective_rhs_width em e =
  match const_value e with
  | Some { width = None; value } ->
    let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
    bits value 0
  | _ -> self_width (signal_of em) e

(* Record a finding when driving [context] ([lw] bits) with [e]
   truncates it. *)
let check_drive em findings context lw e =
  let rw = effective_rhs_width em e in
  if rw > lw then
    findings :=
      { ln_module = em.em_name; ln_context = context;
        ln_lhs_width = lw; ln_rhs_width = rw }
      :: !findings

let check_assign em findings lv e =
  check_drive em findings (lvalue_name lv) (lvalue_width (signal_of em) lv) e

let rec check_stmt em findings stmt =
  match stmt with
  | S_blocking (lv, e) | S_nonblocking (lv, e) -> check_assign em findings lv e
  | S_if (_, t, f) ->
    List.iter (check_stmt em findings) t;
    List.iter (check_stmt em findings) f
  | S_case (_, _, arms) ->
    List.iter
      (fun arm -> List.iter (check_stmt em findings) arm.arm_body)
      arms
  | S_for f -> List.iter (check_stmt em findings) f.for_body

(** [check_module ed em] lints one module's assignments and instance
    connections. *)
let check_module ed em =
  let findings = ref [] in
  Array.iter
    (fun item ->
      match item with
      | EI_assign (lv, e) -> check_assign em findings lv e
      | EI_always (_, body) -> List.iter (check_stmt em findings) body
      | EI_gate _ -> ()
      | EI_instance inst ->
        let child = find_emodule ed inst.ei_module in
        List.iter
          (fun (port, conn) ->
            Option.iter
              (check_drive em findings (inst.ei_name ^ "." ^ port)
                 (signal_width (signal_of child port)))
              conn)
          inst.ei_conns)
    em.em_items;
  List.rev !findings

(** [check ed] lints every module of an elaborated design. *)
let check ed =
  Smap.fold
    (fun _ em acc -> acc @ check_module ed em)
    ed.ed_modules []
