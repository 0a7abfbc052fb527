(** Elaboration: resolves parameters, unrolls for loops, folds constants,
    normalizes instance connections, and specializes modules per
    parameter binding. *)

exception Error of string

(** A resolved signal declaration. *)
type signal = {
  sg_name : string;
  sg_msb : int;
  sg_lsb : int;
  sg_reg : bool;
  sg_dir : Verilog.Ast.direction option;  (** [Some _] for ports *)
  sg_words : int;             (** > 1 for register arrays (memories) *)
  sg_addr_base : int;         (** lowest address of a register array *)
}

(** Word width ([sg_msb - sg_lsb + 1]). *)
val signal_width : signal -> int

val is_memory : signal -> bool

(** Clock discipline of an always block after elaboration. *)
type clocking = Combinational | Clocked of string

(** An elaborated instance: connections are normalized to the child's
    full port list, in order. *)
type einstance = {
  ei_module : string;  (** elaborated (specialized) module name *)
  ei_name : string;
  ei_conns : (string * Verilog.Ast.expr option) list;
}

type eitem =
  | EI_assign of Verilog.Ast.lvalue * Verilog.Ast.expr
  | EI_always of clocking * Verilog.Ast.stmt list
  | EI_instance of einstance
  | EI_gate of
      Verilog.Ast.gate_prim * string * Verilog.Ast.lvalue
      * Verilog.Ast.expr list

type emodule = {
  em_name : string;
  em_ports : string list;
  em_signals : signal Verilog.Ast_util.Smap.t;
  em_items : eitem array;
}

type edesign = {
  ed_modules : emodule Verilog.Ast_util.Smap.t;
  ed_top : string;
}

(** [elaborate ?guard design ~top] elaborates [design] rooted at module
    [top].  [guard] is called once per elaborated module specialization;
    it may raise to abort a budgeted elaboration (the default does
    nothing).
    @raise Error on undefined modules, non-constant parameter
    expressions, unsupported constructs, or connection arity
    mismatches. *)
val elaborate : ?guard:(unit -> unit) -> Verilog.Ast.design -> top:string -> edesign

(** @raise Error if the module is not part of the design. *)
val find_emodule : edesign -> string -> emodule

(** @raise Error if the signal is not declared. *)
val signal_of : emodule -> string -> signal

(** @raise Error if the name is not a port. *)
val port_dir : emodule -> string -> Verilog.Ast.direction

(** Ports with directions, in header order. *)
val ports_of : emodule -> (string * Verilog.Ast.direction) list

val inputs_of : emodule -> string list
val outputs_of : emodule -> string list

(** Total bit count of the named ports (the PI/PO columns of Table 1). *)
val port_bits : emodule -> string list -> int
