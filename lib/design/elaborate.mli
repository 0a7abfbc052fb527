(** Elaboration: resolves parameters, unrolls for loops, prunes
    statically-known branches, normalizes instance connections, and
    specializes modules per parameter binding.  It also owns the width
    rules and the constant evaluator the whole front end shares. *)

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

(** [self_width signal e] is the self-determined width of [e] (IEEE
    1364-2005 5.4.1): an unsized literal is 32 bits, a comparison, logical
    or reduction operator 1, a shift the width of its left operand, other
    binary operators and [?:] the wider operand, a concatenation the sum.
    A memory word select is one word wide.  [signal] looks up the names
    [e] reads.
    @raise Error on a part select or replication whose bounds or count
    are not literals (elaboration makes them literals). *)
val self_width : (string -> signal) -> Verilog.Ast.expr -> int

(** [lvalue_width signal lv] is the number of bits [lv] writes. *)
val lvalue_width : (string -> signal) -> Verilog.Ast.lvalue -> int

(** [const_value e] is the value of [e] when it reads no signal (literals
    only, as every expression is after parameter substitution), [None]
    otherwise.  The root is evaluated at its self-determined width and
    each context-sized operand at the width its context gives it, as
    synthesis evaluates signals; comparison, logical, reduction and
    shift-amount operands are self-determined.  The result's [width] is
    that self-determined width, or [None] when it is the 32 bits of
    unsized literals alone.  [~width] evaluates [e] in a context that
    many bits wide instead, and the result is that wide.

    Elaboration calls it only where the language needs a number:
    parameter values, ranges, [for] control, part-select bounds and
    replication counts, and {!foldable} [if] and [?:] conditions and
    select indices.  Synthesis calls it with [~width] on {!foldable}
    operands. *)
val const_value : ?width:int -> Verilog.Ast.expr -> Verilog.Ast.const option

(** [foldable e]: [e] is built from literals by the arithmetic, bitwise,
    shift, comparison and logical operators and unary [-], [+] and [!]
    (no [~], [~^], reduction, concatenation or replication).  Synthesis
    folds such an operand to a literal at its context width, and
    elaboration prunes an [if] or [?:] only on such a condition; other
    closed expressions are lowered gate by gate. *)
val foldable : Verilog.Ast.expr -> bool

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
    A parameter takes the width of its value; an unsized value stays
    unsized (32 bits), and a sized override is part of the specialized
    module's name.  Context-sized expressions (assignment right-hand
    sides, instance connections, gate inputs, case items) are
    substituted, not folded: synthesis sizes and folds them.
    @raise Error on undefined modules, a parameter, range, loop bound,
    part-select bound or replication count that is not constant (the
    message names the signals it reads), unsupported constructs, or
    connection arity mismatches. *)
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
