(** Assembler / disassembler for the benchmark processor's 16-bit
    instruction set.  Encoding: [15:12] opcode, [11:9] rd, [8:6] rn,
    [5:3] rm, [2:0] imm3; branches use [7:0] as a signed offset. *)

type reg = int  (** 0..7 *)

type instruction =
  | Add of reg * reg * reg  (** rd := rn + rm, sets flags *)
  | Mva of reg * reg        (** rd := rn *)
  | Sub of reg * reg * reg  (** rd := rn - rm, sets flags *)
  | Cmp of reg * reg        (** flags := rn - rm *)
  | And of reg * reg * reg
  | Orr of reg * reg * reg
  | Eor of reg * reg * reg
  | Mov of reg * reg        (** rd := rm *)
  | Mvn of reg * reg        (** rd := ~rm *)
  | Lsl of reg * reg * int  (** rd := rm << imm3 *)
  | Lsr of reg * reg * int  (** rd := rm >> imm3 *)
  | Ldr of reg * reg * int  (** rd := mem\[rn + imm3\] *)
  | Str of reg * reg * int  (** mem\[rn + imm3\] := rm *)
  | B of int                (** pc := pc + offset (signed 8-bit) *)
  | Beq of int              (** branch if the zero flag is set *)
  | Swi                     (** software interrupt *)

val nop : instruction

(** @raise Invalid_argument on out-of-range registers or immediates. *)
val encode : instruction -> int

(** Inverts {!encode}; unknown opcodes decode as [Swi]. *)
val decode : int -> instruction

val to_string : instruction -> string

(** A program cycle: the instruction on the bus and the value driven on
    [mem_rdata] that cycle. *)
type cycle = {
  cy_inst : instruction;
  cy_rdata : int;
}

val cycle : ?rdata:int -> instruction -> cycle

(** Load each (register, value) pair and settle the pipeline. *)
val setup_registers : (reg * int) list -> cycle list
