(** Levelized compiled simulation of a gate-level netlist: 64 patterns in
    parallel, three-valued, with sequential stepping. *)

type t = {
  circuit : Netlist.t;
  order : int array;
  values : Logic3.t array;
  mutable state : Logic3.t array;
}

(** [create c] builds a simulator with all flip-flops at X. *)
val create : Netlist.t -> t

(** Return every flip-flop to X. *)
val reset_state : t -> unit

(** Force every flip-flop to zero (reference-model comparisons). *)
val zero_state : t -> unit

(** [drive c values ~pi ~state net] is the value [net]'s driver
    computes: fanins read from [values], primary input [i] from [pi i],
    flip-flop [i] from [state.(i)] — the one three-valued gate evaluator
    of the straight-line simulators. *)
val drive :
  Netlist.t -> Logic3.t array -> pi:(int -> Logic3.t) -> state:Logic3.t array ->
  int -> Logic3.t

(** Evaluate combinational logic for the given per-PI values. *)
val eval : t -> Logic3.t array -> unit

(** Values at the primary outputs after {!eval}. *)
val outputs : t -> Logic3.t array

(** Advance one clock cycle: capture every flip-flop's d input. *)
val tick : t -> unit

(** [step sim pis] = {!eval}, read outputs, {!tick}. *)
val step : t -> Logic3.t array -> Logic3.t array

(** Build PI values from (port name, integer) bindings over multi-bit
    ports ("a" covers "a\[0\]", "a\[1\]", ...).  Missing inputs are X. *)
val pi_of_ports : Netlist.t -> (string * int) list -> Logic3.t array

(** Read a multi-bit output port as an integer using pattern 0; [None]
    if any bit is X or the port does not exist. *)
val po_as_int : t -> string -> int option
