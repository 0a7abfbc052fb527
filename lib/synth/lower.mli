(** RTL-to-gate lowering over a flattened module: bit-blasts word-level
    operators, symbolically executes always blocks, infers flip-flops for
    clocked assignments, and demand-drives from the observable outputs. *)

exception Error of string

type result = {
  circuit : Netlist.t;
  warnings : string list;  (** undriven or partially driven signals *)
}

(** [lower flat] synthesizes a flattened module into a netlist.  Primary
    inputs/outputs come from the root module's ports; every signal
    assigned in a clocked block becomes a bank of flip-flops.
    @raise Error on combinational cycles, multiple drivers, inferred
    latches, or unsupported constructs. *)
val lower : Flatten.flat -> result

(** [synthesize ed top] flattens [ed] from module [top] down
    ({!Flatten.flatten}) and lowers the result: the gate-level netlist
    of that subtree.
    @raise Flatten.Error or Error as those two do. *)
val synthesize : Design.Elaborate.edesign -> string -> result
