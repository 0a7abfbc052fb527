(** Gate-level netlist.  Nets are integers; every net has exactly one
    driver.  The builder hash-conses combinational gates within one
    origin context and applies local simplification rules — the
    "synthesis removes the redundant constraints" step of the paper.
    Engines read structure through one memoized {!analysis}; which nets
    a net reaches, and at what sequential distance, through one {!walk}
    over it. *)

type g1 = Inv | Buff
type g2 = And | Or | Xor | Nand | Nor | Xnor

type driver =
  | Pi of int                (** primary input index *)
  | Ff of int                (** flip-flop q, index into the FF tables *)
  | C0
  | C1
  | G1 of g1 * int
  | G2 of g2 * int * int
  | Mux of int * int * int   (** select, value-when-0, value-when-1 *)

type t = {
  drv : driver array;        (** indexed by net *)
  pis : int array;           (** net of each primary input *)
  pi_names : string array;
  pos : int array;           (** net observed by each primary output *)
  po_names : string array;
  ff_d : int array;          (** d input net of each flip-flop *)
  ff_q : int array;          (** q net of each flip-flop *)
  ff_names : string array;
  origin : string array;     (** per net: instance path that produced it *)
}

val num_nets : t -> int
val num_pis : t -> int
val num_pos : t -> int
val num_ffs : t -> int

(** [under_prefix prefix origin]: does the instance path [origin] lie at
    or under [prefix]?  ["a.b"] holds ["a.b"] and ["a.b.c"] but not
    ["a.bc"]; [""] holds every path. *)
val under_prefix : string -> string -> bool

(** {1 Builder} *)

type builder

val create_builder : unit -> builder

(** Set the origin tag recorded on (and scoping the hash-consing of) nets
    created from now on. *)
val set_context : builder -> string -> unit

val get_context : builder -> string

val const0 : builder -> int
val const1 : builder -> int
val is_const0 : builder -> int -> bool
val is_const1 : builder -> int -> bool

(** Register a fresh primary input and return its net. *)
val add_pi : builder -> string -> int

(** Observe a net as a primary output. *)
val add_po : builder -> string -> int -> unit

(** Allocate a flip-flop and return its q net; the d input is patched
    later with {!set_ff_d}, allowing feedback through state. *)
val add_ff : builder -> string -> int

(** [set_ff_d b q d] makes [d] the d input of the flip-flop whose q net
    is [q]; the last call wins.  O(1).
    @raise Invalid_argument if [q] is not a flip-flop's q net. *)
val set_ff_d : builder -> int -> int -> unit

(** Simplifying gate constructors: constant folding, idempotence,
    complement rules, commutative normalization, then hash-consing. *)

val mk_not : builder -> int -> int
val mk_buf : builder -> int -> int

(** A buffer that really exists in the netlist: used at module port
    boundaries so every hierarchical pin has its own fault site. *)
val mk_hard_buf : builder -> int -> int

val mk_and : builder -> int -> int -> int
val mk_or : builder -> int -> int -> int
val mk_xor : builder -> int -> int -> int
val mk_nand : builder -> int -> int -> int
val mk_nor : builder -> int -> int -> int
val mk_xnor : builder -> int -> int -> int

(** [mk_mux b s a0 a1]: [s = 0] selects [a0], [s = 1] selects [a1]. *)
val mk_mux : builder -> int -> int -> int -> int

(** Raised on a structural invariant violation: a flip-flop with no d
    input at {!finalize}, or a combinational cycle in
    {!topological_order}. *)
exception Error of string

(** Freeze the builder.
    @raise Error if a flip-flop was never given a d input. *)
val finalize : builder -> t

(** {1 Structure queries} *)

(** Input nets of a driver. *)
val fanins : driver -> int list

(** Topological order of all nets, fanins first; FF q nets are sources.
    @raise Error on a combinational cycle. *)
val topological_order : t -> int array

(** {1 Shared structural analysis} *)

module Analysis : sig
  (** {2 The compiled form}

      Every driver as an opcode and three fanin slots, so simulation
      kernels dispatch on an int instead of matching the {!driver}
      variant.  Slots: [Pi i] and [Ff i] hold the input or flip-flop
      index [i] in slot a; a one-input gate its input in a; a two-input
      gate its inputs in a and b; [Mux (s, a0, a1)] holds a0 (chosen by
      select 0) in a, a1 in b and s in select.  Unused slots repeat a
      used one (constants: the net itself), so every slot of a
      constant or gate is a valid net.

      The opcodes are the consecutive ints 0 ([op_pi]) to 12
      ([op_mux]) in the order listed below — a fixed numbering that
      the gate kernel ([Sim.Packed.gate]) matches on as literals. *)

  val op_pi : int
  val op_ff : int
  val op_c0 : int
  val op_c1 : int
  val op_buf : int
  val op_inv : int
  val op_and : int
  val op_or : int
  val op_xor : int
  val op_nand : int
  val op_nor : int
  val op_xnor : int
  val op_mux : int

  type info = {
    order : int array;       (** topological order, fanins first *)
    level : int array;       (** per net: longest path from a source *)
    max_level : int;
    fanout : int array;      (** gate-read fanouts, flattened (CSR) *)
    fanout_off : int array;  (** per net: offset into [fanout]; length
                                 num_nets + 1 *)
    position : int array;    (** per net: its index in [order] *)
    ff_of_d : int array;     (** flip-flops grouped by d-input net (CSR) *)
    ff_of_d_off : int array; (** per net: offset into [ff_of_d]; length
                                 num_nets + 1 *)
    op : Bytes.t;            (** per net: the driver's opcode, one byte
                                 ([Bytes.get_uint8]) *)
    fanin : int array;       (** per net [k]: slots a, b, select at
                                 [3k], [3k+1], [3k+2] *)
    level_off : int array;   (** per level: offset of its nets in a
                                 level-bucketed array of num_nets slots
                                 (CSR over [level]); length
                                 max_level + 2 *)
    is_po : Bytes.t;         (** per net: 1 if observed by some primary
                                 output, else 0 *)
  }
end

(** Memoized structural analysis: computed once per netlist value (keyed
    by physical equality) and shared by every engine needing an
    evaluation order, levels, fanout adjacency or the compiled form —
    so parallel shards and served requests on one circuit never rebuild
    it. *)
val analysis : t -> Analysis.info

(** Number of analyses actually built (cache misses) since program start —
    lets tests assert an order is computed once per circuit. *)
val analysis_builds : unit -> int

(** {1 Reachability and sequential distance}

    The structural questions of the flow — which nets a net reaches, and
    how many steps it lies from the pins — are all answered by one walk
    over {!analysis}: live logic, PIER depths, PODEM's distance to an
    observation point and the SAT miter's fault cone. *)

type direction =
  | Forward   (** along gate fanouts, and d to q across each flip-flop *)
  | Backward  (** along gate fanins, and q to d across each flip-flop *)

(** The distance {!walk} gives a net that no source reaches. *)
val unreachable : int

(** [walk c dir ~gate ~reg sources] is, per net, the least weight of a
    path in direction [dir] from any net of [sources] (distance 0),
    where a step through a gate weighs [gate] and a step across a
    flip-flop weighs [reg]; {!unreachable} where no path leads.  A 0-1
    breadth-first walk, linear in the netlist.
    @raise Invalid_argument if a weight is not 0 or 1. *)
val walk : t -> direction -> gate:int -> reg:int -> int array -> int array

(** Nets alive in the cone of the observable outputs: those a backward
    walk from the POs reaches, through gates and across flip-flops. *)
val live_mask : t -> bool array

(** {1 Statistics} *)

type stats = {
  st_g2 : int;
  st_inv : int;
  st_mux : int;
  st_ffs : int;
  st_pis : int;
  st_pos : int;
}

(** [stats c] counts live primitives: dangling logic is excluded, as
    synthesis would sweep it. *)
val stats : t -> stats

(** Gate-equivalent count used in all tables: 2-input gates and inverters
    count 1, muxes 3, flip-flops 6; buffers are free. *)
val gate_equivalents : stats -> int
