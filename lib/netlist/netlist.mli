(** Gate-level netlist.  Nets are integers; every net has exactly one
    driver.  The builder hash-conses combinational gates within one
    origin context and applies local simplification rules — the
    "synthesis removes the redundant constraints" step of the paper. *)

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

(** Nets reachable backwards from [roots] through combinational gates
    (PIs, FFs and constants included). *)
val comb_cone : t -> int list -> bool array

(** Topological order of all nets, fanins first; FF q nets are sources.
    @raise Error on a combinational cycle. *)
val topological_order : t -> int array

(** For each net, the nets whose driver reads it. *)
val fanouts : t -> int list array

(** {1 Shared structural analysis} *)

module Analysis : sig
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
  }
end

(** Memoized structural analysis: computed once per netlist value (keyed
    by physical equality) and shared by every engine needing an
    evaluation order, levels, or fanout adjacency. *)
val analysis : t -> Analysis.info

(** Number of analyses actually built (cache misses) since program start —
    lets tests assert an order is computed once per circuit. *)
val analysis_builds : unit -> int

(** Nets alive in the cone of the observable outputs (POs plus the state
    feeding them, to a fixpoint). *)
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

(** Combinational gate equivalents only. *)
val comb_gates : stats -> int
