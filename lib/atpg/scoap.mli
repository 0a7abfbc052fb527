(** SCOAP-style testability measures: 0/1 controllability and
    observability per net, with a sequential penalty per flip-flop
    crossing. *)

(** Saturating "infinite" cost: structurally impossible. *)
val infinite : int

(** A cost carried across a flip-flop, either way: one sequential
    penalty per crossing. *)
val across_ff : int -> int

(** The 0/1 controllability rule of a primary input, a constant or a
    gate: [gate_costs cc0 cc1 base drv] is the cost of setting the net
    [drv] drives to 0 and to 1, with each fanin's costs read from
    [cc0]/[cc1] at [base + fanin].  Flip-flops are the caller's: their
    costs come from the d input in another frame ({!Podem}) or fixpoint
    pass ({!compute}).
    @raise Invalid_argument on a flip-flop. *)
val gate_costs : int array -> int array -> int -> Netlist.driver -> int * int

type t = {
  sc_cc0 : int array;  (** per net: cost of setting it to 0 *)
  sc_cc1 : int array;  (** per net: cost of setting it to 1 *)
  sc_co : int array;   (** per net: cost of observing it at a PO *)
}

(** Run both analyses to their fixpoints. *)
val compute : Netlist.t -> t

(** The [n] hardest finite faults plus every structurally untestable one,
    hardest first, with their costs. *)
val rank_faults : t -> Fault.t list -> n:int -> (Fault.t * int) list

type summary = {
  su_nets : int;
  su_uncontrollable : int;
  su_unobservable : int;
  su_max_finite_cost : int;
}

(** Aggregate over the live nets of an instance subtree ([within]) or the
    whole netlist. *)
val summarize : ?within:string -> Netlist.t -> t -> summary
