(** PIER identification (Primary Input/output accessible Registers): a
    structural approximation of "registers reachable from chip level via
    load/store instructions" — flip-flops whose data input is
    controllable within one register crossing of the primary inputs and
    whose state is observable within one crossing of the primary
    outputs. *)

(** [identify c] returns the PIER flip-flop indices. *)
val identify : Netlist.t -> int list
