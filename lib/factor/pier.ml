(** PIER identification (Primary Input/output accessible Registers).
    The paper identifies internal registers reachable from chip level via
    load/store instructions; on the transformed module this corresponds to
    registers with small sequential distance from the interface.  A
    flip-flop is a PIER when its data input is controllable from the
    primary inputs within one register crossing and its state is
    observable at a primary output within one crossing.  Both depths
    count flip-flop crossings only: a {!Netlist.walk} with free gate
    steps and unit register steps, forward from the primary inputs and
    backward from the primary outputs. *)

module N = Netlist

(** [identify c] returns the PIER flip-flop indices of [c]. *)
let identify c =
  let ctrl = N.walk c N.Forward ~gate:0 ~reg:1 c.N.pis in
  let obs = N.walk c N.Backward ~gate:0 ~reg:1 c.N.pos in
  List.filter
    (fun i ->
      ctrl.(c.N.ff_d.(i)) <= 1 && obs.(c.N.ff_q.(i)) <= 1)
    (List.init (N.num_ffs c) Fun.id)
