(** Bridging (short) faults: a defect wiring two nets together, modeled
    as wired-AND or wired-OR.  The paper's motivation says at-speed
    functional patterns catch real defects like shorts better than their
    stuck-at numbers suggest; this module measures how a test set does
    against a bridging fault population. *)

module N = Netlist

type kind = Fsim.wired = Wired_and | Wired_or

type t = {
  b_net1 : int;
  b_net2 : int;
  b_kind : kind;
}

let to_string c b =
  Printf.sprintf "bridge(%s net%d, net%d)%s%s"
    (match b.b_kind with Wired_and -> "AND" | Wired_or -> "OR")
    b.b_net1 b.b_net2
    (if c.N.origin.(b.b_net1) = "" then ""
     else "@" ^ c.N.origin.(b.b_net1))
    (if c.N.origin.(b.b_net2) = c.N.origin.(b.b_net1) then ""
     else "/" ^ c.N.origin.(b.b_net2))

(** [candidates ?within ~rng ~count c] draws a random bridging-fault
    population over the live nets (optionally inside one instance):
    pairs of distinct nets, alternating wired-AND/wired-OR.  Real flows
    take pairs from layout proximity; a random population over the same
    region is the standard stand-in when no layout exists. *)
let candidates ?within ~rng ~count c =
  let sites = Array.of_list (Fault.sites ?within c) in
  let n = Array.length sites in
  if n < 2 then []
  else
    List.init count (fun i ->
        let a = sites.(Random.State.int rng n) in
        let rec other () =
          let b = sites.(Random.State.int rng n) in
          if b = a then other () else b
        in
        { b_net1 = a;
          b_net2 = other ();
          b_kind = (if i mod 2 = 0 then Wired_and else Wired_or) })

(** The bridge as two [Wired] sites, each naming the other as partner. *)
let descriptor b =
  [ (b.b_net1, Fsim.Wired (b.b_net2, b.b_kind));
    (b.b_net2, Fsim.Wired (b.b_net1, b.b_kind)) ]

(** [coverage c ~observe ~bridges tests] = percentage of the bridging
    population detected by the test set. *)
let coverage c ~observe ~bridges tests =
  Fsim.coverage c ~observe ~faults:(List.map descriptor bridges) tests
