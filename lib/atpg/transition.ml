(** Transition (gross-delay) faults: a slow gate whose output takes one
    extra clock cycle to change.  Modeled exactly as that — the faulty
    machine sees the site's previous-cycle value — so a fault is detected
    when a test launches a transition at the site and propagates the
    stale value to an observation point in the same (capture) cycle.
    At-speed functional sequences are precisely the tests that can do
    this, which is the paper's "delays" claim. *)

module N = Netlist

type t = {
  t_net : int;
  t_rise : bool;  (** slow-to-rise ([true]) or slow-to-fall *)
}

let to_string c f =
  Printf.sprintf "net%d%s/slow-to-%s" f.t_net
    (if c.N.origin.(f.t_net) = "" then "" else "@" ^ c.N.origin.(f.t_net))
    (if f.t_rise then "rise" else "fall")

(** Two faults per live site, like the stuck-at universe. *)
let all ?within c =
  List.concat_map
    (fun net -> [ { t_net = net; t_rise = true }; { t_net = net; t_rise = false } ])
    (Fault.sites ?within c)

(** The fault as its one injection site. *)
let descriptor f = [ (f.t_net, Fsim.Slow f.t_rise) ]

(** [coverage c ~observe ~faults tests] = percentage of the transition
    faults detected by the sequences. *)
let coverage c ~observe ~faults tests =
  Fsim.coverage c ~observe ~faults:(List.map descriptor faults) tests
