(** Bridging (short) faults modeled as wired-AND / wired-OR between two
    nets, used to measure how a stuck-at test set does against real
    short defects. *)

type kind = Fsim.wired = Wired_and | Wired_or

type t = {
  b_net1 : int;
  b_net2 : int;
  b_kind : kind;
}

val to_string : Netlist.t -> t -> string

(** [candidates ?within ~rng ~count c] draws a random bridging population
    over the live nets (layout proximity stand-in). *)
val candidates :
  ?within:string -> rng:Random.State.t -> count:int -> Netlist.t -> t list

(** The bridge as a {!Fsim.descriptor}: two [Wired] sites, each naming
    the other as partner. *)
val descriptor : t -> Fsim.descriptor

(** Percentage of the bridging population detected by a test set. *)
val coverage :
  Netlist.t -> observe:Fsim.observe -> bridges:t list -> Pattern.test list ->
  float
