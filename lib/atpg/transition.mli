(** Transition (gross-delay) faults: a slow gate whose output takes one
    extra clock cycle to change.  Detected by sequences that launch a
    transition at the site and propagate the stale value in the capture
    cycle — what at-speed functional tests do. *)

type t = {
  t_net : int;
  t_rise : bool;  (** slow-to-rise ([true]) or slow-to-fall *)
}

val to_string : Netlist.t -> t -> string

(** Two faults per live site. *)
val all : ?within:string -> Netlist.t -> t list

(** The fault as a {!Fsim.descriptor}: one [Slow] site. *)
val descriptor : t -> Fsim.descriptor

(** Percentage of the transition faults detected by a test set. *)
val coverage :
  Netlist.t -> observe:Fsim.observe -> faults:t list -> Pattern.test list ->
  float
