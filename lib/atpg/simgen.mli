(** Simulation-based sequential test generation (CONTEST-style): evolves
    a pool of eight candidate sequences per fault by hill-climbing on a
    divergence cost measured by concurrent good/faulty simulation.  An
    alternative engine to {!Podem}'s time-frame search, compared in
    ablation A5. *)

type config = {
  sg_generations : int;  (** improvement rounds per fault *)
  sg_frames : int;       (** initial sequence length *)
  sg_max_frames : int;   (** hard cap on sequence growth *)
  sg_piers : int list;
  sg_seed : int;
}

val default_config : config

(** [run ?budget c cfg fault] evolves a test; [None] when the
    generations run out without detection.  [budget] (default
    {!Engine.Budget.none}) is polled once per generation, before its
    candidates are simulated: a dead token returns [None] at the next
    generation, so a token already dead returns [None] without
    simulating a frame.

    The fitness simulates the good and faulty machines as lanes 0 and
    1 of native-int dual-rail planes through {!Sim.Packed.gate}, on the
    circuit's compiled form ({!Netlist.Analysis}): nothing is allocated
    per gate. *)
val run :
  ?budget:Engine.Budget.t -> Netlist.t -> config -> Fault.t ->
  Pattern.test option

type result = {
  sr_total : int;
  sr_detected : int;
  sr_coverage : float;
  sr_tests : Pattern.test list;
  sr_time : float;  (** CPU seconds, summed over all domains *)
  sr_wall : float;  (** wall-clock seconds *)
}

(** Run over a fault list with fault dropping. *)
val campaign : Netlist.t -> config -> Fault.t list -> result
