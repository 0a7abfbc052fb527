(** Chip-level pattern translation — the last step of the paper's flow:
    transformed-module tests become chip-level sequences (pins map by
    name; PIER loads map to the chip's registers), and [validate]
    confirms by chip-level fault simulation that detection carries
    over. *)

type mapping = {
  mp_pi : int option array;  (** transformed PI index -> chip PI index *)
  mp_ff : (int * int) list;  (** shared registers: transformed -> chip *)
}

(** Translate a whole test set. *)
val translate_all :
  chip:Netlist.t -> transformed:Netlist.t -> Atpg.Pattern.test list ->
  Atpg.Pattern.test list

type validation = {
  va_chip_faults : int;  (** MUT faults in the chip-level view *)
  va_detected : int;
  va_coverage : float;
  va_tests : int;
  va_vectors : int;
}

(** [validate ~chip ~mut_path ~piers tests] fault-simulates translated
    tests against the MUT's chip-level faults. *)
val validate :
  chip:Netlist.t -> mut_path:string -> piers:int list ->
  Atpg.Pattern.test list -> validation
