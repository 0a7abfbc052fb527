(** A corpus of hierarchical benchmark designs in the supported Verilog
    subset (gcd, fifo, arbiter, traffic, dma), used for regression sweeps
    of the whole FACTOR flow beyond the ARM processor. *)

type entry = {
  e_name : string;
  e_source : string;
  e_top : string;
  e_muts : Factor.Flow.mut_spec list;  (** embedded modules under test *)
}

val gcd : entry
val fifo : entry
val arbiter : entry
val mcu8 : entry

(** Every corpus entry. *)
val all : entry list

(** Look an entry up by name.  @raise Not_found if absent. *)
val find : string -> entry
