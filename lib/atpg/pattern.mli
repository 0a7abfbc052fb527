(** Test patterns: a test is a sequence of primary-input vectors applied
    on consecutive clock cycles, plus initial load values for PIER
    registers. *)

type test = {
  p_vectors : bool array array;  (** per frame, one bool per primary input *)
  p_loads : (int * bool) list;   (** PIER flip-flop index, loaded value *)
}

val num_frames : test -> int

(** Per-cycle bit-string rendering. *)
val to_string : test -> string

(** [random ~rng ~num_pis ~frames ~piers] draws a random test. *)
val random :
  rng:Random.State.t -> num_pis:int -> frames:int -> piers:int list -> test

(** Total vector (clock cycle) count across a test set. *)
val total_vectors : test list -> int

(** A malformed vector file: the 1-based line (for an unterminated
    block, its [test] line) and what is wrong with it. *)
exception Parse_error of int * string

(** Render a test set in the textual vector-file format ([test] /
    [load ff v] / [vec 0101...] / [end] blocks); [pi_names] become a
    header comment. *)
val write_string : ?pi_names:string array -> test list -> string

(** Parse the vector-file format from a string.
    @raise Parse_error on malformed input. *)
val read_string : string -> test list

(** [read_string_for ~num_pis ~num_ffs s] parses [s] as the tests of a
    circuit with [num_pis] primary inputs and [num_ffs] flip-flops.
    @raise Parse_error on malformed input, on a [vec] that is not
    [num_pis] bits wide and on a [load] of a flip-flop outside
    [0 .. num_ffs - 1], at that line. *)
val read_string_for : num_pis:int -> num_ffs:int -> string -> test list
