(** Reference RTL interpreter: evaluates a flattened module directly at
    the word level with no gate lowering — an independent implementation
    of the language semantics used to cross-check the synthesizer.  All
    signals (including state) start at zero. *)

exception Error of string

type t

(** [create flat] builds an interpreter.
    @raise Error on combinational cycles or unsupported constructs. *)
val create : Flatten.flat -> t

(** [step t inputs] drives the root inputs, then recomputes all
    combinational logic for the current inputs and state. *)
val step : t -> (string * int) list -> unit

(** Read any signal (typically a root output) after {!step}. *)
val output : t -> string -> int

(** Advance one clock cycle: run the clocked blocks against the settled
    values, commit nonblocking updates, re-settle. *)
val tick : t -> unit
