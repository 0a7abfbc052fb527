(** Structured error taxonomy for the FACTOR pipeline.

    Every failure a user can provoke from the CLI is classified into a
    pipeline stage, optionally positioned in the offending source file,
    and mapped to a stable nonzero exit code, so scripts can distinguish
    "your Verilog does not parse" from "the solver gave up".  Internal
    bugs (assertion failures and the like) deliberately stay outside the
    taxonomy and keep the default uncaught-exception behaviour. *)

(** The pipeline stage that rejected the input. *)
type stage =
  | Parse      (** lexing / parsing of Verilog or pattern files *)
  | Elaborate  (** elaboration, synthesis, netlist construction *)
  | Extract    (** constraint extraction / transformed-module build *)
  | Solve      (** test generation and SAT solving; an exhausted budget
                   at any stage *)
  | Io         (** file system and OS errors *)

(** Source position, 1-based; [p_line = 0] means "file only", [p_col = 0]
    "line only", and [p_file = None] a position in text that came
    without a file name (a served request's [source]). *)
type pos = { p_file : string option; p_line : int; p_col : int }

type t = {
  e_stage : stage;
  e_pos : pos option;
  e_msg : string;
}

exception Error of t

(** [make ?file ?line ?col stage msg]: positioned when [file] or [line]
    is given. *)
val make : ?file:string -> ?line:int -> ?col:int -> stage -> string -> t

(** Raise {!Error} built by {!make}. *)
val fail : ?file:string -> ?line:int -> ?col:int -> stage -> string -> 'a

val stage_name : stage -> string

(** The inverse of {!stage_name}; [None] for any other string. *)
val stage_of_string : string -> stage option

(** Stable exit code per stage: parse 2, elaborate 3, extract 4,
    solve 5, io 6.  (0 is success, 1 a usage error.) *)
val exit_code : t -> int

(** The message with its position in front: ["\[file:\]\[line:col: \]msg"].
    This is what a served error response carries. *)
val message : t -> string

(** One-line diagnostic: ["factor: <stage> error: "] ^ {!message}. *)
val to_string : t -> string

(** Classify a raised exception into the taxonomy; [None] for
    exceptions that are not user-input failures (internal bugs keep
    their backtrace).  [file] positions front-end errors that carry
    only line/column. *)
val of_exn : ?file:string -> exn -> t option
