(** Builds the transformed module of the paper's Figure 1: the module
    under test combined with the synthesized virtual logic S' extracted
    from its surroundings. *)

type t = {
  tf_design : Verilog.Ast.design;  (** the sliced design, as Verilog *)
  tf_circuit : Netlist.t;
  tf_mut_path : string;
  tf_synthesis_time : float;       (** CPU seconds for flatten+lower *)
  tf_mut_gates : int;              (** gate equivalents inside the MUT *)
  tf_surrounding_gates : int;      (** gate equivalents of S' *)
  tf_pi_bits : int;
  tf_po_bits : int;
  tf_warnings : string list;
  tf_validation : string option;   (** SAT equivalence verdict, once run *)
}

(** Gate equivalents split into (inside MUT, outside MUT), counting only
    logic alive in the cone of the observable outputs. *)
val split_gates : Netlist.t -> mut_path:string -> int * int

(** [synthesize design ~top ~mut_path] elaborates, flattens and lowers a
    (possibly sliced) design and reports the statistics. *)
val synthesize : Verilog.Ast.design -> top:string -> mut_path:string -> t

(** [build env slice ~mut_path] reconstructs the sliced design around the
    MUT and synthesizes the transformed module. *)
val build : Compose.env -> Slice.t -> mut_path:string -> t

(** [validate tf] proves an optimizer rebuild of the transformed module
    SAT-equivalent to it (exact, matched-register), recording the
    verdict in [tf_validation] and appending any difference to
    [tf_warnings]. *)
val validate : t -> t
