(** Testability analysis (Section 4.2 of the paper): empty def-use /
    use-def chains reported with full signal traces, and module inputs
    driven from hard-coded values (constants selected by a control
    signal, like the arm_alu decode). *)

type hard_coded = {
  hc_input : string;          (** MUT input port *)
  hc_module : string;         (** module the MUT is instantiated in *)
  hc_signal : string;         (** the driving signal in that module *)
  hc_controls : string list;  (** signals selecting among the values *)
  hc_values : int;            (** distinct constants driving it *)
}

(** [hard_coded_inputs env ~mut_path] analyzes every input of the module
    under test, following aliases and port connections through the
    hierarchy, and reports the ones driven exclusively by hard-coded
    constants. *)
val hard_coded_inputs : Compose.env -> mut_path:string -> hard_coded list

type report = {
  rp_mut : string;
  rp_dead_ends : Extract.dead_end list;
  rp_hard_coded : hard_coded list;
}

val report_to_string : report -> string

(** [analyze env ~mut_path ~dead_ends] assembles the per-MUT testability
    report (dead ends come from a prior extraction). *)
val analyze :
  Compose.env -> mut_path:string -> dead_ends:Extract.dead_end list -> report
