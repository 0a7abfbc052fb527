(** End-to-end flows producing the rows of every table in the paper's
    evaluation. *)

type mut_spec = {
  ms_name : string;  (** display name, e.g. "arm_alu" *)
  ms_path : string;  (** instance path, e.g. "u_dpath.u_alu" *)
}

type mode = Conventional | Compositional

(** The modes under their command-line and protocol names,
    ["conventional"] and ["compositional"]. *)
val modes : (string * mode) list

val mode_name : mode -> string

(** [extract ?budget env session mode ~mut_path] runs the requested
    extraction; [session] is only consulted in [Compositional] mode. *)
val extract :
  ?budget:Engine.Budget.t -> Compose.env -> Compose.session -> mode ->
  mut_path:string -> Compose.stats

(** {1 Table 1 — module characteristics} *)

type characteristics = {
  ch_name : string;
  ch_level : int;
  ch_pi_bits : int;
  ch_po_bits : int;
  ch_module_gates : int;
  ch_surrounding_gates : int;
  ch_faults : int;  (** collapsed stuck-at faults inside the module *)
}

(** Synthesize the whole design once; reused by Tables 1 and 4. *)
val full_circuit : Compose.env -> Netlist.t

val characteristics :
  Compose.env -> full:Netlist.t -> mut_spec -> characteristics

(** {1 Tables 2/3 — transformed-module construction} *)

type transform_row = {
  tr_name : string;
  tr_standalone_faults : int;
      (** collapsed fault count of the stand-alone MUT; the reference
          universe for transformed-module coverage *)
  tr_extraction_time : float;
  tr_synthesis_time : float;
  tr_surrounding_gates : int;
  tr_reduction_pct : float;
  tr_pi_bits : int;
  tr_po_bits : int;
  tr_cache_hits : int;
  tr_stats : Compose.stats;
  tr_transformed : Transform.t;
}

(** Collapsed fault count of the MUT synthesized stand-alone. *)
val standalone_fault_count : Compose.env -> mut_spec -> int

(** [transform ?budget env session mode spec ~surrounding_before]
    extracts in the requested mode and synthesizes the transformed
    module; [surrounding_before] (from Table 1) feeds the gate-reduction
    column.  Extraction polls [budget] as it walks the hierarchy.
    @raise Engine.Budget.Exhausted when [budget] expires mid-walk. *)
val transform :
  ?budget:Engine.Budget.t ->
  Compose.env -> Compose.session -> mode -> mut_spec ->
  surrounding_before:int -> transform_row

(** {1 Tables 4/5/6 — test generation} *)

type atpg_row = {
  ar_name : string;
  ar_coverage : float;
  ar_effectiveness : float;
  ar_testgen_time : float;
  ar_total_time : float;  (** extraction + synthesis + test generation *)
  ar_faults : int;
  ar_vectors : int;
  ar_result : Atpg.Gen.result;
}

(** Test generation on the stand-alone module (Table 4, right half). *)
val standalone_atpg : Compose.env -> mut_spec -> Atpg.Gen.config -> atpg_row

(** Raw processor-level generation targeting the MUT's faults (Table 4,
    left half). *)
val processor_atpg : full:Netlist.t -> mut_spec -> Atpg.Gen.config -> atpg_row

(** Test generation on a transformed module (Tables 5/6) with PIER pseudo
    ports.  Coverage is reported against the stand-alone fault universe;
    constraint-tied faults count toward effectiveness only.  [budget]
    bounds the generation cooperatively; on expiry the row carries
    partial coverage and a nonzero [r_budget_skipped]. *)
val transformed_atpg :
  ?budget:Engine.Budget.t -> transform_row -> Atpg.Gen.config -> atpg_row

(** {1 MUT isolation} *)

type mut_status =
  | Mut_ok                    (** full generation, no truncation *)
  | Mut_degraded of string    (** budget expired mid-row: partial coverage *)
  | Mut_failed of string      (** the row crashed; message captured *)
  | Mut_skipped of string     (** run budget died before the row started *)

type mut_outcome = {
  mo_name : string;            (** MUT display name *)
  mo_status : mut_status;
  mo_row : atpg_row option;    (** present for [Mut_ok] / [Mut_degraded] *)
}

(** Rows that produced results ([Mut_ok] and [Mut_degraded]), input
    order preserved. *)
val completed_rows : mut_outcome list -> atpg_row list

(** [transformed_atpg_all ?jobs ?budget ?mut_budget rows cfg] maps
    {!transformed_atpg} over the rows as concurrent tasks on the global
    domain pool (MUT-parallel Tables 5/6), merging outcomes in input
    order — bit-identical to the serial map.  Each MUT is isolated: a
    crash, hang-guard trip, or budget expiry yields a [Mut_failed] /
    [Mut_degraded] outcome for that row only; siblings are unaffected
    and the call never raises.  [budget] bounds the whole run (queued
    rows are cancelled and [Mut_skipped] once it dies), [mut_budget]
    (seconds) bounds each row.  [jobs] defaults to the pool width;
    [jobs <= 1] is the serial map.  Per-row generation is forced serial
    to avoid oversubscribing the pool. *)
val transformed_atpg_all :
  ?jobs:int -> ?budget:Engine.Budget.t -> ?mut_budget:float ->
  transform_row list -> Atpg.Gen.config -> mut_outcome list
