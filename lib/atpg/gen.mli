(** The test-generation engine: a saturating random phase, then a fault
    ladder of deterministic stages — PODEM with iterative frame
    deepening and randomized restarts, the SAT miter, and the
    simulation-based Simgen — the stand-in for the commercial
    sequential ATPG tool of the paper.

    Each stage gives every fault it targets one verdict: a test, proven
    untestable, or gave up.  The first stage targets the faults the
    random phase left; each later one (a rescue) the faults still
    aborted.  A test is graded against every fault still open to the
    stage (fault dropping) and its fault marked detected.

    The stages are fault-parallel: per-fault generation depends only on
    the circuit, the configuration and the fault, so a parallel run
    generates candidates concurrently, applies the results in fault
    order and reproduces the serial run bit for bit whenever the time
    budgets do not bind. *)

(** The fault ladder's stages.  [Podem_only] is PODEM alone;
    [Sat_only] replaces PODEM with {!Sat.Satgen} miters; [Hybrid] (the
    default) runs PODEM and then retries every aborted fault with SAT,
    turning bounded-UNSAT answers into proven untestability.
    [g_simgen_fallback] appends a {!Simgen} rescue to any of them. *)
type engine =
  | Podem_only
  | Sat_only
  | Hybrid

(** The engines under their command-line and protocol names,
    ["podem"], ["sat"] and ["hybrid"]. *)
val engines : (string * engine) list

val engine_name : engine -> string

type config = {
  g_backtrack_limit : int;
  g_max_frames : int;        (** deepest time-frame expansion tried,
                                 at least 1 *)
  g_restarts : int;          (** randomized PODEM restarts per depth *)
  g_random_sequences : int;  (** random sequences per saturation batch *)
  g_random_batches : int;    (** maximum saturation batches *)
  g_random_length : int;     (** frames per random sequence *)
  g_fault_budget : float;    (** wall seconds per fault *)
  g_total_budget : float;    (** wall seconds for the whole run *)
  g_piers : int list;        (** loadable/storable flip-flop indices *)
  g_simgen_fallback : bool;  (** rescue aborted faults with {!Simgen} *)
  g_engine : engine;
  g_sat_conflicts : int;     (** SAT conflict limit per fault and depth *)
  g_seed : int;
  g_jobs : int;              (** 1 = serial (default); 0 = width of the
                                 global {!Engine.Pool}; [n > 1] = that
                                 many domains; identical results at
                                 every job count *)
}

val default_config : config

type outcome =
  | Detected
  | Untestable
  | Aborted_fault
  (** the last stage of the ladder gave up on a hard fault while the
      run budget was alive *)
  | Budget_skipped
  (** left undecided by the run deadline: never attempted, cut short
      mid-search, or given up by an earlier stage whose rescue the
      deadline never reached *)

type result = {
  r_total : int;
  r_detected : int;
  r_untestable : int;
  r_aborted : int;          (** hard faults the engines gave up on *)
  r_budget_skipped : int;   (** faults the run deadline left undecided *)
  r_coverage : float;       (** percent detected *)
  r_effectiveness : float;  (** percent detected or proven untestable *)
  r_tests : Pattern.test list;
  r_vectors : int;
  r_time : float;           (** CPU seconds, summed over all domains *)
  r_wall : float;           (** wall-clock seconds *)
  r_outcomes : (Fault.t * outcome) list;
  r_sat_detected : int;     (** faults only the SAT engine closed *)
  r_sat_untestable : int;   (** aborted faults SAT proved untestable *)
  r_sat_time : float;       (** wall seconds inside the SAT engine *)
  r_sat_stats : Sat.Solver.stats;
}

(** [run c cfg faults] generates tests targeting [faults] on [c].

    The whole run is governed by a hierarchical {!Engine.Budget} token:
    a child of [budget] (when given) carrying [g_total_budget] as its
    deadline.  Every phase loop, pool task, fault simulation and SAT
    solve watches that token or a per-fault child of it, so expiry of
    either deadline stops in-flight work cooperatively and returns
    partial results; every fault the run deadline left undecided is
    reported as [Budget_skipped], never as [Aborted_fault].
    @raise Invalid_argument when [g_max_frames < 1]: no frame would be
    searched, and nothing can be proven. *)
val run :
  ?budget:Engine.Budget.t -> Netlist.t -> config -> Fault.t list ->
  result
