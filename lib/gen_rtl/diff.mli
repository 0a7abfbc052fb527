(** The differential fuzzing harness: for every seed, generate one
    hierarchical design ({!Gen}) and cross-check the independent
    implementations the repository already carries against each other.
    Any disagreement is a bug in one of them by construction — no
    hand-written expectations involved.

    Checks:
    - [Roundtrip] — pretty-print / re-parse idempotence.
    - [Opt_ec] — optimizer rebuild is exactly equivalent (random
      pre-filter + SAT, {!Synth.Opt.equivalent_exact}).  This check
      carries the deliberate bug seam [gen_rtl.seam:opt]: when chaos is
      armed on that site, a random gate substitution is slipped into
      the optimized side, which the check must catch.
    - [Mutate_ec] — a random semantics-preserving mutation
      ({!Mutate.random_preserving}) leaves the circuit equivalent
      (exact for expression-level mutations, random simulation for
      hierarchy reshapes), and a dead module never changes
      {!Factor.Compose.design_fingerprint}.
    - [Podem_sat] — per collapsed fault at unrolling depth 1, PODEM and
      {!Sat.Satgen} verdicts agree, and every claimed test cube detects
      under the fault simulator.  On combinational circuits both
      engines are exact, so any split verdict fails; on sequential
      circuits (frame-0 flip-flops at X) PODEM's 5-valued D-calculus is
      pessimistic, so a PODEM [Exhausted] against a SAT-confirmed test
      is consistent — only an unsound claim (a non-detecting test or
      cube, or a detected-vs-untestable split) fails.
    - [Fsim_engines] — packed and reference fault simulation return
      bit-identical detection flags on stuck-at, transition and bridging
      faults.
    - [Extract_modes] — for level-1 MUTs conventional and compositional
      extraction agree pin-for-pin on inputs and the compositional view
      is never larger (it may observe fewer outputs and keep fewer
      surrounding gates — that size win is the paper's point, so exact
      equality is not required; when the interfaces do coincide the
      transformed circuits must be equivalent); for the deepest MUT two
      fresh compositional sessions reproduce each other exactly.
    - [Jobs] — ATPG at [-j 1] and [-j N] is bit-identical, as is
      sharded fault simulation.

    Campaigns fan seeds out on {!Engine.Pool} under {!Engine.Budget}:
    one wedged or crashing seed degrades only itself (reported as a
    crash, with its replay line).  Failures are shrunk ({!Shrink}) with
    "the same check still fails" as the predicate, so the reproducer in
    the corpus fails for the reported reason, not coincidentally. *)

type check =
  | Roundtrip
  | Opt_ec
  | Mutate_ec
  | Podem_sat
  | Fsim_engines
  | Extract_modes
  | Jobs

val all_checks : check list
val check_name : check -> string

(** The chaos site that injects the deliberate mutation bug into
    [Opt_ec]'s optimized side (arm with rate 1.0, fail mode, this
    prefix).  Inert under delay-only chaos. *)
val bug_seam : string

type config = {
  dc_checks : check list;
  dc_max_faults : int;   (** per-seed collapsed-fault cap for [Podem_sat] *)
  dc_fsim_tests : int;   (** random tests per seed for [Fsim_engines] *)
  dc_jobs : int;         (** the [N] of the [-j 1] vs [-j N] check *)
  dc_seed_budget : float;  (** wall seconds per seed before it counts
                               as a crash *)
}

val default_config : config

type failure = {
  fl_seed : int;
  fl_check : check;
  fl_detail : string;
  fl_top : string;
  fl_design : Verilog.Ast.design;  (** shrunk reproducer *)
  fl_lines : int;                  (** its size in source lines *)
}

type report = {
  rp_base : int;
  rp_count : int;
  rp_checks : check list;
  rp_failures : failure list;
  rp_crashes : (int * string) list;
  rp_wall : float;  (** not part of {!render} — reports stay canonical *)
}

(** [check_design cfg ~budget ~seed ast ~top] runs every configured
    check on one design and returns the failing (check, detail) pairs.
    Pure in [(cfg, seed, ast, top)] apart from the chaos seam; used
    directly by the corpus replay tests.
    @raise Engine.Budget.Exhausted when [budget] dies mid-check. *)
val check_design :
  config -> budget:Engine.Budget.t -> seed:int -> Verilog.Ast.design ->
  top:string -> (check * string) list

type seed_outcome =
  | Seed_ok
  | Seed_failed of failure list
  | Seed_crashed of string

(** One seed end to end: generate, check, shrink any failures.  Never
    raises — crashes (including budget expiry and chaos injection at
    [gen_rtl.seed:<n>]) are folded into [Seed_crashed]. *)
val run_seed : ?budget:Engine.Budget.t -> config -> int -> seed_outcome

(** [campaign ?budget ?corpus cfg ~base ~count] fans seeds
    [base .. base+count-1] over the global pool, prints a replay line
    to stderr for every failure and crash (the [FACTOR_SEED] /
    [FACTOR_CHAOS] / [FACTOR_JOBS] one-command-reproduction contract),
    and writes shrunk reproducers into [corpus] when given. *)
val campaign :
  ?budget:Engine.Budget.t -> ?corpus:string -> config -> base:int ->
  count:int -> report

(** Canonical report text: a pure function of seeds and outcomes, no
    timings — two identical campaigns render byte-identically. *)
val render : report -> string

(** ["FACTOR_SEED=<n> FACTOR_CHAOS=<v|unset> FACTOR_JOBS=<v|unset>"] —
    the environment of this process, verbatim, plus the seed. *)
val repro_env : seed:int -> string
