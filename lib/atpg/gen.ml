(** The test-generation engine: a saturating random phase, then a fault
    ladder of deterministic stages — PODEM with iterative frame
    deepening and randomized restarts, the SAT miter, and the
    simulation-based Simgen — with fault dropping throughout and
    per-fault/total budgets.  The stand-in for the commercial sequential
    ATPG tool of the paper.

    Every stage gives each fault it targets one verdict: a test, proven
    untestable, or gave up.  The engine choice is only the list of
    stages; one function runs a stage (its log event, progress, span
    and sweep) and applies every verdict at one site.

    The stages are fault-parallel: per-fault generation depends only on
    the circuit, the configuration and the fault itself — never on tests
    found for other faults — so a sweep can generate candidates
    concurrently and apply the results in fault order, reproducing the
    serial run bit for bit at every [g_jobs]. *)

module N = Netlist

type engine =
  | Podem_only
  | Sat_only
  | Hybrid

let engine_name = function
  | Podem_only -> "podem"
  | Sat_only -> "sat"
  | Hybrid -> "hybrid"

let engines = List.map (fun e -> (engine_name e, e)) [ Podem_only; Sat_only; Hybrid ]

type config = {
  g_backtrack_limit : int;
  g_max_frames : int;          (** deepest time-frame expansion tried *)
  g_restarts : int;            (** randomized PODEM restarts per depth *)
  g_random_sequences : int;    (** random sequences per saturation batch *)
  g_random_batches : int;      (** maximum saturation batches *)
  g_random_length : int;
  g_fault_budget : float;      (** wall seconds per fault, deterministic phase *)
  g_total_budget : float;      (** wall seconds for the whole run *)
  g_piers : int list;          (** loadable/storable flip-flop indices *)
  g_simgen_fallback : bool;    (** rescue aborted faults with {!Simgen} *)
  g_engine : engine;           (** deterministic-phase engine selection *)
  g_sat_conflicts : int;       (** SAT conflict limit per fault and depth *)
  g_seed : int;
  g_jobs : int;                (** 1 = serial; 0 = width of the global pool *)
}

let default_config = {
  g_backtrack_limit = 200;
  g_max_frames = 4;
  g_restarts = 2;
  g_random_sequences = 32;
  g_random_batches = 16;
  g_random_length = 4;
  g_fault_budget = 1.0;
  g_total_budget = 60.0;
  g_piers = [];
  g_simgen_fallback = true;
  g_engine = Hybrid;
  g_sat_conflicts = 20_000;
  g_seed = 1;
  g_jobs = 1;
}

type outcome = Detected | Untestable | Aborted_fault | Budget_skipped

type result = {
  r_total : int;
  r_detected : int;
  r_untestable : int;
  r_aborted : int;
  r_budget_skipped : int;
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

let coverage detected total =
  if total = 0 then 100.0 else 100.0 *. float_of_int detected /. float_of_int total

let m_faults = Obs.Metrics.counter "factor.atpg.faults"
let m_detected = Obs.Metrics.counter "factor.atpg.detected"
let m_untestable = Obs.Metrics.counter "factor.atpg.untestable"
let m_aborted = Obs.Metrics.counter "factor.atpg.aborted"
let m_budget_skipped = Obs.Metrics.counter "factor.atpg.budget_skipped"
let m_sat_rescued = Obs.Metrics.counter "factor.atpg.sat_rescued"
let m_fault_time = Obs.Metrics.histogram "factor.atpg.fault_time_s"

(* One stage's answer for one fault. *)
type verdict =
  | Test of Pattern.test  (* detects the fault *)
  | Proven                (* the fault is untestable *)
  | Gave_up

(* A rung of the fault ladder.  [st_phase] names its log event,
   progress reporter and span ([atpg.<phase>]).  [st_run tok i] runs
   the stage's engine on fault [i] under [tok], a child of the run token
   with [st_deadline] as its own deadline, and returns the verdict and,
   for SAT, the solver statistics of the attempt. *)
type stage = {
  st_phase : string;
  st_deadline : float option;
  st_run : Engine.Budget.t -> int -> verdict * Sat.Solver.stats option;
}

(** [run c cfg faults] generates tests targeting [faults] on circuit [c]. *)
let run ?(budget = Engine.Budget.none) c cfg faults =
  if cfg.g_max_frames < 1 then
    invalid_arg "Gen.run: g_max_frames must be at least 1";
  Obs.Span.with_ "atpg.run"
    ~attrs:[ ("faults", Obs.Json.Int (List.length faults)) ]
  @@ fun () ->
  let t0_cpu = Sys.time () in
  let t0 = Engine.Clock.now () in
  let elapsed () = Engine.Clock.now () -. t0 in
  (* the run token carries the total budget; every phase, pool task and
     solver call watches it (or a child of it), so expiry also stops
     in-flight work instead of merely skipping future faults *)
  let run_tok =
    Engine.Budget.sub
      ?deadline_in:
        (if cfg.g_total_budget = infinity then None
         else Some cfg.g_total_budget)
      budget
  in
  let dead () = Engine.Budget.poll run_tok in
  let rng = Random.State.make [| cfg.g_seed |] in
  let observe =
    { Fsim.ob_pos = true; ob_pier_ffs = cfg.g_piers }
  in
  let jobs =
    if cfg.g_jobs = 0 then Engine.Pool.size (Engine.Pool.global ())
    else max 1 cfg.g_jobs
  in
  let pool = if jobs > 1 then Some (Engine.Pool.global ()) else None in
  let n = List.length faults in
  let fault_arr = Array.of_list faults in
  let outcome = Array.make n None in
  (* faults the last rung of the ladder gave up on under a live run
     token: the only aborts that stand *)
  let hard = Array.make n false in
  let tests = ref [] in
  let count pred =
    Array.fold_left (fun k o -> if pred o then k + 1 else k) 0 outcome
  in
  (* simulate [tests] against the faults whose outcome satisfies [pred];
     mark hits Detected and return how many there were *)
  let grade pred tests =
    let faults = ref [] in
    for i = n - 1 downto 0 do
      if pred outcome.(i) then faults := fault_arr.(i) :: !faults
    done;
    let flags =
      Fsim.run ~jobs ~budget:run_tok c ~observe ~faults:!faults tests
    in
    let k = ref 0 and hits = ref 0 in
    Array.iteri
      (fun i o ->
        if pred o then begin
          if flags.(!k) then begin
            outcome.(i) <- Some Detected;
            incr hits
          end;
          incr k
        end)
      outcome;
    !hits
  in
  (* Sweep the fault list once, running [generate] on every fault that
     satisfies [eligible] when reached and feeding the result to [apply].
     Candidates are taken in fault order, a round at a time: one
     generated inline without a pool, [2*jobs] generated concurrently on
     it.  Results are applied strictly in fault order, and a result
     whose fault an earlier application in the same round resolved is
     discarded, exactly as a one-at-a-time loop would never have
     generated it.  Because generation reads only immutable inputs, the
     applied sequence — and therefore every outcome, test and statistic
     — is the same at every job count whenever the time budgets do not
     bind. *)
  let sweep ~eligible ~generate ~apply =
    let start i =
      match pool with
      | None ->
        let r = generate i in
        fun () -> Some r
      | Some pool ->
        (* a candidate that starts after the budget died does nothing;
           one already running aborts through its own child token; both
           leave the fault unresolved (later counted budget-skipped) *)
        let fut =
          Engine.Pool.submit pool (fun () ->
              if dead () then None else Some (generate i))
        in
        fun () -> Engine.Pool.await fut
    in
    let chunk = if pool = None then 1 else 2 * jobs in
    let next = ref 0 in
    while !next < n do
      let cand = ref [] and k = ref 0 in
      while !k < chunk && !next < n do
        let i = !next in
        incr next;
        if eligible i && not (dead ()) then begin
          cand := i :: !cand;
          incr k
        end
      done;
      (* [!cand] is in descending index order; rev_map hands the round
         back in fault order *)
      List.iter
        (fun (i, result) ->
          match result () with
          | Some r when eligible i -> apply i r
          | _ -> ())
        (List.rev_map (fun i -> (i, start i)) !cand)
    done
  in
  (* deterministic chaos seam: one site per fault index, caught right
     here so an injected failure costs exactly one fault *)
  let with_chaos i ~crashed f =
    if Engine.Chaos.active () then
      try
        Engine.Chaos.point ("atpg.fault:" ^ string_of_int i);
        f ()
      with Engine.Chaos.Injected _ -> crashed
    else f ()
  in
  (* -------- phase 1: random sequences until saturation ------------ *)
  Obs.Log.event Obs.Log.Info "atpg.phase"
    [ ("phase", Obs.Json.String "random"); ("faults", Obs.Json.Int n) ];
  let batch = ref 0 in
  let saturated = ref false in
  let prog_random =
    Obs.Progress.start ~total:cfg.g_random_batches "atpg.random"
  in
  Obs.Span.with_ "atpg.random" (fun () ->
      while (not !saturated)
            && !batch < cfg.g_random_batches
            && (not (dead ()))
            && Array.exists (fun o -> o = None) outcome do
        incr batch;
        let random_tests =
          List.init cfg.g_random_sequences (fun _ ->
              Pattern.random ~rng ~num_pis:(N.num_pis c)
                ~frames:cfg.g_random_length ~piers:cfg.g_piers)
        in
        (* grade the whole batch in one multi-test run: the packed
           engine words the batch into pattern lanes, and because the
           batch is kept or discarded as a unit, only the OR of the
           per-test detections matters — identical outcomes to the
           per-test loop. *)
        if grade (fun o -> o = None) random_tests > 0 then
          tests := random_tests @ !tests
        else saturated := true;
        Obs.Progress.step prog_random
      done);
  Obs.Progress.finish prog_random;
  (* -------- phase 2: the fault ladder ----------------------------- *)
  let podem tok i =
    let fault = fault_arr.(i) in
    let rec attempts frames try_no =
      if try_no > cfg.g_restarts || Engine.Budget.poll tok then Podem.Aborted
      else
        let pcfg =
          { Podem.frames;
            backtrack_limit = cfg.g_backtrack_limit;
            piers = cfg.g_piers;
            seed = (cfg.g_seed * 31) + try_no }
        in
        match Podem.run ~budget:tok c pcfg fault with
        | Podem.Aborted -> attempts frames (try_no + 1)
        | r -> r
    in
    (* iterative deepening: an exhausted depth proves nothing about the
       next, so only the deepest verdict counts *)
    let rec deepen frames last =
      if frames > cfg.g_max_frames then last
      else if Engine.Budget.poll tok then Podem.Aborted
      else
        match attempts frames 1 with
        | Podem.Detected _ as r -> r
        | r -> deepen (frames + 1) r
    in
    let search () =
      match deepen 1 Podem.Exhausted with
      | Podem.Detected t -> Test t
      | Podem.Exhausted -> Proven
      | Podem.Aborted -> Gave_up
    in
    (* per-fault span: build the attr list only when tracing is live so
       the disabled path stays allocation-free on this hot loop *)
    ( (if Obs.Span.enabled () then
         Obs.Span.with_ "atpg.fault"
           ~attrs:[ ("fault", Obs.Json.Int i) ]
           search
       else search ()),
      None )
  in
  let sat tok i =
    let fault = fault_arr.(i) in
    let (verdict, stats) =
      Sat.Satgen.run c ~max_frames:cfg.g_max_frames
        ~conflict_limit:cfg.g_sat_conflicts ~piers:cfg.g_piers ~budget:tok
        ~net:fault.Fault.f_net ~stuck:fault.Fault.f_stuck
    in
    ( (match verdict with
       | Sat.Satgen.Cube cube ->
         Test
           { Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
             p_loads = cube.Sat.Satgen.tc_loads }
       | Sat.Satgen.Untestable _ -> Proven
       | Sat.Satgen.Gave_up -> Gave_up),
      Some stats )
  in
  let simgen_cfg =
    { Simgen.default_config with
      sg_piers = cfg.g_piers;
      sg_frames = cfg.g_max_frames;
      sg_max_frames = 4 * cfg.g_max_frames;
      sg_seed = cfg.g_seed }
  in
  (* the token is polled once per generation: an expired total budget
     ends the fault's run within one generation *)
  let simgen tok i =
    ( (match Simgen.run ~budget:tok c simgen_cfg fault_arr.(i) with
       | Some t -> Test t
       | None -> Gave_up),
      None )
  in
  let stage ?deadline phase run =
    { st_phase = phase; st_deadline = deadline; st_run = run }
  in
  let podem = stage "deterministic" ~deadline:cfg.g_fault_budget podem in
  let ladder =
    (match cfg.g_engine with
     | Podem_only -> [ podem ]
     | Sat_only -> [ stage "deterministic" sat ]
     | Hybrid -> [ podem; stage "sat_rescue" sat ])
    @ if cfg.g_simgen_fallback then [ stage "simgen" simgen ] else []
  in
  let sat_detected = ref 0 and sat_untestable = ref 0 in
  let sat_time = ref 0.0 in
  let sat_stats = ref Sat.Solver.zero_stats in
  (* The first stage targets every fault the random phase left open; a
     later one (a rescue) the faults its predecessors gave up on. *)
  let last_stage = List.length ladder - 1 in
  let run_stage k st =
    let rescue = k > 0 in
    let target o = if rescue then o = Some Aborted_fault else o = None in
    let targets = count target in
    Obs.Log.event Obs.Log.Info "atpg.phase"
      [ ("phase", Obs.Json.String st.st_phase);
        ((if rescue then "aborted" else "remaining"), Obs.Json.Int targets) ];
    let name = "atpg." ^ st.st_phase in
    (* progress counts generation attempts: faults resolved en passant
       by confirm-and-drop never generate, so done may finish below
       total — monotonic either way, which is all a watcher needs *)
    let prog = Obs.Progress.start ~total:targets name in
    let generate i =
      let r =
        with_chaos i ~crashed:(Gave_up, None, 0.0) @@ fun () ->
        let a0 = Engine.Clock.now () in
        let tok = Engine.Budget.sub ?deadline_in:st.st_deadline run_tok in
        let (verdict, sat) = st.st_run tok i in
        let dt = Engine.Clock.now () -. a0 in
        Obs.Metrics.observe m_fault_time dt;
        (verdict, sat, dt)
      in
      Obs.Progress.step prog;
      r
    in
    (* the one place a verdict lands; SAT work is accounted here, so
       discarded parallel attempts leave no trace *)
    let apply i (verdict, sat, dt) =
      (match verdict with
       | Test test ->
         tests := test :: !tests;
         (* confirm and drop: simulate against every fault still open
            to this stage.  Each engine has checked detection of its
            target under the simulator's X-initial model, so the target
            is marked even when an expired budget cut the grading short *)
         ignore (grade (fun o -> o = None || target o) [ test ] : int);
         outcome.(i) <- Some Detected
       | Proven -> outcome.(i) <- Some Untestable
       | Gave_up ->
         (* an earlier rung's give-up passes the fault on to the next *)
         outcome.(i) <- Some Aborted_fault;
         hard.(i) <- k = last_stage && not (dead ()));
      Option.iter
        (fun stats ->
          sat_time := !sat_time +. dt;
          sat_stats := Sat.Solver.add_stats !sat_stats stats;
          let closed counter what =
            incr counter;
            if rescue then begin
              Obs.Metrics.incr m_sat_rescued;
              if Obs.Log.enabled Obs.Log.Debug then
                Obs.Log.event Obs.Log.Debug (name ^ "." ^ what)
                  [ ("net", Obs.Json.Int fault_arr.(i).Fault.f_net) ]
            end
          in
          match verdict with
          | Test _ -> closed sat_detected "cube"
          | Proven -> closed sat_untestable "untestable"
          | Gave_up -> ())
        sat
    in
    Obs.Span.with_ name (fun () ->
        sweep ~eligible:(fun i -> target outcome.(i)) ~generate ~apply);
    Obs.Progress.finish prog
  in
  List.iteri run_stage ladder;
  (* a fault the run deadline left undecided — never attempted, cut
     short mid-search, or given up by a rung whose rescue never came —
     is neither hard (aborted) nor easy; count it apart so coverage
     reports can tell "hard fault" from "ran out of time" *)
  Array.iteri
    (fun i o ->
      match o with
      | (None | Some Aborted_fault) when not hard.(i) ->
        outcome.(i) <- Some Budget_skipped
      | _ -> ())
    outcome;
  let detected = count (( = ) (Some Detected)) in
  let untestable = count (( = ) (Some Untestable)) in
  let aborted = count (( = ) (Some Aborted_fault)) in
  let budget_skipped = count (( = ) (Some Budget_skipped)) in
  Obs.Metrics.add m_faults n;
  Obs.Metrics.add m_detected detected;
  Obs.Metrics.add m_untestable untestable;
  Obs.Metrics.add m_aborted aborted;
  Obs.Metrics.add m_budget_skipped budget_skipped;
  Obs.Log.event Obs.Log.Info "atpg.done"
    [ ("faults", Obs.Json.Int n);
      ("detected", Obs.Json.Int detected);
      ("untestable", Obs.Json.Int untestable);
      ("aborted", Obs.Json.Int aborted);
      ("budget_skipped", Obs.Json.Int budget_skipped);
      ("wall_s", Obs.Json.Float (elapsed ())) ];
  { r_total = n;
    r_detected = detected;
    r_untestable = untestable;
    r_aborted = aborted;
    r_budget_skipped = budget_skipped;
    r_coverage = coverage detected n;
    r_effectiveness = coverage (detected + untestable) n;
    r_tests = List.rev !tests;
    r_vectors = Pattern.total_vectors !tests;
    r_time = Sys.time () -. t0_cpu;
    r_wall = elapsed ();
    r_outcomes =
      Array.to_list (Array.mapi (fun i o -> (fault_arr.(i), Option.get o)) outcome);
    r_sat_detected = !sat_detected;
    r_sat_untestable = !sat_untestable;
    r_sat_time = !sat_time;
    r_sat_stats = !sat_stats }
