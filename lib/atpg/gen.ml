(** The test-generation engine: a saturating random phase, deterministic
    PODEM with iterative frame deepening and randomized restarts, and a
    simulation-based fallback for the faults PODEM aborts on — with fault
    dropping throughout and per-fault/total budgets.  The stand-in for
    the commercial sequential ATPG tool of the paper.

    The deterministic phases are fault-parallel: per-fault generation
    (PODEM, SAT, Simgen) depends only on the circuit, the configuration
    and the fault itself — never on tests found for other faults — so a
    sweep can generate candidates concurrently and apply the results in
    fault order, reproducing the serial run bit for bit at every
    [g_jobs]. *)

module N = Netlist

type engine =
  | Podem_only
  | Sat_only
  | Hybrid

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

(** [run c cfg faults] generates tests targeting [faults] on circuit [c]. *)
let run ?(budget = Engine.Budget.none) c cfg faults =
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
  Fun.protect ~finally:(fun () -> Engine.Budget.detach run_tok)
  @@ fun () ->
  let dead () = Engine.Budget.poll run_tok in
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
  let tests = ref [] in
  (* indices of faults in a given set of states, filtered in one pass *)
  let indices_where pred =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if pred outcome.(i) then incr count
    done;
    let idx = Array.make !count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if pred outcome.(i) then begin
        idx.(!k) <- i;
        incr k
      end
    done;
    idx
  in
  (* simulate [tests] against the faults whose outcome satisfies [pred];
     mark hits Detected *)
  let grade pred tests =
    let faults = ref [] in
    for i = n - 1 downto 0 do
      if pred outcome.(i) then faults := fault_arr.(i) :: !faults
    done;
    let flags =
      Fsim.run ~jobs ~budget:run_tok c ~observe ~faults:!faults tests
    in
    let k = ref 0 in
    Array.iteri
      (fun i o ->
        if pred o then begin
          if flags.(!k) then outcome.(i) <- Some Detected;
          incr k
        end)
      outcome
  in
  (* Sweep the fault list once, running [generate] on every fault that
     satisfies [eligible] when reached and feeding the result to [apply].

     Serial: the textbook loop.

     Parallel: candidates are selected in fault order in rounds of
     [2*jobs], generated concurrently, and the results applied strictly
     in fault order; a result whose fault was resolved by an earlier
     application in the same round is discarded, exactly as the serial
     loop would never have generated it.  Because generation reads only
     immutable inputs, the applied sequence — and therefore every
     outcome, test and statistic — matches the serial run bit for bit
     whenever the time budgets do not bind. *)
  let sweep ~eligible ~generate ~apply =
    match pool with
    | None ->
      for i = 0 to n - 1 do
        if eligible i && not (dead ()) then apply i (generate i)
      done
    | Some pool ->
      let chunk = 2 * jobs in
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
        (* [!cand] is in descending index order; rev_map restores fault
           order for both submission and application *)
        let futs =
          List.rev_map
            (fun i -> (i, Engine.Pool.submit pool (fun () -> generate i)))
            !cand
        in
        List.iter
          (fun (i, fut) ->
            (* a dead budget withdraws the round's queued candidates;
               the ones already running abort through their own child
               tokens, and both leave the fault unresolved (later
               counted budget-skipped) exactly like the serial loop *)
            if dead () then ignore (Engine.Pool.cancel fut : bool);
            match Engine.Pool.await fut with
            | r -> if eligible i then apply i r
            | exception Engine.Pool.Cancelled -> ())
          futs
      done
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
        let before =
          Array.fold_left
            (fun acc o -> if o = Some Detected then acc + 1 else acc)
            0 outcome
        in
        (* grade the whole batch in one multi-test run: the packed
           engine words the batch into pattern lanes, and because the
           batch is kept or discarded as a unit, only the OR of the
           per-test detections matters — identical outcomes to the
           per-test loop. *)
        grade (fun o -> o = None) random_tests;
        let after =
          Array.fold_left
            (fun acc o -> if o = Some Detected then acc + 1 else acc)
            0 outcome
        in
        if after > before then tests := random_tests @ !tests
        else saturated := true;
        Obs.Progress.step prog_random
      done);
  Obs.Progress.finish prog_random;
  (* -------- phase 2: deterministic, iterative deepening ---------- *)
  let sat_detected = ref 0 and sat_untestable = ref 0 in
  let sat_time = ref 0.0 in
  let sat_stats = ref Sat.Solver.zero_stats in
  let cube_to_test (cube : Sat.Satgen.cube) =
    { Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
      p_loads = cube.Sat.Satgen.tc_loads }
  in
  (* one SAT attempt at a fault; the caller accounts time and statistics
     at apply time so discarded parallel attempts leave no trace *)
  let sat_attempt i =
    with_chaos i ~crashed:(Sat.Satgen.Gave_up, Sat.Solver.zero_stats, 0.0)
    @@ fun () ->
    let a0 = Engine.Clock.now () in
    let tok = Engine.Budget.sub run_tok in
    let (verdict, stats) =
      Fun.protect ~finally:(fun () -> Engine.Budget.detach tok)
      @@ fun () ->
      let fault = fault_arr.(i) in
      Sat.Satgen.run c ~max_frames:cfg.g_max_frames
        ~conflict_limit:cfg.g_sat_conflicts ~piers:cfg.g_piers
        ~budget:tok ~net:fault.Fault.f_net ~stuck:fault.Fault.f_stuck
    in
    let dt = Engine.Clock.now () -. a0 in
    Obs.Metrics.observe m_fault_time dt;
    (verdict, stats, dt)
  in
  let account_sat stats dt =
    sat_time := !sat_time +. dt;
    sat_stats := Sat.Solver.add_stats !sat_stats stats
  in
  let podem_generate_body i =
    let fault = fault_arr.(i) in
    let fault_t0 = Engine.Clock.now () in
    (* the per-fault budget is a child of the run token: whichever dies
       first aborts the PODEM search from inside its decision loop *)
    let tok = Engine.Budget.sub ~deadline_in:cfg.g_fault_budget run_tok in
    Fun.protect ~finally:(fun () -> Engine.Budget.detach tok)
    @@ fun () ->
    let over_budget () = Engine.Budget.poll tok in
    let rec attempts frames try_no =
      if try_no > cfg.g_restarts then Podem.Aborted
      else if over_budget () then Podem.Aborted
      else
        let pcfg =
          { Podem.frames;
            backtrack_limit = cfg.g_backtrack_limit;
            piers = cfg.g_piers;
            seed = (cfg.g_seed * 31) + try_no }
        in
        match Podem.run ~budget:tok c pcfg fault with
        | Podem.Detected t -> Podem.Detected t
        | Podem.Exhausted -> Podem.Exhausted
        | Podem.Aborted -> attempts frames (try_no + 1)
    in
    let rec deepen frames last =
      if frames > cfg.g_max_frames then last
      else if over_budget () then Podem.Aborted
      else
        match attempts frames 1 with
        | Podem.Detected t -> Podem.Detected t
        | Podem.Exhausted -> deepen (frames + 1) Podem.Exhausted
        | Podem.Aborted -> deepen (frames + 1) Podem.Aborted
    in
    let r = deepen 1 Podem.Exhausted in
    Obs.Metrics.observe m_fault_time (Engine.Clock.now () -. fault_t0);
    r
  in
  (* per-fault span: build the attr list only when tracing is live so
     the disabled path stays allocation-free on this hot loop *)
  let podem_generate i =
    with_chaos i ~crashed:Podem.Aborted @@ fun () ->
    if Obs.Span.enabled () then
      Obs.Span.with_ "atpg.fault"
        ~attrs:[ ("fault", Obs.Json.Int i) ]
        (fun () -> podem_generate_body i)
    else podem_generate_body i
  in
  let podem_apply i = function
    | Podem.Detected test ->
      tests := test :: !tests;
      (* confirm and drop: simulate against all remaining faults *)
      grade (fun o -> o = None) [ test ];
      (* the targeted fault must at least be marked: PODEM guarantees
         detection under the same X-initial model the simulator uses *)
      if outcome.(i) = None then outcome.(i) <- Some Detected
    | Podem.Exhausted -> outcome.(i) <- Some Untestable
    | Podem.Aborted -> outcome.(i) <- Some Aborted_fault
  in
  let sat_only_apply i (verdict, stats, dt) =
    account_sat stats dt;
    match verdict with
    | Sat.Satgen.Cube cube ->
      let test = cube_to_test cube in
      tests := test :: !tests;
      grade (fun o -> o = None) [ test ];
      (* the cube's encoding mirrors the simulator's three-valued
         semantics, so detection is guaranteed *)
      if outcome.(i) = None then outcome.(i) <- Some Detected;
      incr sat_detected
    | Sat.Satgen.Untestable _ ->
      outcome.(i) <- Some Untestable;
      incr sat_untestable
    | Sat.Satgen.Gave_up -> outcome.(i) <- Some Aborted_fault
  in
  let remaining i = outcome.(i) = None in
  let det_remaining = Array.length (indices_where (fun o -> o = None)) in
  Obs.Log.event Obs.Log.Info "atpg.phase"
    [ ("phase", Obs.Json.String "deterministic");
      ("remaining", Obs.Json.Int det_remaining) ];
  (* progress counts generation attempts: faults resolved en passant by
     confirm-and-drop never generate, so done may finish below total —
     monotonic either way, which is all a watcher needs *)
  let prog_det =
    Obs.Progress.start ~total:det_remaining "atpg.deterministic"
  in
  let stepped generate i =
    let r = generate i in
    Obs.Progress.step prog_det;
    r
  in
  Obs.Span.with_ "atpg.deterministic" (fun () ->
      if cfg.g_engine = Sat_only then
        (* the SAT engine replaces PODEM outright: miter per fault, depths
           1..max_frames, cubes confirmed (and dropped) through Fsim *)
        sweep ~eligible:remaining ~generate:(stepped sat_attempt)
          ~apply:sat_only_apply
      else
        sweep ~eligible:remaining ~generate:(stepped podem_generate)
          ~apply:podem_apply);
  Obs.Progress.finish prog_det;
  (* -------- phase 2b: SAT rescue of aborted faults ---------------- *)
  (* retry every PODEM abort with the complete-search engine: a cube
     closes the fault, and bounded-UNSAT across the whole abort depth
     reclassifies it as proven untestable — the effectiveness credit
     the paper's tables rely on *)
  let aborted i = outcome.(i) = Some Aborted_fault in
  if cfg.g_engine = Hybrid then begin
    let rescue_total =
      Array.length (indices_where (fun o -> o = Some Aborted_fault))
    in
    Obs.Log.event Obs.Log.Info "atpg.phase"
      [ ("phase", Obs.Json.String "sat_rescue");
        ("aborted", Obs.Json.Int rescue_total) ];
    let prog_rescue =
      Obs.Progress.start ~total:rescue_total "atpg.sat_rescue"
    in
    Obs.Span.with_ "atpg.sat_rescue" (fun () ->
        sweep ~eligible:aborted
          ~generate:(fun i ->
            let r = sat_attempt i in
            Obs.Progress.step prog_rescue;
            r)
          ~apply:(fun i (verdict, stats, dt) ->
              account_sat stats dt;
              match verdict with
              | Sat.Satgen.Cube cube ->
                let test = cube_to_test cube in
                tests := test :: !tests;
                grade (fun o -> o = None || o = Some Aborted_fault) [ test ];
                if outcome.(i) <> Some Detected then
                  outcome.(i) <- Some Detected;
                incr sat_detected;
                Obs.Metrics.incr m_sat_rescued;
                if Obs.Log.enabled Obs.Log.Debug then
                  Obs.Log.event Obs.Log.Debug "atpg.sat_rescue.cube"
                    [ ("net", Obs.Json.Int fault_arr.(i).Fault.f_net) ]
              | Sat.Satgen.Untestable _ ->
                outcome.(i) <- Some Untestable;
                incr sat_untestable;
                Obs.Metrics.incr m_sat_rescued;
                if Obs.Log.enabled Obs.Log.Debug then
                  Obs.Log.event Obs.Log.Debug "atpg.sat_rescue.untestable"
                    [ ("net", Obs.Json.Int fault_arr.(i).Fault.f_net) ]
              | Sat.Satgen.Gave_up -> ()));
    Obs.Progress.finish prog_rescue
  end;
  (* -------- phase 3: simulation-based rescue of aborted faults ---- *)
  if cfg.g_simgen_fallback then begin
    let simgen_cfg =
      { Simgen.default_config with
        sg_piers = cfg.g_piers;
        sg_frames = cfg.g_max_frames;
        sg_max_frames = 4 * cfg.g_max_frames;
        sg_seed = cfg.g_seed }
    in
    let prog_simgen =
      Obs.Progress.start
        ~total:(Array.length (indices_where (fun o -> o = Some Aborted_fault)))
        "atpg.simgen"
    in
    Obs.Span.with_ "atpg.simgen" (fun () ->
        sweep ~eligible:aborted
          ~generate:(fun i ->
            let r =
              with_chaos i ~crashed:None (fun () ->
                  Simgen.run c simgen_cfg fault_arr.(i))
            in
            Obs.Progress.step prog_simgen;
            r)
          ~apply:(fun _ result ->
              match result with
              | Some test ->
                tests := test :: !tests;
                grade (fun o -> o = None || o = Some Aborted_fault) [ test ]
              | None -> ()));
    Obs.Progress.finish prog_simgen
  end;
  (* a fault left unresolved by an expired total budget is neither hard
     (aborted) nor easy — it simply never got its turn; count it apart
     so coverage reports can tell "hard fault" from "ran out of time" *)
  let skipped_mark =
    if Engine.Budget.poll run_tok then Budget_skipped else Aborted_fault
  in
  Array.iteri
    (fun i o -> if o = None then outcome.(i) <- Some skipped_mark)
    outcome;
  let count what =
    Array.fold_left
      (fun acc o -> if o = Some what then acc + 1 else acc)
      0 outcome
  in
  let detected = count Detected in
  let untestable = count Untestable in
  let aborted = count Aborted_fault in
  let budget_skipped = count Budget_skipped in
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
