(** Differential fuzzing harness.  See the mli for the check catalogue.

    Two disciplines keep campaigns trustworthy:

    - {b no false disagreements under budget pressure}: every check that
      is about to report a failure first [guard]s its budget token, so a
      partial result produced by a dying budget surfaces as
      [Budget.Exhausted] (a crash with a replay line), never as a
      spurious "the engines disagree".
    - {b canonical reports}: outcomes are merged in seed order off
      [Pool.run_all] and rendered without timings, so the same seed
      range produces byte-identical reports at any job count. *)

type check =
  | Roundtrip
  | Opt_ec
  | Mutate_ec
  | Podem_sat
  | Fsim_engines
  | Extract_modes
  | Jobs

let all_checks =
  [ Roundtrip; Opt_ec; Mutate_ec; Podem_sat; Fsim_engines; Extract_modes;
    Jobs ]

let check_name = function
  | Roundtrip -> "roundtrip"
  | Opt_ec -> "opt_ec"
  | Mutate_ec -> "mutate_ec"
  | Podem_sat -> "podem_sat"
  | Fsim_engines -> "fsim_engines"
  | Extract_modes -> "extract_modes"
  | Jobs -> "jobs"

let bug_seam = "gen_rtl.seam:opt"

type config = {
  dc_checks : check list;
  dc_max_faults : int;
  dc_fsim_tests : int;
  dc_jobs : int;
  dc_seed_budget : float;
}

let default_config =
  { dc_checks = all_checks;
    dc_max_faults = 24;
    dc_fsim_tests = 16;
    dc_jobs = 4;
    (* A wedge safety-valve, not a pace-setter: seeds run concurrently,
       so a binding wall deadline would fire scheduling-dependently and
       break report canonicity.  Set it high enough that only a truly
       wedged seed pays it. *)
    dc_seed_budget = 300.0 }

type failure = {
  fl_seed : int;
  fl_check : check;
  fl_detail : string;
  fl_top : string;
  fl_design : Verilog.Ast.design;
  fl_lines : int;
}

type report = {
  rp_base : int;
  rp_count : int;
  rp_checks : check list;
  rp_failures : failure list;
  rp_crashes : (int * string) list;
  rp_wall : float;
}

(* ------------------------------------------------------------------ *)
(* Small helpers.                                                      *)
(* ------------------------------------------------------------------ *)

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

(* Every check draws from its own stream so adding or reordering checks
   never perturbs another check's randomness for the same seed. *)
let check_rng ~seed check =
  let tag =
    match check with
    | Roundtrip -> 1 | Opt_ec -> 2 | Mutate_ec -> 3 | Podem_sat -> 4
    | Fsim_engines -> 5 | Extract_modes -> 6 | Jobs -> 7
  in
  Random.State.make [| 0xd1ff; seed; tag |]

(* Report a disagreement — unless the budget died under us, in which
   case the partial result proves nothing and the seed must count as a
   timeout, not a bug. *)
let fail budget msg =
  Engine.Budget.guard ~site:"gen_rtl.diff" budget;
  Some msg

(* ------------------------------------------------------------------ *)
(* The checks.  Each returns [Some detail] on disagreement.            *)
(* ------------------------------------------------------------------ *)

let check_roundtrip budget ast =
  let src = Verilog.Pp.design_to_string ast in
  let src' = Verilog.Pp.design_to_string (Verilog.Parser.parse_design src) in
  if String.equal src src' then None
  else fail budget "pp -> parse -> pp is not a fixpoint"

let check_opt_ec budget rng ast ~top =
  let c = Gen.circuit_of ast ~top in
  (* The deliberate bug seam: under fail-mode chaos scoped to
     [gen_rtl.seam:opt], the "optimized" side is built from a silently
     gate-swapped design.  The check below must catch it. *)
  let ast_opt =
    if Engine.Chaos.abort_point bug_seam then
      match Mutate.gate_swap_first ast ~top with
      | Some (d, _) -> d
      | None -> ast
    else ast
  in
  let c_opt = Synth.Opt.rebuild (Gen.circuit_of ast_opt ~top) in
  match Synth.Opt.equivalent_exact ~rng c c_opt with
  | Synth.Opt.Equal -> None
  | Synth.Opt.Differ why ->
    fail budget (Printf.sprintf "optimized rebuild differs: %s" why)

let check_mutate_ec budget rng ast ~top =
  match Mutate.random_preserving ~rng ast ~top with
  | None -> None
  | Some (ast', info) ->
    let fp_stable =
      info.Mutate.mi_kind <> Mutate.Dead_module
      || String.equal
           (Factor.Compose.design_fingerprint ast ~top)
           (Factor.Compose.design_fingerprint ast' ~top)
    in
    if not fp_stable then
      fail budget
        (Printf.sprintf "dead module changed the design fingerprint (%s)"
           info.Mutate.mi_desc)
    else
      let c = Gen.circuit_of ast ~top in
      let c' = Gen.circuit_of ast' ~top in
      let verdict =
        if info.Mutate.mi_exact then Synth.Opt.equivalent_exact ~rng c c'
        else Synth.Opt.equivalent ~rounds:24 ~cycles:6 ~rng c c'
      in
      (match verdict with
       | Synth.Opt.Equal -> None
       | Synth.Opt.Differ why ->
         fail budget
           (Printf.sprintf "preserving mutation %s (%s) changed semantics: %s"
              (Mutate.kind_name info.Mutate.mi_kind) info.Mutate.mi_desc why))

let cube_to_test (cube : Sat.Satgen.cube) =
  { Atpg.Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
    p_loads = cube.Sat.Satgen.tc_loads }

let test_detects budget c fault test =
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = [] } in
  (Atpg.Fsim.run ~budget c ~observe ~faults:[ fault ] [ test ]).(0)

(* PODEM vs SAT verdict agreement at unrolling depth 1 (where both
   classifications are comparable), plus fault-simulator confirmation of
   every claimed test.  The matrix mirrors test_sat's [engines_agree]:
   an abort on one side defers to the other side's verdict. *)
let check_podem_sat cfg budget ast ~top =
  let c = Gen.circuit_of ast ~top in
  let faults = take cfg.dc_max_faults (Atpg.Fault.collapse c (Atpg.Fault.all c)) in
  let pcfg =
    { Atpg.Podem.frames = 1; backtrack_limit = 5000; piers = []; seed = 1 }
  in
  let disagreement f =
    Engine.Budget.guard ~site:"gen_rtl.diff.podem_sat" budget;
    let p = Atpg.Podem.run ~budget c pcfg f in
    let s, _ =
      Sat.Satgen.run ~max_frames:1 ~conflict_limit:20000 ~budget c
        ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck
    in
    let name () = Atpg.Fault.to_string c f in
    match (p, s) with
    | (Atpg.Podem.Detected t, Sat.Satgen.Cube cube) ->
      if not (test_detects budget c f t) then
        Some (Printf.sprintf "%s: PODEM test does not detect under fsim"
                (name ()))
      else if not (test_detects budget c f (cube_to_test cube)) then
        Some (Printf.sprintf "%s: SAT cube does not detect under fsim"
                (name ()))
      else None
    | (Atpg.Podem.Detected t, Sat.Satgen.Gave_up) ->
      if test_detects budget c f t then None
      else
        Some (Printf.sprintf "%s: PODEM test does not detect under fsim"
                (name ()))
    | (Atpg.Podem.Detected _, Sat.Satgen.Untestable _) ->
      Some (Printf.sprintf "%s: PODEM detected, SAT proved untestable"
              (name ()))
    | (Atpg.Podem.Exhausted, Sat.Satgen.Untestable _) -> None
    | (Atpg.Podem.Exhausted, Sat.Satgen.Cube cube) ->
      if not (test_detects budget c f (cube_to_test cube)) then
        Some (Printf.sprintf "%s: SAT cube does not detect under fsim"
                (name ()))
      else if Netlist.num_ffs c = 0 then
        (* both engines are exact on combinational circuits, so a split
           verdict is a bug in one of them *)
        Some (Printf.sprintf
                "%s: PODEM exhausted, SAT found a confirmed test" (name ()))
      else
        (* with frame-0 flip-flops at X, PODEM's single-circuit 5-valued
           D-calculus is pessimistic (a fault effect on a control path
           yields good=0/faulty=X, unrepresentable, even when the X is
           structurally masked downstream); the SAT miter evaluates two
           3-valued copies exactly and can legitimately find a test PODEM
           cannot certify — the reason hybrid mode exists *)
        None
    | (Atpg.Podem.Exhausted, Sat.Satgen.Gave_up) -> None
    | (Atpg.Podem.Aborted, Sat.Satgen.Cube cube) ->
      if test_detects budget c f (cube_to_test cube) then None
      else
        Some (Printf.sprintf "%s: SAT cube does not detect under fsim"
                (name ()))
    | (Atpg.Podem.Aborted, _) -> None
  in
  match List.find_map disagreement faults with
  | None -> None
  | Some msg -> fail budget msg

let check_fsim_engines cfg budget rng ast ~top =
  let c = Gen.circuit_of ast ~top in
  let piers =
    List.filter (fun i -> i mod 2 = 0) (List.init (Netlist.num_ffs c) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let num_pis = Netlist.num_pis c in
  let tests =
    List.init cfg.dc_fsim_tests (fun _ ->
        let frames = 1 + Random.State.int rng 4 in
        Atpg.Pattern.random ~rng ~num_pis ~frames ~piers)
  in
  let transitions = Atpg.Transition.all c in
  let bridges = Atpg.Bridge.candidates ~rng ~count:64 c in
  let flags engine = Atpg.Fsim.run ~engine ~budget c ~observe ~faults tests in
  let model_flags engine descs =
    Atpg.Fsim.run_descriptors ~engine ~budget c ~observe ~faults:descs tests
  in
  let packed = flags Atpg.Fsim.Packed in
  let reference = flags Atpg.Fsim.Reference in
  let mismatch label name a b =
    let n = ref None in
    Array.iteri
      (fun i fa ->
        if !n = None && fa <> b.(i) then n := Some (label, i, name i))
      a;
    !n
  in
  (* packed vs reference on a non-stuck-at model *)
  let model_mismatch label to_string descriptor population =
    let descs = List.map descriptor population in
    mismatch label
      (fun i -> to_string c (List.nth population i))
      (model_flags Atpg.Fsim.Packed descs)
      (model_flags Atpg.Fsim.Reference descs)
  in
  let stuck_name i = Atpg.Fault.to_string c (List.nth faults i) in
  let first_mismatch =
    List.find_map
      (fun check -> check ())
      [ (fun () -> mismatch "packed-vs-reference" stuck_name packed reference);
        (fun () ->
          model_mismatch "transition packed-vs-reference"
            Atpg.Transition.to_string Atpg.Transition.descriptor transitions);
        (fun () ->
          model_mismatch "bridge packed-vs-reference" Atpg.Bridge.to_string
            Atpg.Bridge.descriptor bridges) ]
  in
  match first_mismatch with
  | None -> None
  | Some (label, i, name) ->
    fail budget
      (Printf.sprintf "fsim engines disagree (%s) on fault %d (%s)" label i
         name)

(* Instance paths of [d] below [top], dot-separated, leaves included. *)
let instance_paths (d : Verilog.Ast.design) ~top =
  let rec walk prefix mname acc =
    match Verilog.Ast.find_module_opt d mname with
    | None -> acc
    | Some m ->
      List.fold_left
        (fun acc item ->
          match item with
          | Verilog.Ast.I_instance i ->
            let path =
              if prefix = "" then i.Verilog.Ast.inst_name
              else prefix ^ "." ^ i.Verilog.Ast.inst_name
            in
            walk path i.Verilog.Ast.inst_module (path :: acc)
          | _ -> acc)
        acc m.Verilog.Ast.mod_items
  in
  List.sort compare (walk "" top [])

let dot_depth p =
  String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 p

(* A pure-data image of one extraction for cross-mode comparison. *)
let transform_view env stats ~mut_path =
  let tf = Factor.Transform.build env stats.Factor.Compose.cs_slice ~mut_path in
  ( tf.Factor.Transform.tf_pi_bits,
    tf.Factor.Transform.tf_po_bits,
    tf.Factor.Transform.tf_surrounding_gates,
    tf.Factor.Transform.tf_circuit )

let check_extract_modes budget rng ast ~top =
  match instance_paths ast ~top with
  | [] -> None
  | paths ->
    let env = Factor.Compose.make_env ~budget ast ~top in
    let level1 = take 2 (List.filter (fun p -> dot_depth p = 0) paths) in
    let conv_vs_comp mut_path =
      Engine.Budget.guard ~site:"gen_rtl.diff.extract" budget;
      let conv = Factor.Compose.conventional ~budget env ~mut_path in
      let session = Factor.Compose.create_session () in
      let comp = Factor.Compose.compositional ~budget session env ~mut_path in
      let (pi_a, po_a, sg_a, c_a) = transform_view env conv ~mut_path in
      let (pi_b, po_b, sg_b, c_b) = transform_view env comp ~mut_path in
      (* the contract between the flows (and the paper's point): input
         pins agree pin for pin, and the per-level compositional view is
         never LARGER than the coarse whole-design pass — it may observe
         fewer outputs and keep fewer surrounding gates, which is the
         size win Tables 2/5 measure, so exact equality is not required *)
      if pi_a <> pi_b || po_b > po_a || sg_b > sg_a then
        fail budget
          (Printf.sprintf
             "%s: conventional (%d/%d pins, %d gates) vs compositional \
              (%d/%d pins, %d gates)"
             mut_path pi_a po_a sg_a pi_b po_b sg_b)
      else if po_a <> po_b || sg_a <> sg_b then
        (* different interfaces: the views are incomparable as circuits *)
        None
      else
        match Synth.Opt.equivalent ~rounds:24 ~cycles:6 ~rng c_a c_b with
        | Synth.Opt.Equal -> None
        | Synth.Opt.Differ why ->
          fail budget
            (Printf.sprintf
               "%s: conventional and compositional transforms differ: %s"
               mut_path why)
    in
    let deepest_deterministic () =
      let mut_path =
        List.fold_left
          (fun best p ->
            if dot_depth p > dot_depth best then p else best)
          (List.hd paths) paths
      in
      Engine.Budget.guard ~site:"gen_rtl.diff.extract" budget;
      let once () =
        let session = Factor.Compose.create_session () in
        let stats = Factor.Compose.compositional ~budget session env ~mut_path in
        let (pi, po, sg, _) = transform_view env stats ~mut_path in
        ( Factor.Slice.cardinal stats.Factor.Compose.cs_slice,
          Factor.Slice.modules stats.Factor.Compose.cs_slice,
          stats.Factor.Compose.cs_stages,
          stats.Factor.Compose.cs_reached_pi,
          stats.Factor.Compose.cs_reached_po,
          pi, po, sg )
      in
      if once () = once () then None
      else
        fail budget
          (Printf.sprintf "%s: two cold compositional extractions disagree"
             mut_path)
    in
    (match List.find_map conv_vs_comp level1 with
     | Some d -> Some d
     | None -> deepest_deterministic ())

let check_jobs cfg budget rng ast ~top =
  let c = Gen.circuit_of ast ~top in
  let faults = take 16 (Atpg.Fault.collapse c (Atpg.Fault.all c)) in
  (* Trimmed hard: the point is bit-identity across job counts, not
     coverage, and budgets must never bind (a binding budget is allowed
     to make -j 1 and -j N legitimately diverge). *)
  let gcfg =
    { Atpg.Gen.default_config with
      g_backtrack_limit = 100;
      g_max_frames = 2;
      g_restarts = 1;
      g_random_sequences = 4;
      g_random_batches = 1;
      g_random_length = 2;
      g_fault_budget = 1e9;
      g_total_budget = 1e9;
      g_simgen_fallback = false;
      g_sat_conflicts = 2000;
      g_seed = Random.State.int rng 10000 }
  in
  let run jobs =
    let r = Atpg.Gen.run ~budget c { gcfg with g_jobs = jobs } faults in
    ( r.Atpg.Gen.r_detected, r.Atpg.Gen.r_untestable, r.Atpg.Gen.r_aborted,
      r.Atpg.Gen.r_budget_skipped, r.Atpg.Gen.r_tests,
      r.Atpg.Gen.r_outcomes )
  in
  let r1 = run 1 in
  let rn = run cfg.dc_jobs in
  if r1 <> rn then
    fail budget
      (Printf.sprintf "ATPG at -j 1 and -j %d produced different results"
         cfg.dc_jobs)
  else
    (* Sharded fault simulation against the serial engine, reusing the
       deterministic ATPG tests as stimulus. *)
    let (_, _, _, _, tests, _) = r1 in
    let observe = Atpg.Fsim.default_observe in
    let serial = Atpg.Fsim.run ~budget c ~observe ~faults tests in
    let sharded =
      Atpg.Fsim.run ~budget ~jobs:cfg.dc_jobs c ~observe ~faults tests
    in
    if serial = sharded then None
    else
      fail budget
        (Printf.sprintf "sharded fsim (-j %d) flags differ from serial"
           cfg.dc_jobs)

let check_fails cfg ~budget ~seed check ast ~top =
  let rng = check_rng ~seed check in
  match check with
  | Roundtrip -> check_roundtrip budget ast
  | Opt_ec -> check_opt_ec budget rng ast ~top
  | Mutate_ec -> check_mutate_ec budget rng ast ~top
  | Podem_sat -> check_podem_sat cfg budget ast ~top
  | Fsim_engines -> check_fsim_engines cfg budget rng ast ~top
  | Extract_modes -> check_extract_modes budget rng ast ~top
  | Jobs -> check_jobs cfg budget rng ast ~top

let check_design cfg ~budget ~seed ast ~top =
  List.filter_map
    (fun chk ->
      Engine.Budget.guard ~site:"gen_rtl.diff.check" budget;
      match check_fails cfg ~budget ~seed chk ast ~top with
      | Some detail -> Some (chk, detail)
      | None -> None)
    cfg.dc_checks

(* ------------------------------------------------------------------ *)
(* Seeds and campaigns.                                                *)
(* ------------------------------------------------------------------ *)

type seed_outcome =
  | Seed_ok
  | Seed_failed of failure list
  | Seed_crashed of string

let shrink_failure cfg ~budget ~seed ~top ast (chk, detail) =
  let one = { cfg with dc_checks = [ chk ] } in
  let fails ast' =
    match check_design one ~budget ~seed ast' ~top with
    | [] -> false
    | _ :: _ -> true
  in
  let shrunk = Shrink.run ~fails ast ~top in
  { fl_seed = seed;
    fl_check = chk;
    fl_detail = detail;
    fl_top = top;
    fl_design = shrunk;
    fl_lines = Shrink.size shrunk }

let run_seed ?(budget = Engine.Budget.none) cfg seed =
  try
    let b = Engine.Budget.sub ~deadline_in:cfg.dc_seed_budget budget in
    if Engine.Chaos.active () then
      Engine.Chaos.point ("gen_rtl.seed:" ^ string_of_int seed);
    let d = Gen.generate ~seed () in
    match check_design cfg ~budget:b ~seed d.Gen.d_ast ~top:d.Gen.d_top with
    | [] -> Seed_ok
    | fails ->
      Seed_failed
        (List.map
           (shrink_failure cfg ~budget:b ~seed ~top:d.Gen.d_top d.Gen.d_ast)
           fails)
  with e -> Seed_crashed (Printexc.to_string e)

let repro_env ~seed =
  let ev name =
    match Sys.getenv_opt name with
    | Some v -> Printf.sprintf "%s=%s" name v
    | None -> Printf.sprintf "%s=unset" name
  in
  Printf.sprintf "FACTOR_SEED=%d %s %s" seed (ev "FACTOR_CHAOS")
    (ev "FACTOR_JOBS")

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_corpus ~dir fl =
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "seed%d_%s.v" fl.fl_seed (check_name fl.fl_check))
  in
  let oc = open_out file in
  Printf.fprintf oc
    "// gen_rtl differential reproducer (shrunk)\n\
     // check:  %s\n\
     // detail: %s\n\
     // top:    %s\n\
     // replay: %s\n%s"
    (check_name fl.fl_check) fl.fl_detail fl.fl_top
    (repro_env ~seed:fl.fl_seed)
    (Shrink.render fl.fl_design);
  close_out oc;
  file

let m_seeds = Obs.Metrics.counter "factor.fuzz.seeds"
let m_failures = Obs.Metrics.counter "factor.fuzz.failures"
let m_crashes = Obs.Metrics.counter "factor.fuzz.crashes"

let campaign ?(budget = Engine.Budget.none) ?corpus cfg ~base ~count =
  let t0 = Engine.Clock.now () in
  let seeds = List.init count (fun i -> base + i) in
  let prog = Obs.Progress.start ~total:count "fuzz.seeds" in
  let outcomes =
    Engine.Pool.run_all (Engine.Pool.global ())
      (List.map
         (fun s () ->
           let o = (s, run_seed ~budget cfg s) in
           Obs.Progress.step prog;
           o)
         seeds)
  in
  Obs.Progress.finish prog;
  let failures = ref [] and crashes = ref [] in
  List.iter
    (fun (seed, outcome) ->
      Obs.Metrics.incr m_seeds;
      match outcome with
      | Seed_ok -> ()
      | Seed_failed fls ->
        List.iter
          (fun fl ->
            Obs.Metrics.incr m_failures;
            Printf.eprintf "gen_rtl: FAIL %s seed=%d — replay: %s\n%!"
              (check_name fl.fl_check) seed (repro_env ~seed);
            (match corpus with
             | Some dir ->
               let file = write_corpus ~dir fl in
               Printf.eprintf "gen_rtl: reproducer written to %s\n%!" file
             | None -> ());
            failures := fl :: !failures)
          fls
      | Seed_crashed msg ->
        Obs.Metrics.incr m_crashes;
        Printf.eprintf "gen_rtl: CRASH seed=%d (%s) — replay: %s\n%!" seed msg
          (repro_env ~seed);
        crashes := (seed, msg) :: !crashes)
    outcomes;
  { rp_base = base;
    rp_count = count;
    rp_checks = cfg.dc_checks;
    rp_failures = List.rev !failures;
    rp_crashes = List.rev !crashes;
    rp_wall = Engine.Clock.now () -. t0 }

let render rp =
  let b = Buffer.create 1024 in
  Buffer.add_string b "gen_rtl differential campaign\n";
  Buffer.add_string b
    (Printf.sprintf "seeds: %d..%d (%d)\n" rp.rp_base
       (rp.rp_base + rp.rp_count - 1) rp.rp_count);
  Buffer.add_string b
    (Printf.sprintf "checks: %s\n"
       (String.concat " " (List.map check_name rp.rp_checks)));
  List.iter
    (fun fl ->
      Buffer.add_string b
        (Printf.sprintf "FAIL seed=%d check=%s lines=%d %s\n" fl.fl_seed
           (check_name fl.fl_check) fl.fl_lines fl.fl_detail))
    rp.rp_failures;
  List.iter
    (fun (seed, msg) ->
      Buffer.add_string b (Printf.sprintf "CRASH seed=%d %s\n" seed msg))
    rp.rp_crashes;
  let nf = List.length rp.rp_failures and nc = List.length rp.rp_crashes in
  Buffer.add_string b
    (if nf = 0 && nc = 0 then "verdict: OK\n"
     else Printf.sprintf "verdict: FAIL (%d failures, %d crashes)\n" nf nc);
  Buffer.contents b
