(** Paper reproduction and correctness gates: regenerates every table of
    the paper's evaluation (Tables 1-6), the Section 4.2 testability
    report and the ablation studies called out in DESIGN.md, and runs the
    [*_smoke] gates CI relies on (each exits 1 when its property fails).
    Every target prints to stdout; [--metrics FILE] dumps the process's
    counters and [--trace FILE] a Chrome trace.  Performance is measured
    by the repo benchmark in perfbench/, not here.

    Usage: [bench/main.exe [table1|table2|table3|table4|table5|table6|
                            testability|translate|generality|variance|
                            scan|bridging|ablations|fsim|fsim_smoke|
                            sat|sat_smoke|par|par_smoke|chaos_smoke|
                            fuzz_smoke|serve_smoke|progress_smoke|all]
                           [-j N] [--seed S] [--trace FILE]
                           [--metrics FILE]]. *)

module Flow = Factor.Flow
module T = Report.Table

(* [-j N] sizes the domain pool for the [par] targets; [--seed S] seeds
   every randomized workload so a failure can be replayed exactly. *)
let jobs_ref = ref (Engine.Pool.default_jobs ())
let default_seed = 42
let seed_ref = ref default_seed

(* ------------------------------------------------------------------ *)
(* Shared context.                                                     *)
(* ------------------------------------------------------------------ *)

let env = lazy (Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top)
let full = lazy (Flow.full_circuit (Lazy.force env))

(* Snapshot of the process-wide metrics registry, pool telemetry
   included: what [--metrics FILE] writes. *)
let metrics_json () =
  (match Engine.Pool.global_stats () with
   | Some _ -> Engine.Pool.publish_metrics (Engine.Pool.global ())
   | None -> ());
  Obs.Metrics.dump_string ()

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = Engine.Clock.now () in
  let r = f () in
  (r, Engine.Clock.now () -. t0)

(* ATPG configuration used on stand-alone and transformed modules. *)
let module_cfg =
  { Atpg.Gen.default_config with
    g_max_frames = 4;
    g_backtrack_limit = 600;
    g_restarts = 3;
    g_fault_budget = 2.0;
    g_total_budget = 300.0;
    g_random_length = 8;
    g_random_batches = 24;
    (* the historical engine: the baseline and extension experiments
       keep it so their figures stay comparable across reports; the
       engine study itself is Tables 5/6 and `bench sat` below *)
    g_engine = Atpg.Gen.Podem_only }

(* Tables 5/6 run the production hybrid engine: PODEM plus SAT rescue
   of its aborts.  The rescue only ever sees a handful of faults, so it
   can afford a deeper conflict budget than the interactive default —
   exc's lone abort takes 17,485 conflicts to prove untestable
   (3/130/1,658/15,694 at depths 1-4 in the perfbench arm_flow run,
   read from the [sat.depth] events under FACTOR_LOG=debug). *)
let hybrid_cfg =
  { module_cfg with
    g_engine = Atpg.Gen.Hybrid;
    g_sat_conflicts = 50_000 }

(* Raw processor-level runs: same engine, but the circuit is an order of
   magnitude bigger, so the per-fault effort is capped harder (as any
   tool would be configured for a full-chip run). *)
let raw_cfg =
  { module_cfg with
    g_fault_budget = 0.3;
    g_total_budget = 120.0;
    g_random_batches = 4 }

let characteristics =
  lazy
    (List.map
       (fun spec ->
         (spec, Flow.characteristics (Lazy.force env) ~full:(Lazy.force full) spec))
       Arm.Rtl.muts)

(* Transformed modules, built once per mode with a shared session. *)
let transforms mode =
  let session = Factor.Compose.create_session () in
  List.map
    (fun (spec, ch) ->
      (spec,
       Flow.transform (Lazy.force env) session mode spec
         ~surrounding_before:ch.Flow.ch_surrounding_gates))
    (Lazy.force characteristics)

let conventional = lazy (transforms Flow.Conventional)
let compositional = lazy (transforms Flow.Compositional)

(* ------------------------------------------------------------------ *)
(* Tables.                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let rows =
    List.map
      (fun (_, ch) ->
        [ ch.Flow.ch_name;
          string_of_int ch.Flow.ch_level;
          string_of_int ch.Flow.ch_pi_bits;
          string_of_int ch.Flow.ch_po_bits;
          string_of_int ch.Flow.ch_module_gates;
          string_of_int ch.Flow.ch_surrounding_gates;
          string_of_int ch.Flow.ch_faults ])
      (Lazy.force characteristics)
  in
  print_string
    (T.render ~title:"Table 1. Modules in ARM"
       [ T.column ~align:T.Left "Module";
         T.column "Hier. Level";
         T.column "PI bits";
         T.column "PO bits";
         T.column "Gates in Module";
         T.column "Gates in Surrounding";
         T.column "Stuck-at Faults" ]
       rows)

let transform_table ~title txs =
  let rows =
    List.map
      (fun (_, (tr : Flow.transform_row)) ->
        let tf = tr.Flow.tr_transformed in
        [ tr.Flow.tr_name;
          Printf.sprintf "%.4f" tr.Flow.tr_extraction_time;
          Printf.sprintf "%.4f" tf.Factor.Transform.tf_synthesis_time;
          string_of_int tf.Factor.Transform.tf_surrounding_gates;
          T.fpct tr.Flow.tr_reduction_pct;
          string_of_int tf.Factor.Transform.tf_pi_bits;
          string_of_int tf.Factor.Transform.tf_po_bits ])
      txs
  in
  print_string
    (T.render ~title
       [ T.column ~align:T.Left "Module";
         T.column "Extraction (s)";
         T.column "Synthesis (s)";
         T.column "Surrounding Gates";
         T.column "Gate Reduction %";
         T.column "PI bits";
         T.column "PO bits" ]
       rows)

let table2 () =
  transform_table ~title:"Table 2. Transformed Module Without Composition"
    (Lazy.force conventional)

let table3 () =
  transform_table ~title:"Table 3. Transformed Module With Composition"
    (Lazy.force compositional);
  let hits =
    List.fold_left
      (fun acc (_, tr) ->
        acc + tr.Flow.tr_stats.Factor.Compose.cs_cache_hits)
      0 (Lazy.force compositional)
  in
  Printf.printf
    "(constraint cache: %d level reuses across the four modules)\n" hits

let table4 () =
  let rows =
    List.map
      (fun (spec, _) ->
        let raw = Flow.processor_atpg ~full:(Lazy.force full) spec raw_cfg in
        let sa = Flow.standalone_atpg (Lazy.force env) spec module_cfg in
        [ spec.Flow.ms_name;
          T.fpct raw.Flow.ar_coverage;
          T.fsec raw.Flow.ar_result.Atpg.Gen.r_time;
          T.fpct sa.Flow.ar_coverage;
          T.fsec sa.Flow.ar_result.Atpg.Gen.r_time ])
      (Lazy.force characteristics)
  in
  print_string
    (T.render ~title:"Table 4. Raw Test Generation"
       [ T.column ~align:T.Left "Module";
         T.column "Proc. Lvl Cov. %";
         T.column "Proc. Lvl Time (s)";
         T.column "Std-Alone Cov. %";
         T.column "Std-Alone Time (s)" ]
       rows)

let atpg_table ~title txs =
  let rows =
    List.map
      (fun (_, (tr : Flow.transform_row)) ->
        let a = Flow.transformed_atpg tr hybrid_cfg in
        [ a.Flow.ar_name;
          T.fpct a.Flow.ar_coverage;
          T.fpct a.Flow.ar_effectiveness;
          T.fsec a.Flow.ar_result.Atpg.Gen.r_time;
          T.fsec a.Flow.ar_total_time ])
      txs
  in
  print_string
    (T.render ~title
       [ T.column ~align:T.Left "Module";
         T.column "Fault Cov. %";
         T.column "ATPG Eff. %";
         T.column "Test Gen. Time (s)";
         T.column "Total Time (s)" ]
       rows)

let table5 () =
  atpg_table ~title:"Table 5. Test Gen. Without Composition"
    (Lazy.force conventional)

let table6 () =
  atpg_table ~title:"Table 6. Test Gen. With Composition"
    (Lazy.force compositional)

(* ------------------------------------------------------------------ *)
(* Testability report (Section 4.2).                                   *)
(* ------------------------------------------------------------------ *)

let testability () =
  let session = Factor.Compose.create_session () in
  List.iter
    (fun spec ->
      let stats =
        Factor.Compose.compositional session (Lazy.force env)
          ~mut_path:spec.Flow.ms_path
      in
      let report =
        Factor.Testability.analyze (Lazy.force env) ~mut_path:spec.Flow.ms_path
          ~dead_ends:stats.Factor.Compose.cs_dead_ends
      in
      print_string (Factor.Testability.report_to_string report))
    Arm.Rtl.muts

(* ------------------------------------------------------------------ *)
(* Extension: generality — the whole flow on a second processor.        *)
(* ------------------------------------------------------------------ *)

(* Raw vs transformed test generation for every module under test of the
   mcu8 benchmark (an accumulator machine with a memory-based register
   file, casez decoding and a hardware call stack). *)
let generality () =
  let entry = Circuits.Collection.mcu8 in
  let genv =
    Factor.Compose.make_env
      (Verilog.Parser.parse_design entry.Circuits.Collection.e_source)
      ~top:entry.Circuits.Collection.e_top
  in
  let gfull = Flow.full_circuit genv in
  let session = Factor.Compose.create_session () in
  let cfg = { module_cfg with Atpg.Gen.g_max_frames = 8 } in
  let raw = { cfg with Atpg.Gen.g_fault_budget = 0.3; g_total_budget = 60.0;
              g_random_batches = 4 } in
  let rows =
    List.map
      (fun spec ->
        let ch = Flow.characteristics genv ~full:gfull spec in
        let r = Flow.processor_atpg ~full:gfull spec raw in
        let tr =
          Flow.transform genv session Flow.Compositional spec
            ~surrounding_before:ch.Flow.ch_surrounding_gates
        in
        let a = Flow.transformed_atpg tr cfg in
        [ spec.Flow.ms_name;
          string_of_int ch.Flow.ch_module_gates;
          T.fpct r.Flow.ar_coverage;
          T.fpct a.Flow.ar_coverage;
          T.fsec a.Flow.ar_total_time ])
      entry.Circuits.Collection.e_muts
  in
  print_string
    (T.render
       ~title:"Extension. Generality: the flow on the mcu8 benchmark"
       [ T.column ~align:T.Left "Module";
         T.column "Gates";
         T.column "Raw Cov. %";
         T.column "Transformed Cov. %";
         T.column "Total Time (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5).                                    *)
(* ------------------------------------------------------------------ *)

(* Leaf statements covered by a slice: a whole-item site counts every
   assignment below it, a leaf site counts one. *)
let slice_leaves ed slice =
  let rec stmt_leaves = function
    | Verilog.Ast.S_blocking _ | Verilog.Ast.S_nonblocking _ -> 1
    | Verilog.Ast.S_if (_, t, f) -> stmts_leaves t + stmts_leaves f
    | Verilog.Ast.S_case (_, _, arms) ->
      List.fold_left
        (fun acc arm -> acc + stmts_leaves arm.Verilog.Ast.arm_body)
        0 arms
    | Verilog.Ast.S_for f -> stmts_leaves f.Verilog.Ast.for_body
  and stmts_leaves l = List.fold_left (fun acc s -> acc + stmt_leaves s) 0 l in
  List.fold_left
    (fun acc name ->
      let em = Design.Elaborate.find_emodule ed name in
      Design.Chains.Site_set.fold
        (fun site acc ->
          match em.Design.Elaborate.em_items.(site.Design.Chains.st_item) with
          | Design.Elaborate.EI_always (_, body)
            when site.Design.Chains.st_path = [] ->
            acc + stmts_leaves body
          | _ -> acc + 1)
        (Factor.Slice.sites_of slice name)
        acc)
    0 (Factor.Slice.modules slice)

let ablation_granularity () =
  (* slice granularity: statement-level vs block-level extraction *)
  let e = Lazy.force env in
  let rows =
    List.map
      (fun spec ->
        let node =
          Design.Hierarchy.find_path e.Factor.Compose.tree spec.Flow.ms_path
        in
        let em =
          Design.Elaborate.find_emodule e.Factor.Compose.ed
            node.Design.Hierarchy.nd_module
        in
        let run granularity =
          Factor.Extract.run ~ed:e.Factor.Compose.ed
            ~tree:e.Factor.Compose.tree ~chains:e.Factor.Compose.chains
            ~stop:e.Factor.Compose.tree ~granularity ~node
            ~sources:(Design.Elaborate.inputs_of em)
            ~props:(Design.Elaborate.outputs_of em) ()
        in
        let fine = run Factor.Extract.Fine in
        let coarse = run Factor.Extract.Coarse in
        [ spec.Flow.ms_name;
          string_of_int (slice_leaves e.Factor.Compose.ed fine.Factor.Extract.rs_slice);
          string_of_int (slice_leaves e.Factor.Compose.ed coarse.Factor.Extract.rs_slice) ])
      Arm.Rtl.muts
  in
  print_string
    (T.render ~title:"Ablation A1. Slice granularity (kept leaf statements)"
       [ T.column ~align:T.Left "Module";
         T.column "Statement-level";
         T.column "Block-level" ]
       rows)

let ablation_cache () =
  (* constraint cache: shared session vs cold session per module *)
  let e = Lazy.force env in
  let timed f = snd (timed f) in
  let shared_session = Factor.Compose.create_session () in
  let rows =
    List.map
      (fun spec ->
        let cold =
          timed (fun () ->
              Factor.Compose.compositional
                (Factor.Compose.create_session ())
                e ~mut_path:spec.Flow.ms_path)
        in
        let warm =
          timed (fun () ->
              Factor.Compose.compositional shared_session e
                ~mut_path:spec.Flow.ms_path)
        in
        [ spec.Flow.ms_name;
          Printf.sprintf "%.4f" cold;
          Printf.sprintf "%.4f" warm ])
      Arm.Rtl.muts
  in
  print_string
    (T.render ~title:"Ablation A2. Constraint reuse (extraction seconds)"
       [ T.column ~align:T.Left "Module";
         T.column "Cold cache";
         T.column "Shared session" ]
       rows)

let ablation_piers () =
  (* PIER pseudo ports: coverage with and without *)
  let txs = Lazy.force compositional in
  let cfg = { module_cfg with Atpg.Gen.g_total_budget = 120.0 } in
  let rows =
    List.filter_map
      (fun (spec, (tr : Flow.transform_row)) ->
        if spec.Flow.ms_name <> "regfile_struct"
           && spec.Flow.ms_name <> "forward"
        then None
        else begin
          let (c, faults, piers) = Flow.transformed_target tr in
          let with_piers =
            Atpg.Gen.run c { cfg with Atpg.Gen.g_piers = piers } faults
          in
          let without =
            Atpg.Gen.run c { cfg with Atpg.Gen.g_piers = [] } faults
          in
          Some
            [ spec.Flow.ms_name;
              T.fpct with_piers.Atpg.Gen.r_coverage;
              T.fpct without.Atpg.Gen.r_coverage ]
        end)
      txs
  in
  print_string
    (T.render ~title:"Ablation A3. PIER pseudo ports (fault coverage %)"
       [ T.column ~align:T.Left "Module";
         T.column "With PIERs";
         T.column "Without PIERs" ]
       rows)

let ablation_random_phase () =
  (* the saturating random phase vs deterministic-only generation *)
  let txs = Lazy.force compositional in
  let rows =
    List.filter_map
      (fun (spec, (tr : Flow.transform_row)) ->
        if spec.Flow.ms_name <> "forward" && spec.Flow.ms_name <> "exc" then
          None
        else begin
          let (c, faults, piers) = Flow.transformed_target tr in
          (* the simulation-based rescue is disabled in both columns so
             the random phase's own contribution is isolated *)
          let with_random =
            Atpg.Gen.run c
              { module_cfg with
                Atpg.Gen.g_piers = piers;
                g_simgen_fallback = false }
              faults
          in
          let without =
            Atpg.Gen.run c
              { module_cfg with
                Atpg.Gen.g_piers = piers;
                g_random_batches = 0;
                g_simgen_fallback = false }
              faults
          in
          Some
            [ spec.Flow.ms_name;
              Printf.sprintf "%s / %s"
                (T.fpct with_random.Atpg.Gen.r_coverage)
                (T.fsec with_random.Atpg.Gen.r_time);
              Printf.sprintf "%s / %s"
                (T.fpct without.Atpg.Gen.r_coverage)
                (T.fsec without.Atpg.Gen.r_time) ]
        end)
      txs
  in
  print_string
    (T.render ~title:"Ablation A4. Random phase (coverage % / seconds)"
       [ T.column ~align:T.Left "Module";
         T.column "Random + PODEM";
         T.column "PODEM only" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Extension: chip-level pattern translation and compaction.           *)
(* ------------------------------------------------------------------ *)

(* The paper's final step: "the patterns obtained are later translated
   back to the chip level".  We translate each compositional
   transformed-module test set to chip pins/registers, statically compact
   it, and fault-simulate it on the full processor to confirm the
   detection carries over. *)
let translate () =
  let chip = Lazy.force full in
  let chip_piers = Factor.Pier.identify chip in
  let rows =
    List.map
      (fun (spec, (tr : Flow.transform_row)) ->
        let tfc = tr.Flow.tr_transformed.Factor.Transform.tf_circuit in
        let atpg = Flow.transformed_atpg tr module_cfg in
        let tests = atpg.Flow.ar_result.Atpg.Gen.r_tests in
        let translated =
          Factor.Translate.translate_all ~chip ~transformed:tfc tests
        in
        let faults =
          Atpg.Fault.collapse chip
            (Atpg.Fault.all ~within:spec.Flow.ms_path chip)
        in
        let compacted =
          Atpg.Compact.run chip
            ~observe:{ Atpg.Fsim.ob_pos = true; ob_pier_ffs = chip_piers }
            ~faults translated
        in
        let v =
          Factor.Translate.validate ~chip ~mut_path:spec.Flow.ms_path
            ~piers:chip_piers compacted.Atpg.Compact.cp_tests
        in
        [ spec.Flow.ms_name;
          T.fpct atpg.Flow.ar_coverage;
          T.fpct v.Factor.Translate.va_coverage;
          Printf.sprintf "%d -> %d" compacted.Atpg.Compact.cp_vectors_before
            compacted.Atpg.Compact.cp_vectors_after ])
      (Lazy.force compositional)
  in
  print_string
    (T.render
       ~title:
         "Extension. Chip-level translation of the composed test sets"
       [ T.column ~align:T.Left "Module";
         T.column "Transformed Cov. %";
         T.column "Chip-level Cov. %";
         T.column "Vectors (compacted)" ]
       rows)

let ablation_engines () =
  (* PODEM time-frame search vs the simulation-based generator *)
  let txs = Lazy.force compositional in
  let rows =
    List.filter_map
      (fun (spec, (tr : Flow.transform_row)) ->
        if spec.Flow.ms_name <> "forward" && spec.Flow.ms_name <> "exc" then
          None
        else begin
          let (c, faults, piers) = Flow.transformed_target tr in
          let podem =
            Atpg.Gen.run c
              { module_cfg with
                Atpg.Gen.g_piers = piers;
                g_random_batches = 0;
                g_simgen_fallback = false }
              faults
          in
          let simulation =
            Atpg.Simgen.campaign c
              { Atpg.Simgen.default_config with sg_piers = piers }
              faults
          in
          Some
            [ spec.Flow.ms_name;
              Printf.sprintf "%s / %s" (T.fpct podem.Atpg.Gen.r_coverage)
                (T.fsec podem.Atpg.Gen.r_time);
              Printf.sprintf "%s / %s"
                (T.fpct simulation.Atpg.Simgen.sr_coverage)
                (T.fsec simulation.Atpg.Simgen.sr_time) ]
        end)
      txs
  in
  print_string
    (T.render
       ~title:
         "Ablation A5. Deterministic vs simulation-based engines (cov % / s)"
       [ T.column ~align:T.Left "Module";
         T.column "PODEM (TFE)";
         T.column "Simulation-based" ]
       rows)

let ablations () =
  ablation_granularity ();
  ablation_cache ();
  ablation_piers ();
  ablation_random_phase ();
  ablation_engines ()

(* ------------------------------------------------------------------ *)
(* Extension: bridging-defect coverage of the stuck-at test sets.      *)
(* ------------------------------------------------------------------ *)

(* The paper's motivation: at-speed functional tests catch real defects
   (shorts, delays) well.  Measure each composed test set against a
   random bridging population and the transition-fault universe inside
   its module under test. *)
let bridging () =
  let txs = Lazy.force compositional in
  let rows =
    List.map
      (fun (spec, (tr : Flow.transform_row)) ->
        let (c, _, piers) = Flow.transformed_target tr in
        let mut = tr.Flow.tr_transformed.Factor.Transform.tf_mut_path in
        let a = Flow.transformed_atpg tr module_cfg in
        let tests = a.Flow.ar_result.Atpg.Gen.r_tests in
        let rng = Random.State.make [| 17 |] in
        let bridges = Atpg.Bridge.candidates ~within:mut ~rng ~count:100 c in
        let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
        let bridge_cov = Atpg.Bridge.coverage c ~observe ~bridges tests in
        let transition_cov =
          Atpg.Transition.coverage c ~observe
            ~faults:(Atpg.Transition.all ~within:mut c) tests
        in
        [ spec.Flow.ms_name;
          T.fpct a.Flow.ar_coverage;
          T.fpct bridge_cov;
          T.fpct transition_cov ])
      txs
  in
  print_string
    (T.render
       ~title:
         "Extension. Defect-class coverage of the composed stuck-at tests"
       [ T.column ~align:T.Left "Module";
         T.column "Stuck-at Cov. %";
         T.column "Bridging Cov. %";
         T.column "Transition Cov. %" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Extension: full scan vs FACTOR functional tests.                    *)
(* ------------------------------------------------------------------ *)

(* The paper's motivation quotes Maxwell & Aitken: functional patterns
   with lower stuck-at coverage predict defect levels better than scan
   patterns with higher coverage, and scan carries area overhead.  Here:
   full-scan ATPG (every flip-flop a pseudo port, one time frame) vs the
   FACTOR flow, with the scan area overhead made explicit (one mux per
   scanned flip-flop). *)
let scan_vs_functional () =
  let txs = Lazy.force compositional in
  let rows =
    List.map
      (fun (spec, (tr : Flow.transform_row)) ->
        let (c, faults, _) = Flow.transformed_target tr in
        (* full scan: every flip-flop is load/observe accessible *)
        let all_ffs = List.init (Netlist.num_ffs c) Fun.id in
        let scan =
          Atpg.Gen.run c
            { module_cfg with
              Atpg.Gen.g_piers = all_ffs;
              g_max_frames = 1 }
            faults
        in
        let functional = Flow.transformed_atpg tr module_cfg in
        let scan_overhead = 3 * Netlist.num_ffs c in
        let st = Netlist.stats c in
        [ spec.Flow.ms_name;
          T.fpct
            (100.0
             *. float_of_int scan.Atpg.Gen.r_detected
             /. float_of_int (max 1 tr.Flow.tr_standalone_faults));
          T.fpct functional.Flow.ar_coverage;
          Printf.sprintf "+%d GE (%.1f%%)" scan_overhead
            (100.0 *. float_of_int scan_overhead
             /. float_of_int (Netlist.gate_equivalents st)) ])
      txs
  in
  print_string
    (T.render
       ~title:
         "Extension. Full-scan vs FACTOR functional tests (transformed modules)"
       [ T.column ~align:T.Left "Module";
         T.column "Scan Cov. %";
         T.column "Functional Cov. %";
         T.column "Scan Area Overhead" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Seed variance of the ATPG rows.                                     *)
(* ------------------------------------------------------------------ *)

(* Tables 5/6 coverage on abort-prone modules varies a little across RNG
   seeds; this quantifies the spread so EXPERIMENTS.md can report it. *)
let variance () =
  let txs = Lazy.force compositional in
  let rows =
    List.filter_map
      (fun (spec, (tr : Flow.transform_row)) ->
        if spec.Flow.ms_name <> "forward" && spec.Flow.ms_name <> "exc" then
          None
        else begin
          let runs =
            List.map
              (fun seed ->
                let a =
                  Flow.transformed_atpg tr
                    { module_cfg with Atpg.Gen.g_seed = seed }
                in
                (a.Flow.ar_coverage, a.Flow.ar_result.Atpg.Gen.r_time))
              [ 1; 7; 23 ]
          in
          let covs = List.map fst runs and times = List.map snd runs in
          let mean xs =
            List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
          in
          Some
            [ spec.Flow.ms_name;
              Printf.sprintf "%.1f (%.1f-%.1f)" (mean covs)
                (List.fold_left min infinity covs)
                (List.fold_left max neg_infinity covs);
              Printf.sprintf "%.1f (%.1f-%.1f)" (mean times)
                (List.fold_left min infinity times)
                (List.fold_left max neg_infinity times) ]
        end)
      txs
  in
  print_string
    (T.render ~title:"Seed variance over 3 ATPG seeds (mean (min-max))"
       [ T.column ~align:T.Left "Module";
         T.column "Coverage %";
         T.column "Time (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Fault-simulation engine benchmark.                                  *)
(* ------------------------------------------------------------------ *)

(* The packed engine and the reference oracle on the same fault list and
   test set: identical detection flags required; per-engine wall clock
   and net-evaluation counts (each engine owns its registry counter, so
   the deltas are attributable) printed to stdout.  The test count
   defaults to two full packed words of patterns — grading workloads
   batch dozens of patterns, which is exactly where pattern-packing
   pays.  Returns the packed evals, packed words and reference evals, so
   the CI smoke gate can pin them. *)
let bench_fsim_on ~name c ~num_tests =
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let rng = Random.State.make [| !seed_ref |] in
  (* grade under the paper's PIER methodology (loadable/observable
     registers), exactly like [factor grade --piers]: random functional
     sequences with register loads, observation at POs every cycle and
     at the PIERs' final state.  24-cycle sequences model the
     multi-cycle MUT tests the methodology schedules; sequence depth is
     where packing pays, since the reference re-simulates every net per
     test per cycle while the packed engine pays one good sweep per
     word. *)
  let piers = Factor.Pier.identify c in
  let tests =
    List.init num_tests (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:24
          ~piers)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let timed kind evals =
    let e0 = evals () in
    let t0 = Engine.Clock.now () in
    let r = Atpg.Fsim.run ~engine:kind c ~observe ~faults tests in
    (r, Engine.Clock.now () -. t0, evals () - e0)
  in
  let words0 = Atpg.Fsim.packed_words () in
  let (packed_flags, packed_wall, packed_evals) =
    timed Atpg.Fsim.Packed Atpg.Fsim.packed_evals
  in
  let packed_words = Atpg.Fsim.packed_words () - words0 in
  let (ref_flags, ref_wall, ref_evals) =
    timed Atpg.Fsim.Reference Atpg.Fsim.ref_evals
  in
  if packed_flags <> ref_flags then begin
    Printf.eprintf
      "bench fsim: engines disagree on detection flags (replay with --seed %d)\n"
      !seed_ref;
    exit 1
  end;
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let fratio a b = ratio (float_of_int a) (float_of_int b) in
  let detected =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 packed_flags
  in
  Printf.printf
    "fsim bench: %d faults, %d tests on %s (%d nets, %d detected, seed %d)\n"
    (List.length faults) num_tests name (Netlist.num_nets c) detected
    !seed_ref;
  Printf.printf "  packed:       %.3f s, %d net evals (%d words)\n"
    packed_wall packed_evals packed_words;
  Printf.printf "  reference:    %.3f s, %d net evals\n" ref_wall ref_evals;
  Printf.printf "  packed vs reference: %.1fx wall, %.1fx evals\n"
    (ratio ref_wall packed_wall) (fratio ref_evals packed_evals);
  (packed_evals, packed_words, ref_evals)

let bench_fsim () =
  ignore (bench_fsim_on ~name:"arm" (Lazy.force full) ~num_tests:126)

(* Packed and reference flags for the transition universe and a random
   bridge population of [c], graded on random PIER sequences; exits 1 on
   the first model where they differ.  Returns each model's packed
   evals. *)
let check_fault_models ~name c =
  let rng = Random.State.make [| !seed_ref |] in
  let piers = Factor.Pier.identify c in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    List.init 63 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:8
          ~piers)
  in
  let models =
    [ ("transition",
       List.map Atpg.Transition.descriptor (Atpg.Transition.all c));
      ("bridge",
       List.map Atpg.Bridge.descriptor
         (Atpg.Bridge.candidates ~rng ~count:252 c)) ]
  in
  List.map
    (fun (model, faults) ->
      let flags engine =
        Atpg.Fsim.run_descriptors ~engine c ~observe ~faults tests
      in
      let e0 = Atpg.Fsim.packed_evals () in
      let packed = flags Atpg.Fsim.Packed in
      let evals = Atpg.Fsim.packed_evals () - e0 in
      if packed <> flags Atpg.Fsim.Reference then begin
        Printf.eprintf
          "fsim smoke: packed and reference disagree on %s faults of %s \
           (replay with --seed %d)\n"
          model name !seed_ref;
        exit 1
      end;
      Printf.printf "fsim smoke: %s, %d %s faults, %d detected, engines agree\n"
        name (List.length faults) model
        (Array.fold_left (fun n d -> if d then n + 1 else n) 0 packed);
      (model, evals))
    models

(* The ALU's eval counts at the default seed.  Every engine's work is
   deterministic, so a change to how the engines evaluate gates must
   reproduce this line exactly; a change that moves it changes the work
   done, and must say so and re-pin it. *)
let fsim_smoke_alu_evals =
  "packed 24322 (2 words) | reference 1155888 | transition 10629 | \
   bridge 7393"

(* CI gate: on the stand-alone ALU, the packed engine must agree bit for
   bit with the reference oracle on stuck-at, transition and bridge
   faults, every engine's eval count must equal its pin (at the default
   seed), and the packed engine's eval reduction over the reference
   must not fall below a conservative floor (a regression here means
   the packing or dropping logic degraded). *)
let bench_fsim_smoke () =
  let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:"arm_alu" in
  let c =
    (Synth.Lower.lower (Synth.Flatten.flatten ed "arm_alu"))
      .Synth.Lower.circuit
  in
  let (packed, words, reference) =
    bench_fsim_on ~name:"arm_alu" c ~num_tests:126
  in
  let models = check_fault_models ~name:"arm_alu" c in
  let got =
    Printf.sprintf "packed %d (%d words) | reference %d | %s"
      packed words reference
      (String.concat " | "
         (List.map (fun (m, e) -> Printf.sprintf "%s %d" m e) models))
  in
  Printf.printf "  %s\n" got;
  if !seed_ref = default_seed && got <> fsim_smoke_alu_evals then begin
    Printf.eprintf "fsim smoke: the arm_alu eval counts moved: expected %s\n"
      fsim_smoke_alu_evals;
    exit 1
  end;
  let speedup_evals = float_of_int reference /. float_of_int (max 1 packed) in
  let floor = 6.0 in
  if speedup_evals < floor then begin
    Printf.eprintf
      "fsim smoke: packed eval reduction %.2fx below the %.1fx floor \
       (replay with --seed %d)\n"
      speedup_evals floor !seed_ref;
    exit 1
  end;
  Printf.printf "fsim smoke: arm_alu ok, %.1fx eval reduction vs reference\n"
    speedup_evals

(* ------------------------------------------------------------------ *)
(* SAT engine benchmark.                                               *)
(* ------------------------------------------------------------------ *)

(* PODEM alone vs the hybrid engine (PODEM with SAT rescue of aborted
   faults) on the four compositional transformed modules of Tables 5/6.
   Reports the SAT solve time, conflict counts, and how many aborted
   faults the rescue turned into detections or untestability proofs. *)
let bench_sat () =
  List.iter
    (fun (spec, (tr : Flow.transform_row)) ->
      let (c, faults, piers) = Flow.transformed_target tr in
      let run engine =
        Atpg.Gen.run c
          { hybrid_cfg with Atpg.Gen.g_piers = piers; g_engine = engine }
          faults
      in
      let podem = run Atpg.Gen.Podem_only in
      let hybrid = run Atpg.Gen.Hybrid in
      Printf.printf
        "%-16s podem: %d aborted, eff %.1f%% | hybrid: %d aborted, eff \
         %.1f%% (+%d detected, +%d proven untestable by SAT, %.2f s, %d \
         conflicts)\n%!"
        spec.Flow.ms_name podem.Atpg.Gen.r_aborted
        podem.Atpg.Gen.r_effectiveness hybrid.Atpg.Gen.r_aborted
        hybrid.Atpg.Gen.r_effectiveness hybrid.Atpg.Gen.r_sat_detected
        hybrid.Atpg.Gen.r_sat_untestable hybrid.Atpg.Gen.r_sat_time
        hybrid.Atpg.Gen.r_sat_stats.Sat.Solver.s_conflicts)
    (Lazy.force compositional)

(* The sequential half of the SAT smoke: gcd unrolled to 3 frames,
   once with its PIERs (every fault then closes at depth 1) and once
   with none (X initial state: cubes need 2-3 frames and most faults
   are untestable within 3).  PODEM deepens 1..3 frames on the same
   PIERs; where it decides a fault (a test at some depth, or exhausted
   at every depth) SAT must agree, and every SAT cube must detect under
   the fault simulator.  One split is allowed: PODEM's 5-valued
   calculus is pessimistic with frame-0 state at X, so a cube for a
   fault PODEM exhausted stands once the simulator confirms it.
   Returns the summary and the faults failing the check. *)
let sat_smoke_gcd c ~piers =
  let frames = 3 in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let cubes = ref 0 and untestable = ref 0 and gave_up = ref 0 in
  let decided = ref 0 in
  (* PODEM's verdict, deepening as Atpg.Gen does *)
  let podem f =
    let rec deepen d =
      if d > frames then `Exhausted
      else
        let cfg =
          { Atpg.Podem.frames = d; backtrack_limit = 1_000; piers; seed = 1 }
        in
        match Atpg.Podem.run c cfg f with
        | Atpg.Podem.Detected _ -> `Detected
        | Atpg.Podem.Exhausted -> deepen (d + 1)
        | Atpg.Podem.Aborted -> `Undecided
    in
    let p = deepen 1 in
    if p <> `Undecided then incr decided;
    p
  in
  let bad =
    List.filter
      (fun f ->
        let (verdict, _) =
          Sat.Satgen.run c ~max_frames:frames ~piers ~net:f.Atpg.Fault.f_net
            ~stuck:f.Atpg.Fault.f_stuck
        in
        match verdict with
        | Sat.Satgen.Cube cube ->
          incr cubes;
          let t =
            { Atpg.Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
              p_loads = cube.Sat.Satgen.tc_loads }
          in
          not (Atpg.Fsim.run c ~observe ~faults:[ f ] [ t ]).(0)
        | Sat.Satgen.Untestable _ ->
          incr untestable;
          podem f = `Detected
        | Sat.Satgen.Gave_up ->
          incr gave_up;
          podem f <> `Undecided)
      faults
  in
  ( Printf.sprintf
      "%d PIERs: %d cubes, %d untestable (PODEM decides %d), %d gave up"
      (List.length piers) !cubes !untestable !decided !gave_up,
    List.map (Atpg.Fault.to_string c) bad )

(* The ALU miters' summed search statistics.  The solver's search is
   deterministic, so a change to how it stores clauses must reproduce
   this line exactly; a change that moves it changes the search, and
   must say so and re-pin it. *)
let sat_smoke_alu_stats =
  "conflicts 9920 | decisions 77038 | propagations 1350660 | restarts 7 | \
   learned (total) 9787"

(* Fast CI smoke: miter every collapsed fault of the stand-alone ALU and
   require a cube for each (the ALU has no untestable faults) and the
   pinned search statistics, plus one equivalence proof of an optimizer
   rebuild and the sequential gcd agreement check above. *)
let bench_sat_smoke () =
  let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:"arm_alu" in
  let c =
    (Synth.Lower.lower (Synth.Flatten.flatten ed "arm_alu"))
      .Synth.Lower.circuit
  in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let stats = ref Sat.Solver.zero_stats in
  let cubes = ref 0 in
  List.iter
    (fun f ->
      let (verdict, st) =
        Sat.Satgen.run c ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck
      in
      stats := Sat.Solver.add_stats !stats st;
      match verdict with Sat.Satgen.Cube _ -> incr cubes | _ -> ())
    faults;
  Printf.printf "sat smoke: %d/%d arm_alu faults closed with a cube\n" !cubes
    (List.length faults);
  let got = Sat.Solver.stats_to_string !stats in
  Printf.printf "  %s\n" got;
  if !cubes <> List.length faults then begin
    prerr_endline "sat smoke: some faults missed a cube";
    exit 1
  end;
  if got <> sat_smoke_alu_stats then begin
    Printf.eprintf "sat smoke: the arm_alu search moved: expected %s\n"
      sat_smoke_alu_stats;
    exit 1
  end;
  (match Synth.Opt.equivalent_exact c (Synth.Opt.rebuild c) with
   | Synth.Opt.Equal -> print_endline "  rebuild proven equivalent"
   | Synth.Opt.Differ n ->
     Printf.eprintf "sat smoke: rebuild differs on %s\n" n;
     exit 1);
  let e = Circuits.Collection.gcd in
  let gcd =
    Gen_rtl.Gen.circuit_of
      (Verilog.Parser.parse_design e.Circuits.Collection.e_source)
      ~top:e.Circuits.Collection.e_top
  in
  let (with_piers, bad) =
    sat_smoke_gcd gcd ~piers:(Factor.Pier.identify gcd)
  in
  let (without, bad') = sat_smoke_gcd gcd ~piers:[] in
  let bad = bad @ bad' in
  Printf.printf "sat smoke: gcd at 3 frames, %s; %s; %d failed\n" with_piers
    without (List.length bad);
  if bad <> [] then begin
    Printf.eprintf "sat smoke: gcd faults failing the check: %s\n"
      (String.concat ", " bad);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel engine benchmark.                                          *)
(* ------------------------------------------------------------------ *)

(* Everything in an ATPG row except timings: the fields a parallel run
   must reproduce bit for bit. *)
let atpg_row_key (a : Flow.atpg_row) =
  let r = a.Flow.ar_result in
  (a.Flow.ar_name, a.Flow.ar_faults, r.Atpg.Gen.r_vectors,
   a.Flow.ar_coverage, a.Flow.ar_effectiveness,
   r.Atpg.Gen.r_detected, r.Atpg.Gen.r_untestable, r.Atpg.Gen.r_aborted,
   (r.Atpg.Gen.r_sat_detected, r.Atpg.Gen.r_sat_untestable,
    r.Atpg.Gen.r_tests, r.Atpg.Gen.r_outcomes))

(* Serial vs parallel on the two workloads the engine accelerates — the
   MUT-parallel Table 6 flow and the fault-sharded simulator on the full
   ARM.  The parallel results must be identical to the serial ones
   (timings aside); walls, speedups and pool telemetry are printed.
   Budgets are effectively infinite so scheduling can
   never make a per-fault budget bind differently across job counts. *)
let bench_par () =
  let jobs = max 1 !jobs_ref in
  let cfg =
    { hybrid_cfg with Atpg.Gen.g_fault_budget = 1e9; g_total_budget = 1e9 }
  in
  (* regfile_struct needs ~5 CPU-minutes per pass even serially; with the
     uncapped budgets this target requires, running it twice would dominate
     the benchmark, so it is excluded here (the determinism suites in
     test/test_engine.ml and the CI par_smoke gate still cover ATPG
     parallelism; this target measures the flow on the remaining MUTs). *)
  let rows =
    List.filter
      (fun tr -> tr.Flow.tr_name <> "regfile_struct")
      (List.map snd (Lazy.force compositional))
  in
  print_endline
    "par bench: regfile_struct excluded from the flow comparison (uncapped \
     budgets make its double run dominate; see bench/main.ml)";
  let (serial_rows, flow_serial) =
    timed (fun () -> List.map (fun tr -> Flow.transformed_atpg tr cfg) rows)
  in
  Engine.Pool.set_jobs jobs;
  let (par_rows, flow_par) =
    timed (fun () ->
        Flow.completed_rows (Flow.transformed_atpg_all ~jobs rows cfg))
  in
  if List.exists2 (fun a b -> atpg_row_key a <> atpg_row_key b)
       serial_rows par_rows
  then begin
    prerr_endline "bench par: MUT-parallel flow differs from the serial flow";
    exit 1
  end;
  (* fault-sharded simulation of random tests on the full ARM *)
  let c = Lazy.force full in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let rng = Random.State.make [| !seed_ref |] in
  let tests =
    List.init 8 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:4
          ~piers:[])
  in
  let observe = Atpg.Fsim.default_observe in
  let (serial_flags, fsim_serial) =
    timed (fun () -> Atpg.Fsim.run c ~observe ~faults tests)
  in
  let (par_flags, fsim_par) =
    timed (fun () -> Atpg.Fsim.run ~jobs c ~observe ~faults tests)
  in
  if serial_flags <> par_flags then begin
    Printf.eprintf
      "bench par: sharded fsim differs from serial (replay with --seed %d)\n"
      !seed_ref;
    exit 1
  end;
  let st = Engine.Pool.stats (Engine.Pool.global ()) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let utilization =
    if st.Engine.Pool.ps_wall = 0.0 then 0.0
    else
      st.Engine.Pool.ps_run_time
      /. (float_of_int st.Engine.Pool.ps_jobs *. st.Engine.Pool.ps_wall)
  in
  Printf.printf "par bench: %d jobs (seed %d), results identical to serial\n"
    jobs !seed_ref;
  Printf.printf "  table-6 flow: %.3f s serial, %.3f s parallel (%.2fx)\n"
    flow_serial flow_par (ratio flow_serial flow_par);
  Printf.printf "  fsim (%d faults, 8 tests): %.3f s serial, %.3f s sharded (%.2fx)\n"
    (List.length faults) fsim_serial fsim_par (ratio fsim_serial fsim_par);
  Printf.printf
    "  pool: %d tasks, %d steals, %.3f s queued, %.3f s running, %.0f%% utilization\n"
    st.Engine.Pool.ps_tasks st.Engine.Pool.ps_steals
    st.Engine.Pool.ps_queue_wait st.Engine.Pool.ps_run_time
    (100.0 *. utilization)

(* Fast CI smoke: on the stand-alone ALU, a 4-job ATPG run and 4-way
   sharded fault simulation — a multi-test list and one test (a one-lane
   word, the path Gen's confirm-and-drop takes at -j N) — must
   reproduce the serial results exactly. *)
let bench_par_smoke () =
  let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:"arm_alu" in
  let c =
    (Synth.Lower.lower (Synth.Flatten.flatten ed "arm_alu"))
      .Synth.Lower.circuit
  in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let cfg =
    { module_cfg with
      Atpg.Gen.g_engine = Atpg.Gen.Hybrid;
      g_fault_budget = 1e9;
      g_total_budget = 1e9;
      g_seed = !seed_ref }
  in
  let r1 = Atpg.Gen.run c { cfg with Atpg.Gen.g_jobs = 1 } faults in
  Engine.Pool.set_jobs 4;
  let r4 = Atpg.Gen.run c { cfg with Atpg.Gen.g_jobs = 4 } faults in
  let key (r : Atpg.Gen.result) =
    (r.Atpg.Gen.r_detected, r.Atpg.Gen.r_untestable, r.Atpg.Gen.r_aborted,
     r.Atpg.Gen.r_vectors, r.Atpg.Gen.r_tests, r.Atpg.Gen.r_outcomes)
  in
  if key r1 <> key r4 then begin
    Printf.eprintf
      "par smoke: 4-job ATPG differs from serial on arm_alu (seed %d)\n"
      !seed_ref;
    exit 1
  end;
  let rng = Random.State.make [| !seed_ref |] in
  let tests =
    List.init 16 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:4
          ~piers:[])
  in
  let observe = Atpg.Fsim.default_observe in
  List.iter
    (fun (what, tests) ->
      let serial = Atpg.Fsim.run c ~observe ~faults tests in
      if Atpg.Fsim.run ~jobs:4 c ~observe ~faults tests <> serial then begin
        Printf.eprintf
          "par smoke: sharded %s fsim differs from serial on arm_alu (seed %d)\n"
          what !seed_ref;
        exit 1
      end)
    [ ("multi-test", tests); ("single-test", [ List.hd tests ]) ];
  Printf.printf
    "par smoke: arm_alu identical at 1 and 4 jobs (%d faults, coverage %.2f%%)\n"
    r4.Atpg.Gen.r_total r4.Atpg.Gen.r_coverage

(* CI chaos smoke: with failure injection pinned to one MUT's flow seam
   and budget starvation pinned to another's, the MUT-parallel flow must
   finish promptly (no hang), degrade exactly those rows, keep the
   healthy row bit-identical to an undisturbed run, and exit 0. *)
let bench_chaos_smoke () =
  let jobs = max 1 !jobs_ref in
  Engine.Pool.set_jobs jobs;
  (* a purpose-built three-MUT hierarchy: ARM-scale generation takes
     minutes with the uncapped budgets determinism needs, and the gate
     is about the degradation machinery, not ATPG throughput *)
  let src =
    {|module leafa (input [3:0] a, b, output [3:0] y);
        assign y = (a & b) | (a ^ b);
      endmodule
      module leafb (input [3:0] a, b, output [3:0] y);
        assign y = (a + b) ^ (a & b);
      endmodule
      module core (input [3:0] p, q, output [3:0] r, s, t);
        wire [3:0] m;
        assign m = p & 4'd11;
        leafa u_alpha (.a(m), .b(q), .y(r));
        leafb u_beta (.a(q), .b(p), .y(s));
        leafa u_gamma (.a(p), .b(m), .y(t));
      endmodule
      module top (input [3:0] i1, i2, output [3:0] o1, o2, o3);
        core u_core (.p(i1), .q(i2), .r(o1), .s(o2), .t(o3));
      endmodule|}
  in
  let env =
    Factor.Compose.make_env (Verilog.Parser.parse_design src) ~top:"top"
  in
  let session = Factor.Compose.create_session () in
  let rows =
    List.map
      (fun (name, path) ->
        let spec = { Flow.ms_name = name; ms_path = path } in
        let ch =
          Flow.characteristics env ~full:(Flow.full_circuit env) spec
        in
        Flow.transform env session Flow.Compositional spec
          ~surrounding_before:ch.Flow.ch_surrounding_gates)
      [ ("alpha", "u_core.u_alpha"); ("beta", "u_core.u_beta");
        ("gamma", "u_core.u_gamma") ]
  in
  let cfg =
    { hybrid_cfg with
      Atpg.Gen.g_fault_budget = 1e9;
      g_total_budget = 1e9;
      g_seed = !seed_ref;
      g_jobs = 1 }
  in
  let status (m : Flow.mut_outcome) =
    match m.Flow.mo_status with
    | Flow.Mut_ok -> "ok"
    | Flow.Mut_degraded _ -> "degraded"
    | Flow.Mut_failed _ -> "failed"
    | Flow.Mut_skipped _ -> "skipped"
  in
  let clean = Flow.transformed_atpg_all ~jobs rows cfg in
  if not (List.for_all (fun m -> status m = "ok") clean) then begin
    prerr_endline "chaos smoke: undisturbed run must be all-ok";
    exit 1
  end;
  Engine.Chaos.set ~seed:!seed_ref ~rate:1.0 ~mode:Engine.Chaos.Fail_only
    ~prefix:"flow.mut:beta,flow.budget:gamma" ();
  let chaotic =
    Fun.protect ~finally:Engine.Chaos.clear (fun () ->
        Flow.transformed_atpg_all ~jobs rows cfg)
  in
  List.iter2
    (fun (c : Flow.mut_outcome) (m : Flow.mut_outcome) ->
      let expect =
        match m.Flow.mo_name with
        | "beta" -> "failed"
        | "gamma" -> "degraded"
        | _ -> "ok"
      in
      if status m <> expect then begin
        Printf.eprintf "chaos smoke: %s is %s, expected %s\n" m.Flow.mo_name
          (status m) expect;
        exit 1
      end;
      (* healthy rows must not even notice the siblings dying *)
      if expect = "ok"
         && (match (c.Flow.mo_row, m.Flow.mo_row) with
             | Some a, Some b -> atpg_row_key a <> atpg_row_key b
             | _ -> true)
      then begin
        Printf.eprintf
          "chaos smoke: healthy row %s differs from the undisturbed run\n"
          m.Flow.mo_name;
        exit 1
      end)
    clean chaotic;
  Printf.printf
    "chaos smoke: %d MUTs — beta killed, gamma budget-starved, survivors \
     bit-identical (seed %d, %d jobs)\n"
    (List.length rows) !seed_ref jobs

(* CI fuzz smoke: a fixed-seed differential campaign across every
   check must come back clean and render byte-identically when re-run
   (the determinism contract of [factor_cli fuzz]); then, with chaos
   armed on the deliberate bug seam, the [Opt_ec] check must catch the
   slipped gate substitution and shrink every reproducer under the
   25-line bound. *)
let bench_fuzz_smoke () =
  let jobs = max 2 !jobs_ref in
  Engine.Pool.set_jobs jobs;
  let cfg = { Gen_rtl.Diff.default_config with dc_jobs = jobs } in
  let r1 = Gen_rtl.Diff.campaign cfg ~base:0 ~count:6 in
  if r1.Gen_rtl.Diff.rp_failures <> [] || r1.Gen_rtl.Diff.rp_crashes <> []
  then begin
    prerr_endline "fuzz smoke: clean campaign must have no disagreements";
    prerr_endline (Gen_rtl.Diff.render r1);
    exit 1
  end;
  let r2 = Gen_rtl.Diff.campaign cfg ~base:0 ~count:6 in
  if Gen_rtl.Diff.render r1 <> Gen_rtl.Diff.render r2 then begin
    prerr_endline "fuzz smoke: two identical campaigns rendered differently";
    exit 1
  end;
  Engine.Chaos.set ~seed:1 ~rate:1.0 ~mode:Engine.Chaos.Fail_only
    ~prefix:Gen_rtl.Diff.bug_seam ();
  let seamed =
    Fun.protect ~finally:Engine.Chaos.clear (fun () ->
        Gen_rtl.Diff.campaign
          { cfg with Gen_rtl.Diff.dc_checks = [ Gen_rtl.Diff.Opt_ec ] }
          ~base:0 ~count:6)
  in
  if seamed.Gen_rtl.Diff.rp_failures = [] then begin
    prerr_endline "fuzz smoke: armed bug seam was not caught";
    exit 1
  end;
  List.iter
    (fun (fl : Gen_rtl.Diff.failure) ->
      if fl.Gen_rtl.Diff.fl_lines >= 25 then begin
        Printf.eprintf
          "fuzz smoke: seed %d reproducer is %d lines (bound 25)\n"
          fl.Gen_rtl.Diff.fl_seed fl.Gen_rtl.Diff.fl_lines;
        exit 1
      end)
    seamed.Gen_rtl.Diff.rp_failures;
  Printf.printf
    "fuzz smoke: 6 seeds x %d checks clean and deterministic; seam caught \
     on %d seed(s), worst reproducer %d lines (%d jobs)\n"
    (List.length cfg.Gen_rtl.Diff.dc_checks)
    (List.length seamed.Gen_rtl.Diff.rp_failures)
    (List.fold_left
       (fun a (fl : Gen_rtl.Diff.failure) -> max a fl.Gen_rtl.Diff.fl_lines)
       0 seamed.Gen_rtl.Diff.rp_failures)
    jobs

(* ------------------------------------------------------------------ *)
(* serve: the persistent daemon, smoke-gated.                          *)
(* ------------------------------------------------------------------ *)

let serve_tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let with_daemon ?store f =
  let dir = serve_tmpdir "factor-bench" in
  let sock = Filename.concat dir "factor.sock" in
  let t =
    Serve.Server.start
      { Serve.Server.sc_addr = Serve.Server.Unix_path sock;
        sc_store = store;
        sc_max_resident = None;
        sc_default_budget = None;
        sc_heartbeat_s = 1.0 }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop t)
    (fun () -> f (Serve.Server.Unix_path sock))

let with_conn addr f =
  let cl = Serve.Client.connect_retry addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> f cl)

let jfield name j =
  Option.value ~default:""
    (Option.bind (Obs.Json.member name j) Obs.Json.to_string_opt)

(* Direct (no daemon) canonical lines for a corpus design, serial: the
   reference every daemon response is compared against byte for byte. *)
let direct_atpg name =
  let e = Circuits.Collection.find name in
  let ed =
    Design.Elaborate.elaborate
      (Verilog.Parser.parse_design e.Circuits.Collection.e_source)
      ~top:e.Circuits.Collection.e_top
  in
  let c =
    (Synth.Lower.lower
       (Synth.Flatten.flatten ed e.Circuits.Collection.e_top))
      .Synth.Lower.circuit
  in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let cfg =
    { Atpg.Gen.default_config with g_total_budget = 60.0; g_jobs = 1 }
  in
  let r = Atpg.Gen.run c cfg faults in
  ( Serve.Render.atpg_counts r,
    Serve.Render.atpg_quality r,
    Atpg.Pattern.write_string ~pi_names:c.Netlist.pi_names r.Atpg.Gen.r_tests )

let atpg_params name = [ ("design", Obs.Json.String ("@" ^ name)) ]

let response_lines r = (jfield "counts" r, jfield "quality" r, jfield "vectors" r)

(* CI gate: boot a daemon, drive every op, require byte-identity with
   the one-shot pipeline, a warm hit on repeat traffic, a warm-disk
   start after a restart over the same store, and a graceful stop. *)
let bench_serve_smoke () =
  Engine.Pool.set_jobs (max 1 !jobs_ref);
  let store = serve_tmpdir "factor-bench-store" in
  let expected = direct_atpg "arbiter" in
  let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  with_daemon ~store (fun addr ->
      with_conn addr (fun cl ->
          (match Obs.Json.member "pong" (Serve.Client.rpc cl ~op:"ping" ~params:[]) with
           | Some (Obs.Json.Bool true) -> ()
           | _ -> die "serve smoke: ping did not pong");
          let r1 = Serve.Client.rpc cl ~op:"atpg" ~params:(atpg_params "arbiter") in
          if response_lines r1 <> expected then
            die "serve smoke: cold daemon atpg differs from the one-shot run";
          if jfield "cache" r1 <> "cold" then
            die "serve smoke: first request should be cold, got %s"
              (jfield "cache" r1);
          let r2 = Serve.Client.rpc cl ~op:"atpg" ~params:(atpg_params "arbiter") in
          if jfield "cache" r2 <> "warm-mem" then
            die "serve smoke: repeat request should be warm-mem, got %s"
              (jfield "cache" r2);
          if response_lines r2 <> expected then
            die "serve smoke: warm response is not bit-identical";
          (* grade the daemon's own vectors, extract, and ec *)
          let (_, _, vectors) = expected in
          let g =
            Serve.Client.rpc cl ~op:"grade"
              ~params:(atpg_params "arbiter"
                       @ [ ("vectors", Obs.Json.String vectors) ])
          in
          if jfield "line" g = "" then die "serve smoke: grade returned no line";
          let extract () =
            Serve.Client.rpc cl ~op:"extract"
              ~params:
                [ ("design", Obs.Json.String "@gcd");
                  ("mut", Obs.Json.String "u_core.u_ctrl") ]
          in
          let extract_lines r = (jfield "extraction" r, jfield "transformed" r) in
          let x = extract () in
          if jfield "extraction" x = "" then
            die "serve smoke: extract returned no stats";
          (* the repeat must be served from the resident entry's
             transform memo, unchanged *)
          let x2 = extract () in
          if jfield "cache" x2 <> "warm-mem" then
            die "serve smoke: repeat extract should be warm-mem, got %s"
              (jfield "cache" x2);
          if Obs.Json.member "transform_cached" x2 <> Some (Obs.Json.Bool true)
          then die "serve smoke: repeat extract missed the transform memo";
          if extract_lines x2 <> extract_lines x then
            die "serve smoke: repeat extract lines differ";
          let ec =
            Serve.Client.rpc cl ~op:"ec"
              ~params:
                [ ("a", Obs.Json.Obj [ ("design", Obs.Json.String "@arbiter") ]);
                  ("b", Obs.Json.Obj [ ("design", Obs.Json.String "@arbiter") ]) ]
          in
          if jfield "verdict" ec <> "equal" then
            die "serve smoke: self-equivalence verdict %S" (jfield "verdict" ec);
          (* the daemon-side registry must count the warm hits: the
             counter is registered at load, so its value is what matters *)
          let m = Serve.Client.rpc cl ~op:"metrics" ~params:[] in
          let warm_hits =
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ "factor_serve_cache_warm_mem"; v ] -> int_of_string_opt v
                | _ -> None)
              (String.split_on_char '\n' (jfield "prometheus" m))
          in
          if Option.value warm_hits ~default:0 < 1 then
            die "serve smoke: prometheus dump counts no warm-mem hit"));
  (* restart over the same store: the design must come back from disk *)
  with_daemon ~store (fun addr ->
      with_conn addr (fun cl ->
          let r = Serve.Client.rpc cl ~op:"atpg" ~params:(atpg_params "arbiter") in
          if jfield "cache" r <> "warm-disk" then
            die "serve smoke: restarted daemon should warm-start, got %s"
              (jfield "cache" r);
          if response_lines r <> expected then
            die "serve smoke: warm-disk response is not bit-identical"));
  Printf.printf
    "serve smoke: all ops byte-identical to one-shot, warm-mem and \
     warm-disk hits observed, graceful stop (%d jobs)\n"
    (max 1 !jobs_ref)

(* CI gate for live progress streaming: a traced daemon ATPG run must
   emit at least three monotonic progress frames (done non-decreasing,
   total stable within each (phase, reporter) group) with an ETA, the
   final response must stay byte-identical to a non-streaming run, and
   the request id must land on both the client.rpc and serve.request
   spans of the same trace. *)
let bench_progress_smoke () =
  Engine.Pool.set_jobs (max 2 !jobs_ref);
  let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  let req = "progress-smoke" in
  let events = ref [] in
  with_daemon (fun addr ->
      with_conn addr (fun cl ->
          (* byte-identity on a corpus design: streaming must not change
             one byte of the final response *)
          let plain =
            Serve.Client.rpc cl ~op:"atpg" ~params:(atpg_params "arbiter")
          in
          let streamed =
            Serve.Client.rpc ~stream:true
              ~on_event:(fun _ -> ())
              cl ~op:"atpg" ~params:(atpg_params "arbiter")
          in
          if response_lines plain <> response_lines streamed then
            die "progress smoke: streamed final response differs";
          (* the full-ARM core under a bounded budget: long enough that
             progress actually streams *)
          let r =
            Serve.Client.rpc ~stream:true ~req ~timeout:120.0
              ~on_event:(fun j -> events := j :: !events)
              cl ~op:"atpg"
              ~params:
                [ ("design", Obs.Json.String "@arm");
                  ("budget", Obs.Json.Float 10.0) ]
          in
          if jfield "counts" r = "" then
            die "progress smoke: arm run returned no counts"));
  Obs.Span.set_enabled false;
  let events = List.rev !events in
  (* (frame, phase, reporter, done, total, eta) for every progress frame *)
  let progress =
    List.filter_map
      (fun j ->
        match Serve.Proto.event_of_json j with
        | Some (Serve.Proto.Ev_progress p) ->
          Some (j, p.ep_phase, p.ep_reporter, p.ep_done, p.ep_total,
                p.ep_eta_s)
        | _ -> None)
      events
  in
  if List.length progress < 3 then
    die "progress smoke: expected >= 3 progress frames, got %d"
      (List.length progress);
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (j, phase, reporter, done_, total, _) ->
      if jfield "req" j <> req then
        die "progress smoke: frame lacks the request id (got %S)"
          (jfield "req" j);
      (match Hashtbl.find_opt groups (phase, reporter) with
       | Some (d, t) ->
         if done_ < d then
           die "progress smoke: %s went backwards (%d after %d)" phase
             done_ d;
         if total <> t then
           die "progress smoke: %s total moved (%d after %d)" phase total t
       | None -> ());
      Hashtbl.replace groups (phase, reporter) (done_, total))
    progress;
  if not (List.exists (fun (_, _, _, _, _, eta) -> eta >= 0.0) progress)
  then die "progress smoke: no frame carried an ETA estimate";
  (* the trace must correlate both halves by the request id *)
  let tf = Filename.temp_file "factor_progress_trace" ".json" in
  Obs.Span.write_chrome_trace tf;
  let trace =
    let ic = open_in_bin tf in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tf;
    Obs.Json.of_string s
  in
  let span_has_req name =
    match trace with
    | Obs.Json.List evs ->
      List.exists
        (fun ev ->
          Obs.Json.member "name" ev = Some (Obs.Json.String name)
          && (match Obs.Json.member "args" ev with
              | Some args ->
                Obs.Json.member "req" args = Some (Obs.Json.String req)
              | None -> false))
        evs
    | _ -> die "progress smoke: trace is not a JSON array"
  in
  if not (span_has_req "client.rpc") then
    die "progress smoke: no client.rpc span carries the request id";
  if not (span_has_req "serve.request") then
    die "progress smoke: no serve.request span carries the request id";
  Obs.Span.clear ();
  Printf.printf
    "progress smoke: %d monotonic frames with ETA, byte-identical final, \
     request id on client and server spans (%d jobs)\n"
    (List.length progress) (max 2 !jobs_ref)

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let () =
  let target = ref "all" in
  let trace_ref = ref None and metrics_ref = ref None in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 -> jobs_ref := n
       | _ ->
         Printf.eprintf "bad job count %S\n" v;
         exit 1);
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
       | Some s -> seed_ref := s
       | None ->
         Printf.eprintf "bad seed %S\n" v;
         exit 1);
      parse rest
    | "--trace" :: v :: rest ->
      trace_ref := Some v;
      parse rest
    | "--metrics" :: v :: rest ->
      metrics_ref := Some v;
      parse rest
    | t :: rest ->
      target := t;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !trace_ref <> None then Obs.Span.set_enabled true;
  (* never raise inside at_exit: an unwritable path gets a warning and
     the other artifact still gets written *)
  let write_artifact what f =
    try f ()
    with Sys_error msg -> Printf.eprintf "cannot write %s: %s\n" what msg
  in
  at_exit (fun () ->
      (match !trace_ref with
       | Some f ->
         write_artifact "trace" (fun () ->
             Obs.Span.write_chrome_trace f;
             Printf.eprintf "trace written to %s\n" f)
       | None -> ());
      match !metrics_ref with
      | Some f ->
        write_artifact "metrics" (fun () ->
            let oc = open_out f in
            output_string oc (metrics_json ());
            output_char oc '\n';
            close_out oc;
            Printf.eprintf "metrics written to %s\n" f)
      | None -> ());
  let target = !target in
  let run = function
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "table3" -> table3 ()
    | "table4" -> table4 ()
    | "table5" -> table5 ()
    | "table6" -> table6 ()
    | "testability" -> testability ()
    | "translate" -> translate ()
    | "generality" -> generality ()
    | "variance" -> variance ()
    | "scan" -> scan_vs_functional ()
    | "bridging" -> bridging ()
    | "ablations" -> ablations ()
    | "fsim" -> bench_fsim ()
    | "fsim_smoke" -> bench_fsim_smoke ()
    | "sat" -> bench_sat ()
    | "sat_smoke" -> bench_sat_smoke ()
    | "par" -> bench_par ()
    | "par_smoke" -> bench_par_smoke ()
    | "chaos_smoke" -> bench_chaos_smoke ()
    | "fuzz_smoke" -> bench_fuzz_smoke ()
    | "serve_smoke" -> bench_serve_smoke ()
    | "progress_smoke" -> bench_progress_smoke ()
    | "all" ->
      table1 ();
      table2 ();
      table3 ();
      table4 ();
      table5 ();
      table6 ();
      testability ();
      translate ();
      generality ()
    | other ->
      Printf.eprintf
        "unknown target %S (expected table1..table6, testability, translate, generality, variance, scan, bridging, ablations, fsim, fsim_smoke, sat, sat_smoke, par, par_smoke, chaos_smoke, fuzz_smoke, serve_smoke, progress_smoke, all)\n"
        other;
      exit 1
  in
  run target
