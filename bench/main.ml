(** Paper reproduction and correctness gates: regenerates every table of
    the paper's evaluation (Tables 1-6), the Section 4.2 testability
    report and the ablation studies called out in DESIGN.md, and runs the
    two gates CI relies on that pin figures of their own, [fsim_smoke]
    and [sat_smoke] (each exits 1 when its property fails).  Every other
    correctness gate is an alcotest case under test/.
    Every target prints to stdout; [--metrics FILE] dumps the process's
    counters and [--trace FILE] a Chrome trace.  Performance is measured
    by the repo benchmark in perfbench/, not here.

    Usage: [bench/main.exe [table1|table2|table3|table4|table5|table6|
                            testability|translate|generality|variance|
                            scan|bridging|ablations|fsim|fsim_smoke|
                            sat|sat_smoke|par|all]
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
  let c = (Synth.Lower.synthesize ed "arm_alu").Synth.Lower.circuit in
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
  let c = (Synth.Lower.synthesize ed "arm_alu").Synth.Lower.circuit in
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
     test/test_engine.ml still cover ATPG parallelism, stand-alone
     arm_alu included; this target measures the flow on the remaining
     MUTs). *)
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
    "  pool: %d tasks, %.3f s queued, %.3f s running, %.0f%% utilization\n"
    st.Engine.Pool.ps_tasks
    st.Engine.Pool.ps_queue_wait st.Engine.Pool.ps_run_time
    (100.0 *. utilization)

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
        "unknown target %S (expected table1..table6, testability, translate, generality, variance, scan, bridging, ablations, fsim, fsim_smoke, sat, sat_smoke, par, all)\n"
        other;
      exit 1
  in
  run target
