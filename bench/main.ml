(** Paper reproduction: regenerates every table of the paper's
    evaluation (Tables 1-6), the Section 4.2 testability report, the
    ablation studies called out in DESIGN.md, the extensions and the
    PODEM-vs-hybrid engine study ([sat]).  Every correctness gate is an
    alcotest case under test/, and performance is measured by the repo
    benchmark in perfbench/; this binary only reproduces.  Every target
    prints to stdout; [--metrics FILE] dumps the process's counters and
    [--trace FILE] a Chrome trace.

    Usage: [bench/main.exe [TARGET...] [--trace FILE] [--metrics FILE]],
    each TARGET one of [table1|table2|table3|table4|table5|table6|
    testability|translate|generality|variance|scan|bridging|ablations|
    sat|all] (default [all]).  The named targets run in the order given;
    an unknown one exits 1 before any target runs. *)

module Flow = Factor.Flow
module T = Report.Table

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

(* The wall time of [f ()] in seconds. *)
let timed f =
  let t0 = Engine.Clock.now () in
  ignore (f ());
  Engine.Clock.now () -. t0

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
(* SAT engine study.                                                   *)
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

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let () =
  let targets = ref [] in
  let trace_ref = ref None and metrics_ref = ref None in
  let rec parse = function
    | [] -> ()
    | "--trace" :: v :: rest ->
      trace_ref := Some v;
      parse rest
    | "--metrics" :: v :: rest ->
      metrics_ref := Some v;
      parse rest
    | opt :: _ when String.starts_with ~prefix:"-" opt ->
      Printf.eprintf "unknown option %S (expected --trace FILE, --metrics FILE)\n"
        opt;
      exit 1
    | t :: rest ->
      targets := t :: !targets;
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
  let target = function
    | "table1" -> table1
    | "table2" -> table2
    | "table3" -> table3
    | "table4" -> table4
    | "table5" -> table5
    | "table6" -> table6
    | "testability" -> testability
    | "translate" -> translate
    | "generality" -> generality
    | "variance" -> variance
    | "scan" -> scan_vs_functional
    | "bridging" -> bridging
    | "ablations" -> ablations
    | "sat" -> bench_sat
    | "all" ->
      fun () ->
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
        "unknown target %S (expected one or more of table1..table6, testability, translate, generality, variance, scan, bridging, ablations, sat, all)\n"
        other;
      exit 1
  in
  let targets = match List.rev !targets with [] -> [ "all" ] | ts -> ts in
  List.iter (fun run -> run ()) (List.map target targets)
