(** The paper's headline experiment in miniature: generating tests for
    the forwarding unit of the ARM benchmark three ways —

    1. raw, at the full-processor level (hopeless);
    2. on the transformed module built without composition;
    3. on the transformed module built with composition (FACTOR).

    Run with: [dune exec examples/hierarchical_atpg.exe] *)

let spec =
  List.find
    (fun s -> s.Factor.Flow.ms_name = "forward")
    Arm.Rtl.muts

let cfg =
  { Atpg.Gen.default_config with
    g_max_frames = 4;
    g_backtrack_limit = 600;
    g_restarts = 3;
    g_fault_budget = 2.0;
    g_total_budget = 120.0;
    g_random_length = 8;
    g_random_batches = 24 }

let () =
  let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
  let full = Factor.Flow.full_circuit env in
  let full_stats = Netlist.stats full in
  Printf.printf "full processor: %d gate equivalents, %d flip-flops\n\n"
    (Netlist.gate_equivalents full_stats) full_stats.Netlist.st_ffs;

  (* 1. raw processor-level generation targeting the forwarding unit *)
  let raw =
    Factor.Flow.processor_atpg ~full spec
      { cfg with g_fault_budget = 0.3; g_random_batches = 4 }
  in
  Printf.printf "raw (processor level): %6.1f%% coverage in %6.2f s\n"
    raw.Factor.Flow.ar_coverage raw.Factor.Flow.ar_result.Atpg.Gen.r_time;

  (* 2. conventional transformed module (whole level-1 ancestor) *)
  let session = Factor.Compose.create_session () in
  let conv =
    Factor.Flow.transform env session Factor.Flow.Conventional spec
      ~surrounding_before:0
  in
  let conv_atpg = Factor.Flow.transformed_atpg conv cfg in
  Printf.printf
    "without composition:   %6.1f%% coverage in %6.2f s (%d surrounding gates)\n"
    conv_atpg.Factor.Flow.ar_coverage
    conv_atpg.Factor.Flow.ar_result.Atpg.Gen.r_time
    conv.Factor.Flow.tr_transformed.Factor.Transform.tf_surrounding_gates;

  (* 3. compositional transformed module (FACTOR) *)
  let comp =
    Factor.Flow.transform env session Factor.Flow.Compositional spec
      ~surrounding_before:0
  in
  let comp_atpg = Factor.Flow.transformed_atpg comp cfg in
  Printf.printf
    "with composition:      %6.1f%% coverage in %6.2f s (%d surrounding gates)\n"
    comp_atpg.Factor.Flow.ar_coverage
    comp_atpg.Factor.Flow.ar_result.Atpg.Gen.r_time
    comp.Factor.Flow.tr_transformed.Factor.Transform.tf_surrounding_gates;

  (* stand-alone ceiling *)
  let sa = Factor.Flow.standalone_atpg env spec cfg in
  Printf.printf "stand-alone ceiling:   %6.1f%% coverage in %6.2f s\n"
    sa.Factor.Flow.ar_coverage sa.Factor.Flow.ar_result.Atpg.Gen.r_time;

  (* the tests translate back to processor-level sequences: every vector
     is a value for the chip pins, PIER loads become load instructions *)
  (match comp_atpg.Factor.Flow.ar_result.Atpg.Gen.r_tests with
   | t :: _ ->
     Printf.printf "\nexample chip-level test (%d clock cycles, %d register loads)\n"
       (Atpg.Pattern.num_frames t)
       (List.length t.Atpg.Pattern.p_loads)
   | [] -> ())
