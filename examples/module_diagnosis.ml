(** Module-level fault diagnosis on top of FACTOR: generate tests for an
    embedded module on its transformed view, translate them to chip
    level, and use the resulting fault dictionary to locate an injected
    defect from its chip-level pass/fail signature — the companion flow
    to hierarchical test generation.

    Run with: [dune exec examples/module_diagnosis.exe] *)

let () =
  (* take the DMA corpus design and its channel engine *)
  let entry = Circuits.Collection.find "dma" in
  let mut = List.hd entry.Circuits.Collection.e_muts in
  let env =
    Factor.Compose.make_env
      (Verilog.Parser.parse_design entry.Circuits.Collection.e_source)
      ~top:entry.Circuits.Collection.e_top
  in
  Printf.printf "design %s, module under test %s\n"
    entry.Circuits.Collection.e_name mut.Factor.Flow.ms_path;

  (* 1. FACTOR-ise and generate tests on the transformed module *)
  let session = Factor.Compose.create_session () in
  let stats =
    Factor.Compose.compositional session env ~mut_path:mut.Factor.Flow.ms_path
  in
  let tf =
    Factor.Transform.build env stats.Factor.Compose.cs_slice
      ~mut_path:mut.Factor.Flow.ms_path
  in
  let tfc = tf.Factor.Transform.tf_circuit in
  let tf_faults =
    Atpg.Fault.collapse tfc
      (Atpg.Fault.all ~within:mut.Factor.Flow.ms_path tfc)
  in
  let piers = Factor.Pier.identify tfc in
  let r =
    Atpg.Gen.run tfc
      { Atpg.Gen.default_config with g_piers = piers; g_max_frames = 8 }
      tf_faults
  in
  Printf.printf "1. generated %d tests, %.1f%% coverage on the module\n"
    (List.length r.Atpg.Gen.r_tests) r.Atpg.Gen.r_coverage;

  (* 2. translate to chip level *)
  let chip = Factor.Flow.full_circuit env in
  let tests =
    Factor.Translate.translate_all ~chip ~transformed:tfc r.Atpg.Gen.r_tests
  in
  let chip_faults =
    Atpg.Fault.collapse chip
      (Atpg.Fault.all ~within:mut.Factor.Flow.ms_path chip)
  in
  Printf.printf "2. translated to chip level; %d module faults in scope\n"
    (List.length chip_faults);

  (* 3. build the fault dictionary at chip level *)
  let chip_piers = Factor.Pier.identify chip in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = chip_piers } in
  let dict = Atpg.Diagnose.build chip ~observe ~faults:chip_faults tests in
  Printf.printf "3. dictionary built; diagnostic resolution %.2f faults/class\n"
    (Atpg.Diagnose.resolution dict);

  (* 4. a "chip comes back from the tester" experiment: inject each fault
     and check diagnosis points back at it *)
  let located = ref 0 and total = ref 0 in
  List.iteri
    (fun i defect ->
      if i mod 3 = 0 then begin
        incr total;
        let observed = Atpg.Diagnose.observe_defect dict defect in
        let exact = Atpg.Diagnose.exact_matches dict observed in
        if List.exists (fun c -> c.Atpg.Diagnose.ca_fault = defect) exact then
          incr located
      end)
    chip_faults;
  Printf.printf
    "4. diagnosis located %d of %d injected defects in their exact\n\
    \   equivalence class\n"
    !located !total
