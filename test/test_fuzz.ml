(** Differential fuzzing of the synthesis pipeline: random well-formed
    RTL modules (from [Fuzzgen]) are pushed through parse -> elaborate ->
    flatten -> lower, and the gate-level simulation of the lowered
    netlist is checked against the independent word-level interpreter
    ([Synth.Interp]) on random stimulus.  Also checks pretty-printer
    round trips and optimizer equivalence on the same random
    population. *)

open Testutil
open Fuzzgen

let gates_match_interpreter gm =
  let (flat, circuit) = build gm in
  let interp = Synth.Interp.create flat in
  let sim = Sim.Eval.create circuit in
  Sim.Eval.zero_state sim;
  List.for_all
    (fun frame ->
      Synth.Interp.step interp (("clk", 0) :: frame);
      Sim.Eval.eval sim (Sim.Eval.pi_of_ports circuit (("clk", 0) :: frame));
      let ok =
        List.for_all
          (fun (o, _) ->
            Sim.Eval.po_as_int sim o = Some (Synth.Interp.output interp o))
          gm.gm_outputs
      in
      Synth.Interp.tick interp;
      Sim.Eval.tick sim;
      ok)
    (stimulus gm ~frames:6)

(* Detection flags with per-test fault dropping via the straight-line
   reference engine — the oracle both production engines must match.
   Takes fault descriptors of any model. *)
let reference_flags circuit ~observe ~faults tests =
  let order = (Netlist.analysis circuit).Netlist.Analysis.order in
  let fault_arr = Array.of_list faults in
  let n = Array.length fault_arr in
  let ref_flags = Array.make n false in
  List.iter
    (fun test ->
      let remaining = ref [] in
      for i = n - 1 downto 0 do
        if not ref_flags.(i) then remaining := i :: !remaining
      done;
      let rec batches = function
        | [] -> ()
        | l ->
          let rec take k = function
            | x :: rest when k > 0 ->
              let (h, t) = take (k - 1) rest in
              (x :: h, t)
            | rest -> ([], rest)
          in
          let (batch, rest) = take 63 l in
          let flags =
            Atpg.Fsim.run_batch_reference circuit ~order
              ~faults:(List.map (fun i -> fault_arr.(i)) batch)
              ~observe test
          in
          List.iter2
            (fun i hit -> if hit then ref_flags.(i) <- true)
            batch flags;
          batches rest
      in
      batches !remaining)
    tests;
  ref_flags

let stuck_reference_flags circuit ~observe ~faults tests =
  reference_flags circuit ~observe ~faults:(List.map Atpg.Fsim.stuck_at faults)
    tests

(* The packed engine against the straight-line reference: identical
   detection flags on random circuits, fault lists and test sequences
   (random PIER loads and observations; flip-flops outside the loaded
   set start X, so X propagation is exercised throughout), on stuck-at
   faults, a random transition population and a random bridge
   population (pairs drawn at random, so feedback pairs occur too). *)
let fsim_matches_reference gm =
  let (_, circuit) = build gm in
  let seed = Hashtbl.hash gm.gm_src + 3 in
  let rng = Random.State.make [| seed |] in
  let all_faults = Atpg.Fault.all circuit in
  (* a random subset of the fault universe, in random order *)
  let faults =
    List.filter (fun _ -> Random.State.int rng 4 > 0) all_faults
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    List.init 4 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
          ~frames:(1 + Random.State.int rng 4) ~piers)
  in
  let transitions =
    List.filter
      (fun _ -> Random.State.int rng 4 > 0)
      (Atpg.Transition.all circuit)
  in
  let bridges = Atpg.Bridge.candidates ~rng ~count:40 circuit in
  let models_match faults =
    Atpg.Fsim.run_descriptors ~engine:Atpg.Fsim.Packed circuit ~observe
      ~faults tests
    = reference_flags circuit ~observe ~faults tests
  in
  Atpg.Fsim.run ~engine:Atpg.Fsim.Packed circuit ~observe ~faults tests
  = stuck_reference_flags circuit ~observe ~faults tests
  && models_match (List.map Atpg.Transition.descriptor transitions)
  && models_match (List.map Atpg.Bridge.descriptor bridges)

(* Word-boundary pattern counts for the packed engine: 1 (partial
   word), 63 (one lane short of full), 64 (word + 1), 65, 127 (two
   words + partial).  Ragged frame counts inside each word stress the
   per-lane active/last masks. *)
let packed_word_boundaries gm =
  let (_, circuit) = build gm in
  let seed = Hashtbl.hash gm.gm_src + 11 in
  let rng = Random.State.make [| seed |] in
  let faults =
    List.filter (fun _ -> Random.State.int rng 3 > 0)
      (Atpg.Fault.all circuit)
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  List.for_all
    (fun count ->
      let tests =
        List.init count (fun _ ->
            Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
              ~frames:(1 + Random.State.int rng 3) ~piers)
      in
      Atpg.Fsim.run ~engine:Atpg.Fsim.Packed circuit ~observe ~faults
        tests
      = stuck_reference_flags circuit ~observe ~faults tests)
    [ 1; 63; 64; 65; 127 ]

(* The full detection matrix against the reference engine, test by
   test: 1-70 tests cross the 63-lane word boundary, ragged frame counts
   stress the per-lane active/last masks, and a random subset of the
   faults is active.  Every byte must equal the oracle's flag. *)
let matrix_matches_reference gm =
  let (_, circuit) = build gm in
  let rng = Random.State.make [| Hashtbl.hash gm.gm_src + 17 |] in
  let faults = Array.of_list (Atpg.Fault.all circuit) in
  let active =
    List.filter
      (fun _ -> Random.State.int rng 3 > 0)
      (List.init (Array.length faults) Fun.id)
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    Array.init (1 + Random.State.int rng 70) (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
          ~frames:(1 + Random.State.int rng 4) ~piers)
  in
  let sigs =
    Atpg.Fsim.run_matrix circuit ~observe ~faults
      ~active:(Array.of_list active) tests
  in
  let active_faults = List.map (fun i -> faults.(i)) active in
  Array.for_all Fun.id
    (Array.mapi
       (fun ti test ->
         let expected =
           stuck_reference_flags circuit ~observe ~faults:active_faults
             [ test ]
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun k hit -> (Bytes.get sigs.(k) ti = '\001') = hit)
              expected))
       tests)

let fuzz_tests =
  [ qtest "random rtl: printer round trip" ~count:60 gen_arbitrary
      (fun gm ->
        let d = parse gm.gm_src in
        let s1 = Verilog.Pp.design_to_string d in
        let s2 = Verilog.Pp.design_to_string (parse s1) in
        String.equal s1 s2);
    qtest "random rtl: gates match the interpreter" ~count:60 gen_arbitrary
      gates_match_interpreter;
    qtest "random rtl: packed fsim matches the reference engine" ~count:60
      gen_arbitrary fsim_matches_reference;
    qtest "random rtl: packed fsim at word-boundary pattern counts"
      ~count:12 gen_arbitrary packed_word_boundaries;
    qtest "random rtl: detection matrix matches the reference engine"
      ~count:30 gen_arbitrary matrix_matches_reference;
    qtest "random rtl: optimizer preserves behaviour" ~count:40 gen_arbitrary
      (fun gm ->
        let (_, circuit) = build gm in
        let rebuilt = Synth.Opt.rebuild circuit in
        let rng = Random.State.make [| Hashtbl.hash gm.gm_src + 1 |] in
        Synth.Opt.equivalent_exact ~rounds:4 ~cycles:4 ~rng circuit rebuilt
        = Synth.Opt.Equal);
    qtest "random rtl: extraction of the whole module is sound" ~count:20
      gen_arbitrary
      (fun gm ->
        (* wrap the fuzz module in a top, extract it as the MUT, and the
           transformed module must behave identically: the slice keeps
           every path *)
        let inputs_conn =
          String.concat ", "
            (List.map (fun (n, _) -> Printf.sprintf ".%s(%s)" n n)
               (("clk", 1) :: gm.gm_inputs))
        in
        let outputs_conn =
          String.concat ", "
            (List.map (fun (n, _) -> Printf.sprintf ".%s(%s)" n n)
               gm.gm_outputs)
        in
        let decl (n, w) kind =
          if w = 1 then Printf.sprintf "  %s %s;\n" kind n
          else Printf.sprintf "  %s [%d:0] %s;\n" kind (w - 1) n
        in
        let top_src =
          gm.gm_src
          ^ "module top (input clk"
          ^ String.concat ""
              (List.map
                 (fun (n, w) ->
                   if w = 1 then ", input " ^ n
                   else Printf.sprintf ", input [%d:0] %s" (w - 1) n)
                 gm.gm_inputs)
          ^ String.concat ""
              (List.map
                 (fun (n, w) ->
                   if w = 1 then ", output " ^ n
                   else Printf.sprintf ", output [%d:0] %s" (w - 1) n)
                 gm.gm_outputs)
          ^ ");\n"
          ^ String.concat "" (List.map (fun s -> decl s "wire") [])
          ^ Printf.sprintf "  fuzz u_mut (%s, %s);\nendmodule\n" inputs_conn
              outputs_conn
        in
        let env = Factor.Compose.make_env (parse top_src) ~top:"top" in
        let session = Factor.Compose.create_session () in
        let stats = Factor.Compose.compositional session env ~mut_path:"u_mut" in
        let tf = Factor.Transform.build env stats.Factor.Compose.cs_slice ~mut_path:"u_mut" in
        let full =
          let ed = env.Factor.Compose.ed in
          (Synth.Lower.lower
             (Synth.Flatten.flatten ed ed.Design.Elaborate.ed_top))
            .Synth.Lower.circuit
        in
        let rng = Random.State.make [| Hashtbl.hash gm.gm_src + 2 |] in
        Synth.Opt.equivalent ~rounds:4 ~cycles:4 ~rng full
          tf.Factor.Transform.tf_circuit
        = Synth.Opt.Equal) ]

let () = Alcotest.run "fuzz" [ ("fuzz", fuzz_tests) ]
