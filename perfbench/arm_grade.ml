(* arm_grade: fault grading on the full ARM, serial.  The seed draws
   random 24-cycle PIER sequences (several packed words of them); each
   pass grades them against

   - the full collapsed stuck-at list with the packed engine
     ([Atpg.Fsim.run]),
   - the transition faults inside one MUT ([Atpg.Transition.coverage]),
   - the bridges inside the same MUT ([Atpg.Bridge.coverage]).

   The last two run the private 63-fault loops of Transition and Bridge,
   so this workload weighs both ways fault simulation is done today. *)

open Harness

let words = 3           (* packed words of sequences: 63 tests each *)
let frames = 24
let mut = "u_ctrl.u_exc"

(* Transition and Bridge simulate 63 faults per batch and re-batch the
   undetected ones before every test, so a population of one batch
   costs the same on every seed as long as one of its faults is never
   detected: one batch per test.  Some of exc's transition faults are
   undetectable, and so is one bridge of the population drawn with
   [bridge_seed]; the benchmark seed draws only the sequences. *)
let batch = 63
let bridge_seed = 8

let counter_names =
  [ "fsim.packed_evals"; "fsim.packed_words"; "fsim.evals"; "fsim.ref_evals" ]

(* Every [sample_every]-th stuck-at fault is re-graded by the event
   engine as the correctness gate. *)
let sample_every = 16

let count_of_pct pct n = int_of_float (Float.round (pct *. float_of_int n /. 100.0))

let iteration ~full ~observe ~faults ~tfaults ~bridges ~tests ~flags_out ~traced:_ =
  let t0 = now () in
  let ((stuck, stuck_s, tcov, transition_s, bcov, bridge_s), counters) =
    with_counters counter_names @@ fun () ->
    let (stuck, stuck_s) =
      layer "bench.fsim.run" (fun () ->
          Atpg.Fsim.run ~engine:Atpg.Fsim.Packed full ~observe ~faults tests)
    in
    let (tcov, transition_s) =
      layer "bench.transition.coverage" (fun () ->
          Atpg.Transition.coverage full ~observe ~faults:tfaults tests)
    in
    let (bcov, bridge_s) =
      layer "bench.bridge.coverage" (fun () ->
          Atpg.Bridge.coverage full ~observe ~bridges tests)
    in
    (stuck, stuck_s, tcov, transition_s, bcov, bridge_s)
  in
  let wall = now () -. t0 in
  flags_out := Some stuck;
  let stuck_det = Array.fold_left (fun n d -> if d then n + 1 else n) 0 stuck in
  let tdet = count_of_pct tcov (List.length tfaults) in
  let bdet = count_of_pct bcov (List.length bridges) in
  { it_wall = wall;
    it_values =
      [ ("detected", float_of_int (stuck_det + tdet + bdet));
        ("fsim.stuck_s", stuck_s);
        ("fsim.transition_s", transition_s);
        ("fsim.bridge_s", bridge_s);
        ("fsim.stuck_detected", float_of_int stuck_det);
        ("fsim.transition_detected", float_of_int tdet);
        ("fsim.bridge_detected", float_of_int bdet) ];
    it_counters = counters;
    it_attempted = 3 }

(* Gate: on a fixed sample of the stuck-at list the event-driven engine
   must reproduce the packed engine's flags. *)
let check_sample ~full ~observe ~faults ~tests flags =
  let sample = List.filteri (fun i _ -> i mod sample_every = 0) faults in
  let event = Atpg.Fsim.run ~engine:Atpg.Fsim.Event full ~observe ~faults:sample tests in
  List.iteri
    (fun k f ->
      if event.(k) <> flags.(k * sample_every) then
        fail "arm_grade: packed and event engines disagree on %s \
              (packed %b, event %b)"
          (Atpg.Fault.to_string full f) flags.(k * sample_every) event.(k))
    sample

let run ~seed ~seconds ~trace =
  let ((_env, full), setup) = Arm_flow.setup_medians ~reps:25 in
  let rng = Random.State.make [| seed |] in
  let piers = Factor.Pier.identify full in
  let tests =
    List.init (words * 63) (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis full) ~frames ~piers)
  in
  let bridges =
    Atpg.Bridge.candidates ~within:mut
      ~rng:(Random.State.make [| bridge_seed |]) ~count:batch full
  in
  let faults = Atpg.Fault.collapse full (Atpg.Fault.all full) in
  let tfaults =
    List.filteri (fun i _ -> i < batch) (Atpg.Transition.all ~within:mut full)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let flags_out = ref None in
  let passes =
    iterations ~seconds ~trace
      (iteration ~full ~observe ~faults ~tfaults ~bridges ~tests ~flags_out)
  in
  let r = report ~what:"arm_grade" ~extra:setup passes in
  Option.iter (check_sample ~full ~observe ~faults ~tests) !flags_out;
  r
