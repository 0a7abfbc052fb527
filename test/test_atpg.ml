(** Tests for the ATPG engine: fault model, fault simulation, PODEM
    (combinational and time-frame expanded), and the generation driver. *)

open Testutil
module N = Netlist
module F = Atpg.Fault
module P = Atpg.Podem

let c17 =
  {|module top (input a, b, c, d, e, output y1, y2);
    wire n1, n2, n3, n4;
    nand g1 (n1, a, c);
    nand g2 (n2, c, d);
    nand g3 (n3, b, n2);
    nand g4 (n4, n2, e);
    nand g5 (y1, n1, n3);
    nand g6 (y2, n3, n4);
  endmodule|}

(* A circuit with a classically redundant fault: y = (a & b) | (a & ~b)
   simplifies to a, but we build it with raw gate primitives so the
   redundancy survives into the netlist. *)
let redundant =
  {|module top (input a, b, output y);
    wire nb, t1, t2;
    not g0 (nb, b);
    and g1 (t1, a, b);
    and g2 (t2, a, nb);
    or g3 (y, t1, t2);
  endmodule|}

(* ------------------------------------------------------------------ *)
(* Fault model.                                                        *)
(* ------------------------------------------------------------------ *)

let fault_tests =
  [ test "two faults per live site" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        check_int "even count" 0 (List.length faults mod 2);
        check_bool "nonempty" true (List.length faults > 20));
    test "within filter selects module faults" (fun () ->
        let c =
          circuit
            {|module inv (input a, output y); assign y = !a; endmodule
              module top (input a, output y1, y2);
                inv u_i (.a(a), .y(y1));
                assign y2 = a;
              endmodule|}
        in
        let inside = F.all ~within:"u_i" c in
        let everywhere = F.all c in
        check_bool "filter is a strict subset" true
          (List.length inside > 0
           && List.length inside < List.length everywhere);
        List.iter
          (fun f ->
            check_string "origin" "u_i" c.N.origin.(f.F.f_net))
          inside);
    test "prefix filter does not match name prefixes" (fun () ->
        let c =
          circuit
            {|module inv (input a, output y); assign y = !a; endmodule
              module top (input a, output y1, y2);
                inv u_i (.a(a), .y(y1));
                inv u_i2 (.a(a), .y(y2));
              endmodule|}
        in
        let inside = F.all ~within:"u_i" c in
        List.iter
          (fun f -> check_string "origin" "u_i" c.N.origin.(f.F.f_net))
          inside);
    test "collapse removes single-fanout inverter outputs" (fun () ->
        let c = circuit "module top (input a, output y); assign y = !a; endmodule" in
        let all = F.all c in
        let collapsed = F.collapse c all in
        check_bool "collapsed smaller" true
          (List.length collapsed < List.length all));
    test "collapse folds controlling-value gate inputs" (fun () ->
        (* y = a & b: a/sa0 and b/sa0 are equivalent to y/sa0, so of the
           six faults only four classes remain *)
        let c =
          circuit "module top (input a, b, output y); assign y = a & b; endmodule"
        in
        let all = F.all c in
        let collapsed = F.collapse c all in
        let pairs = F.collapse_pairs c all in
        check_int "classes" (List.length all - List.length pairs)
          (List.length collapsed);
        List.iter
          (fun (_, rep) ->
            check_bool "representative kept" true (List.mem rep collapsed))
          pairs;
        check_bool "inputs folded" true
          (List.length pairs >= 2));
    test "collapse pairs are detection-equivalent on the arm alu" (fun () ->
        let ed =
          Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:Arm.Rtl.top
        in
        let c =
          (Synth.Lower.lower (Synth.Flatten.flatten ed Arm.Rtl.top))
            .Synth.Lower.circuit
        in
        let all = F.all ~within:"u_dpath.u_alu" c in
        let collapsed = F.collapse c all in
        let pairs = F.collapse_pairs c all in
        check_bool "count shrinks" true
          (List.length collapsed < List.length all);
        check_int "partition" (List.length all)
          (List.length collapsed + List.length pairs);
        (* every dropped fault must be detected by exactly the tests that
           detect its kept representative, so coverage of the full
           universe is unchanged by collapsing *)
        let rng = Random.State.make [| 5 |] in
        let tests =
          List.init 8 (fun _ ->
              Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c) ~frames:3
                ~piers:[])
        in
        let flags =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:all tests
        in
        let flag_of =
          let tbl = Hashtbl.create (List.length all) in
          List.iteri (fun i f -> Hashtbl.replace tbl f flags.(i)) all;
          Hashtbl.find tbl
        in
        List.iter
          (fun (dropped, rep) ->
            check_bool "class flags agree" true
              (flag_of dropped = flag_of rep))
          pairs) ]

(* ------------------------------------------------------------------ *)
(* Fault simulation.                                                   *)
(* ------------------------------------------------------------------ *)

let flat_circuit design top =
  let ed = Design.Elaborate.elaborate design ~top in
  (Synth.Lower.lower (Synth.Flatten.flatten ed top)).Synth.Lower.circuit

let gcd_circuit () =
  let e = Circuits.Collection.find "gcd" in
  flat_circuit (parse e.Circuits.Collection.e_source)
    e.Circuits.Collection.e_top

(* The packed engine's flags, digested, and its eval delta for one
   seeded multi-word grading run: 100 random PIER tests of 1-6 frames
   (two words, ragged) against the stuck-at list, the transition
   universe and 126 bridges.  The digests were recorded before the
   packed kernels moved onto the compiled netlist; the eval counts were
   re-pinned when dropping sweeps began to stop at the first detecting
   primary output.  Fault dropping, the early exit and the event
   schedule are all in the eval count, so a change to any of them must
   say so and re-pin. *)
let packed_work c =
  let rng = Random.State.make [| 19 |] in
  let piers = Factor.Pier.identify c in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    List.init 100 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c)
          ~frames:(1 + Random.State.int rng 6) ~piers)
  in
  let digest flags =
    let e = Atpg.Fsim.packed_evals () in
    let flags = flags () in
    Printf.sprintf "%s evals=%d"
      (Digest.to_hex
         (Digest.string
            (String.concat ""
               (Array.to_list
                  (Array.map (fun d -> if d then "1" else "0") flags)))))
      (Atpg.Fsim.packed_evals () - e)
  in
  let descriptors faults () =
    Atpg.Fsim.run_descriptors ~engine:Atpg.Fsim.Packed c ~observe ~faults
      tests
  in
  let faults = F.collapse c (F.all c) in
  let stuck =
    digest (fun () ->
        Atpg.Fsim.run ~engine:Atpg.Fsim.Packed c ~observe ~faults tests)
  in
  let transition =
    digest
      (descriptors
         (List.map Atpg.Transition.descriptor (Atpg.Transition.all c)))
  in
  let bridges = Atpg.Bridge.candidates ~rng ~count:126 c in
  [ stuck; transition;
    digest (descriptors (List.map Atpg.Bridge.descriptor bridges)) ]

let pinned_packed_work () =
  List.iter
    (fun (name, c, expected) ->
      List.iter2
        (fun model (want, got) -> check_string (name ^ " " ^ model) want got)
        [ "stuck-at"; "transition"; "bridge" ]
        (List.combine expected (packed_work c)))
    [ ("arm_alu", flat_circuit (Arm.Rtl.design ()) "arm_alu",
       [ "c80370474ec58da54ab061425686808d evals=11473";
         "d57d3a1c6c13480075dcfd94241e60e9 evals=13037";
         "6ded10398d23da043c1c40d6ba064ef7 evals=4039" ]);
      ("gcd", gcd_circuit (),
       [ "91b587390e483b0545295dd6333040bd evals=38770";
         "d6a3ea9ce799253fbdd4af4a62d548ce evals=50083";
         "3e3d3b5f1e2453ea2ea3509bedce1bb4 evals=17319" ]) ]

(* The stand-alone ALU graded by both engines: 126 random 24-cycle PIER
   tests at seed 42 against the collapsed stuck-at list, then 63 8-cycle
   tests and 252 random bridges, drawn from a fresh generator at seed
   42, against the transition universe and the bridges.  Packed flags must equal the reference oracle's
   for every model, and every engine's eval count must reproduce the
   pin line exactly: every engine's work is deterministic, so a change
   that moves the line changes the work done, and must say so and
   re-pin it.  This is the one pin of the reference engine's work; the
   line fixes the packed engine's eval reduction at 47.5x. *)
let alu_engine_evals =
  "packed 24322 (2 words) | reference 1155888 | transition 10629 | \
   bridge 7393"

let alu_engines_agree_pinned () =
  let c = flat_circuit (Arm.Rtl.design ()) "arm_alu" in
  let piers = Factor.Pier.identify c in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let random_tests rng ~count ~frames =
    List.init count (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c) ~frames ~piers)
  in
  (* [f ()] and the growth of [counter] while it ran *)
  let counting counter f =
    let e0 = counter () in
    let r = f () in
    (r, counter () - e0)
  in
  let faults = F.collapse c (F.all c) in
  let tests = random_tests (Random.State.make [| 42 |]) ~count:126 ~frames:24 in
  let stuck kind = Atpg.Fsim.run ~engine:kind c ~observe ~faults tests in
  let words0 = Atpg.Fsim.packed_words () in
  let (packed, packed_evals) =
    counting Atpg.Fsim.packed_evals (fun () -> stuck Atpg.Fsim.Packed)
  in
  let words = Atpg.Fsim.packed_words () - words0 in
  let (reference, ref_evals) =
    counting Atpg.Fsim.ref_evals (fun () -> stuck Atpg.Fsim.Reference)
  in
  check_bool "stuck-at: packed flags = reference flags" true
    (packed = reference);
  let rng = Random.State.make [| 42 |] in
  let tests = random_tests rng ~count:63 ~frames:8 in
  let models =
    [ ("transition",
       List.map Atpg.Transition.descriptor (Atpg.Transition.all c));
      ("bridge",
       List.map Atpg.Bridge.descriptor
         (Atpg.Bridge.candidates ~rng ~count:252 c)) ]
  in
  let model_evals =
    List.map
      (fun (model, faults) ->
        let run kind =
          Atpg.Fsim.run_descriptors ~engine:kind c ~observe ~faults tests
        in
        let (packed, evals) =
          counting Atpg.Fsim.packed_evals (fun () -> run Atpg.Fsim.Packed)
        in
        check_bool (model ^ ": packed flags = reference flags") true
          (packed = run Atpg.Fsim.Reference);
        Printf.sprintf "%s %d" model evals)
      models
  in
  check_string "eval counts" alu_engine_evals
    (String.concat " | "
       (Printf.sprintf "packed %d (%d words)" packed_evals words
        :: Printf.sprintf "reference %d" ref_evals
        :: model_evals))

(* Sweeps that stop at the first detecting primary output, on random
   RTL whose outputs sit at several levels (so a stop leaves deeper nets
   queued): over 64-130 ragged tests (two or three words) with PIER
   loads and observation, the dropping packed engine's flags equal the
   oracle's on stuck-at, transition and bridge faults, and equal the
   nonzero signatures of the full matrix, which never stops early. *)
let early_stop_matches gm =
  let (_, c) = Fuzzgen.build gm in
  let levels = (N.analysis c).N.Analysis.level in
  let po_levels =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun po -> levels.(po)) c.N.pos))
  in
  QCheck.assume (List.length po_levels >= 2);
  let rng =
    Random.State.make [| Hashtbl.hash gm.Fuzzgen.gm_src + 23; fuzz_seed |]
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (N.num_ffs c) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    List.init (64 + Random.State.int rng 67) (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c)
          ~frames:(1 + Random.State.int rng 4) ~piers)
  in
  let faults = F.all c in
  let agree name descs =
    let flags engine =
      Atpg.Fsim.run_descriptors ~engine c ~observe ~faults:descs tests
    in
    flags Atpg.Fsim.Packed = flags Atpg.Fsim.Reference
    || QCheck.Test.fail_reportf "%s: packed and reference flags differ" name
  in
  let sigs =
    Atpg.Fsim.run_matrix c ~observe ~faults:(Array.of_list faults)
      ~active:(Array.init (List.length faults) Fun.id)
      (Array.of_list tests)
  in
  agree "stuck-at" (List.map Atpg.Fsim.stuck_at faults)
  && agree "transition"
       (List.map Atpg.Transition.descriptor (Atpg.Transition.all c))
  && agree "bridge"
       (List.map Atpg.Bridge.descriptor
          (Atpg.Bridge.candidates ~rng ~count:40 c))
  && (Atpg.Fsim.run c ~observe ~faults tests
      = Array.map (fun s -> Bytes.contains s '\001') sigs
      || QCheck.Test.fail_report "run and the matrix's signatures differ")

(* The engine's good planes are reused from word to word: grading three
   24-frame words of the stand-alone ALU allocates less beyond grading
   one of them than a single word's plane set. *)
let planes_reused () =
  let c = flat_circuit (Arm.Rtl.design ()) "arm_alu" in
  let frames = 24 in
  let rng = Random.State.make [| 31 |] in
  let tests =
    List.init (3 * Sim.Packed.width) (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c) ~frames ~piers:[])
  in
  let faults = F.collapse c (F.all c) in
  (* a minor collection before each reading: OCaml 5 adds a domain's
     direct major-heap allocations (the planes) to the counters there *)
  let allocated_bytes () = Gc.minor (); Gc.allocated_bytes () in
  let allocated tests =
    let w0 = Atpg.Fsim.packed_words () in
    let b0 = allocated_bytes () in
    ignore
      (Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults tests
        : bool array);
    (allocated_bytes () -. b0, Atpg.Fsim.packed_words () - w0)
  in
  let first = List.filteri (fun i _ -> i < Sim.Packed.width) tests in
  (* the first run also builds the circuit's analysis *)
  ignore (allocated first);
  let (one, w1) = allocated first in
  let (three, w3) = allocated tests in
  check_int "one word" 1 w1;
  check_int "three words" 3 w3;
  let planes =
    ((2 * frames * N.num_nets c) + (2 * (frames + 1) * max 1 (N.num_ffs c)))
    * (Sys.word_size / 8)
  in
  check_bool
    (Printf.sprintf "two more words allocate %.0f bytes, one plane set %d"
       (three -. one) planes)
    true
    (three -. one < float_of_int planes)

let fsim_tests =
  [ test "stuck PI fault detected by opposite value" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let fault = { F.f_net = c.N.pis.(0); f_stuck = false } in
        let test_pattern v =
          { Atpg.Pattern.p_vectors = [| [| v |] |]; p_loads = [] }
        in
        let detected =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ]
            [ test_pattern true ]
        in
        check_bool "a=1 detects sa0" true detected.(0);
        let missed =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ]
            [ test_pattern false ]
        in
        check_bool "a=0 does not detect sa0" false missed.(0));
    test "x initial state masks detection" (fun () ->
        (* fault on q's cone cannot be seen before the register is loaded *)
        let c =
          circuit
            {|module top (input clk, input d, output reg q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let fault = { F.f_net = c.N.ff_q.(0); f_stuck = false } in
        let one_frame =
          { Atpg.Pattern.p_vectors = [| [| false; true |] |]; p_loads = [] }
        in
        let detected =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ]
            [ one_frame ]
        in
        check_bool "single frame cannot detect" false detected.(0);
        let two_frames =
          { Atpg.Pattern.p_vectors =
              [| [| false; true |]; [| false; true |] |];
            p_loads = [] }
        in
        let detected2 =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ]
            [ two_frames ]
        in
        check_bool "after load it detects" true detected2.(0));
    test "pier loads initialize state" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output reg q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let fault = { F.f_net = c.N.ff_q.(0); f_stuck = false } in
        let with_load =
          { Atpg.Pattern.p_vectors = [| [| false; false |] |];
            p_loads = [ (0, true) ] }
        in
        let detected =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ]
            [ with_load ]
        in
        check_bool "loaded 1 exposes sa0" true detected.(0));
    test "pier observation detects at final state" (fun () ->
        (* fault reaches only the register, which is PIER-observable *)
        let c =
          circuit
            {|module top (input clk, input d, output reg [0:0] q_shadow);
              reg hidden;
              always @(posedge clk) begin hidden <= d; q_shadow <= 0; end
              endmodule|}
        in
        let hidden_idx =
          let found = ref (-1) in
          Array.iteri
            (fun i n -> if n = "hidden" then found := i)
            c.N.ff_names;
          !found
        in
        let fault = { F.f_net = c.N.ff_d.(hidden_idx); f_stuck = false } in
        let t = { Atpg.Pattern.p_vectors = [| [| false; true |] |]; p_loads = [] } in
        let blind =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ fault ] [ t ]
        in
        check_bool "not visible at POs" false blind.(0);
        let seen =
          Atpg.Fsim.run c
            ~observe:{ Atpg.Fsim.ob_pos = true; ob_pier_ffs = [ hidden_idx ] }
            ~faults:[ fault ] [ t ]
        in
        check_bool "visible as stored state" true seen.(0));
    qtest "batched run agrees with single-fault runs" ~count:20
      QCheck.(int_bound 1000)
      (fun seed ->
        let c = circuit c17 in
        let faults = F.all c in
        let rng = Random.State.make [| seed |] in
        let tests =
          List.init 4 (fun _ ->
              Atpg.Pattern.random ~rng ~num_pis:(N.num_pis c) ~frames:1
                ~piers:[])
        in
        let batched = Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults tests in
        List.for_all
          (fun (i, f) ->
            let solo =
              Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults:[ f ] tests
            in
            solo.(0) = batched.(i))
          (List.mapi (fun i f -> (i, f)) faults));
    qtest "random rtl: early-stopping sweeps match the oracle and the matrix"
      ~count:25 Fuzzgen.gen_arbitrary early_stop_matches;
    test "good planes are reused across words" planes_reused;
    test "packed work pinned" pinned_packed_work;
    test "alu: packed agrees with reference, eval counts pinned"
      alu_engines_agree_pinned ]

(* ------------------------------------------------------------------ *)
(* PODEM.                                                              *)
(* ------------------------------------------------------------------ *)

(* Random assign/flip/unassign batches over random sequential RTL,
   1-4 frames, random PIERs and fault: after every implication the
   incremental planes and D-frontier must equal a full simulation and
   scan.  Setting an input to a random value covers assigning it,
   flipping it and unassigning it. *)
let implication_matches_full gm =
  let (_, c) = Fuzzgen.build gm in
  let faults = Array.of_list (F.all c) in
  let rng =
    Random.State.make [| Hashtbl.hash gm.Fuzzgen.gm_src; fuzz_seed |]
  in
  Array.length faults = 0
  || List.for_all
       (fun frames ->
         let piers =
           List.filter
             (fun _ -> Random.State.bool rng)
             (List.init (N.num_ffs c) Fun.id)
         in
         let fault = faults.(Random.State.int rng (Array.length faults)) in
         let batches =
           List.init (1 + Random.State.int rng 40) (fun _ ->
               List.init (1 + Random.State.int rng 3) (fun _ ->
                   (Random.State.bits rng, Random.State.int rng 3)))
         in
         match
           P.check_implication c
             { P.frames; backtrack_limit = 100; piers; seed = frames }
             fault batches
         with
         | Ok () -> true
         | Error e ->
           QCheck.Test.fail_reportf "%s, %d frames, piers [%s]: %s"
             (F.to_string c fault) frames
             (String.concat ";" (List.map string_of_int piers))
             e)
       [ 1; 2; 3; 4 ]

(* Every fault's outcome and test, digested, plus the summed decisions
   and backtracks.  The pinned values were recorded when PODEM still
   re-simulated every net after every decision; implication is a pure
   function of the assignment, so they may only move with a deliberate
   change to the search itself. *)
let podem_trace c ~frames ~piers faults =
  let dec = Obs.Metrics.counter "factor.podem.decisions"
  and bt = Obs.Metrics.counter "factor.podem.backtracks" in
  let d0 = Obs.Metrics.value dec and b0 = Obs.Metrics.value bt in
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf (F.to_string c f);
      (match P.run c { P.frames; backtrack_limit = 100; piers; seed = 7 } f with
       | P.Detected t ->
         Array.iter
           (fun v ->
             Buffer.add_char buf ' ';
             Array.iter
               (fun b -> Buffer.add_char buf (if b then '1' else '0'))
               v)
           t.Atpg.Pattern.p_vectors;
         List.iter
           (fun (i, b) -> Buffer.add_string buf (Printf.sprintf " L%d=%b" i b))
           t.Atpg.Pattern.p_loads
       | P.Exhausted -> Buffer.add_string buf " E"
       | P.Aborted -> Buffer.add_string buf " A");
      Buffer.add_char buf '\n')
    faults;
  Printf.sprintf "%s decisions=%d backtracks=%d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Obs.Metrics.value dec - d0)
    (Obs.Metrics.value bt - b0)

let pinned_podem_traces () =
  let flat design top =
    let ed = Design.Elaborate.elaborate design ~top in
    (Synth.Lower.lower (Synth.Flatten.flatten ed top)).Synth.Lower.circuit
  in
  let c = circuit c17 in
  check_string "c17" "630fd5410f117ac5621c5215d75850cb decisions=85 backtracks=0"
    (podem_trace c ~frames:1 ~piers:[] (F.all c));
  List.iter
    (fun (name, expected) ->
      let e = Circuits.Collection.find name in
      let module C = Circuits.Collection in
      let c = flat (parse e.C.e_source) e.C.e_top in
      let mut = (List.hd e.C.e_muts).Factor.Flow.ms_path in
      let piers =
        List.filter (fun i -> i mod 2 = 0) (List.init (N.num_ffs c) Fun.id)
      in
      check_string name expected
        (podem_trace c ~frames:2 ~piers (F.collapse c (F.all ~within:mut c))))
    [ ("gcd",
       "124d379d54568bfab8e282ecf90c8473 decisions=5673 backtracks=4021");
      ("arbiter",
       "1ae019941f26b737489ca82ee481472f decisions=199 backtracks=147") ];
  let alu = flat (Arm.Rtl.design ()) "arm_alu" in
  let faults = F.collapse alu (F.all alu) in
  check_string "alu, 1 frame"
    "fcab5ec6278b1bc9d1c934e4ac21bd80 decisions=4606 backtracks=355"
    (podem_trace alu ~frames:1 ~piers:[] faults);
  (* the implication must stay event-driven: well under one full
     re-simulation per decision *)
  let evals = Obs.Metrics.counter "factor.podem.evals" in
  let e0 = Obs.Metrics.value evals in
  check_string "alu, 2 frames"
    "4e266b691256a43858c2803275829921 decisions=4539 backtracks=152"
    (podem_trace alu ~frames:2 ~piers:[] faults);
  let full = (List.length faults + 4539 + 152) * 2 * N.num_nets alu in
  check_bool "evals below full re-simulation" true
    (Obs.Metrics.value evals - e0 < full / 4)

let podem_cfg ~frames ~backtrack_limit =
  { P.frames; backtrack_limit; piers = []; seed = 0 }

let podem_tests =
  [ test "all c17 faults detected combinationally" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        List.iter
          (fun f ->
            match P.run c (podem_cfg ~frames:1 ~backtrack_limit:50) f with
            | P.Detected _ -> ()
            | _ -> Alcotest.failf "fault %s not detected" (F.to_string c f))
          faults);
    test "generated tests verified by fault simulation" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        List.iter
          (fun f ->
            match P.run c (podem_cfg ~frames:1 ~backtrack_limit:50) f with
            | P.Detected t ->
              let confirmed =
                Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe
                  ~faults:[ f ] [ t ]
              in
              check_bool "fsim confirms" true confirmed.(0)
            | _ -> Alcotest.fail "expected detection")
          faults);
    test "redundant fault proven untestable" (fun () ->
        let c = circuit redundant in
        (* y sa... the classic redundancy: t1 path under a&b vs a&~b; the
           or-gate input faults are redundant.  Find a fault PODEM proves
           untestable. *)
        let faults = F.all c in
        let untestable =
          List.filter
            (fun f ->
              P.run c (podem_cfg ~frames:1 ~backtrack_limit:10_000) f
              = P.Exhausted)
            faults
        in
        check_bool "at least one redundant fault" true (untestable <> []));
    test "sequential fault needs two frames" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y);
              reg q; always @(posedge clk) q <= d;
              assign y = q; endmodule|}
        in
        let fault = { F.f_net = c.N.ff_q.(0); f_stuck = false } in
        (match P.run c (podem_cfg ~frames:1 ~backtrack_limit:100) fault with
         | P.Detected _ -> Alcotest.fail "should not detect in one frame"
         | _ -> ());
        (match P.run c (podem_cfg ~frames:2 ~backtrack_limit:100) fault with
         | P.Detected t ->
           check_int "two frames" 2 (Atpg.Pattern.num_frames t)
         | _ -> Alcotest.fail "should detect in two frames"));
    test "pier turns sequential into single-frame" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y);
              reg q; always @(posedge clk) q <= d;
              assign y = q; endmodule|}
        in
        let fault = { F.f_net = c.N.ff_q.(0); f_stuck = false } in
        match
          P.run c
            { (podem_cfg ~frames:1 ~backtrack_limit:100) with piers = [ 0 ] }
            fault
        with
        | P.Detected t ->
          check_bool "uses a load" true (t.Atpg.Pattern.p_loads <> [])
        | _ -> Alcotest.fail "pier load should expose the fault");
    test "counter reaching a decoded state needs deep frames" (fun () ->
        (* y fires only at count 5: the counter must be reset and clocked
           five times, so a stuck-at-0 on y needs at least seven frames *)
        let c =
          circuit
            {|module top (input clk, rst, output y);
              reg [2:0] q;
              always @(posedge clk) begin
                if (rst) q <= 3'd0; else q <= q + 3'd1;
              end
              assign y = (q == 3'd5); endmodule|}
        in
        let fault = { F.f_net = c.N.pos.(0); f_stuck = false } in
        (match P.run c (podem_cfg ~frames:3 ~backtrack_limit:5000) fault with
         | P.Detected _ -> Alcotest.fail "needs more than three frames"
         | _ -> ());
        (match P.run c (podem_cfg ~frames:8 ~backtrack_limit:5000) fault with
         | P.Detected t ->
           check_bool "long test" true (Atpg.Pattern.num_frames t >= 7)
         | _ -> Alcotest.fail "eight frames should detect"));
    qtest "random rtl: incremental implication matches full simulation"
      ~count:60 Fuzzgen.gen_arbitrary implication_matches_full;
    test "search traces pinned" pinned_podem_traces ]

(* ------------------------------------------------------------------ *)
(* Generation driver.                                                  *)
(* ------------------------------------------------------------------ *)

(* Every fault's outcome and every test of one [Gen.run], digested,
   plus the SAT engine's verdict counts and summed solver statistics.
   The backtrack limit is low enough that PODEM aborts, and the SAT
   conflict limit low enough that SAT gives up on some of those aborts,
   so every deterministic phase (PODEM, SAT rescue, Simgen) does work.
   Budgets are infinite: the run is a pure function of its inputs and
   must read the same at every job count. *)
let gen_trace c ~engine ~simgen ~jobs faults =
  let piers =
    List.filter (fun i -> i mod 2 = 0) (List.init (N.num_ffs c) Fun.id)
  in
  let cfg =
    { Atpg.Gen.default_config with
      g_backtrack_limit = 2;
      g_max_frames = 2;
      g_random_sequences = 4;
      g_random_batches = 1;
      g_fault_budget = infinity;
      g_total_budget = infinity;
      g_piers = piers;
      g_simgen_fallback = simgen;
      g_engine = engine;
      g_sat_conflicts = 300;
      g_jobs = jobs }
  in
  let r = Atpg.Gen.run c cfg faults in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f, o) ->
      Buffer.add_string buf (F.to_string c f);
      Buffer.add_string buf
        (match o with
         | Atpg.Gen.Detected -> " D\n"
         | Atpg.Gen.Untestable -> " U\n"
         | Atpg.Gen.Aborted_fault -> " A\n"
         | Atpg.Gen.Budget_skipped -> " S\n"))
    r.Atpg.Gen.r_outcomes;
  Buffer.add_string buf (Atpg.Pattern.write_string r.Atpg.Gen.r_tests);
  Printf.sprintf "%s %d/%d/%d sat=%d/%d %s"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    r.Atpg.Gen.r_detected r.Atpg.Gen.r_untestable r.Atpg.Gen.r_aborted
    r.Atpg.Gen.r_sat_detected r.Atpg.Gen.r_sat_untestable
    (Sat.Solver.stats_to_string r.Atpg.Gen.r_sat_stats)

(* One case per (circuit, engine, Simgen fallback), each run serially
   and on four jobs against the same pin. *)
let pinned_gen_runs =
  let circuits =
    lazy
      (List.map
         (fun name ->
           let e = Circuits.Collection.find name in
           let module C = Circuits.Collection in
           let c = flat_circuit (parse e.C.e_source) e.C.e_top in
           let mut = (List.hd e.C.e_muts).Factor.Flow.ms_path in
           (name, (c, F.collapse c (F.all ~within:mut c))))
         [ "gcd"; "arbiter" ])
  in
  let pins =
    [ ("gcd", Atpg.Gen.Podem_only, false,
       "6e7ef67113009a87ffa95be63d96032a 188/22/58 sat=0/0 "
       ^ "conflicts 0 | decisions 0 | propagations 0 | restarts 0 | learned (total) 0");
      ("gcd", Atpg.Gen.Podem_only, true,
       "e373a5b513ab9c7b682944cc030a0572 241/22/5 sat=0/0 "
       ^ "conflicts 0 | decisions 0 | propagations 0 | restarts 0 | learned (total) 0");
      ("gcd", Atpg.Gen.Sat_only, false,
       "acf7158cd48bf6c34c2e33d061cea3d0 220/0/48 sat=19/0 "
       ^ "conflicts 21490 | decisions 69644 | propagations 3606846 | restarts 122 | learned (total) 21350");
      ("gcd", Atpg.Gen.Sat_only, true,
       "fe79d93ec9b6875fb7aa68ccccffe3ed 260/0/8 sat=19/0 "
       ^ "conflicts 21490 | decisions 69644 | propagations 3606846 | restarts 122 | learned (total) 21350");
      ("gcd", Atpg.Gen.Hybrid, false,
       "bdda79d63ebc158868a239516f93e107 214/22/32 sat=9/0 "
       ^ "conflicts 13149 | decisions 42548 | propagations 2183789 | restarts 73 | learned (total) 13067");
      ("gcd", Atpg.Gen.Hybrid, true,
       "21add622ca1b01d69dc61a049eab553e 242/22/4 sat=9/0 "
       ^ "conflicts 13149 | decisions 42548 | propagations 2183789 | restarts 73 | learned (total) 13067");
      ("arbiter", Atpg.Gen.Podem_only, false,
       "b01750585849e4e75a4f98781db519c2 67/1/2 sat=0/0 "
       ^ "conflicts 0 | decisions 0 | propagations 0 | restarts 0 | learned (total) 0");
      ("arbiter", Atpg.Gen.Podem_only, true,
       "ddd06585ea5cb989d5a0ad9173ee68f6 68/1/1 sat=0/0 "
       ^ "conflicts 0 | decisions 0 | propagations 0 | restarts 0 | learned (total) 0");
      ("arbiter", Atpg.Gen.Sat_only, false,
       "ef404c773d720fe648960a44c6b8db6c 67/3/0 sat=4/3 "
       ^ "conflicts 514 | decisions 909 | propagations 48140 | restarts 2 | learned (total) 497");
      ("arbiter", Atpg.Gen.Sat_only, true,
       "ef404c773d720fe648960a44c6b8db6c 67/3/0 sat=4/3 "
       ^ "conflicts 514 | decisions 909 | propagations 48140 | restarts 2 | learned (total) 497");
      ("arbiter", Atpg.Gen.Hybrid, false,
       "23ab3f7cad07d17fb79cebfbb903c4f1 67/3/0 sat=0/2 "
       ^ "conflicts 222 | decisions 362 | propagations 22597 | restarts 1 | learned (total) 215");
      ("arbiter", Atpg.Gen.Hybrid, true,
       "23ab3f7cad07d17fb79cebfbb903c4f1 67/3/0 sat=0/2 "
       ^ "conflicts 222 | decisions 362 | propagations 22597 | restarts 1 | learned (total) 215") ]
  in
  List.map
    (fun (name, engine, simgen, expected) ->
      let label =
        Printf.sprintf "pinned: %s %s%s" name (Atpg.Gen.engine_name engine)
          (if simgen then "+simgen" else "")
      in
      test label (fun () ->
          let (c, faults) = List.assoc name (Lazy.force circuits) in
          List.iter
            (fun jobs ->
              check_string
                (Printf.sprintf "%s, %d jobs" label jobs)
                expected
                (gen_trace c ~engine ~simgen ~jobs faults))
            [ 1; 4 ]))
    pins

(* A fault the run deadline leaves undecided is budget-skipped, whichever
   stage the deadline stops.  gcd without PIERs, hybrid, no per-fault
   budget: unbudgeted it ends with nothing aborted (377 detected, 191
   untestable, in about 4 s), so under a binding run budget nothing may
   read aborted either.  The Flow half makes the deadline land in the
   SAT rescue: a multiplier MUT whose PODEM sweep aborts quickly on
   almost every fault, and whose rescue takes far longer than the
   budget.  That row must read degraded, not ok. *)
let run_deadline_skips () =
  let c = gcd_circuit () in
  let faults = F.collapse c (F.all c) in
  let r =
    Atpg.Gen.run c
      { Atpg.Gen.default_config with
        g_fault_budget = infinity; g_total_budget = 0.5 }
      faults
  in
  check_int "gcd: nothing aborted" 0 r.Atpg.Gen.r_aborted;
  check_bool "gcd: some faults budget-skipped" true
    (r.Atpg.Gen.r_budget_skipped > 0);
  let env =
    Factor.Compose.make_env
      (parse
         {|module mul (input [9:0] a, b, output y);
             assign y = (a * b == 20'd1031);
           endmodule
           module top (input [9:0] a, b, output y);
             mul u_mut (.a(a), .b(b), .y(y));
           endmodule|})
      ~top:"top"
  in
  let row =
    Factor.Flow.transform env (Factor.Compose.create_session ())
      Factor.Flow.Compositional
      { Factor.Flow.ms_name = "mul"; ms_path = "u_mut" }
      ~surrounding_before:0
  in
  let cfg =
    { Atpg.Gen.default_config with
      g_max_frames = 1; g_backtrack_limit = 1; g_restarts = 1;
      g_fault_budget = infinity; g_total_budget = 1.0 }
  in
  match Factor.Flow.transformed_atpg_all ~jobs:1 [ row ] cfg with
  | [ { Factor.Flow.mo_status = Factor.Flow.Mut_degraded why;
        mo_row = Some a; _ } ] ->
    check_string "the row names its skipped faults"
      (Printf.sprintf "budget expired: %d fault(s) skipped"
         a.Factor.Flow.ar_result.Atpg.Gen.r_budget_skipped)
      why
  | _ -> Alcotest.fail "a row the deadline cut short must read degraded"

let gen_tests =
  [ test "full coverage on c17" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        check_bool "100%" true (r.Atpg.Gen.r_coverage >= 99.9);
        check_int "no aborts" 0 r.Atpg.Gen.r_aborted);
    test "redundancy reported as untestable" (fun () ->
        let c = circuit redundant in
        let faults = F.all c in
        let cfg =
          { Atpg.Gen.default_config with
            g_backtrack_limit = 10_000;
            g_random_batches = 2 }
        in
        let r = Atpg.Gen.run c cfg faults in
        check_bool "untestable found" true (r.Atpg.Gen.r_untestable > 0);
        check_bool "effectiveness above coverage" true
          (r.Atpg.Gen.r_effectiveness > r.Atpg.Gen.r_coverage -. 0.001));
    test "tests in result detect what coverage claims" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let flags =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
        in
        let detected = Array.to_list flags |> List.filter Fun.id |> List.length in
        check_int "matches" r.Atpg.Gen.r_detected detected);
    test "netlist analysis built at most once per circuit" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let before = N.analysis_builds () in
        ignore (Atpg.Gen.run c Atpg.Gen.default_config faults);
        let after = N.analysis_builds () in
        (* random phase, PODEM and fault simulation all share one
           memoized analysis of the circuit *)
        check_bool "at most one build" true (after - before <= 1));
    test "netlist analysis does not keep a dropped circuit alive" (fun () ->
        let w = Weak.create 1 in
        let[@inline never] analyse_and_drop () =
          let c = circuit c17 in
          ignore (N.analysis c);
          Weak.set w 0 (Some c)
        in
        analyse_and_drop ();
        Gc.full_major ();
        check_bool "circuit collected" false (Weak.check w 0));
    test "budget exhaustion skips remaining" (fun () ->
        let c = circuit (Arm.Rtl.source |> fun _ ->
          {|module top (input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= q ^ d; endmodule|}) in
        let faults = F.all c in
        (* budget starvation is accounted separately from engine
           give-ups: nothing here was genuinely attempted and aborted,
           serially or on the pool *)
        List.iter
          (fun jobs ->
            let cfg =
              { Atpg.Gen.default_config with
                g_total_budget = 0.0; g_random_batches = 0; g_jobs = jobs }
            in
            let r = Atpg.Gen.run c cfg faults in
            check_int
              (Printf.sprintf "all budget-skipped (j%d)" jobs)
              (List.length faults) r.Atpg.Gen.r_budget_skipped;
            check_int (Printf.sprintf "none aborted (j%d)" jobs) 0
              r.Atpg.Gen.r_aborted)
          [ 1; 4 ]) ]
  @ [ test "no frame to search is refused, not certified" (fun () ->
          let c = circuit c17 in
          match
            Atpg.Gen.run c
              { Atpg.Gen.default_config with g_max_frames = 0 }
              (F.all c)
          with
          | _ -> Alcotest.fail "a run with no frame answered"
          | exception Invalid_argument _ -> ()) ]
  @ pinned_gen_runs
  @ [ test "a run deadline skips faults, never aborts them"
        run_deadline_skips ]

(* ------------------------------------------------------------------ *)
(* Compaction.                                                          *)
(* ------------------------------------------------------------------ *)

let compact_tests =
  [ test "compaction preserves detection" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let before =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
          |> Array.to_list |> List.filter Fun.id |> List.length
        in
        let compacted =
          Atpg.Compact.run c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
        in
        check_int "same detection" before compacted.Atpg.Compact.cp_detected;
        let after =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults
            compacted.Atpg.Compact.cp_tests
          |> Array.to_list |> List.filter Fun.id |> List.length
        in
        check_int "replayed detection" before after);
    test "compaction shrinks a redundant test set" (fun () ->
        let c = circuit "module top (input a, b, output y); assign y = a & b; endmodule" in
        let faults = F.all c in
        let mk a b =
          { Atpg.Pattern.p_vectors = [| [| a; b |] |]; p_loads = [] }
        in
        (* the same useful test repeated plus a useless all-ones clone *)
        let tests = [ mk true true; mk true true; mk true true;
                      mk true false; mk false true ] in
        let compacted =
          Atpg.Compact.run c ~observe:Atpg.Fsim.default_observe ~faults tests
        in
        check_bool "fewer tests" true
          (compacted.Atpg.Compact.cp_after < compacted.Atpg.Compact.cp_before));
    test "empty input compacts to empty" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        let compacted =
          Atpg.Compact.run c ~observe:Atpg.Fsim.default_observe ~faults []
        in
        check_int "nothing" 0 compacted.Atpg.Compact.cp_after;
        check_int "nothing detected" 0 compacted.Atpg.Compact.cp_detected) ]

(* ------------------------------------------------------------------ *)
(* SCOAP testability measures.                                          *)
(* ------------------------------------------------------------------ *)

let scoap_tests =
  [ test "primary inputs cost one" (fun () ->
        let c = circuit "module top (input a, b, output y); assign y = a & b; endmodule" in
        let t = Atpg.Scoap.compute c in
        Array.iter
          (fun pi ->
            check_int "cc0" 1 t.Atpg.Scoap.sc_cc0.(pi);
            check_int "cc1" 1 t.Atpg.Scoap.sc_cc1.(pi))
          c.N.pis);
    test "and gate asymmetry" (fun () ->
        let c = circuit "module top (input a, b, output y); assign y = a & b; endmodule" in
        let t = Atpg.Scoap.compute c in
        let y = c.N.pos.(0) in
        (* 1 needs both inputs, 0 needs either *)
        check_int "cc1" 3 t.Atpg.Scoap.sc_cc1.(y);
        check_int "cc0" 2 t.Atpg.Scoap.sc_cc0.(y);
        check_int "observable at output" 0 t.Atpg.Scoap.sc_co.(y));
    test "deeper logic costs more" (fun () ->
        let c =
          circuit
            {|module top (input [7:0] a, output all_ones, output one_bit);
              assign all_ones = &a;
              assign one_bit = a[0]; endmodule|}
        in
        let t = Atpg.Scoap.compute c in
        let find name =
          let found = ref (-1) in
          Array.iteri (fun i n -> if n = name then found := c.N.pos.(i)) c.N.po_names;
          !found
        in
        check_bool "reduction harder to set" true
          (t.Atpg.Scoap.sc_cc1.(find "all_ones")
           > t.Atpg.Scoap.sc_cc1.(find "one_bit")));
    test "sequential crossing adds a penalty" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y);
              reg q; always @(posedge clk) q <= d;
              assign y = q; endmodule|}
        in
        let t = Atpg.Scoap.compute c in
        check_bool "register costs more than a wire" true
          (t.Atpg.Scoap.sc_cc1.(c.N.ff_q.(0)) > 10));
    test "fault ranking is hardest first" (fun () ->
        let c = circuit c17 in
        let t = Atpg.Scoap.compute c in
        let faults = F.all c in
        let ranked = Atpg.Scoap.rank_faults t faults ~n:5 in
        check_int "five" 5 (List.length ranked);
        let costs = List.map snd ranked in
        check_bool "descending" true
          (List.sort (fun a b -> compare b a) costs = costs));
    test "summary counts live sites" (fun () ->
        let c = circuit c17 in
        let t = Atpg.Scoap.compute c in
        let s = Atpg.Scoap.summarize c t in
        check_int "all controllable" 0 s.Atpg.Scoap.su_uncontrollable;
        check_int "all observable" 0 s.Atpg.Scoap.su_unobservable;
        check_bool "sites counted" true (s.Atpg.Scoap.su_nets > 5)) ]

(* ------------------------------------------------------------------ *)
(* Diagnosis.                                                           *)
(* ------------------------------------------------------------------ *)

let diagnose_tests =
  [ test "injected fault is the top candidate" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let dict =
          Atpg.Diagnose.build c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
        in
        (* pretend chip #7 carries the 7th fault *)
        let defect = List.nth faults 7 in
        let observed = Atpg.Diagnose.observe_defect dict defect in
        (match Atpg.Diagnose.diagnose dict observed with
         | best :: _ ->
           check_int "no missed failures" 0 best.Atpg.Diagnose.ca_missed;
           check_int "no extra failures" 0 best.Atpg.Diagnose.ca_extra;
           (* the defect itself must be among the exact matches *)
           let exact = Atpg.Diagnose.exact_matches dict observed in
           check_bool "defect in exact set" true
             (List.exists (fun c -> c.Atpg.Diagnose.ca_fault = defect) exact)
         | [] -> Alcotest.fail "no candidates"));
    test "every fault diagnoses into its equivalence class" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let dict =
          Atpg.Diagnose.build c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
        in
        List.iter
          (fun defect ->
            let observed = Atpg.Diagnose.observe_defect dict defect in
            let exact = Atpg.Diagnose.exact_matches dict observed in
            check_bool "self-explaining" true
              (List.exists
                 (fun c -> c.Atpg.Diagnose.ca_fault = defect)
                 exact))
          faults);
    test "resolution improves with more tests" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let few =
          Atpg.Diagnose.build c ~observe:Atpg.Fsim.default_observe ~faults
            (List.filteri (fun i _ -> i < 1) r.Atpg.Gen.r_tests)
        in
        let many =
          Atpg.Diagnose.build c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Gen.r_tests
        in
        check_bool "more tests, finer classes" true
          (Atpg.Diagnose.resolution many <= Atpg.Diagnose.resolution few)) ]

(* ------------------------------------------------------------------ *)
(* Vector files.                                                        *)
(* ------------------------------------------------------------------ *)

let vector_file_tests =
  [ test "write/read round trip" (fun () ->
        let rng = Random.State.make [| 5 |] in
        let tests =
          List.init 5 (fun _ ->
              Atpg.Pattern.random ~rng ~num_pis:7 ~frames:3 ~piers:[ 2; 9 ])
        in
        let back =
          Atpg.Pattern.read_string
            (Atpg.Pattern.write_string ~pi_names:[| "a"; "b" |] tests)
        in
        check_bool "identical" true (back = tests));
    test "rejects malformed input" (fun () ->
        match Atpg.Pattern.read_string "test\nvec 01x0\nend\n" with
        | exception Atpg.Pattern.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    test "parse errors carry their line" (fun () ->
        let parse s =
          match Atpg.Pattern.read_string s with
          | exception Atpg.Pattern.Parse_error (line, msg) -> (line, msg)
          | _ -> Alcotest.fail "expected parse error"
        in
        check_bool "bad bit on line 3" true
          (parse "# pins: a b\ntest\nvec 0x\nend\n" = (3, "bad bit 'x'"));
        check_bool "a non-numeric flip-flop is a bad load line" true
          (parse "test\nload x 1\n" = (2, "bad load line: load x 1"));
        check_bool "so is a load value other than 0 or 1" true
          (parse "test\nvec 01\nload 3 x\n"
           = (3, "bad load line: load 3 x"));
        check_bool "unterminated block names its test line" true
          (parse "test\nvec 01\nend\n\ntest\nvec 10\n"
           = (5, "unterminated test block")));
    test "tests read for a circuit must fit it" (fun () ->
        let read s =
          match Atpg.Pattern.read_string_for ~num_pis:3 ~num_ffs:2 s with
          | exception Atpg.Pattern.Parse_error (line, msg) -> Error (line, msg)
          | tests -> Ok (List.length tests)
        in
        check_bool "a fitting test reads" true
          (read "test\nload 1 0\nvec 010\nend\n" = Ok 1);
        check_bool "a narrow vec is refused at its line" true
          (read "test\nvec 010\nvec 01\nend\n"
           = Error (3, "2-bit vec, the design has 3 inputs"));
        check_bool "so is a wide one" true
          (read "test\nvec 0101\nend\n"
           = Error (2, "4-bit vec, the design has 3 inputs"));
        check_bool "and a load of a missing flip-flop" true
          (read "test\nload 2 1\nvec 010\nend\n"
           = Error (2, "load of flip-flop 2, the design has 2 flip-flops"));
        check_bool "read_string does not check" true
          (List.length (Atpg.Pattern.read_string "test\nload 2 1\nvec 0\nend\n")
           = 1));
    test "rejects unterminated block" (fun () ->
        match Atpg.Pattern.read_string "test\nvec 0101\n" with
        | exception Atpg.Pattern.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    test "replayed vectors detect the same faults" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let back =
          Atpg.Pattern.read_string (Atpg.Pattern.write_string r.Atpg.Gen.r_tests)
        in
        let flags =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults back
        in
        let detected =
          Array.to_list flags |> List.filter Fun.id |> List.length
        in
        check_int "same" r.Atpg.Gen.r_detected detected) ]

(* ------------------------------------------------------------------ *)
(* Bridging faults.                                                     *)
(* ------------------------------------------------------------------ *)

let bridge_tests =
  [ test "wired-and bridge detected by a distinguishing test" (fun () ->
        (* y1 = a, y2 = b; bridge(a-net, b-net) wired-AND shows at y1
           when a=1, b=0 *)
        let c =
          circuit
            "module top (input a, b, output y1, y2); assign y1 = a; assign y2 = b; endmodule"
        in
        let bridge =
          { Atpg.Bridge.b_net1 = c.N.pis.(0); b_net2 = c.N.pis.(1);
            b_kind = Atpg.Bridge.Wired_and }
        in
        let t01 = { Atpg.Pattern.p_vectors = [| [| true; false |] |]; p_loads = [] } in
        let t11 = { Atpg.Pattern.p_vectors = [| [| true; true |] |]; p_loads = [] } in
        check_bool "1,0 detects" true
          (Atpg.Bridge.coverage c ~observe:Atpg.Fsim.default_observe
             ~bridges:[ bridge ] [ t01 ] = 100.0);
        check_bool "1,1 does not" true
          (Atpg.Bridge.coverage c ~observe:Atpg.Fsim.default_observe
             ~bridges:[ bridge ] [ t11 ] = 0.0));
    test "wired-or polarity" (fun () ->
        let c =
          circuit
            "module top (input a, b, output y1, y2); assign y1 = a; assign y2 = b; endmodule"
        in
        let bridge =
          { Atpg.Bridge.b_net1 = c.N.pis.(0); b_net2 = c.N.pis.(1);
            b_kind = Atpg.Bridge.Wired_or }
        in
        let t01 = { Atpg.Pattern.p_vectors = [| [| false; true |] |]; p_loads = [] } in
        check_bool "0,1 detects on y1" true
          (Atpg.Bridge.coverage c ~observe:Atpg.Fsim.default_observe
             ~bridges:[ bridge ] [ t01 ] = 100.0));
    test "a short does not latch across frames" (fun () ->
        (* the two nets are equal in every frame, so the short is
           invisible: frame 0's wired value must not carry into frame 1 *)
        let c =
          circuit
            "module top (input a, b, output y1, y2); assign y1 = a; assign y2 = b; endmodule"
        in
        List.iter
          (fun (kind, v0, v1) ->
            let bridge =
              { Atpg.Bridge.b_net1 = c.N.pis.(0); b_net2 = c.N.pis.(1);
                b_kind = kind }
            in
            let t =
              { Atpg.Pattern.p_vectors = [| [| v0; v0 |]; [| v1; v1 |] |];
                p_loads = [] }
            in
            check_bool
              (Printf.sprintf "%s: (%b,%b) then (%b,%b) does not detect"
                 (if kind = Atpg.Bridge.Wired_and then "wired-and"
                  else "wired-or")
                 v0 v0 v1 v1)
              true
              (Atpg.Bridge.coverage c ~observe:Atpg.Fsim.default_observe
                 ~bridges:[ bridge ] [ t ] = 0.0))
          [ (Atpg.Bridge.Wired_and, false, true);
            (Atpg.Bridge.Wired_or, true, false) ]);
    test "candidate population is well formed" (fun () ->
        let c = circuit c17 in
        let rng = Random.State.make [| 4 |] in
        let bridges = Atpg.Bridge.candidates ~rng ~count:40 c in
        check_int "count" 40 (List.length bridges);
        List.iter
          (fun b ->
            check_bool "distinct nets" true
              (b.Atpg.Bridge.b_net1 <> b.Atpg.Bridge.b_net2))
          bridges);
    test "stuck-at tests catch most bridges on c17" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let rng = Random.State.make [| 9 |] in
        let bridges = Atpg.Bridge.candidates ~rng ~count:60 c in
        let cov =
          Atpg.Bridge.coverage c ~observe:Atpg.Fsim.default_observe ~bridges
            r.Atpg.Gen.r_tests
        in
        check_bool "above 70%" true (cov > 70.0)) ]

(* ------------------------------------------------------------------ *)
(* Transition faults.                                                   *)
(* ------------------------------------------------------------------ *)

let transition_tests =
  [ test "needs a launched transition" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let fault = { Atpg.Transition.t_net = c.N.pis.(0); t_rise = true } in
        let steady =
          { Atpg.Pattern.p_vectors = [| [| true |]; [| true |] |]; p_loads = [] }
        in
        let rising =
          { Atpg.Pattern.p_vectors = [| [| false |]; [| true |] |]; p_loads = [] }
        in
        let falling =
          { Atpg.Pattern.p_vectors = [| [| true |]; [| false |] |]; p_loads = [] }
        in
        let cov t =
          Atpg.Transition.coverage c ~observe:Atpg.Fsim.default_observe
            ~faults:[ fault ] [ t ]
        in
        check_bool "steady misses" true (cov steady = 0.0);
        check_bool "rising detects slow-to-rise" true (cov rising = 100.0);
        check_bool "falling misses slow-to-rise" true (cov falling = 0.0));
    test "slow-to-fall polarity" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let fault = { Atpg.Transition.t_net = c.N.pis.(0); t_rise = false } in
        let falling =
          { Atpg.Pattern.p_vectors = [| [| true |]; [| false |] |]; p_loads = [] }
        in
        check_bool "falling detects" true
          (Atpg.Transition.coverage c ~observe:Atpg.Fsim.default_observe
             ~faults:[ fault ] [ falling ] = 100.0));
    test "multi-cycle sequences reach high transition coverage" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let cov =
          Atpg.Transition.coverage c ~observe:Atpg.Fsim.default_observe
            ~faults:(Atpg.Transition.all c) r.Atpg.Gen.r_tests
        in
        check_bool "above 60%" true (cov > 60.0)) ]

(* ------------------------------------------------------------------ *)
(* Simulation-based generation.                                         *)
(* ------------------------------------------------------------------ *)

(* Every Simgen outcome on a fault sample of gcd (with half its
   registers as PIERs), digested: the test found, or "none".  Recorded
   while the fitness still ran on boxed Logic3 words; scores, the RNG
   stream and so every test depend only on the three-valued semantics,
   so the digest may only move with a deliberate change to the
   search. *)
let pinned_simgen_outcomes () =
  let c = gcd_circuit () in
  let piers =
    List.filter (fun i -> i mod 2 = 0) (List.init (N.num_ffs c) Fun.id)
  in
  let cfg = { Atpg.Simgen.default_config with sg_piers = piers; sg_seed = 3 } in
  let faults = List.filteri (fun i _ -> i mod 7 = 0) (F.collapse c (F.all c)) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf (F.to_string c f);
      Buffer.add_string buf
        (match Atpg.Simgen.run c cfg f with
         | Some t -> Atpg.Pattern.to_string t
         | None -> " none");
      Buffer.add_char buf '\n')
    faults;
  check_string "gcd sample" "89354e3abd4afa9761a627286c5c4e6b faults=82"
    (Printf.sprintf "%s faults=%d"
       (Digest.to_hex (Digest.string (Buffer.contents buf)))
       (List.length faults))

let simgen_tests =
  [ test "detects combinational faults" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Simgen.campaign c Atpg.Simgen.default_config faults in
        check_bool "high coverage" true (r.Atpg.Simgen.sr_coverage > 95.0));
    test "evolved tests verified by fault simulation" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Simgen.campaign c Atpg.Simgen.default_config faults in
        let flags =
          Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults
            r.Atpg.Simgen.sr_tests
        in
        let detected =
          Array.to_list flags |> List.filter Fun.id |> List.length
        in
        check_int "replay matches" r.Atpg.Simgen.sr_detected detected);
    test "reaches deep sequential states" (fun () ->
        (* y fires only at count 5: needs a 6+-cycle evolved sequence *)
        let c =
          circuit
            {|module top (input clk, rst, output y);
              reg [2:0] q;
              always @(posedge clk) begin
                if (rst) q <= 3'd0; else q <= q + 3'd1;
              end
              assign y = (q == 3'd5); endmodule|}
        in
        let fault = { F.f_net = c.N.pos.(0); f_stuck = false } in
        (match
           Atpg.Simgen.run c
             { Atpg.Simgen.default_config with sg_generations = 60;
               sg_frames = 8 }
             fault
         with
         | Some t -> check_bool "long test" true (Atpg.Pattern.num_frames t >= 6)
         | None -> Alcotest.fail "should detect within the budget"));
    test "outcomes pinned" pinned_simgen_outcomes;
    test "an expired budget returns before the first generation" (fun () ->
        (* one generation suffices for every c17 fault, so a None from
           the run under an expired-at-birth token means no candidate
           was simulated *)
        let c = circuit c17 in
        let cfg = { Atpg.Simgen.default_config with sg_generations = 1 } in
        let tok = Engine.Budget.make ~deadline_in:0.0 () in
        List.iter
          (fun f ->
            check_bool "found in one generation" true
              (Option.is_some (Atpg.Simgen.run c cfg f));
            check_bool "expired" true
              (Option.is_none (Atpg.Simgen.run ~budget:tok c cfg f)))
          (F.collapse c (F.all c))) ]

let () =
  Alcotest.run "atpg"
    [ ("fault", fault_tests);
      ("fsim", fsim_tests);
      ("podem", podem_tests);
      ("gen", gen_tests);
      ("compact", compact_tests);
      ("scoap", scoap_tests);
      ("diagnose", diagnose_tests);
      ("vectors", vector_file_tests);
      ("bridge", bridge_tests);
      ("transition", transition_tests);
      ("simgen", simgen_tests) ]
