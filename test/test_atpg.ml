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
          (List.mapi (fun i f -> (i, f)) faults)) ]

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
             { P.default_config with frames; piers; seed = frames }
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

let podem_tests =
  [ test "all c17 faults detected combinationally" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        List.iter
          (fun f ->
            match P.run c { P.default_config with frames = 1; backtrack_limit = 50 } f with
            | P.Detected _ -> ()
            | _ -> Alcotest.failf "fault %s not detected" (F.to_string c f))
          faults);
    test "generated tests verified by fault simulation" (fun () ->
        let c = circuit c17 in
        let faults = F.all c in
        List.iter
          (fun f ->
            match P.run c { P.default_config with frames = 1; backtrack_limit = 50 } f with
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
              P.run c { P.default_config with frames = 1; backtrack_limit = 10_000 } f
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
        (match P.run c { P.default_config with frames = 1; backtrack_limit = 100 } fault with
         | P.Detected _ -> Alcotest.fail "should not detect in one frame"
         | _ -> ());
        (match P.run c { P.default_config with frames = 2; backtrack_limit = 100 } fault with
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
            { P.default_config with frames = 1; backtrack_limit = 100; piers = [ 0 ] }
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
        (match P.run c { P.default_config with frames = 3; backtrack_limit = 5000 } fault with
         | P.Detected _ -> Alcotest.fail "needs more than three frames"
         | _ -> ());
        (match P.run c { P.default_config with frames = 8; backtrack_limit = 5000 } fault with
         | P.Detected t ->
           check_bool "long test" true (Atpg.Pattern.num_frames t >= 7)
         | _ -> Alcotest.fail "eight frames should detect"));
    qtest "random rtl: incremental implication matches full simulation"
      ~count:60 Fuzzgen.gen_arbitrary implication_matches_full;
    test "search traces pinned" pinned_podem_traces ]

(* ------------------------------------------------------------------ *)
(* Generation driver.                                                  *)
(* ------------------------------------------------------------------ *)

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
    test "budget exhaustion skips remaining" (fun () ->
        let c = circuit (Arm.Rtl.source |> fun _ ->
          {|module top (input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= q ^ d; endmodule|}) in
        let faults = F.all c in
        let cfg =
          { Atpg.Gen.default_config with
            g_total_budget = 0.0; g_random_batches = 0 }
        in
        let r = Atpg.Gen.run c cfg faults in
        (* budget starvation is accounted separately from engine
           give-ups: nothing here was genuinely attempted and aborted *)
        check_int "all budget-skipped" (List.length faults)
          r.Atpg.Gen.r_budget_skipped;
        check_int "none aborted" 0 r.Atpg.Gen.r_aborted) ]

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
        let path = Filename.temp_file "factor" ".vec" in
        Atpg.Pattern.write_file ~pi_names:[| "a"; "b" |] path tests;
        let back = Atpg.Pattern.read_file path in
        Sys.remove path;
        check_bool "identical" true (back = tests));
    test "rejects malformed input" (fun () ->
        let path = Filename.temp_file "factor" ".vec" in
        let oc = open_out path in
        output_string oc "test\nvec 01x0\nend\n";
        close_out oc;
        (match Atpg.Pattern.read_file path with
         | exception Atpg.Pattern.Parse_error _ -> ()
         | _ -> Alcotest.fail "expected parse error");
        Sys.remove path);
    test "rejects unterminated block" (fun () ->
        let path = Filename.temp_file "factor" ".vec" in
        let oc = open_out path in
        output_string oc "test\nvec 0101\n";
        close_out oc;
        (match Atpg.Pattern.read_file path with
         | exception Atpg.Pattern.Parse_error _ -> ()
         | _ -> Alcotest.fail "expected parse error");
        Sys.remove path);
    test "replayed vectors detect the same faults" (fun () ->
        let c = circuit c17 in
        let faults = F.collapse c (F.all c) in
        let r = Atpg.Gen.run c Atpg.Gen.default_config faults in
        let path = Filename.temp_file "factor" ".vec" in
        Atpg.Pattern.write_file path r.Atpg.Gen.r_tests;
        let back = Atpg.Pattern.read_file path in
        Sys.remove path;
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
         | None -> Alcotest.fail "should detect within the budget")) ]

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
