(** Tests for the three-valued parallel-pattern logic and the levelized
    simulator. *)

open Testutil
module L = Sim.Logic3

(* Encode an optional bool at pattern position 0. *)
let v = function
  | Some true -> L.one
  | Some false -> L.zero
  | None -> L.x

let get0 a = L.get a 0

let opt3 =
  QCheck.oneofl [ Some true; Some false; None ]

(* Reference three-valued operators. *)
let ref_and a b =
  match (a, b) with
  | (Some false, _) | (_, Some false) -> Some false
  | (Some true, Some true) -> Some true
  | _ -> None

let ref_or a b =
  match (a, b) with
  | (Some true, _) | (_, Some true) -> Some true
  | (Some false, Some false) -> Some false
  | _ -> None

let ref_not = Option.map not

let ref_xor a b =
  match (a, b) with
  | (Some a, Some b) -> Some (a <> b)
  | _ -> None

let ref_mux s a b =
  match s with
  | Some false -> a
  | Some true -> b
  | None -> (match (a, b) with
             | (Some x, Some y) when x = y -> Some x
             | _ -> None)

let logic3_tests =
  [ qtest "and matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_and (v a) (v b)) = ref_and a b);
    qtest "or matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_or (v a) (v b)) = ref_or a b);
    qtest "xor matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_xor (v a) (v b)) = ref_xor a b);
    qtest "not matches reference" opt3 (fun a ->
        get0 (L.v_not (v a)) = ref_not a);
    qtest "mux matches reference" QCheck.(triple opt3 opt3 opt3)
      (fun (s, a, b) -> get0 (L.v_mux (v s) (v a) (v b)) = ref_mux s a b);
    qtest "no rail overlap"
      QCheck.(triple opt3 opt3 opt3)
      (fun (s, a, b) ->
        let r = L.v_mux (v s) (L.v_and (v a) (v b)) (L.v_xor (v a) (v b)) in
        Int64.logand r.L.hi r.L.lo = 0L);
    qtest "de morgan" QCheck.(pair opt3 opt3) (fun (a, b) ->
        L.v_not (L.v_and (v a) (v b))
        = L.v_or (L.v_not (v a)) (L.v_not (v b)));
    test "set and get per pattern" (fun () ->
        let a = L.set (L.set L.x 3 (Some true)) 7 (Some false) in
        check_bool "bit 3" true (L.get a 3 = Some true);
        check_bool "bit 7" true (L.get a 7 = Some false);
        check_bool "bit 0 stays x" true (L.get a 0 = None));
    test "diff mask" (fun () ->
        let a = L.set L.x 1 (Some true) in
        let b = L.set L.x 1 (Some false) in
        check_bool "differ at 1" true (Int64.equal (L.diff a b) 2L);
        check_bool "x does not differ" true (Int64.equal (L.diff L.x L.one) 0L));
    test "to_string" (fun () ->
        let a = L.set (L.set L.x 0 (Some true)) 2 (Some false) in
        check_string "render" "xxxxx0x1" (L.to_string a)) ]

(* ------------------------------------------------------------------ *)
(* Simulator.                                                          *)
(* ------------------------------------------------------------------ *)

let sim_tests =
  [ test "uninitialized state reads X" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 5) ]);
        check_bool "q unknown before any tick" true
          (Sim.Eval.po_as_int sim "q" = None));
    test "x clears after load" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        check_out "loaded" 5 (run_seq c [ [ ("d", 5) ] ] "q"));
    test "x propagates through muxes conservatively" (fun () ->
        (* q unknown, but both branches equal: output known *)
        let c =
          circuit
            {|module top (input clk, input s, input [3:0] d,
                          output [3:0] y, output reg [3:0] q);
              always @(posedge clk) q <= d;
              assign y = s ? (q & 4'd0) : 4'd0; endmodule|}
        in
        check_out "known zero despite x state" 0 (eval_out c [ ("s", 1) ] "y"));
    test "64 patterns evaluate independently" (fun () ->
        let c =
          circuit
            {|module top (input a, b, output y); assign y = a ^ b; endmodule|}
        in
        let sim = Sim.Eval.create c in
        (* pattern i: a = bit i of 0xF0F0.., b = bit i of 0xFF00.. *)
        let a = L.of_bits ~value:0x00F0L ~known:(-1L) in
        let b = L.of_bits ~value:0x0F00L ~known:(-1L) in
        Sim.Eval.eval sim [| a; b |];
        let y = (Sim.Eval.outputs sim).(0) in
        check_bool "xor per pattern" true
          (Int64.equal y.L.hi 0x0FF0L));
    test "counter counts" (fun () ->
        let c =
          circuit
            {|module top (input clk, rst, output reg [7:0] q);
              always @(posedge clk) begin
                if (rst) q <= 8'd0; else q <= q + 8'd1;
              end endmodule|}
        in
        let frames = [ ("rst", 1) ] :: List.init 5 (fun _ -> [ ("rst", 0) ]) in
        check_out "five increments" 5 (run_seq c frames "q"));
    test "po_as_int on missing port is none" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("a", 1) ]);
        check_bool "missing" true (Sim.Eval.po_as_int sim "ghost" = None));
    test "step returns pre-edge outputs" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y, output reg q);
              always @(posedge clk) q <= d;
              assign y = d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        let outs = Sim.Eval.step sim (Sim.Eval.pi_of_ports c [ ("d", 1) ]) in
        (* y reflects d immediately; q is still X in the same cycle *)
        let find name =
          let found = ref L.x in
          Array.iteri
            (fun i n -> if n = name then found := outs.(i))
            c.Netlist.po_names;
          !found
        in
        check_bool "y known" true (L.get (find "y") 0 = Some true);
        check_bool "q still x" true (L.get (find "q") 0 = None));
    test "reset_state returns to X" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 3) ]);
        Sim.Eval.tick sim;
        Sim.Eval.reset_state sim;
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 3) ]);
        check_bool "q is X again" true (Sim.Eval.po_as_int sim "q" = None)) ]

(* ------------------------------------------------------------------ *)
(* Packed pattern words: the pattern-to-plane transpose must place each
   test's bits in its own lane. *)

module P = Sim.Packed

let packed_tests =
  [ test "make_batch transposes ragged tests into lanes" (fun () ->
        (* test 0: one frame, PIs = 10; test 1: two frames, 01 then 11 *)
        let vectors =
          [| [| [| true; false |] |];
             [| [| false; true |]; [| true; true |] |] |]
        in
        let loads = [| [ (0, true) ]; [] |] in
        let b = P.make_batch ~num_pis:2 ~num_ffs:2 ~vectors ~loads in
        check_int "lanes" 2 b.P.b_lanes;
        check_int "frames" 2 b.P.b_frames;
        check_int "active frame 0" 0b11 b.P.b_active.(0);
        check_int "active frame 1" 0b10 b.P.b_active.(1);
        check_int "last frame 0" 0b01 b.P.b_last.(0);
        check_int "last frame 1" 0b10 b.P.b_last.(1);
        check_int "pi0 frame 0 hi" 0b01 b.P.b_pi_hi.(0).(0);
        check_int "pi0 frame 0 lo" 0b10 b.P.b_pi_lo.(0).(0);
        check_int "pi1 frame 0 hi" 0b10 b.P.b_pi_hi.(0).(1);
        check_int "pi1 frame 0 lo" 0b01 b.P.b_pi_lo.(0).(1);
        (* lane 0 is past its last frame at frame 1: X inputs *)
        check_int "pi0 frame 1 hi" 0b10 b.P.b_pi_hi.(1).(0);
        check_int "pi0 frame 1 lo" 0b00 b.P.b_pi_lo.(1).(0);
        (* register loads: ff0 loads 1 in lane 0 only, ff1 starts X *)
        check_int "ff0 load hi" 0b01 b.P.b_load_hi.(0);
        check_int "ff0 load lo" 0b00 b.P.b_load_lo.(0);
        check_int "ff1 load hi" 0b00 b.P.b_load_hi.(1);
        check_int "ff1 load lo" 0b00 b.P.b_load_lo.(1));
    test "make_batch rejects more tests than lanes" (fun () ->
        let vectors = Array.make (P.width + 1) [| [||] |] in
        let loads = Array.make (P.width + 1) [] in
        check_bool "raises" true
          (try
             ignore (P.make_batch ~num_pis:0 ~num_ffs:0 ~vectors ~loads);
             false
           with Invalid_argument _ -> true)) ]

(* The gate kernel against Logic3: every {0,1,X} combination of the
   three fanins rides its own lane (27 lanes), and each lane of the
   kernel's output must equal the Logic3 operator on that combination. *)
let kernel_matches_logic3 () =
  let module A = Netlist.Analysis in
  let vals = [| Some false; Some true; None |] in
  let combos =
    Array.init 27 (fun j -> (vals.(j mod 3), vals.(j / 3 mod 3), vals.(j / 9)))
  in
  let rails pick =
    let hi = ref 0 and lo = ref 0 in
    Array.iteri
      (fun j combo ->
        match pick combo with
        | Some true -> hi := !hi lor (1 lsl j)
        | Some false -> lo := !lo lor (1 lsl j)
        | None -> ())
      combos;
    (!hi, !lo)
  in
  let (ah, al) = rails (fun (a, _, _) -> a) in
  let (bh, bl) = rails (fun (_, b, _) -> b) in
  let (sh, sl) = rails (fun (_, _, s) -> s) in
  let m = (1 lsl 27) - 1 in
  let ops =
    [ ("c0", A.op_c0, fun _ _ _ -> L.zero);
      ("c1", A.op_c1, fun _ _ _ -> L.one);
      ("buf", A.op_buf, fun a _ _ -> a);
      ("inv", A.op_inv, fun a _ _ -> L.v_not a);
      ("and", A.op_and, fun a b _ -> L.v_and a b);
      ("or", A.op_or, fun a b _ -> L.v_or a b);
      ("xor", A.op_xor, fun a b _ -> L.v_xor a b);
      ("nand", A.op_nand, fun a b _ -> L.v_not (L.v_and a b));
      ("nor", A.op_nor, fun a b _ -> L.v_not (L.v_or a b));
      ("xnor", A.op_xnor, fun a b _ -> L.v_not (L.v_xor a b));
      (* slot a is chosen by select 0, slot b by select 1 *)
      ("mux", A.op_mux, fun a b s -> L.v_mux s a b) ]
  in
  let r = { P.hi = 0; lo = 0 } in
  List.iter
    (fun (name, op, logic3) ->
      P.gate r op m ah al bh bl sh sl;
      check_int (name ^ ": rails disjoint") 0 (r.P.hi land r.P.lo);
      check_int (name ^ ": no lane beyond the mask") 0
        ((r.P.hi lor r.P.lo) land lnot m);
      Array.iteri
        (fun j (a, b, s) ->
          let lane =
            if (r.P.hi lsr j) land 1 = 1 then Some true
            else if (r.P.lo lsr j) land 1 = 1 then Some false
            else None
          in
          check_bool
            (Printf.sprintf "%s lane %d" name j)
            true
            (lane = get0 (logic3 (v a) (v b) (v s))))
        combos)
    ops;
  List.iter
    (fun op ->
      check_bool "a source opcode is rejected" true
        (try
           P.gate r op m ah al bh bl sh sl;
           false
         with Invalid_argument _ -> true))
    [ A.op_pi; A.op_ff ]

(* Decode the compiled form back into drivers. *)
let decode (info : Netlist.Analysis.info) net =
  let module A = Netlist.Analysis in
  let module N = Netlist in
  let a = info.A.fanin.(3 * net)
  and b = info.A.fanin.((3 * net) + 1)
  and s = info.A.fanin.((3 * net) + 2) in
  let op = Bytes.get_uint8 info.A.op net in
  if op = A.op_pi then N.Pi a
  else if op = A.op_ff then N.Ff a
  else if op = A.op_c0 then N.C0
  else if op = A.op_c1 then N.C1
  else if op = A.op_buf then N.G1 (N.Buff, a)
  else if op = A.op_inv then N.G1 (N.Inv, a)
  else if op = A.op_mux then N.Mux (s, a, b)
  else
    let g =
      List.assoc op
        [ (A.op_and, N.And); (A.op_or, N.Or); (A.op_xor, N.Xor);
          (A.op_nand, N.Nand); (A.op_nor, N.Nor); (A.op_xnor, N.Xnor) ]
    in
    N.G2 (g, a, b)

(* The compiled arrays describe [c] exactly: every driver decodes back,
   every gate slot is a real net, the level offsets count each level's
   nets and the PO bitmap marks exactly the observed nets. *)
let compiled_round_trips (c : Netlist.t) =
  let module A = Netlist.Analysis in
  let info = Netlist.analysis c in
  let n = Netlist.num_nets c in
  let ok = ref true in
  for net = 0 to n - 1 do
    if decode info net <> c.Netlist.drv.(net) then ok := false;
    let op = Bytes.get_uint8 info.A.op net in
    if op <> A.op_pi && op <> A.op_ff then
      for k = 0 to 2 do
        let f = info.A.fanin.((3 * net) + k) in
        if f < 0 || f >= n then ok := false
      done
  done;
  let per_level = Array.make (info.A.max_level + 1) 0 in
  Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) info.A.level;
  Array.iteri
    (fun l cnt ->
      if info.A.level_off.(l + 1) - info.A.level_off.(l) <> cnt then
        ok := false)
    per_level;
  if info.A.level_off.(info.A.max_level + 1) <> n then ok := false;
  for net = 0 to n - 1 do
    if Bytes.get_uint8 info.A.is_po net = 1 <> Array.mem net c.Netlist.pos
    then ok := false
  done;
  !ok

let compiled_tests =
  [ test "gate kernel matches Logic3 lane for lane" kernel_matches_logic3;
    test "compiled ARM round-trips to its drivers" (fun () ->
        let ed =
          Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:Arm.Rtl.top
        in
        let c =
          (Synth.Lower.lower (Synth.Flatten.flatten ed Arm.Rtl.top))
            .Synth.Lower.circuit
        in
        check_bool "round trip" true (compiled_round_trips c));
    qtest "compiled random RTL round-trips to its drivers" ~count:40
      Fuzzgen.gen_arbitrary (fun gm ->
        compiled_round_trips (snd (Fuzzgen.build gm))) ]

let () =
  Alcotest.run "sim"
    [ ("logic3", logic3_tests); ("eval", sim_tests);
      ("packed", packed_tests); ("kernel", compiled_tests) ]
