(** Tests for flattening, lowering (RTL-to-gate synthesis), and the
    netlist builder, including property tests checking the synthesized
    gates against direct evaluation of the source semantics. *)

open Testutil
module N = Netlist

(* ------------------------------------------------------------------ *)
(* Netlist builder rules.                                              *)
(* ------------------------------------------------------------------ *)

let builder_tests =
  [ test "hash-consing unifies identical gates" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" and x = N.add_pi b "x" in
        check_int "same net" (N.mk_and b a x) (N.mk_and b a x);
        check_int "commutative" (N.mk_and b x a) (N.mk_and b a x));
    test "constant folding" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" in
        check_int "a & 0 = 0" (N.const0 b) (N.mk_and b a (N.const0 b));
        check_int "a & 1 = a" a (N.mk_and b a (N.const1 b));
        check_int "a | 1 = 1" (N.const1 b) (N.mk_or b a (N.const1 b));
        check_int "a ^ a = 0" (N.const0 b) (N.mk_xor b a a);
        check_int "a & a = a" a (N.mk_and b a a));
    test "complement rules" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" in
        let na = N.mk_not b a in
        check_int "double negation" a (N.mk_not b na);
        check_int "a & ~a = 0" (N.const0 b) (N.mk_and b a na);
        check_int "a | ~a = 1" (N.const1 b) (N.mk_or b a na);
        check_int "a ^ ~a = 1" (N.const1 b) (N.mk_xor b a na));
    test "mux simplifications" (fun () ->
        let b = N.create_builder () in
        let s = N.add_pi b "s" and a = N.add_pi b "a" in
        check_int "same branches" a (N.mk_mux b s a a);
        check_int "mux(s,0,1) = s" s (N.mk_mux b s (N.const0 b) (N.const1 b));
        check_int "const select" a (N.mk_mux b (N.const1 b) (N.add_pi b "z") a));
    test "ff without d input rejected" (fun () ->
        let b = N.create_builder () in
        let _q = N.add_ff b "q" in
        match N.finalize b with
        | exception N.Error _ -> ()
        | _ -> Alcotest.fail "expected failure");
    test "indices follow creation order" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" in
        let q0 = N.add_ff b "q0" in
        let x = N.add_pi b "x" in
        let q1 = N.add_ff b "q1" in
        N.set_ff_d b q1 a;
        N.set_ff_d b q0 x;
        let c = N.finalize b in
        check_bool "pi drivers" true (c.N.drv.(a) = N.Pi 0 && c.N.drv.(x) = N.Pi 1);
        check_bool "ff drivers" true (c.N.drv.(q0) = N.Ff 0 && c.N.drv.(q1) = N.Ff 1);
        check_bool "pi tables" true
          (c.N.pis = [| a; x |] && c.N.pi_names = [| "a"; "x" |]);
        check_bool "ff tables" true
          (c.N.ff_q = [| q0; q1 |] && c.N.ff_d = [| x; a |]
           && c.N.ff_names = [| "q0"; "q1" |]));
    test "the last set_ff_d wins" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" and x = N.add_pi b "x" in
        let q = N.add_ff b "q" in
        N.set_ff_d b q a;
        N.set_ff_d b q x;
        check_int "d" x (N.finalize b).N.ff_d.(0));
    test "one unpatched ff among patched ones is rejected" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" in
        let q0 = N.add_ff b "q0" in
        let _q1 = N.add_ff b "q1" in
        let q2 = N.add_ff b "q2" in
        N.set_ff_d b q0 a;
        N.set_ff_d b q2 q0;
        match N.finalize b with
        | exception N.Error msg ->
          check_string "names the flip-flop" "flip-flop q1 has no d input" msg
        | _ -> Alcotest.fail "expected failure");
    test "hash-consing is scoped by origin" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" and x = N.add_pi b "x" in
        N.set_context b "u0";
        let g0 = N.mk_and b a x and c0 = N.const0 b and c1 = N.const1 b in
        N.set_context b "u1";
        let g1 = N.mk_and b a x in
        check_bool "two origins, two nets" true (g0 <> g1);
        check_int "const0 shared" c0 (N.const0 b);
        check_int "const1 shared" c1 (N.const1 b);
        N.set_context b "u0";
        check_int "back in u0, its gate is reused" g0 (N.mk_and b x a);
        let c = N.finalize b in
        check_string "origin u0" "u0" c.N.origin.(g0);
        check_string "origin u1" "u1" c.N.origin.(g1));
    test "ff bookkeeping allocates linearly" (fun () ->
        (* deterministic, not timed: adding and patching n flip-flops
           may allocate a bounded number of minor words per flip-flop,
           whatever n is *)
        let n = 5_000 in
        let names = Array.init n (Printf.sprintf "q%d") in
        let b = N.create_builder () in
        let d = N.add_pi b "d" in
        let before = Gc.minor_words () in
        let qs = Array.map (N.add_ff b) names in
        Array.iter (fun q -> N.set_ff_d b q d) qs;
        let words = Gc.minor_words () -. before in
        check_bool
          (Printf.sprintf "%.0f minor words for %d flip-flops" words n)
          true
          (words <= float_of_int (64 * n)));
    test "topological order respects fanins" (fun () ->
        let b = N.create_builder () in
        let a = N.add_pi b "a" and x = N.add_pi b "x" in
        let y = N.mk_xor b (N.mk_and b a x) a in
        N.add_po b "y" y;
        let c = N.finalize b in
        let order = N.topological_order c in
        let pos = Array.make (N.num_nets c) 0 in
        Array.iteri (fun i net -> pos.(net) <- i) order;
        Array.iteri
          (fun net d ->
            List.iter
              (fun fanin ->
                check_bool "fanin first" true (pos.(fanin) < pos.(net)))
              (N.fanins d))
          c.N.drv) ]

(* ------------------------------------------------------------------ *)
(* Flattening.                                                         *)
(* ------------------------------------------------------------------ *)

let flatten_tests =
  [ test "names are prefixed" (fun () ->
        let ed =
          elaborate
            {|module inv (input a, output y); assign y = ~a; endmodule
              module top (input a, output y); inv u (.a(a), .y(y)); endmodule|}
        in
        let flat = Synth.Flatten.flatten ed "top" in
        check_bool "u.a exists" true
          (Verilog.Ast_util.Smap.mem "u.a" flat.Synth.Flatten.fl_signals));
    test "unconnected input ties to zero" (fun () ->
        let c =
          circuit
            {|module orer (input a, b, output y); assign y = a | b; endmodule
              module top (input a, output y); orer u (.a(a), .b(), .y(y)); endmodule|}
        in
        check_out "y follows a" 1 (eval_out c [ ("a", 1) ] "y");
        check_out "b reads as 0" 0 (eval_out c [ ("a", 0) ] "y"));
    test "origin tags attribute gates" (fun () ->
        let c =
          circuit
            {|module adder (input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule
              module top (input [3:0] a, b, output [3:0] y);
                adder u_add (.a(a), .b(b), .y(y));
              endmodule|}
        in
        let tagged = ref 0 in
        Array.iteri
          (fun net d ->
            match d with
            | N.G2 _ when c.N.origin.(net) = "u_add" -> incr tagged
            | _ -> ())
          c.N.drv;
        check_bool "adder gates tagged" true (!tagged > 10));
    test "inout rejected" (fun () ->
        let ed =
          elaborate
            {|module pad (inout p); endmodule
              module top (input a); pad u (.p(a)); endmodule|}
        in
        match Synth.Flatten.flatten ed "top" with
        | exception Synth.Flatten.Error _ -> ()
        | _ -> Alcotest.fail "expected flatten error") ]

(* ------------------------------------------------------------------ *)
(* Lowering: operator semantics vs gates.                              *)
(* ------------------------------------------------------------------ *)

(* Build a two-input 8-bit combinational module around an expression and
   compare the synthesized circuit against an OCaml reference on random
   values. *)
let binop_circuit expr =
  circuit
    (Printf.sprintf
       {|module top (input [7:0] a, b, output [8:0] y);
         assign y = %s; endmodule|}
       expr)

let qcheck_binop name expr reference =
  qtest ("gates match semantics: " ^ name)
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let c = binop_circuit expr in
      eval_out c [ ("a", a); ("b", b) ] "y" = Some (reference a b land 511))

let lower_semantics_tests =
  [ qcheck_binop "add" "{1'b0, a} + {1'b0, b}" ( + );
    qcheck_binop "sub" "{1'b0, a - b}" (fun a b -> (a - b) land 255);
    qcheck_binop "mul" "{1'b0, a * b}" (fun a b -> a * b land 255);
    qcheck_binop "and" "{1'b0, a & b}" ( land );
    qcheck_binop "or" "{1'b0, a | b}" ( lor );
    qcheck_binop "xor" "{1'b0, a ^ b}" ( lxor );
    qcheck_binop "eq" "{8'd0, a == b}" (fun a b -> if a = b then 1 else 0);
    qcheck_binop "neq" "{8'd0, a != b}" (fun a b -> if a <> b then 1 else 0);
    qcheck_binop "lt" "{8'd0, a < b}" (fun a b -> if a < b then 1 else 0);
    qcheck_binop "le" "{8'd0, a <= b}" (fun a b -> if a <= b then 1 else 0);
    qcheck_binop "gt" "{8'd0, a > b}" (fun a b -> if a > b then 1 else 0);
    qcheck_binop "ge" "{8'd0, a >= b}" (fun a b -> if a >= b then 1 else 0);
    qcheck_binop "cond" "(a < b) ? {1'b0, a} : {1'b0, b}" min;
    qcheck_binop "logical and" "{8'd0, a && b}"
      (fun a b -> if a <> 0 && b <> 0 then 1 else 0);
    qcheck_binop "logical or" "{8'd0, a || b}"
      (fun a b -> if a <> 0 || b <> 0 then 1 else 0);
    qtest "shift left dynamic" QCheck.(pair (int_bound 255) (int_bound 7))
      (fun (a, k) ->
        let c =
          circuit
            {|module top (input [7:0] a, input [2:0] k, output [7:0] y);
              assign y = a << k; endmodule|}
        in
        eval_out c [ ("a", a); ("k", k) ] "y" = Some (a lsl k land 255));
    qtest "shift right dynamic" QCheck.(pair (int_bound 255) (int_bound 7))
      (fun (a, k) ->
        let c =
          circuit
            {|module top (input [7:0] a, input [2:0] k, output [7:0] y);
              assign y = a >> k; endmodule|}
        in
        eval_out c [ ("a", a); ("k", k) ] "y" = Some (a lsr k));
    qtest "dynamic bit select" QCheck.(pair (int_bound 255) (int_bound 7))
      (fun (a, k) ->
        let c =
          circuit
            {|module top (input [7:0] a, input [2:0] k, output y);
              assign y = a[k]; endmodule|}
        in
        eval_out c [ ("a", a); ("k", k) ] "y" = Some ((a lsr k) land 1));
    qtest "reductions" QCheck.(int_bound 255)
      (fun a ->
        let c =
          circuit
            {|module top (input [7:0] a, output [2:0] y);
              assign y = {&a, |a, ^a}; endmodule|}
        in
        let pop = ref 0 in
        for i = 0 to 7 do
          if (a lsr i) land 1 = 1 then incr pop
        done;
        let expect =
          ((if a = 255 then 4 else 0)
           lor (if a <> 0 then 2 else 0)
           lor (!pop land 1))
        in
        eval_out c [ ("a", a) ] "y" = Some expect);
    qtest "unary minus" QCheck.(int_bound 255)
      (fun a ->
        let c =
          circuit
            {|module top (input [7:0] a, output [7:0] y);
              assign y = -a; endmodule|}
        in
        eval_out c [ ("a", a) ] "y" = Some (-a land 255));
    test "constants take their context width" (fun () ->
        (* module body, y (8 bits) at a = 3 *)
        let rows =
          [ ("assign y = 4'd15 + 4'd1;", 16);
            ("assign y = -(8'd82 <= 8'd242);", 255);
            ("child u (.p(4'd15 + 4'd1), .q(y));", 16);
            ("assign y = ((4'd15 + 4'd1) == 5'd16) ? 8'd1 : 8'd2;", 1);
            ({|reg [7:0] r; integer i;
               always @(*) begin
                 r = 8'd0;
                 for (i = 0; i < (4'd15 + 4'd1); i = i + 1) begin
                   r = r + 8'd1;
                 end
               end
               assign y = r;|}, 16);
            ("localparam P = ~4'd0; assign y = P;", 15);
            ("localparam Q = 4'd5 ~^ 4'd3; assign y = Q;", 9);
            ("localparam R = &4'hF; assign y = R;", 1);
            ("localparam C = {2'b10, 2'b01}; assign y = C;", 9);
            ("localparam P = 4'd5; assign y = {a, P};", 53);
            ({|wire [7:0] y0, y1;
               twice #(.P(2'd1)) u0 (.q(y0));
               twice #(.P(4'd1)) u1 (.q(y1));
               assign y = y0 + y1;|}, 22);
            (* contexts wider than an OCaml int *)
            ("assign y = 8'd1 << {2{32'd0}};", 1);
            ("assign y = ({8'd0, 64'd0} + 7'd82) >> 64;", 0) ]
        in
        List.iter
          (fun (body, expected) ->
            let src =
              Printf.sprintf
                {|module child (input [7:0] p, output [7:0] q);
                    assign q = p; endmodule
                  module twice (output [7:0] q);
                    parameter P = 0; assign q = {P, P}; endmodule
                  module top (input [3:0] a, output [7:0] y); %s endmodule|}
                body
            in
            let flat = Synth.Flatten.flatten (elaborate src) "top" in
            let c = (Synth.Lower.lower flat).Synth.Lower.circuit in
            let interp = Synth.Interp.create flat in
            Synth.Interp.step interp [ ("a", 3) ];
            check_out (body ^ " (netlist)") expected
              (eval_out c [ ("a", 3) ] "y");
            check_int (body ^ " (interpreter)") expected
              (Synth.Interp.output interp "y"))
          rows) ]

(* A closed expression over literals of random widths; [kept] marks the
   literals elaboration must see as literals (replication counts, and
   ?: conditions, which it prunes on). *)
let gen_closed_expr =
  let open QCheck.Gen in
  let open Verilog.Ast in
  let literal =
    frequency
      [ (5, int_range 1 8 >>= fun w ->
            map (fun v -> E_const { width = Some w; value = v })
              (int_bound ((1 lsl w) - 1)));
        (1, map (fun v -> E_const { width = None; value = v }) (int_bound 20)) ]
  in
  let unops =
    [ U_not; U_lnot; U_neg; U_plus; U_rand; U_ror; U_rxor; U_rnand; U_rnor;
      U_rxnor ]
  and binops =
    [ B_add; B_sub; B_mul; B_and; B_or; B_xor; B_xnor; B_eq; B_neq; B_lt;
      B_le; B_gt; B_ge; B_shl; B_shr; B_land; B_lor ]
  in
  fix
    (fun self depth ->
      if depth = 0 then literal
      else
        let sub = self (depth - 1) in
        frequency
          [ (2, literal);
            (2, map2 (fun op a -> E_unop (op, a)) (oneofl unops) sub);
            (4, map3 (fun op a b -> E_binop (op, a, b)) (oneofl binops) sub
                  sub);
            (1, map3 (fun c t f -> E_cond (c, t, f)) sub sub sub);
            (1, map2 (fun a b -> E_concat [ a; b ]) sub sub);
            (1, map2
                  (fun n a ->
                    E_repl (E_const { width = None; value = n }, [ a ]))
                  (int_range 1 3) sub) ])
    3

(* [e] with each literal outside a ?: condition or replication count
   replaced by a fresh input port of the literal's width, and the value
   to drive it with. *)
let open_literals e =
  let open Verilog.Ast in
  let ports = ref [] in
  let rec go e =
    match e with
    | E_const { width; value } ->
      let name = Printf.sprintf "k%d" (List.length !ports) in
      ports := (name, Option.value width ~default:32, value) :: !ports;
      E_ident name
    | E_masked _ | E_ident _ | E_bit _ | E_part _ -> e
    | E_unop (op, a) -> E_unop (op, go a)
    | E_binop (op, a, b) ->
      let a = go a in
      E_binop (op, a, go b)
    | E_cond (c, t, f) ->
      let t = go t in
      E_cond (c, t, go f)
    | E_concat es -> E_concat (List.map go es)
    | E_repl (n, es) -> E_repl (n, List.map go es)
  in
  let e' = go e in
  (e', List.rev !ports)

(* [assign y = e] as a module with the given extra input ports. *)
let assign_module ports e =
  let open Verilog.Ast in
  let lit v = E_const { width = None; value = v } in
  let range w = Some { msb = lit (w - 1); lsb = lit 0 } in
  { modules =
      [ { mod_name = "top";
          mod_ports = List.map (fun (n, _, _) -> n) ports @ [ "y" ];
          mod_items =
            List.map
              (fun (n, w, _) -> I_port (Input, Wire, range w, [ n ]))
              ports
            @ [ I_port (Output, Wire, range 8, [ "y" ]);
                I_assign (L_ident "y", e) ] } ] }

let assign_value ports e =
  let ed = Design.Elaborate.elaborate (assign_module ports e) ~top:"top" in
  let c = (Synth.Lower.synthesize ed "top").Synth.Lower.circuit in
  eval_out c (List.map (fun (n, _, v) -> (n, v)) ports) "y"

let metamorphic_tests =
  [ qtest "a literal computes what an input driven with it computes"
      (QCheck.make gen_closed_expr ~print:(fun e ->
           Verilog.Pp.design_to_string (assign_module [] e)))
      (fun e ->
        let (e', ports) = open_literals e in
        assign_value [] e = assign_value ports e') ]

(* ------------------------------------------------------------------ *)
(* Lowering: structure and error cases.                                *)
(* ------------------------------------------------------------------ *)

let lower_structure_tests =
  [ test "part select assembly" (fun () ->
        let c =
          circuit
            {|module top (input [7:0] a, output [7:0] y);
              assign y[3:0] = a[7:4];
              assign y[7:4] = a[3:0]; endmodule|}
        in
        check_out "nibble swap" 0x5A (eval_out c [ ("a", 0xA5) ] "y"));
    test "concat lvalue" (fun () ->
        let c =
          circuit
            {|module top (input [7:0] a, output [3:0] hi, output [3:0] lo);
              assign {hi, lo} = a; endmodule|}
        in
        check_out "hi" 0xA (eval_out c [ ("a", 0xA5) ] "hi");
        check_out "lo" 0x5 (eval_out c [ ("a", 0xA5) ] "lo"));
    test "comb always with defaults" (fun () ->
        let c =
          circuit
            {|module top (input [1:0] s, input [3:0] a, b, output reg [3:0] y);
              always @(*) begin
                y = 4'd0;
                if (s == 2'd1) y = a;
                if (s == 2'd2) y = b;
              end endmodule|}
        in
        check_out "default" 0 (eval_out c [ ("s", 0); ("a", 5); ("b", 9) ] "y");
        check_out "a" 5 (eval_out c [ ("s", 1); ("a", 5); ("b", 9) ] "y");
        check_out "b" 9 (eval_out c [ ("s", 2); ("a", 5); ("b", 9) ] "y"));
    test "latch inference rejected" (fun () ->
        match
          circuit
            {|module top (input c, input a, output reg y);
              always @(*) begin if (c) y = a; end endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected latch error");
    test "multiple drivers rejected" (fun () ->
        match
          circuit
            {|module top (input a, b, output y);
              assign y = a; assign y = b; endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected multiple-driver error");
    test "combinational cycle rejected" (fun () ->
        match
          circuit
            {|module top (input a, output y);
              wire t; assign t = y & a; assign y = t | a; endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected cycle error");
    test "undriven signal warns and reads zero" (fun () ->
        let (c, warnings) =
          circuit_and_warnings
            "module top (input a, output y); wire ghost; assign y = a | ghost; endmodule"
        in
        check_bool "warning emitted" true
          (List.exists (fun w -> String.length w >= 8 && String.sub w 0 8 = "undriven") warnings);
        check_out "ghost is zero" 0 (eval_out c [ ("a", 0) ] "y"));
    test "a wide undriven wire warns once per bit, in bit order" (fun () ->
        let (_, warnings) =
          circuit_and_warnings
            {|module top (input a, output y); wire [4095:0] ghost;
              assign y = a | (^ghost) | ghost[7]; endmodule|}
        in
        check_bool "4096 warnings in bit order" true
          (warnings = List.init 4096 (Printf.sprintf "undriven: ghost[%d]")));
    test "blocking then nonblocking in clocked block" (fun () ->
        (* t = a + 1 (blocking temp), q <= t: q sees the new t *)
        let c =
          circuit
            {|module top (input clk, input [3:0] a, output reg [3:0] q);
              reg [3:0] t;
              always @(posedge clk) begin
                t = a + 4'd1;
                q <= t;
              end endmodule|}
        in
        check_out "q = a+1 after one tick" 8
          (run_seq c [ [ ("a", 7) ] ] "q"));
    test "nonblocking swap" (fun () ->
        let c =
          circuit
            {|module top (input clk, input ld, input [3:0] va, vb,
                          output reg [3:0] a, output reg [3:0] b);
              always @(posedge clk) begin
                if (ld) begin a <= va; b <= vb; end
                else begin a <= b; b <= a; end
              end endmodule|}
        in
        let frames = [ [ ("ld", 1); ("va", 3); ("vb", 12) ]; [ ("ld", 0) ] ] in
        check_out "a got old b" 12 (run_seq c frames "a");
        check_out "b got old a" 3 (run_seq c frames "b"));
    test "register holds without assignment" (fun () ->
        let c =
          circuit
            {|module top (input clk, input en, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) begin if (en) q <= d; end endmodule|}
        in
        let frames =
          [ [ ("en", 1); ("d", 9) ]; [ ("en", 0); ("d", 2) ] ]
        in
        check_out "held" 9 (run_seq c frames "q"));
    test "gate primitive lowering" (fun () ->
        let c =
          circuit
            {|module top (input a, b, output y1, y2, y3);
              nand g1 (y1, a, b);
              nor g2 (y2, a, b);
              xor g3 (y3, a, b); endmodule|}
        in
        check_out "nand" 1 (eval_out c [ ("a", 1); ("b", 0) ] "y1");
        check_out "nor" 0 (eval_out c [ ("a", 1); ("b", 0) ] "y2");
        check_out "xor" 1 (eval_out c [ ("a", 1); ("b", 0) ] "y3"));
    test "stats count live logic only" (fun () ->
        let c =
          circuit
            {|module top (input [7:0] a, b, output [7:0] y);
              wire [7:0] dead;
              assign dead = a * b;
              assign y = a & b; endmodule|}
        in
        let st = Netlist.stats c in
        (* the multiplier is dangling; only the and gates remain *)
        check_bool "small" true (Netlist.gate_equivalents st <= 8));
    test "casez matches cared bits only" (fun () ->
        let c =
          circuit
            {|module top (input [3:0] op, output reg [1:0] cls);
              always @(*) begin
                casez (op)
                  4'b1???: cls = 2'd3;
                  4'b01??: cls = 2'd2;
                  4'b001?: cls = 2'd1;
                  default: cls = 2'd0;
                endcase
              end endmodule|}
        in
        check_out "1xxx" 3 (eval_out c [ ("op", 0b1010) ] "cls");
        check_out "01xx" 2 (eval_out c [ ("op", 0b0111) ] "cls");
        check_out "001x" 1 (eval_out c [ ("op", 0b0011) ] "cls");
        check_out "else" 0 (eval_out c [ ("op", 0b0001) ] "cls"));
    test "casez priority order" (fun () ->
        (* the first matching arm wins even when later arms also match *)
        let c =
          circuit
            {|module top (input [2:0] s, output reg y);
              always @(*) begin
                y = 0;
                casez (s)
                  3'b1??: y = 1;
                  3'b1?0: y = 0;
                endcase
              end endmodule|}
        in
        check_out "first arm" 1 (eval_out c [ ("s", 0b100) ] "y"));
    test "masked literal outside casez rejected" (fun () ->
        match
          circuit
            {|module top (input [3:0] a, output [3:0] y);
              assign y = a & 4'b1?1?; endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected lowering error");
    test "casez agrees with the interpreter" (fun () ->
        let src =
          {|module top (input [3:0] op, output reg [2:0] grp);
            always @(*) begin
              casez (op)
                4'b11??: grp = 3'd4;
                4'b1???: grp = 3'd3;
                4'b?1?1: grp = 3'd2;
                default: grp = 3'd1;
              endcase
            end endmodule|}
        in
        let ed = elaborate src in
        let flat = Synth.Flatten.flatten ed "top" in
        let c = (Synth.Lower.lower flat).Synth.Lower.circuit in
        let interp = Synth.Interp.create flat in
        for op = 0 to 15 do
          Synth.Interp.step interp [ ("op", op) ];
          check_out (Printf.sprintf "op=%d" op)
            (Synth.Interp.output interp "grp")
            (eval_out c [ ("op", op) ] "grp")
        done);
    test "register array reads and writes" (fun () ->
        let c =
          circuit
            {|module top (input clk, input we, input [1:0] waddr, raddr,
                          input [3:0] wdata, output [3:0] rdata);
              reg [3:0] mem [0:3];
              always @(posedge clk) begin
                if (we) mem[waddr] <= wdata;
              end
              assign rdata = mem[raddr]; endmodule|}
        in
        check_int "16 flip-flops" 16 (Netlist.num_ffs c);
        let frames =
          [ [ ("we", 1); ("waddr", 2); ("wdata", 9); ("raddr", 0) ];
            [ ("we", 1); ("waddr", 0); ("wdata", 5); ("raddr", 2) ] ]
        in
        check_out "mem[2]" 9 (run_seq c frames "rdata"));
    test "memory with non-zero address base" (fun () ->
        let c =
          circuit
            {|module top (input clk, input we, input [2:0] a,
                          input [3:0] d, output [3:0] q);
              reg [3:0] m [4:7];
              always @(posedge clk) begin
                if (we) m[a] <= d;
              end
              assign q = m[a]; endmodule|}
        in
        check_int "4 words" 16 (Netlist.num_ffs c);
        check_out "word 5" 7
          (run_seq c [ [ ("we", 1); ("a", 5); ("d", 7) ];
                       [ ("we", 0); ("a", 5) ] ] "q"));
    test "memory written outside clocked block rejected" (fun () ->
        match
          circuit
            {|module top (input [1:0] a, input [3:0] d, output [3:0] q);
              reg [3:0] m [0:3];
              always @(*) begin m[a] = d; end
              assign q = m[a]; endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected lowering error");
    test "whole-memory read rejected" (fun () ->
        match
          circuit
            {|module top (input clk, input [3:0] d, output [3:0] q);
              reg [3:0] m [0:3];
              always @(posedge clk) m[0] <= d;
              assign q = m; endmodule|}
        with
        | exception Synth.Lower.Error _ -> ()
        | _ -> Alcotest.fail "expected lowering error");
    test "memory agrees with the interpreter" (fun () ->
        let src =
          {|module top (input clk, input we, input [1:0] wa, ra,
                        input [7:0] d, output [7:0] q);
            reg [7:0] m [0:3];
            always @(posedge clk) begin
              if (we) m[wa] <= d;
            end
            assign q = m[ra]; endmodule|}
        in
        let ed = elaborate src in
        let flat = Synth.Flatten.flatten ed "top" in
        let c = (Synth.Lower.lower flat).Synth.Lower.circuit in
        let interp = Synth.Interp.create flat in
        let sim = Sim.Eval.create c in
        Sim.Eval.zero_state sim;
        let rng = Random.State.make [| 99 |] in
        for _ = 1 to 24 do
          let binds =
            [ ("we", Random.State.int rng 2); ("wa", Random.State.int rng 4);
              ("ra", Random.State.int rng 4); ("d", Random.State.int rng 256) ]
          in
          Synth.Interp.step interp (("clk", 0) :: binds);
          Sim.Eval.eval sim (Sim.Eval.pi_of_ports c (("clk", 0) :: binds));
          check_out "q agrees" (Synth.Interp.output interp "q")
            (Sim.Eval.po_as_int sim "q");
          Synth.Interp.tick interp;
          Sim.Eval.tick sim
        done);
    test "sign extension via replication" (fun () ->
        let c =
          circuit
            {|module top (input [7:0] a, output [15:0] y);
              assign y = {{8{a[7]}}, a}; endmodule|}
        in
        check_out "negative extends" 0xFF80 (eval_out c [ ("a", 0x80) ] "y");
        check_out "positive stays" 0x007F (eval_out c [ ("a", 0x7F) ] "y")) ]

(* ------------------------------------------------------------------ *)
(* Optimizer.                                                           *)
(* ------------------------------------------------------------------ *)

let opt_tests =
  [ test "rebuild preserves function" (fun () ->
        let c =
          circuit
            {|module top (input clk, rst, input [7:0] a, b, output [7:0] y,
                          output reg [7:0] acc);
              assign y = (a + b) ^ (a & b);
              always @(posedge clk) begin
                if (rst) acc <= 8'd0; else acc <= acc + y;
              end endmodule|}
        in
        let c' = Synth.Opt.rebuild c in
        let rng = Random.State.make [| 11 |] in
        check_bool "equivalent" true
          (Synth.Opt.equivalent_exact ~rng c c' = Synth.Opt.Equal));
    test "tying an input shrinks the cone" (fun () ->
        (* [en] is tied low in the source: the multiplier is built, then
           left without a reader, and the rebuild never visits it *)
        let c =
          circuit
            {|module top (input [7:0] a, b, output [7:0] y);
              wire en; assign en = 1'b0;
              assign y = en ? (a * b) : (a & b); endmodule|}
        in
        let c' = Synth.Opt.rebuild c in
        check_bool "multiplier gone" true (N.num_nets c' < N.num_nets c / 2);
        check_out "and path survives" (0xA5 land 0x0F)
          (eval_out c' [ ("a", 0xA5); ("b", 0x0F) ] "y"));
    test "dead state is swept" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y);
              reg used; reg dead;
              always @(posedge clk) begin used <= d; dead <= ~d; end
              assign y = used; endmodule|}
        in
        check_int "one flip-flop left" 1 (N.num_ffs (Synth.Opt.rebuild c)));
    test "equivalence check catches a real difference" (fun () ->
        let a = circuit "module top (input a, b, output y); assign y = a & b; endmodule" in
        let b = circuit "module top (input a, b, output y); assign y = a | b; endmodule" in
        let rng = Random.State.make [| 3 |] in
        (match Synth.Opt.equivalent ~rng a b with
         | Synth.Opt.Differ "y" -> ()
         | _ -> Alcotest.fail "expected a mismatch on y"));
    test "exact equivalence catches what random simulation misses" (fun () ->
        (* the two comparators agree on all but 2 of the 65536 input
           values; 16 random vectors are overwhelmingly unlikely to hit
           either, so the simulation oracle passes them as equal while
           the SAT oracle refutes *)
        let a =
          circuit
            {|module top (input [15:0] x, output y);
              assign y = (x == 16'hBEEF); endmodule|}
        in
        let b =
          circuit
            {|module top (input [15:0] x, output y);
              assign y = (x == 16'hBEEC); endmodule|}
        in
        let rng = Random.State.make [| 41 |] in
        check_bool "random simulation misses the difference" true
          (Synth.Opt.equivalent ~rng a b = Synth.Opt.Equal);
        (match Synth.Opt.equivalent_exact a b with
         | Synth.Opt.Differ "y" -> ()
         | Synth.Opt.Differ n ->
           Alcotest.fail ("expected a mismatch on y, got " ^ n)
         | Synth.Opt.Equal -> Alcotest.fail "SAT oracle missed the difference")) ]

(* ------------------------------------------------------------------ *)
(* Netlist identity.                                                    *)
(* ------------------------------------------------------------------ *)

(* A canonical text dump of a netlist: every net's driver and origin,
   then the named PIs, POs and flip-flops (q and d nets), digested.  A
   change to how netlists are built that must leave them unchanged has
   to keep these digests. *)
let netlist_digest (c : N.t) =
  let b = Buffer.create 65536 in
  let g1 = function N.Inv -> "inv" | N.Buff -> "buf" in
  let g2 = function
    | N.And -> "and" | N.Or -> "or" | N.Xor -> "xor"
    | N.Nand -> "nand" | N.Nor -> "nor" | N.Xnor -> "xnor"
  in
  Array.iteri
    (fun n d ->
      (match d with
       | N.Pi i -> Printf.bprintf b "%d pi %d" n i
       | N.Ff i -> Printf.bprintf b "%d ff %d" n i
       | N.C0 -> Printf.bprintf b "%d c0" n
       | N.C1 -> Printf.bprintf b "%d c1" n
       | N.G1 (g, a) -> Printf.bprintf b "%d %s %d" n (g1 g) a
       | N.G2 (g, x, y) -> Printf.bprintf b "%d %s %d %d" n (g2 g) x y
       | N.Mux (s, x, y) -> Printf.bprintf b "%d mux %d %d %d" n s x y);
      Printf.bprintf b " @%s\n" c.N.origin.(n))
    c.N.drv;
  Array.iteri
    (fun i net -> Printf.bprintf b "pi %s %d\n" c.N.pi_names.(i) net)
    c.N.pis;
  Array.iteri
    (fun i net -> Printf.bprintf b "po %s %d\n" c.N.po_names.(i) net)
    c.N.pos;
  Array.iteri
    (fun i q -> Printf.bprintf b "ff %s %d %d\n" c.N.ff_names.(i) q c.N.ff_d.(i))
    c.N.ff_q;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every netlist the pin covers, by name: full synthesis of the ARM and
   of each corpus design, the optimizer's rebuild of the ARM, the four
   ARM transformed modules (compositional extraction, one session, as
   the paper flow runs it) and generated designs 1-20. *)
let pinned_netlists () =
  let full e = Factor.Flow.full_circuit e in
  let arm_env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
  let arm = full arm_env in
  let corpus =
    List.map
      (fun e ->
        ( "full " ^ e.Circuits.Collection.e_name,
          full
            (Factor.Compose.make_env (parse e.Circuits.Collection.e_source)
               ~top:e.Circuits.Collection.e_top) ))
      Circuits.Collection.all
  in
  let session = Factor.Compose.create_session () in
  let transformed =
    List.map
      (fun s ->
        let path = s.Factor.Flow.ms_path in
        let st = Factor.Compose.compositional session arm_env ~mut_path:path in
        ( "transformed " ^ s.Factor.Flow.ms_name,
          (Factor.Transform.build arm_env st.Factor.Compose.cs_slice
             ~mut_path:path).Factor.Transform.tf_circuit ))
      Arm.Rtl.muts
  in
  let generated =
    List.init 20 (fun i ->
        let d = Gen_rtl.Gen.generate ~seed:(i + 1) () in
        ( Printf.sprintf "gen_rtl %d" (i + 1),
          Gen_rtl.Gen.circuit_of d.Gen_rtl.Gen.d_ast ~top:d.Gen_rtl.Gen.d_top ))
  in
  (("full arm", arm) :: ("rebuilt arm", Synth.Opt.rebuild arm) :: corpus)
  @ transformed @ generated

let pinned_digests =
  [ ("full arm", "03a605b811a0ee005a36f6af87367926");
    ("rebuilt arm", "92e333381b01dd20607a60c3ab8aac91");
    ("full gcd", "1f450ee8a0bd3a1482b7a9162c10465e");
    ("full fifo", "c7ac34d3e78a134ec02238c89eb54eae");
    ("full arbiter", "3a0da71eeca8a46e33cdb1a21103622d");
    ("full traffic", "1597b3701918b55310979249cc988e40");
    ("full dma", "855531598a970ae0d35574db3db4ce79");
    ("full scratchpad", "b051267a12202cc025ed8c2ebf2e4b15");
    ("full mcu8", "1a5c5a7720dca6ad4f1d5e88bab5efdf");
    ("transformed arm_alu", "843ba6e2c3750a9b85d466a0c7ff271c");
    ("transformed regfile_struct", "843ba6e2c3750a9b85d466a0c7ff271c");
    ("transformed exc", "59716fe55c15c41a4bec76f8b6b3da61");
    ("transformed forward", "843ba6e2c3750a9b85d466a0c7ff271c");
    ("gen_rtl 1", "d8c4a5d4017204c1beed65d5832e5576");
    ("gen_rtl 2", "7b9bcdc3e8fb787c3dbb55db979f4bc8");
    ("gen_rtl 3", "ca57c919f4c8fa08644abbee62e20385");
    ("gen_rtl 4", "da961ecab2aa776047ef06cee2161e65");
    ("gen_rtl 5", "1518353f9f2b9aee2fd22eb9b66b074c");
    ("gen_rtl 6", "2de37bfaa80aa4fe7048c9951a5cf85a");
    ("gen_rtl 7", "bc06da02490e77e593104c4f7e416b7d");
    ("gen_rtl 8", "37352434f12f1eb4f7aa209fa1c8a3a6");
    ("gen_rtl 9", "95896241cb1ef3e9b7c2658ab4515a6f");
    ("gen_rtl 10", "0df2249007c578ede82f8e9506edb806");
    ("gen_rtl 11", "7b2ad11996db4625fca7d7f4296f2817");
    ("gen_rtl 12", "c35cba869574ab3bd23003b185674d0a");
    ("gen_rtl 13", "c9eda08960a8a7a6afda23f1b5022abf");
    ("gen_rtl 14", "c676ec8fed75db3a0a4ce52d977391b7");
    ("gen_rtl 15", "6b7af49b1af0fb8fe77d069b1978b53f");
    ("gen_rtl 16", "a0b95fc6c814d4f59919dd0e774f3538");
    ("gen_rtl 17", "824f80b1492bd21091f69594c49baa9a");
    ("gen_rtl 18", "655049cb039fa4823660b88caaf318b7");
    ("gen_rtl 19", "2676bd5f4b53e23c3403e0404cc3bafb");
    ("gen_rtl 20", "c966c263ef4ba76ed8fe5289244852c6") ]

let identity_tests =
  [ test "netlists pinned" (fun () ->
        let got =
          List.map (fun (name, c) -> (name, netlist_digest c)) (pinned_netlists ())
        in
        Alcotest.(check (list (pair string string))) "digests" pinned_digests got) ]

(* ------------------------------------------------------------------ *)
(* Netlist.walk against a brute-force fixpoint.                        *)
(* ------------------------------------------------------------------ *)

(* The reference: relax every edge, read off the drivers and the
   flip-flop tables rather than [Netlist.analysis], until nothing
   changes. *)
let bellman_ford c dir ~gate ~reg sources =
  let dist = Array.make (N.num_nets c) N.unreachable in
  Array.iter (fun s -> dist.(s) <- 0) sources;
  let orient (a, b) = if dir = N.Forward then (a, b) else (b, a) in
  let edges =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun net d ->
              List.map (fun a -> (orient (a, net), gate)) (N.fanins d))
            c.N.drv))
    @ Array.to_list
        (Array.mapi (fun i d -> (orient (d, c.N.ff_q.(i)), reg)) c.N.ff_d)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((u, v), w) ->
        if dist.(u) <> N.unreachable && dist.(u) + w < dist.(v) then begin
          dist.(v) <- dist.(u) + w;
          changed := true
        end)
      edges
  done;
  dist

(* Both directions under all four weight pairs: forward from the PIs,
   backward from the POs, and both ways from one interior net. *)
let walk_matches_fixpoint c =
  let mid = [| N.num_nets c / 2 |] in
  List.for_all
    (fun (dir, sources) ->
      List.for_all
        (fun (gate, reg) ->
          N.walk c dir ~gate ~reg sources
          = bellman_ford c dir ~gate ~reg sources)
        [ (0, 0); (0, 1); (1, 0); (1, 1) ])
    [ (N.Forward, c.N.pis); (N.Backward, c.N.pos); (N.Forward, mid);
      (N.Backward, mid) ]

let walk_tests =
  [ qtest ~count:100 "walk matches a Bellman-Ford fixpoint"
      Fuzzgen.gen_arbitrary (fun gm ->
        walk_matches_fixpoint (snd (Fuzzgen.build gm)));
    test "arm: walk matches the fixpoint, live nets pinned" (fun () ->
        let arm =
          Factor.Flow.full_circuit
            (Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top)
        in
        check_bool "every direction and weight pair" true
          (walk_matches_fixpoint arm);
        let live = N.live_mask arm in
        check_int "nets" 7083 (N.num_nets arm);
        check_int "live nets" 7030
          (Array.fold_left (fun k l -> if l then k + 1 else k) 0 live));
    test "weights other than 0 or 1 are refused" (fun () ->
        let c =
          circuit {|module top (input a, output y); assign y = ~a; endmodule|}
        in
        Alcotest.check_raises "gate weight 2"
          (Invalid_argument "Netlist.walk: weights are 0 or 1") (fun () ->
            ignore (N.walk c N.Forward ~gate:2 ~reg:0 c.N.pis))) ]

let () =
  Alcotest.run "synth"
    [ ("builder", builder_tests);
      ("identity", identity_tests);
      ("flatten", flatten_tests);
      ("semantics", lower_semantics_tests @ metamorphic_tests);
      ("structure", lower_structure_tests);
      ("opt", opt_tests);
      ("walk", walk_tests) ]
