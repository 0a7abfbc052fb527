(** Tests for the Verilog front end: lexer, parser, pretty-printer
    round-trips, and AST utilities. *)

open Testutil
module A = Verilog.Ast
module L = Verilog.Lexer
module P = Verilog.Parser
module U = Verilog.Ast_util

(* ------------------------------------------------------------------ *)
(* Lexer.                                                              *)
(* ------------------------------------------------------------------ *)

let tokens src = List.map (fun (tok, _, _) -> tok) (L.tokenize src)

let lexer_tests =
  [ test "identifiers and keywords" (fun () ->
        check_bool "module is keyword" true
          (tokens "module foo" = [ L.T_keyword "module"; L.T_ident "foo"; L.T_eof ]));
    test "plain decimal" (fun () ->
        check_bool "42" true (tokens "42" = [ L.T_number (None, 42); L.T_eof ]));
    test "sized hex" (fun () ->
        check_bool "8'hFF" true
          (tokens "8'hFF" = [ L.T_number (Some 8, 255); L.T_eof ]));
    test "sized binary with underscores" (fun () ->
        check_bool "8'b1010_0101" true
          (tokens "8'b1010_0101" = [ L.T_number (Some 8, 165); L.T_eof ]));
    test "unsized based" (fun () ->
        check_bool "'o17" true (tokens "'o17" = [ L.T_number (None, 15); L.T_eof ]));
    test "operators multi-char" (fun () ->
        check_bool "<= == && ~^" true
          (tokens "<= == && ~^"
           = [ L.T_le_assign; L.T_op "=="; L.T_op "&&"; L.T_op "~^"; L.T_eof ]));
    test "line comments skipped" (fun () ->
        check_bool "comment" true
          (tokens "a // comment\nb" = [ L.T_ident "a"; L.T_ident "b"; L.T_eof ]));
    test "block comments skipped" (fun () ->
        check_bool "comment" true
          (tokens "a /* x \n y */ b" = [ L.T_ident "a"; L.T_ident "b"; L.T_eof ]));
    test "directives skipped" (fun () ->
        check_bool "directive" true
          (tokens "`timescale 1ns/1ps\nwire" = [ L.T_keyword "wire"; L.T_eof ]));
    test "line numbers tracked" (fun () ->
        let toks = L.tokenize "a\nb\n\nc" in
        let lines = List.map (fun (_, line, _) -> line) toks in
        check_bool "lines" true (lines = [ 1; 2; 4; 4 ]));
    test "columns tracked" (fun () ->
        let toks = L.tokenize "ab cd\n  ef" in
        let cols = List.map (fun (_, _, col) -> col) toks in
        check_bool "cols" true (cols = [ 1; 4; 3; 5 ]));
    test "lexer error carries position" (fun () ->
        match L.tokenize "wire w;\n  \\bad" with
        | exception L.Error (_, line, col) ->
          check_int "line" 2 line;
          check_int "col" 3 col
        | _ -> Alcotest.fail "expected lexer error");
    test "unterminated block comment fails" (fun () ->
        match L.tokenize "/* never closed" with
        | exception L.Error _ -> ()
        | _ -> Alcotest.fail "expected lexer error");
    test "dollar allowed inside identifiers" (fun () ->
        check_bool "a$b one ident" true
          (tokens "a$b" = [ L.T_ident "a$b"; L.T_eof ]));
    test "bad character fails" (fun () ->
        match L.tokenize "\\bad" with
        | exception L.Error _ -> ()
        | _ -> Alcotest.fail "expected lexer error") ]

(* ------------------------------------------------------------------ *)
(* Parser.                                                             *)
(* ------------------------------------------------------------------ *)

let parse_one src =
  match (parse src).A.modules with
  | [ m ] -> m
  | ms -> Alcotest.failf "expected one module, got %d" (List.length ms)

let parser_tests =
  [ test "empty module" (fun () ->
        let m = parse_one "module m (); endmodule" in
        check_string "name" "m" m.A.mod_name;
        check_int "ports" 0 (List.length m.A.mod_ports));
    test "classic ports" (fun () ->
        let m = parse_one "module m (a, b); input a; output b; endmodule" in
        check_bool "order" true (m.A.mod_ports = [ "a"; "b" ]));
    test "ansi ports inherit direction" (fun () ->
        let m = parse_one "module m (input [3:0] a, b, output c); endmodule" in
        check_int "three ports" 3 (List.length m.A.mod_ports);
        let dirs =
          List.filter_map
            (function A.I_port (d, _, _, ns) -> Some (d, ns) | _ -> None)
            m.A.mod_items
        in
        check_bool "b inherits input" true
          (List.exists (fun (d, ns) -> d = A.Input && ns = [ "b" ]) dirs));
    test "parameter header" (fun () ->
        let m =
          parse_one "module m #(parameter W = 8, D = 2) (input x); endmodule"
        in
        let params =
          List.filter_map
            (function A.I_param (n, _) -> Some n | _ -> None)
            m.A.mod_items
        in
        check_bool "two params" true (params = [ "W"; "D" ]));
    test "operator precedence" (fun () ->
        let m = parse_one "module m (); wire x; assign x = 1 + 2 * 3; endmodule" in
        let rhs =
          List.find_map
            (function A.I_assign (_, e) -> Some e | _ -> None)
            m.A.mod_items
        in
        (match rhs with
         | Some (A.E_binop (A.B_add, _, A.E_binop (A.B_mul, _, _))) -> ()
         | _ -> Alcotest.fail "mul should bind tighter than add"));
    test "ternary right assoc" (fun () ->
        let m =
          parse_one "module m (); wire x; assign x = a ? b : c ? d : e; endmodule"
        in
        let rhs =
          List.find_map
            (function A.I_assign (_, e) -> Some e | _ -> None)
            m.A.mod_items
        in
        (match rhs with
         | Some (A.E_cond (_, A.E_ident "b", A.E_cond (_, _, _))) -> ()
         | _ -> Alcotest.fail "ternary should nest to the right"));
    test "le vs assign disambiguation" (fun () ->
        let m =
          parse_one
            {|module m (input clk); reg a; always @(posedge clk) a <= a <= 1; endmodule|}
        in
        let body =
          List.find_map
            (function A.I_always (_, b) -> Some b | _ -> None)
            m.A.mod_items
        in
        (match body with
         | Some [ A.S_nonblocking (_, A.E_binop (A.B_le, _, _)) ] -> ()
         | _ -> Alcotest.fail "expected nonblocking of a <= comparison"));
    test "case with multiple patterns" (fun () ->
        let m =
          parse_one
            {|module m (input [1:0] s); reg y;
              always @(*) begin case (s) 2'd0, 2'd1: y = 0; default: y = 1; endcase end
              endmodule|}
        in
        let arms =
          List.find_map
            (function
              | A.I_always (_, [ A.S_case (_, _, arms) ]) -> Some arms
              | _ -> None)
            m.A.mod_items
        in
        (match arms with
         | Some [ a1; a2 ] ->
           check_int "two patterns" 2 (List.length a1.A.arm_patterns);
           check_int "default" 0 (List.length a2.A.arm_patterns)
         | _ -> Alcotest.fail "expected two arms"));
    test "gate primitives" (fun () ->
        let m =
          parse_one "module m (input a, b, output y); nand g1 (y, a, b); endmodule"
        in
        check_bool "nand parsed" true
          (List.exists
             (function A.I_gate (A.G_nand, _, _, _) -> true | _ -> false)
             m.A.mod_items));
    test "replication and concat" (fun () ->
        let m =
          parse_one
            "module m (input [7:0] a, output [15:0] y); assign y = {{8{a[7]}}, a}; endmodule"
        in
        let rhs =
          List.find_map
            (function A.I_assign (_, e) -> Some e | _ -> None)
            m.A.mod_items
        in
        (match rhs with
         | Some (A.E_concat [ A.E_repl (_, _); A.E_ident "a" ]) -> ()
         | _ -> Alcotest.fail "expected concat of repl and ident"));
    test "named instance with params" (fun () ->
        let m =
          parse_one
            "module m (); adder #(.W(8)) u0 (.a(x), .b(y), .s()); endmodule"
        in
        (match
           List.find_map
             (function A.I_instance i -> Some i | _ -> None)
             m.A.mod_items
         with
         | Some i ->
           check_string "module" "adder" i.A.inst_module;
           check_int "params" 1 (List.length i.A.inst_params);
           (match i.A.inst_conns with
            | A.Named conns ->
              check_bool "open connection" true (List.assoc "s" conns = None)
            | _ -> Alcotest.fail "expected named connections")
         | None -> Alcotest.fail "no instance"));
    test "for loop" (fun () ->
        let m =
          parse_one
            {|module m (); reg [7:0] x; integer i;
              always @(*) begin for (i = 0; i < 8; i = i + 1) begin x[i] = 0; end end
              endmodule|}
        in
        check_bool "for parsed" true
          (List.exists
             (function
               | A.I_always (_, body) ->
                 List.exists (function A.S_for _ -> true | _ -> false) body
               | _ -> false)
             m.A.mod_items));
    test "masked binary literal" (fun () ->
        let m =
          parse_one
            {|module m (input [3:0] s); reg y;
              always @(*) begin
                casez (s) 4'b1??? : y = 1; 4'b01z0: y = 0; default: y = 0; endcase
              end endmodule|}
        in
        let arms =
          List.find_map
            (function
              | A.I_always (_, [ A.S_case (A.Casez, _, arms) ]) -> Some arms
              | _ -> None)
            m.A.mod_items
        in
        (match arms with
         | Some ({ A.arm_patterns = [ A.E_masked m1 ]; _ }
                 :: { A.arm_patterns = [ A.E_masked m2 ]; _ } :: _) ->
           check_int "m1 value" 0b1000 m1.A.m_value;
           check_int "m1 care" 0b1000 m1.A.m_care;
           check_int "m2 value" 0b0100 m2.A.m_value;
           check_int "m2 care" 0b1101 m2.A.m_care
         | _ -> Alcotest.fail "expected masked patterns"));
    test "masked literal round trips through the printer" (fun () ->
        let src =
          {|module m (input [3:0] s, output reg y);
            always @(*) begin
              y = 0;
              casez (s) 4'b1?0?: y = 1; endcase
            end endmodule|}
        in
        let s1 = Verilog.Pp.design_to_string (parse src) in
        let s2 = Verilog.Pp.design_to_string (parse s1) in
        check_string "stable" s1 s2);
    test "syntax error carries position" (fun () ->
        match parse "module m (\n  input a\n  output b); endmodule" with
        | exception P.Error (_, line, col) ->
          check_int "line" 3 line;
          check_int "col" 3 col
        | _ -> Alcotest.fail "expected parse error");
    test "missing semicolon fails" (fun () ->
        match parse "module m (); wire x endmodule" with
        | exception P.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    test "multiple modules in one file" (fun () ->
        let d =
          parse
            "module a (); endmodule module b (); endmodule module c (); endmodule"
        in
        check_int "three" 3 (List.length d.A.modules);
        check_string "find" "b" (A.find_module d "b").A.mod_name;
        (match A.find_module d "ghost" with
         | exception Not_found -> ()
         | _ -> Alcotest.fail "expected Not_found"));
    test "shift binds tighter than comparison" (fun () ->
        let m =
          parse_one "module m (); wire x; assign x = a < b << 2; endmodule"
        in
        (match
           List.find_map
             (function A.I_assign (_, e) -> Some e | _ -> None)
             m.A.mod_items
         with
         | Some (A.E_binop (A.B_lt, _, A.E_binop (A.B_shl, _, _))) -> ()
         | _ -> Alcotest.fail "a < (b << 2) expected"));
    test "chained unary operators" (fun () ->
        let m =
          parse_one "module m (); wire x; assign x = ~!&a; endmodule"
        in
        (match
           List.find_map
             (function A.I_assign (_, e) -> Some e | _ -> None)
             m.A.mod_items
         with
         | Some (A.E_unop (A.U_not, A.E_unop (A.U_lnot, A.E_unop (A.U_rand, _))))
           -> ()
         | _ -> Alcotest.fail "expected ~(!(&a))"));
    test "concat lvalue in always" (fun () ->
        let m =
          parse_one
            {|module m (input clk); reg a; reg [2:0] b;
              always @(posedge clk) {a, b} <= 4'd9; endmodule|}
        in
        (match
           List.find_map
             (function A.I_always (_, b) -> Some b | _ -> None)
             m.A.mod_items
         with
         | Some [ A.S_nonblocking (A.L_concat [ _; _ ], _) ] -> ()
         | _ -> Alcotest.fail "expected concat lvalue"));
    test "memory declaration with mixed scalars" (fun () ->
        let m =
          parse_one
            "module m (); reg [7:0] plain, arr [0:15], other; endmodule"
        in
        let memories =
          List.filter_map
            (function A.I_memory (_, _, ns) -> Some ns | _ -> None)
            m.A.mod_items
          |> List.concat
        in
        let nets =
          List.filter_map
            (function A.I_net (_, _, ns) -> Some ns | _ -> None)
            m.A.mod_items
          |> List.concat
        in
        check_bool "arr is memory" true (memories = [ "arr" ]);
        check_bool "scalars stay nets" true (nets = [ "plain"; "other" ]));
    test "wire array rejected" (fun () ->
        match parse "module m (); wire [7:0] w [0:3]; endmodule" with
        | exception P.Error _ -> ()
        | _ -> Alcotest.fail "expected parse error") ]

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips.                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip_src =
  [ "simple",
    {|module m (input [3:0] a, output [3:0] y); assign y = ~a + 4'd1; endmodule|};
    "hierarchy",
    {|module leaf (input x, output y); assign y = !x; endmodule
      module top (input x, output y);
        wire t; leaf u0 (.x(x), .y(t)); leaf u1 (.x(t), .y(y));
      endmodule|};
    "sequential",
    {|module top (input clk, rst, output reg [7:0] q);
        always @(posedge clk) begin
          if (rst) q <= 8'd0; else q <= q + 8'd1;
        end
      endmodule|};
    "case",
    {|module top (input [1:0] s, input [3:0] a, b, c, output reg [3:0] y);
        always @(*) begin
          case (s) 2'd0: y = a; 2'd1: y = b; default: y = c; endcase
        end
      endmodule|} ]

let roundtrip_tests =
  List.map
    (fun (name, src) ->
      test ("roundtrip " ^ name) (fun () ->
          let d1 = parse src in
          let s1 = Verilog.Pp.design_to_string d1 in
          let d2 = parse s1 in
          let s2 = Verilog.Pp.design_to_string d2 in
          check_string "stable after one print" s1 s2))
    roundtrip_src

(* ------------------------------------------------------------------ *)
(* Ast_util.                                                           *)
(* ------------------------------------------------------------------ *)

let expr_of_string s =
  let src = Printf.sprintf "module m (); wire x; assign x = %s; endmodule" s in
  let m = parse_one src in
  match
    List.find_map (function A.I_assign (_, e) -> Some e | _ -> None) m.A.mod_items
  with
  | Some e -> e
  | None -> Alcotest.fail "no expression"

let signals s = U.Sset.elements (U.expr_signals (expr_of_string s))

let ast_util_tests =
  [ test "expr signals" (fun () ->
        check_bool "a b c" true (signals "a + (b ? c[2] : 1)" = [ "a"; "b"; "c" ]));
    test "index reads count" (fun () ->
        check_bool "index signal" true (signals "mem[addr]" = [ "addr"; "mem" ]));
    test "stmt writes through concat" (fun () ->
        let m =
          parse_one
            {|module m (); reg a; reg [3:0] b;
              always @(*) begin {a, b} = 5'd3; end endmodule|}
        in
        let body =
          List.find_map
            (function A.I_always (_, b) -> Some b | _ -> None)
            m.A.mod_items
        in
        let w = U.stmts_writes (Option.get body) in
        check_bool "a and b written" true (U.Sset.elements w = [ "a"; "b" ]));
    test "for loop var not free" (fun () ->
        let m =
          parse_one
            {|module m (); reg [7:0] x; integer i;
              always @(*) begin for (i = 0; i < 8; i = i + 1) begin x[i] = y; end end
              endmodule|}
        in
        let body =
          List.find_map
            (function A.I_always (_, b) -> Some b | _ -> None)
            m.A.mod_items
        in
        let reads = U.stmts_reads (Option.get body) in
        check_bool "i eliminated" true (not (U.Sset.mem "i" reads));
        check_bool "y free" true (U.Sset.mem "y" reads));
    qtest "subst replaces every bound name"
      QCheck.(triple small_int small_int small_int)
      (fun (a, b, c) ->
        let lit value = A.E_const { A.width = None; value } in
        let se =
          U.subst_expr
            (U.Smap.of_seq
               (List.to_seq [ ("x", lit a); ("y", lit b); ("z", lit c) ]))
            (expr_of_string "x + y * z")
        in
        se = A.E_binop (A.B_add, lit a, A.E_binop (A.B_mul, lit b, lit c))) ]

let () =
  Alcotest.run "verilog"
    [ ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("roundtrip", roundtrip_tests);
      ("ast_util", ast_util_tests) ]
