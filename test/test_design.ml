(** Tests for elaboration, hierarchy construction, and the def-use /
    use-def chains (the paper's Figure 2 data structure). *)

open Testutil
module E = Design.Elaborate
module H = Design.Hierarchy
module Ch = Design.Chains
module Smap = Verilog.Ast_util.Smap
module Sset = Verilog.Ast_util.Sset

(* ------------------------------------------------------------------ *)
(* Elaboration.                                                        *)
(* ------------------------------------------------------------------ *)

let elab_tests =
  [ test "parameter defaults" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input [W-1:0] a, output [W-1:0] y);
              parameter W = 8; assign y = a; endmodule|}
        in
        let em = E.find_emodule ed "top" in
        check_int "width" 8 (E.signal_width (E.signal_of em "a")));
    test "parameter override specializes" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module inner #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
                assign y = ~a;
              endmodule
              module top (input [15:0] a, output [15:0] y);
                inner #(.W(16)) u (.a(a), .y(y));
              endmodule|}
        in
        check_bool "specialized module exists" true
          (Smap.mem "inner_p_W16" ed.E.ed_modules));
    test "same parameters share specialization" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module inner #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
                assign y = ~a;
              endmodule
              module top (input [3:0] a, output [3:0] y, z);
                inner u0 (.a(a), .y(y));
                inner u1 (.a(a), .y(z));
              endmodule|}
        in
        check_int "modules" 2 (Smap.cardinal ed.E.ed_modules));
    test "localparam resolves" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input a, output y);
              localparam ON = 1; assign y = a & ON; endmodule|}
        in
        let em = E.find_emodule ed "top" in
        check_bool "no stray signal" true (not (Smap.mem "ON" em.E.em_signals)));
    test "for loop unrolls" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input [3:0] a, output reg [3:0] y);
              integer i;
              always @(*) begin
                for (i = 0; i < 4; i = i + 1) begin y[i] = a[3 - i]; end
              end endmodule|}
        in
        let em = E.find_emodule ed "top" in
        let count_leaves =
          Array.fold_left
            (fun acc item ->
              match item with
              | E.EI_always (_, body) -> acc + List.length body
              | _ -> acc)
            0 em.E.em_items
        in
        check_int "four unrolled statements" 4 count_leaves);
    test "static if folds" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input a, output reg y);
              parameter MODE = 0;
              always @(*) begin
                if (MODE == 1) y = ~a; else y = a;
              end endmodule|}
        in
        let em = E.find_emodule ed "top" in
        (match em.E.em_items with
         | [| E.EI_always (_, [ Verilog.Ast.S_blocking (_, Verilog.Ast.E_ident "a") ]) |] -> ()
         | _ -> Alcotest.fail "static branch should be spliced");
        ignore ed);
    test "positional connections" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module inv (input a, output y); assign y = ~a; endmodule
              module top (input a, output y); inv u (a, y); endmodule|}
        in
        let em = E.find_emodule ed "top" in
        (match em.E.em_items with
         | [| E.EI_instance i |] ->
           check_bool "a bound" true
             (List.assoc "a" i.E.ei_conns = Some (Verilog.Ast.E_ident "a"))
         | _ -> Alcotest.fail "expected one instance"));
    test "arity mismatch rejected" (fun () ->
        match
          elaborate ~top:"top"
            {|module inv (input a, output y); assign y = ~a; endmodule
              module top (input a, output y); inv u (a); endmodule|}
        with
        | exception E.Error _ -> ()
        | _ -> Alcotest.fail "expected elaboration error");
    test "undefined module rejected" (fun () ->
        match
          elaborate ~top:"top"
            "module top (input a); ghost u (.x(a)); endmodule"
        with
        | exception E.Error _ -> ()
        | _ -> Alcotest.fail "expected elaboration error");
    test "multiple clock edges rejected" (fun () ->
        match
          elaborate ~top:"top"
            {|module top (input c1, c2, output reg y);
              always @(posedge c1 or posedge c2) y <= 1; endmodule|}
        with
        | exception E.Error _ -> ()
        | _ -> Alcotest.fail "expected elaboration error");
    test "runaway for loop rejected" (fun () ->
        match
          elaborate ~top:"top"
            {|module top (output reg y); integer i;
              always @(*) begin for (i = 0; i < 100000; i = i + 1) begin y = 0; end end
              endmodule|}
        with
        | exception E.Error _ -> ()
        | _ -> Alcotest.fail "expected loop-bound error");
    test "memory bounds must be constant" (fun () ->
        match
          elaborate ~top:"top"
            {|module top (input [3:0] n, output y);
              reg [3:0] m [0:n]; assign y = m[0]; endmodule|}
        with
        | exception E.Error _ -> ()
        | _ -> Alcotest.fail "expected elaboration error");
    test "memory signal carries word count" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input clk, input [7:0] d, output [7:0] q);
              reg [7:0] m [2:5];
              always @(posedge clk) m[2] <= d;
              assign q = m[2]; endmodule|}
        in
        let em = E.find_emodule ed "top" in
        let s = E.signal_of em "m" in
        check_int "words" 4 s.E.sg_words;
        check_int "base" 2 s.E.sg_addr_base;
        check_bool "memory" true (E.is_memory s);
        check_int "word width" 8 (E.signal_width s));
    test "output merged with reg declaration" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input clk, output y);
              reg y;
              always @(posedge clk) y <= ~y; endmodule|}
        in
        let em = E.find_emodule ed "top" in
        let s = E.signal_of em "y" in
        check_bool "reg" true s.E.sg_reg;
        check_bool "still a port" true (s.E.sg_dir = Some Verilog.Ast.Output));
    test "port bit counts" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input [7:0] a, input b, output [3:0] y);
              assign y = a[3:0] & {4{b}}; endmodule|}
        in
        let em = E.find_emodule ed "top" in
        check_int "pi bits" 9 (E.port_bits em (E.inputs_of em));
        check_int "po bits" 4 (E.port_bits em (E.outputs_of em)));
    test "a localparam reading a signal is an error naming it" (fun () ->
        match
          elaborate ~top:"top"
            {|module top (input [3:0] a, output [3:0] y);
              localparam P = a + 1; assign y = P; endmodule|}
        with
        | exception E.Error msg ->
          check_string "message"
            "localparam P: expression is not constant after elaboration \
             (reads a)"
            msg
        | _ -> Alcotest.fail "expected elaboration error");
    test "a sized override specializes by width" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module twice (output [7:0] q); parameter P = 0;
                assign q = {P, P}; endmodule
              module top (output [7:0] y0, y1, y2);
                twice #(.P(2'd1)) u0 (.q(y0));
                twice #(.P(4'd1)) u1 (.q(y1));
                twice #(.P(1)) u2 (.q(y2));
              endmodule|}
        in
        check_bool "one module per width" true
          (List.for_all
             (fun m -> Smap.mem m ed.E.ed_modules)
             [ "twice_p_P1w2"; "twice_p_P1w4"; "twice_p_P1" ])) ]

(* ------------------------------------------------------------------ *)
(* Hierarchy.                                                          *)
(* ------------------------------------------------------------------ *)

let deep_src =
  {|module leaf (input a, output y); assign y = ~a; endmodule
    module mid (input a, output y);
      wire t; leaf u_l1 (.a(a), .y(t)); leaf u_l2 (.a(t), .y(y));
    endmodule
    module top (input a, output y); mid u_mid (.a(a), .y(y)); endmodule|}

let hierarchy_tests =
  [ test "tree shape" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        check_int "depth" 2 (H.max_depth tree);
        check_int "nodes" 4 (List.length (H.flatten tree)));
    test "find path" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        let n = H.find_path tree "u_mid.u_l2" in
        check_string "module" "leaf" n.H.nd_module;
        check_int "depth" 2 n.H.nd_depth);
    test "parent of" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        let n = H.find_path tree "u_mid.u_l1" in
        (match H.parent_of tree n with
         | Some p -> check_string "parent" "mid" p.H.nd_module
         | None -> Alcotest.fail "expected parent"));
    test "parent of root is none" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        check_bool "root" true (H.parent_of tree tree = None));
    test "census counts instances" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        let census = H.module_census tree in
        check_int "two leaves" 2 (Smap.find "leaf" census));
    test "instance item lookup" (fun () ->
        let ed = elaborate ~top:"top" deep_src in
        let tree = H.build ed in
        let n = H.find_path tree "u_mid.u_l2" in
        let p = Option.get (H.parent_of tree n) in
        let inst = H.instance_item ed p n in
        check_string "instance name" "u_l2" inst.E.ei_name) ]

(* ------------------------------------------------------------------ *)
(* Chains.                                                             *)
(* ------------------------------------------------------------------ *)

let chains_for src name =
  let ed = elaborate ~top:name src in
  let em = E.find_emodule ed name in
  (ed, em, Ch.build ed em)

let chains_tests =
  [ test "assign defines and uses" (fun () ->
        let (_, _, ch) =
          chains_for "module m (input a, b, output y); assign y = a & b; endmodule" "m"
        in
        check_int "y has one def" 1 (Ch.Site_set.cardinal (Ch.defs_of ch "y"));
        check_int "a has one use" 1 (Ch.Site_set.cardinal (Ch.uses_of ch "a"));
        check_bool "y unused" true (Ch.Site_set.is_empty (Ch.uses_of ch "y")));
    test "condition reads attach to leaves" (fun () ->
        let (_, em, ch) =
          chains_for
            {|module m (input c, a, b, output reg y);
              always @(*) begin if (c) y = a; else y = b; end endmodule|}
            "m"
        in
        let c_uses = Ch.uses_of ch "c" in
        check_int "c used at both leaves" 2 (Ch.Site_set.cardinal c_uses);
        (* every def site of y must read its dominating condition *)
        Ch.Site_set.iter
          (fun site ->
            let reads = Ch.site_reads (elaborate ~top:"m"
              {|module m (input c, a, b, output reg y);
                always @(*) begin if (c) y = a; else y = b; end endmodule|}) em site in
            check_bool "condition read" true (Sset.mem "c" reads))
          (Ch.defs_of ch "y"));
    test "case subject attaches to arms" (fun () ->
        let (ed, em, ch) =
          chains_for
            {|module m (input [1:0] s, input a, b, output reg y);
              always @(*) begin case (s) 2'd0: y = a; default: y = b; endcase end
              endmodule|}
            "m"
        in
        check_int "two defs of y" 2 (Ch.Site_set.cardinal (Ch.defs_of ch "y"));
        Ch.Site_set.iter
          (fun site ->
            check_bool "subject read" true
              (Sset.mem "s" (Ch.site_reads ed em site)))
          (Ch.defs_of ch "y"));
    test "instance output is a def" (fun () ->
        let src =
          {|module inv (input a, output y); assign y = ~a; endmodule
            module m (input a, output y);
              wire t; inv u (.a(a), .y(t)); assign y = t;
            endmodule|}
        in
        let ed = elaborate ~top:"m" src in
        let em = E.find_emodule ed "m" in
        let ch = Ch.build ed em in
        check_int "t defined by instance" 1
          (Ch.Site_set.cardinal (Ch.defs_of ch "t"));
        check_int "a used by instance" 1
          (Ch.Site_set.cardinal (Ch.uses_of ch "a")));
    test "site leaf resolves nested statements" (fun () ->
        let (_, em, ch) =
          chains_for
            {|module m (input c, d, a, output reg y);
              always @(*) begin
                y = 0;
                if (c) begin if (d) y = a; end
              end endmodule|}
            "m"
        in
        let deepest =
          Ch.Site_set.fold
            (fun s acc ->
              if List.length s.Ch.st_path > List.length acc.Ch.st_path then s
              else acc)
            (Ch.defs_of ch "y")
            { Ch.st_item = 0; st_path = [] }
        in
        (match Ch.site_leaf em deepest with
         | Some (Verilog.Ast.S_blocking (_, Verilog.Ast.E_ident "a"), conds) ->
           check_int "two dominating conditions" 2 (List.length conds)
         | _ -> Alcotest.fail "expected the nested leaf"));
    test "empty chains for undriven signal" (fun () ->
        let (_, _, ch) =
          chains_for
            "module m (input a, output y); wire ghost; assign y = a & ghost; endmodule"
            "m"
        in
        check_bool "ghost has no defs" true
          (Ch.Site_set.is_empty (Ch.defs_of ch "ghost"));
        check_int "ghost has a use" 1 (Ch.Site_set.cardinal (Ch.uses_of ch "ghost")));
    test "chains pinned" (fun () ->
        (* a digest of every module's use-def and def-use chains, per
           design: a change to how chains are built that must leave
           them unchanged has to keep these *)
        let digest d top =
          let b = Buffer.create 65536 in
          let dump name m =
            Smap.iter
              (fun s sites ->
                Printf.bprintf b "%s %s:" name s;
                Ch.Site_set.iter
                  (fun site -> Printf.bprintf b " %s" (Ch.site_to_string site))
                  sites;
                Buffer.add_char b '\n')
              m
          in
          Smap.iter
            (fun m ch ->
              Printf.bprintf b "module %s\n" m;
              dump "def" ch.Ch.ch_use_def;
              dump "use" ch.Ch.ch_def_use)
            (Ch.build_all (E.elaborate d ~top));
          Digest.to_hex (Digest.string (Buffer.contents b))
        in
        let got =
          ("arm", digest (Arm.Rtl.design ()) Arm.Rtl.top)
          :: List.map
               (fun e ->
                 ( e.Circuits.Collection.e_name,
                   digest (parse e.Circuits.Collection.e_source)
                     e.Circuits.Collection.e_top ))
               Circuits.Collection.all
        in
        Alcotest.(check (list (pair string string))) "digests"
          [ ("arm", "06584e8b050220d75b1ded4a39280ddf");
            ("gcd", "eda3bdeb9861b42f837c4c4cecc47852");
            ("fifo", "5b2e51064b27df3f4601858166a97928");
            ("arbiter", "a5a40a064e49a3aa967bd0a8bef11131");
            ("traffic", "930c949de289f5c01d29b5a5fed94bfb");
            ("dma", "57c4c62064f61dc3e6717a56edca38cc");
            ("scratchpad", "6b09ebc0f11495703b010dd39f13ea42");
            ("mcu8", "b626da814fc3267265c881b8e68b342d") ]
          got) ]

(* ------------------------------------------------------------------ *)
(* Width lint.                                                          *)
(* ------------------------------------------------------------------ *)

let lint_tests =
  [ test "truncating assignment flagged" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input [7:0] a, output [3:0] y);
              assign y = a; endmodule|}
        in
        (match Design.Lint.check ed with
         | [ f ] ->
           check_string "signal" "y" f.Design.Lint.ln_context;
           check_int "lhs" 4 f.Design.Lint.ln_lhs_width;
           check_int "rhs" 8 f.Design.Lint.ln_rhs_width
         | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)));
    test "connection width mismatch flagged" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module inv (input [3:0] a, output [3:0] y); assign y = ~a; endmodule
              module top (input [7:0] i, output [3:0] o);
                inv u (.a(i), .y(o));
              endmodule|}
        in
        let findings = Design.Lint.check ed in
        check_bool "u.a flagged" true
          (List.exists
             (fun f -> f.Design.Lint.ln_context = "u.a")
             findings));
    test "matched widths are clean" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (input [7:0] a, b, output [7:0] y, output z);
              assign y = a + b;
              assign z = a < b; endmodule|}
        in
        check_int "no findings" 0 (List.length (Design.Lint.check ed)));
    test "small unsized constants are tolerated" (fun () ->
        let ed =
          elaborate ~top:"top"
            {|module top (output [7:0] y); assign y = 3; endmodule|}
        in
        check_int "clean" 0 (List.length (Design.Lint.check ed)));
    test "corpus designs carry no width surprises" (fun () ->
        List.iter
          (fun entry ->
            let ed =
              Design.Elaborate.elaborate
                (parse entry.Circuits.Collection.e_source)
                ~top:entry.Circuits.Collection.e_top
            in
            (* the corpus uses deliberate width adaptation in a few spots;
               just check the linter runs and stays quiet-ish *)
            check_bool
              (entry.Circuits.Collection.e_name ^ " lint bounded")
              true
              (List.length (Design.Lint.check ed) < 25))
          Circuits.Collection.all) ]

let () =
  Alcotest.run "design"
    [ ("elaborate", elab_tests);
      ("hierarchy", hierarchy_tests);
      ("chains", chains_tests);
      ("lint", lint_tests) ]
