(** Tests for the FACTOR core: slices, extraction (find_source_logic /
    find_prop_paths), composition with caching, reconstruction,
    transformed-module construction, PIER identification and testability
    analysis. *)

open Testutil
module H = Design.Hierarchy
module Ch = Design.Chains
module Sset = Verilog.Ast_util.Sset
module Smap = Verilog.Ast_util.Smap

(* A three-level design with a clear separation between logic that is in
   the MUT's cones and logic that is not:

   top
   ├── u_core : core
   │   ├── u_mut : leafm          <- module under test
   │   └── u_side : sidecalc      <- feeds the MUT (source cone)
   └── u_noise : noise            <- independent; must be pruned
*)
let demo =
  {|module leafm (input [3:0] a, b, output [3:0] y);
      assign y = a ^ b;
    endmodule
    module sidecalc (input [3:0] x, output [3:0] masked);
      assign masked = x & 4'd7;
    endmodule
    module noise (input [3:0] n, output [3:0] loud);
      assign loud = n + 4'd3;
    endmodule
    module core (input [3:0] p, q, output [3:0] r);
      wire [3:0] m;
      sidecalc u_side (.x(p), .masked(m));
      leafm u_mut (.a(m), .b(q), .y(r));
    endmodule
    module top (input [3:0] i1, i2, i3, output [3:0] o1, o2);
      core u_core (.p(i1), .q(i2), .r(o1));
      noise u_noise (.n(i3), .loud(o2));
    endmodule|}

let demo_env () = Factor.Compose.make_env (parse demo) ~top:"top"

let extract_demo granularity =
  let env = demo_env () in
  let tree = env.Factor.Compose.tree in
  let node = H.find_path tree "u_core.u_mut" in
  Factor.Extract.run ~ed:env.Factor.Compose.ed ~tree
    ~chains:env.Factor.Compose.chains ~stop:tree ~granularity ~node
    ~sources:[ "a"; "b" ] ~props:[ "y" ] ()

let extract_tests =
  [ test "source cone reaches chip pins" (fun () ->
        let r = extract_demo Factor.Extract.Fine in
        check_bool "pi reached" true r.Factor.Extract.rs_reached_pi;
        check_bool "po reached" true r.Factor.Extract.rs_reached_po);
    test "independent module pruned" (fun () ->
        let r = extract_demo Factor.Extract.Fine in
        let slice = r.Factor.Extract.rs_slice in
        check_bool "noise not in slice" true
          (Ch.Site_set.is_empty (Factor.Slice.sites_of slice "noise")));
    test "side calculator kept" (fun () ->
        let r = extract_demo Factor.Extract.Fine in
        let slice = r.Factor.Extract.rs_slice in
        check_bool "sidecalc in slice" true
          (not (Ch.Site_set.is_empty (Factor.Slice.sites_of slice "sidecalc"))));
    test "no dead ends in clean design" (fun () ->
        let r = extract_demo Factor.Extract.Fine in
        check_int "dead ends" 0 (List.length r.Factor.Extract.rs_dead_ends));
    test "dead end reported with trace" (fun () ->
        let env =
          Factor.Compose.make_env
            (parse
               {|module leafm (input [3:0] a, output [3:0] y);
                   assign y = ~a;
                 endmodule
                 module top (input [3:0] i, output [3:0] o);
                   wire [3:0] floating;
                   leafm u_mut (.a(floating), .y(o));
                 endmodule|})
            ~top:"top"
        in
        let tree = env.Factor.Compose.tree in
        let node = H.find_path tree "u_mut" in
        let r =
          Factor.Extract.run ~ed:env.Factor.Compose.ed ~tree
            ~chains:env.Factor.Compose.chains ~stop:tree
            ~granularity:Factor.Extract.Fine ~node ~sources:[ "a" ] ~props:[] ()
        in
        (match r.Factor.Extract.rs_dead_ends with
         | [ d ] ->
           check_string "signal" "floating" d.Factor.Extract.de_signal;
           check_bool "trace nonempty" true (d.Factor.Extract.de_trace <> [])
         | _ -> Alcotest.fail "expected exactly one dead end"));
    test "boundary stops at non-root" (fun () ->
        let env = demo_env () in
        let tree = env.Factor.Compose.tree in
        let node = H.find_path tree "u_core.u_mut" in
        let stop = H.find_path tree "u_core" in
        let r =
          Factor.Extract.run ~ed:env.Factor.Compose.ed ~tree
            ~chains:env.Factor.Compose.chains ~stop
            ~granularity:Factor.Extract.Fine ~node ~sources:[ "a"; "b" ]
            ~props:[ "y" ] ()
        in
        check_bool "p and q boundary sources" true
          (Sset.equal r.Factor.Extract.rs_boundary_sources
             (Sset.of_list [ "p"; "q" ]));
        check_bool "r boundary prop" true
          (Sset.equal r.Factor.Extract.rs_boundary_props
             (Sset.of_list [ "r" ]));
        check_bool "not marked as pin-reaching" true
          (not r.Factor.Extract.rs_reached_pi));
    test "coarse keeps at least as much as fine" (fun () ->
        let fine = extract_demo Factor.Extract.Fine in
        let coarse = extract_demo Factor.Extract.Coarse in
        check_bool "coarse >= fine" true
          (Factor.Slice.cardinal coarse.Factor.Extract.rs_slice
           >= Factor.Slice.cardinal fine.Factor.Extract.rs_slice)) ]

(* ------------------------------------------------------------------ *)
(* Composition.                                                        *)
(* ------------------------------------------------------------------ *)

let compose_tests =
  [ test "compositional matches extraction result" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        check_bool "reaches pins" true
          (stats.Factor.Compose.cs_reached_pi && stats.Factor.Compose.cs_reached_po);
        check_bool "two stages" true (stats.Factor.Compose.cs_stages = 2);
        check_bool "noise pruned" true
          (Ch.Site_set.is_empty
             (Factor.Slice.sites_of stats.Factor.Compose.cs_slice "noise")));
    test "session cache hits on repeat" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let _first =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let second =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        check_bool "pure hits" true (second.Factor.Compose.cs_cache_hits >= 2);
        check_int "no new misses" 0 second.Factor.Compose.cs_cache_misses);
    test "conventional anchors at level-1 ancestor" (fun () ->
        let env = demo_env () in
        let stats = Factor.Compose.conventional env ~mut_path:"u_core.u_mut" in
        (* the whole core (including sidecalc) is kept whole *)
        check_bool "core full" true
          (Factor.Slice.is_full stats.Factor.Compose.cs_slice "core");
        check_bool "noise still pruned" true
          (Ch.Site_set.is_empty
             (Factor.Slice.sites_of stats.Factor.Compose.cs_slice "noise")));
    test "mut kept whole in both flows" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let conv = Factor.Compose.conventional env ~mut_path:"u_core.u_mut" in
        let comp =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        check_bool "conv" true
          (Factor.Slice.is_full conv.Factor.Compose.cs_slice "leafm");
        check_bool "comp" true
          (Factor.Slice.is_full comp.Factor.Compose.cs_slice "leafm")) ]

(* ------------------------------------------------------------------ *)
(* Reconstruction and the transformed module.                          *)
(* ------------------------------------------------------------------ *)

let transform_tests =
  [ test "reconstructed design is self-contained verilog" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let (design, _) =
          Factor.Reconstruct.design ~ed:env.Factor.Compose.ed
            ~slice:stats.Factor.Compose.cs_slice ~top:"top"
        in
        (* must print and re-parse *)
        let printed = Verilog.Pp.design_to_string design in
        let reparsed = parse printed in
        check_int "same module count"
          (List.length design.Verilog.Ast.modules)
          (List.length reparsed.Verilog.Ast.modules));
    test "transformed module drops independent pins" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_core.u_mut"
        in
        (* i3 and o2 belong to the pruned noise path *)
        check_int "8 pi bits (i1, i2)" 8 tf.Factor.Transform.tf_pi_bits;
        check_int "4 po bits (o1)" 4 tf.Factor.Transform.tf_po_bits);
    test "transformed module preserves mut function" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_core.u_mut"
        in
        let c = tf.Factor.Transform.tf_circuit in
        (* o1 = (i1 & 7) ^ i2 *)
        check_out "function preserved" ((5 land 7) lxor 9)
          (eval_out c [ ("i1", 5); ("i2", 9) ] "o1"));
    test "surrounding gates exclude the mut" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_core.u_mut"
        in
        check_bool "mut gates counted" true (tf.Factor.Transform.tf_mut_gates > 0);
        check_bool "surrounding small" true
          (tf.Factor.Transform.tf_surrounding_gates
           < tf.Factor.Transform.tf_mut_gates)) ]

(* ------------------------------------------------------------------ *)
(* Prefix containment.                                                  *)
(* ------------------------------------------------------------------ *)

let prefix_tests =
  [ test "under_prefix semantics" (fun () ->
        check_bool "exact" true (Netlist.under_prefix "a.b" "a.b");
        check_bool "child" true (Netlist.under_prefix "a.b" "a.b.c");
        check_bool "sibling name prefix" false
          (Netlist.under_prefix "a.b" "a.bc");
        check_bool "root contains all" true
          (Netlist.under_prefix "" "a.b");
        check_bool "unrelated" false
          (Netlist.under_prefix "a.b" "a")) ]

(* ------------------------------------------------------------------ *)
(* Slice algebra.                                                       *)
(* ------------------------------------------------------------------ *)

let slice_tests =
  [ test "union merges sites and full marks" (fun () ->
        let s1 = { Ch.st_item = 0; st_path = [ 1 ] } in
        let s2 = { Ch.st_item = 2; st_path = [] } in
        let a = Factor.Slice.add Factor.Slice.empty "m" s1 in
        let b =
          Factor.Slice.mark_full (Factor.Slice.add Factor.Slice.empty "m" s2) "k"
        in
        let u = Factor.Slice.union a b in
        check_bool "s1 kept" true (Factor.Slice.mem u "m" s1);
        check_bool "s2 kept" true (Factor.Slice.mem u "m" s2);
        check_bool "k full" true (Factor.Slice.is_full u "k");
        check_int "cardinal" 2 (Factor.Slice.cardinal u);
        check_bool "modules" true
          (List.sort compare (Factor.Slice.modules u) = [ "k"; "m" ]));
    test "add is idempotent" (fun () ->
        let s1 = { Ch.st_item = 0; st_path = [] } in
        let a = Factor.Slice.add (Factor.Slice.add Factor.Slice.empty "m" s1) "m" s1 in
        check_int "one site" 1 (Factor.Slice.cardinal a)) ]

(* ------------------------------------------------------------------ *)
(* Reconstruction shapes.                                               *)
(* ------------------------------------------------------------------ *)

let reconstruct_tests =
  [ test "kept leaves retain their conditional skeleton" (fun () ->
        (* extract only one signal: the reconstructed always block keeps
           the case arms assigning it and drops the rest *)
        let env =
          Factor.Compose.make_env
            (parse
               {|module leafm (input [1:0] a, output [1:0] y);
                   assign y = a;
                 endmodule
                 module top (input [1:0] s, input [1:0] d, output [1:0] o,
                             output side);
                   reg [1:0] picked;
                   reg side_r;
                   always @(*) begin
                     picked = 2'd0;
                     side_r = 1'b0;
                     case (s)
                       2'd1: begin picked = d; side_r = 1'b1; end
                       2'd2: picked = {d[0], d[1]};
                     endcase
                   end
                   assign side = side_r;
                   leafm u_mut (.a(picked), .y(o));
                 endmodule|})
            ~top:"top"
        in
        let session = Factor.Compose.create_session () in
        let stats = Factor.Compose.compositional session env ~mut_path:"u_mut" in
        let (design, _) =
          Factor.Reconstruct.design ~ed:env.Factor.Compose.ed
            ~slice:stats.Factor.Compose.cs_slice ~top:"top"
        in
        let top = Verilog.Ast.find_module design "top" in
        let always_bodies =
          List.filter_map
            (function Verilog.Ast.I_always (_, b) -> Some b | _ -> None)
            top.Verilog.Ast.mod_items
        in
        (* side_r leaves must be gone: its only consumer is the dropped
           side output *)
        let writes =
          List.fold_left
            (fun acc b -> Verilog.Ast_util.Sset.union acc (Verilog.Ast_util.stmts_writes b))
            Verilog.Ast_util.Sset.empty always_bodies
        in
        check_bool "picked kept" true (Verilog.Ast_util.Sset.mem "picked" writes);
        check_bool "side_r dropped" true
          (not (Verilog.Ast_util.Sset.mem "side_r" writes));
        (* dropped ports disappear from the header *)
        check_bool "side port gone" true
          (not (List.mem "side" top.Verilog.Ast.mod_ports)));
    test "level-1 mut equals whole-design view" (fun () ->
        (* a MUT directly under the top: conventional and compositional
           agree *)
        let env =
          Factor.Compose.make_env
            (parse
               {|module leafm (input [3:0] a, output [3:0] y);
                   assign y = ~a;
                 endmodule
                 module top (input [3:0] i, output [3:0] o);
                   leafm u_mut (.a(i), .y(o));
                 endmodule|})
            ~top:"top"
        in
        let session = Factor.Compose.create_session () in
        let conv = Factor.Compose.conventional env ~mut_path:"u_mut" in
        let comp = Factor.Compose.compositional session env ~mut_path:"u_mut" in
        let build stats =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_mut"
        in
        let (a, b) = (build conv, build comp) in
        check_int "same pins" a.Factor.Transform.tf_pi_bits
          b.Factor.Transform.tf_pi_bits;
        check_int "same surrounding" a.Factor.Transform.tf_surrounding_gates
          b.Factor.Transform.tf_surrounding_gates) ]

(* ------------------------------------------------------------------ *)
(* PIER identification.                                                 *)
(* ------------------------------------------------------------------ *)

let pier_tests =
  [ test "directly loadable register is a pier" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output [3:0] y);
              reg [3:0] q; always @(posedge clk) q <= d;
              assign y = q; endmodule|}
        in
        check_int "all four bits" 4 (List.length (Factor.Pier.identify c)));
    test "buried register is not a pier" (fun () ->
        (* s1..s5 are each more than one crossing from an input or from
           an output; p sits next to both *)
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output [3:0] y, z);
              reg [3:0] p, s1, s2, s3, s4, s5;
              always @(posedge clk) begin
                p <= d; s1 <= d; s2 <= s1; s3 <= s2; s4 <= s3; s5 <= s4;
              end
              assign y = p; assign z = s5; endmodule|}
        in
        let names =
          List.map (fun i -> c.Netlist.ff_names.(i)) (Factor.Pier.identify c)
        in
        check_int "four bits" 4 (List.length names);
        check_bool "all of them p" true
          (List.for_all (fun n -> n.[0] = 'p') names));
    test "arm: pier counts pinned" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let chip = Factor.Flow.full_circuit env in
        check_int "chip flip-flops" 455 (Netlist.num_ffs chip);
        check_int "chip piers" 447 (List.length (Factor.Pier.identify chip));
        (* every compositional transformed module keeps 253 flip-flops,
           each of them a PIER *)
        let session = Factor.Compose.create_session () in
        List.iter
          (fun spec ->
            let path = spec.Factor.Flow.ms_path in
            let st = Factor.Compose.compositional session env ~mut_path:path in
            let c =
              (Factor.Transform.build env st.Factor.Compose.cs_slice
                 ~mut_path:path).Factor.Transform.tf_circuit
            in
            check_int (path ^ " flip-flops") 253 (Netlist.num_ffs c);
            check_int (path ^ " piers") 253
              (List.length (Factor.Pier.identify c)))
          Arm.Rtl.muts) ]

(* ------------------------------------------------------------------ *)
(* Testability analysis.                                                *)
(* ------------------------------------------------------------------ *)

let testability_tests =
  [ test "hard-coded input flagged" (fun () ->
        let env =
          Factor.Compose.make_env
            (parse
               {|module alu (input [3:0] a, input enable_add, output [3:0] y);
                   assign y = enable_add ? (a + 4'd1) : a;
                 endmodule
                 module top (input [3:0] i, input [1:0] op, output [3:0] o);
                   reg ctl;
                   always @(*) begin
                     case (op)
                       2'd0: ctl = 1'b0;
                       2'd1: ctl = 1'b1;
                       2'd2: ctl = 1'b1;
                       default: ctl = 1'b0;
                     endcase
                   end
                   alu u_alu (.a(i), .enable_add(ctl), .y(o));
                 endmodule|})
            ~top:"top"
        in
        let found = Factor.Testability.hard_coded_inputs env ~mut_path:"u_alu" in
        (match found with
         | [ h ] ->
           check_string "input" "enable_add" h.Factor.Testability.hc_input;
           check_bool "controlled by op" true
             (List.mem "op" h.Factor.Testability.hc_controls);
           check_int "two distinct values" 2 h.Factor.Testability.hc_values
         | _ -> Alcotest.fail "expected one hard-coded input"));
    test "data inputs not flagged" (fun () ->
        let env = demo_env () in
        check_int "none" 0
          (List.length
             (Factor.Testability.hard_coded_inputs env ~mut_path:"u_core.u_mut")));
    test "report renders" (fun () ->
        let env = demo_env () in
        let r =
          Factor.Testability.analyze env ~mut_path:"u_core.u_mut" ~dead_ends:[]
        in
        check_bool "mentions mut" true
          (String.length (Factor.Testability.report_to_string r) > 0)) ]

(* ------------------------------------------------------------------ *)
(* Chip-level translation.                                              *)
(* ------------------------------------------------------------------ *)

let translate_tests =
  [ test "pins map by name and dropped pins stay low" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_core.u_mut"
        in
        let chip =
          let ed = env.Factor.Compose.ed in
          let flat = Synth.Flatten.flatten ed ed.Design.Elaborate.ed_top in
          (Synth.Lower.lower flat).Synth.Lower.circuit
        in
        let tfc = tf.Factor.Transform.tf_circuit in
        let t =
          { Atpg.Pattern.p_vectors =
              [| Array.make (Netlist.num_pis tfc) true |];
            p_loads = [] }
        in
        let [@warning "-8"] [ translated ] =
          Factor.Translate.translate_all ~chip ~transformed:tfc [ t ]
        in
        check_int "chip width" (Netlist.num_pis chip)
          (Array.length translated.Atpg.Pattern.p_vectors.(0));
        (* the i3 pins (noise input) are not in the transformed module:
           they must be driven low *)
        Array.iteri
          (fun i name ->
            if String.length name >= 2 && String.sub name 0 2 = "i3" then
              check_bool "i3 low" false
                translated.Atpg.Pattern.p_vectors.(0).(i))
          chip.Netlist.pi_names);
    test "translated tests keep their chip-level coverage" (fun () ->
        let env = demo_env () in
        let session = Factor.Compose.create_session () in
        let stats =
          Factor.Compose.compositional session env ~mut_path:"u_core.u_mut"
        in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:"u_core.u_mut"
        in
        let tfc = tf.Factor.Transform.tf_circuit in
        let faults = Atpg.Fault.collapse tfc (Atpg.Fault.all ~within:"u_core.u_mut" tfc) in
        let r = Atpg.Gen.run tfc Atpg.Gen.default_config faults in
        let chip =
          let ed = env.Factor.Compose.ed in
          let flat = Synth.Flatten.flatten ed ed.Design.Elaborate.ed_top in
          (Synth.Lower.lower flat).Synth.Lower.circuit
        in
        let translated =
          Factor.Translate.translate_all ~chip ~transformed:tfc
            r.Atpg.Gen.r_tests
        in
        let v =
          Factor.Translate.validate ~chip ~mut_path:"u_core.u_mut" ~piers:[]
            translated
        in
        check_bool "coverage carries over" true
          (v.Factor.Translate.va_coverage >= r.Atpg.Gen.r_coverage -. 0.001)) ]

(* The wire carries a served error's stage by name; the client maps it
   back to the one-shot's exit code through [stage_of_string]. *)
let errors_tests =
  let module E = Factor.Errors in
  [ test "stage names round-trip" (fun () ->
        List.iter
          (fun st ->
            check_bool (E.stage_name st) true
              (E.stage_of_string (E.stage_name st) = Some st))
          [ E.Parse; E.Elaborate; E.Extract; E.Solve; E.Io ];
        check_bool "unknown stage" true (E.stage_of_string "proto" = None)) ]

(* The timing-free columns of Tables 2/3 for the four ARM MUTs in both
   modes, as [Flow.transform] builds them (one constraint-cache session
   per mode, MUTs in table order): surrounding gates, PI/PO bits, cache
   hits, stand-alone faults and the [Transform.validate] verdict: the
   SAT proof that an optimizer rebuild of the module equals it. *)
let row_text (tr : Factor.Flow.transform_row) =
  let tf = tr.Factor.Flow.tr_transformed in
  Printf.sprintf "%s: surrounding %d, pi %d, po %d, hits %d, faults %d, %s"
    tr.Factor.Flow.tr_name tf.Factor.Transform.tf_surrounding_gates
    tf.Factor.Transform.tf_pi_bits tf.Factor.Transform.tf_po_bits
    tr.Factor.Flow.tr_stats.Factor.Compose.cs_cache_hits
    tr.Factor.Flow.tr_standalone_faults
    (Option.value tf.Factor.Transform.tf_validation ~default:"unvalidated")

let pinned_rows =
  [ ("conventional",
     [ "arm_alu: surrounding 6386, pi 36, po 150, hits 0, faults 646, equal";
       "regfile_struct: surrounding 3246, pi 36, po 150, hits 0, faults 2248, equal";
       "exc: surrounding 7163, pi 36, po 174, hits 0, faults 44, equal";
       "forward: surrounding 6831, pi 36, po 150, hits 0, faults 64, equal" ]);
    ("compositional",
     [ "arm_alu: surrounding 6103, pi 36, po 118, hits 0, faults 646, equal";
       "regfile_struct: surrounding 2963, pi 36, po 118, hits 1, faults 2248, equal";
       "exc: surrounding 6539, pi 36, po 118, hits 0, faults 44, equal";
       "forward: surrounding 6548, pi 36, po 118, hits 1, faults 64, equal" ]) ]

let flow_tests =
  [ test "table 2/3 rows pinned" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let got =
          List.map
            (fun (name, mode) ->
              let session = Factor.Compose.create_session () in
              ( name,
                List.map
                  (fun spec ->
                    row_text
                      (Factor.Flow.transform env session mode spec
                         ~surrounding_before:0))
                  Arm.Rtl.muts ))
            Factor.Flow.modes
        in
        Alcotest.(check (list (pair string (list string))))
          "rows" pinned_rows got) ]

let () =
  Alcotest.run "factor"
    [ ("translate", translate_tests);
      ("prefix", prefix_tests);
      ("slice", slice_tests);
      ("reconstruct", reconstruct_tests);
      ("extract", extract_tests);
      ("compose", compose_tests);
      ("transform", transform_tests);
      ("flow", flow_tests);
      ("pier", pier_tests);
      ("testability", testability_tests);
      ("errors", errors_tests) ]
