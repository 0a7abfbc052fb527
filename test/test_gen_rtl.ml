(** Hierarchical RTL generation, mutation and shrinking.

    The differential checks themselves run continuously in
    [factor_cli fuzz]; here we pin the library contracts: generation is
    deterministic in the seed and always lands in the accepted Verilog
    subset, semantics-preserving mutations really preserve, the planted
    [Opt_ec] bug seam is caught and shrunk below the reproducer size
    bound, shrinking is deterministic, a campaign comes back clean,
    renders canonically and counts its failures, and every checked-in
    corpus reproducer replays clean. *)

open Testutil
module Gen = Gen_rtl.Gen
module Mutate = Gen_rtl.Mutate
module Shrink = Gen_rtl.Shrink
module Diff = Gen_rtl.Diff

let none = Engine.Budget.none

(* Same (config, seed) -> byte-identical source; different seeds
   diverge.  This is the FACTOR_SEED replay contract for hierarchies. *)
let generate_deterministic () =
  let a = Gen.generate ~seed:42 () in
  let b = Gen.generate ~seed:42 () in
  check_string "same seed, same source" a.Gen.d_source b.Gen.d_source;
  check_string "same top" a.Gen.d_top b.Gen.d_top;
  check_bool "same muts" true (a.Gen.d_muts = b.Gen.d_muts);
  let c = Gen.generate ~seed:43 () in
  check_bool "different seed diverges" true
    (a.Gen.d_source <> c.Gen.d_source)

(* Every generated design parses (by construction), elaborates and
   lowers, exposes MUT candidates, and pretty-print/re-parse is a
   fixpoint. *)
let generated_designs_build () =
  for seed = 0 to 4 do
    let d = Gen.generate ~seed () in
    let c = Gen.circuit_of d.Gen.d_ast ~top:d.Gen.d_top in
    check_bool
      (Printf.sprintf "seed %d lowers to gates" seed)
      true
      (Netlist.num_nets c > 0 && Netlist.num_pos c > 0);
    check_bool
      (Printf.sprintf "seed %d has mut candidates" seed)
      true (d.Gen.d_muts <> []);
    let pp = Verilog.Pp.design_to_string d.Gen.d_ast in
    let pp2 = Verilog.Pp.design_to_string (parse pp) in
    check_string (Printf.sprintf "seed %d roundtrips" seed) pp pp2
  done

(* Semantics-preserving mutations leave the lowered circuit equivalent
   (the library's own claim, checked with the SAT prover when the
   mutation is expression-level and exact). *)
let preserving_mutations_preserve () =
  let rng = qcheck_rand () in
  for seed = 0 to 3 do
    let d = Gen.generate ~seed () in
    match Mutate.random_preserving ~rng d.Gen.d_ast ~top:d.Gen.d_top with
    | None -> ()
    | Some (ast', info) ->
      if info.Mutate.mi_kind = Mutate.Dead_module then
        check_bool
          (Printf.sprintf "seed %d: dead module keeps fingerprint" seed)
          true
          (Factor.Compose.design_fingerprint d.Gen.d_ast ~top:d.Gen.d_top
           = Factor.Compose.design_fingerprint ast' ~top:d.Gen.d_top)
      else begin
        let c = Gen.circuit_of d.Gen.d_ast ~top:d.Gen.d_top in
        let c' = Gen.circuit_of ast' ~top:d.Gen.d_top in
        let verdict =
          if info.Mutate.mi_exact then Synth.Opt.equivalent_exact c c'
          else Synth.Opt.equivalent ~rounds:16 ~cycles:4 ~rng c c'
        in
        check_bool
          (Printf.sprintf "seed %d: %s preserves" seed info.Mutate.mi_desc)
          true
          (match verdict with
           | Synth.Opt.Equal -> true
           | Synth.Opt.Differ _ -> false)
      end
  done

(* [gate_swap_first] is a pure function of the design — the stable
   planted-bug operator the seam and the shrinker rely on. *)
let gate_swap_first_stable () =
  let d = Gen.generate ~seed:7 () in
  match
    ( Mutate.gate_swap_first d.Gen.d_ast ~top:d.Gen.d_top,
      Mutate.gate_swap_first d.Gen.d_ast ~top:d.Gen.d_top )
  with
  | Some (a, ia), Some (b, ib) ->
    check_string "same swap both times"
      (Verilog.Pp.design_to_string a)
      (Verilog.Pp.design_to_string b);
    check_string "same description" ia.Mutate.mi_desc ib.Mutate.mi_desc;
    check_bool "marked non-preserving" false ia.Mutate.mi_preserving
  | _ -> Alcotest.fail "no swap site in generated design"

(* The planted bug: arm chaos on the seam, and the [Opt_ec] check must
   catch the slipped gate substitution, then shrink the reproducer
   under the size bound with the same check still failing on the shrunk
   design (the shrinker's predicate really is "same failure"). *)
let with_seam f =
  Engine.Chaos.set ~seed:1 ~rate:1.0 ~mode:Engine.Chaos.Fail_only
    ~prefix:Diff.bug_seam ();
  Fun.protect ~finally:Engine.Chaos.clear f

let seam_cfg = { Diff.default_config with Diff.dc_checks = [ Diff.Opt_ec ] }

let find_seam_failure () =
  let rec go seed =
    if seed > 9 then Alcotest.fail "no seed in 0..9 trips the seam"
    else
      match Diff.run_seed seam_cfg seed with
      | Diff.Seed_failed (fl :: _) -> (seed, fl)
      | Diff.Seed_failed [] | Diff.Seed_ok -> go (seed + 1)
      | Diff.Seed_crashed msg ->
        Alcotest.fail (Printf.sprintf "seed %d crashed: %s" seed msg)
  in
  go 0

let planted_bug_caught_and_shrunk () =
  with_seam (fun () ->
      let (seed, fl) = find_seam_failure () in
      check_bool "failure is opt_ec" true (fl.Diff.fl_check = Diff.Opt_ec);
      check_bool
        (Printf.sprintf "seed %d shrunk under 25 lines (got %d)" seed
           fl.Diff.fl_lines)
        true
        (fl.Diff.fl_lines < 25);
      (* the shrunk reproducer still fails the same check *)
      let still =
        Diff.check_design seam_cfg ~budget:none ~seed fl.Diff.fl_design
          ~top:fl.Diff.fl_top
      in
      check_bool "shrunk design still fails opt_ec" true
        (List.exists (fun (c, _) -> c = Diff.Opt_ec) still))

let shrinking_deterministic () =
  with_seam (fun () ->
      let (seed, fl1) = find_seam_failure () in
      match Diff.run_seed seam_cfg seed with
      | Diff.Seed_failed (fl2 :: _) ->
        check_string "byte-identical shrunk reproducer"
          (Shrink.render fl1.Diff.fl_design)
          (Shrink.render fl2.Diff.fl_design);
        check_int "same line count" fl1.Diff.fl_lines fl2.Diff.fl_lines
      | _ -> Alcotest.fail "second run did not fail")

(* The determinism contract of [factor_cli fuzz]: a campaign over every
   check comes back clean, and the same campaign run twice renders
   byte-identically (the report carries no timing). *)
let campaign_clean_and_canonical () =
  let run () = Diff.campaign Diff.default_config ~base:0 ~count:3 in
  let r1 = run () in
  check_bool "clean campaign has no failures" true (r1.Diff.rp_failures = []);
  check_bool "clean campaign has no crashes" true (r1.Diff.rp_crashes = []);
  check_string "two identical campaigns render byte-identically"
    (Diff.render r1) (Diff.render (run ()))

(* A whole campaign with the seam armed: [Opt_ec] fails at least one of
   seeds 0..5, every reproducer is shrunk under 25 lines, and the
   campaign counts each failure in [factor.fuzz.failures]. *)
let campaign_catches_seam () =
  let failures = Obs.Metrics.counter "factor.fuzz.failures" in
  let before = Obs.Metrics.value failures in
  let rp = with_seam (fun () -> Diff.campaign seam_cfg ~base:0 ~count:6) in
  check_bool "seam caught on some seed" true (rp.Diff.rp_failures <> []);
  List.iter
    (fun (fl : Diff.failure) ->
      check_bool
        (Printf.sprintf "seed %d reproducer under 25 lines (got %d)"
           fl.Diff.fl_seed fl.Diff.fl_lines)
        true (fl.Diff.fl_lines < 25))
    rp.Diff.rp_failures;
  check_int "factor.fuzz.failures counts every failure"
    (List.length rp.Diff.rp_failures)
    (Obs.Metrics.value failures - before)

(* Every checked-in reproducer was shrunk from a live seam failure; the
   seam is disarmed here, so each must replay clean — a regression
   corpus for the checks that once caught it. *)
let corpus_replays_clean () =
  (* dune runtest runs in _build/default/test (where the glob_files dep
     lands); dune exec from the repo root sees test/corpus *)
  let dir =
    if Sys.file_exists "corpus" then "corpus"
    else Filename.concat "test" "corpus"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".v")
    |> List.sort compare
  in
  check_bool "corpus is not empty" true (files <> []);
  List.iter
    (fun file ->
      let ic = open_in (Filename.concat dir file) in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      let ast = parse src in
      let top =
        match List.rev ast.Verilog.Ast.modules with
        | m :: _ -> m.Verilog.Ast.mod_name
        | [] -> Alcotest.fail (file ^ ": no modules")
      in
      let cfg =
        { Diff.default_config with
          Diff.dc_checks = [ Diff.Roundtrip; Diff.Opt_ec ] }
      in
      let bad = Diff.check_design cfg ~budget:none ~seed:0 ast ~top in
      check_bool (file ^ " replays clean") true (bad = []))
    files

let test name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "gen_rtl"
    [
      ( "gen",
        [
          test "deterministic in the seed" generate_deterministic;
          test "parses, lowers, roundtrips" generated_designs_build;
        ] );
      ( "mutate",
        [
          test "preserving mutations preserve" preserving_mutations_preserve;
          test "gate_swap_first is stable" gate_swap_first_stable;
        ] );
      ( "shrink",
        [
          test "planted bug caught, shrunk < 25 lines"
            planted_bug_caught_and_shrunk;
          test "shrinking is deterministic" shrinking_deterministic;
        ] );
      ( "diff",
        [
          test "clean, renders byte-identically" campaign_clean_and_canonical;
          test "armed seam fails a seed, every failure counted"
            campaign_catches_seam;
        ] );
      ( "corpus", [ test "reproducers replay clean" corpus_replays_clean ] );
    ]
