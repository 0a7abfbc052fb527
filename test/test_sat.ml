(* Tests for the SAT subsystem: solver unit tests, dual-rail CNF
   encoding vs. the 3-valued simulator, differential PODEM-vs-Satgen
   fuzzing, and exact equivalence checking. *)

let test name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Solver basics                                                       *)
(* ------------------------------------------------------------------ *)

let solver_trivial_sat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  let open Sat.Solver in
  add_clause s [ pos a; pos b ];
  add_clause s [ neg (pos a); pos b ];
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "b forced by any model" true (value s b || value s a)

let solver_trivial_unsat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  let open Sat.Solver in
  add_clause s [ pos a ];
  add_clause s [ neg (pos a) ];
  (match solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT")

(* the pigeonhole principle PHP(n+1, n) is unsatisfiable and requires
   genuine search, exercising learning, backjumping and restarts *)
let solver_pigeonhole () =
  let n = 5 in
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  (* var p.(i).(j): pigeon i sits in hole j, i in 0..n, j in 0..n-1 *)
  let p = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> new_var s)) in
  for i = 0 to n do
    add_clause s (List.init n (fun j -> pos p.(i).(j)))
  done;
  for j = 0 to n - 1 do
    for i = 0 to n do
      for i' = i + 1 to n do
        add_clause s [ neg (pos p.(i).(j)); neg (pos p.(i').(j)) ]
      done
    done
  done;
  (match solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "PHP(6,5) must be UNSAT");
  let st = stats s in
  Alcotest.(check bool) "searched" true (st.s_conflicts > 0)

(* a satisfiable instance with enough structure to exercise propagation:
   a chain of equivalences x0 <-> x1 <-> ... <-> xk plus a unit *)
let solver_chain () =
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  let k = 200 in
  let xs = Array.init (k + 1) (fun _ -> new_var s) in
  for i = 0 to k - 1 do
    add_clause s [ neg (pos xs.(i)); pos xs.(i + 1) ];
    add_clause s [ pos xs.(i); neg (pos xs.(i + 1)) ]
  done;
  add_clause s [ pos xs.(0) ];
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "chain is SAT");
  Alcotest.(check bool) "last var forced true" true (value s xs.(k))

let solver_assumptions () =
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  let a = new_var s and b = new_var s and c = new_var s in
  (* a -> b, b -> c *)
  add_clause s [ neg (pos a); pos b ];
  add_clause s [ neg (pos b); pos c ];
  (match solve ~assumptions:[ pos a; neg (pos c) ] s with
  | Unsat -> ()
  | _ -> Alcotest.fail "a & ~c contradicts a->b->c");
  (* the clause database itself must remain satisfiable *)
  (match solve ~assumptions:[ pos a ] s with
  | Sat -> ()
  | _ -> Alcotest.fail "a alone is consistent");
  Alcotest.(check bool) "c implied by a" true (value s c);
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "no assumptions is SAT")

(* random 3-SAT around the easy side of the phase transition, checked
   against a brute-force enumeration *)
let solver_random_3sat () =
  let rng = Random.State.make [| 0x5A7 |] in
  for _ = 1 to 40 do
    let nv = 8 + Random.State.int rng 5 in
    let nc = 2 * nv + Random.State.int rng (2 * nv) in
    let clauses =
      List.init nc (fun _ ->
          List.init 3 (fun _ ->
              let v = Random.State.int rng nv in
              let sgn = Random.State.bool rng in
              (v, sgn)))
    in
    let brute =
      let sat = ref false in
      for m = 0 to (1 lsl nv) - 1 do
        if
          (not !sat)
          && List.for_all
               (List.exists (fun (v, sgn) -> (m lsr v) land 1 = 1 == sgn))
               clauses
        then sat := true
      done;
      !sat
    in
    let s = Sat.Solver.create () in
    let open Sat.Solver in
    let vars = Array.init nv (fun _ -> new_var s) in
    List.iter
      (fun cl ->
        add_clause s (List.map (fun (v, sgn) -> lit_of vars.(v) sgn) cl))
      clauses;
    match (solve s, brute) with
    | Sat, true ->
      (* verify the model *)
      let ok =
        List.for_all
          (List.exists (fun (v, sgn) -> value s vars.(v) == sgn))
          clauses
      in
      Alcotest.(check bool) "model satisfies clauses" true ok
    | Unsat, false -> ()
    | Sat, false -> Alcotest.fail "solver SAT, brute force UNSAT"
    | Unsat, true -> Alcotest.fail "solver UNSAT, brute force SAT"
    | Unknown, _ -> Alcotest.fail "unexpected Unknown without limit"
  done

(* Incremental use against brute force: a script of rounds, each adding
   clauses over at most 12 variables and then solving under a few
   assumption literals.  [Sat] must come with a model of every clause
   so far and every assumption; [Unsat] must hold exactly when no
   assignment is one. *)
type script = {
  sc_vars : int;
  sc_rounds : ((int * bool) list list * (int * bool) list) list;
      (* (clauses to add, assumptions) per round *)
}

let gen_script =
  let open QCheck.Gen in
  int_range 1 12 >>= fun nv ->
  let lit = pair (int_bound (nv - 1)) bool in
  (* mostly 2- and 3-literal clauses; a rare empty clause makes the
     database itself UNSAT *)
  let clause =
    frequency
      [ (1, return []); (4, list_repeat 1 lit); (20, list_repeat 2 lit);
        (40, list_repeat 3 lit); (10, list_repeat 4 lit) ]
  in
  let round =
    pair (list_size (int_range 0 (2 * nv)) clause) (list_size (int_bound 3) lit)
  in
  list_size (int_range 1 4) round >|= fun sc_rounds ->
  { sc_vars = nv; sc_rounds }

let print_script sc =
  let lit (v, sgn) = Printf.sprintf "%s%d" (if sgn then "" else "-") v in
  let lits ls = String.concat " " (List.map lit ls) in
  Printf.sprintf "%d vars; %s" sc.sc_vars
    (String.concat "; "
       (List.map
          (fun (cls, asm) ->
            Printf.sprintf "add [%s] assume [%s]"
              (String.concat ", " (List.map lits cls))
              (lits asm))
          sc.sc_rounds))

let solver_vs_brute_force sc =
  let s = Sat.Solver.create () in
  let vars = Array.init sc.sc_vars (fun _ -> Sat.Solver.new_var s) in
  let to_lit (v, sgn) = Sat.Solver.lit_of vars.(v) sgn in
  let holds m (v, sgn) = (m lsr v) land 1 = 1 = sgn in
  let added = ref [] in
  List.for_all
    (fun (cls, asm) ->
      List.iter (fun cl -> Sat.Solver.add_clause s (List.map to_lit cl)) cls;
      added := cls @ !added;
      let models m =
        List.for_all (List.exists (holds m)) !added
        && List.for_all (holds m) asm
      in
      let brute = List.exists models (List.init (1 lsl sc.sc_vars) Fun.id) in
      match Sat.Solver.solve ~assumptions:(List.map to_lit asm) s with
      | Sat.Solver.Sat ->
        let m =
          Array.fold_left
            (fun acc v ->
              if Sat.Solver.value s vars.(v) then acc lor (1 lsl v) else acc)
            0
            (Array.init sc.sc_vars Fun.id)
        in
        models m
      | Sat.Solver.Unsat -> not brute
      | Sat.Solver.Unknown -> false)
    sc.sc_rounds

(* Random 3-SAT at clause ratio 4.26 from a self-contained LCG, so the
   instance does not depend on the standard library's generator. *)
let lcg_3sat ~seed ~vars =
  let st = ref seed in
  let next bound =
    st := (!st * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    ((!st lsr 30) land 0xFFFFFF) mod bound
  in
  let s = Sat.Solver.create () in
  let vs = Array.init vars (fun _ -> Sat.Solver.new_var s) in
  let clauses =
    List.init
      (int_of_float (4.26 *. float_of_int vars))
      (fun _ ->
        List.init 3 (fun _ ->
            let v = next vars in
            (v, next 2 = 0)))
  in
  List.iter
    (fun cl ->
      Sat.Solver.add_clause s
        (List.map (fun (v, sgn) -> Sat.Solver.lit_of vs.(v) sgn) cl))
    clauses;
  (s, vs, clauses)

(* Long searches through the learned-clause database: every reduction
   deletes clauses and compacts the clause storage under the live
   ones.  Database reduction first runs at 4000 learned clauses, keeps
   at least half of them, and the next one runs at 4400, so more than
   6400 learned clauses means at least two reductions.  The search
   statistics are pinned: storage changes must leave them as they
   are. *)
let solver_reduce_db_pinned () =
  let pinned name s (conflicts, decisions, propagations, learned) =
    let st = Sat.Solver.stats s in
    Alcotest.(check bool) (name ^ ": two reductions") true
      (st.Sat.Solver.s_learned > 6400);
    Alcotest.(check (list int)) (name ^ ": pinned search")
      [ conflicts; decisions; propagations; learned ]
      [ st.Sat.Solver.s_conflicts; st.Sat.Solver.s_decisions;
        st.Sat.Solver.s_propagations; st.Sat.Solver.s_learned ]
  in
  (* UNSAT: the proof must survive every compaction *)
  let (s, _, _) = lcg_3sat ~seed:2 ~vars:175 in
  (match Sat.Solver.solve s with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "seed 2 at 175 variables is UNSAT");
  pinned "unsat" s (8393, 10051, 291363, 8387);
  (* SAT: the model must satisfy every problem clause the compactions
     moved *)
  let (s, vs, clauses) = lcg_3sat ~seed:8 ~vars:200 in
  (match Sat.Solver.solve s with
   | Sat.Solver.Sat -> ()
   | _ -> Alcotest.fail "seed 8 at 200 variables is SAT");
  Alcotest.(check bool) "model satisfies every clause" true
    (List.for_all
       (List.exists (fun (v, sgn) -> Sat.Solver.value s vs.(v) = sgn))
       clauses);
  pinned "sat" s (12419, 15223, 492136, 12419)

(* ------------------------------------------------------------------ *)
(* CNF encoding vs. the simulator                                      *)
(* ------------------------------------------------------------------ *)

module L = Sim.Logic3

(* Encode a random combinational circuit, pin the PI variables to a
   random binary vector by assumptions, and the decoded PO rails must
   match the 3-valued simulator on the same vector. *)
let cnf_matches_sim gm =
  let (_, c) = Fuzzgen.build gm in
  let num_pis = Netlist.num_pis c in
  let e = Sat.Cnf.create () in
  let pi_rails = Array.init num_pis (fun _ -> Sat.Cnf.fresh_binary e) in
  let assign net =
    match c.Netlist.drv.(net) with
    | Netlist.Pi i -> Some pi_rails.(i)
    | Netlist.Ff _ -> Some (Sat.Cnf.rails_x e)
    | _ -> None
  in
  let rails = Sat.Cnf.encode e c ~assign () in
  let sim = Sim.Eval.create c in
  let rng = Random.State.make [| Hashtbl.hash gm.Fuzzgen.gm_src + 11 |] in
  let trial () =
    let bits = Array.init num_pis (fun _ -> Random.State.bool rng) in
    let assumptions =
      List.init num_pis (fun i ->
          if bits.(i) then pi_rails.(i).Sat.Cnf.r1 else pi_rails.(i).Sat.Cnf.r0)
    in
    match Sat.Solver.solve ~assumptions (Sat.Cnf.solver e) with
    | Sat.Solver.Sat ->
      Sim.Eval.eval sim
        (Array.init num_pis (fun i -> if bits.(i) then L.one else L.zero));
      let outs = Sim.Eval.outputs sim in
      Array.for_all
        (fun ok -> ok)
        (Array.mapi
           (fun o po_net ->
             L.get outs.(o) 0
             = Sat.Cnf.rails_value e rails.(po_net))
           c.Netlist.pos)
    | _ -> false
  in
  List.for_all (fun _ -> trial ()) [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Differential: PODEM vs Satgen on random combinational circuits      *)
(* ------------------------------------------------------------------ *)

let cube_to_test (cube : Sat.Satgen.cube) =
  { Atpg.Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
    p_loads = cube.Sat.Satgen.tc_loads }

let cube_detects c fault cube =
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = [] } in
  (Atpg.Fsim.run c ~observe ~faults:[ fault ] [ cube_to_test cube ]).(0)

(* Classification agreement per collapsed fault; SAT cubes must detect
   under the fault simulator.  A PODEM abort carries no verdict: the
   SAT answer then stands on its own — a cube is accepted only when the
   fault simulator confirms it.  With [strict], SAT may never give up
   (so every fault ends with a verified classification).  Returns the
   agreement, the number of SAT cubes and the summed SAT statistics. *)
let engines_agree ?(strict = false) ~backtrack_limit c =
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  List.fold_left
    (fun (ok, cubes, stats) f ->
      let pcfg =
        { Atpg.Podem.frames = 1; backtrack_limit; piers = []; seed = 1 }
      in
      let p = Atpg.Podem.run c pcfg f in
      let (s, st) =
        Sat.Satgen.run c ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck
      in
      let agree =
        match (p, s) with
        | (Atpg.Podem.Detected _, Sat.Satgen.Cube cube) ->
          cube_detects c f cube
        | (Atpg.Podem.Exhausted, Sat.Satgen.Untestable _) -> true
        | (Atpg.Podem.Aborted, Sat.Satgen.Cube cube) -> cube_detects c f cube
        | (Atpg.Podem.Aborted, Sat.Satgen.Untestable _) -> true
        | (_, Sat.Satgen.Gave_up) -> not strict
        | _ -> false
      in
      ( ok && agree,
        (match s with Sat.Satgen.Cube _ -> cubes + 1 | _ -> cubes),
        Sat.Solver.add_stats stats st ))
    (true, 0, Sat.Solver.zero_stats) faults

let podem_vs_satgen gm =
  let (_, c) = Fuzzgen.build gm in
  Netlist.num_ffs c = 0
  &&
  let (ok, _, _) = engines_agree ~backtrack_limit:20_000 c in
  ok

(* The acceptance-criterion circuit: the ARM ALU standalone is purely
   combinational; whenever PODEM reaches a verdict SAT must match it,
   every SAT cube must detect under Fsim, and SAT may never give up
   (one ALU fault is in fact PODEM-intractable — seen aborted at a
   2M backtrack limit — and only SAT closes it, with a cube the fault
   simulator confirms).  The ALU has no untestable fault, so every
   fault closes with a cube.  The miters' summed search statistics are
   pinned: the solver's search is deterministic, so a change to how it
   stores clauses must reproduce this line exactly; a change that moves
   it changes the search, and must say so and re-pin it. *)
let arm_alu_search_stats =
  "conflicts 9920 | decisions 77038 | propagations 1350660 | restarts 7 | \
   learned (total) 9787"

let arm_alu_agreement () =
  let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:"arm_alu" in
  let c =
    (Synth.Lower.lower (Synth.Flatten.flatten ed "arm_alu"))
      .Synth.Lower.circuit
  in
  Alcotest.(check int) "combinational" 0 (Netlist.num_ffs c);
  let (ok, cubes, stats) =
    engines_agree ~strict:true ~backtrack_limit:20_000 c
  in
  Alcotest.(check bool) "podem and satgen agree on every collapsed fault"
    true ok;
  Alcotest.(check int) "every fault closes with a cube"
    (List.length (Atpg.Fault.collapse c (Atpg.Fault.all c)))
    cubes;
  Alcotest.(check string) "summed search statistics" arm_alu_search_stats
    (Sat.Solver.stats_to_string stats)

(* gcd unrolled to 3 frames, once with its PIERs (every fault then
   closes at depth 1) and once with none (X initial state: cubes need
   2-3 frames and most faults are untestable within 3).  PODEM deepens
   1..3 frames on the same PIERs; where it decides a fault (a test at
   some depth, or exhausted at every depth) SAT must agree, and every
   SAT cube must detect under the fault simulator.  One split is
   allowed: PODEM's 5-valued calculus is pessimistic with frame-0 state
   at X, so a cube for a fault PODEM exhausted stands once the
   simulator confirms it. *)
let gcd_agreement () =
  let e = Circuits.Collection.gcd in
  let c =
    Gen_rtl.Gen.circuit_of
      (Verilog.Parser.parse_design e.Circuits.Collection.e_source)
      ~top:e.Circuits.Collection.e_top
  in
  let frames = 3 in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let failing piers =
    let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
    (* PODEM's verdict, deepening as Atpg.Gen does *)
    let rec podem f d =
      if d > frames then `Exhausted
      else
        let cfg =
          { Atpg.Podem.frames = d; backtrack_limit = 1_000; piers; seed = 1 }
        in
        match Atpg.Podem.run c cfg f with
        | Atpg.Podem.Detected _ -> `Detected
        | Atpg.Podem.Exhausted -> podem f (d + 1)
        | Atpg.Podem.Aborted -> `Undecided
    in
    List.filter_map
      (fun f ->
        let fails =
          match
            fst
              (Sat.Satgen.run c ~max_frames:frames ~piers
                 ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck)
          with
          | Sat.Satgen.Cube cube ->
            not
              (Atpg.Fsim.run c ~observe ~faults:[ f ] [ cube_to_test cube ])
                .(0)
          | Sat.Satgen.Untestable _ -> podem f 1 = `Detected
          | Sat.Satgen.Gave_up -> podem f 1 <> `Undecided
        in
        if fails then Some (Atpg.Fault.to_string c f) else None)
      faults
  in
  List.iter
    (fun (what, piers) ->
      Alcotest.(check (list string)) (what ^ ": faults failing the check") []
        (failing piers))
    [ ("with its PIERs", Factor.Pier.identify c); ("without PIERs", []) ]

(* ------------------------------------------------------------------ *)
(* Multi-frame Satgen vs an exhaustive oracle                          *)
(* ------------------------------------------------------------------ *)

(* [c] with all but [free] of its primary inputs tied off, each to a
   constant or to one of the kept inputs, so that every input sequence
   of a few frames can be enumerated.  The logic, state and fault list
   stay those of the generated module. *)
let restrict_pis rng c ~free =
  let n = Netlist.num_pis c in
  let kept = Array.sub c.Netlist.pis 0 free in
  let drv = Array.copy c.Netlist.drv in
  for i = free to n - 1 do
    drv.(c.Netlist.pis.(i)) <-
      (match Random.State.int rng 3 with
       | 0 -> Netlist.C0
       | 1 -> Netlist.C1
       | _ -> Netlist.G1 (Netlist.Buff, kept.(Random.State.int rng free)))
  done;
  { c with Netlist.drv; pis = kept;
           pi_names = Array.sub c.Netlist.pi_names 0 free }

(* Every test of exactly [frames] frames: all input sequences crossed
   with all PIER loads, [bits] = PIs x frames + PIERs. *)
let all_tests c ~piers ~frames =
  let num_pis = Netlist.num_pis c in
  let bits = (num_pis * frames) + List.length piers in
  List.init (1 lsl bits) (fun m ->
      let bit k = (m lsr k) land 1 = 1 in
      { Atpg.Pattern.p_vectors =
          Array.init frames (fun f ->
              Array.init num_pis (fun i -> bit ((f * num_pis) + i)));
        p_loads =
          List.mapi (fun j ff -> (ff, bit ((num_pis * frames) + j))) piers })

(* Satgen with no conflict limit against exhaustive fault simulation:
   [Untestable k] iff no sequence of length <= k, under any PIER load,
   detects the fault; a cube of length d detects and no shorter
   sequence does.  Circuits whose input space exceeds 12 bits at the
   drawn depth are skipped. *)
let satgen_vs_exhaustive (gm, seed) =
  let (_, c) = Fuzzgen.build gm in
  let rng = Random.State.make [| seed |] in
  let max_frames = 1 + Random.State.int rng 3 in
  let c =
    restrict_pis rng c
      ~free:(min (Netlist.num_pis c) (1 + Random.State.int rng 3))
  in
  let piers =
    List.filter
      (fun _ -> Random.State.int rng 3 = 0)
      (List.init (Netlist.num_ffs c) Fun.id)
  in
  let piers = List.filteri (fun j _ -> j < 4) piers in
  if (Netlist.num_pis c * max_frames) + List.length piers > 12 then true
  else begin
    let depths = if Netlist.num_ffs c = 0 then 1 else max_frames in
    let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
    let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
    (* detected.(l - 1): flags of the faults some length-l test detects *)
    let detected =
      Array.init depths (fun l ->
          Atpg.Fsim.run c ~observe ~faults
            (all_tests c ~piers ~frames:(l + 1)))
    in
    List.for_all2
      (fun k f ->
        let undetected_below d =
          List.for_all (fun l -> not detected.(l).(k)) (List.init d Fun.id)
        in
        match
          Sat.Satgen.run c ~max_frames ~conflict_limit:max_int ~piers
            ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck
        with
        | (Sat.Satgen.Cube cube, _) ->
          let d = Array.length cube.Sat.Satgen.tc_vectors in
          d >= 1 && d <= depths
          && (Atpg.Fsim.run c ~observe ~faults:[ f ] [ cube_to_test cube ]).(0)
          && undetected_below (d - 1)
        | (Sat.Satgen.Untestable n, _) -> n = depths && undetected_below n
        | (Sat.Satgen.Gave_up, _) -> false)
      (List.init (List.length faults) Fun.id)
      faults
  end

(* One [sat.depth] debug event per depth tried, in order, carrying the
   per-depth split.  [a] reaches [y] only through a register that
   starts at X, so a-stuck-at-0 is UNSAT at depth 1 and gets a 2-frame
   cube. *)
let satgen_depth_events () =
  let c =
    Testutil.circuit
      {|module top (input clk, input a, output y);
          reg r;
          always @(posedge clk) r <= a;
          assign y = r;
        endmodule|}
  in
  let a =
    c.Netlist.pis.(Option.get (Array.find_index (( = ) "a") c.Netlist.pi_names))
  in
  let got = ref [] in
  let fwd =
    Obs.Log.add_forwarder (fun _ msg attrs ->
        if msg = "sat.depth" then got := attrs :: !got)
  in
  let file = Filename.temp_file "satgen" ".jsonl" in
  Obs.Log.set_level (Some Obs.Log.Debug);
  Obs.Log.set_file (Some file);
  let (verdict, stats) =
    Fun.protect
      ~finally:(fun () ->
        Obs.Log.remove_forwarder fwd;
        Obs.Log.close ();
        Obs.Log.set_file None;
        Obs.Log.set_level None;
        Sys.remove file)
      (fun () -> Sat.Satgen.run c ~max_frames:3 ~net:a ~stuck:false)
  in
  (match verdict with
   | Sat.Satgen.Cube cube ->
     Alcotest.(check int) "two-frame cube" 2
       (Array.length cube.Sat.Satgen.tc_vectors)
   | _ -> Alcotest.fail "expected a cube");
  let events = List.rev !got in
  let field k = List.map (List.assoc k) events in
  Alcotest.(check bool) "depths 1, 2" true
    (field "depth" = [ Obs.Json.Int 1; Obs.Json.Int 2 ]);
  Alcotest.(check bool) "results unsat, sat" true
    (field "result" = [ Obs.Json.String "unsat"; Obs.Json.String "sat" ]);
  Alcotest.(check bool) "net and stuck" true
    (field "net" = [ Obs.Json.Int a; Obs.Json.Int a ]
     && field "stuck" = [ Obs.Json.Bool false; Obs.Json.Bool false ]);
  Alcotest.(check int) "per-depth conflicts sum to the solver's"
    stats.Sat.Solver.s_conflicts
    (List.fold_left
       (fun acc -> function Obs.Json.Int n -> acc + n | _ -> acc)
       0 (field "conflicts"));
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true
        (List.for_all (List.mem_assoc k) events))
    [ "vars"; "encode_s"; "solve_s" ]

(* The incremental path through backjumps and a database reduction:
   y stuck-at-0 needs y = 1.  At depth 1 the register is X, so only
   a * b = 1048583 could set y; that prime exceeds 20 bits, so no
   20-bit factors exist and the proof takes over 4000 conflicts, enough
   for the first reduction (at 4000 learned clauses).  Depth 2 then
   grows the same solver a frame and factors the registered product
   1048573 * 1048571.  The search statistics are pinned: storage
   changes must leave them as they are. *)
let satgen_incremental_pinned () =
  let c =
    Testutil.circuit
      {|module top (input clk, input [19:0] a, input [19:0] b, output y);
          reg [39:0] p;
          always @(posedge clk) p <= a * b;
          assign y = (p == 40'd1099503239183) | (a * b == 40'd1048583);
        endmodule|}
  in
  let y = c.Netlist.pos.(0) in
  let (verdict, st) =
    Sat.Satgen.run c ~max_frames:3 ~conflict_limit:max_int ~net:y
      ~stuck:false
  in
  (match verdict with
   | Sat.Satgen.Cube cube ->
     Alcotest.(check int) "two-frame cube" 2
       (Array.length cube.Sat.Satgen.tc_vectors);
     let f = { Atpg.Fault.f_net = y; f_stuck = false } in
     Alcotest.(check bool) "the cube detects" true (cube_detects c f cube)
   | _ -> Alcotest.fail "expected a cube");
  Alcotest.(check bool) "a reduction ran" true
    (st.Sat.Solver.s_learned >= 4000);
  Alcotest.(check (list int)) "pinned search"
    [ 5799; 13888; 3470839; 31; 5798 ]
    [ st.Sat.Solver.s_conflicts; st.Sat.Solver.s_decisions;
      st.Sat.Solver.s_propagations; st.Sat.Solver.s_restarts;
      st.Sat.Solver.s_learned ]

(* ------------------------------------------------------------------ *)
(* Equivalence checking                                                *)
(* ------------------------------------------------------------------ *)

let ec_rebuild_equal gm =
  let (_, c) = Fuzzgen.build gm in
  let rebuilt = Synth.Opt.rebuild c in
  fst (Sat.Ec.check c rebuilt) = Sat.Ec.Equal

let ec_detects_difference () =
  let mk op =
    let b = Netlist.create_builder () in
    let x = Netlist.add_pi b "x" and y = Netlist.add_pi b "y" in
    Netlist.add_po b "z" (op b x y);
    Netlist.finalize b
  in
  let a = mk Netlist.mk_and and o = mk Netlist.mk_or in
  (match Sat.Ec.check a o with
  | (Sat.Ec.Differ "z", _) -> ()
  | (v, _) ->
    Alcotest.failf "expected Differ z, got %s" (Sat.Ec.verdict_to_string v));
  match Sat.Ec.check a a with
  | (Sat.Ec.Equal, _) -> ()
  | (v, _) ->
    Alcotest.failf "expected Equal, got %s" (Sat.Ec.verdict_to_string v)

let qtest name ?(count = 30) arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Testutil.qcheck_rand ())
    (QCheck.Test.make ~name ~count arb prop)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          test "trivial sat" solver_trivial_sat;
          test "trivial unsat" solver_trivial_unsat;
          test "pigeonhole unsat" solver_pigeonhole;
          test "equivalence chain" solver_chain;
          test "assumptions" solver_assumptions;
          test "random 3-sat vs brute force" solver_random_3sat;
          qtest "incremental solves with assumptions vs brute force"
            ~count:2000
            (QCheck.make ~print:print_script gen_script)
            solver_vs_brute_force;
          test "database reductions: search pinned" solver_reduce_db_pinned;
        ] );
      ( "cnf",
        [
          qtest "random comb rtl: encoding matches the simulator" ~count:30
            Fuzzgen.gen_comb_arbitrary cnf_matches_sim;
        ] );
      ( "satgen",
        [
          qtest "random comb rtl: podem and satgen agree per fault" ~count:15
            Fuzzgen.gen_comb_arbitrary podem_vs_satgen;
          test "arm alu: engines agree on every collapsed fault"
            arm_alu_agreement;
          qtest "random seq rtl: multi-frame satgen matches exhaustive \
                 simulation" ~count:40
            QCheck.(pair Fuzzgen.gen_arbitrary (int_bound 1_000_000))
            satgen_vs_exhaustive;
          test "one sat.depth debug event per depth" satgen_depth_events;
          test "incremental unrolling: search pinned"
            satgen_incremental_pinned;
          test "gcd at 3 frames: engines agree, every cube detects"
            gcd_agreement;
        ] );
      ( "ec",
        [
          qtest "random rtl: rebuild is SAT-equivalent" ~count:20
            Fuzzgen.gen_arbitrary ec_rebuild_equal;
          test "and vs or differ" ec_detects_difference;
        ] );
    ]
