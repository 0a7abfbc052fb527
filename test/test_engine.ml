(** Tests for the parallel execution engine: pool semantics (ordering,
    nesting, exception propagation, shutdown), deterministic sharding,
    and the end-to-end guarantee the engine is built around — parallel
    fault simulation, ATPG and flow runs reproduce the serial results
    bit for bit. *)

open Testutil
module Pool = Engine.Pool
module Shard = Engine.Shard

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)
(* ------------------------------------------------------------------ *)

let pool_many_tasks () =
  let pool = Pool.create 4 in
  let results =
    Pool.run_all pool (List.init 1000 (fun i () -> i * i))
  in
  check_bool "1000 task results in submission order" true
    (results = List.init 1000 (fun i -> i * i));
  let st = Pool.stats pool in
  check_bool "telemetry counted every task" true (st.Pool.ps_tasks >= 1000);
  Pool.shutdown pool

let pool_nested_submission () =
  let pool = Pool.create 3 in
  (* every task fans out again into the same pool; helping await must
     keep the tree moving even with all workers busy *)
  let rec tree depth =
    if depth = 0 then 1
    else
      let futs = List.init 2 (fun _ -> Pool.submit pool (fun () -> tree (depth - 1))) in
      List.fold_left (fun acc f -> acc + Pool.await f) 0 futs
  in
  check_int "nested fan-out computes 2^6 leaves" 64
    (Pool.await (Pool.submit pool (fun () -> tree 6)));
  Pool.shutdown pool

exception Boom of int

let pool_exception_propagation () =
  let pool = Pool.create 4 in
  let fut = Pool.submit pool (fun () -> raise (Boom 42)) in
  (match Pool.await fut with
   | _ -> Alcotest.fail "await should re-raise the task's exception"
   | exception Boom 42 -> ());
  (* the worker that ran the raising task must survive *)
  let results = Pool.run_all pool (List.init 64 (fun i () -> i + 1)) in
  check_bool "pool usable after a task raised" true
    (results = List.init 64 (fun i -> i + 1));
  Pool.shutdown pool;
  (match Pool.submit pool (fun () -> ()) with
   | _ -> Alcotest.fail "submit after shutdown should raise"
   | exception Invalid_argument _ -> ());
  (* shutdown is idempotent *)
  Pool.shutdown pool

let pool_serial_degenerate () =
  (* a 1-slot pool spawns no domains; awaits run everything inline *)
  let pool = Pool.create 1 in
  let results = Pool.run_all pool (List.init 50 (fun i () -> 2 * i)) in
  check_bool "1-slot pool is the serial semantics" true
    (results = List.init 50 (fun i -> 2 * i));
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Shard.                                                              *)
(* ------------------------------------------------------------------ *)

let shard_ranges () =
  for shards = 1 to 9 do
    for n = 0 to 40 do
      let rs = Shard.ranges ~shards n in
      (* contiguous exact cover of 0..n-1 *)
      let covered = Array.fold_left (fun acc (_, len) -> acc + len) 0 rs in
      check_int (Printf.sprintf "cover %d/%d" shards n) n covered;
      Array.iteri
        (fun i (start, _) ->
          let expect =
            if i = 0 then 0
            else (fun (s, l) -> s + l) rs.(i - 1)
          in
          check_int "chunks are contiguous" expect start)
        rs;
      (* balance: sizes differ by at most one *)
      if Array.length rs > 0 then begin
        let sizes = Array.map snd rs in
        let mn = Array.fold_left min max_int sizes in
        let mx = Array.fold_left max 0 sizes in
        check_bool "balanced within one item" true (mx - mn <= 1)
      end;
      (* purity: the partition is a function of (shards, n) alone *)
      check_bool "stable partition" true (rs = Shard.ranges ~shards n)
    done
  done

let shard_map_ordering () =
  let pool = Pool.create 4 in
  let arr = Array.init 1000 (fun i -> i) in
  let chunks = Shard.map_chunks pool ~shards:7 (fun sub -> Array.to_list sub) arr in
  check_bool "map_chunks concatenates back to the input" true
    (List.concat (Array.to_list chunks) = Array.to_list arr);
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Clock.                                                              *)
(* ------------------------------------------------------------------ *)

let clock_monotonic () =
  let a = Engine.Clock.now () in
  let c0 = Engine.Clock.cpu () in
  (* burn a little CPU so both clocks must advance *)
  let acc = ref 0 in
  for i = 0 to 2_000_000 do acc := !acc + i done;
  ignore (Sys.opaque_identity !acc);
  let b = Engine.Clock.now () in
  check_bool "wall clock advances" true (b >= a);
  check_bool "cpu clock advances" true (Engine.Clock.cpu () >= c0)

(* ------------------------------------------------------------------ *)
(* Parallel == serial, end to end.                                     *)
(* ------------------------------------------------------------------ *)

(* A small sequential circuit with enough faults to cross the sharding
   threshold. *)
let seq_src =
  {|module top (input clk, input [7:0] a, b, output [7:0] y, output p);
      reg [7:0] acc;
      wire [7:0] mixed;
      assign mixed = (a ^ b) + (acc & b);
      always @(posedge clk)
        if (a[0]) acc <= mixed; else acc <= acc + b;
      assign y = acc ^ mixed;
      assign p = ^acc;
    endmodule|}

let fsim_sharded_matches_serial () =
  let c = circuit ~top:"top" seq_src in
  let faults = Atpg.Fault.all c in
  let rng = Random.State.make [| 11; fuzz_seed |] in
  let tests =
    List.init 12 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:5
          ~piers:[])
  in
  let observe = Atpg.Fsim.default_observe in
  Pool.set_jobs 4;
  (* enough faults that [run ~jobs] really shards instead of falling
     back to the serial path *)
  check_bool "fault list large enough to shard" true
    (List.length faults >= 128);
  let serial = Atpg.Fsim.run c ~observe ~faults tests in
  List.iter
    (fun (ename, engine) ->
      check_bool (ename ^ " agrees with the default engine") true
        (Atpg.Fsim.run ~engine c ~observe ~faults tests = serial))
    [ ("packed", Atpg.Fsim.Packed);
      ("event", Atpg.Fsim.Event);
      ("reference", Atpg.Fsim.Reference) ];
  (* a one-test list takes the event engine, sharded over fault slices *)
  let one = [ List.hd tests ] in
  let packed1 = Atpg.Fsim.run ~engine:Atpg.Fsim.Packed c ~observe ~faults one in
  check_bool "one test: packed = reference" true
    (packed1
     = Atpg.Fsim.run ~engine:Atpg.Fsim.Reference c ~observe ~faults one);
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "run ~jobs:%d = run" jobs) true
        (Atpg.Fsim.run ~jobs c ~observe ~faults tests = serial);
      check_bool (Printf.sprintf "one test: run ~jobs:%d = packed" jobs) true
        (Atpg.Fsim.run ~jobs c ~observe ~faults one = packed1))
    [ 1; 2; 3; 4 ]

(* Everything in a generation result except timings. *)
let gen_key (r : Atpg.Gen.result) =
  (r.Atpg.Gen.r_total, r.Atpg.Gen.r_detected, r.Atpg.Gen.r_untestable,
   r.Atpg.Gen.r_aborted, r.Atpg.Gen.r_budget_skipped, r.Atpg.Gen.r_vectors,
   r.Atpg.Gen.r_tests, r.Atpg.Gen.r_outcomes, r.Atpg.Gen.r_sat_detected,
   r.Atpg.Gen.r_sat_untestable)

(* Budgets that can never bind: scheduling noise must not be able to
   push a fault over a budget in one run and not the other. *)
let det_cfg =
  { Atpg.Gen.default_config with
    g_fault_budget = 1e9;
    g_total_budget = 1e9 }

let gen_parallel_deterministic () =
  let c = circuit ~top:"top" seq_src in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  Pool.set_jobs 4;
  let serial = Atpg.Gen.run c { det_cfg with Atpg.Gen.g_jobs = 1 } faults in
  List.iter
    (fun jobs ->
      let r = Atpg.Gen.run c { det_cfg with Atpg.Gen.g_jobs = jobs } faults in
      check_bool (Printf.sprintf "g_jobs = %d reproduces serial" jobs) true
        (gen_key r = gen_key serial))
    [ 2; 4 ];
  (* the SAT engine goes through the same sweep driver *)
  let sat_serial =
    Atpg.Gen.run c
      { det_cfg with Atpg.Gen.g_engine = Atpg.Gen.Sat_only; g_jobs = 1 }
      faults
  in
  let sat_par =
    Atpg.Gen.run c
      { det_cfg with Atpg.Gen.g_engine = Atpg.Gen.Sat_only; g_jobs = 4 }
      faults
  in
  check_bool "Sat_only parallel reproduces serial" true
    (gen_key sat_par = gen_key sat_serial)

(* The Table 5/6 shape: extract, transform, then MUT-parallel test
   generation over the rows — report fields (timings excluded) must be
   byte-identical at every job count. *)
let hier_src =
  {|module leafm (input [3:0] a, b, output [3:0] y);
      assign y = (a & b) | (a ^ b);
    endmodule
    module sidecalc (input [3:0] x, output [3:0] masked);
      assign masked = x & 4'd7;
    endmodule
    module core (input [3:0] p, q, output [3:0] r, s, t);
      wire [3:0] m;
      sidecalc u_side (.x(p), .masked(m));
      leafm u_mut (.a(m), .b(q), .y(r));
      leafm u_mut2 (.a(q), .b(p), .y(s));
      leafm u_mut3 (.a(p), .b(m), .y(t));
    endmodule
    module top (input [3:0] i1, i2, output [3:0] o1, o2, o3);
      core u_core (.p(i1), .q(i2), .r(o1), .s(o2), .t(o3));
    endmodule|}

let make_flow_rows () =
  let env = Factor.Compose.make_env (parse hier_src) ~top:"top" in
  let session = Factor.Compose.create_session () in
  List.map
      (fun (name, path) ->
        let stats = Factor.Compose.compositional session env ~mut_path:path in
        let tf =
          Factor.Transform.build env stats.Factor.Compose.cs_slice
            ~mut_path:path
        in
        { Factor.Flow.tr_name = name;
          tr_standalone_faults =
            Factor.Flow.standalone_fault_count env
              { Factor.Flow.ms_name = name; ms_path = path };
          tr_extraction_time = stats.Factor.Compose.cs_extraction_time;
          tr_synthesis_time = tf.Factor.Transform.tf_synthesis_time;
          tr_surrounding_gates = tf.Factor.Transform.tf_surrounding_gates;
          tr_reduction_pct = 0.0;
          tr_pi_bits = tf.Factor.Transform.tf_pi_bits;
          tr_po_bits = tf.Factor.Transform.tf_po_bits;
          tr_cache_hits = stats.Factor.Compose.cs_cache_hits;
          tr_stats = stats;
          tr_transformed = tf })
    [ ("mut", "u_core.u_mut"); ("mut2", "u_core.u_mut2");
      ("mut3", "u_core.u_mut3") ]

let flow_outcomes ?budget jobs =
  Factor.Flow.transformed_atpg_all ~jobs ?budget (make_flow_rows ()) det_cfg

let flow_rows jobs = Factor.Flow.completed_rows (flow_outcomes jobs)

(* The timing-free text of a Table 5/6 row. *)
let row_text (a : Factor.Flow.atpg_row) =
  Printf.sprintf "%s|%.4f|%.4f|%d|%d" a.Factor.Flow.ar_name
    a.Factor.Flow.ar_coverage a.Factor.Flow.ar_effectiveness
    a.Factor.Flow.ar_faults a.Factor.Flow.ar_vectors

let flow_parallel_deterministic () =
  Pool.set_jobs 4;
  let serial = String.concat "\n" (List.map row_text (flow_rows 1)) in
  let parallel = String.concat "\n" (List.map row_text (flow_rows 4)) in
  check_string "Table 5/6 rows identical at 1 and 4 jobs" serial parallel

(* ------------------------------------------------------------------ *)
(* Budget tokens.                                                      *)
(* ------------------------------------------------------------------ *)

module Budget = Engine.Budget

let budget_deadline_expiry () =
  let t = Budget.make ~deadline_in:0.0 () in
  (* the flag only flips once some poll observes the deadline *)
  check_bool "check before poll is false" false (Budget.check t);
  check_bool "poll observes expiry" true (Budget.poll t);
  check_bool "flag set after poll" true (Budget.is_cancelled t);
  check_bool "why = Expired" true (Budget.why t = Some Budget.Expired);
  check_bool "remaining clamps to zero" true (Budget.remaining t = 0.0);
  let live = Budget.make ~deadline_in:1e9 () in
  check_bool "distant deadline stays live" false (Budget.poll live)

let budget_cancel_cascade () =
  let p = Budget.make () in
  let c = Budget.sub p in
  let gc = Budget.sub ~deadline_in:1e9 c in
  check_bool "tree starts live" false (Budget.poll gc);
  Budget.cancel p;
  check_bool "parent cancelled" true (Budget.check p);
  check_bool "child cancelled" true (Budget.check c);
  check_bool "grandchild cancelled" true (Budget.check gc);
  check_bool "why = Cancelled" true (Budget.why gc = Some Budget.Cancelled)

let budget_child_min_deadline () =
  (* a child can only tighten: its effective deadline is the minimum *)
  let p = Budget.make ~deadline_in:1e9 () in
  let c = Budget.sub ~deadline_in:0.0 p in
  check_bool "tight child expires" true (Budget.poll c);
  check_bool "parent unaffected by child expiry" false (Budget.poll p);
  let p2 = Budget.make ~deadline_in:0.0 () in
  let c2 = Budget.sub ~deadline_in:1e9 p2 in
  check_bool "child sees expired ancestor deadline" true (Budget.poll c2)

let budget_detach_and_none () =
  let p = Budget.make () in
  let c = Budget.sub p in
  Budget.detach c;
  Budget.cancel p;
  check_bool "detached child no longer cancelled by parent" false
    (Budget.check c);
  Budget.cancel Budget.none;
  check_bool "none is never cancelled" false (Budget.poll Budget.none);
  check_bool "none has no deadline" true (Budget.remaining Budget.none = infinity)

(* ------------------------------------------------------------------ *)
(* Chaos harness.                                                      *)
(* ------------------------------------------------------------------ *)

module Chaos = Engine.Chaos

let chaos_site_decisions () =
  (* which of 200 site hits inject, at rate 0.5 *)
  Chaos.set ~seed:42 ~rate:0.5 ~mode:Chaos.Fail_only ();
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  List.init 200 (fun i ->
      let site = "test.site:" ^ string_of_int (i mod 10) in
      match Chaos.point site with
      | () -> false
      | exception Chaos.Injected _ -> true)

let chaos_deterministic () =
  let a = chaos_site_decisions () in
  let b = chaos_site_decisions () in
  check_bool "rate 0.5 injects sometimes" true (List.mem true a);
  check_bool "rate 0.5 passes sometimes" true (List.mem false a);
  check_bool "same seed, same sites, same decisions" true (a = b);
  check_bool "chaos disarmed after clear" false (Chaos.active ())

let chaos_rate_and_prefix () =
  Chaos.set ~seed:1 ~rate:1.0 ~mode:Chaos.Fail_only ();
  Fun.protect ~finally:Chaos.clear (fun () ->
      match Chaos.point "always" with
      | () -> Alcotest.fail "rate 1.0 must inject"
      | exception Chaos.Injected site -> check_string "site name" "always" site);
  Chaos.set ~seed:1 ~rate:0.0 ();
  Fun.protect ~finally:Chaos.clear (fun () -> Chaos.point "never");
  Chaos.set ~seed:1 ~rate:1.0 ~mode:Chaos.Fail_only ~prefix:"flow." ();
  Fun.protect ~finally:Chaos.clear (fun () ->
      Chaos.point "pool.task";  (* filtered out: must not raise *)
      match Chaos.point "flow.mut:x" with
      | () -> Alcotest.fail "prefix-matched site must inject"
      | exception Chaos.Injected _ -> ());
  (* the graceful-abort seam never raises *)
  Chaos.set ~seed:1 ~rate:1.0 ~mode:Chaos.Fail_only ();
  Fun.protect ~finally:Chaos.clear (fun () ->
      check_bool "abort_point gives up" true (Chaos.abort_point "sat.solve"));
  check_bool "abort_point inert when disarmed" false
    (Chaos.abort_point "sat.solve")

(* ------------------------------------------------------------------ *)
(* Pool cancellation and failure paths.                                 *)
(* ------------------------------------------------------------------ *)

(* Occupy the single worker of a 2-slot pool so submissions stay
   queued; returns (blocker future, release function). *)
let occupy_worker pool =
  let m = Mutex.create () and cv = Condition.create () in
  let started = ref false and release = ref false in
  let fut =
    Pool.submit pool (fun () ->
        Mutex.protect m (fun () ->
            started := true;
            Condition.broadcast cv;
            while not !release do Condition.wait cv m done);
        99)
  in
  Mutex.protect m (fun () ->
      while not !started do Condition.wait cv m done);
  let release () =
    Mutex.protect m (fun () ->
        release := true;
        Condition.broadcast cv)
  in
  (fut, release)

let pool_cancel_queued () =
  let pool = Pool.create 2 in
  let (blocker, release) = occupy_worker pool in
  let queued = Pool.submit pool (fun () -> 42) in
  check_bool "queued future cancels" true (Pool.cancel queued);
  check_bool "cancel is not repeatable" false (Pool.cancel queued);
  (match Pool.await queued with
   | _ -> Alcotest.fail "await of a cancelled future must raise"
   | exception Pool.Cancelled -> ());
  release ();
  check_int "blocker unaffected" 99 (Pool.await blocker);
  (* the slot that drains the cancelled task keeps serving *)
  check_int "pool alive after drain" 7
    (Pool.await (Pool.submit pool (fun () -> 7)));
  let st = Pool.stats pool in
  check_bool "cancellation counted" true (st.Pool.ps_cancelled >= 1);
  Pool.shutdown pool

let pool_cancel_running () =
  let pool = Pool.create 2 in
  let (blocker, release) = occupy_worker pool in
  check_bool "running task cannot be cancelled" false (Pool.cancel blocker);
  release ();
  check_int "it completes normally" 99 (Pool.await blocker);
  check_bool "finished future cannot be cancelled" false (Pool.cancel blocker);
  Pool.shutdown pool

let pool_raise_on_worker () =
  let pool = Pool.create 2 in
  let ran = Atomic.make false in
  let fut =
    Pool.submit pool (fun () ->
        Atomic.set ran true;
        raise (Boom 7))
  in
  (* wait for the worker domain to steal and run it, so the raise
     happens off the awaiting domain *)
  while not (Atomic.get ran) do Domain.cpu_relax () done;
  (match Pool.await fut with
   | _ -> Alcotest.fail "await must re-raise"
   | exception Boom 7 -> ());
  check_int "worker survived the raise" 5
    (Pool.await (Pool.submit pool (fun () -> 5)));
  Pool.shutdown pool

let pool_shutdown_with_cancelled () =
  let pool = Pool.create 2 in
  let (blocker, release) = occupy_worker pool in
  let futs = List.init 8 (fun i -> Pool.submit pool (fun () -> i)) in
  List.iter
    (fun f -> check_bool "queued future cancelled" true (Pool.cancel f))
    futs;
  release ();
  check_int "blocker done" 99 (Pool.await blocker);
  (* shutdown drains the cancelled tasks without running or hanging *)
  Pool.shutdown pool;
  let st = Pool.stats pool in
  check_bool "all cancellations counted" true (st.Pool.ps_cancelled >= 8)

(* ------------------------------------------------------------------ *)
(* Flow isolation: one MUT dying must not take out its siblings.        *)
(* ------------------------------------------------------------------ *)

let status_names outcomes =
  List.map
    (fun (m : Factor.Flow.mut_outcome) ->
      match m.Factor.Flow.mo_status with
      | Factor.Flow.Mut_ok -> "ok"
      | Factor.Flow.Mut_degraded _ -> "degraded"
      | Factor.Flow.Mut_failed _ -> "failed"
      | Factor.Flow.Mut_skipped _ -> "skipped")
    outcomes

(* Row texts of the outcomes whose status is Mut_ok. *)
let ok_rows outcomes =
  List.filter_map
    (fun (m : Factor.Flow.mut_outcome) ->
      match (m.Factor.Flow.mo_status, m.Factor.Flow.mo_row) with
      | Factor.Flow.Mut_ok, Some a -> Some (row_text a)
      | _ -> None)
    outcomes

let flow_chaos_isolation () =
  Pool.set_jobs 4;
  let clean = List.map row_text (flow_rows 1) in
  (* kill exactly the MUT named mut2; the site embeds the name, so the
     same MUT dies at every job count *)
  Chaos.set ~seed:7 ~rate:1.0 ~mode:Chaos.Fail_only ~prefix:"flow.mut:mut2" ();
  let (o1, o4) =
    Fun.protect ~finally:Chaos.clear (fun () ->
        (flow_outcomes 1, flow_outcomes 4))
  in
  check_bool "mut and mut3 survive, mut2 fails (j1)" true
    (status_names o1 = [ "ok"; "failed"; "ok" ]);
  check_bool "statuses identical at j4" true
    (status_names o4 = status_names o1);
  let expect = [ List.nth clean 0; List.nth clean 2 ] in
  check_bool "survivor rows bit-identical to the undisturbed run" true
    (ok_rows o1 = expect);
  check_bool "survivor rows identical at j4" true (ok_rows o4 = ok_rows o1)

(* The acceptance scenario: in one run, chaos crashes one MUT and
   starves another MUT's budget; the remaining MUT's row is
   bit-identical to the undisturbed run at every job count and the call
   returns normally. *)
let flow_chaos_kill_and_budget () =
  Pool.set_jobs 4;
  let clean = List.map row_text (flow_rows 1) in
  Chaos.set ~seed:11 ~rate:1.0 ~mode:Chaos.Fail_only
    ~prefix:"flow.mut:mut2,flow.budget:mut3" ();
  let (o1, o4) =
    Fun.protect ~finally:Chaos.clear (fun () ->
        (flow_outcomes 1, flow_outcomes 4))
  in
  check_bool "ok / failed / degraded (j1)" true
    (status_names o1 = [ "ok"; "failed"; "degraded" ]);
  check_bool "statuses identical at j4" true
    (status_names o4 = status_names o1);
  check_bool "healthy row bit-identical to the undisturbed run" true
    (ok_rows o1 = [ List.hd clean ]);
  check_bool "healthy row identical at j4" true (ok_rows o4 = ok_rows o1);
  (* the degraded row still carries partial data *)
  List.iter
    (fun (m : Factor.Flow.mut_outcome) ->
      match (m.Factor.Flow.mo_status, m.Factor.Flow.mo_row) with
      | Factor.Flow.Mut_degraded _, None ->
        Alcotest.fail "degraded row must keep its partial result"
      | _ -> ())
    o1

let flow_budget_skips_rows () =
  Pool.set_jobs 4;
  let dead = Budget.make ~deadline_in:0.0 () in
  ignore (Budget.poll dead : bool);
  List.iter
    (fun jobs ->
      let o = flow_outcomes ~budget:dead jobs in
      check_int "every MUT reported" 3 (List.length o);
      check_bool
        (Printf.sprintf "dead run budget skips all rows (j%d)" jobs)
        true
        (List.for_all (fun s -> s = "skipped") (status_names o)))
    [ 1; 4 ]

let flow_mut_budget_degrades_rows () =
  Pool.set_jobs 4;
  List.iter
    (fun jobs ->
      let o =
        Factor.Flow.transformed_atpg_all ~jobs ~mut_budget:0.0
          (make_flow_rows ()) det_cfg
      in
      List.iter
        (fun (m : Factor.Flow.mut_outcome) ->
          match (m.Factor.Flow.mo_status, m.Factor.Flow.mo_row) with
          | Factor.Flow.Mut_degraded _, Some a ->
            (* partial results: the row exists with zero-coverage data
               rather than being dropped *)
            check_bool "budget-starved row reports its faults" true
              (a.Factor.Flow.ar_faults > 0);
            check_bool "skipped faults counted" true
              (a.Factor.Flow.ar_result.Atpg.Gen.r_budget_skipped > 0)
          | _ -> Alcotest.fail "expected a degraded row with partial data")
        o)
    [ 1; 4 ]

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          test "many small tasks" pool_many_tasks;
          test "nested submission" pool_nested_submission;
          test "exception propagation and shutdown" pool_exception_propagation;
          test "serial degenerate pool" pool_serial_degenerate;
          test "cancel a queued future" pool_cancel_queued;
          test "cancel refuses running and finished" pool_cancel_running;
          test "raise on a worker domain" pool_raise_on_worker;
          test "shutdown with cancelled tasks queued" pool_shutdown_with_cancelled;
        ] );
      ( "budget",
        [
          test "deadline expiry via poll" budget_deadline_expiry;
          test "cancel cascades to descendants" budget_cancel_cascade;
          test "child deadline is the minimum" budget_child_min_deadline;
          test "detach and the none token" budget_detach_and_none;
        ] );
      ( "chaos",
        [
          test "decisions are deterministic" chaos_deterministic;
          test "rate, prefix and abort seams" chaos_rate_and_prefix;
        ] );
      ( "shard",
        [
          test "ranges partition" shard_ranges;
          test "ordered maps" shard_map_ordering;
        ] );
      ( "clock", [ test "monotonic" clock_monotonic ] );
      ( "determinism",
        [
          test "sharded fsim = serial fsim" fsim_sharded_matches_serial;
          test "parallel atpg = serial atpg" gen_parallel_deterministic;
          test "mut-parallel flow = serial flow" flow_parallel_deterministic;
        ] );
      ( "isolation",
        [
          test "chaos kills one MUT, siblings bit-identical"
            flow_chaos_isolation;
          test "one MUT killed + one budget-starved in one run"
            flow_chaos_kill_and_budget;
          test "dead run budget skips every row" flow_budget_skips_rows;
          test "per-MUT budget degrades rows with partial data"
            flow_mut_budget_degrades_rows;
        ] );
    ]
