(** Tests for the serve subsystem: the framed JSON wire protocol, the
    content-addressed store and two-level design cache (alias hash and
    chain fingerprint), reset-free metrics snapshots, and a live daemon
    driven end to end over a Unix socket — including budget expiry and
    chaos isolation at the per-request seam. *)

open Testutil
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* JSON parser (the protocol's substrate).                             *)
(* ------------------------------------------------------------------ *)

let json_roundtrip () =
  let v =
    J.Obj
      [ ("id", J.Int 7);
        ("neg", J.Int (-3));
        ("f", J.Float 1.5);
        ("s", J.String "a\"b\\c\nd\twith \xe2\x82\xac utf8");
        ("t", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Float 2.25; J.String "" ]) ]
  in
  check_bool "to_string . of_string is the identity" true
    (J.of_string (J.to_string v) = v);
  (* ints without fraction/exponent decode as Int, others as Float *)
  check_bool "42 is Int" true (J.of_string "42" = J.Int 42);
  check_bool "42.0 is Float" true (J.of_string "42.0" = J.Float 42.0);
  check_bool "4e2 is Float" true (J.of_string "4e2" = J.Float 400.0);
  check_bool "unicode escape decodes to utf8" true
    (J.of_string {|"€"|} = J.String "\xe2\x82\xac");
  let fails s =
    match J.of_string s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  check_bool "trailing bytes rejected" true (fails "1 2");
  check_bool "truncated object rejected" true (fails {|{"a": 1|});
  check_bool "bare word rejected" true (fails "pong")

(* ------------------------------------------------------------------ *)
(* Metrics snapshots and the Prometheus dump.                          *)
(* ------------------------------------------------------------------ *)

let metrics_snapshot_diff () =
  let c = Obs.Metrics.counter "test.serve.snap_counter" in
  let h = Obs.Metrics.histogram "test.serve.snap_hist" in
  let untouched = Obs.Metrics.counter "test.serve.snap_untouched" in
  Obs.Metrics.incr untouched;
  let before = Obs.Metrics.snapshot () in
  Obs.Metrics.add c 5;
  Obs.Metrics.observe h 0.25;
  Obs.Metrics.observe h 0.75;
  let after = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff before after in
  (match J.member "test.serve.snap_counter" d with
   | Some (J.Int 5) -> ()
   | _ -> Alcotest.fail "counter delta should be 5");
  check_bool "histogram delta present" true
    (J.member "test.serve.snap_hist" d <> None);
  check_bool "unmoved metrics are dropped from the diff" true
    (J.member "test.serve.snap_untouched" d = None);
  check_int "snapshot_counter reads inside a snapshot" 5
    (Obs.Metrics.snapshot_counter after "test.serve.snap_counter"
     - Obs.Metrics.snapshot_counter before "test.serve.snap_counter");
  (* live registry is untouched by snapshotting: a second diff of two
     fresh snapshots with no activity is empty for our cells *)
  let s1 = Obs.Metrics.snapshot () in
  let s2 = Obs.Metrics.snapshot () in
  check_bool "idle diff has no counter delta" true
    (J.member "test.serve.snap_counter" (Obs.Metrics.diff s1 s2) = None)

let metrics_prometheus () =
  let c = Obs.Metrics.counter "test.serve.promo-dash" in
  Obs.Metrics.incr c;
  let dump = Obs.Metrics.dump_prometheus () in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "names sanitized to [a-z0-9_]" true
    (contains dump "test_serve_promo_dash")

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)
(* ------------------------------------------------------------------ *)

let proto_framing () =
  let rq =
    { Serve.Proto.rq_id = 3; rq_op = "atpg";
      rq_params = J.Obj [ ("design", J.String "@arbiter") ] }
  in
  let wire = Serve.Proto.encode_request rq in
  (* feed the encoded frame one byte at a time; exactly one frame pops *)
  let r = Serve.Proto.create_reader () in
  let popped = ref [] in
  String.iter
    (fun ch ->
      Serve.Proto.feed r (Bytes.make 1 ch) 1;
      match Serve.Proto.next_frame r with
      | Some p -> popped := p :: !popped
      | None -> ())
    wire;
  (match !popped with
   | [ payload ] ->
     let rq' = Serve.Proto.request_of_json (J.of_string payload) in
     check_int "id survives" 3 rq'.Serve.Proto.rq_id;
     check_string "op survives" "atpg" rq'.Serve.Proto.rq_op
   | l -> Alcotest.failf "expected 1 frame, got %d" (List.length l));
  (* two frames in one feed *)
  let r = Serve.Proto.create_reader () in
  let two = Serve.Proto.frame "{}" ^ Serve.Proto.frame "[1]" in
  Serve.Proto.feed r (Bytes.of_string two) (String.length two);
  check_bool "frame 1" true (Serve.Proto.next_frame r = Some "{}");
  check_bool "frame 2" true (Serve.Proto.next_frame r = Some "[1]");
  check_bool "drained" true (Serve.Proto.next_frame r = None);
  (* malformed length prefix *)
  let r = Serve.Proto.create_reader () in
  Serve.Proto.feed r (Bytes.of_string "notanumber\n{}\n") 14;
  check_bool "bad prefix raises" true
    (match Serve.Proto.next_frame r with
     | exception Serve.Proto.Proto_error _ -> true
     | _ -> false)

let proto_event_frames () =
  (* encode each event kind, strip the framing, decode, compare *)
  let unframe s =
    match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 2)
    | None -> Alcotest.fail "missing length prefix"
  in
  let roundtrip ev =
    let j = J.of_string (unframe (Serve.Proto.event_frame ~id:9 ~req:"r-1" ev)) in
    check_bool "event frames are events" true (Serve.Proto.is_event j);
    check_bool "id travels" true (J.member "id" j = Some (J.Int 9));
    (Serve.Proto.event_of_json j, j)
  in
  let p =
    Serve.Proto.Ev_progress
      { ep_phase = "atpg.random"; ep_reporter = 3; ep_done = 7;
        ep_total = 32; ep_rate = 14.0; ep_eta_s = 1.5; ep_final = false }
  in
  (match roundtrip p with
   | (Some p', j) ->
     check_bool "progress roundtrips" true (p' = p);
     check_bool "req travels" true (J.member "req" j = Some (J.String "r-1"))
   | (None, _) -> Alcotest.fail "progress decoded as a final response");
  (match
     roundtrip
       (Serve.Proto.Ev_log
          { el_level = "info"; el_msg = "hello";
            el_attrs = J.Obj [ ("k", J.Int 1) ] })
   with
   | (Some (Serve.Proto.Ev_log l), _) ->
     check_string "log msg" "hello" l.el_msg
   | _ -> Alcotest.fail "log event lost");
  (match roundtrip Serve.Proto.Ev_heartbeat with
   | (Some Serve.Proto.Ev_heartbeat, _) -> ()
   | _ -> Alcotest.fail "heartbeat lost");
  (* a final response is not an event and decodes to None *)
  let final = J.of_string {|{"id": 9, "ok": true, "result": {}}|} in
  check_bool "final response is not an event" false (Serve.Proto.is_event final);
  check_bool "final response decodes to None" true
    (Serve.Proto.event_of_json final = None);
  (* an unknown event kind is a protocol error, not a silent skip *)
  check_bool "unknown event kind raises" true
    (match Serve.Proto.event_of_json (J.of_string {|{"id":1,"event":"??"}|}) with
     | exception Serve.Proto.Proto_error _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Store.                                                              *)
(* ------------------------------------------------------------------ *)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let store_roundtrip () =
  let dir = tmpdir "factor-store" in
  let s = Serve.Store.open_ dir in
  let (e0, b0) = Serve.Store.stats s in
  check_bool "fresh store is empty" true (e0 = 0 && b0 = 0);
  Serve.Store.put s ~key:"k1" "hello";
  check_bool "raw roundtrip" true (Serve.Store.get s ~key:"k1" = Some "hello");
  check_bool "missing key is None" true (Serve.Store.get s ~key:"nope" = None);
  Serve.Store.put_value s ~key:"v1" (1, "two", [ 3.0 ]);
  check_bool "value roundtrip" true
    (Serve.Store.get_value s ~key:"v1" = Some (1, "two", [ 3.0 ]));
  (* corrupt entry: a truncated/garbage file is a miss, never an error *)
  Serve.Store.put s ~key:"v2" "FACTOR-STORE-1\ngarbage";
  check_bool "corrupt value is None" true
    (match Serve.Store.get_value s ~key:"v2" with
     | None -> true
     | Some (_ : int) -> false);
  (* occupancy gauges track every write and removal *)
  let (entries, bytes) = Serve.Store.stats s in
  check_int "three entries after three puts" 3 entries;
  check_bool "byte total counts the payloads" true (bytes > 0);
  check_bool "store_entries gauge published" true
    (Obs.Metrics.get (Obs.Metrics.gauge "factor.serve.store_entries")
     = float_of_int entries);
  check_bool "store_bytes gauge published" true
    (Obs.Metrics.get (Obs.Metrics.gauge "factor.serve.store_bytes")
     = float_of_int bytes);
  Serve.Store.remove s ~key:"k1";
  check_bool "removed key is None" true (Serve.Store.get s ~key:"k1" = None);
  check_int "removal retires its entry" 2 (fst (Serve.Store.stats s));
  check_bool "unsafe key rejected" true
    (match Serve.Store.put s ~key:"../evil" "x" with
     | exception Invalid_argument _ -> true
     | () -> false)

(* ------------------------------------------------------------------ *)
(* Fingerprints.                                                       *)
(* ------------------------------------------------------------------ *)

let fp_source =
  {|
  module leaf (input a, input b, output y);
    assign y = a & b;
  endmodule

  module unused (input p, output q);
    assign q = ~p;
  endmodule

  module fp_top (input a, input b, output y);
    leaf u_leaf (.a(a), .b(b), .y(y));
  endmodule
  |}

let replace ~sub ~by s =
  let sl = String.length sub and l = String.length s in
  let b = Buffer.create l in
  let i = ref 0 in
  while !i < l do
    if !i + sl <= l && String.sub s !i sl = sub then begin
      Buffer.add_string b by;
      i := !i + sl
    end else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let design_fp src = Factor.Compose.design_fingerprint (parse src) ~top:"fp_top"

let fingerprint_invariance () =
  let base = design_fp fp_source in
  let ws = fp_source ^ "\n\n  // a trailing comment\n" in
  check_bool "whitespace/comment edit changes the alias hash" true
    (Factor.Compose.source_fingerprint ~source:fp_source ~top:"fp_top"
     <> Factor.Compose.source_fingerprint ~source:ws ~top:"fp_top");
  check_string "whitespace/comment edit keeps the chain fingerprint"
    base (design_fp ws);
  check_string "edit to an unreachable module keeps the chain fingerprint"
    base
    (design_fp (replace ~sub:"q = ~p" ~by:"q = p" fp_source));
  check_bool "semantic edit to a reachable module changes it" true
    (base <> design_fp (replace ~sub:"a & b" ~by:"a | b" fp_source));
  check_bool "a different top is a different identity" true
    (Factor.Compose.design_fingerprint (parse fp_source) ~top:"leaf" <> base)

(* ------------------------------------------------------------------ *)
(* Cache: cold -> warm-mem -> (restart) -> warm-disk, bit-identical.   *)
(* ------------------------------------------------------------------ *)

let gcd_source = Circuits.Collection.gcd.Circuits.Collection.e_source
let gcd_top = Circuits.Collection.gcd.Circuits.Collection.e_top

let transform_lines entry =
  let ((tf, stats), hit) =
    Serve.Cache.transform entry ~budget:Engine.Budget.none
      ~mut:"u_core.u_ctrl" ~mode:Factor.Flow.Compositional
  in
  ((Serve.Render.extract_stats stats, Serve.Render.transform_line tf), hit)

let cache_outcomes () =
  let dir = tmpdir "factor-cache" in
  let none = Engine.Budget.none in
  let t = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
  let (e1, o1) =
    Serve.Cache.find_or_build t ~budget:none ~source:gcd_source
      ~top:(Some gcd_top)
  in
  check_bool "first lookup is cold" true (o1 = Serve.Cache.Cold);
  let (_, o2) =
    Serve.Cache.find_or_build t ~budget:none ~source:gcd_source
      ~top:(Some gcd_top)
  in
  check_bool "repeat lookup is warm-mem" true (o2 = Serve.Cache.Warm_mem);
  (* a whitespace edit misses the alias hash but lands on the same
     chain fingerprint, so the entry (and its memos) are reused *)
  let (e_ws, o_ws) =
    Serve.Cache.find_or_build t ~budget:none
      ~source:(gcd_source ^ "\n// warm\n") ~top:(Some gcd_top)
  in
  check_bool "whitespace variant is warm-mem via the chain fp" true
    (o_ws = Serve.Cache.Warm_mem);
  check_string "same fingerprint" (Serve.Cache.fingerprint e1)
    (Serve.Cache.fingerprint e_ws);
  check_int "one resident entry" 1 (Serve.Cache.resident t);
  let (lines1, hit1) = transform_lines e1 in
  check_bool "first transform is a miss" false hit1;
  let (lines1', hit1') = transform_lines e1 in
  check_bool "repeat transform is a hit" true hit1';
  check_bool "hit returns the same lines" true (lines1 = lines1');
  let c1 = Serve.Cache.circuit e1 in
  (* restart: a fresh cache over the same store must warm-start from
     disk and reproduce everything bit for bit *)
  let t2 = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
  let (e2, o3) =
    Serve.Cache.find_or_build t2 ~budget:none ~source:gcd_source
      ~top:(Some gcd_top)
  in
  check_bool "restarted lookup is warm-disk" true (o3 = Serve.Cache.Warm_disk);
  check_string "fingerprint survives the restart"
    (Serve.Cache.fingerprint e1) (Serve.Cache.fingerprint e2);
  let (lines2, hit2) = transform_lines e2 in
  check_bool "restored transform memo hits" true hit2;
  check_bool "cold and warm-disk transforms are bit-identical" true
    (lines1 = lines2);
  check_bool "restored circuit is bit-identical" true
    (c1 = Serve.Cache.circuit e2);
  (* a cache with no store stays cold across instances but warm within *)
  let t3 = Serve.Cache.create () in
  let (_, o4) =
    Serve.Cache.find_or_build t3 ~budget:none ~source:gcd_source
      ~top:(Some gcd_top)
  in
  check_bool "storeless cache is cold" true (o4 = Serve.Cache.Cold)

(* LRU bound: with [max_resident], installing a second design evicts
   the first (and its alias edges), and the evicted design's next
   request falls back to the store when one is attached — or rebuilds
   cold without one.  The store itself is never touched by eviction. *)
let cache_lru_eviction () =
  let none = Engine.Budget.none in
  let arb = Circuits.Collection.arbiter in
  let arb_source = arb.Circuits.Collection.e_source in
  let arb_top = arb.Circuits.Collection.e_top in
  let lookup t source top =
    snd (Serve.Cache.find_or_build t ~budget:none ~source ~top:(Some top))
  in
  (* with a store: evicted entries come back warm from disk *)
  let dir = tmpdir "factor-lru" in
  let t = Serve.Cache.create ~store:(Serve.Store.open_ dir) ~max_resident:1 () in
  check_bool "gcd cold" true (lookup t gcd_source gcd_top = Serve.Cache.Cold);
  check_int "one resident" 1 (Serve.Cache.resident t);
  check_bool "arbiter cold evicts gcd" true
    (lookup t arb_source arb_top = Serve.Cache.Cold);
  check_int "still one resident" 1 (Serve.Cache.resident t);
  check_bool "arbiter stayed resident" true
    (lookup t arb_source arb_top = Serve.Cache.Warm_mem);
  check_bool "evicted gcd returns warm-disk" true
    (lookup t gcd_source gcd_top = Serve.Cache.Warm_disk);
  check_bool "which in turn evicted arbiter" true
    (lookup t arb_source arb_top = Serve.Cache.Warm_disk);
  (* least-recently-USED, not least-recently-built: touch the older
     entry, then install a third design — the untouched one must go *)
  let t2 =
    Serve.Cache.create ~store:(Serve.Store.open_ dir) ~max_resident:2 ()
  in
  let fifo = Circuits.Collection.fifo in
  ignore (lookup t2 gcd_source gcd_top);
  ignore (lookup t2 arb_source arb_top);
  ignore (lookup t2 gcd_source gcd_top);  (* gcd is now the fresher one *)
  ignore
    (lookup t2 fifo.Circuits.Collection.e_source
       fifo.Circuits.Collection.e_top);
  check_bool "recently-touched gcd survived" true
    (lookup t2 gcd_source gcd_top = Serve.Cache.Warm_mem);
  check_bool "least-recently-used arbiter was evicted" true
    (lookup t2 arb_source arb_top <> Serve.Cache.Warm_mem);
  (* without a store, an evicted design rebuilds cold *)
  let t3 = Serve.Cache.create ~max_resident:1 () in
  check_bool "storeless gcd cold" true
    (lookup t3 gcd_source gcd_top = Serve.Cache.Cold);
  check_bool "storeless arbiter evicts gcd" true
    (lookup t3 arb_source arb_top = Serve.Cache.Cold);
  check_bool "storeless evicted gcd is cold again" true
    (lookup t3 gcd_source gcd_top = Serve.Cache.Cold)

let cache_budget_expiry () =
  let t = Serve.Cache.create () in
  let dead = Engine.Budget.make ~deadline_in:0.0 () in
  check_bool "expired budget kills a cold build" true
    (match
       Serve.Cache.find_or_build t ~budget:dead ~source:gcd_source
         ~top:(Some gcd_top)
     with
     | exception Engine.Budget.Exhausted _ -> true
     | _ -> false);
  (* but a warm hit never needs the budget at all *)
  let (_, o1) =
    Serve.Cache.find_or_build t ~budget:Engine.Budget.none
      ~source:gcd_source ~top:(Some gcd_top)
  in
  check_bool "cold build with a live budget" true (o1 = Serve.Cache.Cold);
  let (_, o2) =
    Serve.Cache.find_or_build t ~budget:dead ~source:gcd_source
      ~top:(Some gcd_top)
  in
  check_bool "alias hit skips the guarded phases entirely" true
    (o2 = Serve.Cache.Warm_mem)

(* ------------------------------------------------------------------ *)
(* End to end: a live daemon over a Unix socket.                       *)
(* ------------------------------------------------------------------ *)

let with_server ?store ?(heartbeat = 1.0) f =
  let dir = tmpdir "factor-e2e" in
  let sock = Filename.concat dir "factor.sock" in
  let t =
    Serve.Server.start
      { Serve.Server.sc_addr = Serve.Server.Unix_path sock;
        sc_store = store;
        sc_max_resident = None;
        sc_default_budget = None;
        sc_heartbeat_s = heartbeat }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop t)
    (fun () ->
      let cl = Serve.Client.connect_retry (Serve.Server.Unix_path sock) in
      Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> f cl))

let jstr name j =
  Option.value ~default:"" (Option.bind (J.member name j) J.to_string_opt)

let jint name j =
  Option.value ~default:(-1) (Option.bind (J.member name j) J.to_int_opt)

(* the daemon's canonical atpg lines computed directly, serial and
   parallel: what any byte-identical response must equal *)
let arbiter_expected_lines jobs =
  let src = Circuits.Collection.arbiter.Circuits.Collection.e_source in
  let top = Circuits.Collection.arbiter.Circuits.Collection.e_top in
  let c = circuit ~top src in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let cfg =
    { Atpg.Gen.default_config with Atpg.Gen.g_total_budget = 60.0;
      g_jobs = jobs }
  in
  let r = Atpg.Gen.run c cfg faults in
  (Serve.Render.atpg_counts r, Serve.Render.atpg_quality r,
   Atpg.Pattern.write_string ~pi_names:c.Netlist.pi_names r.Atpg.Gen.r_tests)

let e2e_roundtrip () =
  Engine.Pool.set_jobs 2;
  let (counts, quality, vectors) = arbiter_expected_lines 1 in
  let (counts4, quality4, vectors4) = arbiter_expected_lines 4 in
  check_bool "direct -j 1 and -j 4 runs agree" true
    ((counts, quality, vectors) = (counts4, quality4, vectors4));
  with_server (fun cl ->
      let pong = Serve.Client.rpc cl ~op:"ping" ~params:[] in
      check_bool "ping answers pong" true
        (J.member "pong" pong = Some (J.Bool true));
      let params = [ ("design", J.String "@arbiter") ] in
      let r1 = Serve.Client.rpc cl ~op:"atpg" ~params in
      check_string "cold atpg counts match the direct run" counts
        (jstr "counts" r1);
      check_string "cold atpg quality matches" quality (jstr "quality" r1);
      check_string "cold atpg vectors match" vectors (jstr "vectors" r1);
      check_string "first request is cold" "cold" (jstr "cache" r1);
      let r2 = Serve.Client.rpc cl ~op:"atpg" ~params in
      check_string "warm repeat is warm-mem" "warm-mem" (jstr "cache" r2);
      check_bool "warm response is bit-identical" true
        ((jstr "counts" r2, jstr "quality" r2, jstr "vectors" r2)
         = (counts, quality, vectors));
      (* the per-request metrics delta must show the warm hit *)
      (match Serve.Client.last_metrics cl with
       | Some d ->
         check_bool "delta counts a warm-mem hit" true
           (jint "factor.serve.cache_warm_mem" d >= 1)
       | None -> Alcotest.fail "response carried no metrics delta");
      (* grade the generated vectors through the daemon *)
      let g =
        Serve.Client.rpc cl ~op:"grade"
          ~params:(params @ [ ("vectors", J.String vectors) ])
      in
      check_bool "grading our own vectors detects faults" true
        (jint "detected" g > 0);
      check_bool "grade line is the canonical render" true
        (jstr "line" g <> "");
      (* extract through the constraint cache *)
      let xp =
        [ ("design", J.String "@gcd"); ("mut", J.String "u_core.u_ctrl") ]
      in
      let x1 = Serve.Client.rpc cl ~op:"extract" ~params:xp in
      check_bool "extract is fresh" false
        (match J.member "transform_cached" x1 with
         | Some (J.Bool b) -> b
         | _ -> true);
      let x2 = Serve.Client.rpc cl ~op:"extract" ~params:xp in
      check_bool "repeat extract hits the transform memo" true
        (J.member "transform_cached" x2 = Some (J.Bool true));
      check_bool "extract lines identical across hits" true
        ((jstr "extraction" x1, jstr "transformed" x1)
         = (jstr "extraction" x2, jstr "transformed" x2));
      (* equivalence of a design against itself *)
      let ec =
        Serve.Client.rpc cl ~op:"ec"
          ~params:
            [ ("a", J.Obj [ ("design", J.String "@arbiter") ]);
              ("b", J.Obj [ ("design", J.String "@arbiter") ]) ]
      in
      check_string "a design is equivalent to itself" "equal"
        (jstr "verdict" ec))

let e2e_errors_and_budget () =
  with_server (fun cl ->
      (* an unknown op is a proto error, not a dead connection *)
      check_bool "unknown op answers an error response" true
        (match Serve.Client.rpc cl ~op:"frobnicate" ~params:[] with
         | exception Serve.Client.Server_error (stage, _) -> stage = "proto"
         | _ -> false);
      (* a dead budget on a cold design dies in the parse guard *)
      check_bool "expired budget fails the request with stage parse" true
        (match
           Serve.Client.rpc cl ~op:"atpg"
             ~params:
               [ ("design", J.String "@traffic"); ("budget_s", J.Float 0.0) ]
         with
         | exception Serve.Client.Server_error (stage, msg) ->
           stage = "parse"
           && String.length msg >= 16
           && String.sub msg 0 16 = "budget exhausted"
         | _ -> false);
      (* the failure degraded only itself: the same design works next *)
      let r =
        Serve.Client.rpc cl ~op:"atpg"
          ~params:[ ("design", J.String "@traffic") ]
      in
      check_string "same design succeeds without the dead budget" "cold"
        (jstr "cache" r);
      (* a missing parameter reports proto, siblings still fine *)
      check_bool "extract without mut is a proto error" true
        (match
           Serve.Client.rpc cl ~op:"extract"
             ~params:[ ("design", J.String "@gcd") ]
         with
         | exception Serve.Client.Server_error ("proto", _) -> true
         | _ -> false);
      check_bool "connection still alive after errors" true
        (J.member "pong" (Serve.Client.rpc cl ~op:"ping" ~params:[])
         = Some (J.Bool true)))

let e2e_warm_restart () =
  let dir = tmpdir "factor-restart" in
  let params = [ ("design", J.String "@fifo") ] in
  let first =
    with_server ~store:dir (fun cl ->
        let r = Serve.Client.rpc cl ~op:"atpg" ~params in
        check_string "fresh store starts cold" "cold" (jstr "cache" r);
        (jstr "counts" r, jstr "quality" r, jstr "vectors" r))
  in
  with_server ~store:dir (fun cl ->
      let r = Serve.Client.rpc cl ~op:"atpg" ~params in
      check_string "restarted daemon warm-starts from disk" "warm-disk"
        (jstr "cache" r);
      check_bool "restarted response is bit-identical" true
        (first = (jstr "counts" r, jstr "quality" r, jstr "vectors" r)))

(* An unknown extraction mode is refused before any work, so it can
   neither run a flow nor memoize a transform under a key of its own. *)
let e2e_extract_modes () =
  let dir = tmpdir "factor-modes" in
  let store = Serve.Store.open_ dir in
  with_server ~store:dir (fun cl ->
      let extract mode =
        Serve.Client.rpc cl ~op:"extract"
          ~params:
            [ ("design", J.String "@gcd"); ("mut", J.String "u_core.u_ctrl");
              ("mode", J.String mode) ]
      in
      let cached r = J.member "transform_cached" r = Some (J.Bool true) in
      let comp = extract "compositional" in
      check_bool "compositional extract answers" true
        (jstr "extraction" comp <> "" && not (cached comp));
      let before = Serve.Store.stats store in
      check_bool "a misspelt mode is a proto error" true
        (match extract "conventonal" with
         | exception Serve.Client.Server_error ("proto", _) -> true
         | _ -> false);
      check_bool "a misspelt mode adds no transform entry" true
        (Serve.Store.stats store = before);
      let conv = extract "conventional" in
      check_bool "conventional extract answers fresh" true
        (jstr "extraction" conv <> "" && not (cached conv));
      check_bool "compositional repeat hits its memo" true
        (cached (extract "compositional")))

let e2e_shutdown_request () =
  let dir = tmpdir "factor-shutdown" in
  let sock = Filename.concat dir "factor.sock" in
  let t =
    Serve.Server.start
      { Serve.Server.sc_addr = Serve.Server.Unix_path sock;
        sc_store = None; sc_max_resident = None;
        sc_default_budget = None; sc_heartbeat_s = 1.0 }
  in
  let cl = Serve.Client.connect_retry (Serve.Server.Unix_path sock) in
  let r = Serve.Client.rpc cl ~op:"shutdown" ~params:[] in
  check_bool "shutdown acknowledges before stopping" true
    (J.member "stopping" r = Some (J.Bool true));
  Serve.Client.close cl;
  (* join the loop; stop is idempotent with the request-driven path *)
  Serve.Server.stop t;
  Serve.Server.stop t;
  check_bool "socket file unlinked on shutdown" false (Sys.file_exists sock)

let e2e_chaos_isolation () =
  with_server (fun cl ->
      let params = [ ("design", J.String "@arbiter") ] in
      let before = Serve.Client.rpc cl ~op:"atpg" ~params in
      (* kill exactly the atpg seam: every atpg request fails, every
         other op keeps working on the same connection *)
      Engine.Chaos.set ~seed:42 ~rate:1.0 ~mode:Engine.Chaos.Fail_only
        ~prefix:"serve.request:atpg" ();
      Fun.protect ~finally:Engine.Chaos.clear (fun () ->
          check_bool "chaos kills the atpg request" true
            (match Serve.Client.rpc cl ~op:"atpg" ~params with
             | exception Serve.Client.Server_error _ -> true
             | _ -> false);
          check_bool "sibling op unaffected" true
            (J.member "pong" (Serve.Client.rpc cl ~op:"ping" ~params:[])
             = Some (J.Bool true));
          let g =
            Serve.Client.rpc cl ~op:"extract"
              ~params:
                [ ("design", J.String "@gcd");
                  ("mut", J.String "u_core.u_ctrl") ]
          in
          check_bool "sibling extract unaffected" true
            (jstr "extraction" g <> ""));
      let after = Serve.Client.rpc cl ~op:"atpg" ~params in
      check_bool "post-chaos response is bit-identical to pre-chaos" true
        ((jstr "counts" before, jstr "quality" before, jstr "vectors" before)
         = (jstr "counts" after, jstr "quality" after, jstr "vectors" after)))

(* ------------------------------------------------------------------ *)
(* Streaming: progress frames, failure mid-stream, idle timeout.       *)
(* ------------------------------------------------------------------ *)

(* done non-decreasing and total stable within each (phase, reporter)
   group, in arrival order *)
let check_monotonic progress =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (phase, reporter, done_, total) ->
      (match Hashtbl.find_opt tbl (phase, reporter) with
       | Some (d, t) ->
         if done_ < d then
           Alcotest.failf "%s: done went backwards (%d after %d)" phase
             done_ d;
         if total <> t then
           Alcotest.failf "%s: total moved (%d after %d)" phase total t
       | None -> ());
      Hashtbl.replace tbl (phase, reporter) (done_, total))
    progress

let progress_of_events events =
  List.filter_map
    (fun j ->
      match Serve.Proto.event_of_json j with
      | Some (Serve.Proto.Ev_progress p) ->
        Some (p.ep_phase, p.ep_reporter, p.ep_done, p.ep_total)
      | _ -> None)
    events

(* Streaming is strictly additive: the same request with [stream: true]
   delivers ordered monotonic progress frames, every one stamped with
   the client's request id, and then a final response byte-identical to
   the non-streaming run. *)
let e2e_streaming () =
  Engine.Pool.set_jobs 2;
  Obs.Progress.set_interval 0.0;
  Fun.protect ~finally:(fun () -> Obs.Progress.set_interval 0.05)
  @@ fun () ->
  with_server (fun cl ->
      let params = [ ("design", J.String "@arbiter") ] in
      let plain = Serve.Client.rpc cl ~op:"atpg" ~params in
      let events = ref [] in
      let on_event j = events := j :: !events in
      let streamed =
        Serve.Client.rpc ~on_event ~stream:true ~req:"watch-1" cl ~op:"atpg"
          ~params
      in
      check_bool "streamed final response is byte-identical" true
        ((jstr "counts" streamed, jstr "quality" streamed,
          jstr "vectors" streamed)
         = (jstr "counts" plain, jstr "quality" plain, jstr "vectors" plain));
      let events = List.rev !events in
      let progress = progress_of_events events in
      check_bool "at least three progress frames" true
        (List.length progress >= 3);
      check_monotonic progress;
      (* every progress/log frame carries the caller's request id *)
      List.iter
        (fun j ->
          match jstr "event" j with
          | "progress" | "log" ->
            check_string "request id stamped on event frames" "watch-1"
              (jstr "req" j)
          | _ -> ())
        events;
      (* the non-streaming sibling saw no frames at all (on_event was
         only wired for the streamed request, but also: the daemon must
         not leak one request's frames into another's stream) *)
      let events2 = ref [] in
      let r2 =
        Serve.Client.rpc ~on_event:(fun j -> events2 := j :: !events2) cl
          ~op:"atpg" ~params
      in
      check_bool "warm repeat without stream gets no events" true
        (!events2 = []);
      check_string "and stays byte-identical" (jstr "counts" plain)
        (jstr "counts" r2))

(* A request chaos-killed mid-stream still answers: the frames already
   emitted arrive, then a well-formed final error frame — never a
   dangling stream. *)
let e2e_stream_chaos_kill () =
  Engine.Pool.set_jobs 2;
  with_server (fun cl ->
      let params = [ ("design", J.String "@arbiter") ] in
      Engine.Chaos.set ~seed:42 ~rate:1.0 ~mode:Engine.Chaos.Fail_only
        ~prefix:"serve.request:atpg" ();
      Fun.protect ~finally:Engine.Chaos.clear (fun () ->
          let events = ref [] in
          let failed =
            match
              Serve.Client.rpc ~on_event:(fun j -> events := j :: !events)
                ~stream:true cl ~op:"atpg" ~params
            with
            | exception Serve.Client.Server_error _ -> true
            | _ -> false
          in
          check_bool "chaos kill still yields a final error frame" true
            failed;
          check_bool "the stream delivered frames before dying" true
            (List.length (progress_of_events (List.rev !events)) >= 1));
      (* the stream is retired: the connection answers normally next *)
      let r = Serve.Client.rpc cl ~op:"atpg" ~params in
      check_bool "connection usable after a killed stream" true
        (jstr "counts" r <> ""))

(* Watching a request that dies at birth (expired budget) terminates
   with its error instead of hanging the watcher. *)
let e2e_stream_cancelled () =
  Engine.Pool.set_jobs 2;
  with_server (fun cl ->
      let events = ref [] in
      check_bool "cancelled streaming request answers its error" true
        (match
           Serve.Client.rpc ~on_event:(fun j -> events := j :: !events)
             ~stream:true ~timeout:10.0 cl ~op:"atpg"
             ~params:
               [ ("design", J.String "@arbiter");
                 ("budget_s", J.Float 0.0) ]
         with
         | exception Serve.Client.Server_error ("parse", _) -> true
         | _ -> false);
      (* the lifecycle marker preceded the failure *)
      check_bool "marker frame arrived before the error" true
        (List.exists
           (fun (phase, _, _, _) -> phase = "serve.atpg")
           (progress_of_events (List.rev !events))))

(* A wedged daemon — socket accepted, nothing ever answered — trips the
   idle timeout instead of blocking forever. *)
let e2e_client_timeout () =
  let dir = tmpdir "factor-wedged" in
  let sock = Filename.concat dir "factor.sock" in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 4;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let cl = Serve.Client.connect (Serve.Server.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          match Serve.Client.rpc ~timeout:0.3 cl ~op:"ping" ~params:[] with
          | _ -> Alcotest.fail "a wedged daemon answered?"
          | exception Serve.Client.Timeout s ->
            check_bool "timeout reports the configured window" true
              (s = 0.3);
            check_bool "timeout fired promptly" true
              (Unix.gettimeofday () -. t0 < 5.0)))

(* While a streaming request runs, the server loop beats on the
   connection: heartbeats reset the idle clock, so a slow request under
   a tight timeout survives where a wedged daemon would not. *)
let e2e_heartbeat () =
  Engine.Pool.set_jobs 2;
  with_server ~heartbeat:0.05 (fun cl ->
      let beats = ref 0 in
      let on_event j =
        if jstr "event" j = "heartbeat" then incr beats
      in
      (* full-ARM with a sub-second budget: long enough for the loop to
         beat, bounded so the test stays quick *)
      let r =
        Serve.Client.rpc ~on_event ~stream:true ~timeout:60.0 cl ~op:"atpg"
          ~params:
            [ ("design", J.String "@arm"); ("budget", J.Float 1.0) ]
      in
      check_bool "the slow request finished under its timeout" true
        (jstr "counts" r <> "");
      check_bool "the loop heartbeat while it ran" true (!beats >= 1))

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          test "json roundtrip and parse errors" json_roundtrip;
          test "framing, incremental reader" proto_framing;
          test "event frames: encode/decode, final-response discrimination"
            proto_event_frames;
        ] );
      ( "metrics",
        [
          test "snapshot/diff is reset-free" metrics_snapshot_diff;
          test "prometheus dump sanitizes names" metrics_prometheus;
        ] );
      ( "store", [ test "roundtrip, corruption, unsafe keys" store_roundtrip ] );
      ( "fingerprint",
        [ test "alias vs chain invariance" fingerprint_invariance ] );
      ( "cache",
        [
          test "cold, warm-mem, warm-disk, bit-identical" cache_outcomes;
          test "budget guards cold builds only" cache_budget_expiry;
          test "max-resident LRU evicts to warm-disk" cache_lru_eviction;
        ] );
      ( "daemon",
        [
          test "end-to-end roundtrip, byte-identical to direct runs"
            e2e_roundtrip;
          test "errors and budgets degrade one request" e2e_errors_and_budget;
          test "store-backed warm restart" e2e_warm_restart;
          test "an unknown extract mode is refused" e2e_extract_modes;
          test "shutdown request" e2e_shutdown_request;
          test "chaos kills one op, siblings untouched" e2e_chaos_isolation;
        ] );
      ( "streaming",
        [
          test "progress frames: monotonic, correlated, byte-identical final"
            e2e_streaming;
          test "chaos kill mid-stream still answers" e2e_stream_chaos_kill;
          test "cancelled request terminates the watcher" e2e_stream_cancelled;
          test "idle timeout distinguishes wedged from slow" e2e_client_timeout;
          test "heartbeats keep a slow stream alive" e2e_heartbeat;
        ] );
    ]
