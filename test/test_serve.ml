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

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Occupancy is counted, not rescanned: after any sequence of puts,
   overwrites and removals — half of them split over two domains that
   race on the same keys — the published gauges equal a fresh scan of
   the directory. *)
type store_op = Put of int * int | Remove of int

let store_gauges_match_rescan =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map2 (fun k n -> Put (k, n)) (int_bound 4) (int_bound 64));
          (1, map (fun k -> Remove k) (int_bound 4)) ])
  in
  let print (ops, two) =
    Printf.sprintf "%s%s"
      (if two then "two domains: " else "")
      (String.concat "; "
         (List.map
            (function
              | Put (k, n) -> Printf.sprintf "put k%d %d" k n
              | Remove k -> Printf.sprintf "remove k%d" k)
            ops))
  in
  qtest ~count:60 "store gauges equal a directory rescan"
    (QCheck.make ~print QCheck.Gen.(pair (list_size (int_bound 24) op) bool))
    (fun (ops, two) ->
      let dir = tmpdir "factor-gauges" in
      Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
      let s = Serve.Store.open_ dir in
      let apply =
        List.iter (function
          | Put (k, n) ->
            Serve.Store.put s ~key:(Printf.sprintf "k%d" k) (String.make n 'x')
          | Remove k -> Serve.Store.remove s ~key:(Printf.sprintf "k%d" k))
      in
      if two then begin
        let half = List.filteri (fun i _ -> i mod 2 = 0) ops in
        let other = List.filteri (fun i _ -> i mod 2 = 1) ops in
        let d = Domain.spawn (fun () -> apply other) in
        apply half;
        Domain.join d
      end
      else apply ops;
      let gauges () =
        ( int_of_float
            (Obs.Metrics.get (Obs.Metrics.gauge "factor.serve.store_entries")),
          int_of_float
            (Obs.Metrics.get (Obs.Metrics.gauge "factor.serve.store_bytes")) )
      in
      let counted = gauges () in
      ignore (Serve.Store.open_ dir : Serve.Store.t);
      counted = Serve.Store.stats s && gauges () = counted)

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

(* The write path: a request writes only what it changed — a cold
   extract its blob and alias edge, a repeat nothing, a restarted
   daemon's warm-disk hit nothing, and a whitespace variant of a
   resident design only its new alias edge.  A request that fails after
   its cold build still leaves the entry on disk. *)
let store_writes_per_class () =
  let dir = tmpdir "factor-writes" in
  let writes = Obs.Metrics.counter "factor.serve.store_writes" in
  let mut = ("mut", J.String "u_core.u_ctrl") in
  let request ?(op = "extract") ctx params =
    let before = Obs.Metrics.value writes in
    let cls =
      match
        Serve.Ops.handle ctx
          { Serve.Proto.rq_id = 1; rq_op = op; rq_params = J.Obj params }
      with
      | r -> Option.get (Option.bind (J.member "cache" r) J.to_string_opt)
      | exception Serve.Proto.Proto_error _ -> "failed"
    in
    (cls, Obs.Metrics.value writes - before)
  in
  let check_class name expected got =
    Alcotest.(check (pair string int)) name expected got
  in
  let gcd = [ ("design", J.String "@gcd"); mut ] in
  let ctx = Serve.Ops.make_ctx ~store:(Serve.Store.open_ dir) () in
  check_class "cold: blob and alias" ("cold", 2) (request ctx gcd);
  check_class "warm-mem: nothing" ("warm-mem", 0) (request ctx gcd);
  (* an unknown engine is refused after the circuit is built; every
     engine the command line offers is accepted and writes nothing new *)
  check_class "failing after a cold build: blob and alias" ("failed", 2)
    (request ~op:"atpg" ctx
       [ ("design", J.String "@arbiter"); ("engine", J.String "bogus") ]);
  List.iter
    (fun (name, _) ->
      check_class ("engine " ^ name) ("warm-mem", 0)
        (request ~op:"atpg" ctx
           [ ("design", J.String "@arbiter"); ("engine", J.String name) ]))
    Atpg.Gen.engines;
  let ctx = Serve.Ops.make_ctx ~store:(Serve.Store.open_ dir) () in
  check_class "warm-disk: nothing" ("warm-disk", 0) (request ctx gcd);
  check_class "whitespace variant: its alias only" ("warm-mem", 1)
    (request ctx
       [ ("source", J.String (gcd_source ^ "\n// ws\n"));
         ("top", J.String gcd_top); mut ]);
  let arb = Circuits.Collection.arbiter in
  let (_, o) =
    Serve.Cache.find_or_build (Serve.Ops.cache ctx) ~budget:Engine.Budget.none
      ~source:arb.Circuits.Collection.e_source
      ~top:(Some arb.Circuits.Collection.e_top)
  in
  check_bool "the failed request's entry was kept" true
    (o = Serve.Cache.Warm_disk)

(* What the store reads back from a damaged file is a miss or the value
   that was written, never a crash or another value: truncations, bit
   flips anywhere in a real cache blob, and files swapped in from other
   keys (another design's blob, an alias edge, a blob of the previous
   layout). *)
let store_digest_fuzz =
  let setup =
    lazy
      (let dir = tmpdir "factor-digest" in
       let s = Serve.Store.open_ dir in
       let t = Serve.Cache.create ~store:s () in
       let build (e : Circuits.Collection.entry) =
         let (entry, _) =
           Serve.Cache.find_or_build t ~budget:Engine.Budget.none
             ~source:e.e_source ~top:(Some e.e_top)
         in
         ignore (Serve.Cache.circuit entry : Netlist.t);
         "full-" ^ Serve.Cache.fingerprint entry
       in
       let key = build Circuits.Collection.gcd in
       let other = build Circuits.Collection.arbiter in
       let raw k = Option.get (Serve.Store.get s ~key:k) in
       let bytes = raw key in
       let value : Obj.t = Option.get (Serve.Store.get_value s ~key) in
       let alias =
         "alias-"
         ^ Factor.Compose.source_fingerprint ~source:gcd_source ~top:gcd_top
       in
       let old_layout =
         let nl1 = String.index bytes '\n' in
         let nl2 = String.index_from bytes (nl1 + 1) '\n' in
         "FACTOR-STORE-1\n"
         ^ String.sub bytes (nl1 + 1) (nl2 - nl1)
         ^ String.sub bytes (nl2 + 17) (String.length bytes - nl2 - 17)
       in
       (s, key, bytes, Marshal.to_string value [],
        [| raw other; raw alias; old_layout |]))
  in
  qtest ~count:150 "damaged blobs read as misses"
    QCheck.(triple (int_bound 2) (int_bound 1_000_000) (int_bound 7))
    (fun (kind, pos, bit) ->
      let (s, key, bytes, expected, swaps) = Lazy.force setup in
      let len = String.length bytes in
      let damaged =
        match kind with
        | 0 -> String.sub bytes 0 (pos mod len)
        | 1 ->
          let b = Bytes.of_string bytes in
          let i = pos mod len in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          Bytes.to_string b
        | _ -> swaps.(pos mod Array.length swaps)
      in
      Serve.Store.put s ~key damaged;
      let ok =
        match (Serve.Store.get_value s ~key : Obj.t option) with
        | None -> true
        | Some v -> Marshal.to_string v [] = expected
      in
      Serve.Store.put s ~key bytes;
      ok)

(* A damaged blob or alias edge costs a rebuild (or a parse), never the
   request: a restarted cache over a flipped blob builds cold, and one
   whose alias edge is garbage falls back to the chain fingerprint. *)
let cache_damaged_store () =
  let dir = tmpdir "factor-damaged" in
  let none = Engine.Budget.none in
  let lookup () =
    let t = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
    Serve.Cache.find_or_build t ~budget:none ~source:gcd_source
      ~top:(Some gcd_top)
  in
  let (e, _) = lookup () in
  let c = Serve.Cache.circuit e in
  let s = Serve.Store.open_ dir in
  let key = "full-" ^ Serve.Cache.fingerprint e in
  let bytes = Option.get (Serve.Store.get s ~key) in
  let b = Bytes.of_string bytes in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Serve.Store.put s ~key (Bytes.to_string b);
  let (e1, o1) = lookup () in
  check_bool "flipped blob rebuilds cold" true (o1 = Serve.Cache.Cold);
  check_bool "and the rebuild is identical" true (Serve.Cache.circuit e1 = c);
  let alias =
    "alias-" ^ Factor.Compose.source_fingerprint ~source:gcd_source ~top:gcd_top
  in
  Serve.Store.put s ~key:alias "../\000not a fingerprint";
  let (_, o2) = lookup () in
  check_bool "garbage alias edge falls back to the chain fingerprint" true
    (o2 = Serve.Cache.Warm_disk)

(* Alias edges are bound to their own key: with two designs' edges
   swapped on disk, or an edge written bare (as builds before the
   digested edges did), a restarted cache answers each design with its
   own entry — the edge reads as a miss and the request parses — never
   with the other design's. *)
let cache_swapped_alias_edges () =
  let dir = tmpdir "factor-alias-swap" in
  let none = Engine.Budget.none in
  let designs =
    List.map
      (fun (e : Circuits.Collection.entry) -> (e.e_source, e.e_top))
      [ Circuits.Collection.gcd; Circuits.Collection.arbiter ]
  in
  let lookup t (source, top) =
    let (e, o) =
      Serve.Cache.find_or_build t ~budget:none ~source ~top:(Some top)
    in
    ((Serve.Cache.fingerprint e, Serve.Cache.circuit e), o)
  in
  let t = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
  let own = List.map (fun d -> fst (lookup t d)) designs in
  let s = Serve.Store.open_ dir in
  let alias_key (source, top) =
    "alias-" ^ Factor.Compose.source_fingerprint ~source ~top
  in
  let keys = List.map alias_key designs in
  let edges = List.map (fun key -> Option.get (Serve.Store.get s ~key)) keys in
  List.iter2 (fun key edge -> Serve.Store.put s ~key edge) keys
    (List.rev edges);
  let t2 = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
  List.iter2
    (fun d (fp, c) ->
      let ((fp', c'), o) = lookup t2 d in
      check_string "swapped edge: own fingerprint" fp fp';
      check_bool "swapped edge: own circuit" true (c = c');
      check_bool "swapped edge: warm from the own blob" true
        (o = Serve.Cache.Warm_disk))
    designs own;
  List.iter2
    (fun key (fp, _) -> Serve.Store.put s ~key fp)
    keys (List.rev own);
  let t3 = Serve.Cache.create ~store:(Serve.Store.open_ dir) () in
  List.iter2
    (fun d (fp, _) ->
      let ((fp', _), o) = lookup t3 d in
      check_string "bare edge: own fingerprint" fp fp';
      check_bool "bare edge: warm from the own blob" true
        (o = Serve.Cache.Warm_disk))
    designs own

(* The one-shot commands print the typed cores through Render; served
   requests render the same cores as the response object.  Both must
   agree field for field, at any job count. *)
let typed_cores_match_handle () =
  Engine.Pool.set_jobs 2;
  let handle params op =
    Serve.Ops.handle (Serve.Ops.make_ctx ())
      { Serve.Proto.rq_id = 1; rq_op = op; rq_params = J.Obj params }
  in
  let field name r =
    Option.value ~default:"" (Option.bind (J.member name r) J.to_string_opt)
  in
  let arb = [ ("design", J.String "@arbiter") ] in
  let xp = arb @ [ ("mut", J.String "u_arb.u_prio") ] in
  let (x, _) = Serve.Ops.extract (Serve.Ops.make_ctx ()) (J.Obj xp) in
  let served = handle xp "extract" in
  check_string "extraction" (field "extraction" served)
    (Serve.Render.extract_stats x.Serve.Ops.x_stats);
  check_string "transformed" (field "transformed" served)
    (Serve.Render.transform_line x.Serve.Ops.x_transform);
  let served = handle arb "atpg" in
  let vectors = field "vectors" served in
  let gp = arb @ [ ("vectors", J.String vectors) ] in
  let served_grade = handle gp "grade" in
  List.iter
    (fun jobs ->
      let tag what = Printf.sprintf "%s at %d jobs" what jobs in
      let (a, _) =
        Serve.Ops.atpg ~jobs (Serve.Ops.make_ctx ()) (J.Obj arb)
      in
      let r = a.Serve.Ops.a_result in
      check_string (tag "counts") (field "counts" served)
        (Serve.Render.atpg_counts r);
      check_string (tag "quality") (field "quality" served)
        (Serve.Render.atpg_quality r);
      check_string (tag "vectors") vectors
        (Atpg.Pattern.write_string
           ~pi_names:a.Serve.Ops.a_circuit.Netlist.pi_names r.Atpg.Gen.r_tests);
      let (g, _) = Serve.Ops.grade ~jobs (Serve.Ops.make_ctx ()) (J.Obj gp) in
      check_string (tag "grade line") (field "line" served_grade)
        (Serve.Render.grade_line ~tests:g.Serve.Ops.gd_tests
           ~detected:g.Serve.Ops.gd_detected ~faults:g.Serve.Ops.gd_faults))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* End to end: a live daemon over a Unix socket.                       *)
(* ------------------------------------------------------------------ *)

(* [f sock] with a daemon listening on the Unix socket [sock]. *)
let with_daemon ?store ?(heartbeat = 1.0) f =
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
  Fun.protect ~finally:(fun () -> Serve.Server.stop t) (fun () -> f sock)

let with_server ?store ?heartbeat f =
  with_daemon ?store ?heartbeat (fun sock ->
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
      check_bool "extract answers its stats" true (jstr "extraction" x1 <> "");
      let x2 = Serve.Client.rpc cl ~op:"extract" ~params:xp in
      check_string "repeat extract is warm-mem" "warm-mem" (jstr "cache" x2);
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
      (* a dead budget on a cold design dies in the parse guard, and an
         exhausted budget is a solve error whichever stage it stopped *)
      check_bool "expired budget fails the request with stage solve" true
        (match
           Serve.Client.rpc cl ~op:"atpg"
             ~params:
               [ ("design", J.String "@traffic"); ("budget_s", J.Float 0.0) ]
         with
         | exception Serve.Client.Server_error (stage, msg) ->
           stage = "solve" && msg = "budget exhausted during parse"
         | _ -> false);
      (* the failure degraded only itself: the same design works next *)
      let r =
        Serve.Client.rpc cl ~op:"atpg"
          ~params:[ ("design", J.String "@traffic") ]
      in
      check_string "same design succeeds without the dead budget" "cold"
        (jstr "cache" r);
      (* a syntax error in shipped source keeps its line and column *)
      check_bool "a syntax error answers parse at 2:17" true
        (match
           Serve.Client.rpc cl ~op:"atpg"
             ~params:
               [ ("source",
                  J.String
                    "module top(input a, output y);\n  assign y = a &;\nendmodule\n") ]
         with
         | exception Serve.Client.Server_error (stage, msg) ->
           stage = "parse"
           && msg = "2:17: expected expression (found ';')"
         | _ -> false);
      (* a malformed vector file answers parse at its line *)
      check_bool "a garbage vector line answers parse at line 1" true
        (match
           Serve.Client.rpc cl ~op:"grade"
             ~params:
               [ ("design", J.String "@arbiter");
                 ("vectors", J.String "garbage line here\n") ]
         with
         | exception Serve.Client.Server_error (stage, msg) ->
           stage = "parse" && msg = "1: unrecognized line: garbage line here"
         | _ -> false);
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

(* An unknown [mut] is refused before any work as an extract error,
   the stage the server puts on the wire, never as [internal:] or as a
   0-fault report. *)
let unknown_mut op () =
  let ctx = Serve.Ops.make_ctx () in
  let params =
    [ ("design", J.String "@gcd"); ("mut", J.String "nope");
      ("vectors", J.String "") ]
  in
  match
    Serve.Ops.handle ctx
      { Serve.Proto.rq_id = 1; rq_op = op; rq_params = J.Obj params }
  with
  | _ -> Alcotest.failf "%s with an unknown mut answered" op
  | exception e ->
    (match Factor.Errors.of_exn e with
     | Some t ->
       check_string "stage" "extract"
         (Factor.Errors.stage_name t.Factor.Errors.e_stage);
       check_string "message" "no instance \"nope\" in the design"
         t.Factor.Errors.e_msg
     | None -> Alcotest.failf "internal: %s" (Printexc.to_string e))

(* No frame to search proves nothing: an atpg [frames] below 1 is a
   malformed request, refused before the design is even loaded, never
   a run that reports every fault untestable. *)
let frames_below_one () =
  let ctx = Serve.Ops.make_ctx () in
  List.iter
    (fun frames ->
      match
        Serve.Ops.handle ctx
          { Serve.Proto.rq_id = 1; rq_op = "atpg";
            rq_params =
              J.Obj [ ("design", J.String "@gcd"); ("frames", J.Int frames) ] }
      with
      | _ -> Alcotest.failf "atpg with %d frames answered" frames
      | exception Serve.Proto.Proto_error msg ->
        check_string "message"
          (Printf.sprintf "bad frames %d (expected at least 1)" frames) msg)
    [ 0; -1 ];
  check_int "no design loaded" 0 (Serve.Cache.resident (Serve.Ops.cache ctx))

(* An [ec] conflict limit is an int of at least 1, refused otherwise
   before either design is loaded (never truncated, never read as a
   limit that decides nothing); a limit too large to add to the
   solver's conflict count is no limit. *)
let conflict_limit_checked () =
  let ctx = Serve.Ops.make_ctx () in
  let side expr =
    J.Obj
      [ ("source",
         J.String
           (Printf.sprintf
              "module top (input [5:0] a, b, output [11:0] y);\n\
              \  assign y = %s;\nendmodule\n" expr)) ]
  in
  (* each limit as it arrives off the wire *)
  let ec limit =
    Serve.Ops.handle ctx
      { Serve.Proto.rq_id = 1; rq_op = "ec";
        rq_params =
          J.Obj
            [ ("a", side "a * b"); ("b", side "b * a");
              ("conflict_limit", J.of_string limit) ] }
  in
  List.iter
    (fun (limit, msg) ->
      match ec limit with
      | _ -> Alcotest.failf "ec with conflict_limit %s answered" limit
      | exception Serve.Proto.Proto_error m -> check_string limit msg m)
    [ ("0.5", "bad conflict_limit: expected int");
      ("1e300", "bad conflict_limit: expected int");
      ("\"5\"", "bad conflict_limit: expected int");
      ("0", "bad conflict_limit 0 (expected at least 1)");
      ("-5", "bad conflict_limit -5 (expected at least 1)") ];
  check_int "no design loaded" 0 (Serve.Cache.resident (Serve.Ops.cache ctx));
  check_string "a limit past max_int - conflicts is no limit" "equal"
    (jstr "verdict" (ec "4611686018427387902"))

(* A cold request's time is attributed: decoding and encoding the
   frame, the cache lookup (the design fingerprint and the structural
   analysis inside it), fault collapsing and rendering are spans of
   their own, not unattributed self time of the request. *)
let traced_cold_grade () =
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled false)
    (fun () ->
      with_server (fun cl ->
          ignore
            (Serve.Client.rpc cl ~op:"grade"
               ~params:
                 [ ("design", J.String "@arbiter");
                   ("vectors", J.String "test\nvec 000000\nvec 111111\nend\n") ])));
  let names = List.map (fun e -> e.Obs.Span.ev_name) (Obs.Span.events ()) in
  Obs.Span.clear ();
  List.iter
    (fun n -> check_bool (n ^ " span recorded") true (List.mem n names))
    [ "proto.decode"; "serve.request"; "serve.cache_lookup";
      "compose.fingerprint"; "netlist.analysis"; "atpg.collapse";
      "serve.render"; "proto.encode" ]

(* A served parameter present with the wrong JSON type is refused as a
   proto error that names it, never read as absent (a [frames] of 0.0
   running 4 frames, a numeric [mut] grading the whole design). *)
let wrong_typed_params () =
  let ctx = Serve.Ops.make_ctx () in
  let gcd = [ ("design", J.String "@gcd") ] in
  let sub = ("mut", J.String "u_core.u_sub") in
  let vectors = ("vectors", J.String "test\nvec 000000\nend\n") in
  let arbiter = [ ("design", J.String "@arbiter"); vectors ] in
  let side = J.Obj gcd in
  let str = J.Int 7 and num = J.String "5" and bool = J.Int 1 in
  (* op, the parameter under test, its type, and the request's
     parameters: valid but for that one *)
  let rows =
    List.concat_map
      (fun (op, base) ->
        let rest = List.remove_assoc "design" base in
        [ (op, "budget_s", "number", ("budget_s", num) :: base);
          (op, "req", "string", ("req", str) :: base);
          (op, "design", "string", ("design", str) :: rest);
          (op, "source", "string", ("source", str) :: rest);
          (op, "top", "string", ("top", str) :: base) ])
      [ ("extract", sub :: gcd); ("atpg", gcd); ("grade", arbiter) ]
    @ [ ("extract", "mut", "string", ("mut", str) :: gcd);
        ("extract", "mode", "string", ("mode", str) :: sub :: gcd);
        ("extract", "emit_verilog", "bool",
         ("emit_verilog", bool) :: sub :: gcd);
        ("atpg", "mut", "string", ("mut", str) :: gcd);
        ("atpg", "budget", "number", ("budget", num) :: gcd);
        ("atpg", "fault_budget", "number", ("fault_budget", num) :: gcd);
        ("atpg", "frames", "int", ("frames", J.Float 0.0) :: gcd);
        ("atpg", "frames", "int", ("frames", J.String "0") :: gcd);
        ("atpg", "piers", "bool", ("piers", bool) :: gcd);
        ("atpg", "engine", "string", ("engine", J.Int 3) :: gcd);
        ("atpg", "seed", "int", ("seed", J.Float 1.5) :: gcd);
        ("grade", "mut", "string", ("mut", str) :: arbiter);
        ("grade", "vectors", "string",
         [ ("design", J.String "@arbiter"); ("vectors", str) ]);
        ("grade", "piers", "bool", ("piers", bool) :: arbiter);
        ("ec", "budget_s", "number",
         [ ("budget_s", num); ("a", side); ("b", side) ]);
        ("ec", "a", "object", [ ("a", J.String "@gcd"); ("b", side) ]);
        ("ec", "b", "object", [ ("a", side); ("b", J.String "@gcd") ]);
        ("ec", "conflict_limit", "int",
         [ ("a", side); ("b", side); ("conflict_limit", num) ]);
        ("ec", "design", "string",
         [ ("a", J.Obj [ ("design", str) ]); ("b", side) ]) ]
  in
  List.iter
    (fun (op, name, kind, params) ->
      let what = op ^ " " ^ J.to_string (J.Obj params) in
      match
        Serve.Ops.handle ctx
          { Serve.Proto.rq_id = 1; rq_op = op; rq_params = J.Obj params }
      with
      | _ -> Alcotest.failf "%s answered" what
      | exception Serve.Proto.Proto_error msg ->
        check_string what (Printf.sprintf "bad %s: expected %s" name kind) msg
      | exception e ->
        Alcotest.failf "%s: not a proto error: %s" what (Printexc.to_string e))
    rows

(* A test that does not fit the circuit (a vec narrower or wider than
   its inputs, a load of a flip-flop it lacks) is a parse error at its
   line, never an index error inside the fault simulator. *)
let grade_misfit () =
  let ctx = Serve.Ops.make_ctx () in
  List.iter
    (fun (vectors, line, msg) ->
      match
        Serve.Ops.handle ctx
          { Serve.Proto.rq_id = 1; rq_op = "grade";
            rq_params =
              J.Obj
                [ ("design", J.String "@arbiter");
                  ("vectors", J.String vectors) ] }
      with
      | _ -> Alcotest.failf "grade of %S answered" vectors
      | exception e ->
        (match Factor.Errors.of_exn e with
         | Some t ->
           check_string "stage" "parse"
             (Factor.Errors.stage_name t.Factor.Errors.e_stage);
           check_bool "line" true
             (Option.map (fun p -> p.Factor.Errors.p_line)
                t.Factor.Errors.e_pos
              = Some line);
           check_string "message" msg t.Factor.Errors.e_msg
         | None -> Alcotest.failf "internal: %s" (Printexc.to_string e)))
    [ ("test\nvec 0\nend\n", 2, "1-bit vec, the design has 6 inputs");
      ("test\nvec 000000\nvec 0000001\nend\n", 3,
       "7-bit vec, the design has 6 inputs");
      ("test\nload 999 1\nvec 000000\nend\n", 2,
       "load of flip-flop 999, the design has 10 flip-flops") ]

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

(* A request whose [stream] is not a bool is refused as a proto error
   naming it, on its own id, never run without its event frames; the
   connection keeps serving. *)
let e2e_wrong_typed_stream () =
  with_server (fun cl ->
      (match
         Serve.Client.rpc cl ~op:"ping" ~params:[ ("stream", J.Int 1) ]
       with
       | _ -> Alcotest.fail "a request with \"stream\": 1 was answered"
       | exception Serve.Client.Server_error (stage, msg) ->
         check_string "stage" "proto" stage;
         check_string "message" "bad stream: expected bool" msg);
      check_bool "the connection still serves" true
        (J.member "pong" (Serve.Client.rpc cl ~op:"ping" ~params:[])
         = Some (J.Bool true)))

(* A frame that is not JSON is a proto error on id 0 (client exit 1),
   not a parse error (exit 2 is a Verilog error), and the connection
   stays open. *)
let e2e_unparseable_frame () =
  with_daemon (fun sock ->
      (* the client's retry waits for the listener *)
      Serve.Client.close
        (Serve.Client.connect_retry (Serve.Server.Unix_path sock));
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
      let reader = Serve.Proto.create_reader () in
      let buf = Bytes.create 4096 in
      let rec next () =
        match Serve.Proto.next_frame reader with
        | Some payload -> J.of_string payload
        | None ->
          (match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> Alcotest.fail "the daemon closed the connection"
           | n -> Serve.Proto.feed reader buf n);
          next ()
      in
      send (Serve.Proto.frame "this is not json");
      let r = next () in
      let err = Option.value (J.member "error" r) ~default:J.Null in
      check_int "answered on id 0" 0 (jint "id" r);
      check_string "stage" "proto" (jstr "stage" err);
      send
        (Serve.Proto.encode_request
           { Serve.Proto.rq_id = 5; rq_op = "ping"; rq_params = J.Null });
      let r = next () in
      check_int "the next request is answered" 5 (jint "id" r);
      check_bool "ok" true (J.member "ok" r = Some (J.Bool true)))

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

(* An injected failure at any chaos seam still answers the request: the
   pool's task entry only stalls, and every seam that fails sits under a
   recovery path that turns the failure into an error frame. *)
let e2e_chaos_every_seam_answers () =
  Engine.Pool.set_jobs 2;
  with_server (fun cl ->
      let ping () =
        match Serve.Client.rpc ~timeout:3.0 cl ~op:"ping" ~params:[] with
        | r -> if J.member "pong" r = Some (J.Bool true) then `Pong else `Other
        | exception Serve.Client.Server_error _ -> `Error
        | exception Serve.Client.Timeout _ -> `Timeout
      in
      Engine.Chaos.set ~seed:1 ~rate:1.0 ~mode:Engine.Chaos.Fail_only
        ~prefix:"pool.task" ();
      Fun.protect ~finally:Engine.Chaos.clear (fun () ->
          check_bool "pool.task armed: ping answered" true (ping () = `Pong));
      Engine.Chaos.set ~seed:1 ~rate:1.0 ~mode:Engine.Chaos.Fail_only ();
      Fun.protect ~finally:Engine.Chaos.clear (fun () ->
          check_bool "every seam armed: ping answered with its error" true
            (ping () = `Error)))

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
   the client's request id and at least one with an ETA, and then a
   final response byte-identical to the non-streaming run.  Traced, the
   request id lands on both halves: the client's [client.rpc] span and
   the daemon's [serve.request] span. *)
let e2e_streaming () =
  Engine.Pool.set_jobs 2;
  Obs.Progress.set_interval 0.0;
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_interval 0.05;
      Obs.Span.set_enabled false;
      Obs.Span.clear ())
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
      check_bool "a progress frame carries an ETA" true
        (List.exists
           (fun j ->
             match Serve.Proto.event_of_json j with
             | Some (Serve.Proto.Ev_progress p) -> p.ep_eta_s >= 0.0
             | _ -> false)
           events);
      let spans = Obs.Span.events () in
      List.iter
        (fun name ->
          check_bool (name ^ " span carries the request id") true
            (List.exists
               (fun (ev : Obs.Span.event) ->
                 ev.ev_name = name
                 && List.assoc_opt "req" ev.ev_attrs
                    = Some (J.String "watch-1"))
               spans))
        [ "client.rpc"; "serve.request" ];
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
         | exception Serve.Client.Server_error ("solve", _) -> true
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
      ( "store",
        [
          test "roundtrip, corruption, unsafe keys" store_roundtrip;
          store_gauges_match_rescan;
          store_digest_fuzz;
        ] );
      ( "fingerprint",
        [ test "alias vs chain invariance" fingerprint_invariance ] );
      ( "cache",
        [
          test "cold, warm-mem, warm-disk, bit-identical" cache_outcomes;
          test "budget guards cold builds only" cache_budget_expiry;
          test "max-resident LRU evicts to warm-disk" cache_lru_eviction;
          test "writes per request class" store_writes_per_class;
          test "a damaged store costs a rebuild, not a crash"
            cache_damaged_store;
          test "swapped alias edges answer each design with its own"
            cache_swapped_alias_edges;
        ] );
      ( "ops",
        List.map
          (fun op ->
            test (op ^ ": an unknown mut is an extract error") (unknown_mut op))
          [ "extract"; "atpg"; "grade" ]
        @ [ test "typed cores render as handle's fields, 1 and 4 jobs"
              typed_cores_match_handle;
            test "atpg: frames below 1 is refused before any work"
              frames_below_one;
            test "grade: a test that does not fit is a parse error"
              grade_misfit;
            test "a traced cold grade shows fingerprint and analysis spans"
              traced_cold_grade;
            test "a wrong-typed parameter is a proto error naming it"
              wrong_typed_params;
            test "ec: conflict_limit is an int of at least 1"
              conflict_limit_checked ] );
      ( "daemon",
        [
          test "end-to-end roundtrip, byte-identical to direct runs"
            e2e_roundtrip;
          test "errors and budgets degrade one request" e2e_errors_and_budget;
          test "store-backed warm restart" e2e_warm_restart;
          test "an unknown extract mode is refused" e2e_extract_modes;
          test "shutdown request" e2e_shutdown_request;
          test "a wrong-typed stream is a proto error naming it"
            e2e_wrong_typed_stream;
          test "a frame that is not JSON is a proto error"
            e2e_unparseable_frame;
          test "chaos kills one op, siblings untouched" e2e_chaos_isolation;
          test "a failure at any chaos seam is answered"
            e2e_chaos_every_seam_answers;
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
