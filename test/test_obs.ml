(** Tests for the observability layer: span nesting and self-time
    accounting, histogram percentiles, domain-safe metric updates through
    the real pool, Chrome-trace and JSONL well-formedness (validated with
    an independent mini JSON parser), and the zero-allocation guarantee
    for disabled tracing. *)

open Testutil

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — deliberately independent of Obs.Json's       *)
(* printer so the artifact tests are not self-certifying.               *)
(* ------------------------------------------------------------------ *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c, got %c" c (peek ()))
  in
  let literal lit v = String.iter expect lit; v in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\255' -> fail "unterminated string"
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           (* keep the code point symbolic; exact decoding is not under test *)
           Buffer.add_string b ("\\u" ^ String.sub s !pos 4);
           pos := !pos + 4
         | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while num_char (peek ()) do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> JNum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); JObj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); JObj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); JList [])
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elems (v :: acc)
          | ']' -> advance (); JList (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elems []
    | '"' -> JStr (parse_string ())
    | 't' -> literal "true" (JBool true)
    | 'f' -> literal "false" (JBool false)
    | 'n' -> literal "null" JNull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Busy-wait so spans have a measurable, purely-CPU duration. *)
let spin seconds =
  let t0 = Engine.Clock.now () in
  let acc = ref 0 in
  while Engine.Clock.now () -. t0 < seconds do
    acc := !acc + 1
  done;
  ignore (Sys.opaque_identity !acc)

let find_event name =
  match
    List.find_opt (fun e -> e.Obs.Span.ev_name = name) (Obs.Span.events ())
  with
  | Some e -> e
  | None -> Alcotest.failf "span %S was not recorded" name

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)
(* ------------------------------------------------------------------ *)

let span_nesting_self_time () =
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.with_ "inner" (fun () -> spin 0.004);
      spin 0.002);
  Obs.Span.set_enabled false;
  let outer = find_event "outer" and inner = find_event "inner" in
  check_bool "inner starts within outer" true
    (inner.Obs.Span.ev_ts >= outer.Obs.Span.ev_ts);
  check_bool "inner ends within outer" true
    (inner.Obs.Span.ev_ts +. inner.Obs.Span.ev_dur
     <= outer.Obs.Span.ev_ts +. outer.Obs.Span.ev_dur +. 1e-6);
  check_bool "leaf self time equals its duration" true
    (abs_float (inner.Obs.Span.ev_self -. inner.Obs.Span.ev_dur) < 1e-9);
  check_bool "outer self time excludes the child" true
    (abs_float
       (outer.Obs.Span.ev_self
        -. (outer.Obs.Span.ev_dur -. inner.Obs.Span.ev_dur))
     < 1e-9);
  (* the profile's self column must sum to the traced wall time *)
  let rows = Obs.Span.profile () in
  let self_sum = List.fold_left (fun a (_, _, _, s) -> a +. s) 0.0 rows in
  check_bool "profile self times sum to root duration" true
    (abs_float (self_sum -. outer.Obs.Span.ev_dur) < 1e-9);
  Obs.Span.clear ()

let span_exception_recorded () =
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  (match Obs.Span.with_ "boom" (fun () -> failwith "expected") with
   | () -> Alcotest.fail "with_ must re-raise"
   | exception Failure _ -> ());
  Obs.Span.set_enabled false;
  let ev = find_event "boom" in
  check_bool "raising span carries an error attribute" true
    (List.mem_assoc "error" ev.Obs.Span.ev_attrs);
  Obs.Span.clear ()

let disabled_tracing_no_alloc () =
  Obs.Span.set_enabled false;
  Obs.Progress.set_global_sink None;
  let acc = ref 0 in
  let f () = incr acc in
  (* the guarded pattern hot sites use for spans that carry attributes:
     nothing — not even the attr list — may be built when disabled *)
  let guarded i =
    if Obs.Span.enabled () then
      Obs.Span.with_ "noop" ~attrs:[ ("i", Obs.Json.Int i) ] f
    else f ()
  in
  (* the per-fault generation loop pairs each span with a progress
     reporter; disabled, the whole triple must stay allocation-free *)
  let body i =
    Obs.Span.with_ "noop" f;
    guarded i;
    let r = Obs.Progress.start ~total:1 "noop" in
    Obs.Progress.step r;
    Obs.Progress.finish r
  in
  (* warm-up, then measure: a disabled span must be a direct call *)
  for i = 1 to 1_000 do
    body i
  done;
  let before = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    body i
  done;
  let after = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity !acc);
  (* allow the boxed floats of the measurement itself, nothing more *)
  check_bool
    (Printf.sprintf "20k disabled spans allocated %.0f bytes" (after -. before))
    true
    (after -. before < 1024.0)

(* Epoch timestamps and microsecond trace values must survive the JSON
   printer bit-for-bit — a lossy float format collapses every event of a
   run onto one timestamp. *)
let float_round_trip () =
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Float f) in
      match float_of_string_opt s with
      | Some f' ->
        check_bool (Printf.sprintf "%h survives printing as %s" f s) true
          (f' = f)
      | None -> Alcotest.failf "%h printed as unparsable %s" f s)
    [ Unix.gettimeofday ();
      1.7712345678901234e9;          (* epoch seconds *)
      1.7712345678901234e15;         (* epoch microseconds *)
      0.0012345678901234567;
      Float.pi;
      1e15 +. 0.5 ]

(* ------------------------------------------------------------------ *)
(* Progress reporters.                                                 *)
(* ------------------------------------------------------------------ *)

let with_captured_progress f =
  let updates = ref [] in
  Obs.Progress.set_interval 0.0;
  Obs.Progress.with_sink
    (fun u -> updates := u :: !updates)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Progress.set_interval 0.05)
        f);
  List.rev !updates

let progress_updates_monotonic () =
  let ups =
    with_captured_progress (fun () ->
        let r = Obs.Progress.start ~total:5 "test.phase" in
        for _ = 1 to 5 do
          Obs.Progress.step r
        done;
        Obs.Progress.finish r)
  in
  check_bool "every step plus the finish emitted" true
    (List.length ups = 6);
  let open Obs.Progress in
  List.iter
    (fun u ->
      check_string "phase travels" "test.phase" u.up_phase;
      check_int "total stable" 5 u.up_total)
    ups;
  let dones = List.map (fun u -> u.up_done) ups in
  check_bool "done is non-decreasing" true
    (List.sort compare dones = dones);
  (match List.rev ups with
   | last :: _ ->
     check_bool "closing update is final at the full count" true
       (last.up_final && last.up_done = 5);
     check_bool "a finished phase has no remaining ETA" true
       (last.up_eta_s = 0.0 || last.up_rate = 0.0)
   | [] -> Alcotest.fail "no updates");
  (* distinct reporters get distinct ids even on the same phase *)
  let ups2 =
    with_captured_progress (fun () ->
        let a = Obs.Progress.start ~total:1 "test.phase" in
        let b = Obs.Progress.start ~total:1 "test.phase" in
        Obs.Progress.step a;
        Obs.Progress.step b;
        Obs.Progress.finish a;
        Obs.Progress.finish b)
  in
  let ids =
    List.sort_uniq compare (List.map (fun u -> u.up_reporter) ups2)
  in
  check_int "two reporters, two ids" 2 (List.length ids)

let progress_unknown_total () =
  let ups =
    with_captured_progress (fun () ->
        let r = Obs.Progress.start "test.unknown" in
        for _ = 1 to 3 do Obs.Progress.step r done;
        Obs.Progress.finish r)
  in
  let open Obs.Progress in
  List.iter
    (fun u ->
      check_int "total stays 0 when unknown" 0 u.up_total;
      check_bool "no ETA without a total" true (u.up_eta_s < 0.0))
    ups

let progress_sink_scoping () =
  (* no sink: start returns the no-op reporter, nothing observes it *)
  check_bool "disabled outside any sink" false (Obs.Progress.enabled ());
  let leaked = ref 0 in
  Obs.Progress.set_global_sink (Some (fun _ -> incr leaked));
  Fun.protect
    ~finally:(fun () -> Obs.Progress.set_global_sink None)
    (fun () ->
      check_bool "global sink enables reporting" true
        (Obs.Progress.enabled ());
      (* a domain-local sink shadows the global one *)
      let local = ref 0 in
      Obs.Progress.set_interval 0.0;
      Obs.Progress.with_sink
        (fun _ -> incr local)
        (fun () ->
          let r = Obs.Progress.start ~total:2 "test.scope" in
          Obs.Progress.step r;
          Obs.Progress.finish r);
      Obs.Progress.set_interval 0.05;
      check_bool "local sink saw the updates" true (!local >= 2);
      check_int "global sink saw none while shadowed" 0 !leaked);
  check_bool "disabled again after teardown" false (Obs.Progress.enabled ())

let progress_rate_limit () =
  let n = ref 0 in
  Obs.Progress.with_sink
    (fun _ -> incr n)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Progress.set_interval 0.05)
        (fun () ->
          let r = Obs.Progress.start ~total:10_000 "test.burst" in
          (* make the reporter visible: one step with the limiter open *)
          Obs.Progress.set_interval 0.0;
          Obs.Progress.step r;
          check_int "first step emitted" 1 !n;
          (* then slam the limiter shut: a 10k-step burst emits nothing *)
          Obs.Progress.set_interval 10.0;
          for _ = 1 to 10_000 do
            Obs.Progress.step r
          done;
          check_int "burst fully suppressed" 1 !n;
          (* a phase that was ever visible always closes out *)
          Obs.Progress.finish r;
          check_int "final update bypasses the limiter" 2 !n));
  (* a reporter that never emitted may close silently — short-lived
     per-fault phases must not flood the sink just by finishing *)
  let m = ref 0 in
  Obs.Progress.with_sink
    (fun _ -> incr m)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Progress.set_interval 0.05)
        (fun () ->
          Obs.Progress.set_interval 10.0;
          let r = Obs.Progress.start ~total:1 "test.invisible" in
          Obs.Progress.step r;
          Obs.Progress.finish r));
  check_int "an invisible phase closes silently" 0 !m

(* ------------------------------------------------------------------ *)
(* Request-id context.                                                 *)
(* ------------------------------------------------------------------ *)

let context_request_id () =
  check_bool "no ambient id by default" true
    (Obs.Context.request_id () = None);
  let seen =
    Obs.Context.with_request_id "rq-outer" (fun () ->
        let inner =
          Obs.Context.with_request_id "rq-inner" Obs.Context.request_id
        in
        (inner, Obs.Context.request_id ()))
  in
  check_bool "nesting shadows and restores" true
    (seen = (Some "rq-inner", Some "rq-outer"));
  check_bool "restored to none outside" true
    (Obs.Context.request_id () = None);
  (* raising inside restores too *)
  (match
     Obs.Context.with_request_id "rq-boom" (fun () -> failwith "expected")
   with
   | () -> Alcotest.fail "must re-raise"
   | exception Failure _ -> ());
  check_bool "restored after an exception" true
    (Obs.Context.request_id () = None)

let context_stamps_spans_and_logs () =
  (* spans record a req attribute while a request id is ambient *)
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  Obs.Context.with_request_id "rq-7" (fun () ->
      Obs.Span.with_ "req.span" (fun () -> ()));
  Obs.Span.with_ "bare.span" (fun () -> ());
  Obs.Span.set_enabled false;
  let ev = find_event "req.span" in
  check_bool "span carries the ambient request id" true
    (List.assoc_opt "req" ev.Obs.Span.ev_attrs
     = Some (Obs.Json.String "rq-7"));
  check_bool "spans outside a request carry none" true
    (not (List.mem_assoc "req" (find_event "bare.span").Obs.Span.ev_attrs));
  Obs.Span.clear ();
  (* log forwarders fire regardless of the level gate and see the
     ambient id, so the daemon can relay one request's events *)
  let got = ref [] in
  let fwd =
    Obs.Log.add_forwarder (fun _level msg _attrs ->
        got := (msg, Obs.Context.request_id ()) :: !got)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Log.remove_forwarder fwd)
    (fun () ->
      check_bool "level gate still closed" true
        (not (Obs.Log.enabled Obs.Log.Info));
      Obs.Context.with_request_id "rq-8" (fun () ->
          Obs.Log.event Obs.Log.Info "fwd.event" []));
  check_bool "forwarder saw the event with its request id" true
    (!got = [ ("fwd.event", Some "rq-8") ]);
  (* removed: later events no longer reach it *)
  Obs.Log.event Obs.Log.Info "fwd.after" [];
  check_int "no delivery after removal" 1 (List.length !got)

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)
(* ------------------------------------------------------------------ *)

let metrics_registry () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  let base = Obs.Metrics.value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  check_int "counter accumulates" (base + 42) (Obs.Metrics.value c);
  check_int "interning returns the same counter" (base + 42)
    (Obs.Metrics.value (Obs.Metrics.counter "test.obs.counter"));
  (match Obs.Metrics.gauge "test.obs.counter" with
   | _ -> Alcotest.fail "kind mismatch must raise"
   | exception Invalid_argument _ -> ());
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set g 2.5;
  (match Obs.Metrics.find "test.obs.gauge" with
   | Some (Obs.Json.Float f) ->
     check_bool "gauge snapshot" true (abs_float (f -. 2.5) < 1e-12)
   | _ -> Alcotest.fail "gauge missing from registry");
  match parse_json (Obs.Metrics.dump_string ()) with
  | JObj fields ->
    (match List.assoc_opt "test.obs.counter" fields with
     | Some (JNum v) ->
       check_bool "dump renders the counter" true
         (v = float_of_int (base + 42))
     | _ -> Alcotest.fail "counter missing from dump");
    let keys = List.map fst fields in
    check_bool "dump keys are sorted" true (List.sort compare keys = keys)
  | _ -> Alcotest.fail "dump must be a JSON object"

let histogram_percentiles () =
  (* the default bounds run 1 µs × 2^k, k = 0..29; observing each bound
     once puts one value in every bucket, so percentiles are exact *)
  let bound k = 1e-6 *. Float.pow 2.0 (float_of_int k) in
  let h = Obs.Metrics.histogram "test.obs.hist" in
  check_bool "empty histogram percentile is 0" true
    (Obs.Metrics.percentile h 50.0 = 0.0);
  for k = 0 to 29 do
    Obs.Metrics.observe h (bound k)
  done;
  check_int "count" 30 (Obs.Metrics.count h);
  let want_sum = List.fold_left ( +. ) 0.0 (List.init 30 bound) in
  check_bool "sum" true (abs_float (Obs.Metrics.sum h -. want_sum) < 1e-9);
  List.iter
    (fun (p, k) ->
      check_bool
        (Printf.sprintf "p%.0f" p)
        true
        (Obs.Metrics.percentile h p = bound k))
    [ (1.0, 0); (10.0, 2); (50.0, 14); (90.0, 26); (100.0, 29) ];
  let o = Obs.Metrics.histogram "test.obs.hist_overflow" in
  Obs.Metrics.observe o 0.5;
  Obs.Metrics.observe o 1e4;
  check_bool "overflow percentile reports the observed max" true
    (Obs.Metrics.percentile o 100.0 = 1e4)

let concurrent_updates () =
  let c = Obs.Metrics.counter "test.obs.parallel" in
  let base = Obs.Metrics.value c in
  let h = Obs.Metrics.histogram "test.obs.parallel_hist" in
  let hbase = Obs.Metrics.count h in
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  let pool = Engine.Pool.create 4 in
  ignore
    (Engine.Pool.run_all pool
       (List.init 4 (fun d () ->
            Obs.Span.with_ "par.task" (fun () ->
                for i = 1 to 100_000 do
                  Obs.Metrics.incr c;
                  if i land 1023 = 0 then
                    Obs.Metrics.observe h (float_of_int (d + 1))
                done))));
  Engine.Pool.shutdown pool;
  Obs.Span.set_enabled false;
  check_int "4 x 100k concurrent increments all land" 400_000
    (Obs.Metrics.value c - base);
  check_int "concurrent observations all land"
    (4 * (100_000 / 1024))
    (Obs.Metrics.count h - hbase);
  let tasks =
    List.filter
      (fun e -> e.Obs.Span.ev_name = "par.task")
      (Obs.Span.events ())
  in
  check_int "every worker recorded its span" 4 (List.length tasks);
  Obs.Span.clear ()

(* ------------------------------------------------------------------ *)
(* Artifacts.                                                          *)
(* ------------------------------------------------------------------ *)

let chrome_trace_wellformed () =
  Obs.Span.clear ();
  Obs.Span.set_enabled true;
  Obs.Span.with_ "root"
    ~attrs:[ ("path", Obs.Json.String "a\"b\\c\nd") ]
    (fun () ->
      Obs.Span.with_ "child" (fun () -> spin 0.001);
      Obs.Span.with_ "child" (fun () -> spin 0.001));
  Obs.Span.set_enabled false;
  let file = Filename.temp_file "factor_trace" ".json" in
  Obs.Span.write_chrome_trace file;
  let src = read_file file in
  Sys.remove file;
  let field ev k =
    match ev with
    | JObj fields ->
      (match List.assoc_opt k fields with
       | Some v -> v
       | None -> Alcotest.failf "trace event missing field %S" k)
    | _ -> Alcotest.fail "trace event must be an object"
  in
  let num ev k =
    match field ev k with
    | JNum f -> f
    | _ -> Alcotest.failf "trace field %S must be a number" k
  in
  match parse_json src with
  | JList evs ->
    check_int "three events" 3 (List.length evs);
    List.iter
      (fun ev ->
        (match field ev "ph" with
         | JStr "X" -> ()
         | _ -> Alcotest.fail "ph must be \"X\"");
        (match field ev "name" with
         | JStr _ -> ()
         | _ -> Alcotest.fail "name must be a string");
        check_bool "ts and dur are non-negative" true
          (num ev "ts" >= 0.0 && num ev "dur" >= 0.0);
        ignore (num ev "pid");
        ignore (num ev "tid"))
      evs;
    let tss = List.map (fun ev -> num ev "ts") evs in
    check_bool "events sorted by start time" true
      (List.sort compare tss = tss);
    (* timestamps are rebased to the run origin and must not collapse:
       the second child starts ~1ms after the first (root and first
       child may legitimately share a microsecond) *)
    check_bool "first event starts at the origin" true
      (List.hd tss = 0.0);
    check_bool "sequential spans keep distinct timestamps" true
      (List.fold_left Float.max 0.0 tss >= 500.0);
    let named n =
      List.filter (fun ev -> field ev "name" = JStr n) evs
    in
    let root =
      match named "root" with [ r ] -> r | _ -> Alcotest.fail "one root"
    in
    List.iter
      (fun child ->
        check_bool "child nests inside root in the trace" true
          (num child "ts" >= num root "ts" -. 1.0
           && num child "ts" +. num child "dur"
              <= num root "ts" +. num root "dur" +. 5.0))
      (named "child")
  | _ -> Alcotest.fail "trace must be a JSON array"

let log_jsonl_wellformed () =
  let file = Filename.temp_file "factor_log" ".jsonl" in
  Obs.Log.set_level (Some Obs.Log.Debug);
  check_bool "debug gate open" true (Obs.Log.enabled Obs.Log.Debug);
  Obs.Log.set_file (Some file);
  Obs.Log.event Obs.Log.Info "test.event"
    [ ("k", Obs.Json.Int 7); ("s", Obs.Json.String "x\"y\\z") ];
  Obs.Log.event Obs.Log.Debug "test.debug" [];
  Obs.Log.close ();
  Obs.Log.set_file None;
  Obs.Log.set_level None;
  check_bool "gate closed after reset" true
    (not (Obs.Log.enabled Obs.Log.Error));
  let lines =
    String.split_on_char '\n' (read_file file)
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove file;
  check_int "two JSONL records" 2 (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | JObj fields ->
        check_bool "record has ts/level/msg" true
          (List.mem_assoc "ts" fields
           && List.mem_assoc "level" fields
           && List.mem_assoc "msg" fields)
      | _ -> Alcotest.fail "each log line must be a JSON object")
    lines;
  match parse_json (List.hd lines) with
  | JObj fields ->
    (match List.assoc_opt "k" fields with
     | Some (JNum 7.0) -> ()
     | _ -> Alcotest.fail "caller attribute lost");
    (match List.assoc_opt "msg" fields with
     | Some (JStr "test.event") -> ()
     | _ -> Alcotest.fail "msg mangled")
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pipeline integration: engine counters feed the shared registry.     *)
(* ------------------------------------------------------------------ *)

let fsim_metrics_smoke () =
  let c =
    circuit
      {|module top (input a, b, c, output y, z);
          assign y = (a & b) | c;
          assign z = a ^ b ^ c;
        endmodule|}
  in
  let faults = Atpg.Fault.all c in
  let rng = Random.State.make [| 7; fuzz_seed |] in
  let tests =
    List.init 4 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:1
          ~piers:[])
  in
  let grade tests =
    let packed = Atpg.Fsim.packed_evals () in
    let words = Atpg.Fsim.packed_words () in
    ignore (Atpg.Fsim.run c ~observe:Atpg.Fsim.default_observe ~faults tests);
    ( Atpg.Fsim.packed_evals () - packed,
      Atpg.Fsim.packed_words () - words )
  in
  (* every test list, one test included, runs on the packed engine *)
  List.iter
    (fun (what, tests) ->
      let (packed, words) = grade tests in
      check_bool (what ^ " run advances factor.fsim.packed_evals") true
        (packed > 0);
      check_bool (what ^ " run advances factor.fsim.packed_words") true
        (words > 0))
    [ ("a multi-test", tests); ("a one-test", [ List.hd tests ]) ];
  (* one eval counter per engine, and no other *)
  let engine_counters =
    match Obs.Metrics.dump () with
    | Obs.Json.Obj kvs ->
      List.filter
        (fun name ->
          String.starts_with ~prefix:"factor.fsim." name
          && String.ends_with ~suffix:"evals" name)
        (List.map fst kvs)
    | _ -> []
  in
  Alcotest.(check (list string)) "the registry's fsim eval counters"
    [ "factor.fsim.packed_evals"; "factor.fsim.ref_evals" ] engine_counters;
  match Obs.Metrics.find "factor.fsim.packed_evals" with
  | Some (Obs.Json.Int v) ->
    check_int "registry mirrors the engine's counter"
      (Atpg.Fsim.packed_evals ()) v
  | _ -> Alcotest.fail "factor.fsim.packed_evals missing from the registry"

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          test "nesting and self time" span_nesting_self_time;
          test "exception path records the span" span_exception_recorded;
          test "disabled tracing allocates nothing" disabled_tracing_no_alloc;
          test "floats print round-trippably" float_round_trip;
        ] );
      ( "progress",
        [
          test "updates monotonic, reporters distinct"
            progress_updates_monotonic;
          test "unknown total means no ETA" progress_unknown_total;
          test "sink scoping: local shadows global" progress_sink_scoping;
          test "rate limit bounds bursts, keeps the final"
            progress_rate_limit;
        ] );
      ( "context",
        [
          test "request id nests and restores" context_request_id;
          test "spans and log forwarders carry the id"
            context_stamps_spans_and_logs;
        ] );
      ( "metrics",
        [
          test "registry semantics" metrics_registry;
          test "histogram percentiles" histogram_percentiles;
          test "concurrent updates from four domains" concurrent_updates;
        ] );
      ( "artifacts",
        [
          test "chrome trace well-formedness" chrome_trace_wellformed;
          test "JSONL log well-formedness" log_jsonl_wellformed;
        ] );
      ( "pipeline", [ test "fsim feeds the registry" fsim_metrics_smoke ] );
    ]
