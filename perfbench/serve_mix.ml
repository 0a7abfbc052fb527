(* serve_mix: a daemon started in-process on a Unix socket, with a fresh
   on-disk store and a small resident bound, driven by one client
   connection in a closed loop (the next request goes out when the
   previous reply is in).  The pool has one slot, so the busy threads
   are the client and the daemon loop.

   The designs are the Circuits.Collection corpus plus a fixed pool of
   Gen_rtl.Gen hierarchies, each with one op (extract or grade), one MUT
   and, for grade, its own vectors; the seed orders them.  The request
   sequence has cache classes known in advance from an LRU model of the
   daemon's resident cache:

   - cold: first sight (parse, elaborate, extract or synth, store write);
   - warm-mem: a repeat of a resident design;
   - warm-disk: a repeat of an evicted design (store read, unmarshal).

   Every design gets one request of each class, 127 per class and pass,
   and the store grows during the pass, so writes run beside reads. *)

open Harness
module J = Obs.Json

let generated = 120     (* Gen_rtl designs, on top of the corpus *)
let max_resident = 4
let grade_tests = 32
let grade_frames = 4

type design = {
  d_params : (string * J.t) list;  (* design, mut and (grade) vectors *)
  d_source : string;
  d_top : string;
  d_mut : string;
  d_op : string;                   (* "extract" or "grade" *)
  d_tests : Atpg.Pattern.test list;  (* grade only *)
  d_circuit : Netlist.t option;      (* grade only *)
}

let classes = [ "cold"; "warm-mem"; "warm-disk" ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Designs of one seed, in request order: the corpus and a fixed pool
   of generated hierarchies, ops alternating, each design's MUT its
   deepest instance and its grade vectors drawn from its own index, so
   every seed does the same work in a different order. *)
let designs ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let corpus =
    List.map
      (fun (e : Circuits.Collection.entry) ->
        ( [ ("design", J.String ("@" ^ e.e_name)) ],
          e.e_source, e.e_top,
          List.map (fun (m : Factor.Flow.mut_spec) -> m.ms_path) e.e_muts ))
      Circuits.Collection.all
  in
  let gen =
    List.init generated (fun i ->
        let d = Gen_rtl.Gen.generate ~seed:(i + 1) () in
        ( [ ("source", J.String d.Gen_rtl.Gen.d_source);
            ("top", J.String d.Gen_rtl.Gen.d_top) ],
          d.Gen_rtl.Gen.d_source, d.Gen_rtl.Gen.d_top, d.Gen_rtl.Gen.d_muts ))
  in
  let make i (params, source, top, muts) =
    let mut = List.nth muts (List.length muts - 1) in
    let rng = Random.State.make [| i |] in
    if i mod 2 = 0 then
      { d_params = params @ [ ("mut", J.String mut) ];
        d_source = source; d_top = top; d_mut = mut; d_op = "extract";
        d_tests = []; d_circuit = None }
    else begin
      let c =
        Gen_rtl.Gen.circuit_of (Verilog.Parser.parse_design source) ~top
      in
      let tests =
        List.init grade_tests (fun _ ->
            Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c)
              ~frames:grade_frames ~piers:[])
      in
      let vectors = Atpg.Pattern.write_string ~pi_names:c.Netlist.pi_names tests in
      { d_params =
          params @ [ ("mut", J.String mut); ("vectors", J.String vectors) ];
        d_source = source; d_top = top; d_mut = mut; d_op = "grade";
        d_tests = Atpg.Pattern.read_string vectors; d_circuit = Some c }
    end
  in
  let all = Array.of_list (List.mapi make (corpus @ gen)) in
  shuffle rng all;
  all

(* Distance, in designs, from a design's first sight to its warm-disk
   repeat; above [max_resident] so the design has been evicted. *)
let disk_lag = max_resident + 1

(* The request sequence, as (design index, expected cache class): each
   design is requested cold, repeated at once (warm-mem), and repeated
   again [disk_lag] designs later (warm-disk), the last ones after the
   others.  The classes come from an exact model of the daemon's LRU, so
   a reply in another class fails the run. *)
let schedule n =
  let resident = ref [] and seen = Hashtbl.create n and reqs = ref [] in
  let request d =
    let cls =
      if List.mem d !resident then "warm-mem"
      else if Hashtbl.mem seen d then "warm-disk"
      else "cold"
    in
    Hashtbl.replace seen d ();
    resident :=
      List.filteri (fun i _ -> i < max_resident)
        (d :: List.filter (( <> ) d) !resident);
    reqs := (d, cls) :: !reqs
  in
  for i = 0 to n + disk_lag - 1 do
    if i < n then begin
      request i;
      request i
    end;
    if i >= disk_lag then request (i - disk_lag)
  done;
  Array.of_list (List.rev !reqs)

(* The reply with its cache bookkeeping removed: what must be
   identical between a cold reply and every warm one. *)
let payload = function
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter
            (fun (k, _) -> k <> "cache" && k <> "transform_cached")
            fields))
  | j -> J.to_string j

let str name j =
  Option.value ~default:"" (Option.bind (J.member name j) J.to_string_opt)

(* The one-shot pipeline's rendering of a design's reply, through
   [Serve.Render] like the CLI. *)
let one_shot d =
  match d.d_op with
  | "extract" ->
    let env =
      Factor.Compose.make_env (Verilog.Parser.parse_design d.d_source)
        ~top:d.d_top
    in
    let stats =
      Factor.Compose.compositional (Factor.Compose.create_session ()) env
        ~mut_path:d.d_mut
    in
    let tf =
      Factor.Transform.build env stats.Factor.Compose.cs_slice ~mut_path:d.d_mut
    in
    [ ("extraction", Serve.Render.extract_stats stats);
      ("transformed", Serve.Render.transform_line tf) ]
  | _ ->
    let c = Option.get d.d_circuit in
    let faults = Atpg.Fault.collapse c (Atpg.Fault.all ~within:d.d_mut c) in
    let flags =
      Atpg.Fsim.run c ~observe:{ Atpg.Fsim.ob_pos = true; ob_pier_ffs = [] }
        ~faults d.d_tests
    in
    let detected = Array.fold_left (fun n f -> if f then n + 1 else n) 0 flags in
    [ ("line",
       Serve.Render.grade_line ~tests:d.d_tests ~detected
         ~faults:(List.length faults)) ]

let counter_names =
  [ "serve.cache_cold"; "serve.cache_warm_mem"; "serve.cache_warm_disk";
    "serve.cache_evicted"; "factor.extract.visited_signals";
    "factor.compose.cache_hits"; "fsim.packed_evals"; "fsim.packed_words" ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Spans of [name] not nested inside a span of [outside] on the same
   domain, summed. *)
let span_total_outside events name ~outside =
  let outer =
    List.filter (fun (e : Obs.Span.event) -> e.ev_name = outside) events
  in
  List.fold_left
    (fun acc (e : Obs.Span.event) ->
      if e.ev_name = name
         && not
              (List.exists
                 (fun (o : Obs.Span.event) ->
                   o.ev_tid = e.ev_tid && o.ev_ts <= e.ev_ts
                   && e.ev_ts +. e.ev_dur <= o.ev_ts +. o.ev_dur)
                 outer)
      then acc +. e.ev_dur
      else acc)
    0.0 events

(* [first] holds each design's first reply, by design index: the cold
   reply every later one must repeat. *)
let iteration ~seed ~first ~pass ~traced =
  (* set-up: inputs, a fresh store and a booted daemon *)
  let t_setup = now () in
  let ds = designs ~seed in
  let reqs = schedule (Array.length ds) in
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !pass in
  incr pass;
  mkdir_p out_dir;
  let store = Filename.concat out_dir ("store-" ^ tag) in
  let sock = Filename.concat out_dir ("s-" ^ tag ^ ".sock") in
  let server =
    Serve.Server.start
      { Serve.Server.sc_addr = Serve.Server.Unix_path sock;
        sc_store = Some store;
        sc_max_resident = Some max_resident;
        sc_default_budget = None;
        sc_heartbeat_s = 0.0 }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server; remove_tree store)
  @@ fun () ->
  let cl = Serve.Client.connect_retry (Serve.Server.Unix_path sock) in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
  let setup_s = now () -. t_setup in
  (* the profile covers the request sequence only *)
  if traced then Obs.Span.clear ();
  let pool0 = Engine.Pool.global_stats () in
  let lat = Hashtbl.create 8 in
  let add k v = Hashtbl.replace lat k (v :: Option.value ~default:[] (Hashtbl.find_opt lat k)) in
  let detected = ref 0 in
  let t0 = now () in
  let ((), counters) =
    with_counters counter_names @@ fun () ->
    Array.iteri
      (fun i (di, expect) ->
        let d = ds.(di) in
        match
          timed (fun () ->
              Serve.Client.rpc cl ~req:(Printf.sprintf "q%d" i) ~op:d.d_op
                ~params:d.d_params)
        with
        | exception Serve.Client.Server_error (stage, msg) ->
          fail "serve_mix: request %d (%s) refused at %s: %s" i d.d_op stage msg
        | (reply, s) ->
          let cls = str "cache" reply in
          if cls <> expect then
            fail "serve_mix: request %d (%s) answered %s, expected %s" i d.d_op
              cls expect;
          add (d.d_op ^ "." ^ cls) s;
          add cls s;
          (match J.member "detected" reply with
           | Some (J.Int n) -> detected := !detected + n
           | _ -> ());
          (match Hashtbl.find_opt first di with
           | None -> Hashtbl.replace first di reply
           | Some cold ->
             if payload cold <> payload reply then
               fail "serve_mix: request %d (%s, %s) differs from the first \
                     reply for its design"
                 i d.d_op cls))
      reqs
  in
  let wall = now () -. t0 in
  let samples k = Option.value ~default:[] (Hashtbl.find_opt lat k) in
  let ms p k = 1e3 *. percentile p (samples k) in
  let sum k = List.fold_left ( +. ) 0.0 (samples k) in
  let gauge n = Obs.Metrics.get (Obs.Metrics.gauge ("factor.serve." ^ n)) in
  let (queue_wait, tasks) =
    match (pool0, Engine.Pool.global_stats ()) with
    | Some a, Some b ->
      (b.Engine.Pool.ps_queue_wait -. a.Engine.Pool.ps_queue_wait,
       float_of_int (b.Engine.Pool.ps_tasks - a.Engine.Pool.ps_tasks))
    | _ -> (0.0, 0.0)
  in
  let spans =
    if traced then begin
      let prof = span_times () in
      let events = Obs.Span.events () in
      let rpc = span_total prof "client.rpc" in
      let served = span_total prof "serve.request" in
      let synth n = span_total_outside events n ~outside:"transform.synthesize" in
      [ ("serve.request_s", served);
        ("serve.overhead_s", rpc -. served);
        ("verilog.parse_s", span_total prof "parse");
        ("design.elaborate_s", span_total prof "elaborate");
        ("factor.extract_s", span_total prof "extract.compositional");
        ("factor.transform_s", span_total prof "transform.synthesize");
        ("synth.full_circuit_s", synth "synth.flatten" +. synth "synth.lower");
        ("fsim.stuck_s", span_total prof "fsim.packed") ]
    end
    else []
  in
  { it_wall = wall;
    it_values =
      [ ("setup_s", setup_s);
        ("detected", float_of_int !detected);
        ("serve.rps", float_of_int (Array.length reqs) /. wall);
        ("serve.warm_p50_ms", ms 50.0 "warm-mem");
        ("serve.warm_p90_ms", ms 90.0 "warm-mem");
        ("serve.disk_p50_ms", ms 50.0 "warm-disk");
        ("serve.disk_p90_ms", ms 90.0 "warm-disk");
        ("serve.cold_p50_ms", ms 50.0 "cold");
        ("serve.cold_p90_ms", ms 90.0 "cold");
        ("serve.store_entries", gauge "store_entries");
        ("serve.store_bytes", gauge "store_bytes");
        ("engine.pool.queue_wait_s", queue_wait);
        ("engine.pool.tasks", tasks) ]
      @ List.concat_map
          (fun op ->
            List.map
              (fun cls ->
                ( Printf.sprintf "serve.rpc_s.%s.%s" op
                    (String.map (fun c -> if c = '-' then '_' else c) cls),
                  sum (op ^ "." ^ cls) ))
              classes)
          [ "extract"; "grade" ]
      @ spans;
    it_counters = counters;
    it_attempted = Array.length reqs }

(* Gate: every design's reply equals the one-shot rendering. *)
let check_one_shot ~seed first =
  let ds = designs ~seed in
  Hashtbl.iter
    (fun di reply ->
      let d = ds.(di) in
      List.iter
        (fun (field, expected) ->
          if str field reply <> expected then
            fail "serve_mix: %s reply field %s is %S, one-shot gives %S"
              d.d_op field (str field reply) expected)
        (one_shot d))
    first

let run ~seed ~seconds ~trace =
  Engine.Pool.set_jobs 1;
  let first = Hashtbl.create 256 and pass = ref 0 in
  let passes = iterations ~seconds ~trace (iteration ~seed ~first ~pass) in
  let r = report ~what:"serve_mix" ~extra:[] passes in
  check_one_shot ~seed first;
  r
