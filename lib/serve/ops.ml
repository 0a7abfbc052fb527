(** Request handlers.  See the mli for the parameter schema; see
    {!Cache} for what each op reuses on a warm hit. *)

module J = Obs.Json

type ctx = {
  oc_cache : Cache.t;
  oc_default_budget : float option;
}

let make_ctx ?store ?max_resident ?default_budget () =
  { oc_cache = Cache.create ?store ?max_resident ();
    oc_default_budget = default_budget }

let cache ctx = ctx.oc_cache

let m_requests = Obs.Metrics.counter "factor.serve.requests"
let m_errors = Obs.Metrics.counter "factor.serve.errors"
let h_latency = Obs.Metrics.histogram "factor.serve.request_seconds"

(* ------------------------------------------------------------------ *)
(* Parameter accessors.                                                *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf (fun s -> raise (Proto.Proto_error s)) fmt

(* One rule for every parameter: absent reads as [None]; present with
   the right JSON type reads as its value; anything else is refused,
   never read as absent. *)
let param conv kind name params =
  match J.member name params with
  | None -> None
  | Some j ->
    (match conv j with
     | Some v -> Some v
     | None -> bad "bad %s: expected %s" name kind)

let str_opt = param J.to_string_opt "string"
let float_opt = param J.to_float_opt "number"

let str_req name params =
  match str_opt name params with
  | Some s -> s
  | None -> bad "missing string parameter %S" name

let str_default name ~default params =
  Option.value (str_opt name params) ~default

let float_default name ~default params =
  Option.value (float_opt name params) ~default

let int_opt = param J.to_int_opt "int"

let int_default name ~default params =
  Option.value (int_opt name params) ~default

let bool_default name ~default params =
  Option.value (param J.to_bool_opt "bool" name params) ~default

(* The value of parameter [name] (default [default]) looked up in
   [table], a name-to-value list like {!Factor.Flow.modes}. *)
let choice name table ~default params =
  let v = str_default name ~default params in
  match List.assoc_opt v table with
  | Some x -> x
  | None ->
    bad "bad %s %S (expected %s)" name v (String.concat " or " (List.map fst table))

let bundled_names =
  "arm" :: List.map (fun e -> e.Circuits.Collection.e_name) Circuits.Collection.all

let design_source params =
  let top = str_opt "top" params in
  match str_opt "design" params with
  | Some "@arm" -> (Arm.Rtl.source, Some (Option.value top ~default:Arm.Rtl.top))
  | Some d when String.length d > 1 && d.[0] = '@' ->
    (match Circuits.Collection.find (String.sub d 1 (String.length d - 1)) with
     | e ->
       ( e.Circuits.Collection.e_source,
         Some (Option.value top ~default:e.Circuits.Collection.e_top) )
     | exception Not_found ->
       bad "unknown bundled design %S (have: %s)" d
         (String.concat ", " bundled_names))
  | Some d -> bad "bad design %S (expected '@arm' or a corpus '@name')" d
  | None ->
    (match str_opt "source" params with
     | Some src -> (src, top)
     | None -> bad "missing 'design' or 'source' parameter")

let entry_of ?design_file ctx ~budget params =
  let (source, top) = design_source params in
  Obs.Span.with_ "serve.cache_lookup" @@ fun () ->
  Cache.find_or_build ?file:design_file ctx.oc_cache ~budget ~source ~top

(* Resolve a given [mut] against the entry's instance tree before any
   work: an unknown path is an extract error, not an empty fault list. *)
let check_mut entry mut =
  Option.iter (fun m -> ignore (Factor.Compose.mut_node (Cache.env entry) m)) mut

let faults_of c mut =
  Obs.Span.with_ "atpg.collapse" @@ fun () ->
  Atpg.Fault.collapse c (Atpg.Fault.all ?within:mut c)

let pier_ffs c params =
  if bool_default "piers" ~default:false params then Factor.Pier.identify c
  else []

(* ------------------------------------------------------------------ *)
(* Typed cores.                                                        *)
(* ------------------------------------------------------------------ *)

type extract = {
  x_transform : Factor.Transform.t;
  x_stats : Factor.Compose.stats;
  x_cached : bool;
}

type atpg = {
  a_circuit : Netlist.t;
  a_result : Atpg.Gen.result;
}

type grade = {
  gd_tests : Atpg.Pattern.test list;
  gd_detected : int;
  gd_faults : int;
}

let extract ?design_file ?(budget = Engine.Budget.none) ctx params =
  let mut = str_req "mut" params in
  let mode =
    choice "mode" Factor.Flow.modes ~default:"compositional" params
  in
  let (entry, outcome) = entry_of ?design_file ctx ~budget params in
  check_mut entry (Some mut);
  let ((tf, stats), cached) = Cache.transform entry ~budget ~mut ~mode in
  ({ x_transform = tf; x_stats = stats; x_cached = cached }, outcome)

let atpg ?jobs ?design_file ?(budget = Engine.Budget.none) ctx params =
  (* no frame to search proves nothing: refused before any work *)
  let frames = int_default "frames" ~default:4 params in
  if frames < 1 then bad "bad frames %d (expected at least 1)" frames;
  let (entry, outcome) = entry_of ?design_file ctx ~budget params in
  let mut = str_opt "mut" params in
  check_mut entry mut;
  let c = Cache.circuit entry in
  let faults = faults_of c mut in
  let dflt = Atpg.Gen.default_config in
  let cfg =
    { dflt with
      Atpg.Gen.g_total_budget = float_default "budget" ~default:60.0 params;
      g_fault_budget =
        float_default "fault_budget" ~default:dflt.Atpg.Gen.g_fault_budget
          params;
      g_max_frames = frames;
      g_piers = pier_ffs c params;
      g_engine = choice "engine" Atpg.Gen.engines ~default:"hybrid" params;
      g_seed = int_default "seed" ~default:dflt.Atpg.Gen.g_seed params;
      g_jobs = Option.value jobs ~default:1 }
  in
  Obs.Log.verbosef "atpg: %d collapsed faults, %d jobs" (List.length faults)
    cfg.Atpg.Gen.g_jobs;
  let r = Atpg.Gen.run ~budget c cfg faults in
  ({ a_circuit = c; a_result = r }, outcome)

let grade ?jobs ?design_file ?vectors_file ?(budget = Engine.Budget.none) ctx
    params =
  let (entry, outcome) = entry_of ?design_file ctx ~budget params in
  let mut = str_opt "mut" params in
  check_mut entry mut;
  let c = Cache.circuit entry in
  let tests =
    try
      Atpg.Pattern.read_string_for ~num_pis:(Netlist.num_pis c)
        ~num_ffs:(Netlist.num_ffs c) (str_req "vectors" params)
    with
    | Atpg.Pattern.Parse_error (line, msg) ->
      Factor.Errors.fail ?file:vectors_file ~line Factor.Errors.Parse msg
  in
  let faults = faults_of c mut in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = pier_ffs c params } in
  let flags = Atpg.Fsim.run ?jobs c ~observe ~faults tests in
  let detected = Array.fold_left (fun n f -> if f then n + 1 else n) 0 flags in
  ( { gd_tests = tests; gd_detected = detected; gd_faults = List.length faults },
    outcome )

(* ------------------------------------------------------------------ *)
(* Ops: a typed core rendered as the response's result object.        *)
(* ------------------------------------------------------------------ *)

let cache_field outcome = ("cache", J.String (Cache.outcome_to_string outcome))

let op_ping _ctx _budget _params = J.Obj [ ("pong", J.Bool true) ]

let op_metrics _ctx _budget _params =
  J.Obj [ ("prometheus", J.String (Obs.Metrics.dump_prometheus ())) ]

let op_extract ctx budget params =
  let (x, outcome) = extract ~budget ctx params in
  Obs.Span.with_ "serve.render" @@ fun () ->
  J.Obj
    ([ ("extraction", J.String (Render.extract_stats x.x_stats));
       ("transformed", J.String (Render.transform_line x.x_transform));
       cache_field outcome;
       ("transform_cached", J.Bool x.x_cached);
       ("dead_ends",
        J.List
          (List.map
             (fun d -> J.String (Factor.Extract.dead_end_to_string d))
             x.x_stats.Factor.Compose.cs_dead_ends)) ]
     @
     if bool_default "emit_verilog" ~default:false params then
       [ ("verilog",
          J.String
            (Verilog.Pp.design_to_string
               x.x_transform.Factor.Transform.tf_design)) ]
     else [])

(* Concurrent requests are the daemon's unit of parallelism, so a
   served request generates and grades serially (no [?jobs]); the
   results are identical at every job count. *)
let op_atpg ctx budget params =
  let (a, outcome) = atpg ~budget ctx params in
  let r = a.a_result in
  Obs.Span.with_ "serve.render" @@ fun () ->
  J.Obj
    [ ("counts", J.String (Render.atpg_counts r));
      ("quality", J.String (Render.atpg_quality r));
      ("vectors",
       J.String
         (Atpg.Pattern.write_string ~pi_names:a.a_circuit.Netlist.pi_names
            r.Atpg.Gen.r_tests));
      ("detected", J.Int r.Atpg.Gen.r_detected);
      ("faults", J.Int r.Atpg.Gen.r_total);
      cache_field outcome ]

let op_grade ctx budget params =
  let (g, outcome) = grade ~budget ctx params in
  Obs.Span.with_ "serve.render" @@ fun () ->
  J.Obj
    [ ("line",
       J.String
         (Render.grade_line ~tests:g.gd_tests ~detected:g.gd_detected
            ~faults:g.gd_faults));
      ("detected", J.Int g.gd_detected);
      ("faults", J.Int g.gd_faults);
      cache_field outcome ]

let op_ec ctx budget params =
  (* a limit below one conflict decides nothing: refused before any
     work, like atpg's frames *)
  let conflict_limit = int_opt "conflict_limit" params in
  Option.iter
    (fun n -> if n < 1 then bad "bad conflict_limit %d (expected at least 1)" n)
    conflict_limit;
  let side name =
    match J.member name params with
    | Some (J.Obj _ as p) -> p
    | Some _ -> bad "bad %s: expected object" name
    | None -> bad "missing %S design object" name
  in
  let (ea, oa) = entry_of ctx ~budget (side "a") in
  let (eb, ob) = entry_of ctx ~budget (side "b") in
  let ca = Cache.circuit ea and cb = Cache.circuit eb in
  let (verdict, _stats) = Sat.Ec.check ?conflict_limit ca cb in
  Obs.Span.with_ "serve.render" @@ fun () ->
  J.Obj
    [ ("line", J.String (Render.ec_line verdict));
      ("verdict",
       J.String
         (match verdict with
          | Sat.Ec.Equal -> "equal"
          | Sat.Ec.Differ out -> "differ:" ^ out
          | Sat.Ec.Unknown -> "unknown"));
      ("cache_a", J.String (Cache.outcome_to_string oa));
      ("cache_b", J.String (Cache.outcome_to_string ob)) ]

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)
(* ------------------------------------------------------------------ *)

let handler = function
  | "ping" -> op_ping
  | "metrics" -> op_metrics
  | "extract" -> op_extract
  | "atpg" -> op_atpg
  | "grade" -> op_grade
  | "ec" -> op_ec
  | op -> bad "unknown op %S" op

(* Streaming scaffolding: while a [stream: true] request runs, a
   domain-local {!Obs.Progress} sink converts every reporter update
   into a progress event frame, and an {!Obs.Log} forwarder relays the
   request's own structured events (filtered on the ambient request id)
   as log frames.  [emit] hands each framed event to the server, which
   queues it on the connection ahead of the final response. *)
let with_streaming ~emit ~req rq f =
  match emit with
  | None -> f ()
  | Some emit ->
    (* lifecycle marker: the request reached its handler — a watcher
       sees life before the first (possibly slow) phase reports *)
    emit
      (Proto.event_frame ~id:rq.Proto.rq_id ~req
         (Proto.Ev_progress
            { ep_phase = "serve." ^ rq.Proto.rq_op;
              ep_reporter = 0;
              ep_done = 0;
              ep_total = 0;
              ep_rate = 0.0;
              ep_eta_s = -1.0;
              ep_final = false }));
    let sink (u : Obs.Progress.update) =
      emit
        (Proto.event_frame ~id:rq.Proto.rq_id ~req
           (Proto.Ev_progress
              { ep_phase = u.Obs.Progress.up_phase;
                ep_reporter = u.up_reporter;
                ep_done = u.up_done;
                ep_total = u.up_total;
                ep_rate = u.up_rate;
                ep_eta_s = u.up_eta_s;
                ep_final = u.up_final }))
    in
    Obs.Progress.with_sink sink (fun () ->
        let fwd =
          Obs.Log.add_forwarder (fun level msg attrs ->
              if Obs.Context.request_id () = Some req then
                emit
                  (Proto.event_frame ~id:rq.Proto.rq_id ~req
                     (Proto.Ev_log
                        { el_level = Obs.Log.level_name level;
                          el_msg = msg;
                          el_attrs = J.Obj attrs })))
        in
        Fun.protect ~finally:(fun () -> Obs.Log.remove_forwarder fwd) f)

let handle ?emit ctx (rq : Proto.request) =
  Obs.Metrics.incr m_requests;
  let t0 = Engine.Clock.now () in
  (* a malformed [budget_s] or [req] fails here, counted as an error *)
  let run () =
    let budget =
      match float_opt "budget_s" rq.rq_params with
      | Some s -> Engine.Budget.make ~deadline_in:s ()
      | None ->
        (match ctx.oc_default_budget with
         | Some s -> Engine.Budget.make ~deadline_in:s ()
         | None -> Engine.Budget.none)
    in
    (* the request id correlates the whole lifetime: the client sends
       one ([req] param), the daemon stamps it into the ambient context
       so every span and log record of this request carries it *)
    let req =
      match str_opt "req" rq.rq_params with
      | Some r -> r
      | None -> Printf.sprintf "rq-%d" rq.rq_id
    in
    let body () =
      (* the per-request chaos seam: a kill or stall here degrades
         exactly one request — the server catches the exception and
         answers with an error response while siblings proceed
         untouched *)
      if Engine.Chaos.active () then
        Engine.Chaos.point ("serve.request:" ^ rq.rq_op);
      Cache.batch (fun () -> (handler rq.rq_op) ctx budget rq.rq_params)
    in
    let traced () =
      if Obs.Span.enabled () then
        Obs.Span.with_ "serve.request"
          ~attrs:[ ("op", J.String rq.rq_op); ("rq_id", J.Int rq.rq_id) ]
          body
      else body ()
    in
    Obs.Context.with_request_id req (fun () ->
        with_streaming ~emit ~req rq traced)
  in
  match run () with
  | result ->
    Obs.Metrics.observe h_latency (Engine.Clock.now () -. t0);
    result
  | exception e ->
    Obs.Metrics.incr m_errors;
    Obs.Metrics.observe h_latency (Engine.Clock.now () -. t0);
    raise e
