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

let str_opt name params = Option.bind (J.member name params) J.to_string_opt

let str_req name params =
  match str_opt name params with
  | Some s -> s
  | None -> bad "missing string parameter %S" name

let str_default name ~default params =
  Option.value (str_opt name params) ~default

let float_default name ~default params =
  match Option.bind (J.member name params) J.to_float_opt with
  | Some f -> f
  | None -> default

let float_opt name params = Option.bind (J.member name params) J.to_float_opt

let int_default name ~default params =
  match Option.bind (J.member name params) J.to_int_opt with
  | Some i -> i
  | None -> default

let bool_default name ~default params =
  match Option.bind (J.member name params) J.to_bool_opt with
  | Some b -> b
  | None -> default

(* Resolve the design parameters of [params] to (source text, top
   option).  Bundled names resolve to the embedded sources, so their
   cache identity is the same content hash as an equivalent [source]
   request. *)
let design_source params =
  match str_opt "design" params with
  | Some "@arm" -> (Arm.Rtl.source, Some Arm.Rtl.top)
  | Some d when String.length d > 1 && d.[0] = '@' ->
    let name = String.sub d 1 (String.length d - 1) in
    (match Circuits.Collection.find name with
     | e -> (e.Circuits.Collection.e_source, Some e.Circuits.Collection.e_top)
     | exception Not_found -> bad "unknown bundled design %S" d)
  | Some d -> bad "bad design %S (expected '@arm' or a corpus '@name')" d
  | None ->
    (match str_opt "source" params with
     | Some src -> (src, str_opt "top" params)
     | None -> bad "missing 'design' or 'source' parameter")

let entry_of ctx ~budget params =
  let (source, top) = design_source params in
  Cache.find_or_build ctx.oc_cache ~budget ~source ~top

let cache_field outcome = ("cache", J.String (Cache.outcome_to_string outcome))

(* ------------------------------------------------------------------ *)
(* Ops.                                                                *)
(* ------------------------------------------------------------------ *)

let op_ping _ctx _budget _params = J.Obj [ ("pong", J.Bool true) ]

let op_metrics _ctx _budget _params =
  J.Obj [ ("prometheus", J.String (Obs.Metrics.dump_prometheus ())) ]

let op_extract ctx budget params =
  let mut = str_req "mut" params in
  let mode =
    let name = str_default "mode" ~default:"compositional" params in
    match List.assoc_opt name Factor.Flow.modes with
    | Some m -> m
    | None -> bad "bad mode %S (expected conventional or compositional)" name
  in
  let (entry, outcome) = entry_of ctx ~budget params in
  let ((tf, stats), tf_hit) = Cache.transform entry ~budget ~mut ~mode in
  let fields =
    [ ("extraction", J.String (Render.extract_stats stats));
      ("transformed", J.String (Render.transform_line tf));
      cache_field outcome;
      ("transform_cached", J.Bool tf_hit);
      ("dead_ends",
       J.List
         (List.map
            (fun d -> J.String (Factor.Extract.dead_end_to_string d))
            stats.Factor.Compose.cs_dead_ends)) ]
    @ (if bool_default "emit_verilog" ~default:false params then
         [ ("verilog",
            J.String
              (Verilog.Pp.design_to_string tf.Factor.Transform.tf_design)) ]
       else [])
  in
  J.Obj fields

let engine_of_string = function
  | "podem" -> Atpg.Gen.Podem_only
  | "sat" -> Atpg.Gen.Sat_only
  | "hybrid" -> Atpg.Gen.Hybrid
  | other -> bad "bad engine %S (expected podem, sat or hybrid)" other

let op_atpg ctx budget params =
  let (entry, outcome) = entry_of ctx ~budget params in
  let c = Cache.circuit entry in
  let mut = str_opt "mut" params in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all ?within:mut c) in
  let piers =
    if bool_default "piers" ~default:false params then Factor.Pier.identify c
    else []
  in
  let dflt = Atpg.Gen.default_config in
  let cfg =
    { dflt with
      Atpg.Gen.g_total_budget = float_default "budget" ~default:60.0 params;
      g_fault_budget =
        float_default "fault_budget" ~default:dflt.Atpg.Gen.g_fault_budget
          params;
      g_max_frames = int_default "frames" ~default:4 params;
      g_piers = piers;
      g_engine =
        engine_of_string (str_default "engine" ~default:"hybrid" params);
      g_seed = int_default "seed" ~default:dflt.Atpg.Gen.g_seed params;
      (* concurrent requests are the daemon's unit of parallelism;
         generation is deterministic across job counts, so per-request
         serial generation keeps responses identical to any -j N
         one-shot run without oversubscribing the pool *)
      g_jobs = 1 }
  in
  let r = Atpg.Gen.run ~budget c cfg faults in
  J.Obj
    [ ("counts", J.String (Render.atpg_counts r));
      ("quality", J.String (Render.atpg_quality r));
      ("vectors",
       J.String
         (Atpg.Pattern.write_string ~pi_names:c.Netlist.pi_names
            r.Atpg.Gen.r_tests));
      ("detected", J.Int r.Atpg.Gen.r_detected);
      ("faults", J.Int r.Atpg.Gen.r_total);
      cache_field outcome ]

let op_grade ctx budget params =
  let (entry, outcome) = entry_of ctx ~budget params in
  let c = Cache.circuit entry in
  let tests =
    try Atpg.Pattern.read_string (str_req "vectors" params) with
    | Atpg.Pattern.Parse_error msg ->
      Factor.Errors.fail Factor.Errors.Parse msg
  in
  let mut = str_opt "mut" params in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all ?within:mut c) in
  let observe =
    { Atpg.Fsim.ob_pos = true;
      ob_pier_ffs =
        (if bool_default "piers" ~default:false params then
           Factor.Pier.identify c
         else []) }
  in
  let flags = Atpg.Fsim.run c ~observe ~faults tests in
  let detected = Array.to_list flags |> List.filter Fun.id |> List.length in
  J.Obj
    [ ("line",
       J.String (Render.grade_line ~tests ~detected ~faults:(List.length faults)));
      ("detected", J.Int detected);
      ("faults", J.Int (List.length faults));
      cache_field outcome ]

let op_ec ctx budget params =
  let side name =
    match J.member name params with
    | Some p -> p
    | None -> bad "missing %S design object" name
  in
  let (ea, oa) = entry_of ctx ~budget (side "a") in
  let (eb, ob) = entry_of ctx ~budget (side "b") in
  let ca = Cache.circuit ea and cb = Cache.circuit eb in
  let conflict_limit =
    Option.map int_of_float (float_opt "conflict_limit" params)
  in
  let (verdict, _stats) = Sat.Ec.check ?conflict_limit ca cb in
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
  let budget =
    match float_opt "budget_s" rq.rq_params with
    | Some s -> Engine.Budget.make ~deadline_in:s ()
    | None ->
      (match ctx.oc_default_budget with
       | Some s -> Engine.Budget.make ~deadline_in:s ()
       | None -> Engine.Budget.none)
  in
  (* the request id correlates the whole lifetime: the client sends one
     ([req] param), the daemon stamps it into the ambient context so
     every span and log record of this request carries it *)
  let req =
    match str_opt "req" rq.rq_params with
    | Some r -> r
    | None -> Printf.sprintf "rq-%d" rq.rq_id
  in
  let body () =
    (* the per-request chaos seam: a kill or stall here degrades exactly
       one request — the server catches the exception and answers with
       an error response while siblings proceed untouched *)
    if Engine.Chaos.active () then
      Engine.Chaos.point ("serve.request:" ^ rq.rq_op);
    (handler rq.rq_op) ctx budget rq.rq_params
  in
  let traced () =
    if Obs.Span.enabled () then
      Obs.Span.with_ "serve.request"
        ~attrs:[ ("op", J.String rq.rq_op); ("rq_id", J.Int rq.rq_id) ]
        body
    else body ()
  in
  let run () = with_streaming ~emit ~req rq traced in
  match Obs.Context.with_request_id req run with
  | result ->
    Obs.Metrics.observe h_latency (Engine.Clock.now () -. t0);
    result
  | exception e ->
    Obs.Metrics.incr m_errors;
    Obs.Metrics.observe h_latency (Engine.Clock.now () -. t0);
    raise e
