(** End-to-end flows producing the rows of every table in the paper's
    evaluation: module characteristics (Table 1), transformed-module
    construction with and without composition (Tables 2/3), raw test
    generation (Table 4), and test generation on the transformed modules
    (Tables 5/6). *)

module N = Netlist
module H = Design.Hierarchy

type mut_spec = {
  ms_name : string;  (** display name, e.g. "arm_alu" *)
  ms_path : string;  (** instance path from the top, e.g. "u_core.u_dpath.u_alu" *)
}

type mode = Conventional | Compositional

let mode_name = function
  | Conventional -> "conventional"
  | Compositional -> "compositional"

let modes = List.map (fun m -> (mode_name m, m)) [ Conventional; Compositional ]

let extract ?budget env session mode ~mut_path =
  match mode with
  | Conventional -> Compose.conventional ?budget env ~mut_path
  | Compositional -> Compose.compositional ?budget session env ~mut_path

(* ------------------------------------------------------------------ *)
(* Table 1: module characteristics.                                    *)
(* ------------------------------------------------------------------ *)

type characteristics = {
  ch_name : string;
  ch_level : int;
  ch_pi_bits : int;
  ch_po_bits : int;
  ch_module_gates : int;
  ch_surrounding_gates : int;
  ch_faults : int;  (** collapsed stuck-at faults inside the module *)
}

(** Synthesize the whole design once; reused by Tables 1 and 4. *)
let full_circuit (env : Compose.env) =
  Obs.Span.with_ "flow.full_circuit" @@ fun () ->
  let ed = env.Compose.ed in
  let flat = Synth.Flatten.flatten ed ed.Design.Elaborate.ed_top in
  (Synth.Lower.lower flat).Synth.Lower.circuit

let characteristics env ~full spec =
  let node = H.find_path env.Compose.tree spec.ms_path in
  let em = Design.Elaborate.find_emodule env.Compose.ed node.H.nd_module in
  let (inside, outside) = Transform.split_gates full ~mut_path:spec.ms_path in
  let faults =
    Atpg.Fault.collapse full (Atpg.Fault.all ~within:spec.ms_path full) |> List.length
  in
  { ch_name = spec.ms_name;
    ch_level = node.H.nd_depth;
    ch_pi_bits =
      Design.Elaborate.port_bits em (Design.Elaborate.inputs_of em);
    ch_po_bits =
      Design.Elaborate.port_bits em (Design.Elaborate.outputs_of em);
    ch_module_gates = inside;
    ch_surrounding_gates = outside;
    ch_faults = faults }

(* ------------------------------------------------------------------ *)
(* Tables 2/3: transformed module construction.                        *)
(* ------------------------------------------------------------------ *)

type transform_row = {
  tr_name : string;
  tr_standalone_faults : int;
      (** collapsed fault count of the stand-alone MUT; the reference
          universe for transformed-module coverage *)
  tr_extraction_time : float;
  tr_synthesis_time : float;
  tr_surrounding_gates : int;
  tr_reduction_pct : float;
  tr_pi_bits : int;
  tr_po_bits : int;
  tr_cache_hits : int;
  tr_stats : Compose.stats;
  tr_transformed : Transform.t;
}

(** [transform env session mode spec ~surrounding_before] extracts the
    constraints in the requested mode and synthesizes the transformed
    module.  [session] is only consulted in [Compositional] mode. *)
let standalone_fault_count env spec =
  let node = H.find_path env.Compose.tree spec.ms_path in
  let ed = env.Compose.ed in
  let flat = Synth.Flatten.flatten ed node.H.nd_module in
  let c = (Synth.Lower.lower flat).Synth.Lower.circuit in
  List.length (Atpg.Fault.collapse c (Atpg.Fault.all c))

let transform ?budget env session mode spec ~surrounding_before =
  Obs.Span.with_ "flow.transform"
    ~attrs:[ ("mut", Obs.Json.String spec.ms_name) ]
  @@ fun () ->
  let stats = extract ?budget env session mode ~mut_path:spec.ms_path in
  let tf =
    Transform.validate
      (Transform.build env stats.Compose.cs_slice ~mut_path:spec.ms_path)
  in
  let reduction =
    if surrounding_before = 0 then 0.0
    else
      100.0
      *. float_of_int (surrounding_before - tf.Transform.tf_surrounding_gates)
      /. float_of_int surrounding_before
  in
  { tr_name = spec.ms_name;
    tr_standalone_faults = standalone_fault_count env spec;
    tr_extraction_time = stats.Compose.cs_extraction_time;
    tr_synthesis_time = tf.Transform.tf_synthesis_time;
    tr_surrounding_gates = tf.Transform.tf_surrounding_gates;
    tr_reduction_pct = reduction;
    tr_pi_bits = tf.Transform.tf_pi_bits;
    tr_po_bits = tf.Transform.tf_po_bits;
    tr_cache_hits = stats.Compose.cs_cache_hits;
    tr_stats = stats;
    tr_transformed = tf }

(* ------------------------------------------------------------------ *)
(* Tables 4/5/6: test generation.                                      *)
(* ------------------------------------------------------------------ *)

type atpg_row = {
  ar_name : string;
  ar_coverage : float;
  ar_effectiveness : float;
  ar_testgen_time : float;
  ar_total_time : float;  (** extraction + synthesis + test generation *)
  ar_faults : int;
  ar_vectors : int;
  ar_result : Atpg.Gen.result;
}

(** Test generation on the stand-alone module (Table 4, columns 4-5). *)
let standalone_atpg env spec cfg =
  Obs.Span.with_ "flow.standalone_atpg"
    ~attrs:[ ("mut", Obs.Json.String spec.ms_name) ]
  @@ fun () ->
  let node = H.find_path env.Compose.tree spec.ms_path in
  let ed = env.Compose.ed in
  let flat = Synth.Flatten.flatten ed node.H.nd_module in
  let c = (Synth.Lower.lower flat).Synth.Lower.circuit in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  let r = Atpg.Gen.run c cfg faults in
  { ar_name = spec.ms_name;
    ar_coverage = r.Atpg.Gen.r_coverage;
    ar_effectiveness = r.Atpg.Gen.r_effectiveness;
    ar_testgen_time = r.Atpg.Gen.r_time;
    ar_total_time = r.Atpg.Gen.r_time;
    ar_faults = r.Atpg.Gen.r_total;
    ar_vectors = r.Atpg.Gen.r_vectors;
    ar_result = r }

(** Raw test generation at processor level, targeting the MUT's faults
    (Table 4, columns 2-3). *)
let processor_atpg ~full spec cfg =
  Obs.Span.with_ "flow.processor_atpg"
    ~attrs:[ ("mut", Obs.Json.String spec.ms_name) ]
  @@ fun () ->
  let faults = Atpg.Fault.collapse full (Atpg.Fault.all ~within:spec.ms_path full) in
  let r = Atpg.Gen.run full cfg faults in
  { ar_name = spec.ms_name;
    ar_coverage = r.Atpg.Gen.r_coverage;
    ar_effectiveness = r.Atpg.Gen.r_effectiveness;
    ar_testgen_time = r.Atpg.Gen.r_time;
    ar_total_time = r.Atpg.Gen.r_time;
    ar_faults = r.Atpg.Gen.r_total;
    ar_vectors = r.Atpg.Gen.r_vectors;
    ar_result = r }

(** Test generation on a transformed module (Tables 5/6), with PIER
    pseudo ports enabled.  Coverage is reported against the stand-alone
    module's fault universe: faults whose sites the extracted constraints
    tied away are untestable under functional constraints (the arm_alu
    situation) — they lower the fault coverage but not the ATPG
    effectiveness. *)
let transformed_atpg ?(budget = Engine.Budget.none) (row : transform_row) cfg =
  Obs.Span.with_ "flow.transformed_atpg"
    ~attrs:[ ("mut", Obs.Json.String row.tr_name) ]
  @@ fun () ->
  let c = row.tr_transformed.Transform.tf_circuit in
  let piers = Pier.identify c in
  let faults =
    Atpg.Fault.collapse c
      (Atpg.Fault.all ~within:row.tr_transformed.Transform.tf_mut_path c)
  in
  let cfg = { cfg with Atpg.Gen.g_piers = piers } in
  let r = Atpg.Gen.run ~budget c cfg faults in
  let universe = max row.tr_standalone_faults r.Atpg.Gen.r_total in
  let constrained_away = universe - r.Atpg.Gen.r_total in
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 universe) in
  { ar_name = row.tr_name;
    ar_coverage = pct r.Atpg.Gen.r_detected;
    ar_effectiveness =
      pct (r.Atpg.Gen.r_detected + r.Atpg.Gen.r_untestable + constrained_away);
    ar_testgen_time = r.Atpg.Gen.r_time;
    ar_total_time =
      row.tr_extraction_time +. row.tr_synthesis_time +. r.Atpg.Gen.r_time;
    ar_faults = universe;
    ar_vectors = r.Atpg.Gen.r_vectors;
    ar_result = r }

(* ------------------------------------------------------------------ *)
(* MUT isolation: each row of Tables 5/6 succeeds or fails on its own.  *)
(* ------------------------------------------------------------------ *)

type mut_status =
  | Mut_ok
  | Mut_degraded of string
  | Mut_failed of string
  | Mut_skipped of string

type mut_outcome = {
  mo_name : string;
  mo_status : mut_status;
  mo_row : atpg_row option;
}

let completed_rows outcomes =
  List.filter_map (fun o -> o.mo_row) outcomes

let m_mut_ok = Obs.Metrics.counter "factor.flow.mut_ok"
let m_mut_degraded = Obs.Metrics.counter "factor.flow.mut_degraded"
let m_mut_failed = Obs.Metrics.counter "factor.flow.mut_failed"
let m_mut_skipped = Obs.Metrics.counter "factor.flow.mut_skipped"

let outcome name status row =
  (match status with
   | Mut_ok -> Obs.Metrics.incr m_mut_ok
   | Mut_degraded why ->
     Obs.Metrics.incr m_mut_degraded;
     Obs.Log.event Obs.Log.Warn "flow.mut_degraded"
       [ ("mut", Obs.Json.String name); ("why", Obs.Json.String why) ]
   | Mut_failed why ->
     Obs.Metrics.incr m_mut_failed;
     Obs.Log.event Obs.Log.Warn "flow.mut_failed"
       [ ("mut", Obs.Json.String name); ("why", Obs.Json.String why) ]
   | Mut_skipped why ->
     Obs.Metrics.incr m_mut_skipped;
     Obs.Log.event Obs.Log.Warn "flow.mut_skipped"
       [ ("mut", Obs.Json.String name); ("why", Obs.Json.String why) ]);
  { mo_name = name; mo_status = status; mo_row = row }

(** Run one MUT under a child budget, converting every failure mode into
    a row-local status: an exception (including an injected chaos fault)
    becomes [Mut_failed], a budget that expired mid-generation becomes
    [Mut_degraded] with whatever partial coverage was reached, and a
    parent budget already dead before the row starts becomes
    [Mut_skipped].  Never raises — sibling rows are unaffected. *)
let run_one_mut ?mut_budget parent cfg (row : transform_row) =
  let name = row.tr_name in
  if Engine.Budget.poll parent then
    outcome name (Mut_skipped "run budget exhausted before start") None
  else begin
    let tok = Engine.Budget.sub ?deadline_in:mut_budget parent in
    Fun.protect ~finally:(fun () -> Engine.Budget.detach tok) @@ fun () ->
    match
      if Engine.Chaos.active () then begin
        Engine.Chaos.point ("flow.mut:" ^ name);
        (* a second seam starves the row's budget instead of crashing
           it, driving the Degraded path deterministically *)
        if Engine.Chaos.abort_point ("flow.budget:" ^ name) then
          Engine.Budget.cancel tok
      end;
      transformed_atpg ~budget:tok row cfg
    with
    | r ->
      let skipped = r.ar_result.Atpg.Gen.r_budget_skipped in
      if skipped > 0 || Engine.Budget.check tok then begin
        let cause =
          match Engine.Budget.why tok with
          | Some Engine.Budget.Cancelled -> "budget cancelled"
          | _ -> "budget expired"
        in
        outcome name
          (Mut_degraded
             (Printf.sprintf "%s: %d fault(s) skipped" cause skipped))
          (Some r)
      end
      else outcome name Mut_ok (Some r)
    | exception e -> outcome name (Mut_failed (Printexc.to_string e)) None
  end

(** [transformed_atpg_all ?jobs ?budget ?mut_budget rows cfg] produces
    every Table 5/6 row, running the per-MUT generations as concurrent
    tasks on the global domain pool and merging the outcomes in input
    order — bit-identical to the serial map because each MUT's
    generation reads only its own transformed circuit and the shared
    immutable analysis, and chaos/budget decisions key on the MUT name.
    Each MUT is isolated (see {!run_one_mut}); [budget] bounds the whole
    run and [mut_budget] (seconds) each row.  Rows whose task was still
    queued when [budget] died are cancelled and reported as
    [Mut_skipped].  [jobs] defaults to the pool width; [jobs <= 1] runs
    serially.  Per-row generation is kept serial ([g_jobs = 1]) when the
    rows themselves fan out, so the pool is not oversubscribed. *)
let transformed_atpg_all ?jobs ?(budget = Engine.Budget.none) ?mut_budget
    rows cfg =
  let pool = Engine.Pool.global () in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Engine.Pool.size pool
  in
  let prog = Obs.Progress.start ~total:(List.length rows) "flow.muts" in
  let result =
    if jobs <= 1 || List.length rows <= 1 then
      List.map
        (fun row ->
          let o = run_one_mut ?mut_budget budget cfg row in
          Obs.Progress.step prog;
          o)
        rows
    else begin
      let cfg = { cfg with Atpg.Gen.g_jobs = 1 } in
      let futs =
        List.map
          (fun row ->
            (row, Engine.Pool.submit pool (fun () ->
                      let o = run_one_mut ?mut_budget budget cfg row in
                      Obs.Progress.step prog;
                      o)))
          rows
      in
      List.map
        (fun (row, fut) ->
          if Engine.Budget.poll budget then
            ignore (Engine.Pool.cancel fut : bool);
          match Engine.Pool.await fut with
          | o -> o
          | exception Engine.Pool.Cancelled ->
            outcome row.tr_name
              (Mut_skipped "run budget exhausted before start") None)
        futs
    end
  in
  Obs.Progress.finish prog;
  result
