(** End-to-end flows producing the rows of every table in the paper's
    evaluation: module characteristics (Table 1), transformed-module
    construction with and without composition (Tables 2/3), raw test
    generation (Table 4), and test generation on the transformed modules
    (Tables 5/6). *)

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

let build_transform ?budget env session mode ~mut_path =
  let stats =
    match mode with
    | Conventional -> Compose.conventional ?budget env ~mut_path
    | Compositional -> Compose.compositional ?budget session env ~mut_path
  in
  (Transform.build env stats.Compose.cs_slice ~mut_path, stats)

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

(* Flatten and lower the design from module [top] down. *)
let synthesize (env : Compose.env) top =
  (Synth.Lower.synthesize env.Compose.ed top).Synth.Lower.circuit

(** Synthesize the whole design once; reused by Tables 1 and 4. *)
let full_circuit (env : Compose.env) =
  Obs.Span.with_ "flow.full_circuit" @@ fun () ->
  synthesize env env.Compose.ed.Design.Elaborate.ed_top

(* The MUT synthesized stand-alone. *)
let standalone_circuit env spec =
  synthesize env (H.find_path env.Compose.tree spec.ms_path).H.nd_module

(* Collapsed stuck-at faults of [c], inside [within] when given. *)
let collapsed ?within c = Atpg.Fault.collapse c (Atpg.Fault.all ?within c)

let characteristics env ~full spec =
  let node = H.find_path env.Compose.tree spec.ms_path in
  let em = Design.Elaborate.find_emodule env.Compose.ed node.H.nd_module in
  let (inside, outside) = Transform.split_gates full ~mut_path:spec.ms_path in
  { ch_name = spec.ms_name;
    ch_level = node.H.nd_depth;
    ch_pi_bits =
      Design.Elaborate.port_bits em (Design.Elaborate.inputs_of em);
    ch_po_bits =
      Design.Elaborate.port_bits em (Design.Elaborate.outputs_of em);
    ch_module_gates = inside;
    ch_surrounding_gates = outside;
    ch_faults = List.length (collapsed ~within:spec.ms_path full) }

(* ------------------------------------------------------------------ *)
(* Tables 2/3: transformed module construction.                        *)
(* ------------------------------------------------------------------ *)

type transform_row = {
  tr_name : string;
  tr_standalone_faults : int;
      (** collapsed fault count of the stand-alone MUT; the reference
          universe for transformed-module coverage *)
  tr_extraction_time : float;
  tr_reduction_pct : float;
  tr_stats : Compose.stats;
  tr_transformed : Transform.t;
}

(** [transform env session mode spec ~surrounding_before] extracts the
    constraints in the requested mode, synthesizes the transformed
    module and SAT-validates it: the one constructor of a Tables 2-6
    row.  [session] is only consulted in [Compositional] mode. *)
let transform ?budget env session mode spec ~surrounding_before =
  Obs.Span.with_ "flow.transform"
    ~attrs:[ ("mut", Obs.Json.String spec.ms_name) ]
  @@ fun () ->
  let (tf, stats) =
    build_transform ?budget env session mode ~mut_path:spec.ms_path
  in
  let tf = Transform.validate tf in
  let reduction =
    if surrounding_before = 0 then 0.0
    else
      100.0
      *. float_of_int (surrounding_before - tf.Transform.tf_surrounding_gates)
      /. float_of_int surrounding_before
  in
  { tr_name = spec.ms_name;
    tr_standalone_faults =
      List.length (collapsed (standalone_circuit env spec));
    tr_extraction_time = stats.Compose.cs_extraction_time;
    tr_reduction_pct = reduction;
    tr_stats = stats;
    tr_transformed = tf }

(** The generation target of a transformed module: its circuit, the
    collapsed faults inside the MUT and its PIER flip-flops. *)
let transformed_target row =
  let tf = row.tr_transformed in
  let c = tf.Transform.tf_circuit in
  let piers = Pier.identify c in
  (c, collapsed ~within:tf.Transform.tf_mut_path c, piers)

(* ------------------------------------------------------------------ *)
(* Tables 4/5/6: test generation.                                      *)
(* ------------------------------------------------------------------ *)

type atpg_row = {
  ar_name : string;
  ar_coverage : float;
  ar_effectiveness : float;
  ar_total_time : float;  (** extraction + synthesis + test generation *)
  ar_faults : int;
  ar_result : Atpg.Gen.result;
}

(* A Table 4 row: generation on the circuit [target ()] builds, against
   its own fault list, under the span [span]. *)
let raw_atpg span spec cfg target =
  Obs.Span.with_ span ~attrs:[ ("mut", Obs.Json.String spec.ms_name) ]
  @@ fun () ->
  let (c, faults) = target () in
  let r = Atpg.Gen.run c cfg faults in
  { ar_name = spec.ms_name;
    ar_coverage = r.Atpg.Gen.r_coverage;
    ar_effectiveness = r.Atpg.Gen.r_effectiveness;
    ar_total_time = r.Atpg.Gen.r_time;
    ar_faults = r.Atpg.Gen.r_total;
    ar_result = r }

(** Test generation on the stand-alone module (Table 4, columns 4-5). *)
let standalone_atpg env spec cfg =
  raw_atpg "flow.standalone_atpg" spec cfg (fun () ->
      let c = standalone_circuit env spec in
      (c, collapsed c))

(** Raw test generation at processor level, targeting the MUT's faults
    (Table 4, columns 2-3). *)
let processor_atpg ~full spec cfg =
  raw_atpg "flow.processor_atpg" spec cfg (fun () ->
      (full, collapsed ~within:spec.ms_path full))

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
  let (c, faults, piers) = transformed_target row in
  let r = Atpg.Gen.run ~budget c { cfg with Atpg.Gen.g_piers = piers } faults in
  let universe = max row.tr_standalone_faults r.Atpg.Gen.r_total in
  let constrained_away = universe - r.Atpg.Gen.r_total in
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 universe) in
  { ar_name = row.tr_name;
    ar_coverage = pct r.Atpg.Gen.r_detected;
    ar_effectiveness =
      pct (r.Atpg.Gen.r_detected + r.Atpg.Gen.r_untestable + constrained_away);
    ar_total_time =
      row.tr_extraction_time +. row.tr_transformed.Transform.tf_synthesis_time
      +. r.Atpg.Gen.r_time;
    ar_faults = universe;
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
    becomes [Mut_failed], a budget that expired before every fault was
    decided becomes [Mut_degraded] with whatever partial coverage was
    reached, and a parent budget already dead before the row starts
    becomes [Mut_skipped].  Never raises — sibling rows are
    unaffected. *)
let run_one_mut parent cfg (row : transform_row) =
  let name = row.tr_name in
  if Engine.Budget.poll parent then
    outcome name (Mut_skipped "run budget exhausted before start") None
  else
    match
      let starve =
        Engine.Chaos.active ()
        && begin
          Engine.Chaos.point ("flow.mut:" ^ name);
          (* a second seam starves the row's budget instead of crashing
             it, driving the Degraded path deterministically *)
          Engine.Chaos.abort_point ("flow.budget:" ^ name)
        end
      in
      let deadline_in = if starve then Some 0.0 else None in
      transformed_atpg ~budget:(Engine.Budget.sub ?deadline_in parent) row cfg
    with
    | r ->
      let skipped = r.ar_result.Atpg.Gen.r_budget_skipped in
      if skipped > 0 then
        outcome name
          (Mut_degraded
             (Printf.sprintf "budget expired: %d fault(s) skipped" skipped))
          (Some r)
      else outcome name Mut_ok (Some r)
    | exception e -> outcome name (Mut_failed (Printexc.to_string e)) None

(** [transformed_atpg_all ?jobs ?budget rows cfg] produces
    every Table 5/6 row, running the per-MUT generations as concurrent
    tasks on the global domain pool and merging the outcomes in input
    order — bit-identical to the serial map because each MUT's
    generation reads only its own transformed circuit and the shared
    immutable analysis, and chaos/budget decisions key on the MUT name.
    Each MUT is isolated (see {!run_one_mut}); [budget] bounds the whole
    run, and a row that starts after it died is [Mut_skipped].  [jobs]
    defaults to the pool width; [jobs <= 1] runs serially.  Per-row
    generation is kept serial ([g_jobs = 1]) when the rows themselves
    fan out, so the pool is not oversubscribed. *)
let transformed_atpg_all ?jobs ?(budget = Engine.Budget.none) rows cfg =
  let pool = Engine.Pool.global () in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Engine.Pool.size pool
  in
  let prog = Obs.Progress.start ~total:(List.length rows) "flow.muts" in
  let one cfg row () =
    let o = run_one_mut budget cfg row in
    Obs.Progress.step prog;
    o
  in
  let result =
    if jobs <= 1 || List.length rows <= 1 then
      List.map (fun row -> one cfg row ()) rows
    else
      Engine.Pool.run_all pool
        (List.map (one { cfg with Atpg.Gen.g_jobs = 1 }) rows)
  in
  Obs.Progress.finish prog;
  result
