(** Builds the transformed module of Figure 1: the module under test
    combined with the synthesized virtual logic S' extracted from its
    surroundings, ready for the ATPG engine. *)

module N = Netlist
module H = Design.Hierarchy

type t = {
  tf_design : Verilog.Ast.design;  (** the sliced design, as Verilog *)
  tf_circuit : N.t;                (** synthesized transformed module *)
  tf_mut_path : string;
  tf_synthesis_time : float;       (** CPU seconds for flatten+lower *)
  tf_mut_gates : int;              (** gate equivalents inside the MUT *)
  tf_surrounding_gates : int;      (** gate equivalents of S' *)
  tf_pi_bits : int;
  tf_po_bits : int;
  tf_warnings : string list;
  tf_validation : string option;   (** SAT equivalence verdict, once run *)
}

(** Gate-equivalent counts split into (inside MUT, outside MUT), counting
    only logic alive in the cone of the observable outputs. *)
let split_gates c ~mut_path =
  let live = N.live_mask c in
  let inside = ref 0 and outside = ref 0 in
  let bump net amount =
    if live.(net) then begin
      let cell = if N.under_prefix mut_path c.N.origin.(net) then inside else outside in
      cell := !cell + amount
    end
  in
  Array.iteri
    (fun net d ->
      match d with
      | N.G2 _ -> bump net 1
      | N.G1 (N.Inv, _) -> bump net 1
      | N.G1 (N.Buff, _) -> ()
      | N.Mux _ -> bump net 3
      | N.Pi _ | N.Ff _ | N.C0 | N.C1 -> ())
    c.N.drv;
  Array.iter (fun q -> bump q 6) c.N.ff_q;
  (!inside, !outside)

(** [synthesize design ~top ~mut_path] elaborates, flattens and lowers a
    (possibly sliced) design, reporting the usual statistics. *)
let synthesize design ~top ~mut_path =
  Obs.Span.with_ "transform.synthesize"
    ~attrs:[ ("mut", Obs.Json.String mut_path) ]
  @@ fun () ->
  let t0 = Sys.time () in
  let ed = Design.Elaborate.elaborate design ~top in
  let { Synth.Lower.circuit; warnings } =
    Synth.Lower.synthesize ed ed.Design.Elaborate.ed_top
  in
  let dt = Sys.time () -. t0 in
  let (inside, outside) = split_gates circuit ~mut_path in
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.event Obs.Log.Info "transform.synthesize"
      [ ("mut", Obs.Json.String mut_path);
        ("mut_gates", Obs.Json.Int inside);
        ("surrounding_gates", Obs.Json.Int outside);
        ("warnings", Obs.Json.Int (List.length warnings)) ];
  { tf_design = design;
    tf_circuit = circuit;
    tf_mut_path = mut_path;
    tf_synthesis_time = dt;
    tf_mut_gates = inside;
    tf_surrounding_gates = outside;
    tf_pi_bits = N.num_pis circuit;
    tf_po_bits = N.num_pos circuit;
    tf_warnings = warnings;
    tf_validation = None }

(** [validate tf] proves [Opt.rebuild tf_circuit] exactly equivalent
    to [tf_circuit] by SAT (matched-register check — the rebuild
    preserves register names), then discards the rebuild.  It checks
    the netlist builder's simplification rules, re-applied to the
    finished module; it does not check extraction or synthesis.  The
    verdict lands in [tf_validation]; a difference is also appended to
    [tf_warnings] so flows that only surface warnings cannot miss it. *)
let validate tf =
  Obs.Span.with_ "transform.validate" @@ fun () ->
  let rebuilt = Synth.Opt.rebuild tf.tf_circuit in
  match Synth.Opt.equivalent_exact tf.tf_circuit rebuilt with
  | Synth.Opt.Equal -> { tf with tf_validation = Some "equal" }
  | Synth.Opt.Differ name ->
    Obs.Log.event Obs.Log.Warn "transform.validate.differ"
      [ ("mut", Obs.Json.String tf.tf_mut_path);
        ("output", Obs.Json.String name) ];
    let msg = "transformed-module validation failed: differ on " ^ name in
    { tf with
      tf_validation = Some ("differ on " ^ name);
      tf_warnings = tf.tf_warnings @ [ msg ] }

(** [build env slice ~mut_path] reconstructs the sliced design around the
    MUT and synthesizes the transformed module. *)
let build (env : Compose.env) slice ~mut_path =
  let ed = env.Compose.ed in
  let (design, _ports) =
    Reconstruct.design ~ed ~slice ~top:ed.Design.Elaborate.ed_top
  in
  synthesize design ~top:ed.Design.Elaborate.ed_top ~mut_path
