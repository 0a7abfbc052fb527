(** Testability analysis (Section 4.2 of the paper): empty def-use /
    use-def chains are reported with full signal traces, and module
    inputs driven from hard-coded values (constants selected by a control
    signal, like the arm_alu decode) are flagged because such constraints
    cannot be simplified further and cap the achievable coverage. *)

open Design.Elaborate
module H = Design.Hierarchy
module Ch = Design.Chains
module Smap = Verilog.Ast_util.Smap
module Sset = Verilog.Ast_util.Sset

type hard_coded = {
  hc_input : string;          (** MUT input port *)
  hc_module : string;         (** module holding the hard-coded values *)
  hc_signal : string;         (** the driving signal in that module *)
  hc_controls : string list;  (** signals selecting among the values *)
  hc_values : int;            (** how many distinct constants drive it *)
}

let hard_coded_to_string h =
  Printf.sprintf
    "input %s: driven from %d hard-coded value(s) of %s in %s%s" h.hc_input
    h.hc_values h.hc_signal h.hc_module
    (match h.hc_controls with
     | [] -> ""
     | cs -> " depending on " ^ String.concat ", " cs)

(* Recursively decide whether [signal] in [node]'s module is driven
   exclusively by hard-coded constants, following identifier aliases,
   port connections up and down the hierarchy, and collecting the control
   signals that select among the values. *)
type const_trace = {
  tr_values : int list;
  tr_controls : Sset.t;
}

let rec trace_constants env node signal visited =
  let key = (H.path_to_string node.H.nd_path, signal) in
  if List.mem key visited then None
  else begin
    let visited = key :: visited in
    let ed = env.Compose.ed in
    let em = find_emodule ed node.H.nd_module in
    let chains = Smap.find node.H.nd_module env.Compose.chains in
    let defs = Ch.defs_of chains signal in
    let driven_by node = driven_by env node visited in
    if Ch.Site_set.is_empty defs then begin
      match (signal_of em signal).sg_dir with
      | Some Verilog.Ast.Input ->
        (match H.parent_of env.Compose.tree node with
         | None -> None
         | Some parent ->
           let inst = H.instance_item ed parent node in
           Option.bind (List.assoc signal inst.ei_conns) (driven_by parent))
      | _ -> None
    end
    else
      let merge a b =
        match (a, b) with
        | (Some a, Some b) ->
          Some
            { tr_values = a.tr_values @ b.tr_values;
              tr_controls = Sset.union a.tr_controls b.tr_controls }
        | _ -> None
      in
      Ch.Site_set.fold
        (fun site acc ->
          if acc = None then None
          else
            let this =
              match em.em_items.(site.Ch.st_item) with
              | EI_instance inst ->
                (* defined by a child's output: find the driving port *)
                let child_node = H.child node inst.ei_name in
                let child_em = find_emodule ed inst.ei_module in
                List.find_map
                  (fun (port, conn) ->
                    match conn with
                    | Some (Verilog.Ast.E_ident s)
                      when String.equal s signal
                           && port_dir child_em port = Verilog.Ast.Output ->
                      trace_constants env child_node port visited
                    | _ -> None)
                  inst.ei_conns
              | EI_assign (_, e) -> driven_by node e
              | EI_gate _ -> None
              | EI_always _ ->
                (match Ch.site_leaf em site with
                 | Some
                     ( ( Verilog.Ast.S_blocking (_, e)
                       | Verilog.Ast.S_nonblocking (_, e) ),
                       conds ) ->
                   Option.map
                     (fun t ->
                       { t with
                         tr_controls =
                           List.fold_left
                             (fun acc c -> Verilog.Ast_util.expr_reads c acc)
                             t.tr_controls conds })
                     (driven_by node e)
                 | _ -> None)
            in
            merge acc this)
        defs
        (Some { tr_values = []; tr_controls = Sset.empty })
  end

(* What [e], in [node]'s module, traces to: a closed expression to its one
   value, a signal to what drives it. *)
and driven_by env node visited e =
  match e with
  | Verilog.Ast.E_ident s -> trace_constants env node s visited
  | _ ->
    Option.map
      (fun c ->
        { tr_values = [ c.Verilog.Ast.value ]; tr_controls = Sset.empty })
      (const_value e)

(** [hard_coded_inputs env ~mut_path] analyzes every input of the module
    under test and reports the ones driven exclusively by hard-coded
    constants anywhere up the hierarchy — the arm_alu situation of
    Section 4.2. *)
let hard_coded_inputs (env : Compose.env) ~mut_path =
  let ed = env.Compose.ed in
  let node = H.find_path env.Compose.tree mut_path in
  match H.parent_of env.Compose.tree node with
  | None -> []
  | Some parent ->
    let inst = H.instance_item ed parent node in
    let mut_em = find_emodule ed node.H.nd_module in
    List.filter_map
      (fun (port, conn) ->
        if port_dir mut_em port <> Verilog.Ast.Input then None
        else
          let traced =
            match conn with
            | None -> Some { tr_values = [ 0 ]; tr_controls = Sset.empty }
            | Some e -> driven_by env parent [] e
          in
          match traced with
          | Some t ->
            Some
              { hc_input = port; hc_module = parent.H.nd_module;
                hc_signal =
                  (match conn with
                   | Some (Verilog.Ast.E_ident s) -> s
                   | _ -> "(literal)");
                hc_controls = Sset.elements t.tr_controls;
                hc_values =
                  List.length (List.sort_uniq compare t.tr_values) }
          | None -> None)
      inst.ei_conns

type report = {
  rp_mut : string;
  rp_dead_ends : Extract.dead_end list;
  rp_hard_coded : hard_coded list;
}

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "Testability report for %s\n" r.rp_mut);
  if r.rp_dead_ends = [] && r.rp_hard_coded = [] then
    Buffer.add_string buf "  no issues found\n"
  else begin
    List.iter
      (fun d ->
        Buffer.add_string buf ("  WARNING " ^ Extract.dead_end_to_string d ^ "\n"))
      r.rp_dead_ends;
    List.iter
      (fun h ->
        Buffer.add_string buf ("  WARNING " ^ hard_coded_to_string h ^ "\n"))
      r.rp_hard_coded
  end;
  Buffer.contents buf

(** [analyze env ~mut_path ~dead_ends] assembles the per-MUT testability
    report the tool prints during extraction. *)
let analyze env ~mut_path ~dead_ends =
  Obs.Span.with_ "testability.analyze"
    ~attrs:[ ("mut", Obs.Json.String mut_path) ]
  @@ fun () ->
  let report =
    { rp_mut = mut_path;
      rp_dead_ends = dead_ends;
      rp_hard_coded = hard_coded_inputs env ~mut_path }
  in
  if Obs.Log.enabled Obs.Log.Info
     && (report.rp_dead_ends <> [] || report.rp_hard_coded <> [])
  then
    Obs.Log.event Obs.Log.Info "testability.issues"
      [ ("mut", Obs.Json.String mut_path);
        ("dead_ends", Obs.Json.Int (List.length report.rp_dead_ends));
        ("hard_coded", Obs.Json.Int (List.length report.rp_hard_coded)) ];
  report
