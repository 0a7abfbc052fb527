(** The two recursive subroutines of the paper's Figure 3:
    [find_source_logic] walks the justification cone of a module-under-test
    input up through the hierarchy to the chip pins, and [find_prop_paths]
    walks the observation cones of its outputs down to the chip pins.
    Every visited definition or use site is added to a {!Slice.t}; empty
    def-use / use-def chains are recorded as testability dead ends with a
    full signal trace, exactly as the tool flags them. *)

open Design.Elaborate
module H = Design.Hierarchy
module Ch = Design.Chains
module Smap = Verilog.Ast_util.Smap
module Sset = Verilog.Ast_util.Sset

type dead_end = {
  de_module : string;
  de_signal : string;
  de_kind : [ `Source | `Prop ];
  de_trace : (string * string) list;  (** (module, signal) from the MUT out *)
}

let dead_end_to_string d =
  Printf.sprintf "%s chain empty for %s in %s; trace: %s"
    (match d.de_kind with `Source -> "use-def" | `Prop -> "def-use")
    d.de_signal d.de_module
    (String.concat " <- "
       (List.map (fun (m, s) -> Printf.sprintf "%s:%s" m s) d.de_trace))

type result = {
  rs_slice : Slice.t;
  rs_dead_ends : dead_end list;
  rs_boundary_sources : Sset.t;
      (** input ports of the stop module still requiring source logic *)
  rs_boundary_props : Sset.t;
      (** output ports of the stop module still requiring propagation *)
  rs_reached_pi : bool;
  rs_reached_po : bool;
  rs_visited_signals : int;  (** traversal-size statistic *)
}

type granularity =
  | Coarse  (** whole always blocks / items — the conventional
                methodology of Tupuri et al. *)
  | Fine    (** individual leaf statements with their enclosing
                conditionals — FACTOR's compositional refinement *)

type ctx = {
  ed : edesign;
  tree : H.node;
  chains : Ch.t Smap.t;
  stop : H.node;
  granularity : granularity;
  budget : Engine.Budget.t;
  mutable slice : Slice.t;
  visited : (string * [ `Source | `Prop ] * string, unit) Hashtbl.t;
  mutable dead_ends : dead_end list;
  mutable boundary_sources : Sset.t;
  mutable boundary_props : Sset.t;
  mutable reached_pi : bool;
  mutable reached_po : bool;
  mutable visit_count : int;
}

(* Budget cadence: the walks are recursive with no outer loop to poll
   from, so the visit counter doubles as the poll clock — one [poll]
   (a clock read) every 64 visited signals, a cheap flag load otherwise.
   Expiry raises [Engine.Budget.Exhausted "extract"]: a partial slice
   under-constrains the MUT, so aborting is the only sound answer. *)
let visit_guard ctx =
  ctx.visit_count <- ctx.visit_count + 1;
  if ctx.visit_count land 63 = 0 then
    Engine.Budget.guard ~site:"extract" ctx.budget
  else if Engine.Budget.check ctx.budget then
    raise (Engine.Budget.Exhausted "extract")

let is_root node = node.H.nd_path = []

let chains_of ctx module_name =
  match Smap.find_opt module_name ctx.chains with
  | Some ch -> ch
  | None -> raise (Design.Elaborate.Error ("no chains for " ^ module_name))

let coarsen ctx site =
  match ctx.granularity with
  | Fine -> site
  | Coarse -> { site with Ch.st_path = [] }

let keep ctx module_name site = ctx.slice <- Slice.add ctx.slice module_name site

(* The connection expression bound to [port] of instance [inst]. *)
let connection inst port = List.assoc port inst.ei_conns

(* ------------------------------------------------------------------ *)
(* find_source_logic                                                   *)
(* ------------------------------------------------------------------ *)

let rec find_source_logic ctx node signal trace =
  visit_guard ctx;
  let key = (H.path_to_string node.H.nd_path, `Source, signal) in
  if not (Hashtbl.mem ctx.visited key) then begin
    Hashtbl.add ctx.visited key ();
    let em = find_emodule ctx.ed node.H.nd_module in
    let chains = chains_of ctx node.H.nd_module in
    let defs = Ch.defs_of chains signal in
    let trace = (node.H.nd_module, signal) :: trace in
    if Ch.Site_set.is_empty defs then begin
      match (signal_of em signal).sg_dir with
      | Some Input | Some Inout -> source_through_port ctx node signal trace
      | Some Output | None ->
        ctx.dead_ends <-
          { de_module = node.H.nd_module; de_signal = signal;
            de_kind = `Source; de_trace = List.rev trace }
          :: ctx.dead_ends
    end
    else
      Ch.Site_set.iter
        (fun site -> source_from_site ctx node em signal site trace)
        defs
  end

and source_through_port ctx node signal trace =
  (* step 1 of the pseudocode: stop at the top module (or the composition
     boundary) *)
  if node.H.nd_path = ctx.stop.H.nd_path then begin
    if is_root node then ctx.reached_pi <- true
    else ctx.boundary_sources <- Sset.add signal ctx.boundary_sources
  end
  else
    match H.parent_of ctx.tree node with
    | None -> ctx.reached_pi <- true  (* detached subtree: treat as pins *)
    | Some parent ->
      let inst = H.instance_item ctx.ed parent node in
      (* keep the instance item in the parent so reconstruction retains
         the hierarchy *)
      (match connection inst signal with
       | None -> ()  (* unconnected input: constant zero, nothing to keep *)
       | Some conn ->
         keep_instance_site ctx parent node;
         Sset.iter
           (fun s -> find_source_logic ctx parent s trace)
           (Verilog.Ast_util.expr_signals conn))

and keep_instance_site ctx parent node =
  let parent_em = find_emodule ctx.ed parent.H.nd_module in
  let inst_name = List.nth node.H.nd_path (List.length node.H.nd_path - 1) in
  Array.iteri
    (fun idx item ->
      match item with
      | EI_instance i when String.equal i.ei_name inst_name ->
        keep ctx parent.H.nd_module { Ch.st_item = idx; st_path = [] }
      | _ -> ())
    parent_em.em_items

and source_from_site ctx node em signal site trace =
  let site = coarsen ctx site in
  keep ctx node.H.nd_module site;
  match em.em_items.(site.Ch.st_item) with
  | EI_instance inst ->
    (* the signal is driven by a child instance's output port: recurse
       into the child on every output whose connection mentions it *)
    let child = H.child node inst.ei_name in
    let child_em = find_emodule ctx.ed inst.ei_module in
    List.iter
      (fun (port, conn) ->
        match conn with
        | Some e
          when port_dir child_em port = Output
               && Sset.mem signal (Verilog.Ast_util.expr_signals e) ->
          find_source_logic ctx child port trace
        | _ -> ())
      inst.ei_conns
  | EI_always (clocking, _) ->
    (* steps 4-6: justify the right-hand side and the enclosing
       conditionals; clocked logic also needs its clock distribution *)
    (match clocking with
     | Clocked clk -> find_source_logic ctx node clk trace
     | Combinational -> ());
    let reads = Ch.site_reads ctx.ed em site in
    Sset.iter (fun s -> find_source_logic ctx node s trace) reads
  | EI_assign _ | EI_gate _ ->
    let reads = Ch.site_reads ctx.ed em site in
    Sset.iter (fun s -> find_source_logic ctx node s trace) reads

(* ------------------------------------------------------------------ *)
(* find_prop_paths                                                     *)
(* ------------------------------------------------------------------ *)

let rec find_prop_paths ctx node signal trace =
  visit_guard ctx;
  let key = (H.path_to_string node.H.nd_path, `Prop, signal) in
  if not (Hashtbl.mem ctx.visited key) then begin
    Hashtbl.add ctx.visited key ();
    let em = find_emodule ctx.ed node.H.nd_module in
    let chains = chains_of ctx node.H.nd_module in
    let trace = (node.H.nd_module, signal) :: trace in
    let dir = (signal_of em signal).sg_dir in
    (* an output port of the stop module is already observable *)
    if (dir = Some Output || dir = Some Inout)
       && node.H.nd_path = ctx.stop.H.nd_path
    then begin
      if is_root node then ctx.reached_po <- true
      else ctx.boundary_props <- Sset.add signal ctx.boundary_props
    end
    else begin
      let uses = Ch.uses_of chains signal in
      let upward = dir = Some Output || dir = Some Inout in
      if Ch.Site_set.is_empty uses && not upward then
        ctx.dead_ends <-
          { de_module = node.H.nd_module; de_signal = signal;
            de_kind = `Prop; de_trace = List.rev trace }
          :: ctx.dead_ends
      else begin
        if upward then prop_through_port ctx node signal trace;
        Ch.Site_set.iter
          (fun site -> prop_from_site ctx node em signal site trace)
          uses
      end
    end
  end

and prop_through_port ctx node signal trace =
  match H.parent_of ctx.tree node with
  | None -> ctx.reached_po <- true
  | Some parent ->
    let inst = H.instance_item ctx.ed parent node in
    (match connection inst signal with
     | None -> ()  (* output left unconnected here *)
     | Some conn ->
       keep_instance_site ctx parent node;
       Sset.iter
         (fun s -> find_prop_paths ctx parent s trace)
         (Verilog.Ast_util.expr_signals conn))

and prop_from_site ctx node em signal site trace =
  let site = coarsen ctx site in
  keep ctx node.H.nd_module site;
  match em.em_items.(site.Ch.st_item) with
  | EI_instance inst ->
    (* the signal feeds a child's input ports: propagate inside the
       child *)
    let child = H.child node inst.ei_name in
    let child_em = find_emodule ctx.ed inst.ei_module in
    List.iter
      (fun (port, conn) ->
        match conn with
        | Some e
          when port_dir child_em port = Input
               && Sset.mem signal (Verilog.Ast_util.expr_signals e) ->
          find_prop_paths ctx child port trace
        | _ -> ())
      inst.ei_conns
  | (EI_always _ | EI_assign _ | EI_gate _) as item ->
    (match item with
     | EI_always (Clocked clk, _) -> find_source_logic ctx node clk trace
     | _ -> ());
    (* step 4: side inputs at the use site need source logic *)
    let reads = Ch.site_reads ctx.ed em site in
    Sset.iter
      (fun s -> if not (String.equal s signal) then find_source_logic ctx node s trace)
      reads;
    (* step 5: whatever the site drives continues the propagation *)
    let writes = Ch.site_writes em site in
    Sset.iter (fun s -> find_prop_paths ctx node s trace) writes

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

(** [run ~ed ~tree ~chains ~stop ~node ~sources ~props] extracts the
    constraints needed to justify [sources] (signals of [node]'s module)
    and to observe [props], walking the hierarchy but never above
    [stop].  When [stop] is the tree root, reaching it records chip
    pin accessibility; otherwise the still-open requests on [stop]'s
    ports are returned as boundaries for the compositional flow. *)
let m_source_walks = Obs.Metrics.counter "factor.extract.source_walks"
let m_prop_walks = Obs.Metrics.counter "factor.extract.prop_walks"
let m_visited = Obs.Metrics.counter "factor.extract.visited_signals"
let m_dead_ends = Obs.Metrics.counter "factor.extract.dead_ends"

let run ?(budget = Engine.Budget.none) ~ed ~tree ~chains ~stop ~granularity
    ~node ~sources ~props () =
  let ctx =
    { ed; tree; chains; stop; granularity; budget;
      slice = Slice.empty;
      visited = Hashtbl.create 256;
      dead_ends = [];
      boundary_sources = Sset.empty;
      boundary_props = Sset.empty;
      reached_pi = false;
      reached_po = false;
      visit_count = 0 }
  in
  (* per-signal spans: guard attr construction so extraction with
     tracing off allocates nothing for instrumentation *)
  List.iter
    (fun s ->
      Obs.Metrics.incr m_source_walks;
      if Obs.Span.enabled () then
        Obs.Span.with_ "extract.source"
          ~attrs:[ ("signal", Obs.Json.String s) ]
          (fun () -> find_source_logic ctx node s [])
      else find_source_logic ctx node s [])
    sources;
  List.iter
    (fun s ->
      Obs.Metrics.incr m_prop_walks;
      if Obs.Span.enabled () then
        Obs.Span.with_ "extract.prop"
          ~attrs:[ ("signal", Obs.Json.String s) ]
          (fun () -> find_prop_paths ctx node s [])
      else find_prop_paths ctx node s [])
    props;
  Obs.Metrics.add m_visited ctx.visit_count;
  Obs.Metrics.add m_dead_ends (List.length ctx.dead_ends);
  { rs_slice = ctx.slice;
    rs_dead_ends = List.rev ctx.dead_ends;
    rs_boundary_sources = ctx.boundary_sources;
    rs_boundary_props = ctx.boundary_props;
    rs_reached_pi = ctx.reached_pi;
    rs_reached_po = ctx.reached_po;
    rs_visited_signals = ctx.visit_count }
