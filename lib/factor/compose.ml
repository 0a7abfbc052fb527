(** The two extraction flows of the paper.

    {b Conventional} (Tables 2/5): a single whole-hierarchy pass at
    module/block granularity — the methodology of Tupuri et al. that
    FACTOR improves on.

    {b Compositional} (Tables 3/6): constraints are extracted one
    hierarchy level at a time at statement granularity, and each level's
    result is cached by (module, interface request) so later modules
    under test — or repeated instances — reuse it.  This cache is what
    makes the extraction times of Table 3 lower than Table 2. *)

module H = Design.Hierarchy
module Ch = Design.Chains
module Smap = Verilog.Ast_util.Smap
module Sset = Verilog.Ast_util.Sset

type stats = {
  cs_slice : Slice.t;
  cs_dead_ends : Extract.dead_end list;
  cs_reached_pi : bool;
  cs_reached_po : bool;
  cs_extraction_time : float;  (** CPU seconds *)
  cs_cache_hits : int;
  cs_cache_misses : int;
  cs_stages : int;
  cs_visited : int;
}

type env = {
  ed : Design.Elaborate.edesign;
  tree : H.node;
  chains : Ch.t Smap.t;
}

(** [make_env ?budget design ~top] elaborates and indexes a design once
    for any number of extractions.  Elaboration polls [budget] once per
    module specialization. *)
let make_env ?(budget = Engine.Budget.none) design ~top =
  let guard () = Engine.Budget.guard ~site:"elaborate" budget in
  let ed = Design.Elaborate.elaborate ~guard design ~top in
  { ed; tree = H.build ed; chains = Ch.build_all ed }

(* ------------------------------------------------------------------ *)
(* Content-addressed fingerprints.                                     *)
(* ------------------------------------------------------------------ *)

(* Bump when anything that feeds a fingerprint changes meaning (the
   pretty-printer, elaboration semantics, the traversal below), so stale
   on-disk cache entries keyed by an old scheme can never alias. *)
let fingerprint_version = "factor-fp-2"

(** [source_fingerprint ~source ~top] is the raw-text content hash: MD5
    over the version tag, the top module name, and the source bytes.  Two
    byte-identical (source, top) pairs always collide; any edit — even
    whitespace — changes it.  Used as a fast alias for a design already
    fingerprinted structurally. *)
let source_fingerprint ~source ~top =
  Digest.to_hex
    (Digest.string (fingerprint_version ^ "\x00" ^ top ^ "\x00" ^ source))

(** [design_fingerprint design ~top] hashes the instantiation-reachable
    module chain from [top]: each reachable module is pretty-printed back
    to canonical Verilog and folded (in first-reach DFS order, which is
    deterministic) into one MD5.  Whitespace, comments, and modules not
    reachable from [top] do not affect it, so a cache keyed by this hash
    survives cosmetic edits while any semantic change to a module the
    design actually uses invalidates it. *)
let design_fingerprint design ~top =
  Obs.Span.with_ "compose.fingerprint" @@ fun () ->
  let buf = Buffer.create 4096 in
  Buffer.add_string buf fingerprint_version;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf top;
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match Verilog.Ast.find_module design name with
      | exception Not_found -> ()  (* elaboration will report it *)
      | m ->
        Buffer.add_char buf '\x00';
        Buffer.add_string buf name;
        Buffer.add_char buf '\x00';
        Buffer.add_string buf
          (Digest.to_hex (Digest.string (Verilog.Pp.module_to_string m)));
        List.iter
          (function
            | Verilog.Ast.I_instance i -> visit i.Verilog.Ast.inst_module
            | _ -> ())
          m.Verilog.Ast.mod_items
    end
  in
  visit top;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let mut_node env mut_path = H.find_path env.tree mut_path

(* Mark the MUT and everything below it as kept-whole. *)
let full_mut node slice =
  let rec mark slice node =
    let slice = Slice.mark_full slice node.H.nd_module in
    List.fold_left mark slice node.H.nd_children
  in
  mark slice node

(* ------------------------------------------------------------------ *)
(* Conventional flow.                                                  *)
(* ------------------------------------------------------------------ *)

(** [conventional env ~mut_path] builds the MUT's ATPG view the way the
    pre-composition methodology of Tupuri et al. could: constraints are
    only extractable at the first level of hierarchy, so a deeply embedded
    MUT is tested inside its *entire* level-1 ancestor, whose interface
    constraints are extracted in one coarse whole-design pass.  This is
    the "surrounding logic may prove to be too complex" limitation the
    paper's compositional flow removes. *)
let conventional ?budget env ~mut_path =
  Obs.Span.with_ "extract.conventional"
    ~attrs:[ ("mut", Obs.Json.String mut_path) ]
  @@ fun () ->
  let t0 = Sys.time () in
  let node = mut_node env mut_path in
  (* level-1 ancestor (or the MUT itself if already at level 1) *)
  let rec ancestor n =
    match H.parent_of env.tree n with
    | Some p when p.H.nd_path <> [] -> ancestor p
    | _ -> n
  in
  let anchor = ancestor node in
  let em = Design.Elaborate.find_emodule env.ed anchor.H.nd_module in
  let result =
    Extract.run ?budget ~ed:env.ed ~tree:env.tree ~chains:env.chains
      ~stop:env.tree ~granularity:Extract.Coarse ~node:anchor
      ~sources:(Design.Elaborate.inputs_of em)
      ~props:(Design.Elaborate.outputs_of em) ()
  in
  let slice = full_mut anchor result.Extract.rs_slice in
  { cs_slice = slice;
    cs_dead_ends = result.Extract.rs_dead_ends;
    cs_reached_pi = result.Extract.rs_reached_pi;
    cs_reached_po = result.Extract.rs_reached_po;
    cs_extraction_time = Sys.time () -. t0;
    cs_cache_hits = 0;
    cs_cache_misses = 1;
    cs_stages = 1;
    cs_visited = result.Extract.rs_visited_signals }

(* ------------------------------------------------------------------ *)
(* Compositional flow.                                                 *)
(* ------------------------------------------------------------------ *)

type stage_result = {
  sg_slice : Slice.t;
  sg_bsrcs : string list;
  sg_bprops : string list;
  sg_deads : Extract.dead_end list;
  sg_visited : int;
}

(* Cumulative per-level constraints: the union of every interface request
   seen so far for (parent module, child instance).  A request covered by
   the cached one is a pure reuse; otherwise only the missing signals are
   extracted and merged in. *)
type cache_entry = {
  mutable ce_srcs : Sset.t;
  mutable ce_props : Sset.t;
  mutable ce_result : stage_result;
}

type session = {
  ss_cache : (string, cache_entry) Hashtbl.t;
  ss_lock : Mutex.t;
  mutable ss_hits : int;
  mutable ss_misses : int;
}

(** A session owns the constraint cache; share one session across modules
    under test to reuse constraints the way the paper describes.

    Concurrency policy: the MUT-parallel flow fills the cache by running
    the per-MUT extractions sequentially (so hit/miss counts stay
    deterministic) and only fans out the downstream ATPG; [ss_lock]
    additionally serializes {!run_stage} so concurrent readers that do
    slip in — e.g. a transform flow re-deriving a view — stay safe. *)
let create_session () =
  { ss_cache = Hashtbl.create 64;
    ss_lock = Mutex.create ();
    ss_hits = 0;
    ss_misses = 0 }

let stage_key ~parent ~node =
  parent.H.nd_module ^ "|" ^ H.path_to_string node.H.nd_path

(* Pure-data image of a session's cache, for the serve daemon's on-disk
   store: no mutexes, no mutable fields, Marshal-safe. *)
type session_state = (string * (Sset.t * Sset.t * stage_result)) list

let export_session s =
  Mutex.protect s.ss_lock @@ fun () ->
  Hashtbl.fold
    (fun key e acc -> (key, (e.ce_srcs, e.ce_props, e.ce_result)) :: acc)
    s.ss_cache []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let import_session st =
  let s = create_session () in
  List.iter
    (fun (key, (srcs, props, r)) ->
      Hashtbl.replace s.ss_cache key
        { ce_srcs = srcs; ce_props = props; ce_result = r })
    st;
  s

let merge_stage a b =
  { sg_slice = Slice.union a.sg_slice b.sg_slice;
    sg_bsrcs = List.sort_uniq compare (a.sg_bsrcs @ b.sg_bsrcs);
    sg_bprops = List.sort_uniq compare (a.sg_bprops @ b.sg_bprops);
    sg_deads = a.sg_deads @ b.sg_deads;
    sg_visited = a.sg_visited + b.sg_visited }

(* One level of extraction: justify/observe [sources]/[props] on [node]'s
   interface without going above [parent]. *)
let m_stage_hits = Obs.Metrics.counter "factor.compose.cache_hits"
let m_stage_misses = Obs.Metrics.counter "factor.compose.cache_misses"

let log_stage kind key =
  if Obs.Log.enabled Obs.Log.Debug then
    Obs.Log.event Obs.Log.Debug "compose.stage"
      [ ("cache", Obs.Json.String kind); ("key", Obs.Json.String key) ]

let run_stage ?budget session env ~parent ~node ~sources ~props =
  Mutex.protect session.ss_lock @@ fun () ->
  let key = stage_key ~parent ~node in
  let extract sources props =
    let result =
      Extract.run ?budget ~ed:env.ed ~tree:env.tree ~chains:env.chains
        ~stop:parent ~granularity:Extract.Fine ~node ~sources ~props ()
    in
    { sg_slice = result.Extract.rs_slice;
      sg_bsrcs = Sset.elements result.Extract.rs_boundary_sources;
      sg_bprops = Sset.elements result.Extract.rs_boundary_props;
      sg_deads = result.Extract.rs_dead_ends;
      sg_visited = result.Extract.rs_visited_signals }
  in
  let want_srcs = Sset.of_list sources and want_props = Sset.of_list props in
  match Hashtbl.find_opt session.ss_cache key with
  | Some entry
    when Sset.subset want_srcs entry.ce_srcs
         && Sset.subset want_props entry.ce_props ->
    session.ss_hits <- session.ss_hits + 1;
    Obs.Metrics.incr m_stage_hits;
    log_stage "hit" key;
    entry.ce_result
  | Some entry ->
    (* partial reuse: extract only the signals not yet covered *)
    session.ss_misses <- session.ss_misses + 1;
    Obs.Metrics.incr m_stage_misses;
    log_stage "partial-miss" key;
    let missing_srcs = Sset.elements (Sset.diff want_srcs entry.ce_srcs) in
    let missing_props = Sset.elements (Sset.diff want_props entry.ce_props) in
    let delta = extract missing_srcs missing_props in
    entry.ce_srcs <- Sset.union entry.ce_srcs want_srcs;
    entry.ce_props <- Sset.union entry.ce_props want_props;
    entry.ce_result <- merge_stage entry.ce_result delta;
    entry.ce_result
  | None ->
    session.ss_misses <- session.ss_misses + 1;
    Obs.Metrics.incr m_stage_misses;
    log_stage "miss" key;
    let r = extract sources props in
    Hashtbl.add session.ss_cache key
      { ce_srcs = want_srcs; ce_props = want_props; ce_result = r };
    r

(** [compositional session env ~mut_path] extracts the MUT's ATPG view
    level by level, composing the per-level constraints and reusing
    previously extracted ones through [session]. *)
let compositional ?budget session env ~mut_path =
  Obs.Span.with_ "extract.compositional"
    ~attrs:[ ("mut", Obs.Json.String mut_path) ]
  @@ fun () ->
  let t0 = Sys.time () in
  let hits0 = session.ss_hits and misses0 = session.ss_misses in
  let node0 = mut_node env mut_path in
  let em0 = Design.Elaborate.find_emodule env.ed node0.H.nd_module in
  let rec stages node sources props slice deads stage_count visited =
    match H.parent_of env.tree node with
    | None ->
      (* the MUT is the top module: nothing surrounds it *)
      (slice, deads, stage_count, visited, true, true)
    | Some parent ->
      let r = run_stage ?budget session env ~parent ~node ~sources ~props in
      let slice = Slice.union slice r.sg_slice in
      let deads = deads @ r.sg_deads in
      let visited = visited + r.sg_visited in
      if H.parent_of env.tree parent = None then
        (* the stage ran against the top module: reaching its ports means
           reaching chip pins *)
        (slice, deads, stage_count + 1, visited, true, true)
      else if r.sg_bsrcs = [] && r.sg_bprops = [] then
        (slice, deads, stage_count + 1, visited, true, true)
      else
        stages parent r.sg_bsrcs r.sg_bprops slice deads (stage_count + 1)
          visited
  in
  let (slice, deads, stage_count, visited, pi, po) =
    stages node0
      (Design.Elaborate.inputs_of em0)
      (Design.Elaborate.outputs_of em0)
      Slice.empty [] 0 0
  in
  let slice = full_mut node0 slice in
  { cs_slice = slice;
    cs_dead_ends = deads;
    cs_reached_pi = pi;
    cs_reached_po = po;
    cs_extraction_time = Sys.time () -. t0;
    cs_cache_hits = session.ss_hits - hits0;
    cs_cache_misses = session.ss_misses - misses0;
    cs_stages = stage_count;
    cs_visited = visited }
