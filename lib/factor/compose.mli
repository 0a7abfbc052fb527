(** The two extraction flows of the paper: the conventional (pre-FACTOR)
    level-1 methodology of Tables 2/5, and the compositional
    level-by-level flow of Tables 3/6 whose per-level constraints are
    cached in a session and reused across modules under test. *)

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

(** One elaborated-and-indexed design, reusable across extractions. *)
type env = {
  ed : Design.Elaborate.edesign;
  tree : Design.Hierarchy.node;
  chains : Design.Chains.t Verilog.Ast_util.Smap.t;
}

(** [make_env ?budget design ~top] elaborates and indexes a design once
    for any number of extractions.  Elaboration polls [budget] once per
    module specialization.
    @raise Engine.Budget.Exhausted when [budget] expires. *)
val make_env : ?budget:Engine.Budget.t -> Verilog.Ast.design -> top:string -> env

(** [source_fingerprint ~source ~top] is the raw-text content hash (hex
    MD5 over version, top name, and source bytes).  Any byte change —
    even whitespace — produces a new hash; use it as a cheap alias for a
    (source, top) pair already fingerprinted with
    {!design_fingerprint}. *)
val source_fingerprint : source:string -> top:string -> string

(** [design_fingerprint design ~top] hashes the instantiation-reachable
    module chain from [top] over pretty-printed (canonical) module text,
    so whitespace, comments, and unreachable modules do not affect it
    while any semantic edit to a used module does. *)
val design_fingerprint : Verilog.Ast.design -> top:string -> string

(** @raise Design.Hierarchy.Unknown_path for an unknown instance path. *)
val mut_node : env -> string -> Design.Hierarchy.node

(** [conventional ?budget env ~mut_path] builds the MUT's ATPG view the
    way the pre-composition methodology could: the MUT inside its
    *entire* level-1 ancestor, with the ancestor's interface constraints
    extracted in one coarse whole-design pass.
    @raise Engine.Budget.Exhausted when [budget] expires mid-walk. *)
val conventional : ?budget:Engine.Budget.t -> env -> mut_path:string -> stats

type session

(** A session owns the constraint cache; share one across modules under
    test to reuse constraints the way the paper describes. *)
val create_session : unit -> session

(** Pure-data image of a session's constraint cache — no locks, no
    mutable cells — safe to [Marshal] into the serve daemon's on-disk
    store and stable under [compare]. *)
type session_state

(** Snapshot the cache contents (hit/miss counters excluded). *)
val export_session : session -> session_state

(** Rebuild a session from a snapshot; counters start at zero, so hits
    served from restored entries are counted as fresh traffic. *)
val import_session : session_state -> session

(** [compositional ?budget session env ~mut_path] extracts the MUT's
    ATPG view one hierarchy level at a time, composing per-level
    constraints and reusing previously extracted ones (a request covered
    by a cached one is a pure hit; otherwise only the missing interface
    signals are extracted and merged).
    @raise Engine.Budget.Exhausted when [budget] expires mid-walk. *)
val compositional :
  ?budget:Engine.Budget.t -> session -> env -> mut_path:string -> stats
