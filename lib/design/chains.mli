(** Def-use and use-def chains over an elaborated module — the internal
    data structure of the paper's Figure 2, at leaf-statement
    granularity. *)

(** A definition or use site inside a module: an item index plus a path
    into the statement tree ([[]] for whole-item sites). *)
type site = {
  st_item : int;
  st_path : int list;
}

val site_to_string : site -> string

module Site_set : Set.S with type elt = site

type t = {
  ch_module : string;
  ch_use_def : Site_set.t Verilog.Ast_util.Smap.t;
      (** signal -> sites that define it *)
  ch_def_use : Site_set.t Verilog.Ast_util.Smap.t;
      (** signal -> sites that read it *)
}

(** [build ed em] computes the chains for one module.  Instance
    connections count as definitions (child outputs driving a net) or
    uses (nets feeding child inputs). *)
val build : Elaborate.edesign -> Elaborate.emodule -> t

(** Chains for every module of a design, keyed by module name. *)
val build_all : Elaborate.edesign -> t Verilog.Ast_util.Smap.t

(** Sites defining [signal] (the use-def chain). *)
val defs_of : t -> string -> Site_set.t

(** Sites reading [signal] (the def-use chain). *)
val uses_of : t -> string -> Site_set.t

(** The leaf statement at an always-block site, with the condition
    expressions dominating it; [None] for whole-item sites. *)
val site_leaf :
  Elaborate.emodule -> site ->
  (Verilog.Ast.stmt * Verilog.Ast.expr list) option

(** Signals read at a site: the leaf's right-hand side, its index reads,
    and its dominating conditions; for instance sites, every signal
    feeding a child input. *)
val site_reads :
  Elaborate.edesign -> Elaborate.emodule -> site -> Verilog.Ast_util.Sset.t

(** Signals written at a site. *)
val site_writes : Elaborate.emodule -> site -> Verilog.Ast_util.Sset.t
