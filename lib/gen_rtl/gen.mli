(** Seeded bottom-up RTL generation: random leaf modules (combinational
    and sequential, multi-bit ports) composed into multi-level module
    hierarchies with embedded MUT candidates, emitted in exactly the
    Verilog subset {!Verilog.Parser} accepts.

    Everything is a pure function of the seed: the same seed always
    yields byte-identical source, so any failing design is replayable
    from its seed alone — the [FACTOR_SEED] contract of the test suites
    extended to whole hierarchies. *)

(** One generated module: its source text and interface.  [m_inputs]
    excludes the [clk] port, which every module carries (and ignores
    when purely combinational) so clock threading is uniform. *)
type modu = {
  m_name : string;
  m_src : string;
  m_inputs : (string * int) list;
  m_outputs : (string * int) list;
  m_sequential : bool;
}

(** [leaf rng ~name ~sequential] draws one flat module: layered wires
    (acyclic by construction), and — when sequential — clocked
    registers plus a small register array, a combinational always block
    with case/casez, outputs observing a sample of everything. *)
val leaf : Random.State.t -> name:string -> sequential:bool -> modu

(** A generated hierarchical design.  [d_ast] is the parse of
    [d_source] (generation emits text and re-parses it, so the result
    is in the accepted subset by construction).  [d_muts] lists every
    instance path reachable from [d_top], deepest last — the MUT
    candidates. *)
type design = {
  d_seed : int;
  d_source : string;
  d_ast : Verilog.Ast.design;
  d_top : string;
  d_muts : string list;
}

(** [generate ~seed ()] builds one hierarchical design: three leaf
    modules (the first sequential), one level of two composites, then
    [top]; each composite instantiates two or three modules of the level
    below.  Deterministic in [seed]. *)
val generate : seed:int -> unit -> design

(** Elaborate + flatten + lower [ast] at [top]. *)
val circuit_of : Verilog.Ast.design -> top:string -> Netlist.t
