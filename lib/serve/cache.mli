(** The daemon's resident design cache, content-addressed and optionally
    backed by an on-disk {!Store}.

    Two-level keying (see DESIGN.md §10):

    - The {b alias hash} is {!Factor.Compose.source_fingerprint} over the
      raw request bytes — computable {i before} parsing.  An alias hit
      returns the resident entry without touching the parser at all, so
      warm repeat traffic on an unchanged design skips every front-end
      phase.
    - The {b chain fingerprint} is {!Factor.Compose.design_fingerprint}
      over the instantiation-reachable module chain of the parsed design.
      It is the entry's identity: whitespace-only edits and edits to
      unreachable modules map to the same fingerprint (the request is
      parsed once, then hits), while any semantic edit to a module the
      top actually uses produces a new fingerprint and a cold build.

    Each entry keeps the elaborated {!Factor.Compose.env}, the
    compositional constraint-cache session, the lazily synthesized full
    circuit, and every transformed module built so far, all keyed under
    the chain fingerprint.  With a store attached, a restarted daemon
    warm-starts from disk.  What is written, and when:

    - an entry's blob once per request that changed it (built it cold,
      synthesized its circuit, added a transform), when the request's
      {!batch} ends — also when the request fails after the change.
      Outside a batch every change is written at once;
    - an alias → fingerprint edge only when it is new to the disk: a
      hit that read its edge from the store writes nothing.  Edges are
      stored with {!Store.put_value}, whose digest binds them to their
      key, so an edge swapped in from another alias (or written bare by
      an older build) reads as a miss and the request parses.

    So a request that derives nothing new writes nothing. *)

type t

(** How a lookup was satisfied: [Cold] built everything, [Warm_mem]
    found the resident entry (by alias or fingerprint), [Warm_disk]
    restored it from the store. *)
type outcome = Cold | Warm_mem | Warm_disk

val outcome_to_string : outcome -> string

(** One resident design. *)
type entry

(** [max_resident] bounds the number of resident entries (clamped to at
    least 1): installing past the bound evicts the least-recently-used
    entries together with their resident alias edges.  Eviction never
    touches the store — with one attached, a re-request of an evicted
    design warm-starts from disk; without one it rebuilds cold.
    Evictions are counted in [factor.serve.cache_evicted]. *)
val create : ?store:Store.t -> ?max_resident:int -> unit -> t

(** [parse_design ?file ?guard source] parses [source]; a lexer or
    parser error is raised as a {!Factor.Errors.Error} of stage [Parse]
    at its line and column, in [file] when given. *)
val parse_design :
  ?file:string -> ?guard:(unit -> unit) -> string -> Verilog.Ast.design

(** [resolve_top ?file design top] is [top], or else the last module of
    [design].
    @raise Factor.Errors.Error (stage [Elaborate], in [file]) when
    [design] has no module. *)
val resolve_top : ?file:string -> Verilog.Ast.design -> string option -> string

(** [find_or_build ?file t ~budget ~source ~top] resolves [source] to a
    resident entry.  [top] is the requested top module ([None] = the
    last module in the file, resolved after parse).  [budget] guards
    the parse and elaboration of a cold build.  [file] only names
    [source] in the errors of a cold build ({!parse_design},
    {!resolve_top}); it is not part of the key.
    @raise Engine.Budget.Exhausted when [budget] dies mid-build. *)
val find_or_build :
  ?file:string -> t -> budget:Engine.Budget.t -> source:string ->
  top:string option -> entry * outcome

val fingerprint : entry -> string
val env : entry -> Factor.Compose.env

(** The fully synthesized circuit of the entry's top, built on first use
    and cached (resident and, when a store is attached, on disk). *)
val circuit : entry -> Netlist.t

(** [transform entry ~budget ~mut ~mode] returns the transformed module
    and extraction stats for [(mut, mode)], extracting and synthesizing
    only on first request; [snd] is [true] on a cache hit. *)
val transform :
  entry -> budget:Engine.Budget.t -> mut:string -> mode:Factor.Flow.mode ->
  (Factor.Transform.t * Factor.Compose.stats) * bool

(** [batch f] runs [f ()] with blob writes deferred: every entry [f]
    changes on this domain is written once, when [f] returns or raises.
    A write that fails then is logged and leaves the entry marked
    changed, so its next change writes it again.  The daemon runs each
    request in one batch. *)
val batch : (unit -> 'a) -> 'a

(** Number of resident entries. *)
val resident : t -> int
