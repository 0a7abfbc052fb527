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
    the chain fingerprint.  With a store attached, entries (and new
    alias → fingerprint edges) are persisted after each change, so a
    restarted daemon warm-starts from disk. *)

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

(** [find_or_build t ~budget ~source ~top] resolves [source] to a
    resident entry.  [top] is the requested top module ([None] = the
    last module in the file, resolved after parse).  [budget] guards
    the parse and elaboration of a cold build.
    @raise Engine.Budget.Exhausted when [budget] dies mid-build. *)
val find_or_build :
  t -> budget:Engine.Budget.t -> source:string -> top:string option ->
  entry * outcome

val fingerprint : entry -> string
val top : entry -> string
val env : entry -> Factor.Compose.env
val session : entry -> Factor.Compose.session

(** The fully synthesized circuit of the entry's top, built on first use
    and cached (resident and, when a store is attached, on disk). *)
val circuit : entry -> Netlist.t

(** [transform entry ~budget ~mut ~mode] returns the transformed module
    and extraction stats for [(mut, mode)], extracting and synthesizing
    only on first request; [snd] is [true] on a cache hit. *)
val transform :
  entry -> budget:Engine.Budget.t -> mut:string -> mode:Factor.Flow.mode ->
  (Factor.Transform.t * Factor.Compose.stats) * bool

(** Number of resident entries. *)
val resident : t -> int

(** Drop every resident entry (the store is untouched), so the next
    lookups exercise the disk path. *)
val clear_resident : t -> unit
