(** The daemon's request handlers — the socket layer stripped away, so
    tests and benchmarks drive them in-process.

    Every design-bearing op resolves its design through the shared
    {!Cache}, accepts the same parameters, and renders its results
    through {!Render}, so a warm daemon answer is byte-identical to the
    deterministic part of the corresponding one-shot CLI output.

    Common design parameters (for [ec], nested under ["a"]/["b"]):
    - ["design"]: a bundled name — ["@arm"] or a corpus name like
      ["@gcd"] — or
    - ["source"]: Verilog text, with optional ["top"] (default: the last
      module in the file).

    Ops: ["ping"], ["metrics"] (Prometheus text), ["extract"] (["mut"],
    ["mode"], optional ["emit_verilog"]), ["atpg"] (["mut"], ["budget"],
    ["fault_budget"], ["frames"], ["piers"], ["engine"], ["seed"]),
    ["grade"] (["vectors"] as vector-file text, ["mut"], ["piers"]),
    ["ec"] (["a"], ["b"], ["conflict_limit"]).  Every op also accepts
    ["budget_s"], a wall-clock bound for the whole request, plus two
    protocol-level parameters: ["req"], a client-chosen correlation id
    stamped into every span and log record the request emits (default
    ["rq-<id>"]), and ["stream"], which opts the request into event
    frames (see {!Proto.event}).

    A given ["mut"] must name an instance of the design: it is resolved
    before any work, and an unknown path raises
    {!Design.Hierarchy.Unknown_path}, an extract-stage error.

    {!handle} raises on failure — {!Factor.Errors.Error},
    {!Design.Hierarchy.Unknown_path}, {!Engine.Budget.Exhausted},
    {!Proto.Proto_error}, {!Engine.Chaos.Injected} — and the server maps
    the exception to an error response for that request only. *)

type ctx

(** [make_ctx ?store ?max_resident ?default_budget ()] —
    [default_budget] (seconds) bounds requests that do not carry their
    own ["budget_s"]; [max_resident] bounds the resident cache (see
    {!Cache.create}). *)
val make_ctx :
  ?store:Store.t -> ?max_resident:int -> ?default_budget:float -> unit -> ctx

val cache : ctx -> Cache.t

(** Dispatch one request to its handler and return the [result] object
    of the response.  [emit] opts the request into streaming (the
    server passes it only when the request asked for [stream: true]):
    each call hands one fully framed event (progress / log) to be
    queued ahead of the final response; {!Obs.Progress} updates and the
    request's own {!Obs.Log} events are converted automatically while
    the handler runs. *)
val handle : ?emit:(string -> unit) -> ctx -> Proto.request -> Obs.Json.t
