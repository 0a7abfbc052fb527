(** The daemon's request handlers — the socket layer stripped away, so
    tests, benchmarks and the one-shot CLI drive them in-process.

    [extract], [atpg] and [grade] each have a typed core ({!extract},
    {!atpg}, {!grade}: parameters in, typed result out) and a rendering
    of that result through {!Render} as the response object.  The
    one-shot [factor_cli extract|atpg|grade] runs the same core on a
    store-less {!make_ctx}[ ()] with the same parameters a [client]
    would send, and prints the same {!Render} lines, so a daemon answer
    equals the deterministic part of the one-shot output by
    construction.

    Common design parameters (for [ec], nested under ["a"]/["b"]):
    ["design"], a bundled name (["@arm"] or a corpus name like
    ["@gcd"]), or ["source"], Verilog text; either with an optional
    ["top"] (default: the bundled design's top, or the last module in
    the file).

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
    {!Design.Hierarchy.Unknown_path}, an extract-stage error.  An
    [atpg] ["frames"] or an [ec] ["conflict_limit"] below 1 is refused
    before any work with {!Proto.Proto_error}, and so is any parameter
    present with another JSON type than its own (["bad <name>: expected
    int|number|string|bool|object"]): it is never read as absent.
    [grade]'s tests must fit the circuit: a [vec] of another width than
    its inputs, or a [load] of a flip-flop it lacks, is a parse-stage
    error at that line.

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

(** [design_source params] resolves the design parameters to (Verilog
    source, top): a bundled name to its embedded source and top, a
    ["source"] to itself; a given ["top"] wins.
    @raise Proto.Proto_error on an unknown bundled name (the message
    lists the bundled ones) or when neither parameter is given. *)
val design_source : Obs.Json.t -> string * string option

(** [bool_default name ~default params] reads the bool parameter [name]
    by the one rule of every parameter: absent reads as [default].  The
    server reads the protocol-level ["stream"] through it.
    @raise Proto.Proto_error when [name] is present with another JSON
    type. *)
val bool_default : string -> default:bool -> Obs.Json.t -> bool

(** {2 Typed cores}

    Each takes the op's request parameters and returns its result with
    the {!Cache.outcome} of the design lookup.  [budget] (default
    none) bounds the whole call, like a request's ["budget_s"].
    [design_file] and [vectors_file] name the text the parameters carry
    in the errors raised while reading it (see {!Cache.find_or_build});
    the daemon passes neither.  [jobs] is the worker count of test
    generation and grading (default 1, as the daemon runs them);
    results are identical at every count. *)

type extract = {
  x_transform : Factor.Transform.t;
  x_stats : Factor.Compose.stats;
  x_cached : bool;  (** served from the entry's transform memo *)
}

type atpg = {
  a_circuit : Netlist.t;
  a_result : Atpg.Gen.result;
}

type grade = {
  gd_tests : Atpg.Pattern.test list;
  gd_detected : int;
  gd_faults : int;  (** collapsed faults graded *)
}

val extract :
  ?design_file:string -> ?budget:Engine.Budget.t -> ctx -> Obs.Json.t ->
  extract * Cache.outcome

val atpg :
  ?jobs:int -> ?design_file:string -> ?budget:Engine.Budget.t -> ctx ->
  Obs.Json.t -> atpg * Cache.outcome

val grade :
  ?jobs:int -> ?design_file:string -> ?vectors_file:string ->
  ?budget:Engine.Budget.t -> ctx -> Obs.Json.t -> grade * Cache.outcome

(** Dispatch one request to its handler and return the [result] object
    of the response.  [emit] opts the request into streaming (the
    server passes it only when the request asked for [stream: true]):
    each call hands one fully framed event (progress / log) to be
    queued ahead of the final response; {!Obs.Progress} updates and the
    request's own {!Obs.Log} events are converted automatically while
    the handler runs. *)
val handle : ?emit:(string -> unit) -> ctx -> Proto.request -> Obs.Json.t
