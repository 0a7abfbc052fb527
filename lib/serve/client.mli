(** Blocking client for the serve daemon.

    One connection, synchronous RPC: {!rpc} sends a request and reads
    frames until the response with the matching id arrives; responses
    for other outstanding ids (none, unless the caller interleaves ids
    manually) are stashed and returned when asked for.

    Streaming: [rpc ~stream:true ~on_event:f] opts the request into
    event frames (see {!Proto.event}); [f] receives each decoded event
    payload for this request as it arrives — progress, relayed log
    records, heartbeats — and the call still returns the final [result]
    exactly as a non-streaming rpc would.

    Hangs: [rpc ~timeout:s] bounds the {e idle} time — the seconds with
    no frame at all on the wire.  Any frame (a heartbeat included)
    restarts the clock, so a slow-but-alive streaming request never
    trips it while a wedged daemon does.  Expiry raises {!Timeout}. *)

type t

(** @raise Unix.Unix_error when the daemon is not reachable. *)
val connect : Server.addr -> t

(** [connect_retry addr] retries [connect] while the daemon is still
    booting (50 attempts, 0.1 s apart).
    @raise Unix.Unix_error when every attempt fails. *)
val connect_retry : Server.addr -> t

val close : t -> unit

(** Raised when the daemon answers [ok: false]; carries (stage, msg)
    from the error object. *)
exception Server_error of string * string

(** Raised when no frame arrived within [timeout] seconds; carries the
    timeout that expired. *)
exception Timeout of float

(** [rpc t ~op ~params] performs one round trip and returns the
    response's [result] object.  The response's metrics delta (see
    {!Proto}: it includes concurrent requests' work), when present, is
    available via {!last_metrics}.

    [req] is the correlation id sent as the ["req"] parameter and
    stamped on the client's own [client.rpc] span; defaults to
    ["c<pid>-<rpc id>"].  [stream] opts into event frames; [on_event]
    receives each one (decoded payload, this request's id only).
    [timeout] is the idle timeout in seconds (default: wait forever).

    @raise Server_error on an [ok: false] response.
    @raise Timeout when the idle timeout expires.
    @raise Proto.Proto_error on a malformed response.
    @raise End_of_file when the daemon closed the connection. *)
val rpc :
  ?timeout:float ->
  ?on_event:(Obs.Json.t -> unit) ->
  ?req:string ->
  ?stream:bool ->
  t ->
  op:string ->
  params:(string * Obs.Json.t) list ->
  Obs.Json.t

(** Metrics delta attached to the most recent {!rpc} response. *)
val last_metrics : t -> Obs.Json.t option
