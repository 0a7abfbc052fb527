(** Wire protocol of the FACTOR daemon: length-prefixed JSON frames over
    a Unix-domain or TCP stream socket.

    Framing: every message — request or response — travels as

    {v <payload length in decimal ASCII>\n<payload bytes>\n v}

    where the payload is one compact JSON value.  The prefix makes
    message boundaries independent of the JSON contents, and the
    trailing newline keeps a captured stream greppable.

    Requests: [{"id": n, "op": "...", "params": {...}}].  [id] is chosen
    by the client and echoed in the response; responses may arrive out
    of request order (jobs run concurrently on the pool), so clients
    match on it.  Responses: [{"id": n, "ok": true, "result": {...},
    "metrics": {...}}] on success — [metrics] is the per-request
    {!Obs.Metrics} delta — or [{"id": n, "ok": false, "error":
    {"stage": "...", "msg": "..."}}] on failure, with [stage] from the
    {!Factor.Errors} taxonomy. *)

exception Proto_error of string

type request = {
  rq_id : int;
  rq_op : string;
  rq_params : Obs.Json.t;  (** an object, or [Null] when omitted *)
}

(** Encode a request as a framed message (prefix + payload + newline). *)
val encode_request : request -> string

(** Decode one request payload.
    @raise Proto_error on missing/ill-typed fields. *)
val request_of_json : Obs.Json.t -> request

(** [ok_frame ~id ?metrics result] is a framed success response. *)
val ok_frame : id:int -> ?metrics:Obs.Json.t -> Obs.Json.t -> string

(** [error_frame ~id ~stage ~msg] is a framed failure response. *)
val error_frame : id:int -> stage:string -> msg:string -> string

(** {1 Event frames}

    A request sent with [params.stream = true] may receive any number of
    {e event frames} before its final response.  An event frame is an
    object carrying the request's [id] plus an ["event"] discriminator —
    a frame {e without} an ["event"] member is the final response, whose
    bytes are identical to a non-streaming run.  Grammar:

    {v {"id": n, "event": "progress", "req": "...", "phase": "...",
    "reporter": k, "done": d, "total": t, "rate": r, "eta_s": e,
    "final": b}
   {"id": n, "event": "log", "req": "...", "level": "...",
    "msg": "...", "attrs": {...}}
   {"id": n, "event": "heartbeat"} v}

    [total = 0] means unknown; [eta_s < 0] means no estimate.  [done]
    is non-decreasing and [total] stable within one [(phase, reporter)]
    group.  Heartbeats are emitted by the server loop while a streaming
    request is in flight, so a client-side idle timeout distinguishes a
    slow request (frames keep arriving) from a wedged daemon (silence). *)

type event =
  | Ev_progress of {
      ep_phase : string;
      ep_reporter : int;
      ep_done : int;
      ep_total : int;     (** 0 when unknown *)
      ep_rate : float;
      ep_eta_s : float;   (** negative when unknown *)
      ep_final : bool;
    }
  | Ev_log of {
      el_level : string;
      el_msg : string;
      el_attrs : Obs.Json.t;
    }
  | Ev_heartbeat

(** [event_frame ~id ?req ev] is a framed event for request [id]. *)
val event_frame : id:int -> ?req:string -> event -> string

(** Does this decoded payload carry an ["event"] member?  [false] means
    it is a final response. *)
val is_event : Obs.Json.t -> bool

(** Decode an event payload; [None] when the payload is a final
    response (no ["event"] member).
    @raise Proto_error on an unknown event kind. *)
val event_of_json : Obs.Json.t -> event option

(** Frame one already-rendered payload. *)
val frame : string -> string

(** {1 Incremental frame reader}

    Feed raw bytes as they arrive; complete frames pop out.  Both the
    server's non-blocking event loop and the client read frames through
    it. *)

type reader

val create_reader : unit -> reader

(** Append [len] bytes of [b] (from offset 0). *)
val feed : reader -> bytes -> int -> unit

(** Pop the next complete frame payload, if one is buffered.
    @raise Proto_error on a malformed length prefix, a missing frame
    terminator, or a frame larger than the sanity cap. *)
val next_frame : reader -> string option
