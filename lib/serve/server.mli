(** The [factor serve] daemon: a select-based event loop accepting
    framed JSON requests (see {!Proto}) over a Unix-domain or TCP
    socket, dispatching jobs onto the shared {!Engine.Pool}, and
    streaming responses back as they complete.

    Concurrency model: one event-loop domain owns every socket.  A
    decoded request becomes a pool task; the task's response is pushed
    onto a mutex-guarded completion queue and a self-pipe byte wakes the
    loop, which writes it out.  A single-slot pool (serial [-j 1] runs)
    runs each task as it is submitted, so requests are then handled on
    the loop domain itself.

    Isolation: each request runs under its own {!Engine.Budget} token
    and chaos seam; an exception (crash, budget expiry, injected fault)
    is converted into an error response for that request only.  Each
    frame is decoded once, by the loop: a frame that is no request is
    answered on id 0 and a ["stream"] of another JSON type than bool on
    the request's id, both as [proto] errors, and the connection stays
    open.

    Streaming: a request with [params.stream = true] receives interim
    event frames (progress, relayed log records, loop-driven
    heartbeats — see {!Proto.event}) on its connection ahead of the
    final response, whose bytes stay identical to a non-streaming run.
    Interim frames ride the same completion queue as responses, so
    ordering holds and only the final frame retires the in-flight
    slot.  With a single pool slot requests run inline on the loop
    domain, so event frames coalesce and flush just before the final
    response — live interleaving needs [-j 2] or more.

    Shutdown is graceful on SIGTERM/SIGINT (under {!run}), on {!stop},
    or on a ["shutdown"] request: the listener closes, pending responses
    flush, and a Unix-domain socket path is unlinked. *)

type addr =
  | Unix_path of string        (** Unix-domain socket *)
  | Tcp of string * int        (** host, port; host "" binds loopback *)

type config = {
  sc_addr : addr;
  sc_store : string option;          (** on-disk cache directory *)
  sc_max_resident : int option;      (** LRU bound on resident designs *)
  sc_default_budget : float option;  (** seconds per request without
                                         an explicit [budget_s] *)
  sc_heartbeat_s : float;            (** heartbeat cadence for streaming
                                         requests; [0.0] disables.  The
                                         loop ticks every 0.25 s, so the
                                         effective floor is 0.25 s *)
}

type t

(** Bind and listen (synchronously — the socket is connectable on
    return), then run the event loop on a fresh domain.  No signal
    handlers are installed.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : config -> t

(** Request shutdown and join the loop domain.  Idempotent. *)
val stop : t -> unit

(** Run the loop on the calling domain with SIGTERM/SIGINT handlers
    installed; returns after a graceful shutdown. *)
val run : config -> unit
