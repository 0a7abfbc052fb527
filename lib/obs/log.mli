(** Leveled structured logging (JSONL) plus console verbosity.

    Two independent channels:

    {ul
    {- {e Structured events} — {!event} emits one JSON object per line
       ([ts], [level], [msg], plus caller attributes) to a log file or
       stderr, gated by {!level}.  Initial level comes from [FACTOR_LOG]
       ([error]/[warn]/[info]/[debug]; unset means off).}
    {- {e Console progress} — {!progressf}/{!verbosef} are the printf-ish
       progress noise of the CLI, gated by {!verbosity} ([--quiet]/[-v])
       and routed to stderr so they never corrupt stdout artifacts.}}

    All emission is mutex-serialised and domain-safe; when a level or
    verbosity gate is closed the call returns without formatting. *)

type level = Error | Warn | Info | Debug

val set_level : level option -> unit

(** Current structured-log level ([None] = disabled). *)
val level : unit -> level option

(** [enabled l] — would an event at level [l] be emitted? *)
val enabled : level -> bool

(** Route structured events to a file (append), replacing any previous
    destination.  [None] returns to stderr. *)
val set_file : string option -> unit

(** Close the log file if one is open (flushes first). *)
val close : unit -> unit

(** [event l msg attrs] emits one JSONL record if [l] passes the gate.
    When {!Context.with_request_id} is live on the calling domain, a
    [req] attribute is prepended so the record correlates with the
    request's spans and progress frames.  Registered forwarders (below)
    receive the event even when the level gate is closed. *)
val event : level -> string -> (string * Json.t) list -> unit

(** Printable name of a level: ["error"], ["warn"], ["info"],
    ["debug"]. *)
val level_name : level -> string

(** {1 Forwarders}

    A forwarder taps the structured-event stream — the serve daemon uses
    one per streaming request to relay that request's log records to its
    client as [log] event frames.  Forwarders see every event regardless
    of the level gate and must filter (e.g. on {!Context.request_id})
    themselves; exceptions they raise are swallowed.  With no forwarder
    registered the cost per event is one extra atomic load. *)

(** Register a forwarder; returns a handle for {!remove_forwarder}. *)
val add_forwarder : (level -> string -> (string * Json.t) list -> unit) -> int

val remove_forwarder : int -> unit

type verbosity = Quiet | Normal | Verbose

val set_verbosity : verbosity -> unit

(** Normal-and-above console progress line (stderr). *)
val progressf : ('a, unit, string, unit) format4 -> 'a

(** Verbose-only console line (stderr). *)
val verbosef : ('a, unit, string, unit) format4 -> 'a

(** Warning: always printed to stderr (even under [--quiet]) and also
    emitted as a structured [Warn] event when the level gate allows. *)
val warnf : ('a, unit, string, unit) format4 -> 'a

(** Like {!warnf} but printed verbatim — no ["warning: "] prefix.  Use
    for findings that carry their own tag (e.g. ["lint: ..."]). *)
val notef : ('a, unit, string, unit) format4 -> 'a
