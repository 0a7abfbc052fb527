(** Hierarchical deadline + cancellation tokens.

    A token is a cooperative cancellation point shared between the code
    that imposes a limit and the code that must honour it.  Tokens form
    a tree: a parent covers a whole run, children cover one MUT or one
    fault.  Cancelling a parent cancels every registered descendant, and
    a child's deadline can only tighten the parent's ({!sub} takes the
    minimum), so an inner loop needs to watch exactly one token.

    The contract that lets tokens sit inside the PODEM decision loop,
    the CDCL propagation loop and the packed-fsim per-word sweep:
    {!check} is {b one atomic load} — no clock read, no
    lock, no allocation.  Someone has to flip the flag, so code with a
    deadline calls {!poll} (a [Clock.now] read plus the parent-chain
    walk) at a coarser cadence — per conflict, per simulated word, per
    fault — and the innermost loop only loads the flag. *)

type t

(** Why a token is dead. *)
type why =
  | Expired    (** its own or an ancestor's deadline passed *)
  | Cancelled  (** {!cancel} was called on it or an ancestor *)

(** The never-cancelled token: [check none] is always [false],
    [poll none] never trips, [cancel none] is a no-op.  Use it as the
    default when a caller imposed no budget. *)
val none : t

(** [make ?deadline_in ()] creates a root token.  [deadline_in] is in
    seconds from now; omitted means no deadline (cancel-only). *)
val make : ?deadline_in:float -> unit -> t

(** [sub ?deadline_in parent] creates a child registered with [parent]
    (so [cancel parent] reaches it).  Its effective deadline is the
    earlier of the parent's and [now + deadline_in].  Children of
    {!none} are free-standing roots.  Call {!detach} when the child's
    work completes so the parent's child list stays bounded. *)
val sub : ?deadline_in:float -> t -> t

(** Unregister a completed child from its parent.  Idempotent; no-op on
    roots and on {!none}. *)
val detach : t -> unit

(** Cancel the token and every registered descendant.  Idempotent; a
    token that already expired keeps {!why} [Expired]. *)
val cancel : t -> unit

(** One atomic load: has the token been cancelled or observed expired?
    Note a deadline only becomes visible here after some {!poll} on the
    token noticed it. *)
val check : t -> bool

(** Full check: flag, ancestor chain, then own deadline against
    [Clock.now].  Trips the flag (and the expiry metric) on discovery,
    so subsequent {!check} loads observe it.  Returns [true] when
    the token is dead. *)
val poll : t -> bool

(** Raised by {!guard} when its token is dead; the payload names the
    pipeline stage that was polling ("parse", "elaborate", "extract").
    Used where partial results make no sense — a half-parsed design is
    useless, unlike a half-graded fault list — so the stage aborts
    instead of degrading.  The serve daemon maps it to a per-request
    error response. *)
exception Exhausted of string

(** [guard ?site t]: {!poll}, raising {!Exhausted} when the token is
    dead.  The raising form of the budget contract for front-end stages
    (parse / elaborate / extract) that cannot return partial work. *)
val guard : ?site:string -> t -> unit

(** [why t] is [None] while live. *)
val why : t -> why option

(** Seconds until the effective deadline ([infinity] when none;
    [0.] once dead or past due). *)
val remaining : t -> float
