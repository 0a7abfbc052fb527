(** Hierarchical deadline tokens.

    A token is a cooperative stopping point shared between the code
    that imposes a time limit and the code that must honour it.  Tokens
    form a tree: a parent covers a whole run, children cover one MUT or
    one fault.  A child's deadline can only tighten the parent's ({!sub}
    takes the minimum), and a child is dead once any ancestor is, so an
    inner loop needs to watch exactly one token.

    The contract that lets tokens sit inside the PODEM decision loop,
    the CDCL propagation loop and the packed-fsim per-word sweep:
    {!check} is {b one atomic load} — no clock read, no
    lock, no allocation.  Someone has to flip the flag, so code with a
    deadline calls {!poll} (a [Clock.now] read plus the parent-chain
    walk) at a coarser cadence — per conflict, per simulated word, per
    fault — and the innermost loop only loads the flag. *)

type t

(** The token without a deadline: [check none] and [poll none] are
    always [false].  Use it as the default when a caller imposed no
    budget. *)
val none : t

(** [make ?deadline_in ()] creates a root token.  [deadline_in] is in
    seconds from now; omitted means no deadline. *)
val make : ?deadline_in:float -> unit -> t

(** [sub ?deadline_in parent] creates a child of [parent].  Its
    effective deadline is the earlier of the parent's and
    [now + deadline_in]; [deadline_in:0.0] makes a token that is dead
    at its first {!poll}.  Children of {!none} are free-standing
    roots. *)
val sub : ?deadline_in:float -> t -> t

(** One atomic load: has the token been observed dead?  A deadline only
    becomes visible here after some {!poll} on the token noticed it. *)
val check : t -> bool

(** Full check: flag, ancestor chain, then own deadline against
    [Clock.now].  Trips the flag on discovery, so subsequent {!check}
    loads observe it; [factor.budget.expired] counts the tokens whose
    own deadline passed, not those that only inherited an ancestor's
    death.  Returns [true] when the token is dead. *)
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
