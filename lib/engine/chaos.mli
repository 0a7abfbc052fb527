(** Deterministic chaos injection at pipeline seams.

    When armed (via [FACTOR_CHAOS] or {!set}), named injection sites
    sprinkled at recovery seams — per-fault ATPG attempts, per-MUT flow
    rows, served requests, fuzz seeds, solver entry — deterministically
    fail or stall so the degradation paths are themselves exercised by
    tests and CI.  Pool task entry, which has no recovery path above
    it, only stalls.

    Decisions are a pure function of [(seed, site, n)] where [n] counts
    prior hits on that exact [site] string.  Sites embed their identity
    (MUT name, fault index), so {i which} MUT gets killed does not
    depend on scheduling: a [j1] and a [j8] run of the same workload
    degrade identically.

    [FACTOR_CHAOS=<seed>:<rate>[:<mode>][:<prefix>,...]] — [rate] in
    [0,1] is the injection probability per site hit; [mode] is [all]
    (default, failures + delays), [fail], or [delay] (never raises —
    safe over an entire unguarded test suite); [prefix] restricts
    injection to sites matching any of the comma-separated prefixes
    (e.g. [flow.] or [flow.mut:alu,pool.]).

    Disarmed cost: {!active} is one atomic load, and every site helper
    returns immediately — callers building site names should guard the
    string construction on {!active}. *)

(** Raised by a failure injection; the payload is the site name. *)
exception Injected of string

type mode = All | Fail_only | Delay_only

(** Arm programmatically (tests).  Overrides any [FACTOR_CHAOS]. *)
val set : seed:int -> rate:float -> ?mode:mode -> ?prefix:string ->
  unit -> unit

(** Undo {!set}: restore the [FACTOR_CHAOS] configuration, or disarm
    when there is none. *)
val clear : unit -> unit

(** One atomic load: is any chaos configuration armed?  (It may still
    be scoped to a prefix that never matches.) *)
val active : unit -> bool

(** [point site] — full injection site: may raise {!Injected} (counted
    in [factor.chaos.injected]) or sleep a few deterministic
    milliseconds (counted in [factor.chaos.delayed]).  Place only where
    a recovery path above will catch the failure. *)
val point : string -> unit

(** [delay_point site] — stall-only site: may sleep like {!point} (at
    every firing, and never in [fail] mode) but never raises.  For seams
    with no recovery path above them, such as pool task entry. *)
val delay_point : string -> unit

(** Graceful-abort site: returns [true] when the site should give up
    without raising (a solver returning [Unknown]).  Counted as an
    injection. *)
val abort_point : string -> bool
