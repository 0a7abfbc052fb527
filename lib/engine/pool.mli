(** A fixed-size domain pool with futures.

    [create n] builds a pool of [n] execution slots backed by [n - 1]
    worker domains (OCaml 5 [Domain]s): the caller's own domain is the
    remaining slot, because {!await} executes queued tasks while the
    awaited future is unresolved.  That "helping" discipline is what
    makes nested submission safe — a task running on a worker may submit
    sub-tasks to the same pool and await them without deadlocking the
    pool, even when every worker is busy.

    Tasks wait in one deque.  An idle worker takes the {i oldest} task,
    so tasks submitted by a domain that never awaits (the serve loop)
    start in submission order; a domain helping inside {!await} takes
    the {i newest}, so a nested fan-out runs its own sub-tasks first.
    Every caller merges results in its own order, so where a task runs
    never changes a result.

    Exceptions raised by a task are captured together with their
    backtrace and re-raised by {!await} in the awaiting domain; the
    worker that ran the task survives.  {!shutdown} is graceful: queued
    tasks are drained before the workers exit. *)

type t

type 'a future

(** [create n] builds a pool of [n >= 1] slots ([n - 1] worker domains).
    [create 1] spawns no domains: a 1-slot pool runs each task at
    {!submit}, in the submitting domain — the serial semantics, useful
    as the [-j 1] baseline. *)
val create : int -> t

(** Number of slots (the [n] given to {!create}). *)
val size : t -> int

(** [submit pool f] queues [f] (runs it, on a 1-slot pool) and returns
    its future.
    @raise Invalid_argument if the pool has been shut down. *)
val submit : t -> (unit -> 'a) -> 'a future

(** [await fut] returns the task's result, executing other queued tasks
    while waiting; re-raises (with backtrace) if the task raised.
    A queued task cannot be withdrawn: a task that should not outlive a
    deadline polls a {!Budget} token, at its start and while it runs. *)
val await : 'a future -> 'a

(** [run_all pool fs] submits every thunk and awaits the results in
    order — the deterministic fan-out/merge primitive. *)
val run_all : t -> (unit -> 'a) list -> 'a list

(** Drain queued tasks, stop the workers and join their domains.  The
    pool cannot be used afterwards.  Idempotent. *)
val shutdown : t -> unit

(** {1 Telemetry} *)

type stats = {
  ps_jobs : int;         (** slots in the pool *)
  ps_tasks : int;        (** tasks completed since creation *)
  ps_queue_wait : float; (** total seconds tasks spent queued *)
  ps_run_time : float;   (** total seconds spent running tasks *)
  ps_busy : float array; (** per-slot busy seconds (slot 0 = work run
                             inside {!submit} and {!await}, 1.. = worker
                             domains) *)
  ps_wall : float;       (** wall seconds since the pool was created *)
}

val stats : t -> stats

(** Human-readable rendering of a stats snapshot: one summary line plus
    one busy line per slot.  Used by [--profile]. *)
val stats_to_string : stats -> string

(** Push a stats snapshot into {!Obs.Metrics} under [factor.pool.*]
    ([jobs], [tasks], [queue_wait_s], [run_time_s], [wall_s],
    [utilization]) so a metrics dump includes pool telemetry. *)
val publish_metrics : t -> unit

(** {1 The process-wide pool}

    Engines at several layers (fault simulation, ATPG, MUT-parallel
    flows) share one pool so that nesting never oversubscribes the
    machine. *)

(** [FACTOR_JOBS] if set and positive, else
    [Domain.recommended_domain_count ()].  A value that is not a
    positive integer is ignored with a warning (through
    {!Obs.Log.warnf}); an empty one counts as unset. *)
val default_jobs : unit -> int

(** The shared pool, created on first use with {!default_jobs} slots. *)
val global : unit -> t

(** Stats of the shared pool if one was ever created — unlike
    [stats (global ())] this never spawns a pool, so exit-time profile
    hooks can call it unconditionally. *)
val global_stats : unit -> stats option

(** Resize the shared pool (shutting down the previous one); the [-j N]
    entry point of the CLI and bench runner.  No-op if already [n]. *)
val set_jobs : int -> unit
