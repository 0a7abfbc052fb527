(** Fixed-size domain pool over one task deque.  One mutex guards the
    deque, the futures and the telemetry: tasks in this codebase are
    coarse (a fault's PODEM search, a fault shard's simulation, a whole
    MUT flow), so queue operations are far off the critical path and a
    single lock keeps helping and shutdown easy to reason about.  The
    deque encodes the two orders the callers need: an idle worker takes
    the oldest task (served requests run first-come-first-served), a
    domain helping inside [await] takes the newest (a nested fan-out
    runs its own sub-tasks first). *)

type task = {
  t_run : unit -> unit -> unit;
  (* phase 1 (outside the lock) runs the submitted closure and never
     raises; it returns the commit, applied under [mutex] in the same
     critical section as the telemetry update so a stats read made
     after an await can never miss the awaited task's counters *)
  t_submitted : float;    (* Clock.now at submission, for queue-wait *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  (* the deque as two stacks: [newest]'s head is the last task
     submitted, [oldest]'s head the first *)
  mutable newest : task list;
  mutable oldest : task list;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  created : float;
  (* telemetry, all under [mutex] *)
  mutable tasks : int;
  mutable queue_wait : float;
  mutable run_time : float;
  busy : float array;
}

type stats = {
  ps_jobs : int;
  ps_tasks : int;
  ps_queue_wait : float;
  ps_run_time : float;
  ps_busy : float array;
  ps_wall : float;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_pool : t;
  mutable f_state : 'a state;
}

(* Both takes hold [pool.mutex]. *)
let take_newest pool =
  match pool.newest with
  | t :: rest ->
    pool.newest <- rest;
    Some t
  | [] ->
    (match List.rev pool.oldest with
     | [] -> None
     | t :: rest ->
       pool.oldest <- [];
       pool.newest <- rest;
       Some t)

let take_oldest pool =
  match pool.oldest with
  | t :: rest ->
    pool.oldest <- rest;
    Some t
  | [] ->
    (match List.rev pool.newest with
     | [] -> None
     | t :: rest ->
       pool.newest <- [];
       pool.oldest <- rest;
       Some t)

(* Run [t] outside the lock; account for it on [slot] and resolve its
   future in one critical section. *)
let run_task pool slot t =
  let start = Clock.now () in
  let commit = t.t_run () in
  let stop = Clock.now () in
  Mutex.lock pool.mutex;
  pool.tasks <- pool.tasks + 1;
  pool.queue_wait <- pool.queue_wait +. (start -. t.t_submitted);
  pool.run_time <- pool.run_time +. (stop -. start);
  pool.busy.(slot) <- pool.busy.(slot) +. (stop -. start);
  commit ();
  (* wakes both awaiting domains and idle workers; completions are
     rare relative to task work, so a broadcast is cheap enough *)
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex

let worker pool slot () =
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec get () =
      match take_oldest pool with
      | Some t ->
        Mutex.unlock pool.mutex;
        Some t
      | None ->
        if pool.stopping then begin
          Mutex.unlock pool.mutex;
          None
        end
        else begin
          Condition.wait pool.cond pool.mutex;
          get ()
        end
    in
    match get () with
    | None -> ()
    | Some t ->
      run_task pool slot t;
      loop ()
  in
  loop ()

let create jobs =
  if jobs < 1 then invalid_arg "Engine.Pool.create: jobs < 1";
  let pool =
    { jobs;
      mutex = Mutex.create ();
      cond = Condition.create ();
      newest = [];
      oldest = [];
      stopping = false;
      domains = [];
      created = Clock.now ();
      tasks = 0;
      queue_wait = 0.0;
      run_time = 0.0;
      busy = Array.make jobs 0.0 }
  in
  pool.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let size pool = pool.jobs

let submit pool f =
  let fut = { f_pool = pool; f_state = Pending } in
  let run () =
    Chaos.delay_point "pool.task";
    match f () with
    | v -> fun () -> fut.f_state <- Done v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      fun () -> fut.f_state <- Failed (e, bt)
  in
  let t = { t_run = run; t_submitted = Clock.now () } in
  Mutex.lock pool.mutex;
  if pool.stopping then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Engine.Pool.submit: pool has been shut down"
  end;
  if pool.jobs = 1 then begin
    (* no worker could ever take it *)
    Mutex.unlock pool.mutex;
    run_task pool 0 t
  end
  else begin
    pool.newest <- t :: pool.newest;
    Condition.signal pool.cond;
    Mutex.unlock pool.mutex
  end;
  fut

let await fut =
  let pool = fut.f_pool in
  Mutex.lock pool.mutex;
  let rec loop () =
    (* invariant: [pool.mutex] is held *)
    match fut.f_state with
    | Done v ->
      Mutex.unlock pool.mutex;
      v
    | Failed (e, bt) ->
      Mutex.unlock pool.mutex;
      Printexc.raise_with_backtrace e bt
    | Pending ->
      (match take_newest pool with
       | Some t ->
         (* help: run someone's task instead of blocking a slot *)
         Mutex.unlock pool.mutex;
         run_task pool 0 t;
         Mutex.lock pool.mutex;
         loop ()
       | None ->
         Condition.wait pool.cond pool.mutex;
         loop ())
  in
  loop ()

let run_all pool fs =
  let futs = List.map (submit pool) fs in
  List.map await futs

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let stats pool =
  Mutex.lock pool.mutex;
  let s =
    { ps_jobs = pool.jobs;
      ps_tasks = pool.tasks;
      ps_queue_wait = pool.queue_wait;
      ps_run_time = pool.run_time;
      ps_busy = Array.copy pool.busy;
      ps_wall = Clock.now () -. pool.created }
  in
  Mutex.unlock pool.mutex;
  s

let stats_to_string s =
  let buf = Buffer.create 256 in
  let util =
    if s.ps_wall > 0.0 then
      s.ps_run_time /. (s.ps_wall *. float_of_int s.ps_jobs)
    else 0.0
  in
  Buffer.add_string buf
    (Printf.sprintf
       "pool: %d slots, %d tasks, run %.3fs, queue-wait %.3fs, wall \
        %.3fs, utilization %.0f%%\n"
       s.ps_jobs s.ps_tasks s.ps_run_time
       s.ps_queue_wait s.ps_wall (100.0 *. util));
  Array.iteri
    (fun i busy ->
      Buffer.add_string buf
        (Printf.sprintf "  slot %d%s: busy %.3fs\n" i
           (if i = 0 then " (callers)" else "")
           busy))
    s.ps_busy;
  Buffer.contents buf

(* Counters are monotonic, so publishing a snapshot adds the delta
   against the currently registered value. *)
let publish_metrics pool =
  let s = stats pool in
  let catch_up c v = Obs.Metrics.add c (v - Obs.Metrics.value c) in
  catch_up (Obs.Metrics.counter "factor.pool.tasks") s.ps_tasks;
  Obs.Metrics.set (Obs.Metrics.gauge "factor.pool.jobs")
    (float_of_int s.ps_jobs);
  Obs.Metrics.set (Obs.Metrics.gauge "factor.pool.queue_wait_s")
    s.ps_queue_wait;
  Obs.Metrics.set (Obs.Metrics.gauge "factor.pool.run_time_s")
    s.ps_run_time;
  Obs.Metrics.set (Obs.Metrics.gauge "factor.pool.wall_s") s.ps_wall;
  Obs.Metrics.set
    (Obs.Metrics.gauge "factor.pool.utilization")
    (if s.ps_wall > 0.0 then
       s.ps_run_time /. (s.ps_wall *. float_of_int s.ps_jobs)
     else 0.0)

(* ------------------------------------------------------------------ *)
(* The process-wide pool.                                              *)
(* ------------------------------------------------------------------ *)

let default_jobs () =
  let fallback = Domain.recommended_domain_count () in
  match Option.map String.trim (Sys.getenv_opt "FACTOR_JOBS") with
  | None | Some "" -> fallback
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n >= 1 -> n
     | _ ->
       Obs.Log.warnf
         "ignoring FACTOR_JOBS=%S (expected a positive integer); using %d"
         s fallback;
       fallback)

let global_lock = Mutex.create ()
let global_pool : t option ref = ref None

let global () =
  Mutex.lock global_lock;
  let pool =
    match !global_pool with
    | Some p when not p.stopping -> p
    | _ ->
      let p = create (default_jobs ()) in
      global_pool := Some p;
      p
  in
  Mutex.unlock global_lock;
  pool

let global_stats () =
  Mutex.lock global_lock;
  let s = Option.map stats !global_pool in
  Mutex.unlock global_lock;
  s

let set_jobs n =
  if n < 1 then invalid_arg "Engine.Pool.set_jobs: jobs < 1";
  Mutex.lock global_lock;
  (match !global_pool with
   | Some p when p.jobs = n && not p.stopping -> ()
   | Some p ->
     shutdown p;
     global_pool := Some (create n)
   | None -> global_pool := Some (create n));
  Mutex.unlock global_lock
