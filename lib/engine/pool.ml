(** Fixed-size work-stealing domain pool.  One mutex guards the deques,
    the futures and the telemetry: tasks in this codebase are coarse
    (a fault's PODEM search, a fault shard's simulation, a whole MUT
    flow), so queue operations are far off the critical path and a
    single lock keeps helping, stealing and shutdown easy to reason
    about.  The stealing structure still matters: per-slot deques keep
    nested submissions depth-first on their own slot while idle workers
    drain the oldest work of the busiest slots. *)

type task = {
  t_run : unit -> unit -> unit;
  (* phase 1 (outside the lock) runs the submitted closure and never
     raises; it returns the commit, applied under [mutex] in the same
     critical section as the telemetry update so a stats read made
     after an await can never miss the awaited task's counters *)
  t_submitted : float;    (* Clock.now at submission, for queue-wait *)
}

(* A deque as two stacks: [front] head is the front, [back] head is the
   back.  Owners push/pop the front (LIFO), thieves pop the back. *)
type deque = {
  mutable dq_front : task list;
  mutable dq_back : task list;
}

let push_front d t = d.dq_front <- t :: d.dq_front

let pop_front d =
  match d.dq_front with
  | t :: rest ->
    d.dq_front <- rest;
    Some t
  | [] ->
    (match List.rev d.dq_back with
     | [] -> None
     | t :: rest ->
       d.dq_back <- [];
       d.dq_front <- rest;
       Some t)

let pop_back d =
  match d.dq_back with
  | t :: rest ->
    d.dq_back <- rest;
    Some t
  | [] ->
    (match List.rev d.dq_front with
     | [] -> None
     | t :: rest ->
       d.dq_front <- [];
       d.dq_back <- rest;
       Some t)

type t = {
  uid : int;
  jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  deques : deque array;          (* length [jobs]; slot 0 is also the
                                    inbox for external submitters *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  created : float;
  (* telemetry, all under [mutex] *)
  mutable tasks : int;
  mutable steals : int;
  mutable queue_wait : float;
  mutable run_time : float;
  busy : float array;
}

type stats = {
  ps_jobs : int;
  ps_tasks : int;
  ps_steals : int;
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

let uid_counter = Atomic.make 0

(* Which pool slot the current domain owns: [(pool uid, slot)].  A
   domain helping in a pool it does not belong to uses slot 0. *)
let slot_key : (int * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let my_slot pool =
  match Domain.DLS.get slot_key with
  | Some (uid, slot) when uid = pool.uid -> slot
  | _ -> 0

(* Take a task while holding [pool.mutex]: own front first, then steal
   from the back of the other slots. *)
let take pool slot =
  match pop_front pool.deques.(slot) with
  | Some _ as t -> t
  | None ->
    let n = pool.jobs in
    let rec steal k =
      if k = n then None
      else
        let j = (slot + k) mod n in
        match pop_back pool.deques.(j) with
        | Some t ->
          pool.steals <- pool.steals + 1;
          Some t
        | None -> steal (k + 1)
    in
    steal 1

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
  Domain.DLS.set slot_key (Some (pool.uid, slot));
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec get () =
      match take pool slot with
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
    { uid = Atomic.fetch_and_add uid_counter 1;
      jobs;
      mutex = Mutex.create ();
      cond = Condition.create ();
      deques =
        Array.init jobs (fun _ -> { dq_front = []; dq_back = [] });
      stopping = false;
      domains = [];
      created = Clock.now ();
      tasks = 0;
      steals = 0;
      queue_wait = 0.0;
      run_time = 0.0;
      busy = Array.make jobs 0.0 }
  in
  pool.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let size pool = pool.jobs

let submit pool f =
  let rec t = { t_run = run; t_submitted = Clock.now () }
  and fut = { f_pool = pool; f_state = Pending }
  and run () =
    match
      Chaos.point "pool.task";
      f ()
    with
    | v -> fun () -> fut.f_state <- Done v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      fun () -> fut.f_state <- Failed (e, bt)
  in
  Mutex.lock pool.mutex;
  if pool.stopping then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Engine.Pool.submit: pool has been shut down"
  end;
  push_front pool.deques.(my_slot pool) t;
  Condition.signal pool.cond;
  Mutex.unlock pool.mutex;
  fut

let await fut =
  let pool = fut.f_pool in
  let slot = my_slot pool in
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
      (match take pool slot with
       | Some t ->
         (* help: run someone's task instead of blocking a slot *)
         Mutex.unlock pool.mutex;
         run_task pool slot t;
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
      ps_steals = pool.steals;
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
       "pool: %d slots, %d tasks (%d stolen), run %.3fs, queue-wait \
        %.3fs, wall %.3fs, utilization %.0f%%\n"
       s.ps_jobs s.ps_tasks s.ps_steals s.ps_run_time
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
  catch_up (Obs.Metrics.counter "factor.pool.steals") s.ps_steals;
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
  match Sys.getenv_opt "FACTOR_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

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
