(** Live progress reporting for long-running phases; see the mli for
    the discipline.  The disabled path is one atomic load at [start]
    and an immediate-constant match at every [step] — no allocation —
    so reporters may stay on per-fault hot loops unconditionally. *)

type update = {
  up_phase : string;
  up_reporter : int;
  up_done : int;
  up_total : int;
  up_elapsed : float;
  up_rate : float;
  up_eta_s : float;
  up_final : bool;
}

type sink = update -> unit

(* Number of installed sinks (global + per-domain).  Zero means every
   [start] returns [Off] after exactly one atomic load. *)
let active = Atomic.make 0

let global_sink : sink option Atomic.t = Atomic.make None
let global_lock = Mutex.create ()

let set_global_sink s =
  Mutex.protect global_lock (fun () ->
      (match (Atomic.get global_sink, s) with
       | (None, Some _) -> Atomic.incr active
       | (Some _, None) -> Atomic.decr active
       | _ -> ());
      Atomic.set global_sink s)

let dls_sink : sink option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_sink s f =
  let cell = Domain.DLS.get dls_sink in
  let prev = !cell in
  cell := Some s;
  if prev = None then Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      if prev = None then Atomic.decr active;
      cell := prev)
    f

let enabled () = Atomic.get active > 0

(* Minimum seconds between emitted updates, shared by all reporters so
   a burst of short-lived reporters (one per fault) cannot flood the
   sink.  A reporter that ever emitted also emits its final update, so
   visible phases always close out at their last count. *)
let interval = Atomic.make 0.05
let set_interval s = Atomic.set interval (Float.max 0.0 s)
let last_emit = Atomic.make 0.0

let next_reporter = Atomic.make 0

type r = {
  r_phase : string;
  r_id : int;
  r_total : int;
  r_sink : sink;
  r_t0 : float;
  r_done : int Atomic.t;
  r_emitted : bool Atomic.t;
}

type t = Off | On of r

let start ?(total = 0) phase =
  if Atomic.get active = 0 then Off
  else
    let sink =
      match !(Domain.DLS.get dls_sink) with
      | Some s -> Some s
      | None -> Atomic.get global_sink
    in
    match sink with
    | None -> Off
    | Some s ->
      On
        { r_phase = phase;
          r_id = 1 + Atomic.fetch_and_add next_reporter 1;
          r_total = total;
          r_sink = s;
          r_t0 = Unix.gettimeofday ();
          r_done = Atomic.make 0;
          r_emitted = Atomic.make false }

let emit r ~final =
  let now = Unix.gettimeofday () in
  let d = Atomic.get r.r_done in
  let elapsed = now -. r.r_t0 in
  let rate = if elapsed > 1e-9 then float_of_int d /. elapsed else 0.0 in
  let eta =
    if r.r_total > 0 && rate > 1e-9 && d <= r.r_total then
      float_of_int (r.r_total - d) /. rate
    else -1.0
  in
  Atomic.set r.r_emitted true;
  r.r_sink
    { up_phase = r.r_phase;
      up_reporter = r.r_id;
      up_done = d;
      up_total = r.r_total;
      up_elapsed = elapsed;
      up_rate = rate;
      up_eta_s = eta;
      up_final = final }

(* Emit when the shared rate limit allows; the CAS serialises emitters
   across domains so at most one update lands per interval. *)
let emit_limited r ~final =
  let now = Unix.gettimeofday () in
  let last = Atomic.get last_emit in
  if now -. last >= Atomic.get interval
     && Atomic.compare_and_set last_emit last now
  then emit r ~final

let step t =
  match t with
  | Off -> ()
  | On r ->
    Atomic.incr r.r_done;
    emit_limited r ~final:false

let finish t =
  match t with
  | Off -> ()
  | On r -> if Atomic.get r.r_emitted then emit r ~final:true
    else emit_limited r ~final:true
