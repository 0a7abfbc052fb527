(** Hierarchical deadline + cancellation tokens.  See budget.mli for
    the contract; the representation notes live here.

    [flag] is the single word every hot loop reads: 0 = live,
    1 = expired, 2 = cancelled.  Deadlines are resolved to an absolute
    [Clock.now] instant at construction ([sub] takes the min with the
    parent's), so [poll] is one clock read and a comparison.  The child
    list exists only so [cancel] can cascade eagerly; [poll] would find
    an ancestor's death anyway by walking [parent], which also covers
    expiry (an expired parent never walks its children — each child
    discovers it on its own next poll). *)

type why = Expired | Cancelled

type t = {
  flag : int Atomic.t;
  bd_deadline : float;       (* absolute, [infinity] = none *)
  parent : t option;
  lock : Mutex.t;            (* guards [children] *)
  mutable children : t list;
}

let live = 0
let expired = 1
let cancelled = 2

let none =
  { flag = Atomic.make live;
    bd_deadline = infinity;
    parent = None;
    lock = Mutex.create ();
    children = [] }

let m_expired = lazy (Obs.Metrics.counter "factor.budget.expired")
let m_cancelled = lazy (Obs.Metrics.counter "factor.budget.cancelled")

(* First transition wins: a cancel racing an expiry keeps whichever flag
   landed first, and the metric counts each token at most once. *)
let trip t v =
  if Atomic.compare_and_set t.flag live v then
    Obs.Metrics.incr
      (Lazy.force (if v = expired then m_expired else m_cancelled))

let resolve_deadline deadline_in =
  match deadline_in with
  | None -> infinity
  | Some s -> Clock.now () +. s

let make ?deadline_in () =
  { flag = Atomic.make live;
    bd_deadline = resolve_deadline deadline_in;
    parent = None;
    lock = Mutex.create ();
    children = [] }

let sub ?deadline_in parent =
  let own = resolve_deadline deadline_in in
  let parent_link = if parent == none then None else Some parent in
  let child =
    { flag = Atomic.make live;
      bd_deadline = Float.min own parent.bd_deadline;
      parent = parent_link;
      lock = Mutex.create ();
      children = [] }
  in
  (match parent_link with
   | None -> ()
   | Some p ->
     Mutex.lock p.lock;
     p.children <- child :: p.children;
     Mutex.unlock p.lock;
     (* the parent may have died between flag init and registration;
        don't let the child outlive it *)
     if Atomic.get p.flag <> live then trip child cancelled);
  child

let detach t =
  match t.parent with
  | None -> ()
  | Some p ->
    Mutex.lock p.lock;
    p.children <- List.filter (fun c -> c != t) p.children;
    Mutex.unlock p.lock

let rec cancel t =
  if t != none then begin
    trip t cancelled;
    Mutex.lock t.lock;
    let kids = t.children in
    t.children <- [];
    Mutex.unlock t.lock;
    List.iter cancel kids
  end

let check t = Atomic.get t.flag <> live

let rec poll t =
  if t == none then false
  else if Atomic.get t.flag <> live then true
  else if (match t.parent with Some p -> poll p | None -> false) then begin
    trip t cancelled;
    true
  end
  else if t.bd_deadline < infinity && Clock.now () >= t.bd_deadline
  then begin
    trip t expired;
    true
  end
  else false

exception Exhausted of string

let guard ?(site = "") t = if poll t then raise (Exhausted site)

let why t =
  match Atomic.get t.flag with
  | 0 -> None
  | 1 -> Some Expired
  | _ -> Some Cancelled

let remaining t =
  if Atomic.get t.flag <> live then 0.0
  else if t.bd_deadline = infinity then infinity
  else Float.max 0.0 (t.bd_deadline -. Clock.now ())
