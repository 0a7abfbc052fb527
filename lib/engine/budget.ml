(** Hierarchical deadline tokens.  See budget.mli for the contract; the
    representation notes live here.

    [dead] is the single word every hot loop reads.  Deadlines are
    resolved to an absolute [Clock.now] instant at construction ([sub]
    takes the min with the parent's), so [poll] is one clock read and a
    comparison.  A token holds no list of its children: [poll] finds an
    ancestor's death by walking [parent], and each child discovers it on
    its own next poll. *)

type t = {
  dead : bool Atomic.t;
  bd_deadline : float;       (* absolute, [infinity] = none *)
  parent : t option;
}

let none = { dead = Atomic.make false; bd_deadline = infinity; parent = None }

let m_expired = lazy (Obs.Metrics.counter "factor.budget.expired")

let resolve_deadline deadline_in =
  match deadline_in with
  | None -> infinity
  | Some s -> Clock.now () +. s

let make ?deadline_in () =
  { dead = Atomic.make false;
    bd_deadline = resolve_deadline deadline_in;
    parent = None }

let sub ?deadline_in parent =
  { dead = Atomic.make false;
    bd_deadline = Float.min (resolve_deadline deadline_in) parent.bd_deadline;
    parent = (if parent == none then None else Some parent) }

let check t = Atomic.get t.dead

let rec poll t =
  if t == none then false
  else if Atomic.get t.dead then true
  else if (match t.parent with Some p -> poll p | None -> false) then begin
    Atomic.set t.dead true;
    true
  end
  else if t.bd_deadline < infinity && Clock.now () >= t.bd_deadline
  then begin
    (* the first poll to see the deadline counts it *)
    if Atomic.compare_and_set t.dead false true then
      Obs.Metrics.incr (Lazy.force m_expired);
    true
  end
  else false

exception Exhausted of string

let guard ?(site = "") t = if poll t then raise (Exhausted site)
