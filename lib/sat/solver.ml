(** MiniSat-shaped CDCL: two-watched-literal propagation, first-UIP
    learning with self-subsumption minimization, VSIDS activity with a
    max-heap decision order, phase saving, Luby-sequence restarts, and
    activity-driven learned-clause database reduction.  A clause that
    propagates keeps the implied literal in slot 0 and the falsified
    watch in slot 1, the invariant conflict analysis relies on. *)

type lit = int
(* literal encoding: variable [v] is [2v] (positive) / [2v+1] (negated) *)

let pos v = 2 * v
let neg l = l lxor 1
let lit_of v sign = if sign then 2 * v else (2 * v) + 1
let var_of l = l lsr 1
let positive l = l land 1 = 0

type clause = {
  lits : int array;
  mutable act : float;    (* activity, learnt clauses only *)
  learnt : bool;
  mutable deleted : bool; (* lazily unhooked from the watch lists *)
}

(* the "no clause" sentinel for reasons and conflict returns; compared
   with physical equality *)
let null_clause = { lits = [||]; act = 0.0; learnt = false; deleted = false }

(* growable vector of clauses (watch lists) *)
type cvec = {
  mutable data : clause array;
  mutable sz : int;
}

let cvec_make () = { data = [||]; sz = 0 }

let cvec_push v c =
  if v.sz = Array.length v.data then begin
    let cap = max 4 (2 * v.sz) in
    let d = Array.make cap null_clause in
    Array.blit v.data 0 d 0 v.sz;
    v.data <- d
  end;
  v.data.(v.sz) <- c;
  v.sz <- v.sz + 1

type stats = {
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_learned : int;
}

let zero_stats =
  { s_conflicts = 0; s_decisions = 0; s_propagations = 0; s_restarts = 0;
    s_learned = 0 }

let add_stats a b =
  { s_conflicts = a.s_conflicts + b.s_conflicts;
    s_decisions = a.s_decisions + b.s_decisions;
    s_propagations = a.s_propagations + b.s_propagations;
    s_restarts = a.s_restarts + b.s_restarts;
    s_learned = a.s_learned + b.s_learned }

let stats_to_string st =
  Printf.sprintf
    "conflicts %d | decisions %d | propagations %d | restarts %d | \
     learned (total) %d"
    st.s_conflicts st.s_decisions st.s_propagations st.s_restarts st.s_learned

type t = {
  (* per variable *)
  mutable assigns : int array;    (* -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : clause array;  (* [null_clause] = decision / unassigned *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;
  mutable heap_pos : int array;   (* -1 = not in heap *)
  (* per literal *)
  mutable watches : cvec array;
  (* trail *)
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;  (* start of each decision level *)
  mutable levels : int;           (* current decision level *)
  mutable qhead : int;
  (* decision heap (max activity) *)
  mutable heap : int array;
  mutable heap_sz : int;
  mutable nvars : int;
  mutable var_inc : float;
  (* learned-clause database *)
  mutable learnts : cvec;
  mutable cla_inc : float;
  mutable max_learnts : int;
  mutable ok : bool;
  mutable model : bool array;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;
}

let create () =
  { assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 null_clause;
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    watches = Array.init 32 (fun _ -> cvec_make ());
    trail = Array.make 16 0;
    trail_sz = 0;
    trail_lim = Array.make 16 0;
    levels = 0;
    qhead = 0;
    heap = Array.make 16 0;
    heap_sz = 0;
    nvars = 0;
    var_inc = 1.0;
    learnts = cvec_make ();
    cla_inc = 1.0;
    max_learnts = 4000;
    ok = true;
    model = [||];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned = 0 }

let num_vars s = s.nvars

let stats s =
  { s_conflicts = s.conflicts; s_decisions = s.decisions;
    s_propagations = s.propagations; s_restarts = s.restarts;
    s_learned = s.learned }

(* ------------------------------------------------------------------ *)
(* Decision-order heap: a binary max-heap on activity.                  *)
(* ------------------------------------------------------------------ *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_sz && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_sz && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_sz) <- v;
    s.heap_pos.(v) <- s.heap_sz;
    s.heap_sz <- s.heap_sz + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_sz <- s.heap_sz - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_sz > 0 then begin
    let last = s.heap.(s.heap_sz) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)
(* Variables.                                                          *)
(* ------------------------------------------------------------------ *)

let grow_to s n =
  let cap = Array.length s.assigns in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    s.assigns <- extend s.assigns (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason null_clause;
    s.activity <- extend s.activity 0.0;
    s.polarity <- extend s.polarity false;
    s.seen <- extend s.seen false;
    s.heap_pos <- extend s.heap_pos (-1);
    s.trail <- extend s.trail 0;
    s.trail_lim <- extend s.trail_lim 0;
    s.heap <- extend s.heap 0;
    let w = Array.init (2 * cap') (fun _ -> cvec_make ()) in
    Array.blit s.watches 0 w 0 (2 * cap);
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  heap_insert s v;
  v

(* value of a literal: -1 unassigned, 0 false, 1 true *)
let lit_value s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay_activity s = s.var_inc <- s.var_inc /. 0.95

(* ------------------------------------------------------------------ *)
(* Assignment and propagation.                                         *)
(* ------------------------------------------------------------------ *)

let enqueue s l reason =
  let v = l lsr 1 in
  s.assigns.(v) <- 1 - (l land 1);
  s.level.(v) <- s.levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_sz) <- l;
  s.trail_sz <- s.trail_sz + 1

(* [propagate s] drains the queue; returns the conflicting clause or
   [null_clause].  Clauses marked deleted are dropped from the watch
   lists as they are encountered. *)
let propagate s =
  let confl = ref null_clause in
  while !confl == null_clause && s.qhead < s.trail_sz do
    let p = s.trail.(s.qhead) in
    (* p just became true, falsifying (neg p): visit the clauses that
       watch it, which [attach] filed under the key [neg (neg p)] = p *)
    let fl = neg p in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < ws.sz do
      let cl = ws.data.(!i) in
      incr i;
      if not cl.deleted then begin
        let c = cl.lits in
        (* put the falsified watch in slot 1 *)
        if c.(0) = fl then begin
          c.(0) <- c.(1);
          c.(1) <- fl
        end;
        if lit_value s c.(0) = 1 then begin
          (* clause already satisfied: keep the watch *)
          ws.data.(!j) <- cl;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let n = Array.length c in
          let k = ref 2 in
          while !k < n && lit_value s c.(!k) = 0 do incr k done;
          if !k < n then begin
            c.(1) <- c.(!k);
            c.(!k) <- fl;
            cvec_push s.watches.(neg c.(1)) cl
            (* watch moved: do not keep it here *)
          end
          else begin
            (* unit or conflicting *)
            ws.data.(!j) <- cl;
            incr j;
            if lit_value s c.(0) = 0 then begin
              confl := cl;
              (* copy the unvisited tail and stop *)
              while !i < ws.sz do
                ws.data.(!j) <- ws.data.(!i);
                incr j;
                incr i
              done;
              s.qhead <- s.trail_sz
            end
            else enqueue s c.(0) cl
          end
        end
      end
    done;
    ws.sz <- !j
  done;
  !confl

let new_level s =
  (* assumption levels can outnumber variables (an already-true
     assumption opens an empty level), so grow explicitly *)
  if s.levels >= Array.length s.trail_lim then begin
    let a = Array.make ((2 * s.levels) + 4) 0 in
    Array.blit s.trail_lim 0 a 0 (Array.length s.trail_lim);
    s.trail_lim <- a
  end;
  s.trail_lim.(s.levels) <- s.trail_sz;
  s.levels <- s.levels + 1

let cancel_until s lvl =
  if s.levels > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_sz - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.polarity.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- null_clause;
      heap_insert s v
    done;
    s.trail_sz <- bound;
    s.qhead <- bound;
    s.levels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Clause management.                                                  *)
(* ------------------------------------------------------------------ *)

let attach s c =
  cvec_push s.watches.(neg c.lits.(0)) c;
  cvec_push s.watches.(neg c.lits.(1)) c

(** Add a problem clause at decision level 0, simplifying against the
    level-0 assignment. *)
let add_clause s lits =
  if s.ok then begin
    assert (s.levels = 0);
    (* dedup, drop false literals, detect tautologies / satisfied *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (neg l) lits) lits
      || List.exists (fun l -> lit_value s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l null_clause;
        if propagate s != null_clause then s.ok <- false
      | _ ->
        attach s
          { lits = Array.of_list lits; act = 0.0; learnt = false;
            deleted = false }
    end
  end

(* ------------------------------------------------------------------ *)
(* Learned-clause database reduction.                                  *)
(* ------------------------------------------------------------------ *)

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to s.learnts.sz - 1 do
      s.learnts.data.(i).act <- s.learnts.data.(i).act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clauses s = s.cla_inc <- s.cla_inc /. 0.999

(* a clause that is the reason of a current assignment must stay *)
let locked s c =
  Array.length c.lits > 0
  &&
  let v = c.lits.(0) lsr 1 in
  s.assigns.(v) >= 0 && s.reason.(v) == c

(** Delete the lower-activity half of the learned clauses (binary and
    locked clauses are always kept); deleted clauses fall out of the
    watch lists lazily during propagation. *)
let reduce_db s =
  let arr = Array.sub s.learnts.data 0 s.learnts.sz in
  Array.sort (fun a b -> compare a.act b.act) arr;
  let keep = cvec_make () in
  let half = s.learnts.sz / 2 in
  Array.iteri
    (fun i c ->
      if i >= half || Array.length c.lits <= 2 || locked s c then
        cvec_push keep c
      else c.deleted <- true)
    arr;
  s.learnts <- keep;
  (* geometric growth of the budget, à la MiniSat *)
  s.max_learnts <- s.max_learnts + (s.max_learnts / 10)

(* ------------------------------------------------------------------ *)
(* Conflict analysis: first UIP.                                       *)
(* ------------------------------------------------------------------ *)

(** Returns the learned clause (asserting literal in slot 0, a literal
    of the backjump level in slot 1 when binary or longer) and the
    backjump level. *)
let analyze s confl =
  let out = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_sz - 1) in
  let to_clear = ref [] in
  let continue = ref true in
  while !continue do
    let cl = !confl in
    if cl.learnt then bump_clause s cl;
    let c = cl.lits in
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        bump_var s v;
        if s.level.(v) >= s.levels then incr path
        else out := q :: !out
      end
    done;
    (* walk back to the most recent seen literal on the trail; its seen
       flag stays set so the minimization below can treat resolved-away
       literals as covered *)
    while not s.seen.(s.trail.(!idx) lsr 1) do decr idx done;
    p := s.trail.(!idx);
    let v = !p lsr 1 in
    decr path;
    decr idx;
    if !path = 0 then continue := false else confl := s.reason.(v)
  done;
  (* self-subsumption minimization: a literal whose reason consists
     entirely of literals already in the clause (or resolved away, or
     fixed at level 0) is implied by the rest and can be dropped *)
  let redundant l =
    let r = s.reason.(l lsr 1) in
    r != null_clause
    && (let ok = ref true in
        for k = 1 to Array.length r.lits - 1 do
          let v = r.lits.(k) lsr 1 in
          if s.level.(v) > 0 && not s.seen.(v) then ok := false
        done;
        !ok)
  in
  let kept = List.filter (fun l -> not (redundant l)) !out in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  let asserting = neg !p in
  match kept with
  | [] -> ([| asserting |], 0)
  | rest ->
    (* slot 1 must hold a literal of the backjump (second-highest)
       level so it is watched when the clause becomes unit there *)
    let best =
      List.fold_left
        (fun acc l -> if s.level.(l lsr 1) > s.level.(acc lsr 1) then l else acc)
        (List.hd rest) (List.tl rest)
    in
    let others = List.filter (fun l -> l <> best) rest in
    (Array.of_list (asserting :: best :: others), s.level.(best lsr 1))

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

type result = Sat | Unsat | Unknown

(* the Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec envelope size seq =
    if size >= i + 1 then (size, seq) else envelope ((2 * size) + 1) (seq + 1)
  in
  let rec shrink i size seq =
    if size - 1 = i then 1 lsl seq
    else
      let size' = (size - 1) / 2 in
      shrink (i mod size') size' (seq - 1)
  in
  let (size, seq) = envelope 1 0 in
  shrink i size seq

let pick_branch s =
  let v = ref (-1) in
  while !v < 0 && s.heap_sz > 0 do
    let cand = heap_pop s in
    if s.assigns.(cand) < 0 then v := cand
  done;
  !v

(** One restart's worth of search: propagate / analyze / backjump until
    a model, a level-0 conflict, the conflict budget, or the restart
    budget (which reports [Unknown] to the restart loop). *)
let search s (assumptions : lit array) tok budget limit =
  let result = ref None in
  let budget = ref budget in
  while !result = None do
    if Engine.Budget.check tok then result := Some Unknown
    else begin
    let confl = propagate s in
    if confl != null_clause then begin
      s.conflicts <- s.conflicts + 1;
      if s.levels = 0 then result := Some Unsat
      else begin
        let (lits, back_lvl) = analyze s confl in
        cancel_until s back_lvl;
        let learnt = { lits; act = 0.0; learnt = true; deleted = false } in
        if Array.length lits > 1 then begin
          attach s learnt;
          cvec_push s.learnts learnt;
          bump_clause s learnt;
          s.learned <- s.learned + 1
        end;
        enqueue s lits.(0) learnt;
        decay_activity s;
        decay_clauses s;
        if s.learnts.sz >= s.max_learnts then reduce_db s;
        decr budget;
        if s.conflicts >= limit then result := Some Unknown
        else if s.conflicts land 127 = 0 && Engine.Budget.poll tok then
          result := Some Unknown
        else if !budget <= 0 then begin
          s.restarts <- s.restarts + 1;
          result := Some Unknown
        end
      end
    end
    else if s.levels < Array.length assumptions then begin
      (* establish the next assumption as a pseudo decision *)
      let a = assumptions.(s.levels) in
      match lit_value s a with
      | 0 -> result := Some Unsat
      | 1 -> new_level s
      | _ ->
        new_level s;
        enqueue s a null_clause
    end
    else begin
      match pick_branch s with
      | -1 ->
        s.model <- Array.init s.nvars (fun v -> s.assigns.(v) = 1);
        result := Some Sat
      | v ->
        s.decisions <- s.decisions + 1;
        if s.decisions land 1023 = 0 then
          ignore (Engine.Budget.poll tok : bool);
        new_level s;
        enqueue s (lit_of v s.polarity.(v)) null_clause
    end
    end
  done;
  Option.get !result

(* Process-wide totals across every solver instance, so one metrics
   dump reflects all SAT work of a run (ATPG rescues, equivalence
   checks, untestability proofs). *)
let m_solves = Obs.Metrics.counter "factor.sat.solves"
let m_conflicts = Obs.Metrics.counter "factor.sat.conflicts"
let m_decisions = Obs.Metrics.counter "factor.sat.decisions"
let m_propagations = Obs.Metrics.counter "factor.sat.propagations"
let m_sat = Obs.Metrics.counter "factor.sat.sat"
let m_unsat = Obs.Metrics.counter "factor.sat.unsat"
let m_unknown = Obs.Metrics.counter "factor.sat.unknown"
let m_budget_stop = Obs.Metrics.counter "factor.sat.budget_stopped"

let solve ?(budget = Engine.Budget.none) ?(assumptions = [])
    ?(conflict_limit = max_int) s =
  if Engine.Budget.poll budget
     || (budget != Engine.Budget.none
         && Engine.Chaos.abort_point "sat.solve")
  then begin
    (* a dead budget (or an injected abort on a budgeted solve) gives up
       before touching the trail, exactly like an exhausted conflict
       limit *)
    Obs.Metrics.incr m_solves;
    Obs.Metrics.incr m_unknown;
    Obs.Metrics.incr m_budget_stop;
    Unknown
  end
  else if not s.ok then begin
    Obs.Metrics.incr m_solves;
    Obs.Metrics.incr m_unsat;
    Unsat
  end
  else begin
    let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
    let assumptions = Array.of_list assumptions in
    let limit =
      if conflict_limit = max_int then max_int
      else s.conflicts + conflict_limit
    in
    let rec restarts k =
      let outcome = search s assumptions budget (100 * luby k) limit in
      cancel_until s 0;
      match outcome with
      | Sat -> Sat
      | Unsat -> Unsat
      | Unknown ->
        if s.conflicts >= limit then Unknown
        else if Engine.Budget.poll budget then begin
          Obs.Metrics.incr m_budget_stop;
          Unknown
        end
        else restarts (k + 1)
    in
    let outcome = restarts 0 in
    Obs.Metrics.incr m_solves;
    Obs.Metrics.add m_conflicts (s.conflicts - c0);
    Obs.Metrics.add m_decisions (s.decisions - d0);
    Obs.Metrics.add m_propagations (s.propagations - p0);
    Obs.Metrics.incr
      (match outcome with
       | Sat -> m_sat
       | Unsat -> m_unsat
       | Unknown -> m_unknown);
    outcome
  end

let value s v = v < Array.length s.model && s.model.(v)
