(** MiniSat-shaped CDCL: two-watched-literal propagation, first-UIP
    learning with a one-level self-subsumption check, VSIDS activity
    with a max-heap decision order, phase saving, Luby-sequence
    restarts, and activity-driven learned-clause database reduction.

    Storage is unboxed, so propagation touches only [int] arrays and
    bytes and never pays a write barrier:
    - every clause lives in one [int array] arena as a header word
      (length, learnt and deleted bits, and a learnt clause's activity
      slot) followed by its literals; a clause reference is the offset
      of its header;
    - a watcher is a pair of ints, the clause reference and an inline
      literal: a binary clause carries its other literal there, so it
      is decided without reading the arena; a longer clause carries -1;
    - each literal's watch list is a bare [int array] in [wdata] with
      its length in [wsz], so its watchers are one load from the
      literal, not two through a record;
    - literal values take one byte per literal; reasons are clause
      references, -1 for none.  Backtracking leaves a variable's reason
      behind: a reason is read only while its variable is assigned, and
      [enqueue] writes a fresh one.

    Slots 0 and 1 of a clause hold its two watched literals.  Their
    order is written only when the clause becomes a reason or the
    conflict: the implied (or other) watch in slot 0, the falsified
    watch in slot 1.  Conflict analysis and [locked] are the only
    readers of that order, and a reason is never visited again while
    it stands, so every read sees the order that swapping on each
    visit would have left.  Database reduction compacts the arena and
    drops deleted clauses from the watch lists, keeping each list's
    order, so deletion never changes which clauses propagation visits
    or in what order. *)

type lit = int
(* literal encoding: variable [v] is [2v] (positive) / [2v+1] (negated) *)

let pos v = 2 * v
let neg l = l lxor 1
let lit_of v sign = if sign then 2 * v else (2 * v) + 1
let var_of l = l lsr 1
let positive l = l land 1 = 0

(* growable int vector: the learnt list and conflict-analysis scratch *)
type ivec = {
  mutable data : int array;
  mutable sz : int;
}

let ivec_make () = { data = [||]; sz = 0 }

(* grows by half: most watch lists hold a handful of watchers, and
   doubling them kept more memory than the boxed kernel did *)
let grown data n =
  let cap = Array.length data in
  Array.make (max n (max 4 (cap + (cap / 2)))) 0

let ivec_push v x =
  if v.sz >= Array.length v.data then begin
    let d = grown v.data (v.sz + 1) in
    Array.blit v.data 0 d 0 v.sz;
    v.data <- d
  end;
  v.data.(v.sz) <- x;
  v.sz <- v.sz + 1

(* clause header word: bit 0 learnt, bit 1 deleted, bits 2-31 length,
   bits 32 and up the activity slot of a learnt clause (the forwarding
   reference while [compact] runs) *)
let hdr_len h = (h lsr 2) land 0x3FFF_FFFF
let hdr_learnt h = h land 1 <> 0
let hdr_deleted h = h land 2 <> 0
let hdr_low h = h land 0xFFFF_FFFF

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
  mutable level : int array;
  mutable reason : int array;     (* clause reference; -1 = none *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;
  mutable heap_pos : int array;   (* -1 = not in heap *)
  (* per literal *)
  mutable vals : Bytes.t;         (* '\000' false, '\001' true, '\002' unset *)
  mutable wdata : int array array; (* (clause ref, inline literal) pairs *)
  mutable wsz : int array;        (* ints in use in each [wdata] list *)
  (* clause arena *)
  mutable arena : int array;
  mutable arena_sz : int;
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
  (* learned-clause database: references by activity slot *)
  learnts : ivec;
  mutable learnt_act : float array;
  mutable cla_inc : float;
  mutable max_learnts : int;
  mutable ok : bool;
  mutable model : bool array;
  (* conflict-analysis scratch *)
  an_out : ivec;     (* literals below the conflict level, in discovery order *)
  an_clear : ivec;   (* variables whose [seen] flag is set *)
  an_learnt : ivec;  (* the learned clause *)
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;
}

let create () =
  { level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    vals = Bytes.make 32 '\002';
    wdata = Array.make 32 [||];
    wsz = Array.make 32 0;
    arena = Array.make 1024 0;
    arena_sz = 0;
    trail = Array.make 16 0;
    trail_sz = 0;
    trail_lim = Array.make 16 0;
    levels = 0;
    qhead = 0;
    heap = Array.make 16 0;
    heap_sz = 0;
    nvars = 0;
    var_inc = 1.0;
    learnts = ivec_make ();
    learnt_act = [||];
    cla_inc = 1.0;
    max_learnts = 4000;
    ok = true;
    model = [||];
    an_out = ivec_make ();
    an_clear = ivec_make ();
    an_learnt = ivec_make ();
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

(* Both sifts carry the moving variable in a hole and write it once
   where it stops.  They make the comparisons, and so the moves, that
   swapping it one level at a time would: ties stay where they are. *)
let heap_up s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i in
  while !i > 0 && a > act.(heap.((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    let u = heap.(parent) in
    heap.(!i) <- u;
    pos.(u) <- !i;
    i := parent
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_down s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let n = s.heap_sz in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    (* the larger child, if larger than [v]; a tie keeps the left *)
    let best = if l < n && act.(heap.(l)) > a then l else -1 in
    let best =
      if r < n && act.(heap.(r)) > (if best < 0 then a else act.(heap.(best)))
      then r
      else best
    in
    if best < 0 then stop := true
    else begin
      let u = heap.(best) in
      heap.(!i) <- u;
      pos.(u) <- !i;
      i := best
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

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
  let cap = Array.length s.level in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    s.level <- extend s.level 0;
    s.reason <- extend s.reason (-1);
    s.activity <- extend s.activity 0.0;
    s.polarity <- extend s.polarity false;
    s.seen <- extend s.seen false;
    s.heap_pos <- extend s.heap_pos (-1);
    s.trail <- extend s.trail 0;
    s.trail_lim <- extend s.trail_lim 0;
    s.heap <- extend s.heap 0;
    let vals = Bytes.make (2 * cap') '\002' in
    Bytes.blit s.vals 0 vals 0 (2 * cap);
    s.vals <- vals;
    let w = Array.make (2 * cap') [||] in
    Array.blit s.wdata 0 w 0 (2 * cap);
    s.wdata <- w;
    let w = Array.make (2 * cap') 0 in
    Array.blit s.wsz 0 w 0 (2 * cap);
    s.wsz <- w
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  heap_insert s v;
  v

(* value of a literal: -1 unassigned, 0 false, 1 true *)
let lit_value s l =
  match Bytes.get s.vals l with '\002' -> -1 | c -> Char.code c

let assigned s v = Bytes.get s.vals (2 * v) <> '\002'

(* file watcher (clause ref [cr], inline literal) under literal [l] *)
let watch_push s l cr inline =
  let n = s.wsz.(l) in
  let d =
    let d = s.wdata.(l) in
    if n + 2 <= Array.length d then d
    else begin
      let d' = grown d (n + 2) in
      Array.blit d 0 d' 0 n;
      s.wdata.(l) <- d';
      d'
    end
  in
  d.(n) <- cr;
  d.(n + 1) <- inline;
  s.wsz.(l) <- n + 2

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
  Bytes.set s.vals l '\001';
  Bytes.set s.vals (neg l) '\000';
  s.level.(v) <- s.levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_sz) <- l;
  s.trail_sz <- s.trail_sz + 1

(* [propagate s] drains the queue; returns the conflicting clause
   reference or -1.  Only [alloc] and [grow_to] replace the arrays
   held in locals here, and neither runs during propagation. *)
let propagate s =
  let a = s.arena and vals = s.vals and trail = s.trail in
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_sz do
    let p = trail.(s.qhead) in
    (* p just became true, falsifying (neg p): visit the clauses that
       watch it, which [attach] filed under the key [neg (neg p)] = p *)
    let fl = neg p in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* a moved watch goes to another literal's list, so this one's
       buffer stays put while it is scanned *)
    let d = s.wdata.(p) and n = s.wsz.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = d.(!i) and inline = d.(!i + 1) in
      i := !i + 2;
      (* the clause's other watch: inline for a binary clause *)
      let other =
        if inline >= 0 then inline
        else
          let s0 = a.(cr + 1) in
          if s0 = fl then a.(cr + 2) else s0
      in
      let vo = Bytes.get vals other in
      if vo = '\001' then begin
        (* clause already satisfied: keep the watch *)
        d.(!j) <- cr;
        d.(!j + 1) <- inline;
        j := !j + 2
      end
      else begin
        (* a long clause looks for a new literal to watch *)
        let moved =
          inline < 0
          &&
          let stop = cr + 1 + hdr_len a.(cr) in
          let k = ref (cr + 3) in
          while !k < stop && Bytes.get vals a.(!k) = '\000' do incr k done;
          !k < stop
          && begin
            let l = a.(!k) in
            a.(if a.(cr + 1) = fl then cr + 1 else cr + 2) <- l;
            a.(!k) <- fl;
            watch_push s (neg l) cr (-1);
            true
          end
        in
        if not moved then begin
          (* unit or conflicting: keep the watch and orient the clause
             as its reader expects, other watch first *)
          d.(!j) <- cr;
          d.(!j + 1) <- inline;
          j := !j + 2;
          a.(cr + 1) <- other;
          a.(cr + 2) <- fl;
          if vo = '\000' then begin
            confl := cr;
            (* copy the unvisited tail and stop *)
            Array.blit d !i d !j (n - !i);
            j := !j + (n - !i);
            i := n;
            s.qhead <- s.trail_sz
          end
          else enqueue s other cr
        end
      end
    done;
    s.wsz.(p) <- !j
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
      s.polarity.(v) <- Bytes.get s.vals (2 * v) = '\001';
      Bytes.set s.vals l '\002';
      Bytes.set s.vals (neg l) '\002';
      heap_insert s v
    done;
    s.trail_sz <- bound;
    s.qhead <- bound;
    s.levels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Clause management.                                                  *)
(* ------------------------------------------------------------------ *)

(* [alloc s ~learnt len] reserves a clause of [len] literals at the end
   of the arena and returns its reference; the caller writes the
   literals into slots [cr + 1 .. cr + len]. *)
let alloc s ~learnt len =
  let need = s.arena_sz + 1 + len in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_sz;
    s.arena <- a
  end;
  let cr = s.arena_sz in
  s.arena.(cr) <- (len lsl 2) lor (if learnt then 1 else 0);
  s.arena_sz <- need;
  cr

let attach s cr =
  let a = s.arena in
  let l0 = a.(cr + 1) and l1 = a.(cr + 2) in
  if hdr_len a.(cr) = 2 then begin
    watch_push s (neg l0) cr l1;
    watch_push s (neg l1) cr l0
  end
  else begin
    watch_push s (neg l0) cr (-1);
    watch_push s (neg l1) cr (-1)
  end

(** Add a problem clause at decision level 0, simplifying against the
    level-0 assignment. *)
let add_clause s lits =
  if s.ok then begin
    assert (s.levels = 0);
    (* dedup, drop false literals, detect tautologies / satisfied; once
       sorted, a complementary pair [2v], [2v+1] is adjacent *)
    let lits = List.sort_uniq Int.compare lits in
    let rec complementary = function
      | a :: (b :: _ as rest) -> a lxor 1 = b || complementary rest
      | _ -> false
    in
    let tautology =
      complementary lits || List.exists (fun l -> lit_value s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | _ ->
        let cr = alloc s ~learnt:false (List.length lits) in
        List.iteri (fun k l -> s.arena.(cr + 1 + k) <- l) lits;
        attach s cr
    end
  end

(* ------------------------------------------------------------------ *)
(* Learned-clause database reduction.                                  *)
(* ------------------------------------------------------------------ *)

let bump_clause s cr =
  let slot = s.arena.(cr) lsr 32 in
  let act = s.learnt_act in
  act.(slot) <- act.(slot) +. s.cla_inc;
  if act.(slot) > 1e20 then begin
    for i = 0 to s.learnts.sz - 1 do
      act.(i) <- act.(i) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clauses s = s.cla_inc <- s.cla_inc /. 0.999

(* Append learnt clause [cr] to the database with activity [act]. *)
let push_learnt s cr act =
  let slot = s.learnts.sz in
  ivec_push s.learnts cr;
  if slot >= Array.length s.learnt_act then begin
    let a = Array.make (Array.length s.learnts.data) 0.0 in
    Array.blit s.learnt_act 0 a 0 slot;
    s.learnt_act <- a
  end;
  s.learnt_act.(slot) <- act;
  s.arena.(cr) <- hdr_low s.arena.(cr) lor (slot lsl 32)

(* a clause that is the reason of a current assignment must stay *)
let locked s cr =
  let v = s.arena.(cr + 1) lsr 1 in
  assigned s v && s.reason.(v) = cr

(* Reclaim the clauses [reduce_db] marked deleted: drop their watchers
   (each list keeps its order), then slide the live clauses down the
   arena and rewrite every reference to them. *)
let compact s =
  let a = s.arena in
  (* pass 1: each live header records its clause's new offset *)
  let o = ref 0 and fresh = ref 0 in
  while !o < s.arena_sz do
    let h = a.(!o) in
    let size = 1 + hdr_len h in
    if not (hdr_deleted h) then begin
      a.(!o) <- hdr_low h lor (!fresh lsl 32);
      fresh := !fresh + size
    end;
    o := !o + size
  done;
  let fwd cr = a.(cr) lsr 32 in
  (* pass 2: rewrite the references *)
  for l = 0 to (2 * s.nvars) - 1 do
    let d = s.wdata.(l) in
    let j = ref 0 in
    for i = 0 to (s.wsz.(l) / 2) - 1 do
      let cr = d.(2 * i) in
      if not (hdr_deleted a.(cr)) then begin
        d.(!j) <- fwd cr;
        d.(!j + 1) <- d.((2 * i) + 1);
        j := !j + 2
      end
    done;
    s.wsz.(l) <- !j
  done;
  (* an assigned variable's reason is a live clause ([reduce_db] keeps
     locked ones); an unassigned one's is stale, may name a deleted
     clause, and is never read before [enqueue] overwrites it *)
  for v = 0 to s.nvars - 1 do
    if assigned s v && s.reason.(v) >= 0 then s.reason.(v) <- fwd s.reason.(v)
  done;
  for k = 0 to s.learnts.sz - 1 do
    s.learnts.data.(k) <- fwd s.learnts.data.(k)
  done;
  (* pass 3: slide; a clause only ever moves down, past clauses
     already moved *)
  o := 0;
  while !o < s.arena_sz do
    let h = a.(!o) in
    let size = 1 + hdr_len h in
    if not (hdr_deleted h) then begin
      let dst = h lsr 32 in
      Array.blit a !o a dst size;
      a.(dst) <- hdr_low h
    end;
    o := !o + size
  done;
  s.arena_sz <- !fresh;
  (* pass 4: restore the activity slots *)
  for k = 0 to s.learnts.sz - 1 do
    let cr = s.learnts.data.(k) in
    a.(cr) <- a.(cr) lor (k lsl 32)
  done

(** Delete the lower-activity half of the learned clauses (binary and
    locked clauses are always kept) and compact the arena. *)
let reduce_db s =
  let n = s.learnts.sz in
  let refs = Array.sub s.learnts.data 0 n in
  let act = Array.sub s.learnt_act 0 n in
  (* sorting slots by activity makes the same comparisons, and so the
     same permutation, as sorting the clauses themselves *)
  let order = Array.init n Fun.id in
  Array.sort (fun x y -> Float.compare act.(x) act.(y)) order;
  s.learnts.sz <- 0;
  let half = n / 2 in
  Array.iteri
    (fun i slot ->
      let cr = refs.(slot) in
      if i >= half || hdr_len s.arena.(cr) <= 2 || locked s cr then
        push_learnt s cr act.(slot)
      else s.arena.(cr) <- s.arena.(cr) lor 2)
    order;
  compact s;
  (* geometric growth of the budget, à la MiniSat *)
  s.max_learnts <- s.max_learnts + (s.max_learnts / 10)

(* ------------------------------------------------------------------ *)
(* Conflict analysis: first UIP.                                       *)
(* ------------------------------------------------------------------ *)

(** Leaves the learned clause in [s.an_learnt] (asserting literal in
    slot 0, a literal of the backjump level in slot 1 when binary or
    longer) and returns the backjump level. *)
let analyze s confl =
  let a = s.arena in
  let out = s.an_out and to_clear = s.an_clear in
  out.sz <- 0;
  to_clear.sz <- 0;
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_sz - 1) in
  let continue = ref true in
  while !continue do
    let cr = !confl in
    let h = a.(cr) in
    if hdr_learnt h then bump_clause s cr;
    let start = if !p < 0 then 1 else 2 in
    for k = cr + start to cr + hdr_len h do
      let q = a.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        ivec_push to_clear v;
        bump_var s v;
        if s.level.(v) >= s.levels then incr path
        else ivec_push out q
      end
    done;
    (* walk back to the most recent seen literal on the trail; its seen
       flag stays set so the check below can treat resolved-away
       literals as covered *)
    while not s.seen.(s.trail.(!idx) lsr 1) do decr idx done;
    p := s.trail.(!idx);
    let v = !p lsr 1 in
    decr path;
    decr idx;
    if !path = 0 then continue := false else confl := s.reason.(v)
  done;
  (* one-level self-subsumption: a literal whose reason consists
     entirely of literals already in the clause (or resolved away, or
     fixed at level 0) is implied by the rest and can be dropped *)
  let redundant l =
    let r = s.reason.(l lsr 1) in
    r >= 0
    && (let ok = ref true in
        for k = r + 2 to r + hdr_len a.(r) do
          let v = a.(k) lsr 1 in
          if s.level.(v) > 0 && not s.seen.(v) then ok := false
        done;
        !ok)
  in
  (* the kept literals go to slots 1.., newest first *)
  let learnt = s.an_learnt in
  learnt.sz <- 0;
  ivec_push learnt (neg !p);
  for i = out.sz - 1 downto 0 do
    let l = out.data.(i) in
    if not (redundant l) then ivec_push learnt l
  done;
  for i = 0 to to_clear.sz - 1 do
    s.seen.(to_clear.data.(i)) <- false
  done;
  if learnt.sz = 1 then 0
  else begin
    (* slot 1 must hold a literal of the backjump (second-highest)
       level so it is watched when the clause becomes unit there: the
       first kept literal of the highest level moves to slot 1 *)
    let d = learnt.data in
    let best = ref 1 in
    for i = 2 to learnt.sz - 1 do
      if s.level.(d.(i) lsr 1) > s.level.(d.(!best) lsr 1) then best := i
    done;
    let b = d.(!best) in
    Array.blit d 1 d 2 (!best - 1);
    d.(1) <- b;
    s.level.(b lsr 1)
  end

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
    if not (assigned s cand) then v := cand
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
    if confl >= 0 then begin
      s.conflicts <- s.conflicts + 1;
      if s.levels = 0 then begin
        (* level 0 holds only consequences of the clauses, never of
           assumptions: the database itself is unsatisfiable, for this
           call and every later one *)
        s.ok <- false;
        result := Some Unsat
      end
      else begin
        let back_lvl = analyze s confl in
        cancel_until s back_lvl;
        let lits = s.an_learnt in
        if lits.sz > 1 then begin
          let cr = alloc s ~learnt:true lits.sz in
          Array.blit lits.data 0 s.arena (cr + 1) lits.sz;
          attach s cr;
          push_learnt s cr 0.0;
          bump_clause s cr;
          s.learned <- s.learned + 1;
          enqueue s lits.data.(0) cr
        end
        else enqueue s lits.data.(0) (-1);
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
        enqueue s a (-1)
    end
    else begin
      match pick_branch s with
      | -1 ->
        s.model <- Array.init s.nvars (fun v -> lit_value s (pos v) = 1);
        result := Some Sat
      | v ->
        s.decisions <- s.decisions + 1;
        if s.decisions land 1023 = 0 then
          ignore (Engine.Budget.poll tok : bool);
        new_level s;
        enqueue s (lit_of v s.polarity.(v)) (-1)
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
    (* saturating: a limit past [max_int - conflicts] is no limit *)
    let limit =
      if conflict_limit > max_int - s.conflicts then max_int
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
