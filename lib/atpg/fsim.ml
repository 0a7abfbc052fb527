(** Sequential fault simulation; the mli describes the engines and their
    contract.  The packed engine (PPSFP) packs test patterns into the
    lanes of a native word ({!Sim.Packed}), simulates the good circuit
    once per word through the compiled kernel {!Sim.Packed.gate}, then
    event-drives each fault through the word alone: injection is a pair
    of lane masks per site, and only nets whose planes diverge from the
    good planes are re-evaluated, seeded at the sites and at diverged
    flip-flops.  The reference oracle re-evaluates every net on every
    frame, one {!Sim.Logic3} column per fault of a 63-fault batch.  A
    fault's detection by a test never depends on other faults or tests,
    which is why fault dropping, sharding and word-packing are all
    bit-identical to the serial reference. *)

module N = Netlist
module A = N.Analysis
module L = Sim.Logic3
module P = Sim.Packed

type observe = {
  ob_pos : bool;        (** observe primary outputs every cycle *)
  ob_pier_ffs : int list;  (** flip-flops whose final state is observable *)
}

let default_observe = { ob_pos = true; ob_pier_ffs = [] }

(* ------------------------------------------------------------------ *)
(* Engine selection.                                                   *)
(* ------------------------------------------------------------------ *)

type engine_kind = Packed | Reference | Event

(* ------------------------------------------------------------------ *)
(* Metrics: each engine owns its own eval counter so a registry dump    *)
(* is attributable per engine.                                          *)
(* Hot loops accumulate locally and flush once per batch.               *)
(* ------------------------------------------------------------------ *)

let ref_evals_counter = Obs.Metrics.counter "factor.fsim.ref_evals"
let ref_evals () = Obs.Metrics.value ref_evals_counter
let add_ref_evals k = Obs.Metrics.add ref_evals_counter k

let packed_evals_counter = Obs.Metrics.counter "factor.fsim.packed_evals"
let packed_evals () = Obs.Metrics.value packed_evals_counter
let add_packed_evals k = Obs.Metrics.add packed_evals_counter k

(* One packed word = up to [Sim.Packed.width] tests simulated together. *)
let packed_words_counter = Obs.Metrics.counter "factor.fsim.packed_words"
let packed_words () = Obs.Metrics.value packed_words_counter

(* One packed batch = one fault set swept through one word. *)
let packed_batches_counter = Obs.Metrics.counter "factor.fsim.packed_batches"

let packed_batch_hist = Obs.Metrics.histogram "factor.fsim.packed_batch_s"

(* ------------------------------------------------------------------ *)
(* Fault models: one injection interface.                              *)
(* ------------------------------------------------------------------ *)

type wired = Wired_and | Wired_or

type rule =
  | Stuck of bool
  | Slow of bool
  | Wired of int * wired

type descriptor = (int * rule) list

let stuck_at (f : Fault.t) = [ (f.Fault.f_net, Stuck f.Fault.f_stuck) ]

let is_wired = function Wired _ -> true | Stuck _ | Slow _ -> false

(* Columns (other than 0) whose value provably differs from column 0. *)
let detected_mask (v : L.t) : int64 =
  match L.get v 0 with
  | None -> 0L
  | Some true -> Int64.logand v.L.lo (Int64.lognot 1L)
  | Some false -> Int64.logand v.L.hi (Int64.lognot 1L)

(* Indices of the faults not detected yet, in fault order: the active
   set both dropping loops simulate next. *)
let undetected detected =
  let idx = ref [] in
  for i = Array.length detected - 1 downto 0 do
    if not detected.(i) then idx := i :: !idx
  done;
  Array.of_list !idx

(* ------------------------------------------------------------------ *)
(* Reference engine: straight-line evaluation of every net.            *)
(* ------------------------------------------------------------------ *)

(* Per-net injection rules of a batch: (column, rule) lists; the fault
   in batch position i rides column i+1. *)
let injection_table faults =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun i desc ->
      List.iter
        (fun (net, rule) ->
          let old = Option.value (Hashtbl.find_opt table net) ~default:[] in
          Hashtbl.replace table net ((i + 1, rule) :: old))
        desc)
    faults;
  table

(* The three-valued short: an X on either side leaves [own]. *)
let wire kind own partner =
  match (own, partner) with
  | (None, _) | (_, None) -> own
  | (Some a, Some b) ->
    Some (match kind with Wired_and -> a && b | Wired_or -> a || b)

(* Simulate [test] against at most 63 fault descriptors by evaluating
   every net on every frame; returns the detection mask (bit i+1 for
   the i-th descriptor).  A batch with a short settles each frame twice:
   pass 1 without the [Wired] rules, pass 2 with them, every wired site
   reading its partner's pass-1 value. *)
let reference_mask c ~order ~faults ~observe (test : Pattern.test) =
  let nf = List.length faults in
  assert (nf <= 63);
  let table = injection_table faults in
  let shorted = List.exists (List.exists (fun (_, r) -> is_wired r)) faults in
  let n = N.num_nets c in
  let values = Array.make n L.x in
  let unbridged = if shorted then Array.make n L.x else values in
  let state = Array.make (N.num_ffs c) L.x in
  List.iter
    (fun (ff, v) -> state.(ff) <- (if v then L.one else L.zero))
    test.Pattern.p_loads;
  (* the good value (column 0) of every injection site last frame *)
  let prev = Hashtbl.create 16 in
  let inject ~wired net (v : L.t) =
    match Hashtbl.find_opt table net with
    | None -> v
    | Some rules ->
      List.fold_left
        (fun v (col, rule) ->
          match rule with
          | Stuck b -> L.set v col (Some b)
          | Slow rise ->
            (match (Hashtbl.find_opt prev net, L.get v 0) with
             | (Some (Some was), Some now) when was <> now && now = rise ->
               (* the slow transition: this frame the site still shows
                  the old value in the faulty machine *)
               L.set v col (Some was)
             | _ -> v)
          | Wired (partner, kind) ->
            if wired then
              L.set v col
                (wire kind (L.get v col) (L.get unbridged.(partner) col))
            else v)
        v rules
  in
  let detected = ref 0L in
  let eval ~wired pi_vec =
    let pi i = if pi_vec.(i) then L.one else L.zero in
    Array.iter
      (fun net ->
        values.(net) <-
          inject ~wired net (Sim.Eval.drive c values ~pi ~state net))
      order;
    add_ref_evals (Array.length order)
  in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let pi_vec = test.Pattern.p_vectors.(f) in
    if shorted then begin
      eval ~wired:false pi_vec;
      Array.blit values 0 unbridged 0 n
    end;
    eval ~wired:true pi_vec;
    Hashtbl.iter
      (fun net _ -> Hashtbl.replace prev net (L.get values.(net) 0))
      table;
    if observe.ob_pos then
      Array.iter
        (fun po -> detected := Int64.logor !detected (detected_mask values.(po)))
        c.N.pos;
    (* capture next state *)
    Array.iteri (fun i d -> state.(i) <- values.(d)) c.N.ff_d;
    if f = frames - 1 then
      List.iter
        (fun ff ->
          detected := Int64.logor !detected (detected_mask state.(ff)))
        observe.ob_pier_ffs
  done;
  !detected

(* The detected descriptors of a batch of at most 63, as a bool list
   aligned with [faults]: the oracle the packed engine is checked
   against. *)
let run_batch_reference c ~order ~faults ~observe test =
  let det = reference_mask c ~order ~faults ~observe test in
  List.mapi
    (fun i _ -> Int64.logand (Int64.shift_right_logical det (i + 1)) 1L = 1L)
    faults

(* Reference grading: each test against the faults still undetected,
   in batches of 63, fault dropping after every test. *)
let run_reference ~budget c ~observe ~(faults : descriptor array) tests =
  let order = (N.analysis c).A.order in
  let detected = Array.make (Array.length faults) false in
  let prog = Obs.Progress.start ~total:(List.length tests) "fsim.grade" in
  List.iter
    (fun test ->
      Obs.Progress.step prog;
      let active = undetected detected in
      let pos = ref 0 in
      while !pos < Array.length active && not (Engine.Budget.poll budget) do
        let k = min 63 (Array.length active - !pos) in
        let batch = List.init k (fun i -> faults.(active.(!pos + i))) in
        let det = reference_mask c ~order ~faults:batch ~observe test in
        for i = 0 to k - 1 do
          if Int64.logand (Int64.shift_right_logical det (i + 1)) 1L = 1L then
            detected.(active.(!pos + i)) <- true
        done;
        pos := !pos + k
      done)
    tests;
  Obs.Progress.finish prog;
  detected

(* ------------------------------------------------------------------ *)
(* Packed engine (PPSFP): patterns in word lanes, one fault at a time.  *)
(* ------------------------------------------------------------------ *)

(* Good-simulation bit planes of one word of tests: [pg_hi.(f).(net)] /
   [pg_lo.(f).(net)] are net values during frame [f]; [pg_sth.(f).(i)] /
   [pg_stl.(f).(i)] the flip-flop state at the {e start} of frame [f]
   (entry [frames] holds the state after the last frame, for PIER
   observation).  The engine that simulates a word owns them and reuses
   them for the next word; in between they are read-only, so shards may
   share one copy. *)
type pgood = {
  pg_hi : int array array;
  pg_lo : int array array;
  pg_sth : int array array;
  pg_stl : int array array;
}

(* Per-domain scratch of the packed engine: structure-of-arrays planes
   indexed by net, reused across frames, faults and words.  The sweep is
   strictly activity-proportional — state divergence is tracked as a
   list (fed by the analysis's d-net -> flip-flop CSR), never by
   scanning all flip-flops, and the event queue is scanned only between
   the lowest and the highest level scheduled, so a fault with a
   five-net cone costs a handful of ops per frame no matter how much
   state or depth the circuit has. *)
type pengine = {
  xc : N.t;
  xinfo : A.info;
  mutable xgood : pgood;       (* good planes of the current word; grown
                                  to the longest word, never shrunk *)
  xfh : int array;             (* faulty hi plane, valid where xdirty *)
  xfl : int array;
  xdirty : bool array;
  xqueued : bool array;
  xtouched : int array;        (* the dirty nets, in evaluation order *)
  mutable xtouched_n : int;
  xbucket : int array;         (* event queue: level l's nets from
                                  level_off.(l) on *)
  xfill : int array;           (* per level: nets queued *)
  mutable xlo : int;           (* lowest and highest level queued; *)
  mutable xhi : int;           (* xlo > xhi when the queue is empty *)
  xfsh : int array;            (* faulty state, valid where xsdirty *)
  xfsl : int array;
  xsdirty : bool array;
  xsdirty_list : int array;    (* the flip-flops behind the xsdirty flags *)
  mutable xsdirty_n : int;
  xsite : int array;           (* net -> its site in the swept fault, or -1 *)
  mutable xforce_hi : int array; (* per site, this frame: lanes forced to 1 *)
  mutable xforce_lo : int array; (* ... and to 0 *)
  mutable xknown : int array;  (* per site: 0 = force known lanes only, -1 = all *)
  xr : P.rail;                 (* the kernel's output *)
}

let make_pengine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  { xc = c; xinfo = info;
    xgood = { pg_hi = [||]; pg_lo = [||]; pg_sth = [||]; pg_stl = [||] };
    xfh = Array.make n 0;
    xfl = Array.make n 0;
    xdirty = Array.make n false;
    xqueued = Array.make n false;
    xtouched = Array.make n 0;
    xtouched_n = 0;
    xbucket = Array.make n 0;
    xfill = Array.make (info.A.max_level + 1) 0;
    xlo = info.A.max_level + 1;
    xhi = -1;
    xfsh = Array.make nff 0;
    xfsl = Array.make nff 0;
    xsdirty = Array.make nff false;
    xsdirty_list = Array.make nff 0;
    xsdirty_n = 0;
    xsite = Array.make n (-1);
    xforce_hi = [| 0 |];
    xforce_lo = [| 0 |];
    xknown = [| -1 |];
    xr = { P.hi = 0; lo = 0 } }

let batch_of_tests c (chunk : Pattern.test array) =
  P.make_batch ~num_pis:(N.num_pis c) ~num_ffs:(N.num_ffs c)
    ~vectors:(Array.map (fun t -> t.Pattern.p_vectors) chunk)
    ~loads:(Array.map (fun t -> t.Pattern.p_loads) chunk)

(* The engine's good planes, grown to hold a word of [frames] frames:
   planes already there are kept, so a run allocates them once for its
   longest word. *)
let good_planes eng frames =
  let g = eng.xgood in
  if Array.length g.pg_hi < frames then begin
    let n = N.num_nets eng.xc and nff = max 1 (N.num_ffs eng.xc) in
    let grow planes k len =
      Array.init k (fun f ->
          if f < Array.length planes then planes.(f) else Array.make len 0)
    in
    eng.xgood <-
      { pg_hi = grow g.pg_hi frames n;
        pg_lo = grow g.pg_lo frames n;
        pg_sth = grow g.pg_sth (frames + 1) nff;
        pg_stl = grow g.pg_stl (frames + 1) nff }
  end;
  eng.xgood

(* Simulate the fault-free circuit over a whole word of tests: one
   linear sweep of the topo order per frame, every gate settling all
   lanes at once, straight into the engine's planes for that frame. *)
let good_word eng (b : P.batch) =
  Obs.Metrics.incr packed_words_counter;
  let c = eng.xc in
  let info = eng.xinfo in
  let n = N.num_nets c in
  let nff = N.num_ffs c in
  let frames = b.P.b_frames in
  let good = good_planes eng frames in
  Array.blit b.P.b_load_hi 0 good.pg_sth.(0) 0 nff;
  Array.blit b.P.b_load_lo 0 good.pg_stl.(0) 0 nff;
  let order = info.A.order and ops = info.A.op and fanin = info.A.fanin in
  let r = eng.xr in
  let m = b.P.b_mask in
  for f = 0 to frames - 1 do
    let gh = good.pg_hi.(f) and gl = good.pg_lo.(f) in
    let sh = good.pg_sth.(f) and sl = good.pg_stl.(f) in
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    for k = 0 to n - 1 do
      let net = order.(k) in
      let op = Bytes.get_uint8 ops net in
      let a = fanin.(3 * net) in
      if op = A.op_pi then begin
        gh.(net) <- pih.(a);
        gl.(net) <- pil.(a)
      end
      else if op = A.op_ff then begin
        gh.(net) <- sh.(a);
        gl.(net) <- sl.(a)
      end
      else begin
        let b = fanin.((3 * net) + 1) and s = fanin.((3 * net) + 2) in
        P.gate r op m gh.(a) gl.(a) gh.(b) gl.(b) gh.(s) gl.(s);
        gh.(net) <- r.P.hi;
        gl.(net) <- r.P.lo
      end
    done;
    add_packed_evals n;
    let nsh = good.pg_sth.(f + 1) and nsl = good.pg_stl.(f + 1) in
    for i = 0 to nff - 1 do
      let d = c.N.ff_d.(i) in
      nsh.(i) <- gh.(d);
      nsl.(i) <- gl.(d)
    done
  done;
  good

(* PIER membership as a bitmap over flip-flop indices, built once per
   word (or run) so the sweep never walks the pier list. *)
let pier_flags c observe =
  let a = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun ff -> a.(ff) <- true) observe.ob_pier_ffs;
  a

(* Raised inside a settle when a primary output detects the swept fault
   and the caller stops at the first detection. *)
exception Po_detected

(* Queue [net] for evaluation in its level's bucket, once per pass. *)
let schedule eng net =
  if not eng.xqueued.(net) then begin
    eng.xqueued.(net) <- true;
    let lv = eng.xinfo.A.level.(net) in
    let k = eng.xfill.(lv) in
    eng.xbucket.(eng.xinfo.A.level_off.(lv) + k) <- net;
    eng.xfill.(lv) <- k + 1;
    if lv < eng.xlo then eng.xlo <- lv;
    if lv > eng.xhi then eng.xhi <- lv
  end

(* Event-drive one fault, given as its injection [sites], through the
   whole word.  Each frame every site is re-evaluated and then forced on
   the lanes its rule selects — two mask ops, the masks read off the
   good planes ([Stuck], [Slow]) or off a first settle of the frame with
   the shorts lifted ([Wired]) — and only nets whose packed value
   diverges from the good planes are re-evaluated.  Returns the per-lane
   detection mask, already restricted to the lanes still inside their
   own test ([b_active]) and, for PIER observation, to each lane's own
   final frame ([b_last]).  With [stop_on_detect] the sweep ends at the
   first detection: as soon as the final settle of a frame (never
   pass 1 of a short) gives a primary output a value that differs from
   the good planes on a lane still inside its test, those lanes are
   recorded, whatever is still queued is unqueued, the frame's
   bookkeeping finishes on the nets settled so far and the sweep
   returns; a frame that detects only through PIER state ends the
   sweep after that frame.  The mask is then nonzero but may name only
   the first detecting output's lanes — sound whenever the caller only
   fault-drops on the mask (the rest of the frame and the remaining
   frames could only set more lane bits), and the dominant saving on
   dropping runs where most faults fall in the first frames of the
   first word.  Nothing is allocated per frame or per net. *)
let packed_sweep eng good (b : P.batch) ~observe ~piers ~stop_on_detect
    (sites : (int * rule) array) =
  let c = eng.xc in
  let info = eng.xinfo in
  let ops = info.A.op and fanin = info.A.fanin in
  let level_off = info.A.level_off and is_po = info.A.is_po in
  let fo = info.A.fanout_off and fanout = info.A.fanout in
  let dirty = eng.xdirty and fh = eng.xfh and fl = eng.xfl in
  let r = eng.xr in
  let m = b.P.b_mask in
  let stop_at_po = stop_on_detect && observe.ob_pos in
  let ns = Array.length sites in
  if Array.length eng.xforce_hi < ns then begin
    eng.xforce_hi <- Array.make ns 0;
    eng.xforce_lo <- Array.make ns 0;
    eng.xknown <- Array.make ns (-1)
  end;
  let force_hi = eng.xforce_hi and force_lo = eng.xforce_lo in
  let known = eng.xknown in
  (* a one-site fault is recognised by one compare; only multi-site
     faults go through the net -> site map *)
  let net0 = if ns > 0 then fst sites.(0) else -1 in
  let multi = ns > 1 in
  (* [Stuck] masks hold for the whole word; only [Slow] and [Wired]
     masks are recomputed per frame *)
  let per_frame = ref false and shorted = ref false in
  for s = 0 to ns - 1 do
    let (net, rule) = sites.(s) in
    known.(s) <- -1;
    (match rule with
     | Stuck v ->
       force_hi.(s) <- (if v then m else 0);
       force_lo.(s) <- (if v then 0 else m)
     | Slow _ -> per_frame := true
     | Wired _ ->
       (* a short forces only the lanes where the site's own value is
          known *)
       known.(s) <- 0;
       per_frame := true;
       shorted := true);
    if multi then eng.xsite.(net) <- s
  done;
  (* clear state divergence left over from an early-exited sweep *)
  for k = 0 to eng.xsdirty_n - 1 do
    eng.xsdirty.(eng.xsdirty_list.(k)) <- false
  done;
  eng.xsdirty_n <- 0;
  let detected = ref 0 in
  let evals = ref 0 in
  let frames = b.P.b_frames in
  let fr = ref 0 in
  while !fr < frames && not (stop_on_detect && !detected <> 0) do
    let f = !fr in
    let act = b.P.b_active.(f) in
    let gh = good.pg_hi.(f) and gl = good.pg_lo.(f) in
    let gsh = good.pg_sth.(f) and gsl = good.pg_stl.(f) in
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    if !per_frame then
      for s = 0 to ns - 1 do
        let (net, rule) = sites.(s) in
        match rule with
        | Stuck _ -> ()
        | Slow rise when f > 0 ->
          (* lanes whose good value makes the slow transition this frame
             keep last frame's good value *)
          let was_hi = good.pg_hi.(f - 1).(net) in
          let was_lo = good.pg_lo.(f - 1).(net) in
          force_hi.(s) <- (if rise then 0 else was_hi land gl.(net));
          force_lo.(s) <- (if rise then was_lo land gh.(net) else 0)
        | Slow _ | Wired _ ->
          force_hi.(s) <- 0;
          force_lo.(s) <- 0
      done;
    (* settle the faulty machine for this frame under the current masks,
       seeded at the sites and at the diverged flip-flops; with a short,
       pass 1 first settles the frame with the shorts lifted *)
    for pass = (if !shorted then 1 else 2) to 2 do
      for s = 0 to ns - 1 do
        schedule eng (fst sites.(s))
      done;
      for k = 0 to eng.xsdirty_n - 1 do
        schedule eng c.N.ff_q.(eng.xsdirty_list.(k))
      done;
      (* levelized event propagation: fanouts are strictly deeper than
         their fanins, so draining level by level evaluates each net at
         most once, and a level's bucket no longer grows once reached *)
      let lv = ref eng.xlo in
      (try
         while !lv <= eng.xhi do
           let l = !lv in
           let base = level_off.(l) in
           for q = base to base + eng.xfill.(l) - 1 do
             let net = eng.xbucket.(q) in
             eng.xqueued.(net) <- false;
             let op = Bytes.get_uint8 ops net in
             let a = fanin.(3 * net) in
             if op = A.op_pi then begin
               r.P.hi <- pih.(a);
               r.P.lo <- pil.(a)
             end
             else if op = A.op_ff then begin
               if eng.xsdirty.(a) then begin
                 r.P.hi <- eng.xfsh.(a);
                 r.P.lo <- eng.xfsl.(a)
               end
               else begin
                 r.P.hi <- gsh.(a);
                 r.P.lo <- gsl.(a)
               end
             end
             else begin
               let b = fanin.((3 * net) + 1) and s = fanin.((3 * net) + 2) in
               let da = dirty.(a) and db = dirty.(b) and ds = dirty.(s) in
               P.gate r op m
                 (if da then fh.(a) else gh.(a)) (if da then fl.(a) else gl.(a))
                 (if db then fh.(b) else gh.(b)) (if db then fl.(b) else gl.(b))
                 (if ds then fh.(s) else gh.(s)) (if ds then fl.(s) else gl.(s))
             end;
             if net = net0 || (multi && eng.xsite.(net) >= 0) then begin
               let s = if net = net0 then 0 else eng.xsite.(net) in
               let nh = r.P.hi and nl = r.P.lo in
               let k = nh lor nl lor known.(s) in
               let forced_hi = force_hi.(s) land k
               and forced_lo = force_lo.(s) land k in
               r.P.hi <- (nh land lnot forced_lo) lor forced_hi;
               r.P.lo <- (nl land lnot forced_hi) lor forced_lo
             end;
             incr evals;
             let nh = r.P.hi and nl = r.P.lo in
             if nh <> gh.(net) || nl <> gl.(net) then begin
               fh.(net) <- nh;
               fl.(net) <- nl;
               dirty.(net) <- true;
               eng.xtouched.(eng.xtouched_n) <- net;
               eng.xtouched_n <- eng.xtouched_n + 1;
               if stop_at_po && pass = 2 && Bytes.get_uint8 is_po net = 1
               then begin
                 let d =
                   ((gh.(net) land nl) lor (gl.(net) land nh)) land act
                 in
                 if d <> 0 then begin
                   detected := d;
                   raise_notrace Po_detected
                 end
               end;
               for k = fo.(net) to fo.(net + 1) - 1 do
                 schedule eng fanout.(k)
               done
             end
           done;
           eng.xfill.(l) <- 0;
           incr lv
         done
       with Po_detected ->
         (* unqueue what the stop left behind, from the level it hit on *)
         for l = !lv to eng.xhi do
           let base = level_off.(l) in
           for q = base to base + eng.xfill.(l) - 1 do
             eng.xqueued.(eng.xbucket.(q)) <- false
           done;
           eng.xfill.(l) <- 0
         done);
      eng.xlo <- info.A.max_level + 1;
      eng.xhi <- -1;
      if pass = 1 then begin
        (* each wired site's pass-1 partner value decides which lanes the
           short pulls down (AND) or up (OR) in pass 2 *)
        for s = 0 to ns - 1 do
          match sites.(s) with
          | (_, Wired (p, Wired_and)) ->
            force_lo.(s) <- (if dirty.(p) then fl.(p) else gl.(p))
          | (_, Wired (p, Wired_or)) ->
            force_hi.(s) <- (if dirty.(p) then fh.(p) else gh.(p))
          | (_, (Stuck _ | Slow _)) -> ()
        done;
        for k = 0 to eng.xtouched_n - 1 do
          dirty.(eng.xtouched.(k)) <- false
        done;
        eng.xtouched_n <- 0
      end
    done;
    (* a primary output can only detect where it diverged: walk the
       touched nets against the PO bitmap, not every PO *)
    if observe.ob_pos then begin
      for k = 0 to eng.xtouched_n - 1 do
        let net = eng.xtouched.(k) in
        if Bytes.get_uint8 is_po net = 1 then
          detected :=
            !detected
            lor (((gh.(net) land fl.(net)) lor (gl.(net) land fh.(net)))
                 land act)
      done
    end;
    (* capture next faulty state: drop last frame's divergence, then walk
       the nets that diverged this frame and mark exactly the flip-flops
       they feed — cost proportional to the fault's activity, not to the
       amount of state in the circuit *)
    for k = 0 to eng.xsdirty_n - 1 do
      eng.xsdirty.(eng.xsdirty_list.(k)) <- false
    done;
    eng.xsdirty_n <- 0;
    let ff_of_d = info.A.ff_of_d and ff_off = info.A.ff_of_d_off in
    for k = 0 to eng.xtouched_n - 1 do
      let d = eng.xtouched.(k) in
      for j = ff_off.(d) to ff_off.(d + 1) - 1 do
        let i = ff_of_d.(j) in
        eng.xfsh.(i) <- fh.(d);
        eng.xfsl.(i) <- fl.(d);
        if not eng.xsdirty.(i) then begin
          eng.xsdirty.(i) <- true;
          eng.xsdirty_list.(eng.xsdirty_n) <- i;
          eng.xsdirty_n <- eng.xsdirty_n + 1
        end
      done
    done;
    (* each lane observes PIER state after its own last frame; walk the
       diverged flip-flops (few) against the pier bitmap, not the pier
       list (possibly large) *)
    let last = b.P.b_last.(f) in
    if last <> 0 && eng.xsdirty_n > 0 then begin
      let nsh = good.pg_sth.(f + 1) and nsl = good.pg_stl.(f + 1) in
      for k = 0 to eng.xsdirty_n - 1 do
        let ff = eng.xsdirty_list.(k) in
        if piers.(ff) then
          detected :=
            !detected
            lor (((nsh.(ff) land eng.xfsl.(ff))
                  lor (nsl.(ff) land eng.xfsh.(ff)))
                 land last)
      done
    end;
    for k = 0 to eng.xtouched_n - 1 do
      dirty.(eng.xtouched.(k)) <- false
    done;
    eng.xtouched_n <- 0;
    incr fr
  done;
  if multi then
    for s = 0 to ns - 1 do
      eng.xsite.(fst sites.(s)) <- -1
    done;
  add_packed_evals !evals;
  !detected land m

(* Sweep the active faults through one word, observing the per-word time
   histogram and the packed-sweep span (its child [fsim.good] covers the
   transpose and the good simulation); [apply k det] receives, in
   [active] order, the index into [active] and its nonzero lane mask.
   With [jobs > 1] the active faults are sharded across the global pool,
   every shard sweeping its slice against the one shared good
   simulation, which [eng] owns: the next word overwrites it only after
   every shard has returned. *)
let packed_word ?(budget = Engine.Budget.none) ~jobs eng c ~observe
    ~stop_on_detect ~(faults : (int * rule) array array)
    ~(active : int array) (chunk : Pattern.test array) ~apply =
  let t0 = Engine.Clock.now () in
  Obs.Metrics.incr packed_batches_counter;
  let sweep () =
    let simulate () =
      let b = batch_of_tests c chunk in
      (b, good_word eng b)
    in
    let (b, good) =
      if Obs.Span.enabled () then Obs.Span.with_ "fsim.good" simulate
      else simulate ()
    in
    let piers = pier_flags c observe in
    (* one atomic load per fault; the word loops above poll the clock *)
    let det eng i =
      if Engine.Budget.check budget then 0
      else packed_sweep eng good b ~observe ~piers ~stop_on_detect faults.(i)
    in
    let dets =
      if jobs <= 1 then Array.map (det eng) active
      else
        Array.concat
          (Array.to_list
             (Engine.Shard.map_chunks (Engine.Pool.global ()) ~shards:jobs
                (fun sub -> Array.map (det (make_pengine c)) sub)
                active))
    in
    Array.iteri (fun k d -> if d <> 0 then apply k d) dets
  in
  (if Obs.Span.enabled () then
     Obs.Span.with_ "fsim.packed"
       ~attrs:
         ([ ("tests", Obs.Json.Int (Array.length chunk));
            ("faults", Obs.Json.Int (Array.length active)) ]
          @ if jobs > 1 then [ ("shards", Obs.Json.Int jobs) ] else [])
       sweep
   else sweep ());
  Obs.Metrics.observe packed_batch_hist (Engine.Clock.now () -. t0)

(* Packed run: word-sized chunks of tests in order (a single test is a
   one-lane word), fault dropping at word granularity.  The word loop
   stays sequential at every [jobs], so dropping between words is
   preserved; only each word's active faults are sharded.  Because
   detection of a fault by a test never depends on other faults or
   tests, the flags are bit-identical to the per-test-dropping
   reference. *)
let run_packed ~budget ~jobs c ~observe
    ~(faults : (int * rule) array array) tests =
  let n = Array.length faults in
  let detected = Array.make n false in
  if n > 0 then begin
    let eng = make_pengine c in
    let tests_arr = Array.of_list tests in
    let nt = Array.length tests_arr in
    let prog =
      Obs.Progress.start ~total:((nt + P.width - 1) / P.width) "fsim.grade"
    in
    let pos = ref 0 in
    let remaining = ref n in
    while !pos < nt && !remaining > 0
          && not (Engine.Budget.poll budget) do
      let len = min P.width (nt - !pos) in
      let chunk = Array.sub tests_arr !pos len in
      pos := !pos + len;
      let active = undetected detected in
      packed_word ~budget ~jobs eng c ~observe ~stop_on_detect:true
        ~faults ~active chunk
        ~apply:(fun k _det ->
          detected.(active.(k)) <- true;
          decr remaining);
      Obs.Progress.step prog
    done;
    Obs.Progress.finish prog
  end;
  detected

(* ------------------------------------------------------------------ *)
(* Engine dispatch.                                                    *)
(* ------------------------------------------------------------------ *)

let descriptors faults = Array.of_list (List.map stuck_at faults)

(* Injection sites of every fault, as the packed sweep takes them. *)
let packed_sites faults = Array.map Array.of_list faults

(* Grading with fault dropping on the packed engine, or on the oracle
   under [Reference] (and [Event], which has no engine of its own).  The
   packed engine shards each word's active faults over the global pool
   at [jobs > 1]; the oracle runs serially. *)
let dispatch ?engine ~budget ~jobs c ~observe ~faults tests =
  match engine with
  | None | Some Packed ->
    run_packed ~budget ~jobs c ~observe ~faults:(packed_sites faults) tests
  | Some (Reference | Event) -> run_reference ~budget c ~observe ~faults tests

(* Stuck-at grading: below 128 faults sharding does not pay. *)
let run ?engine ?(budget = Engine.Budget.none) ?(jobs = 1) c ~observe
    ~faults tests =
  let jobs = if List.length faults < 128 then 1 else jobs in
  dispatch ?engine ~budget ~jobs c ~observe ~faults:(descriptors faults) tests

let run_descriptors ?engine ?(budget = Engine.Budget.none) c ~observe
    ~faults tests =
  dispatch ?engine ~budget ~jobs:1 c ~observe ~faults:(Array.of_list faults)
    tests

let coverage c ~observe ~faults tests =
  match faults with
  | [] -> 100.0
  | _ ->
    let flags = run_descriptors c ~observe ~faults tests in
    let hits = Array.fold_left (fun n d -> if d then n + 1 else n) 0 flags in
    100.0 *. float_of_int hits /. float_of_int (Array.length flags)

(* The full detection matrix, no dropping: one signature per index in
   [active], one byte per test.  The packed engine sweeps word-sized
   test chunks without early exit. *)
let run_matrix c ~observe
    ~(faults : Fault.t array) ~(active : int array)
    (tests : Pattern.test array) =
  let nt = Array.length tests in
  let sigs = Array.init (Array.length active) (fun _ -> Bytes.make nt '\000') in
  if Array.length active > 0 && nt > 0 then begin
    let eng = make_pengine c in
    let faults = packed_sites (Array.map stuck_at faults) in
    let pos = ref 0 in
    while !pos < nt do
      let len = min P.width (nt - !pos) in
      let chunk = Array.sub tests !pos len in
      let off = !pos in
      pos := !pos + len;
      packed_word ~budget:Engine.Budget.none ~jobs:1 eng c ~observe
        ~stop_on_detect:false ~faults ~active chunk
        ~apply:(fun k det ->
          for l = 0 to len - 1 do
            if (det lsr l) land 1 = 1 then
              Bytes.set sigs.(k) (off + l) '\001'
          done)
    done
  end;
  sigs
