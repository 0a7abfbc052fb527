(** Sequential fault simulation behind three engines with bit-identical
    detection flags.  {!run} picks the engine from the test count.

    - {b Packed} (PPSFP, any test list longer than one): test patterns
      are packed into the lanes of a native machine word ({!Sim.Packed},
      up to [Sys.int_size] patterns per word).  The good circuit is
      simulated once per word — every gate evaluation settles a whole
      word of patterns in a handful of unboxed bit ops over dual-rail
      planes — and each fault is then event-driven through the word:
      injection is a pair of lane masks per site (two AND/OR ops), and
      only nets whose packed value diverges from the good planes are
      re-evaluated, seeded at the injection sites and at flip-flops
      whose faulty state word differs.
    - {b Event} (a one-test list): the parallel-fault engine — bit
      column 0 of a {!Sim.Logic3} word carries the good circuit,
      columns 1..63 one faulty circuit each.  With one pattern there is
      nothing to pack, and 63 faults per evaluation beat one lane per
      word by 2-4x on the ARM.
    - {b Reference}: the straight-line oracle — every net re-evaluated
      on every frame of every 63-fault batch.  Kept as the differential
      oracle ({!run_batch_reference}) and benchmark baseline.

    Faults reach the reference and packed engines as {!descriptor}s —
    per-site injection rules for stuck-at, transition and bridging
    faults — so every fault model runs on the same two engines; the
    event engine is stuck-at only.

    All engines share the detection semantics: flip-flops start at X
    (except loaded PIER registers), so detection is conservative exactly
    like the pattern translation the paper performs, and a fault's
    detection by a test never depends on other faults or tests — which
    is why fault dropping, sharding and word-packing are all
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

type engine_kind = Packed | Event | Reference

(* ------------------------------------------------------------------ *)
(* Metrics: each engine owns its own eval counter so a registry dump    *)
(* is attributable per engine.                                          *)
(* Hot loops accumulate locally and flush once per batch.               *)
(* ------------------------------------------------------------------ *)

let eval_counter = Obs.Metrics.counter "factor.fsim.evals"
let eval_count () = Obs.Metrics.value eval_counter
let add_evals k = Obs.Metrics.add eval_counter k

let ref_eval_counter = Obs.Metrics.counter "factor.fsim.ref_evals"
let ref_eval_count () = Obs.Metrics.value ref_eval_counter
let add_ref_evals k = Obs.Metrics.add ref_eval_counter k

let packed_eval_counter = Obs.Metrics.counter "factor.fsim.packed_evals"
let packed_eval_count () = Obs.Metrics.value packed_eval_counter
let add_packed_evals k = Obs.Metrics.add packed_eval_counter k

let good_sims_counter = Obs.Metrics.counter "factor.fsim.good_sims"
let batches_counter = Obs.Metrics.counter "factor.fsim.batches"

(* One packed word = up to [Sim.Packed.width] tests simulated together. *)
let packed_words_counter = Obs.Metrics.counter "factor.fsim.packed_words"
let packed_word_count () = Obs.Metrics.value packed_words_counter

(* One packed batch = one fault set swept through one word. *)
let packed_batches_counter = Obs.Metrics.counter "factor.fsim.packed_batches"

let packed_batch_hist = Obs.Metrics.histogram "factor.fsim.packed_batch_s"

let evals_for = function
  | Packed -> packed_eval_count ()
  | Event -> eval_count ()
  | Reference -> ref_eval_count ()

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
   set every dropping loop simulates next. *)
let undetected detected =
  let idx = ref [] in
  for i = Array.length detected - 1 downto 0 do
    if not detected.(i) then idx := i :: !idx
  done;
  Array.of_list !idx

(* One test against [faults] in batches of 63: [simulate batch]
   simulates at most 63 faults and returns the detection mask, bit k+1
   for [batch.(k)].  Flags align with [faults]. *)
let in_batches ~budget faults simulate =
  let len = Array.length faults in
  let flags = Array.make len false in
  let pos = ref 0 in
  while !pos < len && not (Engine.Budget.poll budget) do
    let k = min 63 (len - !pos) in
    let det = simulate (Array.sub faults !pos k) in
    for i = 0 to k - 1 do
      if Int64.logand (Int64.shift_right_logical det (i + 1)) 1L = 1L then
        flags.(!pos + i) <- true
    done;
    pos := !pos + k
  done;
  flags

(* Multi-test grading with per-test fault dropping — the dropping
   semantics every engine shares: [flags_of active test] grades one test
   against the faults still undetected, flags aligned with [active]. *)
let drop_per_test ~budget ~n tests flags_of =
  let detected = Array.make n false in
  if n > 0 then begin
    let prog = Obs.Progress.start ~total:(List.length tests) "fsim.grade" in
    List.iter
      (fun test ->
        Obs.Progress.step prog;
        let active = undetected detected in
        if Array.length active > 0 && not (Engine.Budget.poll budget) then
          Array.iteri
            (fun k hit -> if hit then detected.(active.(k)) <- true)
            (flags_of active test))
      tests;
    Obs.Progress.finish prog
  end;
  detected

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
   aligned with [faults]: the oracle the other engines are checked
   against. *)
let run_batch_reference c ~order ~faults ~observe test =
  let det = reference_mask c ~order ~faults ~observe test in
  List.mapi
    (fun i _ -> Int64.logand (Int64.shift_right_logical det (i + 1)) 1L = 1L)
    faults

let run_reference ~budget c ~observe ~(faults : descriptor array) tests =
  let order = (N.analysis c).A.order in
  drop_per_test ~budget ~n:(Array.length faults) tests (fun active test ->
      in_batches ~budget (Array.map (fun i -> faults.(i)) active) (fun batch ->
          reference_mask c ~order ~faults:(Array.to_list batch) ~observe test))

(* ------------------------------------------------------------------ *)
(* Event-driven engine.                                                *)
(* ------------------------------------------------------------------ *)

(* Cached good-circuit values of one test: per frame, per net, one byte
   (0 = X, 1 = zero, 2 = one); likewise the flip-flop state at the start
   of each frame.  Computed once per test and shared by every fault
   batch. *)
type good = {
  go_vals : Bytes.t array;
  go_state : Bytes.t array;
}

let byte_of v =
  match L.get v 0 with None -> 0 | Some false -> 1 | Some true -> 2

(* The good value replicated across all 64 columns (constants: no
   allocation). *)
let rep b = if b = 1 then L.zero else if b = 2 then L.one else L.x

(* Mutable per-circuit scratch, reused across frames, batches and tests. *)
type engine = {
  c : N.t;
  info : A.info;
  values : L.t array;          (* good-simulation values *)
  gstate : L.t array;          (* good-simulation flip-flop state *)
  fvals : L.t array;           (* faulty values, valid where dirty *)
  dirty : bool array;          (* net diverges from the good value *)
  queued : bool array;         (* net scheduled this frame *)
  touched : int array;         (* dirty nets, for cleanup *)
  mutable touched_n : int;
  buckets : int list array;    (* event queue, bucketed by level *)
  fstate : L.t array;          (* faulty state, valid where state_dirty *)
  state_dirty : bool array;
  inj_hi : int64 array;        (* per net: columns forced to 1 *)
  inj_lo : int64 array;        (* per net: columns forced to 0 *)
}

let make_engine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  { c; info;
    values = Array.make n L.x;
    gstate = Array.make nff L.x;
    fvals = Array.make n L.x;
    dirty = Array.make n false;
    queued = Array.make n false;
    touched = Array.make n 0;
    touched_n = 0;
    buckets = Array.make (info.A.max_level + 1) [];
    fstate = Array.make nff L.x;
    state_dirty = Array.make nff false;
    inj_hi = Array.make n 0L;
    inj_lo = Array.make n 0L }

(* Simulate the fault-free circuit over the whole test, recording every
   net value and the state at the start of each frame. *)
let good_sim eng (test : Pattern.test) =
  Obs.Metrics.incr good_sims_counter;
  let c = eng.c in
  let n = N.num_nets c in
  let nff = N.num_ffs c in
  let frames = Array.length test.Pattern.p_vectors in
  let go_vals = Array.init frames (fun _ -> Bytes.make n '\000') in
  let go_state = Array.init frames (fun _ -> Bytes.make (max 1 nff) '\000') in
  let v = eng.values in
  let state = eng.gstate in
  Array.fill state 0 (Array.length state) L.x;
  List.iter
    (fun (ff, b) -> state.(ff) <- (if b then L.one else L.zero))
    test.Pattern.p_loads;
  for f = 0 to frames - 1 do
    for i = 0 to nff - 1 do
      Bytes.set_uint8 go_state.(f) i (byte_of state.(i))
    done;
    let pi_vec = test.Pattern.p_vectors.(f) in
    let pi i = if pi_vec.(i) then L.one else L.zero in
    Array.iter
      (fun net -> v.(net) <- Sim.Eval.drive c v ~pi ~state net)
      eng.info.A.order;
    add_evals (Array.length eng.info.A.order);
    for net = 0 to n - 1 do
      Bytes.set_uint8 go_vals.(f) net (byte_of v.(net))
    done;
    Array.iteri (fun i d -> state.(i) <- v.(d)) c.N.ff_d
  done;
  { go_vals; go_state }

(* Simulate one batch of at most 63 faults against the cached good
   values; returns the detection bitmask (bit k+1 = batch.(k)). *)
let simulate_batch eng good ~observe (batch : Fault.t array) test =
  Obs.Metrics.incr batches_counter;
  let c = eng.c in
  let info = eng.info in
  let nb = Array.length batch in
  assert (nb <= 63);
  (* O(1) fault injection: per-net column masks, built once per batch *)
  let inj_nets = ref [] in
  Array.iteri
    (fun k (f : Fault.t) ->
      let net = f.Fault.f_net in
      let m = Int64.shift_left 1L (k + 1) in
      if eng.inj_hi.(net) = 0L && eng.inj_lo.(net) = 0L then
        inj_nets := net :: !inj_nets;
      if f.Fault.f_stuck then eng.inj_hi.(net) <- Int64.logor eng.inj_hi.(net) m
      else eng.inj_lo.(net) <- Int64.logor eng.inj_lo.(net) m)
    batch;
  let inj_nets = !inj_nets in
  Array.fill eng.state_dirty 0 (Array.length eng.state_dirty) false;
  let detected = ref 0L in
  let evals = ref 0 in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let gv = good.go_vals.(f) in
    let gs = good.go_state.(f) in
    let pi_vec = test.Pattern.p_vectors.(f) in
    let value_of a =
      if eng.dirty.(a) then eng.fvals.(a) else rep (Bytes.get_uint8 gv a)
    in
    let schedule net =
      if not eng.queued.(net) then begin
        eng.queued.(net) <- true;
        let lv = info.A.level.(net) in
        eng.buckets.(lv) <- net :: eng.buckets.(lv)
      end
    in
    (* seed: injection sites always, plus flip-flops whose faulty state
       diverged from the good state *)
    List.iter schedule inj_nets;
    Array.iteri (fun i sd -> if sd then schedule c.N.ff_q.(i)) eng.state_dirty;
    (* levelized event propagation: fanouts are strictly deeper than
       their fanins, so each net is evaluated at most once per frame *)
    let rec drain = function
      | [] -> ()
      | net :: rest ->
        eng.queued.(net) <- false;
        let v =
          match c.N.drv.(net) with
          | N.Pi i -> if pi_vec.(i) then L.one else L.zero
          | N.Ff i ->
            if eng.state_dirty.(i) then eng.fstate.(i)
            else rep (Bytes.get_uint8 gs i)
          | N.C0 -> L.zero
          | N.C1 -> L.one
          | N.G1 (N.Inv, a) -> L.v_not (value_of a)
          | N.G1 (N.Buff, a) -> value_of a
          | N.G2 (N.And, a, b) -> L.v_and (value_of a) (value_of b)
          | N.G2 (N.Or, a, b) -> L.v_or (value_of a) (value_of b)
          | N.G2 (N.Xor, a, b) -> L.v_xor (value_of a) (value_of b)
          | N.G2 (N.Nand, a, b) -> L.v_not (L.v_and (value_of a) (value_of b))
          | N.G2 (N.Nor, a, b) -> L.v_not (L.v_or (value_of a) (value_of b))
          | N.G2 (N.Xnor, a, b) -> L.v_not (L.v_xor (value_of a) (value_of b))
          | N.Mux (s, a, b) -> L.v_mux (value_of s) (value_of a) (value_of b)
        in
        let v =
          let set_hi = eng.inj_hi.(net) and set_lo = eng.inj_lo.(net) in
          let clear = Int64.logor set_hi set_lo in
          if clear = 0L then v
          else
            { L.hi = Int64.logor (Int64.logand v.L.hi (Int64.lognot clear)) set_hi;
              lo = Int64.logor (Int64.logand v.L.lo (Int64.lognot clear)) set_lo }
        in
        incr evals;
        if not (L.equal v (rep (Bytes.get_uint8 gv net))) then begin
          eng.fvals.(net) <- v;
          eng.dirty.(net) <- true;
          eng.touched.(eng.touched_n) <- net;
          eng.touched_n <- eng.touched_n + 1;
          for k = info.A.fanout_off.(net) to info.A.fanout_off.(net + 1) - 1 do
            schedule info.A.fanout.(k)
          done
        end;
        drain rest
    in
    for lv = 0 to info.A.max_level do
      let b = eng.buckets.(lv) in
      eng.buckets.(lv) <- [];
      drain b
    done;
    if observe.ob_pos then
      Array.iter
        (fun po ->
          if eng.dirty.(po) then
            detected := Int64.logor !detected (detected_mask eng.fvals.(po)))
        c.N.pos;
    (* capture next faulty state (before clearing the dirty flags) *)
    Array.iteri
      (fun i d ->
        if eng.dirty.(d) then begin
          eng.fstate.(i) <- eng.fvals.(d);
          eng.state_dirty.(i) <- true
        end
        else eng.state_dirty.(i) <- false)
      c.N.ff_d;
    if f = frames - 1 then
      List.iter
        (fun ff ->
          if eng.state_dirty.(ff) then
            detected := Int64.logor !detected (detected_mask eng.fstate.(ff)))
        observe.ob_pier_ffs;
    for k = 0 to eng.touched_n - 1 do
      eng.dirty.(eng.touched.(k)) <- false
    done;
    eng.touched_n <- 0
  done;
  List.iter
    (fun net ->
      eng.inj_hi.(net) <- 0L;
      eng.inj_lo.(net) <- 0L)
    inj_nets;
  add_evals !evals;
  !detected

(* One test against [faults], every batch of 63 against a single shared
   good simulation. *)
let run_active ~budget eng ~observe faults test =
  let good = good_sim eng test in
  in_batches ~budget faults (fun batch ->
      simulate_batch eng good ~observe batch test)

let run_event ~budget c ~observe ~faults tests =
  let faults = Array.of_list faults in
  let eng = make_engine c in
  drop_per_test ~budget ~n:(Array.length faults) tests (fun active ->
      run_active ~budget eng ~observe (Array.map (fun i -> faults.(i)) active))

(* ------------------------------------------------------------------ *)
(* Packed engine (PPSFP): patterns in word lanes, one fault at a time.  *)
(* ------------------------------------------------------------------ *)

(* Good-simulation bit planes of one word of tests: [pg_hi.(f).(net)] /
   [pg_lo.(f).(net)] are net values during frame [f]; [pg_sth.(f).(i)] /
   [pg_stl.(f).(i)] the flip-flop state at the {e start} of frame [f]
   (entry [frames] holds the state after the last frame, for PIER
   observation).  Read-only once built, so shards may share one copy. *)
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
   scanning all flip-flops, so a fault with a five-net cone costs a
   handful of ops per frame no matter how much state the circuit has. *)
type pengine = {
  xc : N.t;
  xinfo : A.info;
  xgh : int array;             (* good hi plane for the frame being built *)
  xgl : int array;
  xsh : int array;             (* good state hi plane *)
  xsl : int array;
  xfh : int array;             (* faulty hi plane, valid where xdirty *)
  xfl : int array;
  xdirty : bool array;
  xqueued : bool array;
  xtouched : int array;
  mutable xtouched_n : int;
  xbuckets : int list array;
  xfsh : int array;            (* faulty state, valid where xsdirty *)
  xfsl : int array;
  xsdirty : bool array;
  xsdirty_list : int array;    (* the flip-flops behind the xsdirty flags *)
  mutable xsdirty_n : int;
  xsite : int array;           (* net -> its site in the swept fault, or -1 *)
  mutable xforce_hi : int array; (* per site, this frame: lanes forced to 1 *)
  mutable xforce_lo : int array; (* ... and to 0 *)
  mutable xknown : int array;  (* per site: 0 = force known lanes only, -1 = all *)
}

let make_pengine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  { xc = c; xinfo = info;
    xgh = Array.make n 0;
    xgl = Array.make n 0;
    xsh = Array.make nff 0;
    xsl = Array.make nff 0;
    xfh = Array.make n 0;
    xfl = Array.make n 0;
    xdirty = Array.make n false;
    xqueued = Array.make n false;
    xtouched = Array.make n 0;
    xtouched_n = 0;
    xbuckets = Array.make (info.A.max_level + 1) [];
    xfsh = Array.make nff 0;
    xfsl = Array.make nff 0;
    xsdirty = Array.make nff false;
    xsdirty_list = Array.make nff 0;
    xsdirty_n = 0;
    xsite = Array.make n (-1);
    xforce_hi = [| 0 |];
    xforce_lo = [| 0 |];
    xknown = [| -1 |] }

let batch_of_tests c (chunk : Pattern.test array) =
  P.make_batch ~num_pis:(N.num_pis c) ~num_ffs:(N.num_ffs c)
    ~vectors:(Array.map (fun t -> t.Pattern.p_vectors) chunk)
    ~loads:(Array.map (fun t -> t.Pattern.p_loads) chunk)

(* Simulate the fault-free circuit over a whole word of tests: one
   linear sweep of the topo order per frame, every gate settling all
   lanes at once. *)
let packed_good_sim eng (b : P.batch) =
  Obs.Metrics.incr packed_words_counter;
  let c = eng.xc in
  let n = N.num_nets c in
  let nff = N.num_ffs c in
  let frames = b.P.b_frames in
  let pg_hi = Array.init frames (fun _ -> Array.make n 0) in
  let pg_lo = Array.init frames (fun _ -> Array.make n 0) in
  let pg_sth = Array.init (frames + 1) (fun _ -> Array.make (max 1 nff) 0) in
  let pg_stl = Array.init (frames + 1) (fun _ -> Array.make (max 1 nff) 0) in
  let gh = eng.xgh and gl = eng.xgl in
  let sh = eng.xsh and sl = eng.xsl in
  Array.fill sh 0 (Array.length sh) 0;
  Array.fill sl 0 (Array.length sl) 0;
  for i = 0 to nff - 1 do
    sh.(i) <- b.P.b_load_hi.(i);
    sl.(i) <- b.P.b_load_lo.(i)
  done;
  let order = eng.xinfo.A.order in
  let m = b.P.b_mask in
  for f = 0 to frames - 1 do
    Array.blit sh 0 pg_sth.(f) 0 nff;
    Array.blit sl 0 pg_stl.(f) 0 nff;
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    Array.iter
      (fun net ->
        match c.N.drv.(net) with
        | N.Pi i -> gh.(net) <- pih.(i); gl.(net) <- pil.(i)
        | N.Ff i -> gh.(net) <- sh.(i); gl.(net) <- sl.(i)
        | N.C0 -> gh.(net) <- 0; gl.(net) <- m
        | N.C1 -> gh.(net) <- m; gl.(net) <- 0
        | N.G1 (N.Inv, a) -> gh.(net) <- gl.(a); gl.(net) <- gh.(a)
        | N.G1 (N.Buff, a) -> gh.(net) <- gh.(a); gl.(net) <- gl.(a)
        | N.G2 (N.And, a, b) ->
          gh.(net) <- gh.(a) land gh.(b);
          gl.(net) <- gl.(a) lor gl.(b)
        | N.G2 (N.Or, a, b) ->
          gh.(net) <- gh.(a) lor gh.(b);
          gl.(net) <- gl.(a) land gl.(b)
        | N.G2 (N.Xor, a, b) ->
          gh.(net) <- (gh.(a) land gl.(b)) lor (gl.(a) land gh.(b));
          gl.(net) <- (gh.(a) land gh.(b)) lor (gl.(a) land gl.(b))
        | N.G2 (N.Nand, a, b) ->
          gh.(net) <- gl.(a) lor gl.(b);
          gl.(net) <- gh.(a) land gh.(b)
        | N.G2 (N.Nor, a, b) ->
          gh.(net) <- gl.(a) land gl.(b);
          gl.(net) <- gh.(a) lor gh.(b)
        | N.G2 (N.Xnor, a, b) ->
          gh.(net) <- (gh.(a) land gh.(b)) lor (gl.(a) land gl.(b));
          gl.(net) <- (gh.(a) land gl.(b)) lor (gl.(a) land gh.(b))
        | N.Mux (s, a, b) ->
          gh.(net) <-
            (gh.(s) land gh.(b)) lor (gl.(s) land gh.(a))
            lor (gh.(a) land gh.(b));
          gl.(net) <-
            (gh.(s) land gl.(b)) lor (gl.(s) land gl.(a))
            lor (gl.(a) land gl.(b)))
      order;
    add_packed_evals (Array.length order);
    Array.blit gh 0 pg_hi.(f) 0 n;
    Array.blit gl 0 pg_lo.(f) 0 n;
    Array.iteri
      (fun i d ->
        sh.(i) <- gh.(d);
        sl.(i) <- gl.(d))
      c.N.ff_d
  done;
  Array.blit sh 0 pg_sth.(frames) 0 nff;
  Array.blit sl 0 pg_stl.(frames) 0 nff;
  { pg_hi; pg_lo; pg_sth; pg_stl }

(* PIER membership as a bitmap over flip-flop indices, built once per
   word (or run) so the sweep never walks the pier list. *)
let pier_flags c observe =
  let a = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun ff -> a.(ff) <- true) observe.ob_pier_ffs;
  a

(* Event-drive one fault, given as its injection [sites], through the
   whole word.  Each frame every site is re-evaluated and then forced on
   the lanes its rule selects — two mask ops, the masks read off the
   good planes ([Stuck], [Slow]) or off a first settle of the frame with
   the shorts lifted ([Wired]) — and only nets whose packed value
   diverges from the good planes are re-evaluated.  Returns the per-lane
   detection mask, already restricted to the lanes still inside their
   own test ([b_active]) and, for PIER observation, to each lane's own
   final frame ([b_last]).  With [stop_on_detect] the sweep ends at the
   first frame that detects the fault in any lane — sound whenever the
   caller only fault-drops on the mask (the remaining frames could only
   set more lane bits), and the dominant saving on dropping runs where
   most faults fall in the first frames of the first word. *)
let packed_sweep eng good (b : P.batch) ~observe ~piers ~stop_on_detect
    (sites : (int * rule) array) =
  let c = eng.xc in
  let info = eng.xinfo in
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
       force_hi.(s) <- (if v then b.P.b_mask else 0);
       force_lo.(s) <- (if v then 0 else b.P.b_mask)
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
    let gh = good.pg_hi.(f) and gl = good.pg_lo.(f) in
    let gsh = good.pg_sth.(f) and gsl = good.pg_stl.(f) in
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    let vh a = if eng.xdirty.(a) then eng.xfh.(a) else gh.(a) in
    let vl a = if eng.xdirty.(a) then eng.xfl.(a) else gl.(a) in
    let schedule net =
      if not eng.xqueued.(net) then begin
        eng.xqueued.(net) <- true;
        let lv = info.A.level.(net) in
        eng.xbuckets.(lv) <- net :: eng.xbuckets.(lv)
      end
    in
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
    (* levelized event propagation; built once per frame, not per level *)
    let rec drain = function
      | [] -> ()
      | net :: rest ->
        eng.xqueued.(net) <- false;
        let nh = ref 0 and nl = ref 0 in
        (match c.N.drv.(net) with
         | N.Pi i -> nh := pih.(i); nl := pil.(i)
         | N.Ff i ->
           if eng.xsdirty.(i) then begin
             nh := eng.xfsh.(i);
             nl := eng.xfsl.(i)
           end
           else begin
             nh := gsh.(i);
             nl := gsl.(i)
           end
         | N.C0 -> nh := 0; nl := b.P.b_mask
         | N.C1 -> nh := b.P.b_mask; nl := 0
         | N.G1 (N.Inv, a) -> nh := vl a; nl := vh a
         | N.G1 (N.Buff, a) -> nh := vh a; nl := vl a
         | N.G2 (N.And, a, b) ->
           nh := vh a land vh b;
           nl := vl a lor vl b
         | N.G2 (N.Or, a, b) ->
           nh := vh a lor vh b;
           nl := vl a land vl b
         | N.G2 (N.Xor, a, b) ->
           nh := (vh a land vl b) lor (vl a land vh b);
           nl := (vh a land vh b) lor (vl a land vl b)
         | N.G2 (N.Nand, a, b) ->
           nh := vl a lor vl b;
           nl := vh a land vh b
         | N.G2 (N.Nor, a, b) ->
           nh := vl a land vl b;
           nl := vh a lor vh b
         | N.G2 (N.Xnor, a, b) ->
           nh := (vh a land vh b) lor (vl a land vl b);
           nl := (vh a land vl b) lor (vl a land vh b)
         | N.Mux (s, a, b) ->
           nh :=
             (vh s land vh b) lor (vl s land vh a)
             lor (vh a land vh b);
           nl :=
             (vh s land vl b) lor (vl s land vl a)
             lor (vl a land vl b));
        if net = net0 || (multi && eng.xsite.(net) >= 0) then begin
          let s = if net = net0 then 0 else eng.xsite.(net) in
          let k = !nh lor !nl lor known.(s) in
          let fh = force_hi.(s) land k and fl = force_lo.(s) land k in
          nh := (!nh land lnot fl) lor fh;
          nl := (!nl land lnot fh) lor fl
        end;
        incr evals;
        if !nh <> gh.(net) || !nl <> gl.(net) then begin
          eng.xfh.(net) <- !nh;
          eng.xfl.(net) <- !nl;
          eng.xdirty.(net) <- true;
          eng.xtouched.(eng.xtouched_n) <- net;
          eng.xtouched_n <- eng.xtouched_n + 1;
          let fo = info.A.fanout_off in
          for k = fo.(net) to fo.(net + 1) - 1 do
            schedule info.A.fanout.(k)
          done
        end;
        drain rest
    in
    (* settle the faulty machine for this frame under the current masks,
       seeded at the sites and at the diverged flip-flops; with a short,
       pass 1 first settles the frame with the shorts lifted *)
    for pass = (if !shorted then 1 else 2) to 2 do
      for s = 0 to ns - 1 do
        schedule (fst sites.(s))
      done;
      for k = 0 to eng.xsdirty_n - 1 do
        schedule c.N.ff_q.(eng.xsdirty_list.(k))
      done;
      for lv = 0 to info.A.max_level do
        let bk = eng.xbuckets.(lv) in
        eng.xbuckets.(lv) <- [];
        drain bk
      done;
      if pass = 1 then begin
        (* each wired site's pass-1 partner value decides which lanes the
           short pulls down (AND) or up (OR) in pass 2 *)
        for s = 0 to ns - 1 do
          match sites.(s) with
          | (_, Wired (p, Wired_and)) -> force_lo.(s) <- vl p
          | (_, Wired (p, Wired_or)) -> force_hi.(s) <- vh p
          | (_, (Stuck _ | Slow _)) -> ()
        done;
        for k = 0 to eng.xtouched_n - 1 do
          eng.xdirty.(eng.xtouched.(k)) <- false
        done;
        eng.xtouched_n <- 0
      end
    done;
    if observe.ob_pos then begin
      let act = b.P.b_active.(f) in
      Array.iter
        (fun po ->
          if eng.xdirty.(po) then
            detected :=
              !detected
              lor (((gh.(po) land eng.xfl.(po))
                    lor (gl.(po) land eng.xfh.(po)))
                   land act))
        c.N.pos
    end;
    (* capture next faulty state: drop last frame's divergence, then walk
       the nets that diverged this frame and mark exactly the flip-flops
       they feed — cost proportional to the fault's activity, not to the
       amount of state in the circuit *)
    for k = 0 to eng.xsdirty_n - 1 do
      eng.xsdirty.(eng.xsdirty_list.(k)) <- false
    done;
    eng.xsdirty_n <- 0;
    let ff_of_d = eng.xinfo.A.ff_of_d and ff_off = eng.xinfo.A.ff_of_d_off in
    for k = 0 to eng.xtouched_n - 1 do
      let d = eng.xtouched.(k) in
      for j = ff_off.(d) to ff_off.(d + 1) - 1 do
        let i = ff_of_d.(j) in
        eng.xfsh.(i) <- eng.xfh.(d);
        eng.xfsl.(i) <- eng.xfl.(d);
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
      eng.xdirty.(eng.xtouched.(k)) <- false
    done;
    eng.xtouched_n <- 0;
    incr fr
  done;
  if multi then
    for s = 0 to ns - 1 do
      eng.xsite.(fst sites.(s)) <- -1
    done;
  add_packed_evals !evals;
  !detected land b.P.b_mask

(* Sweep the active faults through one word, observing the per-word time
   histogram and the packed-sweep span; [apply k det] receives, in
   [active] order, the index into [active] and its nonzero lane mask.
   With [jobs > 1] the active faults are sharded across the global pool,
   every shard sweeping its slice against the one shared good
   simulation. *)
let packed_word ?(budget = Engine.Budget.none) ~jobs eng c ~observe
    ~stop_on_detect ~(faults : (int * rule) array array)
    ~(active : int array) (chunk : Pattern.test array) ~apply =
  let t0 = Engine.Clock.now () in
  Obs.Metrics.incr packed_batches_counter;
  let sweep () =
    let b = batch_of_tests c chunk in
    let good = packed_good_sim eng b in
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

(* Multi-test packed run: word-sized chunks of tests in order, fault
   dropping at word granularity.  The word loop stays sequential at
   every [jobs], so dropping between words is preserved; only each
   word's active faults are sharded.  Because detection of a fault by a
   test never depends on other faults or tests, the flags are
   bit-identical to the per-test-dropping reference. *)
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

(* One test on the event engine.  A single test offers only one lane to
   pack, and the parallel-fault engine already evaluates 63 faults per
   word.  At [jobs > 1] the faults are split into disjoint contiguous
   slices, each with its own injection state over the shared immutable
   circuit; per-fault flags are independent, so the ordered merge is
   bit-identical to serial. *)
let run_one_test ~budget ~jobs c ~observe faults test =
  let sim faults = run_active ~budget (make_engine c) ~observe faults test in
  if jobs <= 1 then sim faults
  else
    Array.concat
      (Array.to_list
         (Engine.Shard.map_chunks (Engine.Pool.global ()) ~shards:jobs sim
            faults))

(* Stuck-at grading with fault dropping.  Unforced, one test runs on the
   event engine and a longer list on the packed engine; both shard over
   the global pool at [jobs > 1] with at least 128 faults.  A forced
   [Event] or [Reference] runs serially. *)
let run ?engine ?(budget = Engine.Budget.none) ?(jobs = 1) c ~observe
    ~faults tests =
  let jobs = if List.length faults < 128 then 1 else jobs in
  match (engine, faults, tests) with
  | (_, [], _) -> [||]
  | (None, _, [ test ]) ->
    run_one_test ~budget ~jobs c ~observe (Array.of_list faults) test
  | ((None | Some Packed), _, _) ->
    run_packed ~budget ~jobs c ~observe
      ~faults:(packed_sites (descriptors faults)) tests
  | (Some Event, _, _) -> run_event ~budget c ~observe ~faults tests
  | (Some Reference, _, _) ->
    run_reference ~budget c ~observe ~faults:(descriptors faults) tests

(* Any fault model: the event engine is stuck-at only, so it selects
   the packed engine here. *)
let run_descriptors ?engine ?(budget = Engine.Budget.none) c ~observe
    ~faults tests =
  let faults = Array.of_list faults in
  match engine with
  | Some Reference -> run_reference ~budget c ~observe ~faults tests
  | None | Some (Packed | Event) ->
    run_packed ~budget ~jobs:1 c ~observe ~faults:(packed_sites faults)
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
let run_matrix ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) ~(active : int array)
    (tests : Pattern.test array) =
  let nt = Array.length tests in
  let sigs = Array.init (Array.length active) (fun _ -> Bytes.make nt '\000') in
  if Array.length active > 0 && nt > 0 then begin
    let eng = make_pengine c in
    let faults = packed_sites (Array.map stuck_at faults) in
    let pos = ref 0 in
    while !pos < nt && not (Engine.Budget.poll budget) do
      let len = min P.width (nt - !pos) in
      let chunk = Array.sub tests !pos len in
      let off = !pos in
      pos := !pos + len;
      packed_word ~budget ~jobs:1 eng c ~observe ~stop_on_detect:false
        ~faults ~active chunk
        ~apply:(fun k det ->
          for l = 0 to len - 1 do
            if (det lsr l) land 1 = 1 then
              Bytes.set sigs.(k) (off + l) '\001'
          done)
    done
  end;
  sigs
