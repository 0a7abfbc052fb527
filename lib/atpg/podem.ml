(** PODEM test generation over a time-frame-expanded sequential circuit.
    The circuit is unrolled for a fixed number of frames; flip-flops chain
    frame state, frame-0 state is X except for PIER registers, which act
    as loadable pseudo primary inputs; PIER next-state at the last frame
    is observable (storable).  The fault is present in every frame. *)

module N = Netlist
module A = N.Analysis
module Keys = Set.Make (Int)

type v3 = V0 | V1 | VX

let v_neg = function V0 -> V1 | V1 -> V0 | VX -> VX
let v_and a b =
  match (a, b) with
  | (V0, _) | (_, V0) -> V0
  | (V1, V1) -> V1
  | _ -> VX
let v_or a b =
  match (a, b) with
  | (V1, _) | (_, V1) -> V1
  | (V0, V0) -> V0
  | _ -> VX
let v_xor a b =
  match (a, b) with
  | (VX, _) | (_, VX) -> VX
  | _ -> if a = b then V0 else V1
let v_mux s a b =
  match s with
  | V0 -> a
  | V1 -> b
  | VX -> if a = b && a <> VX then a else VX

let of_bool v = if v then V1 else V0

type outcome =
  | Detected of Pattern.test
  | Exhausted  (** search space exhausted at this unrolling depth *)
  | Aborted    (** backtrack limit reached *)

type input = In_pi of int * int  (** frame, pi index *) | In_pier of int

type config = {
  frames : int;
  backtrack_limit : int;
  piers : int list;  (** loadable/storable flip-flop indices *)
  seed : int;        (** randomizes tie-breaks; vary it across restarts *)
}

(* Search state of one [run].  Per-(frame, net) planes are flat arrays
   indexed by [idx].  The inputs are the frame-major PIs (input
   [f * num_pis + i] is PI [i] at frame [f]) followed by the PIERs. *)
type model = {
  c : N.t;
  cfg : config;
  nets : int;
  info : A.info;
  pier_set : bool array;
  pier_input : int array; (* per flip-flop: its PIER input, or -1 *)
  good : v3 array;        (* frames * nets *)
  faulty : v3 array;
  controllable : bool array;
  cost0 : int array;      (* frames * nets: SCOAP-like 0-controllability *)
  cost1 : int array;
  dist : int array;       (* per net, static distance to an observation *)
  observe : int array;    (* plane indices of the observation points *)
  fault : Fault.t;
  stuck : v3;
  inputs : input array;
  assignment : v3 array;
  mutable changed : int list;  (* inputs set since the last implication *)
  queued : Bytes.t;            (* frames * nets: '1' when scheduled *)
  buckets : int list array;    (* frames * (max_level + 1): pending nets *)
  mutable frontier : Keys.t;   (* D-frontier members, as [frontier_key]s *)
  rng : Random.State.t;
  mutable backtracks : int;
  mutable evals : int;
}

let idx m f net = (f * m.nets) + net

(* ------------------------------------------------------------------ *)
(* Static analyses.                                                    *)
(* ------------------------------------------------------------------ *)

let compute_controllable c cfg order pier_set =
  let nets = N.num_nets c in
  let ctl = Array.make (cfg.frames * nets) false in
  for f = 0 to cfg.frames - 1 do
    Array.iter
      (fun net ->
        let v =
          match c.N.drv.(net) with
          | N.Pi _ -> true
          | N.C0 | N.C1 -> false
          | N.Ff i ->
            if f = 0 then pier_set.(i)
            else ctl.(((f - 1) * nets) + c.N.ff_d.(i))
          | d -> List.exists (fun i -> ctl.((f * nets) + i)) (N.fanins d)
        in
        ctl.((f * nets) + net) <- v)
      order
  done;
  ctl

(* SCOAP controllability costs per (frame, net), used to steer the
   backtrace toward the easiest (or, for all-inputs objectives, hardest)
   justification: {!Scoap.gate_costs} frame by frame.  Frame-0 state is
   uncontrollable except for PIERs; later frames' state costs what the
   d input did a frame earlier. *)
let big = Scoap.infinite

let compute_costs c cfg order pier_set =
  let nets = N.num_nets c in
  let c0 = Array.make (cfg.frames * nets) big in
  let c1 = Array.make (cfg.frames * nets) big in
  for f = 0 to cfg.frames - 1 do
    let base = f * nets in
    Array.iter
      (fun net ->
        let (z, o) =
          match c.N.drv.(net) with
          | N.Ff i when f = 0 -> if pier_set.(i) then (1, 1) else (big, big)
          | N.Ff i ->
            let d = base - nets + c.N.ff_d.(i) in
            (Scoap.across_ff c0.(d), Scoap.across_ff c1.(d))
          | drv -> Scoap.gate_costs c0 c1 base drv
        in
        c0.(base + net) <- z;
        c1.(base + net) <- o)
      order
  done;
  (c0, c1)

(* ------------------------------------------------------------------ *)
(* Five-valued implication (good/faulty pair).                         *)
(* ------------------------------------------------------------------ *)

(* Value of [net] at frame [f] in [plane], from its fanins' values. *)
let eval m plane f net =
  let b = f * m.nets in
  match m.c.N.drv.(net) with
  | N.Pi i -> m.assignment.((f * N.num_pis m.c) + i)
  | N.Ff i ->
    if f > 0 then plane.(b - m.nets + m.c.N.ff_d.(i))
    else
      let k = m.pier_input.(i) in
      if k >= 0 then m.assignment.(k) else VX
  | N.C0 -> V0
  | N.C1 -> V1
  | N.G1 (N.Inv, a) -> v_neg plane.(b + a)
  | N.G1 (N.Buff, a) -> plane.(b + a)
  | N.G2 (N.And, a, x) -> v_and plane.(b + a) plane.(b + x)
  | N.G2 (N.Or, a, x) -> v_or plane.(b + a) plane.(b + x)
  | N.G2 (N.Xor, a, x) -> v_xor plane.(b + a) plane.(b + x)
  | N.G2 (N.Nand, a, x) -> v_neg (v_and plane.(b + a) plane.(b + x))
  | N.G2 (N.Nor, a, x) -> v_neg (v_or plane.(b + a) plane.(b + x))
  | N.G2 (N.Xnor, a, x) -> v_neg (v_xor plane.(b + a) plane.(b + x))
  | N.Mux (s, a, x) -> v_mux plane.(b + s) plane.(b + a) plane.(b + x)

(* Re-evaluate [net] at frame [f] in both planes; true when either value
   changed.  The faulty plane holds the stuck value at the fault site. *)
let update m f net =
  let i = idx m f net in
  let g = eval m m.good f net in
  let fv =
    if net = m.fault.Fault.f_net then m.stuck else eval m m.faulty f net
  in
  let changed = g <> m.good.(i) || fv <> m.faulty.(i) in
  m.good.(i) <- g;
  m.faulty.(i) <- fv;
  m.evals <- m.evals + 1;
  changed

(* Is there a D (good/faulty binary and different) at plane index [i]? *)
let d_at m i =
  let g = m.good.(i) and fa = m.faulty.(i) in
  g <> VX && fa <> VX && g <> fa

let has_d m f net = d_at m (idx m f net)

let composite_x m f net =
  m.good.(idx m f net) = VX || m.faulty.(idx m f net) = VX

(* D-frontier membership: a gate with an X output and a D on an input. *)
let on_frontier m f net =
  composite_x m f net
  &&
  match m.c.N.drv.(net) with
  | N.Pi _ | N.Ff _ | N.C0 | N.C1 -> false
  | N.G1 (_, a) -> has_d m f a
  | N.G2 (_, a, b) -> has_d m f a || has_d m f b
  | N.Mux (s, a, b) -> has_d m f s || has_d m f a || has_d m f b

(* Frontier members are ordered by distance to an observation point,
   ties broken by descending (frame, topological position): the order a
   reverse scan of the planes followed by a stable sort on distance
   gives.  Finite distances are below [nets], so [nets] stands in for
   unreachable. *)
let frontier_key m f net =
  let ranks = m.cfg.frames * m.nets in
  (min m.dist.(net) m.nets * ranks)
  + (ranks - 1 - idx m f m.info.A.position.(net))

let frontier_site m key =
  let ranks = m.cfg.frames * m.nets in
  let rank = ranks - 1 - (key mod ranks) in
  (rank / m.nets, m.info.A.order.(rank mod m.nets))

let refresh_frontier m f net =
  let key = frontier_key m f net in
  let now = on_frontier m f net in
  if now <> Keys.mem key m.frontier then
    m.frontier <-
      (if now then Keys.add key m.frontier else Keys.remove key m.frontier)

(* From-scratch evaluation of every net of every frame: the initial
   state of a search, and the reference the incremental path is tested
   against. *)
let simulate m =
  for f = 0 to m.cfg.frames - 1 do
    Array.iter
      (fun net ->
        ignore (update m f net);
        refresh_frontier m f net)
      m.info.A.order
  done

let set_input m k v =
  m.assignment.(k) <- v;
  m.changed <- k :: m.changed

let schedule m f net =
  let i = idx m f net in
  if Bytes.get m.queued i = '0' then begin
    Bytes.set m.queued i '1';
    let b = (f * (m.info.A.max_level + 1)) + m.info.A.level.(net) in
    m.buckets.(b) <- net :: m.buckets.(b)
  end

(* Event-driven implication of the inputs set since the last call.
   Each changed input seeds its net; nets are re-evaluated in level
   order within a frame and frames in order, so every net is evaluated
   at most once, after all of its fanins have settled.  A net whose good
   and faulty values both stay put schedules nothing; one that changes
   schedules its gate fanouts in the same frame and, through the
   analysis's d-net -> flip-flop CSR, the flip-flops it feeds in the
   next.  Every re-evaluated net has its D-frontier membership
   re-tested: a membership can only change when the net's own value or
   a fanin's value does, and either schedules it. *)
let imply m =
  List.iter
    (fun k ->
      match m.inputs.(k) with
      | In_pi (f, i) -> schedule m f m.c.N.pis.(i)
      | In_pier i -> schedule m 0 m.c.N.ff_q.(i))
    m.changed;
  m.changed <- [];
  let info = m.info in
  let fanout = info.A.fanout and fanout_off = info.A.fanout_off in
  let ff_of_d = info.A.ff_of_d and ff_off = info.A.ff_of_d_off in
  let levels = info.A.max_level + 1 in
  let last = m.cfg.frames - 1 in
  for f = 0 to last do
    for lv = 0 to info.A.max_level do
      let b = (f * levels) + lv in
      let pending = m.buckets.(b) in
      if pending <> [] then begin
        (* fanouts are strictly deeper, and next-state events land in
           the next frame: this bucket is complete *)
        m.buckets.(b) <- [];
        List.iter
          (fun net ->
            Bytes.set m.queued (idx m f net) '0';
            if update m f net then begin
              for j = fanout_off.(net) to fanout_off.(net + 1) - 1 do
                schedule m f fanout.(j)
              done;
              if f < last then
                for j = ff_off.(net) to ff_off.(net + 1) - 1 do
                  schedule m (f + 1) m.c.N.ff_q.(ff_of_d.(j))
                done
            end;
            refresh_frontier m f net)
          pending
      end
    done
  done

let detected m = Array.exists (d_at m) m.observe

(* ------------------------------------------------------------------ *)
(* Objective selection.                                                *)
(* ------------------------------------------------------------------ *)

(* For a frontier gate, the objective that helps the D through. *)
let propagation_objective m (f, net) =
  let x_inputs d =
    List.filter
      (fun i -> m.good.(idx m f i) = VX && m.controllable.(idx m f i))
      (N.fanins d)
  in
  match m.c.N.drv.(net) with
  | N.G2 (N.And, _, _) | N.G2 (N.Nand, _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V1)
     | [] -> None)
  | N.G2 (N.Or, _, _) | N.G2 (N.Nor, _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V0)
     | [] -> None)
  | N.G2 ((N.Xor | N.Xnor), _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V0)
     | [] -> None)
  | N.Mux (s, a, b) ->
    let x_ctl i = m.good.(idx m f i) = VX && m.controllable.(idx m f i) in
    let gv i = m.good.(idx m f i) in
    if has_d m f s then begin
      (* the fault effect sits on the select: the two data inputs must
         carry different values for it to show at the output *)
      if gv a <> VX && x_ctl b then Some (f, b, v_neg (gv a))
      else if gv b <> VX && x_ctl a then Some (f, a, v_neg (gv b))
      else if x_ctl a then Some (f, a, V0)
      else if x_ctl b then Some (f, b, V1)
      else None
    end
    else if has_d m f a then
      (* route branch a through: select must be 0 *)
      (if x_ctl s then Some (f, s, V0) else None)
    else if has_d m f b then
      (if x_ctl s then Some (f, s, V1) else None)
    else None
  | _ -> None

let activation_objective m =
  let site = m.fault.Fault.f_net in
  let want = v_neg (of_bool m.fault.Fault.f_stuck) in
  let rec go f =
    if f >= m.cfg.frames then None
    else if m.good.(idx m f site) = VX && m.controllable.(idx m f site) then
      Some (f, site, want)
    else go (f + 1)
  in
  go 0

let choose_objective m =
  let site = m.fault.Fault.f_net in
  let rec active f = f < m.cfg.frames && (has_d m f site || active (f + 1)) in
  if active 0 then begin
    let rec first members =
      match members () with
      | Seq.Nil -> activation_objective m
      | Seq.Cons (key, rest) ->
        (match propagation_objective m (frontier_site m key) with
         | Some o -> Some o
         | None -> first rest)
    in
    first (Keys.to_seq m.frontier)
  end
  else activation_objective m

(* ------------------------------------------------------------------ *)
(* Backtrace.                                                          *)
(* ------------------------------------------------------------------ *)

let rec backtrace m f net v =
  let ctl i = m.controllable.(idx m f i) in
  let gval i = m.good.(idx m f i) in
  (* a small random jitter on costs diversifies restarts with a
     different seed, escaping reconvergence pathologies *)
  let cost want i =
    let base =
      match want with
      | V0 -> m.cost0.(idx m f i)
      | V1 -> m.cost1.(idx m f i)
      | VX -> big
    in
    if base >= big then base else base + Random.State.int m.rng 3
  in
  (* among X controllable inputs, the cheapest (or costliest) to justify
     toward [want] *)
  let pick_by sel want candidates =
    let xs = List.filter (fun i -> gval i = VX && ctl i) candidates in
    match xs with
    | [] -> None
    | first :: rest ->
      let better a b = if sel (cost want a) (cost want b) then a else b in
      Some (List.fold_left better first rest)
  in
  let easiest = pick_by ( < ) and hardest = pick_by ( > ) in
  match m.c.N.drv.(net) with
  | N.Pi i -> Some (In_pi (f, i), v)
  | N.Ff i ->
    if f > 0 then backtrace m (f - 1) m.c.N.ff_d.(i) v
    else if m.pier_set.(i) then Some (In_pier i, v)
    else None
  | N.C0 | N.C1 -> None
  | N.G1 (N.Inv, a) -> backtrace m f a (v_neg v)
  | N.G1 (N.Buff, a) -> backtrace m f a v
  | N.G2 (kind, a, b) ->
    let v = match kind with N.Nand | N.Nor -> v_neg v | _ -> v in
    (match kind with
     | N.And | N.Nand ->
       (* output 1 needs every input: take the hardest first so failure
          surfaces early; output 0 needs any input: take the easiest *)
       let choice = if v = V1 then hardest V1 [ a; b ] else easiest V0 [ a; b ] in
       (match choice with Some i -> backtrace m f i v | None -> None)
     | N.Or | N.Nor ->
       let choice = if v = V0 then hardest V0 [ a; b ] else easiest V1 [ a; b ] in
       (match choice with Some i -> backtrace m f i v | None -> None)
     | N.Xor | N.Xnor ->
       let v = if kind = N.Xnor then v_neg v else v in
       if gval a <> VX then backtrace m f b (v_xor v (gval a))
       else if gval b <> VX then backtrace m f a (v_xor v (gval b))
       else
         (match easiest v [ a; b ] with
          | Some i -> backtrace m f i v
          | None -> None))
  | N.Mux (s, a, b) ->
    (match gval s with
     | V0 -> backtrace m f a v
     | V1 -> backtrace m f b v
     | VX ->
       if gval a <> VX && gval a = v && ctl s then backtrace m f s V0
       else if gval b <> VX && gval b = v && ctl s then backtrace m f s V1
       else if ctl s then begin
         (* steer the select toward the branch where [v] is cheaper *)
         let ca = if gval a = VX && ctl a then cost v a else big in
         let cb = if gval b = VX && ctl b then cost v b else big in
         if ca = big && cb = big then None
         else backtrace m f s (if ca <= cb then V0 else V1)
       end
       else
         (match easiest v [ a; b ] with
          | Some i -> backtrace m f i v
          | None -> None))

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

type decision = {
  d_input : int;
  mutable d_flipped : bool;
}

let input_slot m = function
  | In_pi (f, i) -> (f * N.num_pis m.c) + i
  | In_pier i -> m.pier_input.(i)

let extract_test m =
  let npis = N.num_pis m.c in
  let vectors =
    Array.init m.cfg.frames (fun f ->
        Array.init npis (fun i -> m.assignment.((f * npis) + i) = V1))
  in
  let loads =
    List.filter_map
      (fun i ->
        match m.assignment.(m.pier_input.(i)) with
        | VX -> None
        | v -> Some (i, v = V1))
      m.cfg.piers
  in
  { Pattern.p_vectors = vectors; p_loads = loads }

let make_model c cfg fault =
  let nets = N.num_nets c in
  let info = N.analysis c in
  let order = info.A.order in
  let pier_set = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun i -> pier_set.(i) <- true) cfg.piers;
  let inputs =
    Array.of_list
      (List.concat_map
         (fun f -> List.init (N.num_pis c) (fun i -> In_pi (f, i)))
         (List.init cfg.frames Fun.id)
       @ List.map (fun i -> In_pier i) cfg.piers)
  in
  (* a PIER listed twice resolves to its last input slot *)
  let pier_input = Array.make (max 1 (N.num_ffs c)) (-1) in
  Array.iteri
    (fun k -> function In_pier i -> pier_input.(i) <- k | In_pi _ -> ())
    inputs;
  let last = cfg.frames - 1 in
  (* every frame's POs, and the PIERs' next state at the last frame *)
  let observe =
    Array.of_list
      (List.concat_map
         (fun f -> List.map (fun po -> (f * nets) + po) (Array.to_list c.N.pos))
         (List.init cfg.frames Fun.id)
       @ List.filter_map
           (fun i ->
             if pier_set.(i) then Some ((last * nets) + c.N.ff_d.(i))
             else None)
           (List.init (N.num_ffs c) Fun.id))
  in
  let (cost0, cost1) = compute_costs c cfg order pier_set in
  let planes = cfg.frames * nets in
  { c; cfg; nets; info; pier_set; pier_input;
    good = Array.make planes VX;
    faulty = Array.make planes VX;
    controllable = compute_controllable c cfg order pier_set;
    cost0; cost1;
    (* one step per gate and one frame per flip-flop crossed, from any
       net to the nearest observation point *)
    dist =
      N.walk c N.Backward ~gate:1 ~reg:1
        (Array.map (fun p -> p mod nets) observe);
    observe;
    fault;
    stuck = of_bool fault.Fault.f_stuck;
    inputs;
    assignment = Array.make (Array.length inputs) VX;
    changed = [];
    queued = Bytes.make planes '0';
    buckets = Array.make (cfg.frames * (info.A.max_level + 1)) [];
    frontier = Keys.empty;
    rng = Random.State.make [| cfg.seed; fault.Fault.f_net |];
    backtracks = 0;
    evals = 0 }

let m_runs = Obs.Metrics.counter "factor.podem.runs"
let m_backtracks = Obs.Metrics.counter "factor.podem.backtracks"
let m_decisions = Obs.Metrics.counter "factor.podem.decisions"
let m_evals = Obs.Metrics.counter "factor.podem.evals"
let m_detected = Obs.Metrics.counter "factor.podem.detected"
let m_exhausted = Obs.Metrics.counter "factor.podem.exhausted"
let m_aborted = Obs.Metrics.counter "factor.podem.aborted"

(** [run c cfg fault] attempts to generate a test for [fault]. *)
let run ?(budget = Engine.Budget.none) c cfg fault =
  let decisions = ref 0 in
  let m = make_model c cfg fault in
  let stack = ref [] in
  simulate m;
  let rec step () =
    (* the decision loop's budget check is one atomic load; the clock
       is consulted every 64 decisions *)
    if Engine.Budget.check budget
       || (!decisions land 63 = 0 && Engine.Budget.poll budget)
    then Aborted
    else if detected m then Detected (extract_test m)
    else
      match choose_objective m with
      | Some (f, net, v) ->
        (match backtrace m f net v with
         | Some (input, v) when v <> VX ->
           let k = input_slot m input in
           incr decisions;
           set_input m k v;
           stack := { d_input = k; d_flipped = false } :: !stack;
           imply m;
           step ()
         | _ -> backtrack ())
      | None -> backtrack ()
  and backtrack () =
    m.backtracks <- m.backtracks + 1;
    if Engine.Budget.check budget then Aborted
    else if m.backtracks > m.cfg.backtrack_limit then Aborted
    else
      let rec pop () =
        match !stack with
        | [] -> Exhausted
        | d :: rest ->
          if d.d_flipped then begin
            set_input m d.d_input VX;
            stack := rest;
            pop ()
          end
          else begin
            d.d_flipped <- true;
            set_input m d.d_input (v_neg m.assignment.(d.d_input));
            imply m;
            step ()
          end
      in
      pop ()
  in
  let outcome = step () in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_backtracks m.backtracks;
  Obs.Metrics.add m_decisions !decisions;
  Obs.Metrics.add m_evals m.evals;
  (match outcome with
   | Detected _ -> Obs.Metrics.incr m_detected
   | Exhausted -> Obs.Metrics.incr m_exhausted
   | Aborted ->
     Obs.Metrics.incr m_aborted;
     if Obs.Log.enabled Obs.Log.Debug then
       Obs.Log.event Obs.Log.Debug "podem.abort"
         [ ("net", Obs.Json.Int fault.Fault.f_net);
           ("stuck", Obs.Json.Bool fault.Fault.f_stuck);
           ("backtracks", Obs.Json.Int m.backtracks) ]);
  outcome

(* ------------------------------------------------------------------ *)
(* Differential self-check of the incremental implication.             *)
(* ------------------------------------------------------------------ *)

(* The D-frontier as a full scan of the planes gives it: collected in
   (frame, topological) order, reversed, then stably sorted by
   distance. *)
let scanned_frontier m =
  let members = ref [] in
  for f = 0 to m.cfg.frames - 1 do
    Array.iter
      (fun net -> if on_frontier m f net then members := (f, net) :: !members)
      m.info.A.order
  done;
  List.stable_sort
    (fun (_, a) (_, b) -> compare m.dist.(a) m.dist.(b))
    !members

let check_implication c cfg fault batches =
  let m = make_model c cfg fault in
  simulate m;
  let n = Array.length m.inputs in
  let value v = match v with 0 -> V0 | 1 -> V1 | _ -> VX in
  let site i = Printf.sprintf "%d@f%d" (i mod m.nets) (i / m.nets) in
  let show l =
    String.concat " " (List.map (fun (f, net) -> site (idx m f net)) l)
  in
  let check step =
    let r = make_model c cfg fault in
    Array.blit m.assignment 0 r.assignment 0 n;
    simulate r;
    let first_diff a b =
      let rec go i =
        if i >= Array.length a then None
        else if a.(i) <> b.(i) then Some i
        else go (i + 1)
      in
      go 0
    in
    let frontier = List.map (frontier_site m) (Keys.elements m.frontier)
    and scanned = scanned_frontier r in
    match (first_diff m.good r.good, first_diff m.faulty r.faulty) with
    | (Some i, _) -> Error (Printf.sprintf "step %d: good value of %s" step (site i))
    | (None, Some i) ->
      Error (Printf.sprintf "step %d: faulty value of %s" step (site i))
    | (None, None) when frontier <> scanned ->
      Error
        (Printf.sprintf "step %d: D-frontier [%s], full scan [%s]" step
           (show frontier) (show scanned))
    | (None, None) -> Ok ()
  in
  let rec go step = function
    | [] -> check step
    | batch :: rest ->
      (match check step with
       | Error _ as e -> e
       | Ok () ->
         if n > 0 then
           List.iter
             (fun (k, v) -> set_input m (((k mod n) + n) mod n) (value v))
             batch;
         imply m;
         go (step + 1) rest)
  in
  go 0 batches
