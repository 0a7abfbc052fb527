(** Simulation-based sequential test generation (CONTEST-style): instead
    of branch-and-bound search, a candidate sequence is evolved by
    hill-climbing on a cost function measured by concurrent good/faulty
    simulation — the number of nets on which the fault effect is visible,
    with detection as the goal.  Complements PODEM: no backtracking, no
    time-frame model, naturally handles deep sequential behaviour. *)

module N = Netlist
module A = N.Analysis
module P = Sim.Packed

type config = {
  sg_generations : int;  (** improvement rounds per fault *)
  sg_frames : int;       (** initial sequence length *)
  sg_max_frames : int;   (** hard cap on sequence growth *)
  sg_piers : int list;
  sg_seed : int;
}

let default_config =
  { sg_generations = 30;
    sg_frames = 4;
    sg_max_frames = 24;
    sg_piers = [];
    sg_seed = 1 }

(* Candidate sequences kept per fault. *)
let pool_size = 8

(* The good machine rides lane 0 of native-int dual-rail planes, the
   faulty one lane 1; both planes are reused across every candidate of
   a fault. *)
type planes = {
  vh : int array;  (* per net *)
  vl : int array;
  sh : int array;  (* per flip-flop *)
  sl : int array;
  r : P.rail;
}

let both = 3  (* lanes 0 and 1 *)
let faulty = 2  (* lane 1 *)

(* Lanes 0 and 1 are both binary and differ. *)
let diverges h l = ((h land (l lsr 1)) lor (l land (h lsr 1))) land 1 <> 0

(* Fitness of a sequence against one fault: simulate the good and faulty
   machines together; score divergence, hugely rewarding
   primary-output divergence (= detection). *)
let fitness c (info : A.info) pl observe fault (test : Pattern.test) =
  let { vh; vl; sh; sl; r } = pl in
  let order = info.A.order and ops = info.A.op and fanin = info.A.fanin in
  Array.fill sh 0 (Array.length sh) 0;
  Array.fill sl 0 (Array.length sl) 0;
  List.iter
    (fun (ff, v) ->
      sh.(ff) <- (if v then both else 0);
      sl.(ff) <- (if v then 0 else both))
    test.Pattern.p_loads;
  let site = fault.Fault.f_net and stuck = fault.Fault.f_stuck in
  let score = ref 0 in
  let detected = ref false in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let pi_vec = test.Pattern.p_vectors.(f) in
    (* divergence: nets where the good and faulty machines provably
       differ *)
    let divergent = ref 0 in
    for k = 0 to Array.length order - 1 do
      let net = order.(k) in
      let op = Bytes.get_uint8 ops net in
      let a = fanin.(3 * net) in
      if op = A.op_pi then begin
        r.P.hi <- (if pi_vec.(a) then both else 0);
        r.P.lo <- (if pi_vec.(a) then 0 else both)
      end
      else if op = A.op_ff then begin
        r.P.hi <- sh.(a);
        r.P.lo <- sl.(a)
      end
      else begin
        let b = fanin.((3 * net) + 1) and s = fanin.((3 * net) + 2) in
        P.gate r op both vh.(a) vl.(a) vh.(b) vl.(b) vh.(s) vl.(s)
      end;
      (* the faulty machine sees the stuck value *)
      if net = site then
        if stuck then begin
          r.P.hi <- r.P.hi lor faulty;
          r.P.lo <- r.P.lo land lnot faulty
        end
        else begin
          r.P.hi <- r.P.hi land lnot faulty;
          r.P.lo <- r.P.lo lor faulty
        end;
      vh.(net) <- r.P.hi;
      vl.(net) <- r.P.lo;
      if diverges r.P.hi r.P.lo then incr divergent
    done;
    score := !score + !divergent;
    if observe.Fsim.ob_pos then
      Array.iter
        (fun po -> if diverges vh.(po) vl.(po) then detected := true)
        c.N.pos;
    for i = 0 to N.num_ffs c - 1 do
      let d = c.N.ff_d.(i) in
      sh.(i) <- vh.(d);
      sl.(i) <- vl.(d)
    done;
    if f = frames - 1 then
      List.iter
        (fun ff -> if diverges sh.(ff) sl.(ff) then detected := true)
        observe.Fsim.ob_pier_ffs
  done;
  (!score, !detected)

(* Mutate a sequence: flip some bits, occasionally extend by a frame. *)
let mutate rng num_pis max_frames (t : Pattern.test) =
  let vectors = Array.map Array.copy t.Pattern.p_vectors in
  let frames = Array.length vectors in
  let vectors =
    if Random.State.int rng 4 = 0 && frames < max_frames then
      Array.append vectors
        [| Array.init num_pis (fun _ -> Random.State.bool rng) |]
    else vectors
  in
  let flips = 1 + Random.State.int rng 4 in
  for _ = 1 to flips do
    let f = Random.State.int rng (Array.length vectors) in
    if num_pis > 0 then begin
      let b = Random.State.int rng num_pis in
      vectors.(f).(b) <- not vectors.(f).(b)
    end
  done;
  let loads =
    List.map
      (fun (ff, v) ->
        if Random.State.int rng 8 = 0 then (ff, not v) else (ff, v))
      t.Pattern.p_loads
  in
  { Pattern.p_vectors = vectors; p_loads = loads }

(** [run ?budget c cfg fault] evolves a test for [fault]; [None] when the
    generations run out, or [budget] dies, without detection. *)
let run ?(budget = Engine.Budget.none) c cfg fault =
  let info = N.analysis c in
  let pl =
    { vh = Array.make (N.num_nets c) 0;
      vl = Array.make (N.num_nets c) 0;
      sh = Array.make (max 1 (N.num_ffs c)) 0;
      sl = Array.make (max 1 (N.num_ffs c)) 0;
      r = { P.hi = 0; lo = 0 } }
  in
  let observe = { Fsim.ob_pos = true; ob_pier_ffs = cfg.sg_piers } in
  let rng = Random.State.make [| cfg.sg_seed; fault.Fault.f_net |] in
  let num_pis = N.num_pis c in
  let fresh () =
    Pattern.random ~rng ~num_pis ~frames:cfg.sg_frames ~piers:cfg.sg_piers
  in
  let pool = ref (List.init pool_size (fun _ -> fresh ())) in
  let result = ref None in
  let generation = ref 0 in
  while
    !result = None
    && !generation < cfg.sg_generations
    && not (Engine.Budget.poll budget)
  do
    incr generation;
    let scored =
      List.map
        (fun t ->
          let (score, detected) = fitness c info pl observe fault t in
          if detected && !result = None then result := Some t;
          (score, t))
        !pool
    in
    if !result = None then begin
      (* keep the best half, refill with their mutations *)
      let ranked =
        List.sort (fun (a, _) (b, _) -> compare b a) scored |> List.map snd
      in
      let keep = max 1 (pool_size / 2) in
      let survivors = List.filteri (fun i _ -> i < keep) ranked in
      let children =
        List.concat_map
          (fun t -> [ mutate rng num_pis cfg.sg_max_frames t ])
          survivors
      in
      let refill = pool_size - List.length survivors - List.length children in
      pool :=
        survivors @ children @ List.init (max 0 refill) (fun _ -> fresh ())
    end
  done;
  !result

type result = {
  sr_total : int;
  sr_detected : int;
  sr_coverage : float;
  sr_tests : Pattern.test list;
  sr_time : float;
  sr_wall : float;
}

(** [campaign c cfg faults] runs the generator over a fault list with
    fault dropping through fault simulation. *)
let campaign c cfg faults =
  let t0 = Sys.time () in
  let w0 = Engine.Clock.now () in
  let observe = { Fsim.ob_pos = true; ob_pier_ffs = cfg.sg_piers } in
  let n = List.length faults in
  let fault_arr = Array.of_list faults in
  let detected = Array.make n false in
  let tests = ref [] in
  for i = 0 to n - 1 do
    if not detected.(i) then begin
      match run c cfg fault_arr.(i) with
      | Some test ->
        tests := test :: !tests;
        let rem =
          List.filteri (fun j _ -> not detected.(j))
            (Array.to_list fault_arr)
        in
        let idx =
          List.filteri (fun _ j -> not detected.(j)) (List.init n Fun.id)
        in
        let flags = Fsim.run c ~observe ~faults:rem [ test ] in
        List.iteri (fun k j -> if flags.(k) then detected.(j) <- true) idx
      | None -> ()
    end
  done;
  let hits = Array.fold_left (fun a d -> if d then a + 1 else a) 0 detected in
  { sr_total = n;
    sr_detected = hits;
    sr_coverage =
      (if n = 0 then 100.0 else 100.0 *. float_of_int hits /. float_of_int n);
    sr_tests = List.rev !tests;
    sr_time = Sys.time () -. t0;
    sr_wall = Engine.Clock.now () -. w0 }
