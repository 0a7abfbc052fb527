(* Miter construction for single stuck-at faults over bounded time
   frames.  The faulted copy is encoded only where it can differ from
   the good circuit: the nets a forward {!Netlist.walk} from the fault
   site reaches, through gate fanout and from each flip-flop's d input
   to its q (the flip-flops that carry the difference into later
   frames).  Everything outside the cone shares the good copy's
   literals. *)

type cube = {
  tc_vectors : bool array array;
  tc_loads : (int * bool) list;
}

type outcome =
  | Cube of cube
  | Untestable of int
  | Gave_up

(* The miter grows one frame at a time in a single solver, so clauses
   learned while refuting depth d still prune depth d+1.  Depth d adds
   good and faulted frame d-1 and one clause [-a_d \/ terms] over that
   frame's observation points (in-cone POs, and PIER next-state since d
   is the last frame), guarded by a fresh activation literal a_d solved
   as an assumption.  UNSAT under a_d means the database entails the
   negation of every term; later frames only add Tseitin definitions of
   fresh variables, so those negations stay entailed and are asserted
   as units, and [-a_d] retires the clause. *)
let run_body ~max_frames ~conflict_limit ~piers ~budget c ~net ~stuck =
  let cone =
    Array.map
      (fun d -> d <> Netlist.unreachable)
      (Netlist.walk c Netlist.Forward ~gate:0 ~reg:0 [| net |])
  in
  let depths = if Netlist.num_ffs c = 0 then 1 else max 1 max_frames in
  let e = Cnf.create () in
  let sv = Cnf.solver e in
  let num_pis = Netlist.num_pis c in
  let load_rails =
    Array.init (Netlist.num_ffs c) (fun i ->
        if List.mem i piers then Cnf.fresh_binary e else Cnf.rails_x e)
  in
  let stuck_rails = Cnf.rails_of_bool e stuck in
  let pi_rails = Array.make depths [||] in
  let good = Array.make depths [||] in
  let faulty = Array.make depths [||] in
  (* frame [f] of both miter halves; returns its observation terms.
     Points outside the cone cannot differ and are skipped. *)
  let encode_frame f =
    pi_rails.(f) <- Array.init num_pis (fun _ -> Cnf.fresh_binary e);
    good.(f) <-
      Cnf.encode e c
        ~assign:(fun n ->
          match c.drv.(n) with
          | Netlist.Pi i -> Some pi_rails.(f).(i)
          | Netlist.Ff i ->
            Some (if f = 0 then load_rails.(i) else good.(f - 1).(c.ff_d.(i)))
          | _ -> None)
        ();
    faulty.(f) <-
      Cnf.encode e c ~cone
        ~assign:(fun n ->
          if n = net then Some stuck_rails
          else if not cone.(n) then Some good.(f).(n)
          else
            match c.drv.(n) with
            | Netlist.Ff i ->
              (* initial state is shared; later frames chain the
                 faulted d *)
              Some
                (if f = 0 then good.(0).(n) else faulty.(f - 1).(c.ff_d.(i)))
            | _ -> None)
        ();
    let diff n = Cnf.diff_lit e good.(f).(n) faulty.(f).(n) in
    let po_terms =
      Array.fold_left
        (fun acc po -> if cone.(po) then diff po :: acc else acc)
        [] c.pos
    in
    List.fold_left
      (fun acc i -> if cone.(c.ff_d.(i)) then diff c.ff_d.(i) :: acc else acc)
      po_terms piers
  in
  let decode frames =
    { tc_vectors =
        Array.init frames (fun f ->
            Array.map (fun r -> Cnf.lit_holds e r.Cnf.r1) pi_rails.(f));
      tc_loads =
        List.map (fun i -> (i, Cnf.lit_holds e load_rails.(i).Cnf.r1)) piers }
  in
  (* one reporter per fault, one step per unroll depth: cheap enough to
     sit on the per-fault path (disabled = one atomic load at start),
     and under a sink the shared rate limit keeps the stream bounded *)
  let prog = Obs.Progress.start ~total:depths "sat.unroll" in
  let rec loop d =
    if d > depths then Untestable depths
    else begin
      let logged = Obs.Log.enabled Obs.Log.Debug in
      let t0 = if logged then Engine.Clock.now () else 0.0 in
      let terms = encode_frame (d - 1) in
      let act = Solver.pos (Solver.new_var sv) in
      Solver.add_clause sv (Solver.neg act :: terms);
      let t1 = if logged then Engine.Clock.now () else 0.0 in
      let c0 = if logged then (Solver.stats sv).Solver.s_conflicts else 0 in
      let result =
        Solver.solve ~budget ~assumptions:[ act ] ~conflict_limit sv
      in
      if logged then
        Obs.Log.event Obs.Log.Debug "sat.depth"
          Obs.Json.
            [ ("net", Int net); ("stuck", Bool stuck); ("depth", Int d);
              ("vars", Int (Solver.num_vars sv));
              ("conflicts", Int ((Solver.stats sv).Solver.s_conflicts - c0));
              ("encode_s", Float (t1 -. t0));
              ("solve_s", Float (Engine.Clock.now () -. t1));
              ("result",
               String
                 (match result with
                  | Solver.Sat -> "sat"
                  | Solver.Unsat -> "unsat"
                  | Solver.Unknown -> "unknown")) ];
      Obs.Progress.step prog;
      match result with
      | Solver.Sat -> Cube (decode d)
      | Solver.Unsat ->
        (* a dead budget must not let an Unsat streak masquerade as a
           full untestability proof at the next depth *)
        if Engine.Budget.poll budget then Gave_up
        else begin
          Solver.add_clause sv [ Solver.neg act ];
          List.iter (fun t -> Solver.add_clause sv [ Solver.neg t ]) terms;
          loop (d + 1)
        end
      | Solver.Unknown -> Gave_up
    end
  in
  let outcome = loop 1 in
  Obs.Progress.finish prog;
  (outcome, Solver.stats sv)

(* per-fault span: guard attr construction so untraced SAT sweeps pay
   nothing for instrumentation *)
let run ?(max_frames = 1) ?(conflict_limit = 20_000) ?(piers = [])
    ?(budget = Engine.Budget.none) c ~net ~stuck =
  if Obs.Span.enabled () then
    Obs.Span.with_ "sat.atpg"
      ~attrs:[ ("net", Obs.Json.Int net); ("stuck", Obs.Json.Bool stuck) ]
      (fun () ->
        run_body ~max_frames ~conflict_limit ~piers ~budget c ~net ~stuck)
  else run_body ~max_frames ~conflict_limit ~piers ~budget c ~net ~stuck
