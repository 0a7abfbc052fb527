(** Standalone netlist optimization passes.  The builder already folds
    constants and hash-conses structurally during construction; these
    passes run on finished netlists and implement the "synthesis
    removes the redundant constraints" step as a reusable
    transformation.  Also provides a
    random-simulation equivalence check used by the test suite. *)

module N = Netlist
module L = Sim.Logic3

(** [rebuild c] reconstructs [c] through a fresh builder, re-applying
    every local simplification rule.  Dead logic disappears because only
    the cones of the outputs and of live flip-flops are traversed.
    Primary inputs and outputs keep their names and order. *)
let rebuild c =
  let b = N.create_builder () in
  let nets = N.num_nets c in
  let memo = Array.make nets (-1) in
  (* inputs first, in order *)
  Array.iteri
    (fun i name -> memo.(c.N.pis.(i)) <- N.add_pi b name)
    c.N.pi_names;
  (* flip-flops: q nets allocated lazily so dead state vanishes; d inputs
     patched after the combinational rebuild *)
  let ff_used = Array.make (N.num_ffs c) (-1) in
  let rec net_of old =
    if memo.(old) >= 0 then memo.(old)
    else begin
      let fresh =
        match c.N.drv.(old) with
        | N.Pi _ -> assert false  (* seeded above *)
        | N.C0 -> N.const0 b
        | N.C1 -> N.const1 b
        | N.Ff i ->
          if ff_used.(i) >= 0 then ff_used.(i)
          else begin
            N.set_context b c.N.origin.(old);
            let q = N.add_ff b c.N.ff_names.(i) in
            ff_used.(i) <- q;
            q
          end
        | N.G1 (N.Inv, a) ->
          let a = net_of a in
          N.set_context b c.N.origin.(old);
          N.mk_not b a
        | N.G1 (N.Buff, a) ->
          let a = net_of a in
          N.set_context b c.N.origin.(old);
          N.mk_hard_buf b a
        | N.G2 (kind, x, y) ->
          (* short-circuit controlled gates so dead cones are never
             rebuilt *)
          let x = net_of x in
          let controlled =
            match kind with
            | N.And | N.Nand -> N.is_const0 b x
            | N.Or | N.Nor -> N.is_const1 b x
            | N.Xor | N.Xnor -> false
          in
          let y = if controlled then x else net_of y in
          N.set_context b c.N.origin.(old);
          (match kind with
           | N.And -> N.mk_and b x y
           | N.Or -> N.mk_or b x y
           | N.Xor -> N.mk_xor b x y
           | N.Nand -> N.mk_nand b x y
           | N.Nor -> N.mk_nor b x y
           | N.Xnor -> N.mk_xnor b x y)
        | N.Mux (s, x, y) ->
          let s = net_of s in
          N.set_context b c.N.origin.(old);
          if N.is_const0 b s then net_of x
          else if N.is_const1 b s then net_of y
          else begin
            let x = net_of x and y = net_of y in
            N.set_context b c.N.origin.(old);
            N.mk_mux b s x y
          end
      in
      memo.(old) <- fresh;
      fresh
    end
  in
  (* outputs drive the rebuild *)
  Array.iteri
    (fun i po -> N.add_po b c.N.po_names.(i) (net_of po))
    c.N.pos;
  (* live flip-flops need their d cones, which may wake further
     flip-flops: iterate to a fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i q ->
        if q >= 0 && c.N.ff_d.(i) >= 0 then begin
          let d_old = c.N.ff_d.(i) in
          if memo.(d_old) < 0 then changed := true;
          N.set_ff_d b q (net_of d_old)
        end)
      ff_used
  done;
  N.finalize b

(* ------------------------------------------------------------------ *)
(* Random-simulation equivalence check.                                *)
(* ------------------------------------------------------------------ *)

(** Outcome of a random equivalence check: [Equal] means no
    counter-example was found within the given effort; [Differ] carries
    the name of a mismatching output. *)
type verdict = Equal | Differ of string

(* Shared random input values per named PI, 64 patterns wide. *)
let random_values rng names =
  List.map
    (fun name ->
      ( name,
        L.of_bits
          ~value:(Random.State.int64 rng Int64.max_int)
          ~known:(-1L) ))
    (Array.to_list names)

(** [equivalent ?rounds ?cycles ~rng a b] drives both circuits with the
    same random input sequences (by PI name) and compares the outputs
    they share (by PO name).  Sequential circuits are stepped [cycles]
    times from the all-X state. *)
let equivalent ?(rounds = 16) ?(cycles = 4) ~rng a b =
  let sim_a = Sim.Eval.create a and sim_b = Sim.Eval.create b in
  let pis c values =
    Array.map
      (fun name ->
        match List.assoc_opt name values with Some v -> v | None -> L.x)
      c.N.pi_names
  in
  let shared_outputs =
    Array.to_list a.N.po_names
    |> List.filter_map (fun name ->
           let find c =
             let found = ref None in
             Array.iteri
               (fun i n -> if String.equal n name then found := Some i)
               c.N.po_names;
             !found
           in
           match (find a, find b) with
           | (Some ia, Some ib) -> Some (name, ia, ib)
           | _ -> None)
  in
  let verdict = ref Equal in
  let round () =
    Sim.Eval.reset_state sim_a;
    Sim.Eval.reset_state sim_b;
    for _ = 1 to cycles do
      if !verdict = Equal then begin
        let values = random_values rng a.N.pi_names in
        Sim.Eval.eval sim_a (pis a values);
        Sim.Eval.eval sim_b (pis b values);
        let out_a = Sim.Eval.outputs sim_a and out_b = Sim.Eval.outputs sim_b in
        List.iter
          (fun (name, ia, ib) ->
            if not (Int64.equal (L.diff out_a.(ia) out_b.(ib)) 0L) then
              verdict := Differ name)
          shared_outputs;
        Sim.Eval.tick sim_a;
        Sim.Eval.tick sim_b
      end
    done
  in
  let i = ref 0 in
  while !verdict = Equal && !i < rounds do
    incr i;
    round ()
  done;
  !verdict

(** [equivalent_exact ?rounds ?cycles ?rng a b] keeps the random check
    as a fast pre-filter (a counter-example needs no SAT run) and then
    proves [Equal] exactly with {!Sat.Ec}: matched-register
    equivalence of the shared outputs and next-state functions.  A
    solver that hits its conflict limit reports [Differ
    "sat-inconclusive"] — the check fails closed. *)
let equivalent_exact ?(rounds = 4) ?(cycles = 4) ?rng a b =
  Obs.Span.with_ "synth.equiv_exact" @@ fun () ->
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x5eed |]
  in
  match equivalent ~rounds ~cycles ~rng a b with
  | Differ name -> Differ name
  | Equal ->
    (match fst (Sat.Ec.check a b) with
    | Sat.Ec.Equal -> Equal
    | Sat.Ec.Differ name -> Differ name
    | Sat.Ec.Unknown -> Differ "sat-inconclusive")
