(** Single stuck-at fault model over netlist nets (stem faults), with
    inverter-chain equivalence collapsing. *)

module N = Netlist

type t = {
  f_net : int;
  f_stuck : bool;  (** the stuck-at value *)
}

let to_string c f =
  let name =
    match c.N.drv.(f.f_net) with
    | N.Pi i -> c.N.pi_names.(i)
    | N.Ff i -> c.N.ff_names.(i)
    | _ ->
      let origin = c.N.origin.(f.f_net) in
      Printf.sprintf "net%d%s" f.f_net
        (if origin = "" then "" else "@" ^ origin)
  in
  Printf.sprintf "%s/sa%d" name (if f.f_stuck then 1 else 0)

(** [sites ?within c] lists fault sites: every live net except constants.
    [within] restricts to nets whose origin starts with the given instance
    path — the "faults in the module under test" selection. *)
let sites ?within c =
  let live = N.live_mask c in
  let keep net =
    live.(net)
    && (match c.N.drv.(net) with N.C0 | N.C1 -> false | _ -> true)
    && (match within with
        | None -> true
        | Some prefix -> N.under_prefix prefix c.N.origin.(net))
  in
  List.filter keep (List.init (N.num_nets c) Fun.id)

(** Full uncollapsed fault list: two faults per site. *)
let all ?within c =
  List.concat_map
    (fun net -> [ { f_net = net; f_stuck = false }; { f_net = net; f_stuck = true } ])
    (sites ?within c)

(** Equivalence collapsing.  Three rules, each valid only when the inner
    net has exactly one reader (so the dropped fault is unobservable
    anywhere but through its representative):

    - an inverter output fault with a single-fanout fanin is equivalent
      to the complementary fault on the fanin; keep the fanin fault;
    - a buffer output fault with a single-fanout fanin is equivalent to
      the same fault on the fanin; keep the fanin fault;
    - a single-fanout net feeding an AND/NAND (resp. OR/NOR) gate has
      its stuck-at-controlling-value fault equivalent to the gate output
      fault: AND input sa0 ≡ output sa0, NAND input sa0 ≡ output sa1,
      OR input sa1 ≡ output sa1, NOR input sa1 ≡ output sa0; keep the
      output fault. *)

(* The representative a fault is dropped in favour of, or None when the
   fault is itself a class representative.  Chains terminate: the
   inverter/buffer rule steps toward the inputs and only fires on nets
   whose single reader is the G1 gate, while the gate-input rule steps
   toward the outputs and only fires on nets whose single reader is a
   G2 gate — after either step the other rule cannot apply. *)
let representative c ~fanout_count ~gate_reader f =
  match c.N.drv.(f.f_net) with
  | N.G1 (N.Inv, a) when fanout_count.(a) = 1 ->
    Some { f_net = a; f_stuck = not f.f_stuck }
  | N.G1 (N.Buff, a) when fanout_count.(a) = 1 ->
    Some { f_net = a; f_stuck = f.f_stuck }
  | _ ->
    if fanout_count.(f.f_net) <> 1 then None
    else
      match gate_reader.(f.f_net) with
      | -1 -> None
      | g ->
        (match (c.N.drv.(g), f.f_stuck) with
         | (N.G2 (N.And, _, _), false) -> Some { f_net = g; f_stuck = false }
         | (N.G2 (N.Nand, _, _), false) -> Some { f_net = g; f_stuck = true }
         | (N.G2 (N.Or, _, _), true) -> Some { f_net = g; f_stuck = true }
         | (N.G2 (N.Nor, _, _), true) -> Some { f_net = g; f_stuck = false }
         | _ -> None)

let reader_tables c =
  let fanout_count = Array.make (N.num_nets c) 0 in
  let gate_reader = Array.make (N.num_nets c) (-1) in
  Array.iteri
    (fun net d ->
      List.iter
        (fun i ->
          fanout_count.(i) <- fanout_count.(i) + 1;
          gate_reader.(i) <- net)
        (N.fanins d))
    c.N.drv;
  Array.iter (fun d -> fanout_count.(d) <- fanout_count.(d) + 1) c.N.ff_d;
  Array.iter (fun p -> fanout_count.(p) <- fanout_count.(p) + 1) c.N.pos;
  (fanout_count, gate_reader)

(* A fault may only be dropped in favour of a representative that is
   itself in the fault list — with a [within]-restricted list a chain can
   step outside the selection (e.g. a module-internal buffer collapsing
   into the chip-side port fault), and dropping such a fault would
   silently remove its equivalence class from the universe.  The kept
   member of a chain is the in-list fault closest to the chain's end. *)
let keeper_of c ~fanout_count ~gate_reader ~in_list f =
  let rec last_in_list f acc =
    match representative c ~fanout_count ~gate_reader f with
    | None -> acc
    | Some rep -> last_in_list rep (if in_list rep then Some rep else acc)
  in
  last_in_list f None

let in_list_table faults =
  let set = Hashtbl.create (List.length faults) in
  List.iter (fun (f : t) -> Hashtbl.replace set f ()) faults;
  fun f -> Hashtbl.mem set f

let collapse c faults =
  let (fanout_count, gate_reader) = reader_tables c in
  let in_list = in_list_table faults in
  List.filter
    (fun f -> keeper_of c ~fanout_count ~gate_reader ~in_list f = None)
    faults

(** [collapse_pairs c faults] lists the faults {!collapse} drops, each
    with the kept representative of its equivalence class (always a
    member of [collapse c faults]) — any test set detects both or
    neither. *)
let collapse_pairs c faults =
  let (fanout_count, gate_reader) = reader_tables c in
  let in_list = in_list_table faults in
  List.filter_map
    (fun f ->
      match keeper_of c ~fanout_count ~gate_reader ~in_list f with
      | None -> None
      | Some rep -> Some (f, rep))
    faults
