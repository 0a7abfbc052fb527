(** Levelized compiled simulation of a gate-level netlist: 64 patterns in
    parallel, three-valued, with sequential stepping for clocked
    designs. *)

module N = Netlist
module L = Logic3

type t = {
  circuit : N.t;
  order : int array;            (** topological evaluation order *)
  values : L.t array;           (** per net *)
  mutable state : L.t array;    (** per flip-flop *)
}

(** [create c] builds a simulator with all flip-flops initialized to X. *)
let create circuit =
  { circuit;
    order = (N.analysis circuit).N.Analysis.order;
    values = Array.make (N.num_nets circuit) L.x;
    state = Array.make (N.num_ffs circuit) L.x }

let reset_state sim = sim.state <- Array.make (N.num_ffs sim.circuit) L.x

(** Force every flip-flop to zero (reference-model comparisons). *)
let zero_state sim = sim.state <- Array.make (N.num_ffs sim.circuit) L.zero

(** [drive c values ~pi ~state net] is the value [net]'s driver
    computes: fanins read from [values], primary input [i] from [pi i],
    flip-flop [i] from [state.(i)]. *)
let drive (c : N.t) (values : L.t array) ~pi ~(state : L.t array) net =
  match c.N.drv.(net) with
  | N.Pi i -> pi i
  | N.Ff i -> state.(i)
  | N.C0 -> L.zero
  | N.C1 -> L.one
  | N.G1 (N.Inv, a) -> L.v_not values.(a)
  | N.G1 (N.Buff, a) -> values.(a)
  | N.G2 (N.And, a, b) -> L.v_and values.(a) values.(b)
  | N.G2 (N.Or, a, b) -> L.v_or values.(a) values.(b)
  | N.G2 (N.Xor, a, b) -> L.v_xor values.(a) values.(b)
  | N.G2 (N.Nand, a, b) -> L.v_not (L.v_and values.(a) values.(b))
  | N.G2 (N.Nor, a, b) -> L.v_not (L.v_or values.(a) values.(b))
  | N.G2 (N.Xnor, a, b) -> L.v_not (L.v_xor values.(a) values.(b))
  | N.Mux (s, a, b) -> L.v_mux values.(s) values.(a) values.(b)

(** Evaluate combinational logic for the given PI values (one [L.t] per
    primary input, 64 patterns wide). *)
let eval sim (pi_values : L.t array) =
  let pi i = pi_values.(i) in
  Array.iter
    (fun net ->
      sim.values.(net) <-
        drive sim.circuit sim.values ~pi ~state:sim.state net)
    sim.order

(** Values observed at the primary outputs. *)
let outputs sim = Array.map (fun net -> sim.values.(net)) sim.circuit.N.pos

(** Advance one clock cycle: capture every flip-flop's d input. *)
let tick sim =
  let c = sim.circuit in
  sim.state <- Array.map (fun d -> sim.values.(d)) c.N.ff_d

(** Apply one input vector and advance the clock; returns the PO values
    seen before the clock edge. *)
let step sim pi_values =
  eval sim pi_values;
  let pos = outputs sim in
  tick sim;
  pos

(* ------------------------------------------------------------------ *)
(* Convenience: integer-valued single-pattern interface.                *)
(* ------------------------------------------------------------------ *)

(** Build PI values from a list of (name, value) pairs over multi-bit
    port names ("a" covering nets named "a[0]", "a[1]", ...).  Missing
    inputs are X. *)
let pi_of_ports c (bindings : (string * int) list) =
  let values = Array.make (N.num_pis c) L.x in
  Array.iteri
    (fun i name ->
      let (base, bit) =
        match String.index_opt name '[' with
        | None -> (name, 0)
        | Some k ->
          let base = String.sub name 0 k in
          let bit =
            int_of_string (String.sub name (k + 1) (String.length name - k - 2))
          in
          (base, bit)
      in
      match List.assoc_opt base bindings with
      | None -> ()
      | Some v ->
        values.(i) <- (if (v asr bit) land 1 = 1 then L.one else L.zero))
    c.N.pi_names;
  values

(** Read a multi-bit output port as an integer; [None] if any bit is X
    (uses pattern 0). *)
let po_as_int sim base =
  let c = sim.circuit in
  let result = ref 0 in
  let any = ref false in
  let ok = ref true in
  Array.iteri
    (fun i name ->
      let matches =
        String.equal name base
        || String.length name > String.length base
           && String.sub name 0 (String.length base) = base
           && name.[String.length base] = '['
      in
      if matches then begin
        any := true;
        let bit =
          if String.equal name base then 0
          else
            int_of_string
              (String.sub name
                 (String.length base + 1)
                 (String.length name - String.length base - 2))
        in
        match L.get sim.values.(c.N.pos.(i)) 0 with
        | Some true -> result := !result lor (1 lsl bit)
        | Some false -> ()
        | None -> ok := false
      end)
    c.N.po_names;
  if !any && !ok then Some !result else None
