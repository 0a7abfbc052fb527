(** PIER identification (Primary Input/output accessible Registers).
    The paper identifies internal registers reachable from chip level via
    load/store instructions; on the transformed module this corresponds to
    registers with small sequential distance from the interface.  A
    flip-flop is a PIER when its data input is controllable from the
    primary inputs within one register crossing and its state is
    observable at a primary output within one crossing. *)

module N = Netlist

let inf = max_int / 2

(* Sequential controllability depth of every net: the minimum number of
   flip-flop crossings on any path from a primary input. *)
let control_depth c order =
  let depth = Array.make (N.num_nets c) inf in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun net ->
        let d =
          match c.N.drv.(net) with
          | N.Pi _ -> 0
          | N.C0 | N.C1 -> inf
          | N.Ff i ->
            let v = depth.(c.N.ff_d.(i)) in
            if v >= inf then inf else v + 1
          | g ->
            List.fold_left
              (fun acc i -> min acc depth.(i))
              inf (N.fanins g)
        in
        if d < depth.(net) then begin
          depth.(net) <- d;
          changed := true
        end)
      order
  done;
  depth

(* Sequential observability depth: minimum flip-flop crossings from a net
   to a primary output. *)
let observe_depth c order =
  let depth = Array.make (N.num_nets c) inf in
  Array.iter (fun po -> depth.(po) <- 0) c.N.pos;
  let changed = ref true in
  while !changed do
    changed := false;
    for k = Array.length order - 1 downto 0 do
      let net = order.(k) in
      let dn = depth.(net) in
      if dn < inf then
        List.iter
          (fun fanin ->
            if depth.(fanin) > dn then begin
              depth.(fanin) <- dn;
              changed := true
            end)
          (N.fanins c.N.drv.(net))
    done;
    Array.iteri
      (fun i q ->
        let dq = depth.(q) in
        let d = c.N.ff_d.(i) in
        if dq < inf && depth.(d) > dq + 1 then begin
          depth.(d) <- dq + 1;
          changed := true
        end)
      c.N.ff_q
  done;
  depth

(** [identify c] returns the PIER flip-flop indices of [c]. *)
let identify c =
  let order = (N.analysis c).N.Analysis.order in
  let ctrl = control_depth c order in
  let obs = observe_depth c order in
  List.filter
    (fun i ->
      ctrl.(c.N.ff_d.(i)) <= 1 && obs.(c.N.ff_q.(i)) <= 1)
    (List.init (N.num_ffs c) Fun.id)
