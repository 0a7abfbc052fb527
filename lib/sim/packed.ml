(** Packed-pattern dual-rail words: up to [Sys.int_size] patterns per
    native int, same rail encoding and truth tables as {!Logic3} (which
    packs fault columns instead).  Native ints keep the whole kernel
    unboxed — no allocation per gate evaluation. *)

let width = Sys.int_size

let mask n = if n >= width then -1 else (1 lsl n) - 1

(* ------------------------------------------------------------------ *)
(* The gate kernel.                                                    *)
(* ------------------------------------------------------------------ *)

type rail = { mutable hi : int; mutable lo : int }

(* Opcodes as numbered in [Netlist.Analysis]; a literal match compiles
   to one jump table. *)
let gate r op m ah al bh bl sh sl =
  match op with
  | 2 (* c0 *) -> r.hi <- 0; r.lo <- m
  | 3 (* c1 *) -> r.hi <- m; r.lo <- 0
  | 4 (* buf *) -> r.hi <- ah; r.lo <- al
  | 5 (* inv *) -> r.hi <- al; r.lo <- ah
  | 6 (* and *) -> r.hi <- ah land bh; r.lo <- al lor bl
  | 7 (* or *) -> r.hi <- ah lor bh; r.lo <- al land bl
  | 8 (* xor *) ->
    r.hi <- (ah land bl) lor (al land bh);
    r.lo <- (ah land bh) lor (al land bl)
  | 9 (* nand *) -> r.hi <- al lor bl; r.lo <- ah land bh
  | 10 (* nor *) -> r.hi <- al land bl; r.lo <- ah lor bh
  | 11 (* xnor *) ->
    r.hi <- (ah land bh) lor (al land bl);
    r.lo <- (ah land bl) lor (al land bh)
  | 12 (* mux: select 1 picks b *) ->
    r.hi <- (sh land bh) lor (sl land ah) lor (ah land bh);
    r.lo <- (sh land bl) lor (sl land al) lor (al land bl)
  | _ -> invalid_arg "Packed.gate: not a gate opcode"

(* ------------------------------------------------------------------ *)
(* Transpose: pattern rows -> per-frame bit planes.                    *)
(* ------------------------------------------------------------------ *)

type batch = {
  b_lanes : int;
  b_mask : int;
  b_frames : int;
  b_active : int array;
  b_last : int array;
  b_pi_hi : int array array;
  b_pi_lo : int array array;
  b_load_hi : int array;
  b_load_lo : int array;
}

let make_batch ~num_pis ~num_ffs ~vectors ~loads =
  let lanes = Array.length vectors in
  if lanes > width then
    invalid_arg
      (Printf.sprintf "Packed.make_batch: %d tests exceed the %d-lane word"
         lanes width);
  if Array.length loads <> lanes then
    invalid_arg "Packed.make_batch: vectors/loads length mismatch";
  let frames =
    Array.fold_left (fun acc v -> max acc (Array.length v)) 0 vectors
  in
  let b_active = Array.make (max 1 frames) 0 in
  let b_last = Array.make (max 1 frames) 0 in
  let b_pi_hi = Array.init frames (fun _ -> Array.make num_pis 0) in
  let b_pi_lo = Array.init frames (fun _ -> Array.make num_pis 0) in
  for j = 0 to lanes - 1 do
    let bit = 1 lsl j in
    let fj = Array.length vectors.(j) in
    for f = 0 to fj - 1 do
      b_active.(f) <- b_active.(f) lor bit;
      let vec = vectors.(j).(f) in
      let hi = b_pi_hi.(f) and lo = b_pi_lo.(f) in
      (* the lane bit lands on one rail by arithmetic, not by a branch
         on a random input bit *)
      for i = 0 to num_pis - 1 do
        let v = Bool.to_int vec.(i) in
        hi.(i) <- hi.(i) lor (v lsl j);
        lo.(i) <- lo.(i) lor ((v lxor 1) lsl j)
      done
    done;
    if fj > 0 then b_last.(fj - 1) <- b_last.(fj - 1) lor bit
  done;
  let b_load_hi = Array.make (max 1 num_ffs) 0 in
  let b_load_lo = Array.make (max 1 num_ffs) 0 in
  Array.iteri
    (fun j ls ->
      List.iter
        (fun (ff, v) ->
          let v = Bool.to_int v in
          b_load_hi.(ff) <- b_load_hi.(ff) lor (v lsl j);
          b_load_lo.(ff) <- b_load_lo.(ff) lor ((v lxor 1) lsl j))
        ls)
    loads;
  { b_lanes = lanes;
    b_mask = mask lanes;
    b_frames = frames;
    b_active;
    b_last;
    b_pi_hi;
    b_pi_lo;
    b_load_hi;
    b_load_lo }
