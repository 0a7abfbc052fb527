(** Packed-pattern dual-rail words: up to [Sys.int_size] patterns per
    native int, same rail encoding and truth tables as {!Logic3} (which
    packs fault columns instead).  Native ints keep the whole kernel
    unboxed — no allocation per gate evaluation. *)

let width = Sys.int_size

let mask n = if n >= width then -1 else (1 lsl n) - 1

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
      for i = 0 to num_pis - 1 do
        if vec.(i) then hi.(i) <- hi.(i) lor bit else lo.(i) <- lo.(i) lor bit
      done
    done;
    if fj > 0 then b_last.(fj - 1) <- b_last.(fj - 1) lor bit
  done;
  let b_load_hi = Array.make (max 1 num_ffs) 0 in
  let b_load_lo = Array.make (max 1 num_ffs) 0 in
  Array.iteri
    (fun j ls ->
      let bit = 1 lsl j in
      List.iter
        (fun (ff, v) ->
          if v then b_load_hi.(ff) <- b_load_hi.(ff) lor bit
          else b_load_lo.(ff) <- b_load_lo.(ff) lor bit)
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
