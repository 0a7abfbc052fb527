(** Three-valued logic over 64 parallel patterns, dual-rail encoded:
    [hi] has a bit set where the value is known 1, [lo] where it is known
    0, neither where it is X.  A bit must never be set in both rails. *)

type t = { hi : int64; lo : int64 }

let x = { hi = 0L; lo = 0L }
let zero = { hi = 0L; lo = -1L }
let one = { hi = -1L; lo = 0L }

let ( &&& ) = Int64.logand
let ( ||| ) = Int64.logor

let v_and a b = { hi = a.hi &&& b.hi; lo = a.lo ||| b.lo }
let v_or a b = { hi = a.hi ||| b.hi; lo = a.lo &&& b.lo }
let v_not a = { hi = a.lo; lo = a.hi }

let v_xor a b =
  { hi = (a.hi &&& b.lo) ||| (a.lo &&& b.hi);
    lo = (a.hi &&& b.hi) ||| (a.lo &&& b.lo) }

(* mux: select 1 chooses [b], select 0 chooses [a]; when the select is X
   the output is known only where both branches agree. *)
let v_mux s a b =
  { hi = (s.hi &&& b.hi) ||| (s.lo &&& a.hi) ||| (a.hi &&& b.hi);
    lo = (s.hi &&& b.lo) ||| (s.lo &&& a.lo) ||| (a.lo &&& b.lo) }

(** Mask of patterns where [a] and [b] are binary and differ. *)
let diff a b = (a.hi &&& b.lo) ||| (a.lo &&& b.hi)

(** Pack bit [i] of each pattern: value from [bits], X where [mask] clear. *)
let of_bits ~value ~known =
  { hi = value &&& known; lo = Int64.lognot value &&& known }

(** Pattern [i]'s value: [Some true], [Some false], or [None] for X. *)
let get a i =
  let bit m = Int64.logand (Int64.shift_right_logical m i) 1L = 1L in
  if bit a.hi then Some true else if bit a.lo then Some false else None

let set a i value =
  let m = Int64.shift_left 1L i in
  let clear x = Int64.logand x (Int64.lognot m) in
  match value with
  | Some true -> { hi = a.hi ||| m; lo = clear a.lo }
  | Some false -> { hi = clear a.hi; lo = a.lo ||| m }
  | None -> { hi = clear a.hi; lo = clear a.lo }

let to_string ?(n = 8) a =
  String.init n (fun i ->
      match get a (n - 1 - i) with
      | Some true -> '1'
      | Some false -> '0'
      | None -> 'x')
