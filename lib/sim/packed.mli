(** Bit-parallel packed-pattern words (PPSFP): one word carries the same
    signal across up to {!width} {e patterns}, dual-rail encoded exactly
    like {!Logic3} — a [hi] rail has a bit set in the lanes where the
    value is known 1, a [lo] rail where it is known 0, neither where it
    is X.  A lane bit must never be set in both rails.  The fault
    simulator's packed kernels ([Atpg.Fsim]) evaluate gates on these
    rails.

    Where {!Logic3} spreads one pattern across 64 {e fault columns}, this
    module spreads up to {!width} {e patterns} across the lanes of a
    native [int], so AND/OR/XOR/NOT/MUX evaluate a whole word of patterns
    in a handful of unboxed machine ops (native ints never allocate,
    unlike [int64]).  The truth tables coincide with {!Logic3} lane for
    lane:

    {v
       AND: hi = a.hi & b.hi        lo = a.lo | b.lo
       OR : hi = a.hi | b.hi        lo = a.lo & b.lo
       NOT: hi = a.lo               lo = a.hi
       XOR: hi = a.hi&b.lo | a.lo&b.hi
            lo = a.hi&b.hi | a.lo&b.lo
       MUX: hi = s.hi&b.hi | s.lo&a.hi | a.hi&b.hi   (s=1 picks b)
            lo = s.hi&b.lo | s.lo&a.lo | a.lo&b.lo
    v} *)

(** Patterns per word: [Sys.int_size], i.e. 63 on 64-bit platforms. *)
val width : int


(** {1 Pattern-to-plane transpose}

    A {!batch} is the transpose of up to {!width} test-pattern rows into
    per-frame bit planes: lane [j] of every plane belongs to test [j].
    Tests may have different frame counts; beyond a test's last frame its
    lane applies X inputs and must not be observed — [b_active] masks the
    lanes still inside their own sequence, [b_last] the lanes for which a
    frame is the final one (where end-of-test state observation
    happens). *)

type batch = {
  b_lanes : int;             (** number of tests packed, <= {!width} *)
  b_mask : int;              (** [mask b_lanes] *)
  b_frames : int;            (** max frame count across the lanes *)
  b_active : int array;      (** per frame: lanes with [frame < frames_j] *)
  b_last : int array;        (** per frame: lanes whose last frame it is *)
  b_pi_hi : int array array; (** per frame, per PI: lanes applying a 1 *)
  b_pi_lo : int array array; (** per frame, per PI: lanes applying a 0 *)
  b_load_hi : int array;     (** per FF: lanes loading a 1 *)
  b_load_lo : int array;     (** per FF: lanes loading a 0 *)
}

(** [make_batch ~num_pis ~num_ffs ~vectors ~loads] transposes test rows
    into bit planes; [vectors.(j)] are test [j]'s per-frame primary-input
    vectors and [loads.(j)] its initial register loads (FFs not loaded
    start at X in that lane).
    @raise Invalid_argument if more than {!width} tests are given. *)
val make_batch :
  num_pis:int -> num_ffs:int ->
  vectors:bool array array array ->
  loads:(int * bool) list array ->
  batch
