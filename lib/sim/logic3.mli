(** Three-valued logic over 64 parallel patterns, dual-rail encoded:
    [hi] has a bit set where the value is known 1, [lo] where it is known
    0, neither where it is X.  The rails never overlap. *)

type t = { hi : int64; lo : int64 }

(** All 64 patterns unknown. *)
val x : t

val zero : t
val one : t

val v_and : t -> t -> t
val v_or : t -> t -> t
val v_not : t -> t
val v_xor : t -> t -> t

(** [v_mux s a b]: select 1 chooses [b], 0 chooses [a]; an X select
    yields a known value only where both branches agree. *)
val v_mux : t -> t -> t -> t

(** Mask of patterns where both values are binary and differ. *)
val diff : t -> t -> int64

(** [of_bits ~value ~known] builds per-pattern values: bit [i] of [value]
    where bit [i] of [known] is set, X elsewhere. *)
val of_bits : value:int64 -> known:int64 -> t

(** Pattern [i]'s value; [None] is X. *)
val get : t -> int -> bool option

val set : t -> int -> bool option -> t

(** [to_string ?n a] renders the low [n] patterns, most significant
    first, as ['0'], ['1'] and ['x']. *)
val to_string : ?n:int -> t -> string
