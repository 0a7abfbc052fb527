(** Deterministic sharding: work is partitioned into stable contiguous
    chunks and the per-chunk results are merged in chunk order, so a
    parallel run is bit-identical to the serial one whenever the
    per-item work is independent — which is exactly the contract the
    fault-sharded simulator and the MUT-parallel flows rely on.

    Sharding never depends on timing, pool size or scheduling: the same
    [shards] and item count always produce the same partition. *)

(** [ranges ~shards n] splits [0..n-1] into at most [shards] contiguous
    [(start, length)] chunks in ascending order; chunk sizes differ by
    at most one and the partition is a pure function of [(shards, n)].
    Empty when [n = 0]. *)
val ranges : shards:int -> int -> (int * int) array

(** [map_chunks pool ~shards f arr] applies [f] on the pool to each
    contiguous sub-array of [arr] given by [ranges ~shards (Array.length
    arr)] and returns the per-chunk results in chunk order.  A single
    chunk runs inline. *)
val map_chunks : Pool.t -> shards:int -> ('a array -> 'b) -> 'a array -> 'b array
