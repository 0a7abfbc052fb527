(** Content-addressed on-disk store for the serve daemon.

    One flat directory of files, one entry per key.  Writes go to a
    temporary file in the same directory and [rename] into place, so a
    reader never observes a torn entry and a crashed writer leaves at
    worst an orphan temp file.  Marshalled values carry a magic string,
    the compiler version and an MD5 digest of the key and the marshalled
    body; {!get_value} checks all three before [Marshal] sees a byte and
    treats any mismatch — or any read/unmarshal failure at all — as a
    cache miss, never an error.  So a store written by an older build
    (or by the previous layout, [FACTOR-STORE-1]) degrades to cold
    starts, and a truncated or bit-flipped file, or one copied under
    another key, reads as a miss instead of poisoning the daemon. *)

type t

(** [open_ dir] creates [dir] (and parents) if needed.
    @raise Sys_error when the path exists but is not a directory, or
    cannot be created. *)
val open_ : string -> t

(** [put t ~key s] atomically stores raw bytes.  [key] must be made of
    [A-Za-z0-9._-] only.
    @raise Invalid_argument on an unsafe key. *)
val put : t -> key:string -> string -> unit

(** Raw bytes for [key]; [None] when absent or unreadable. *)
val get : t -> key:string -> string option

(** [put_value t ~key v] stores [Marshal.to_string v] under a versioned
    header that ends in the digest of [key] and the body.  [v] must be
    pure data (no closures, no custom blocks). *)
val put_value : t -> key:string -> 'a -> unit

(** [get_value t ~key] returns the stored value, or [None] when the key
    is absent, the header does not match this build, the digest does
    not match the key and body, or unmarshalling fails.  The caller must request the same type that was stored —
    the store cannot check it (standard [Marshal] caveat); confine each
    key namespace to a single type. *)
val get_value : t -> key:string -> 'a option

(** Remove an entry if present. *)
val remove : t -> key:string -> unit

(** [(entries, bytes)] currently on disk — regular files only,
    in-flight temp files excluded — from a scan of the directory.

    The same totals are published as the [factor.serve.store_entries] /
    [factor.serve.store_bytes] gauges, so the otherwise grow-only store
    is visible on the [metrics] op.  The gauges are not rescanned: one
    scan at {!open_} sets them, and every {!put} and {!remove} adjusts
    them by the old and new size of its key, under a lock that also
    covers the rename or unlink, so concurrent writers (even of one key)
    keep them exact.  They therefore match {!stats} as long as this
    handle is the only writer of the directory, as in the daemon.
    Every {!put} also counts in [factor.serve.store_writes]; with
    tracing on, {!put} and {!get} record [store.put] / [store.get]
    spans. *)
val stats : t -> int * int
