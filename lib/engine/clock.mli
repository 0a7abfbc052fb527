(** The execution engine's time source.

    Budgets and elapsed-time measurements must use {!now}: [Sys.time]
    is process-wide CPU time, which advances [N] times faster than the
    wall once [N] domains run, so CPU-based budgets mis-fire as soon as
    anything is parallel. *)

(** Wall-clock seconds from an arbitrary origin; non-decreasing for the
    purposes of interval measurement.  Use for every budget and every
    elapsed/speedup measurement. *)
val now : unit -> float
