(** The execution engine's time source: the wall clock, for budgets and
    speedups. *)

let now = Unix.gettimeofday
