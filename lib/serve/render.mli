(** Canonical result lines shared by the one-shot CLI and the serve
    daemon.

    The one-shot [extract], [atpg] and [grade] print these lines from
    the same {!Ops} typed cores whose rendering is the daemon's
    response, so a served answer and the one-shot output agree by
    construction.  Every line here is a pure function of the result
    data, with wall-clock and CPU times deliberately excluded (the CLI
    appends timing to its output separately). *)

(** "faults N | detected N | untestable N | aborted N | budget-skipped N" *)
val atpg_counts : Atpg.Gen.result -> string

(** "coverage P% | effectiveness P% | N vectors" *)
val atpg_quality : Atpg.Gen.result -> string

(** "extraction: N kept sites across N modules, N stage(s)" *)
val extract_stats : Factor.Compose.stats -> string

(** "transformed module: N MUT gates + N surrounding gates, N PI bits,
    N PO bits" *)
val transform_line : Factor.Transform.t -> string

(** "N tests, N vectors | D / F faults detected | coverage P%" *)
val grade_line :
  tests:Atpg.Pattern.test list -> detected:int -> faults:int -> string

(** "equivalence: equal" / "equivalence: differ on <output>" /
    "equivalence: unknown" *)
val ec_line : Sat.Ec.verdict -> string
