(* Shared machinery of the benchmark workloads: timing, repetition,
   medians, peak memory, deterministic-counter guards and the report
   every workload returns. *)

exception Gate_failed of string

(* A failed correctness gate or determinism guard. *)
let fail fmt = Printf.ksprintf (fun s -> raise (Gate_failed s)) fmt

let now = Engine.Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [layer name f] times a call into one layer; in a traced pass the call
   is also a span named [name], so the Chrome trace shows the layer. *)
let layer name f = timed (fun () -> Obs.Span.with_ name f)

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolated percentile, [p] in [0, 100]. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

(* Per-name median over a list of samples, each a (name, value) list;
   names keep the order of the first sample. *)
let median_by_name = function
  | [] -> []
  | first :: _ as samples ->
    List.map
      (fun (name, _) ->
        (name, median (List.filter_map (List.assoc_opt name) samples)))
      first

(* ------------------------------------------------------------------ *)
(* Process-level measurements.                                          *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of the process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else scan ()
  in
  scan ()

(* Value of the registry counter behind a metric name: [sat.conflicts]
   reads [factor.sat.conflicts]; names already under [factor.] are
   taken as they are. *)
let counter name =
  let prefixed =
    if String.starts_with ~prefix:"factor." name then name else "factor." ^ name
  in
  Obs.Metrics.value (Obs.Metrics.counter prefixed)

(* Counter deltas across [f ()], by metric name. *)
let with_counters names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> (name, counter name - b)) names before)

(* Span profile of the traced part of a run: (name, total, self)
   seconds per span name. *)
let span_times () =
  List.map (fun (name, _, total, self) -> (name, (total, self)))
    (Obs.Span.profile ())

let span_total prof name =
  match List.assoc_opt name prof with Some (t, _) -> t | None -> 0.0

let span_self prof name =
  match List.assoc_opt name prof with Some (_, s) -> s | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Determinism guard.                                                   *)
(* ------------------------------------------------------------------ *)

(* Every iteration of one run must reproduce the first one's
   deterministic counters exactly. *)
let same_counters ~what = function
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i c ->
        List.iter2
          (fun (name, a) (_, b) ->
            if a <> b then
              fail "%s: counter %s changed between iterations (%d, then %d \
                    in iteration %d)"
                what name a b (i + 2))
          first c)
      rest

let out_dir = Filename.concat "perfbench" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Runs of the same seed on the same build must report the same
   deterministic counters.  The first run of a (workload, seed, build)
   records them under perfbench/out/ledger; later runs compare. *)
let ledger_check ~workload ~seed counters =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat out_dir "ledger" in
  mkdir_p dir;
  let file =
    Filename.concat dir (Printf.sprintf "%s-%d-%s.txt" workload seed build)
  in
  let render =
    String.concat "" (List.map (fun (n, v) -> Printf.sprintf "%s %d\n" n v) counters)
  in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let recorded = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if recorded <> render then
      fail "deterministic counters differ from an earlier run of this seed \
            (recorded in %s):\n%s--- now ---\n%s"
        file recorded render
  end
  else begin
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc render;
    close_out oc;
    Sys.rename tmp file
  end

(* ------------------------------------------------------------------ *)
(* Iterations and reports.                                             *)
(* ------------------------------------------------------------------ *)

(* One pass of a workload's measured phase. *)
type iteration = {
  it_wall : float;                   (* wall seconds of the measured phase *)
  it_values : (string * float) list; (* metrics of this pass, by name *)
  it_counters : (string * int) list; (* deterministic work counters *)
  it_attempted : int;                (* operations attempted; a failed
                                        one fails the whole run *)
}

(* [iterations ~seconds ~trace iter] repeats [iter ~traced] for
   [seconds] of wall time, heap compaction included, and returns the
   untraced passes, the traced ones, and the peak RSS after set-up and
   the first pass (later passes would let it creep with their number).
   Untraced passes give the end-to-end numbers; with [trace], traced
   passes (spans on, buffer cleared first) alternate with untraced ones,
   at least one of each, and the spans of the last traced pass are left
   in the buffer for the Chrome trace. *)
let iterations ~seconds ~trace iter =
  let t0 = now () in
  let peak = ref 0.0 in
  let rec go i untraced traced =
    if i = 1 then peak := peak_rss_mb ();
    if i >= (if trace then 2 else 1) && now () -. t0 >= seconds then
      (List.rev untraced, List.rev traced, !peak)
    else begin
      (* every pass starts from a compacted heap, so garbage left by the
         previous one does not move its time *)
      Gc.compact ();
      pass i untraced traced
    end
  and pass i untraced traced =
    if trace && i mod 2 = 1 then begin
      Obs.Span.clear ();
      Obs.Span.set_enabled true;
      let it =
        Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false)
          (fun () -> iter ~traced:true)
      in
      go (i + 1) untraced (it :: traced)
    end
    else go (i + 1) (iter ~traced:false :: untraced) traced
  in
  go 0 [] []

type report = {
  attempted : int;
  values : (string * float) list;  (* every metric the run measured *)
}

(* Fold the passes of a run into a report: the peak RSS, per-name
   medians over the untraced passes, then the names only traced
   passes measure (span self times), the counters, and — in traced
   runs — the tracing overhead.  Fails when the counters moved between
   passes. *)
let report ~what ~extra (untraced, traced, peak) =
  let all = untraced @ traced in
  same_counters ~what (List.map (fun it -> it.it_counters) all);
  let medians its =
    median_by_name
      (List.map (fun it -> ("wall_s", it.it_wall) :: it.it_values) its)
  in
  let plain = medians untraced in
  let traced_only =
    List.filter (fun (n, _) -> not (List.mem_assoc n plain)) (medians traced)
  in
  let counters =
    match all with
    | it :: _ -> List.map (fun (n, v) -> (n, float_of_int v)) it.it_counters
    | [] -> []
  in
  let overhead =
    match traced with
    | [] -> []
    | _ ->
      let wall its = median (List.map (fun it -> it.it_wall) its) in
      [ ("trace.overhead_s", wall traced -. wall untraced) ]
  in
  { attempted = List.fold_left (fun acc it -> acc + it.it_attempted) 0 all;
    values =
      (("peak_rss_mb", peak) :: plain) @ traced_only @ counters
      @ overhead @ extra }
