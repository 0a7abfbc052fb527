(* The repository benchmark.

   Usage: main.exe --workload arm_flow|arm_grade|serve_mix --seed N
                   --seconds S --trace 0|1

   Runs one workload from its seed for about [S] seconds of measured
   work, checks every output, and prints as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Untraced
   runs ([--trace 0]) report the end-to-end metrics; traced runs report
   the per-layer metrics, write a Chrome trace and a layer table under
   perfbench/out/, and include the tracing overhead.  A failed
   correctness gate or determinism guard exits 1 and names the replay
   command.  Metric names and units come from BENCHMARK.json in the
   working directory.  See perfbench/README.md. *)

open Harness

(* Metric names and units, in output order, as BENCHMARK.json lists
   them under [key]. *)
let metric_table key =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let field name m =
    Option.value ~default:"" (Option.bind (Obs.Json.member name m) Obs.Json.to_string_opt)
  in
  match Obs.Json.member key (Obs.Json.of_string text) with
  | Some (Obs.Json.List ms) -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | _ -> failwith ("BENCHMARK.json has no " ^ key ^ " list")

let workloads =
  [ ("arm_flow", Arm_flow.run); ("arm_grade", Arm_grade.run);
    ("serve_mix", Serve_mix.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload arm_flow|arm_grade|serve_mix --seed N \
     --seconds S --trace 0|1";
  exit 2

(* A failed operation fails the run, so a printed result has none. *)
let print_result ~attempted metrics =
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool true);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int 0);
            ("metrics",
             Obs.Json.Obj
               (List.map
                  (fun (name, value, unit) ->
                    ( name,
                      Obs.Json.Obj
                        [ ("value", Obs.Json.Float value);
                          ("unit", Obs.Json.String unit) ] ))
                  metrics)) ]))

(* The traced run's human-readable artefacts: every per-layer metric,
   then the span profile (self/total per span name). *)
let write_layer_table ~file metrics =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, value, unit) ->
      Buffer.add_string b (Printf.sprintf "%-34s %16.6f %s\n" name value unit))
    metrics;
  Buffer.add_string b "\nspan profile (last traced pass):\n";
  Buffer.add_string b (Obs.Span.profile_to_string ());
  let oc = open_out file in
  Buffer.output_buffer oc b;
  close_out oc;
  prerr_string (Buffer.contents b)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let (run, seed, seconds, trace) =
    match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
    | Some run, Some seed, Some seconds, Some trace -> (run, seed, seconds, trace)
    | _ -> usage ()
  in
  let replay =
    Printf.sprintf "replay: python3 perfbench/run.py --workload %s --seed %d \
                    --seconds %g --trace %d"
      !workload seed seconds (Bool.to_int trace)
  in
  let end_to_end = metric_table "end_to_end"
  and per_layer = metric_table "per_layer" in
  let checked () =
    let r = run ~seed ~seconds ~trace in
    ledger_check ~workload:!workload ~seed
      (List.filter_map
         (fun (name, v) ->
           match List.assoc_opt name per_layer with
           | Some "count" -> Some (name, int_of_float v)
           | _ -> None)
         r.values);
    r
  in
  match checked () with
  | exception Gate_failed msg ->
    Printf.eprintf "perfbench: %s\n%s\n%!" msg replay;
    exit 1
  | r ->
    let pick table =
      List.map
        (fun (name, unit) ->
          (name, Option.value (List.assoc_opt name r.values) ~default:0.0, unit))
        table
    in
    let metrics = if trace then pick per_layer else pick end_to_end in
    if trace then begin
      mkdir_p out_dir;
      let base = Printf.sprintf "%s-%d" !workload seed in
      Obs.Span.write_chrome_trace
        (Filename.concat out_dir ("trace-" ^ base ^ ".json"));
      write_layer_table
        ~file:(Filename.concat out_dir ("layers-" ^ base ^ ".txt"))
        metrics
    end;
    print_result ~attempted:r.attempted metrics
