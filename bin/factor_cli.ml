(** The FACTOR command-line tool: parse a Verilog design, extract the
    functional constraints around a module under test, write them out as
    synthesizable Verilog, synthesize the transformed module, run the
    ATPG engine, and report testability findings.

    Subcommands mirror the tool flow of the paper:
    - [parse]    check a design and show its hierarchy
    - [synth]    synthesize a design to gates and print statistics
    - [extract]  FACTOR-ise a design around one module under test
    - [atpg]     generate tests for a design (or a module inside it)
    - [analyze]  testability report (empty chains, hard-coded inputs)
    - [grade]    fault-simulate a vector file against a design
    - [demo]     run the whole flow on the bundled ARM benchmark
    - [fuzz]     differential fuzzing on generated designs
    - [serve]    the persistent daemon
    - [client]   send requests to a running daemon

    [extract], [atpg] and [grade] are in-process clients of the daemon's
    ops ({!Serve.Ops}): they build the request parameters [client]
    sends, run the op's typed core on a store-less context, and print
    its {!Serve.Render} lines. *)

open Cmdliner
module J = Obs.Json

(* Classify every user-provokable failure through the taxonomy and exit
   with its stage's code (parse 2, elaborate 3, extract 4, solve 5,
   io 6; a malformed request, such as an unknown bundled design, 1).
   Anything unclassified is an internal bug: let it escape with its
   backtrace. *)
let handle_errors f =
  try f () with
  | Serve.Proto.Proto_error msg ->
    Printf.eprintf "factor: proto error: %s\n" msg;
    exit 1
  | e ->
    (match Factor.Errors.of_exn e with
     | Some t ->
       prerr_endline (Factor.Errors.to_string t);
       exit (Factor.Errors.exit_code t)
     | None -> raise e)

(* ----------------------- observability flags ---------------------- *)

(* Shared by every subcommand: tracing, profiling, metrics and
   verbosity.  The term evaluates before the subcommand body runs, so
   the enables are in place for the whole command; artifacts are
   written from a single [at_exit] hook. *)
let obs_setup trace profile metrics log_file quiet verbose =
  if quiet then Obs.Log.set_verbosity Obs.Log.Quiet
  else if verbose then Obs.Log.set_verbosity Obs.Log.Verbose;
  (* -v implies structured info logging unless FACTOR_LOG already set *)
  if verbose && Obs.Log.level () = None then
    Obs.Log.set_level (Some Obs.Log.Info);
  (match log_file with
   | Some f ->
     Obs.Log.set_file (Some f);
     if Obs.Log.level () = None then Obs.Log.set_level (Some Obs.Log.Info)
   | None -> ());
  if trace <> None || profile then Obs.Span.set_enabled true;
  (* an unwritable artifact path must not raise inside at_exit — warn
     and keep going so the remaining artifacts and Log.close still run *)
  let write_artifact what f =
    try f () with Sys_error msg -> Obs.Log.warnf "cannot write %s: %s" what msg
  in
  at_exit (fun () ->
      (match Engine.Pool.global_stats () with
       | Some _ -> Engine.Pool.publish_metrics (Engine.Pool.global ())
       | None -> ());
      (match trace with
       | Some f ->
         write_artifact "trace" (fun () ->
             Obs.Span.write_chrome_trace f;
             Obs.Log.progressf "trace written to %s" f)
       | None -> ());
      (match metrics with
       | Some f ->
         write_artifact "metrics" (fun () ->
             let oc = open_out f in
             output_string oc (Obs.Metrics.dump_string ());
             output_char oc '\n';
             close_out oc;
             Obs.Log.progressf "metrics written to %s" f)
       | None -> ());
      if profile then begin
        print_string (Obs.Span.profile_to_string ());
        match Engine.Pool.global_stats () with
        | Some s -> print_string (Engine.Pool.stats_to_string s)
        | None -> ()
      end;
      Obs.Log.close ())

let obs_term =
  let trace =
    let doc = "Write a Chrome trace-event JSON of the run to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let profile =
    let doc = "Print a per-phase profile (count, total, self time) on exit." in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let metrics =
    let doc = "Write the metrics registry as JSON to $(docv) on exit." in
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let log_file =
    let doc =
      "Append structured JSONL log events to $(docv) (implies log level \
       'info' unless $(b,FACTOR_LOG) says otherwise)."
    in
    Arg.(value & opt (some string) None
         & info [ "log-file" ] ~docv:"FILE" ~doc)
  in
  let quiet =
    let doc = "Suppress console progress output." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let verbose =
    let doc = "Verbose console output (implies log level 'info')." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  Term.(const obs_setup $ trace $ profile $ metrics $ log_file $ quiet
        $ verbose)

(* --progress: a live status line on stderr, redrawn in place.  The
   reporter's shared rate limit bounds the redraw frequency; a newline
   is emitted once at exit so the shell prompt is not glued to it. *)
let progress_line u =
  let open Obs.Progress in
  if u.up_total > 0 then
    Printf.sprintf "%s %d/%d (%.0f/s%s)" u.up_phase u.up_done u.up_total
      u.up_rate
      (if u.up_eta_s >= 0.0 then Printf.sprintf ", eta %.0fs" u.up_eta_s
       else "")
  else Printf.sprintf "%s %d (%.0f/s)" u.up_phase u.up_done u.up_rate

let install_console_progress () =
  let drew = ref false in
  Obs.Progress.set_global_sink
    (Some
       (fun u ->
         drew := true;
         Printf.eprintf "\r%s\x1b[K%!" (progress_line u)));
  at_exit (fun () -> if !drew then prerr_newline ())

let progress_arg =
  let doc =
    "Render live progress (phase, counts, rate, ETA) on stderr while \
     the run is underway."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* ---------------------------- arguments --------------------------- *)

let design_arg =
  let doc = "Verilog source file ('@arm' or a corpus name like '@gcd' selects a bundled design)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let top_arg =
  let doc = "Top module (default: the bundled benchmark's top or the last module)." in
  Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE" ~doc)

let mut_info =
  let doc =
    "Instance path of the module under test, e.g. u_dpath.u_alu; test \
     generation and grading restrict their faults to it."
  in
  Arg.info [ "mut" ] ~docv:"PATH" ~doc

let mut_arg = Arg.(required & opt (some string) None & mut_info)
let mut_opt = Arg.(value & opt (some string) None & mut_info)

let mode_arg =
  let doc = "Extraction mode: 'compositional' (default) or 'conventional'." in
  Arg.(value
       & opt (enum Factor.Flow.modes) Factor.Flow.Compositional
       & info [ "mode" ] ~doc)

let output_arg =
  let doc =
    "Write the result to $(docv): the extracted constraints as Verilog, \
     or the generated test vectors."
  in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let vec_arg =
  let doc = "Vector file produced by 'atpg -o' (or by hand)." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"VECTORS" ~doc)

let gen_budget_arg =
  let doc =
    "Total test-generation budget in seconds (default 60); on expiry the \
     run returns promptly with partial results (remaining faults are \
     counted as budget-skipped, not aborted)."
  in
  Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc)

(* below one frame nothing is searched, so nothing could be detected or
   proven: a usage error, not a run *)
let frames_arg =
  let doc = "Deepest time-frame expansion, at least 1." in
  let at_least_one =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (Printf.sprintf "%S is not an integer of at least 1" s)),
        Format.pp_print_int )
  in
  Arg.(value & opt at_least_one 4 & info [ "frames" ] ~docv:"N" ~doc)

let piers_arg =
  let doc =
    "Treat load/store-reachable registers as PIER pseudo ports: test \
     generation loads and observes them, grading observes them."
  in
  Arg.(value & flag & info [ "piers" ] ~doc)

let engine_arg =
  let doc =
    "Deterministic-phase engine: 'podem', 'sat', or 'hybrid' (PODEM \
     with SAT rescue of aborted faults; the default)."
  in
  Arg.(value & opt (enum Atpg.Gen.engines) Atpg.Gen.Hybrid
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* -j / --jobs: worker domains for the parallel engine.  The default
   honours FACTOR_JOBS, then the machine's recommended domain count. *)
let jobs_arg =
  let doc =
    "Worker domains for fault simulation and test generation (default: \
     \\$(b,FACTOR_JOBS) or the machine's domain count; 1 disables \
     parallelism)."
  in
  Arg.(value & opt int (Engine.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* resize the shared pool once per invocation; returns the job count *)
let apply_jobs j =
  let j = max 1 j in
  Engine.Pool.set_jobs j;
  j

(* ------------------------ request parameters ------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every -o file, one-shot and client alike: an unwritable path is an
   io error (exit 6). *)
let write_output ~what file contents =
  Out_channel.with_open_text file (fun oc -> output_string oc contents);
  Obs.Log.progressf "%s written to %s" what file

let opt_param name f = function Some v -> [ (name, f v) ] | None -> []
let flag_param name b = if b then [ (name, J.Bool true) ] else []
let str s = J.String s
let num f = J.Float f

(* The design argument as request parameters: '@name' designs travel by
   name (the daemon holds the same bundled sources, so the content hash
   matches); files are shipped as text. *)
let design_params path top =
  (if String.length path > 1 && path.[0] = '@' then [ ("design", str path) ]
   else [ ("source", str (read_file path)) ])
  @ opt_param "top" str top

(* parse, synth and analyze resolve the design as a request would,
   then run their own pipelines on it *)
let load_design path top =
  let (source, top) = Serve.Ops.design_source (J.Obj (design_params path top)) in
  let design = Serve.Cache.parse_design ~file:path source in
  (design, Serve.Cache.resolve_top ~file:path design top)

(* One function per op turns its flags into request parameters; the
   one-shot command, [client <op>] and [client watch] all use it. *)
let extract_params design ~mut ~mode ~emit_verilog =
  design
  @ [ ("mut", str mut); ("mode", str (Factor.Flow.mode_name mode)) ]
  @ flag_param "emit_verilog" emit_verilog

let atpg_params ?mut ?budget ?fault_budget ?frames ?engine ?seed
    ?(piers = false) design =
  design
  @ opt_param "mut" str mut
  @ opt_param "budget" num budget
  @ opt_param "fault_budget" num fault_budget
  @ opt_param "frames" (fun i -> J.Int i) frames
  @ opt_param "engine" (fun e -> str (Atpg.Gen.engine_name e)) engine
  @ opt_param "seed" (fun i -> J.Int i) seed
  @ flag_param "piers" piers

let grade_params ?mut ?(piers = false) design ~vec_file =
  design
  @ [ ("vectors", str (read_file vec_file)) ]
  @ opt_param "mut" str mut
  @ flag_param "piers" piers

(* ----------------------------- parse ------------------------------ *)

let parse_cmd =
  let run () path top =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.parse" @@ fun () ->
        let (design, top) = load_design path top in
        let env = Factor.Compose.make_env design ~top in
        let tree = env.Factor.Compose.tree in
        Printf.printf "design ok: %d modules, hierarchy depth %d\n"
          (List.length design.Verilog.Ast.modules)
          (Design.Hierarchy.max_depth tree);
        let rec show node =
          let pad = String.make (2 * node.Design.Hierarchy.nd_depth) ' ' in
          let name =
            match List.rev node.Design.Hierarchy.nd_path with
            | [] -> "(top)"
            | inst :: _ -> inst
          in
          Printf.printf "%s%s : %s\n" pad name node.Design.Hierarchy.nd_module;
          List.iter show node.Design.Hierarchy.nd_children
        in
        show tree;
        List.iter
          (fun f -> Obs.Log.notef "lint: %s" (Design.Lint.to_string f))
          (Design.Lint.check env.Factor.Compose.ed))
  in
  let doc = "Parse and elaborate a design; print the instance hierarchy." in
  Cmd.v (Cmd.info "parse" ~doc)
    Term.(const run $ obs_term $ design_arg $ top_arg)

(* ----------------------------- synth ------------------------------ *)

let synth_cmd =
  let run () path top =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.synth" @@ fun () ->
        let (design, top) = load_design path top in
        let ed = Design.Elaborate.elaborate design ~top in
        let r = Synth.Lower.synthesize ed top in
        List.iter (fun w -> Obs.Log.warnf "%s" w) r.Synth.Lower.warnings;
        let st = Netlist.stats r.Synth.Lower.circuit in
        Printf.printf
          "synthesized %s: %d PIs, %d POs, %d flip-flops, %d gate equivalents\n"
          top st.Netlist.st_pis st.Netlist.st_pos st.Netlist.st_ffs
          (Netlist.gate_equivalents st))
  in
  let doc = "Synthesize a design to gates and print statistics." in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(const run $ obs_term $ design_arg $ top_arg)

(* ---------------------------- extract ----------------------------- *)

let extract_cmd =
  let run () path top mut mode output =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.extract" @@ fun () ->
        let params =
          extract_params (design_params path top) ~mut ~mode
            ~emit_verilog:(output <> None)
        in
        let (x, _) =
          Serve.Ops.extract ~design_file:path (Serve.Ops.make_ctx ())
            (J.Obj params)
        in
        let stats = x.Serve.Ops.x_stats in
        Printf.printf "%s, %.4f s\n"
          (Serve.Render.extract_stats stats)
          stats.Factor.Compose.cs_extraction_time;
        List.iter
          (fun d ->
            Obs.Log.warnf "%s" (Factor.Extract.dead_end_to_string d))
          stats.Factor.Compose.cs_dead_ends;
        let tf = x.Serve.Ops.x_transform in
        print_endline (Serve.Render.transform_line tf);
        Option.iter
          (fun file ->
            write_output ~what:"constraints" file
              (Verilog.Pp.design_to_string tf.Factor.Transform.tf_design))
          output)
  in
  let doc = "Extract the functional constraints around a module under test." in
  Cmd.v (Cmd.info "extract" ~doc)
    Term.(const run $ obs_term $ design_arg $ top_arg $ mut_arg $ mode_arg
          $ output_arg)

(* ------------------------------ atpg ------------------------------ *)

let atpg_cmd =
  let fault_budget =
    let doc = "Wall-clock budget in seconds for each individual fault." in
    Arg.(value & opt (some float) None
         & info [ "fault-budget" ] ~docv:"SECONDS" ~doc)
  in
  let run () path top mut budget fault_budget frames piers engine jobs
      output progress =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.atpg" @@ fun () ->
        if progress then install_console_progress ();
        let jobs = apply_jobs jobs in
        let params =
          atpg_params ?mut ?budget ?fault_budget ~frames ~engine ~piers
            (design_params path top)
        in
        let (a, _) =
          Serve.Ops.atpg ~jobs ~design_file:path (Serve.Ops.make_ctx ())
            (J.Obj params)
        in
        let r = a.Serve.Ops.a_result in
        (* the deterministic lines are the served ones; timing is
           appended here, outside the canonical part *)
        print_endline (Serve.Render.atpg_counts r);
        Printf.printf "%s | %.2f s wall (%.2f s cpu, %d jobs)\n"
          (Serve.Render.atpg_quality r)
          r.Atpg.Gen.r_wall r.Atpg.Gen.r_time jobs;
        if engine <> Atpg.Gen.Podem_only then
          Printf.printf
            "sat engine: %d detected, %d proven untestable, %.2f s | %s\n"
            r.Atpg.Gen.r_sat_detected r.Atpg.Gen.r_sat_untestable
            r.Atpg.Gen.r_sat_time
            (Sat.Solver.stats_to_string r.Atpg.Gen.r_sat_stats);
        Option.iter
          (fun file ->
            write_output ~what:"vectors" file
              (Atpg.Pattern.write_string
                 ~pi_names:a.Serve.Ops.a_circuit.Netlist.pi_names
                 r.Atpg.Gen.r_tests))
          output)
  in
  let doc = "Run sequential test generation on a design." in
  Cmd.v (Cmd.info "atpg" ~doc)
    Term.(const run $ obs_term $ design_arg $ top_arg $ mut_opt
          $ gen_budget_arg $ fault_budget $ frames_arg $ piers_arg
          $ engine_arg $ jobs_arg $ output_arg $ progress_arg)

(* ----------------------------- analyze ---------------------------- *)

let analyze_cmd =
  let run () path top mut =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.analyze" @@ fun () ->
        let (design, top) = load_design path top in
        let env = Factor.Compose.make_env design ~top in
        ignore (Factor.Compose.mut_node env mut);
        let stats =
          Factor.Compose.compositional (Factor.Compose.create_session ()) env
            ~mut_path:mut
        in
        let report =
          Factor.Testability.analyze env ~mut_path:mut
            ~dead_ends:stats.Factor.Compose.cs_dead_ends
        in
        print_string (Factor.Testability.report_to_string report);
        (* SCOAP testability measures of the module inside the chip *)
        let c = Factor.Flow.full_circuit env in
        let scoap = Atpg.Scoap.compute c in
        let summary = Atpg.Scoap.summarize ~within:mut c scoap in
        Printf.printf
          "SCOAP summary for %s: %d fault sites, %d uncontrollable, %d unobservable, max finite cost %d\n"
          mut summary.Atpg.Scoap.su_nets summary.Atpg.Scoap.su_uncontrollable
          summary.Atpg.Scoap.su_unobservable
          summary.Atpg.Scoap.su_max_finite_cost;
        let faults = Atpg.Fault.collapse c (Atpg.Fault.all ~within:mut c) in
        List.iter
          (fun (f, cost) ->
            Printf.printf "  hard fault %-40s cost %s\n"
              (Atpg.Fault.to_string c f)
              (if cost >= Atpg.Scoap.infinite then "unreachable"
               else string_of_int cost))
          (Atpg.Scoap.rank_faults scoap faults ~n:5))
  in
  let doc = "Report testability problems around a module under test." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ obs_term $ design_arg $ top_arg $ mut_arg)

(* ----------------------------- grade ------------------------------ *)

let grade_cmd =
  let run () path vec_file top mut piers jobs progress =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.grade" @@ fun () ->
        if progress then install_console_progress ();
        let jobs = apply_jobs jobs in
        let params = grade_params ?mut ~piers (design_params path top) ~vec_file in
        let (g, _) =
          Serve.Ops.grade ~jobs ~design_file:path ~vectors_file:vec_file
            (Serve.Ops.make_ctx ()) (J.Obj params)
        in
        print_endline
          (Serve.Render.grade_line ~tests:g.Serve.Ops.gd_tests
             ~detected:g.Serve.Ops.gd_detected ~faults:g.Serve.Ops.gd_faults))
  in
  let doc = "Fault-simulate a vector file against a design (grade tests)." in
  Cmd.v (Cmd.info "grade" ~doc)
    Term.(const run $ obs_term $ design_arg $ vec_arg $ top_arg $ mut_opt
          $ piers_arg $ jobs_arg $ progress_arg)

(* ------------------------------ demo ------------------------------ *)

let demo_cmd =
  let budget_opt =
    let doc =
      "Wall-clock budget in seconds for the whole generation phase; \
       MUTs that exceed it are reported degraded or skipped."
    in
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS" ~doc)
  in
  let run () jobs budget =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.demo" @@ fun () ->
        let jobs = apply_jobs jobs in
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let session = Factor.Compose.create_session () in
        (* extraction is sequential (it fills the shared constraint
           cache level by level); the per-MUT generations then fan out *)
        let rows =
          List.map
            (fun spec ->
              Obs.Log.verbosef "demo: extracting %s" spec.Factor.Flow.ms_name;
              Factor.Flow.transform env session Factor.Flow.Compositional spec
                ~surrounding_before:0)
            Arm.Rtl.muts
        in
        let run_budget =
          match budget with
          | None -> Engine.Budget.none
          | Some s -> Engine.Budget.make ~deadline_in:s ()
        in
        let outcomes =
          Factor.Flow.transformed_atpg_all ~jobs ~budget:run_budget rows
            { Atpg.Gen.default_config with g_total_budget = 60.0 }
        in
        (* MUTs are isolated: a crashed or budget-starved row prints its
           status but never fails the demo (exit stays 0). *)
        List.iter2
          (fun row (o : Factor.Flow.mut_outcome) ->
            match (o.Factor.Flow.mo_row, o.Factor.Flow.mo_status) with
            | Some a, status ->
              let tf = row.Factor.Flow.tr_transformed in
              Printf.printf
                "%-15s surrounding %5d gates | coverage %6.2f%% | %6.2f s%s\n%!"
                row.Factor.Flow.tr_name tf.Factor.Transform.tf_surrounding_gates
                a.Factor.Flow.ar_coverage
                a.Factor.Flow.ar_result.Atpg.Gen.r_time
                (match status with
                 | Factor.Flow.Mut_degraded why -> " [degraded: " ^ why ^ "]"
                 | _ -> "")
            | None, Factor.Flow.Mut_failed why ->
              Printf.printf "%-15s [failed: %s]\n%!"
                row.Factor.Flow.tr_name why
            | None, Factor.Flow.Mut_skipped why ->
              Printf.printf "%-15s [skipped: %s]\n%!"
                row.Factor.Flow.tr_name why
            | None, (Factor.Flow.Mut_ok | Factor.Flow.Mut_degraded _) ->
              Printf.printf "%-15s [no result]\n%!" row.Factor.Flow.tr_name)
          rows outcomes)
  in
  let doc = "FACTOR-ise the bundled ARM benchmark end to end." in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(const run $ obs_term $ jobs_arg $ budget_opt)

(* ------------------------------ fuzz ------------------------------ *)

let fuzz_cmd =
  let seeds_arg =
    let doc = "Number of seeds in the campaign." in
    Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let base_arg =
    let doc = "First seed; the campaign covers N .. N+seeds-1." in
    Arg.(value & opt int 0 & info [ "seed-base" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc = "Write shrunk reproducers (with replay headers) into $(docv)." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let max_faults_arg =
    let doc = "Collapsed-fault cap per seed for the PODEM-vs-SAT check." in
    Arg.(value & opt int 24 & info [ "max-faults" ] ~docv:"N" ~doc)
  in
  let fsim_tests_arg =
    let doc = "Random tests per seed for the fsim engine cross-check." in
    Arg.(value & opt int 16 & info [ "fsim-tests" ] ~docv:"N" ~doc)
  in
  let seed_budget_arg =
    let doc =
      "Wall-clock budget in seconds per seed; a seed that exceeds it is \
       reported as a crash with its replay line, and never as a \
       disagreement.  Seeds run concurrently, so keep this well above \
       the expected per-seed time or canonicity suffers under \
       contention."
    in
    Arg.(value & opt float 300.0 & info [ "seed-budget" ] ~docv:"SECONDS" ~doc)
  in
  let checks_arg =
    let doc =
      "Comma-separated subset of checks to run (roundtrip, opt_ec, \
       mutate_ec, podem_sat, fsim_engines, extract_modes, jobs; default \
       all)."
    in
    Arg.(value & opt (some string) None & info [ "checks" ] ~docv:"LIST" ~doc)
  in
  let out_arg =
    let doc = "Write the campaign summary JSON to $(docv)." in
    Arg.(value & opt string "fuzz-report.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let parse_checks = function
    | None -> Gen_rtl.Diff.all_checks
    | Some spec ->
      String.split_on_char ',' spec
      |> List.filter (fun s -> s <> "")
      |> List.map (fun name ->
             match
               List.find_opt
                 (fun c -> Gen_rtl.Diff.check_name c = name)
                 Gen_rtl.Diff.all_checks
             with
             | Some c -> c
             | None ->
               Printf.eprintf "unknown check %S (have: %s)\n" name
                 (String.concat ", "
                    (List.map Gen_rtl.Diff.check_name Gen_rtl.Diff.all_checks));
               exit 1)
  in
  let run () seeds base corpus max_faults fsim_tests seed_budget checks jobs
      out progress =
    handle_errors (fun () ->
        Obs.Span.with_ "cli.fuzz" @@ fun () ->
        if progress then install_console_progress ();
        let jobs = apply_jobs jobs in
        let cfg =
          { Gen_rtl.Diff.dc_checks = parse_checks checks;
            dc_max_faults = max_faults;
            dc_fsim_tests = fsim_tests;
            dc_seed_budget = seed_budget;
            dc_jobs = max 2 jobs }
        in
        let report = Gen_rtl.Diff.campaign ?corpus cfg ~base ~count:seeds in
        (* the canonical part — identical for identical seed ranges *)
        print_string (Gen_rtl.Diff.render report);
        let nf = List.length report.Gen_rtl.Diff.rp_failures in
        let nc = List.length report.Gen_rtl.Diff.rp_crashes in
        Printf.printf "%.2f s wall (%d jobs)\n" report.Gen_rtl.Diff.rp_wall
          jobs;
        let summary =
          Obs.Json.(
            Obj
              [ ("seed_base", Int base);
                ("seeds", Int seeds);
                ("checks",
                 List
                   (List.map
                      (fun c -> String (Gen_rtl.Diff.check_name c))
                      report.Gen_rtl.Diff.rp_checks));
                ("failures", Int nf);
                ("crashes", Int nc);
                ("wall_s", Float report.Gen_rtl.Diff.rp_wall);
                ("jobs", Int jobs);
                ("metrics", Obs.Metrics.dump ()) ])
        in
        let oc = open_out out in
        output_string oc (Obs.Json.to_string summary);
        output_char oc '\n';
        close_out oc;
        Obs.Log.progressf "wrote %s" out;
        if nf > 0 || nc > 0 then exit 1)
  in
  let doc =
    "Differential fuzzing: generate random hierarchical designs and \
     cross-check the optimizer, the ATPG engines, the fault simulators, \
     the SAT engine and both extraction flows against each other; \
     failures are shrunk to minimal reproducers."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ obs_term $ seeds_arg $ base_arg $ corpus_arg
          $ max_faults_arg $ fsim_tests_arg $ seed_budget_arg $ checks_arg
          $ jobs_arg $ out_arg $ progress_arg)

(* ------------------------------ serve ----------------------------- *)

(* --socket PATH (the default transport) or --tcp HOST:PORT select the
   daemon address; --tcp wins when both are given *)
let addr_of ~socket ~tcp =
  match tcp with
  | None -> Serve.Server.Unix_path socket
  | Some spec ->
    (match String.rindex_opt spec ':' with
     | None ->
       Printf.eprintf "bad --tcp %S (expected HOST:PORT)\n" spec;
       exit 1
     | Some i ->
       let host = String.sub spec 0 i in
       let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
       (match int_of_string_opt port_s with
        | Some port -> Serve.Server.Tcp (host, port)
        | None ->
          Printf.eprintf "bad --tcp port %S\n" port_s;
          exit 1))

let addr_to_string = function
  | Serve.Server.Unix_path p -> p
  | Serve.Server.Tcp (h, p) ->
    Printf.sprintf "%s:%d" (if h = "" then "127.0.0.1" else h) p

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(value & opt string "factor.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "TCP address of the daemon (overrides $(b,--socket))." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let store_arg =
    let doc =
      "Directory for the content-addressed on-disk cache; elaborated \
       designs and constraint extractions persist there across daemon \
       restarts."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let budget_arg =
    let doc =
      "Default wall-clock budget in seconds applied to every request \
       that does not carry its own $(b,budget_s) parameter."
    in
    Arg.(value & opt (some float) None
         & info [ "request-budget" ] ~docv:"SECONDS" ~doc)
  in
  let max_resident_arg =
    let doc =
      "Bound the number of designs held resident in memory; past the \
       bound the least-recently-used entry is evicted (and served from \
       the on-disk store, when $(b,--store) is given, on its next \
       request)."
    in
    Arg.(value & opt (some int) None
         & info [ "max-resident" ] ~docv:"N" ~doc)
  in
  let run () socket tcp store max_resident budget jobs =
    handle_errors (fun () ->
        let jobs = apply_jobs jobs in
        let addr = addr_of ~socket ~tcp in
        Obs.Log.progressf "listening on %s (%d jobs)" (addr_to_string addr) jobs;
        Serve.Server.run
          { Serve.Server.sc_addr = addr;
            sc_store = store;
            sc_max_resident = max_resident;
            sc_default_budget = budget;
            sc_heartbeat_s = 1.0 })
  in
  let doc =
    "Run the persistent ATPG daemon: framed JSON requests over a socket, \
     answered from a content-addressed design/constraint cache."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ obs_term $ socket_arg $ tcp_arg $ store_arg
          $ max_resident_arg $ budget_arg $ jobs_arg)

(* ----------------------------- client ----------------------------- *)

let jstr name j =
  Option.value ~default:"" (Option.bind (J.member name j) J.to_string_opt)

(* Connect, run, and map daemon failures onto the same stage exit codes
   as the one-shot CLI; exit 7 means the daemon itself is unreachable —
   including a daemon that accepted the connection but then went silent
   past the idle timeout.  Local failures (reading the design, writing
   -o) go through the one-shot's taxonomy. *)
let with_client ~socket ~tcp f =
  handle_errors @@ fun () ->
  let addr = addr_of ~socket ~tcp in
  let cl =
    try Serve.Client.connect addr with
    | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "factor: cannot connect to daemon: %s\n"
        (Unix.error_message e);
      exit 7
  in
  match f cl with
  | v ->
    Serve.Client.close cl;
    v
  | exception Serve.Client.Server_error (stage, msg) ->
    Serve.Client.close cl;
    Printf.eprintf "factor: %s error: %s\n" stage msg;
    exit
      (match Factor.Errors.stage_of_string stage with
       | Some st -> Factor.Errors.exit_code (Factor.Errors.make st msg)
       | None -> 1)
  | exception Serve.Client.Timeout s ->
    Serve.Client.close cl;
    Printf.eprintf
      "factor: daemon at %s sent nothing (not even a heartbeat) for \
       %.1f s; wedged or unreachable\n"
      (addr_to_string addr) s;
    exit 7
  | exception e ->
    Serve.Client.close cl;
    raise e

let budget_params budget = opt_param "budget_s" num budget

let client_budget_arg =
  let doc = "Wall-clock budget in seconds for this request." in
  Arg.(value & opt (some float) None
       & info [ "request-budget" ] ~docv:"SECONDS" ~doc)

(* --timeout distinguishes a slow daemon from a wedged one: any frame
   (heartbeats included) resets the clock, so it only fires when the
   daemon has gone completely silent. *)
let timeout_arg =
  let doc =
    "Exit with code 7 if the daemon sends nothing (not even a \
     heartbeat) for $(docv) seconds.  Off by default."
  in
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let report_cache result =
  (match jstr "cache" result with
   | "" -> ()
   | o -> Obs.Log.progressf "cache: %s" o)

(* One printer per op for the daemon's reply, shared by [client <op>]
   and [client watch]: the same final lines the one-shot prints, minus
   its timings. *)
let print_extract_reply r =
  report_cache r;
  (match J.member "dead_ends" r with
   | Some (J.List ds) ->
     List.iter (fun d -> Option.iter (Obs.Log.warnf "%s") (J.to_string_opt d)) ds
   | _ -> ());
  print_endline (jstr "extraction" r);
  print_endline (jstr "transformed" r)

let print_atpg_reply r =
  report_cache r;
  print_endline (jstr "counts" r);
  print_endline (jstr "quality" r)

let print_grade_reply r =
  report_cache r;
  print_endline (jstr "line" r)

let client_cmd =
  let ping_cmd =
    let run () socket tcp timeout =
      with_client ~socket ~tcp (fun cl ->
          let _ = Serve.Client.rpc ?timeout cl ~op:"ping" ~params:[] in
          print_endline "pong")
    in
    let doc = "Check that the daemon is alive." in
    Cmd.v (Cmd.info "ping" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ timeout_arg)
  in
  let metrics_cmd =
    let run () socket tcp timeout =
      with_client ~socket ~tcp (fun cl ->
          let r = Serve.Client.rpc ?timeout cl ~op:"metrics" ~params:[] in
          let prom = jstr "prometheus" r in
          print_string prom;
          (* pull the store gauges back out of the exposition and render
             a one-line summary; '#' keeps it comment-safe for scrapers *)
          let gauge name =
            List.find_map
              (fun line ->
                match String.index_opt line ' ' with
                | Some i when String.sub line 0 i = name ->
                  float_of_string_opt
                    (String.sub line (i + 1) (String.length line - i - 1))
                | _ -> None)
              (String.split_on_char '\n' prom)
          in
          match
            (gauge "factor_serve_store_entries",
             gauge "factor_serve_store_bytes")
          with
          | (Some e, Some b) ->
            Printf.printf "# store: %.0f entries, %.0f bytes\n" e b
          | _ -> ())
    in
    let doc = "Dump the daemon's metrics registry (Prometheus text format)." in
    Cmd.v (Cmd.info "metrics" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ timeout_arg)
  in
  let shutdown_cmd =
    let run () socket tcp timeout =
      with_client ~socket ~tcp (fun cl ->
          let _ = Serve.Client.rpc ?timeout cl ~op:"shutdown" ~params:[] in
          Obs.Log.progressf "daemon stopping")
    in
    let doc = "Ask the daemon to shut down gracefully." in
    Cmd.v (Cmd.info "shutdown" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ timeout_arg)
  in
  let c_extract_cmd =
    let run () socket tcp path top mut mode output budget timeout =
      with_client ~socket ~tcp (fun cl ->
          let params =
            extract_params (design_params path top) ~mut ~mode
              ~emit_verilog:(output <> None)
            @ budget_params budget
          in
          let r = Serve.Client.rpc ?timeout cl ~op:"extract" ~params in
          print_extract_reply r;
          Option.iter
            (fun f -> write_output ~what:"constraints" f (jstr "verilog" r))
            output)
    in
    let doc = "FACTOR-ise a design through the daemon's constraint cache." in
    Cmd.v (Cmd.info "extract" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ design_arg
            $ top_arg $ mut_arg $ mode_arg $ output_arg $ client_budget_arg
            $ timeout_arg)
  in
  let c_atpg_cmd =
    let seed_arg =
      let doc = "Random seed for the generator." in
      Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
    in
    (* sent as given: the daemon judges it *)
    let frames_opt =
      let doc = "Deepest time-frame expansion (the daemon's default is 4)." in
      Arg.(value & opt (some int) None & info [ "frames" ] ~docv:"N" ~doc)
    in
    let run () socket tcp path top mut gen_budget frames engine seed piers
        output budget timeout =
      with_client ~socket ~tcp (fun cl ->
          let params =
            atpg_params ?mut ?budget:gen_budget ?frames ~engine ?seed ~piers
              (design_params path top)
            @ budget_params budget
          in
          let r = Serve.Client.rpc ?timeout cl ~op:"atpg" ~params in
          print_atpg_reply r;
          Option.iter
            (fun f -> write_output ~what:"vectors" f (jstr "vectors" r))
            output)
    in
    let doc = "Generate tests through the daemon's design cache." in
    Cmd.v (Cmd.info "atpg" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ design_arg
            $ top_arg $ mut_opt $ gen_budget_arg $ frames_opt $ engine_arg
            $ seed_arg $ piers_arg $ output_arg $ client_budget_arg
            $ timeout_arg)
  in
  let c_grade_cmd =
    let run () socket tcp path top vec_file mut budget timeout =
      with_client ~socket ~tcp (fun cl ->
          let params =
            grade_params ?mut (design_params path top) ~vec_file
            @ budget_params budget
          in
          print_grade_reply (Serve.Client.rpc ?timeout cl ~op:"grade" ~params))
    in
    let doc = "Fault-simulate a vector file through the daemon." in
    Cmd.v (Cmd.info "grade" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ design_arg
            $ top_arg $ vec_arg $ mut_opt $ client_budget_arg $ timeout_arg)
  in
  let c_ec_cmd =
    let design_b =
      let doc = "Second design ('@name' or a file)." in
      Arg.(required & pos 1 (some string) None & info [] ~docv:"DESIGN_B" ~doc)
    in
    let top_b =
      let doc = "Top module of the second design." in
      Arg.(value & opt (some string) None & info [ "top-b" ] ~docv:"MODULE" ~doc)
    in
    let run () socket tcp path_a top_a path_b top_b budget timeout =
      with_client ~socket ~tcp (fun cl ->
          let params =
            [ ("a", J.Obj (design_params path_a top_a));
              ("b", J.Obj (design_params path_b top_b)) ]
            @ budget_params budget
          in
          let r = Serve.Client.rpc ?timeout cl ~op:"ec" ~params in
          print_endline (jstr "line" r))
    in
    let doc = "Check two designs for combinational equivalence via the daemon." in
    Cmd.v (Cmd.info "ec" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ design_arg
            $ top_arg $ design_b $ top_b $ client_budget_arg $ timeout_arg)
  in
  let c_watch_cmd =
    let op_arg =
      let doc = "Operation to run and watch: 'atpg', 'grade' or 'extract'." in
      Arg.(value
           & opt (enum [ ("atpg", "atpg"); ("grade", "grade");
                         ("extract", "extract") ]) "atpg"
           & info [ "op" ] ~docv:"OP" ~doc)
    in
    let json_flag =
      let doc =
        "Print every event frame as one JSON line instead of redrawing \
         a status line."
      in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let vec_opt =
      let doc = "Vector file to grade (required with $(b,--op grade))." in
      Arg.(value & opt (some string) None
           & info [ "vectors" ] ~docv:"FILE" ~doc)
    in
    let req_opt =
      let doc =
        "Request id to stamp on frames, spans and logs (default \
         c<pid>-<seq>)."
      in
      Arg.(value & opt (some string) None & info [ "req" ] ~docv:"ID" ~doc)
    in
    let run () socket tcp path top op mut vectors gen_budget req budget
        timeout json =
      with_client ~socket ~tcp (fun cl ->
          let need what = function
            | Some v -> v
            | None ->
              Printf.eprintf "factor: --op %s needs %s\n" op what;
              exit 1
          in
          let design = design_params path top in
          let params =
            (match op with
             | "extract" ->
               extract_params design ~mut:(need "--mut" mut)
                 ~mode:Factor.Flow.Compositional ~emit_verilog:false
             | "grade" ->
               grade_params ?mut design ~vec_file:(need "--vectors" vectors)
             | _ -> atpg_params ?mut ?budget:gen_budget design)
            @ budget_params budget
          in
          (* progress frames redraw one stderr line in place; log frames
             get a line of their own, so first un-hijack the status line *)
          let drew = ref false in
          let clear_line () =
            if !drew then begin
              prerr_newline ();
              drew := false
            end
          in
          let on_event j =
            if json then print_endline (J.to_string j)
            else
              match jstr "event" j with
              | "progress" ->
                let geti n =
                  Option.value ~default:0
                    (Option.bind (J.member n j) J.to_int_opt)
                and getf n =
                  Option.value ~default:0.0
                    (Option.bind (J.member n j) J.to_float_opt)
                in
                let total = geti "total" and eta = getf "eta_s" in
                Printf.eprintf "\r[%s] %s %d%s (%.0f/s%s)\x1b[K%!"
                  (jstr "req" j) (jstr "phase" j) (geti "done")
                  (if total > 0 then Printf.sprintf "/%d" total else "")
                  (getf "rate")
                  (if eta >= 0.0 then Printf.sprintf ", eta %.0fs" eta
                   else "");
                drew := true
              | "log" ->
                clear_line ();
                Printf.eprintf "[%s] %s\n%!" (jstr "level" j) (jstr "msg" j)
              | _ -> ()
            (* heartbeats are proof of life, not news: they reset the
               idle timeout inside the client and render nothing *)
          in
          let r =
            Serve.Client.rpc ?timeout ?req ~on_event ~stream:true cl ~op
              ~params
          in
          clear_line ();
          match op with
          | "grade" -> print_grade_reply r
          | "extract" -> print_extract_reply r
          | _ -> print_atpg_reply r)
    in
    let doc =
      "Run an operation through the daemon with live progress: streamed \
       phase/ETA updates, forwarded log lines and heartbeats, then the \
       same final lines the plain subcommand prints."
    in
    Cmd.v (Cmd.info "watch" ~doc)
      Term.(const run $ obs_term $ socket_arg $ tcp_arg $ design_arg
            $ top_arg $ op_arg $ mut_opt $ vec_opt $ gen_budget_arg $ req_opt
            $ client_budget_arg $ timeout_arg $ json_flag)
  in
  let doc = "Talk to a running factor daemon." in
  Cmd.group (Cmd.info "client" ~doc)
    [ ping_cmd; metrics_cmd; shutdown_cmd; c_extract_cmd; c_atpg_cmd;
      c_grade_cmd; c_ec_cmd; c_watch_cmd ]

let () =
  let doc = "hierarchical functional test generation and testability analysis" in
  let info = Cmd.info "factor" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; synth_cmd; extract_cmd; atpg_cmd; grade_cmd;
            analyze_cmd; demo_cmd; fuzz_cmd; serve_cmd; client_cmd ]))
