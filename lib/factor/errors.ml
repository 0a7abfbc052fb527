(** Structured error taxonomy for the FACTOR pipeline: every
    user-provokable failure is classified into a stage, positioned when
    the front end knows where it happened, and mapped to a stable exit
    code by the CLI. *)

type stage =
  | Parse
  | Elaborate
  | Extract
  | Solve
  | Io

type pos = { p_file : string option; p_line : int; p_col : int }

type t = {
  e_stage : stage;
  e_pos : pos option;
  e_msg : string;
}

exception Error of t

let make ?file ?line ?col stage msg =
  let pos =
    if file = None && line = None then None
    else
      Some
        { p_file = file;
          p_line = Option.value line ~default:0;
          p_col = Option.value col ~default:0 }
  in
  { e_stage = stage; e_pos = pos; e_msg = msg }

let fail ?file ?line ?col stage msg =
  raise (Error (make ?file ?line ?col stage msg))

let stage_name = function
  | Parse -> "parse"
  | Elaborate -> "elaborate"
  | Extract -> "extract"
  | Solve -> "solve"
  | Io -> "io"

let stage_of_string = function
  | "parse" -> Some Parse
  | "elaborate" -> Some Elaborate
  | "extract" -> Some Extract
  | "solve" -> Some Solve
  | "io" -> Some Io
  | _ -> None

let exit_code t =
  match t.e_stage with
  | Parse -> 2
  | Elaborate -> 3
  | Extract -> 4
  | Solve -> 5
  | Io -> 6

let message t =
  match t.e_pos with
  | None -> t.e_msg
  | Some { p_file; p_line; p_col } ->
    let nums =
      if p_line = 0 then []
      else string_of_int p_line :: (if p_col = 0 then [] else [ string_of_int p_col ])
    in
    String.concat ":" (Option.to_list p_file @ nums) ^ ": " ^ t.e_msg

let to_string t =
  Printf.sprintf "factor: %s error: %s" (stage_name t.e_stage) (message t)

let of_exn ?file exn =
  let mk ?line ?col stage msg = Some (make ?file ?line ?col stage msg) in
  match exn with
  | Error t -> Some t
  | Verilog.Lexer.Error (msg, line, col) -> mk ~line ~col Parse msg
  | Verilog.Parser.Error (msg, line, col) -> mk ~line ~col Parse msg
  | Atpg.Pattern.Parse_error (line, msg) -> mk ~line Parse msg
  | Design.Elaborate.Error msg -> mk Elaborate msg
  | Synth.Flatten.Error msg -> mk Elaborate msg
  | Synth.Lower.Error msg -> mk Elaborate msg
  | Synth.Interp.Error msg -> mk Elaborate msg
  | Netlist.Error msg -> mk Elaborate msg
  | Reconstruct.Error msg -> mk Extract msg
  | Design.Hierarchy.Unknown_path path ->
    mk Extract (Printf.sprintf "no instance %S in the design" path)
  | Engine.Chaos.Injected site ->
    mk Solve (Printf.sprintf "chaos fault injected at %s" site)
  | Engine.Budget.Exhausted site ->
    (* an exhausted budget is a resource limit, never a fault of the
       input, so it is a solve error whichever stage was polling; the
       site stays in the message *)
    let where = if site = "" then "" else Printf.sprintf " during %s" site in
    mk Solve (Printf.sprintf "budget exhausted%s" where)
  | Sys_error msg -> mk Io msg
  | _ -> None
