type level = Error | Warn | Info | Debug

let level_rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

(* -1 encodes "disabled" so the gate is one atomic load + compare. *)
let level_cell =
  Atomic.make
    (match Sys.getenv_opt "FACTOR_LOG" with
     | Some s -> (match level_of_string s with
                  | Some l -> level_rank l
                  | None -> -1)
     | None -> -1)

let set_level = function
  | None -> Atomic.set level_cell (-1)
  | Some l -> Atomic.set level_cell (level_rank l)

let level () =
  match Atomic.get level_cell with
  | 0 -> Some Error
  | 1 -> Some Warn
  | 2 -> Some Info
  | 3 -> Some Debug
  | _ -> None

let enabled l = level_rank l <= Atomic.get level_cell

let out_lock = Mutex.create ()
let out_chan : out_channel option ref = ref None  (* None = stderr *)

let close () =
  Mutex.protect out_lock (fun () ->
      match !out_chan with
      | Some oc ->
        close_out_noerr oc;
        out_chan := None
      | None -> ())

let set_file file =
  Mutex.protect out_lock (fun () ->
      (match !out_chan with
       | Some oc -> close_out_noerr oc
       | None -> ());
      out_chan :=
        match file with
        | None -> None
        | Some f ->
          Some (open_out_gen [ Open_append; Open_creat ] 0o644 f))

(* Forwarders receive every event regardless of the level gate (the
   serve daemon streams a request's log records to its client even when
   file/stderr logging is off); they filter by {!Context.request_id}
   themselves.  The count is atomic so the disabled path stays at two
   atomic loads with no lock. *)
type forwarder = level -> string -> (string * Json.t) list -> unit

let fwd_lock = Mutex.create ()
let fwd_list : (int * forwarder) list ref = ref []
let fwd_count = Atomic.make 0
let fwd_next = ref 0

let add_forwarder f =
  Mutex.protect fwd_lock (fun () ->
      incr fwd_next;
      let id = !fwd_next in
      fwd_list := (id, f) :: !fwd_list;
      Atomic.incr fwd_count;
      id)

let remove_forwarder id =
  Mutex.protect fwd_lock (fun () ->
      if List.mem_assoc id !fwd_list then begin
        fwd_list := List.remove_assoc id !fwd_list;
        Atomic.decr fwd_count
      end)

let event l msg attrs =
  let forwarding = Atomic.get fwd_count > 0 in
  if enabled l || forwarding then begin
    let attrs =
      match Context.request_id () with
      | Some r -> ("req", Json.String r) :: attrs
      | None -> attrs
    in
    if enabled l then begin
      let line =
        Json.to_string
          (Json.Obj
             (("ts", Json.Float (Unix.gettimeofday ()))
              :: ("level", Json.String (level_name l))
              :: ("msg", Json.String msg)
              :: attrs))
      in
      Mutex.protect out_lock (fun () ->
          let oc = match !out_chan with Some oc -> oc | None -> stderr in
          output_string oc line;
          output_char oc '\n';
          flush oc)
    end;
    if forwarding then
      List.iter
        (fun (_, f) -> try f l msg attrs with _ -> ())
        (Mutex.protect fwd_lock (fun () -> !fwd_list))
  end

type verbosity = Quiet | Normal | Verbose

let verbosity_rank = function Quiet -> 0 | Normal -> 1 | Verbose -> 2

let verbosity_cell = Atomic.make (verbosity_rank Normal)

let set_verbosity v = Atomic.set verbosity_cell (verbosity_rank v)

let console_lock = Mutex.create ()

let emit_console s =
  Mutex.protect console_lock (fun () ->
      output_string stderr s;
      output_char stderr '\n';
      flush stderr)

let progressf fmt =
  Printf.ksprintf
    (fun s -> if Atomic.get verbosity_cell >= 1 then emit_console s)
    fmt

let verbosef fmt =
  Printf.ksprintf
    (fun s -> if Atomic.get verbosity_cell >= 2 then emit_console s)
    fmt

let warnf fmt =
  Printf.ksprintf
    (fun s ->
      emit_console ("warning: " ^ s);
      event Warn s [])
    fmt

let notef fmt =
  Printf.ksprintf
    (fun s ->
      emit_console s;
      event Warn s [])
    fmt
