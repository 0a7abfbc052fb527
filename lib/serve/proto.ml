(** Length-prefixed JSON framing for the serve protocol.  See the mli
    for the wire format. *)

exception Proto_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Proto_error s)) fmt

(* A frame payload larger than this is a protocol error, not a request:
   it bounds memory per connection against a hostile or corrupted
   length prefix.  Generous enough for a full processor source plus its
   vector file. *)
let max_frame = 64 * 1024 * 1024

type request = {
  rq_id : int;
  rq_op : string;
  rq_params : Obs.Json.t;
}

let frame payload = Printf.sprintf "%d\n%s\n" (String.length payload) payload

let encode_request r =
  frame
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("id", Obs.Json.Int r.rq_id);
            ("op", Obs.Json.String r.rq_op);
            ("params", r.rq_params) ]))

let request_of_json j =
  let id =
    match Option.bind (Obs.Json.member "id" j) Obs.Json.to_int_opt with
    | Some id -> id
    | None -> fail "request: missing integer 'id'"
  in
  let op =
    match Option.bind (Obs.Json.member "op" j) Obs.Json.to_string_opt with
    | Some op -> op
    | None -> fail "request: missing string 'op'"
  in
  let params = Option.value (Obs.Json.member "params" j) ~default:Obs.Json.Null in
  { rq_id = id; rq_op = op; rq_params = params }

let ok_frame ~id ?metrics result =
  let fields =
    [ ("id", Obs.Json.Int id); ("ok", Obs.Json.Bool true);
      ("result", result) ]
    @ (match metrics with
       | Some m -> [ ("metrics", m) ]
       | None -> [])
  in
  frame (Obs.Json.to_string (Obs.Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Event frames.                                                       *)
(* ------------------------------------------------------------------ *)

type event =
  | Ev_progress of {
      ep_phase : string;
      ep_reporter : int;
      ep_done : int;
      ep_total : int;
      ep_rate : float;
      ep_eta_s : float;
      ep_final : bool;
    }
  | Ev_log of {
      el_level : string;
      el_msg : string;
      el_attrs : Obs.Json.t;
    }
  | Ev_heartbeat

let event_frame ~id ?req ev =
  let req_field =
    match req with
    | Some r -> [ ("req", Obs.Json.String r) ]
    | None -> []
  in
  let fields =
    match ev with
    | Ev_progress p ->
      [ ("id", Obs.Json.Int id); ("event", Obs.Json.String "progress") ]
      @ req_field
      @ [ ("phase", Obs.Json.String p.ep_phase);
          ("reporter", Obs.Json.Int p.ep_reporter);
          ("done", Obs.Json.Int p.ep_done);
          ("total", Obs.Json.Int p.ep_total);
          ("rate", Obs.Json.Float p.ep_rate);
          ("eta_s", Obs.Json.Float p.ep_eta_s);
          ("final", Obs.Json.Bool p.ep_final) ]
    | Ev_log l ->
      [ ("id", Obs.Json.Int id); ("event", Obs.Json.String "log") ]
      @ req_field
      @ [ ("level", Obs.Json.String l.el_level);
          ("msg", Obs.Json.String l.el_msg);
          ("attrs", l.el_attrs) ]
    | Ev_heartbeat ->
      [ ("id", Obs.Json.Int id); ("event", Obs.Json.String "heartbeat") ]
      @ req_field
  in
  frame (Obs.Json.to_string (Obs.Json.Obj fields))

let is_event j =
  match Obs.Json.member "event" j with Some _ -> true | None -> false

let event_of_json j =
  let str name =
    Option.value ~default:""
      (Option.bind (Obs.Json.member name j) Obs.Json.to_string_opt)
  in
  let int name =
    Option.value ~default:0
      (Option.bind (Obs.Json.member name j) Obs.Json.to_int_opt)
  in
  let flt name =
    Option.value ~default:0.0
      (Option.bind (Obs.Json.member name j) Obs.Json.to_float_opt)
  in
  match Option.bind (Obs.Json.member "event" j) Obs.Json.to_string_opt with
  | Some "progress" ->
    Some
      (Ev_progress
         { ep_phase = str "phase";
           ep_reporter = int "reporter";
           ep_done = int "done";
           ep_total = int "total";
           ep_rate = flt "rate";
           ep_eta_s = flt "eta_s";
           ep_final =
             Option.value ~default:false
               (Option.bind (Obs.Json.member "final" j) Obs.Json.to_bool_opt) })
  | Some "log" ->
    Some
      (Ev_log
         { el_level = str "level";
           el_msg = str "msg";
           el_attrs =
             Option.value ~default:Obs.Json.Null (Obs.Json.member "attrs" j) })
  | Some "heartbeat" -> Some Ev_heartbeat
  | Some other -> fail "unknown event kind %S" other
  | None -> None

let error_frame ~id ~stage ~msg =
  frame
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("id", Obs.Json.Int id);
            ("ok", Obs.Json.Bool false);
            ("error",
             Obs.Json.Obj
               [ ("stage", Obs.Json.String stage);
                 ("msg", Obs.Json.String msg) ]) ]))

(* ------------------------------------------------------------------ *)
(* Incremental reader.                                                 *)
(* ------------------------------------------------------------------ *)

type reader = {
  buf : Buffer.t;
  mutable scan : int;  (** consumed prefix of [buf] *)
}

let create_reader () = { buf = Buffer.create 256; scan = 0 }

let feed r b len = Buffer.add_subbytes r.buf b 0 len

(* Compact the buffer once the consumed prefix dominates, so a
   long-lived connection does not grow it without bound. *)
let compact r =
  if r.scan > 4096 && r.scan * 2 > Buffer.length r.buf then begin
    let rest = Buffer.sub r.buf r.scan (Buffer.length r.buf - r.scan) in
    Buffer.clear r.buf;
    Buffer.add_string r.buf rest;
    r.scan <- 0
  end

let next_frame r =
  let len = Buffer.length r.buf in
  (* locate the length line *)
  let rec find_nl i =
    if i >= len then None
    else if Buffer.nth r.buf i = '\n' then Some i
    else find_nl (i + 1)
  in
  match find_nl r.scan with
  | None ->
    if len - r.scan > 32 then fail "frame: length prefix too long";
    None
  | Some nl ->
    let prefix = Buffer.sub r.buf r.scan (nl - r.scan) in
    let n =
      match int_of_string_opt (String.trim prefix) with
      | Some n when n >= 0 -> n
      | _ -> fail "frame: bad length prefix %S" prefix
    in
    if n > max_frame then fail "frame: %d bytes exceeds the frame cap" n;
    (* payload plus its trailing newline *)
    if len - nl - 1 < n + 1 then None
    else begin
      let payload = Buffer.sub r.buf (nl + 1) n in
      if Buffer.nth r.buf (nl + 1 + n) <> '\n' then
        fail "frame: missing terminator";
      r.scan <- nl + 1 + n + 1;
      compact r;
      Some payload
    end
