(** Blocking serve-protocol client; see the mli. *)

exception Server_error of string * string
exception Timeout of float

type t = {
  cl_fd : Unix.file_descr;
  cl_oc : out_channel;
  cl_reader : Proto.reader;
  cl_buf : Bytes.t;
  mutable cl_next_id : int;
  (* responses read while waiting for a different id *)
  cl_pending : (int, Obs.Json.t) Hashtbl.t;
  mutable cl_last_metrics : Obs.Json.t option;
}

let sockaddr = function
  | Server.Unix_path p -> Unix.ADDR_UNIX p
  | Server.Tcp (host, port) ->
    let host = if host = "" then "127.0.0.1" else host in
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let domain_of = function
  | Server.Unix_path _ -> Unix.PF_UNIX
  | Server.Tcp _ -> Unix.PF_INET

let connect addr =
  let fd = Unix.socket ~cloexec:true (domain_of addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr addr) with
   | e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { cl_fd = fd;
    cl_oc = Unix.out_channel_of_descr fd;
    cl_reader = Proto.create_reader ();
    cl_buf = Bytes.create 65536;
    cl_next_id = 1;
    cl_pending = Hashtbl.create 4;
    cl_last_metrics = None }

let connect_retry addr =
  let rec go n =
    match connect addr with
    | t -> t
    | exception Unix.Unix_error _ when n > 1 ->
      Unix.sleepf 0.1;
      go (n - 1)
  in
  go 50

let close t =
  (* closing the channel closes the shared fd *)
  try close_out_noerr t.cl_oc with _ -> ()

(* Read one frame payload, waiting at most [timeout] seconds (idle
   timeout: the clock restarts on every frame, so any traffic —
   heartbeats included — keeps a patient wait alive). *)
let read_frame ?timeout t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let rec go () =
    match Proto.next_frame t.cl_reader with
    | Some payload -> payload
    | None ->
      let tv =
        match deadline with
        | None -> -1.0 (* negative: block until readable *)
        | Some d ->
          let left = d -. Unix.gettimeofday () in
          if left <= 0.0 then raise (Timeout (Option.get timeout));
          left
      in
      (match Unix.select [ t.cl_fd ] [] [] tv with
       | ([], _, _) -> raise (Timeout (Option.get timeout))
       | _ ->
         (match Unix.read t.cl_fd t.cl_buf 0 (Bytes.length t.cl_buf) with
          | 0 -> raise End_of_file
          | n -> Proto.feed t.cl_reader t.cl_buf n)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
  in
  go ()

let read_response ?timeout t =
  let j = Obs.Json.of_string (read_frame ?timeout t) in
  let id =
    match Option.bind (Obs.Json.member "id" j) Obs.Json.to_int_opt with
    | Some id -> id
    | None -> raise (Proto.Proto_error "response: missing id")
  in
  (id, j)

let unpack t j =
  t.cl_last_metrics <- Obs.Json.member "metrics" j;
  match Option.bind (Obs.Json.member "ok" j) Obs.Json.to_bool_opt with
  | Some true ->
    Option.value (Obs.Json.member "result" j) ~default:Obs.Json.Null
  | _ ->
    let err = Option.value (Obs.Json.member "error" j) ~default:Obs.Json.Null in
    let field name =
      Option.value ~default:""
        (Option.bind (Obs.Json.member name err) Obs.Json.to_string_opt)
    in
    raise (Server_error (field "stage", field "msg"))

let fresh_req_id id = Printf.sprintf "c%d-%d" (Unix.getpid ()) id

let rpc ?timeout ?on_event ?req ?(stream = false) t ~op ~params =
  let id = t.cl_next_id in
  t.cl_next_id <- id + 1;
  let req = match req with Some r -> r | None -> fresh_req_id id in
  let params =
    params
    @ [ ("req", Obs.Json.String req) ]
    @ (if stream then [ ("stream", Obs.Json.Bool true) ] else [])
  in
  let rq =
    { Proto.rq_id = id; rq_op = op; rq_params = Obs.Json.Obj params }
  in
  let body () =
    output_string t.cl_oc (Proto.encode_request rq);
    flush t.cl_oc;
    let rec wait () =
      match Hashtbl.find_opt t.cl_pending id with
      | Some j ->
        Hashtbl.remove t.cl_pending id;
        unpack t j
      | None ->
        let (rid, j) = read_response ?timeout t in
        if Proto.is_event j then begin
          (* event frames are transient: deliver the ones for this
             request, drop strays for ids nobody is waiting on *)
          (if rid = id then
             match on_event with Some f -> f j | None -> ());
          wait ()
        end
        else if rid = id then unpack t j
        else begin
          Hashtbl.replace t.cl_pending rid j;
          wait ()
        end
    in
    wait ()
  in
  (* the client half of the correlation story: the rpc span carries the
     same req id the daemon stamps on its spans and log records *)
  if Obs.Span.enabled () then
    Obs.Span.with_ "client.rpc"
      ~attrs:
        [ ("op", Obs.Json.String op); ("req", Obs.Json.String req) ]
      body
  else body ()

let last_metrics t = t.cl_last_metrics
