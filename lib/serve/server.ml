(** Event loop of the serve daemon.  See the mli for the concurrency
    and isolation model. *)

type addr =
  | Unix_path of string
  | Tcp of string * int

type config = {
  sc_addr : addr;
  sc_store : string option;
  sc_max_resident : int option;
  sc_default_budget : float option;
  sc_heartbeat_s : float;
}

let m_conns = Obs.Metrics.counter "factor.serve.connections"

(* ------------------------------------------------------------------ *)
(* Connections.                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  cn_id : int;
  cn_fd : Unix.file_descr;
  cn_reader : Proto.reader;
  cn_out : Buffer.t;          (* bytes not yet written *)
  mutable cn_out_pos : int;
  mutable cn_inflight : int;  (* requests on the pool for this conn *)
  mutable cn_streams : int list;  (* request ids streaming event frames *)
  mutable cn_last_beat : float;
}

type state = {
  st_cfg : config;
  st_ctx : Ops.ctx;
  st_listen : Unix.file_descr;
  st_stop : bool Atomic.t;
  (* completion queue: (connection id, request id, framed bytes, final).
     Interim event frames ride the same queue as final responses so a
     streaming request's frames stay ordered; only a final entry
     retires the in-flight slot and the stream registration. *)
  st_done : (int * int * string * bool) Queue.t;
  st_done_lock : Mutex.t;
  st_wake_r : Unix.file_descr;
  st_wake_w : Unix.file_descr;
  st_conns : (int, conn) Hashtbl.t;
  mutable st_next_conn : int;
  st_rbuf : Bytes.t;  (* read buffer, loop domain only; Proto.feed copies *)
}

type t = {
  sv_state : state;
  sv_domain : unit Domain.t option;
  mutable sv_stopped : bool;
}

(* ------------------------------------------------------------------ *)
(* Request execution.                                                  *)
(* ------------------------------------------------------------------ *)

(* One decoded request, start to framed response: a metrics snapshot
   diff around it (of the process-wide registry, so it includes any
   request that overlaps this one), budget, chaos seam (inside
   Ops.handle), and total fault isolation — every exception is folded
   into an error frame for this id only. *)
let answer ?emit ctx (rq : Proto.request) =
  let before = Obs.Metrics.snapshot () in
  match Ops.handle ?emit ctx rq with
  | result ->
    Obs.Span.with_ "proto.encode" @@ fun () ->
    let metrics = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
    Proto.ok_frame ~id:rq.Proto.rq_id ~metrics result
  | exception e ->
    let (stage, msg) =
      match Factor.Errors.of_exn e with
      | Some t -> (Factor.Errors.stage_name t.Factor.Errors.e_stage,
                   Factor.Errors.message t)
      | None ->
        (match e with
         | Proto.Proto_error msg -> ("proto", msg)
         | _ -> ("internal", Printexc.to_string e))
    in
    Obs.Log.warnf "serve: request %d failed (%s): %s" rq.Proto.rq_id
      stage msg;
    Proto.error_frame ~id:rq.Proto.rq_id ~stage ~msg

(* ------------------------------------------------------------------ *)
(* Loop plumbing.                                                      *)
(* ------------------------------------------------------------------ *)

let wake st =
  (* best-effort: a full pipe already guarantees a wakeup, and a closed
     one (EBADF/EPIPE) means the loop already exited on its own — e.g.
     a ["shutdown"] request — so there is nothing left to wake *)
  try ignore (Unix.write st.st_wake_w (Bytes.make 1 '!') 0 1 : int) with
  | Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

let push_done st conn_id rq_id frame =
  Mutex.protect st.st_done_lock (fun () ->
      Queue.add (conn_id, rq_id, frame, true) st.st_done);
  wake st

(* Interim event frame: queued like a response but does not retire the
   in-flight slot, so graceful drain still waits for the real answer. *)
let push_event st conn_id rq_id frame =
  Mutex.protect st.st_done_lock (fun () ->
      Queue.add (conn_id, rq_id, frame, false) st.st_done);
  wake st

let enqueue_out conn frame = Buffer.add_string conn.cn_out frame

let drain_done st =
  let pending =
    Mutex.protect st.st_done_lock (fun () ->
        let l = List.of_seq (Queue.to_seq st.st_done) in
        Queue.clear st.st_done;
        l)
  in
  List.iter
    (fun (conn_id, rq_id, frame, final) ->
      match Hashtbl.find_opt st.st_conns conn_id with
      | Some conn ->
        if final then begin
          conn.cn_inflight <- conn.cn_inflight - 1;
          conn.cn_streams <-
            List.filter (fun r -> r <> rq_id) conn.cn_streams
        end;
        enqueue_out conn frame
      | None -> () (* client hung up before its answer was ready *))
    pending

let close_conn st conn =
  Hashtbl.remove st.st_conns conn.cn_id;
  try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()

(* Write as much pending output as the socket accepts. *)
let flush_conn st conn =
  let len = Buffer.length conn.cn_out in
  if conn.cn_out_pos < len then begin
    let chunk = Buffer.sub conn.cn_out conn.cn_out_pos (len - conn.cn_out_pos) in
    match Unix.write_substring conn.cn_fd chunk 0 (String.length chunk) with
    | n ->
      conn.cn_out_pos <- conn.cn_out_pos + n;
      if conn.cn_out_pos = Buffer.length conn.cn_out then begin
        Buffer.clear conn.cn_out;
        conn.cn_out_pos <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn st conn
  end

let has_output conn = Buffer.length conn.cn_out > conn.cn_out_pos

(* Decode one frame and dispatch it.  A frame that is no request is
   answered on id 0 and a wrong-typed [stream] on the request's id, both
   as proto errors, and the connection stays open.  The shutdown op is
   loop-level (it must flip the stop flag); everything else goes through
   Ops as a pool task. *)
let dispatch st conn payload =
  let decoded =
    Obs.Span.with_ "proto.decode" @@ fun () ->
    match Proto.request_of_json (Obs.Json.of_string payload) with
    | exception (Obs.Json.Parse_error msg | Proto.Proto_error msg) ->
      Error (0, "unparseable request: " ^ msg)
    | rq ->
      (match Ops.bool_default "stream" ~default:false rq.rq_params with
       | stream -> Ok (rq, stream)
       | exception Proto.Proto_error msg -> Error (rq.rq_id, msg))
  in
  match decoded with
  | Error (id, msg) ->
    Obs.Log.warnf "serve: request %d refused: %s" id msg;
    enqueue_out conn (Proto.error_frame ~id ~stage:"proto" ~msg)
  | Ok ({ Proto.rq_op = "shutdown"; rq_id; _ }, _) ->
    enqueue_out conn
      (Proto.ok_frame ~id:rq_id
         (Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ]));
    Atomic.set st.st_stop true
  | Ok (rq, stream) ->
    let rq_id = rq.Proto.rq_id in
    if stream then begin
      conn.cn_streams <- rq_id :: conn.cn_streams;
      conn.cn_last_beat <- Unix.gettimeofday ()
    end;
    conn.cn_inflight <- conn.cn_inflight + 1;
    let conn_id = conn.cn_id in
    let emit =
      if stream then Some (fun frame -> push_event st conn_id rq_id frame)
      else None
    in
    let work () = push_done st conn_id rq_id (answer ?emit st.st_ctx rq) in
    ignore (Engine.Pool.submit (Engine.Pool.global ()) work
            : unit Engine.Pool.future)

let handle_readable st conn =
  let buf = st.st_rbuf in
  match Unix.read conn.cn_fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn st conn
  | n ->
    Proto.feed conn.cn_reader buf n;
    let rec frames () =
      match Proto.next_frame conn.cn_reader with
      | Some payload ->
        dispatch st conn payload;
        frames ()
      | None -> ()
    in
    (try frames () with
     | Proto.Proto_error msg ->
       (* framing is unrecoverable: answer once and drop the stream *)
       enqueue_out conn (Proto.error_frame ~id:0 ~stage:"proto" ~msg);
       flush_conn st conn;
       close_conn st conn)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn st conn

let accept_conn st =
  match Unix.accept ~cloexec:true st.st_listen with
  | (fd, _) ->
    Unix.set_nonblock fd;
    let id = st.st_next_conn in
    st.st_next_conn <- id + 1;
    Obs.Metrics.incr m_conns;
    Hashtbl.replace st.st_conns id
      { cn_id = id;
        cn_fd = fd;
        cn_reader = Proto.create_reader ();
        cn_out = Buffer.create 256;
        cn_out_pos = 0;
        cn_inflight = 0;
        cn_streams = [];
        cn_last_beat = 0.0 }
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* ------------------------------------------------------------------ *)
(* The loop.                                                           *)
(* ------------------------------------------------------------------ *)

let conns st = Hashtbl.fold (fun _ c acc -> c :: acc) st.st_conns []

let loop st =
  let drain_wake () =
    let b = Bytes.create 256 in
    match Unix.read st.st_wake_r b 0 256 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  (* While a streaming request is in flight, the loop beats on its
     connection so the client can tell a slow request from a wedged
     daemon.  Cadence is max(sc_heartbeat_s, the select timeout). *)
  let heartbeat () =
    let hb = st.st_cfg.sc_heartbeat_s in
    if hb > 0.0 then begin
      let now = Unix.gettimeofday () in
      Hashtbl.iter
        (fun _ c ->
          if c.cn_streams <> [] && now -. c.cn_last_beat >= hb then begin
            List.iter
              (fun rq_id ->
                enqueue_out c (Proto.event_frame ~id:rq_id Proto.Ev_heartbeat))
              c.cn_streams;
            c.cn_last_beat <- now
          end)
        st.st_conns
    end
  in
  (* main phase: accept, read, execute, write *)
  while not (Atomic.get st.st_stop) do
    drain_done st;
    heartbeat ();
    let cs = conns st in
    let reads = st.st_listen :: st.st_wake_r :: List.map (fun c -> c.cn_fd) cs in
    let writes =
      List.filter_map (fun c -> if has_output c then Some c.cn_fd else None) cs
    in
    match Unix.select reads writes [] 0.25 with
    | (rs, ws, _) ->
      if List.mem st.st_wake_r rs then drain_wake ();
      drain_done st;
      List.iter
        (fun c -> if List.mem c.cn_fd ws then flush_conn st c)
        (conns st);
      List.iter
        (fun c ->
          if List.mem c.cn_fd rs && Hashtbl.mem st.st_conns c.cn_id then
            handle_readable st c)
        cs;
      if List.mem st.st_listen rs then accept_conn st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* graceful drain: stop accepting, let in-flight requests finish and
     their responses flush, bounded so a wedged job cannot block exit *)
  (try Unix.close st.st_listen with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let pending () =
    Hashtbl.fold
      (fun _ c acc -> acc || c.cn_inflight > 0 || has_output c)
      st.st_conns false
  in
  while pending () && Unix.gettimeofday () < deadline do
    drain_done st;
    let cs = conns st in
    let writes =
      List.filter_map (fun c -> if has_output c then Some c.cn_fd else None) cs
    in
    (match Unix.select [ st.st_wake_r ] writes [] 0.1 with
     | (rs, ws, _) ->
       if rs <> [] then drain_wake ();
       drain_done st;
       List.iter
         (fun c -> if List.mem c.cn_fd ws then flush_conn st c)
         (conns st)
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  List.iter (fun c -> close_conn st c) (conns st);
  (try Unix.close st.st_wake_r with Unix.Unix_error _ -> ());
  (try Unix.close st.st_wake_w with Unix.Unix_error _ -> ());
  match st.st_cfg.sc_addr with
  | Unix_path p -> (try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)
(* ------------------------------------------------------------------ *)

let bind_listen = function
  | Unix_path path ->
    (* a leftover socket file from a dead daemon would make bind fail;
       a live daemon still loses the path — callers own arbitration *)
    if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  | Tcp (host, port) ->
    let host = if host = "" then "127.0.0.1" else host in
    let inet = Unix.inet_addr_of_string host in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd

let make_state cfg =
  let store = Option.map Store.open_ cfg.sc_store in
  let ctx =
    Ops.make_ctx ?store ?max_resident:cfg.sc_max_resident
      ?default_budget:cfg.sc_default_budget ()
  in
  let listen = bind_listen cfg.sc_addr in
  let (wake_r, wake_w) = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { st_cfg = cfg;
    st_ctx = ctx;
    st_listen = listen;
    st_stop = Atomic.make false;
    st_done = Queue.create ();
    st_done_lock = Mutex.create ();
    st_wake_r = wake_r;
    st_wake_w = wake_w;
    st_conns = Hashtbl.create 16;
    st_next_conn = 1;
    st_rbuf = Bytes.create 65536 }

let start cfg =
  let st = make_state cfg in
  let d = Domain.spawn (fun () -> loop st) in
  { sv_state = st; sv_domain = Some d; sv_stopped = false }

let stop t =
  if not t.sv_stopped then begin
    t.sv_stopped <- true;
    Atomic.set t.sv_state.st_stop true;
    wake t.sv_state;
    match t.sv_domain with
    | Some d -> Domain.join d
    | None -> ()
  end

let run cfg =
  let st = make_state cfg in
  let stop_signal _ = Atomic.set st.st_stop true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_signal) in
  (* a client vanishing mid-write must be an EPIPE error on that
     connection, not a process kill *)
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with
    | Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      match prev_pipe with
      | Some p -> Sys.set_signal Sys.sigpipe p
      | None -> ())
    (fun () -> loop st)
