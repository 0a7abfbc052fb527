(** Flat-directory blob store with atomic writes and versioned, digested
    Marshal headers.  See the mli for the failure contract. *)

type t = {
  st_dir : string;
  (* Occupancy, kept in step with the directory instead of rescanning
     it: [st_sizes] maps every entry this handle knows of to its size on
     disk, and [st_bytes] is their sum.  The lock covers "old size ->
     rename/remove -> adjust", so two domains writing at once (even the
     same key) keep the totals exact. *)
  st_lock : Mutex.t;
  st_sizes : (string, int) Hashtbl.t;
  mutable st_bytes : int;
}

(* Identifies both the store layout and the Marshal producer: entries
   written by a different compiler build (whose Marshal format may
   differ) must read as misses, not as garbage values.  Layout 2 added
   the payload digest. *)
let magic = "FACTOR-STORE-2\n"

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  end

(* The store only ever grows (nothing evicts from disk), so its size is
   exactly the kind of number an operator wants on a dashboard: the
   gauges track the most recently touched store — the daemon opens
   exactly one. *)
let g_bytes = Obs.Metrics.gauge "factor.serve.store_bytes"
let g_entries = Obs.Metrics.gauge "factor.serve.store_entries"
let m_writes = Obs.Metrics.counter "factor.serve.store_writes"

(* (name, size) of every entry in [d]: regular files whose names do not
   start with a dot (dot-prefixed names are in-flight temp files). *)
let scan d =
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | files ->
    Array.fold_left
      (fun acc f ->
        if String.length f = 0 || f.[0] = '.' then acc
        else
          match Unix.stat (Filename.concat d f) with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (f, st_size) :: acc
          | _ -> acc
          | exception Unix.Unix_error _ -> acc)
      [] files

let stats t =
  List.fold_left (fun (n, b) (_, size) -> (n + 1, b + size)) (0, 0)
    (scan t.st_dir)

(* Call with [st_lock] held. *)
let publish t =
  Obs.Metrics.set g_entries (float_of_int (Hashtbl.length t.st_sizes));
  Obs.Metrics.set g_bytes (float_of_int t.st_bytes)

(* Call with [st_lock] held: [key] now has [size] bytes on disk, or is
   gone when [size] is [None].  The caller publishes. *)
let account t key size =
  (match Hashtbl.find_opt t.st_sizes key with
   | Some old ->
     t.st_bytes <- t.st_bytes - old;
     Hashtbl.remove t.st_sizes key
   | None -> ());
  (match size with
   | Some n ->
     t.st_bytes <- t.st_bytes + n;
     Hashtbl.replace t.st_sizes key n
   | None -> ())

let open_ d =
  mkdir_p d;
  if not (Sys.is_directory d) then
    raise (Sys_error (d ^ ": not a directory"));
  let t =
    { st_dir = d; st_lock = Mutex.create (); st_sizes = Hashtbl.create 64;
      st_bytes = 0 }
  in
  Mutex.protect t.st_lock (fun () ->
      List.iter (fun (f, size) -> account t f (Some size)) (scan d);
      publish t);
  t

let check_key key =
  if key = "" then invalid_arg "Store: empty key";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> invalid_arg (Printf.sprintf "Store: unsafe key %S" key))
    key

let path t key =
  check_key key;
  Filename.concat t.st_dir key

(* The body goes to a temp file outside the lock; only the rename, which
   is what changes the occupancy, runs under it.  A close that fails
   (the flush of the last buffer) fails the write, so a short file is
   never renamed into place. *)
let write t ~key s =
  let final = path t key in
  let (tmp, oc) =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.st_dir
      ("." ^ key) ".tmp"
  in
  try
    output_string oc s;
    close_out oc;
    Mutex.protect t.st_lock (fun () ->
        Sys.rename tmp final;
        account t key (Some (String.length s));
        publish t);
    Obs.Metrics.incr m_writes
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let put t ~key s =
  if Obs.Span.enabled () then
    Obs.Span.with_ "store.put" (fun () -> write t ~key s)
  else write t ~key s

let read t ~key =
  let p = path t key in
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic)) with
        | Sys_error _ | End_of_file -> None)

let get t ~key =
  if Obs.Span.enabled () then
    Obs.Span.with_ "store.get" (fun () -> read t ~key)
  else read t ~key

let header = magic ^ Sys.ocaml_version ^ "\n"

(* The digest binds the body to its key, so a truncated or bit-flipped
   body and a file copied or renamed under another key all read as
   misses before [Marshal] sees a byte. *)
let digest ~key s ~pos =
  Digest.string (key ^ "\n" ^ Digest.substring s pos (String.length s - pos))

let put_value t ~key v =
  let body = Marshal.to_string v [] in
  put t ~key (header ^ digest ~key body ~pos:0 ^ body)

let get_value t ~key =
  match get t ~key with
  | None -> None
  | Some s ->
    let hl = String.length header in
    let pos = hl + 16 in
    if String.length s < pos || String.sub s 0 hl <> header
       || String.sub s hl 16 <> digest ~key s ~pos
    then None
    else (try Some (Marshal.from_string s pos) with _ -> None)

let remove t ~key =
  let p = path t key in
  Mutex.protect t.st_lock (fun () ->
      (match Sys.remove p with
       | () -> account t key None
       | exception Sys_error _ ->
         if not (Sys.file_exists p) then account t key None);
      publish t)
