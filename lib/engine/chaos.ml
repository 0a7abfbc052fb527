exception Injected of string

type mode = All | Fail_only | Delay_only

type cfg = {
  c_seed : int;
  c_rate : float;
  c_mode : mode;
  c_prefixes : string list;  (* [] = every site; else any-prefix match *)
}

(* The armed flag is the only thing hot paths read; the configuration
   and per-site counters sit behind a mutex because they are touched
   only when chaos is on. *)
let armed = Atomic.make false
let lock = Mutex.create ()
let config : cfg option ref = ref None
let hits : (string, int) Hashtbl.t = Hashtbl.create 64

let m_injected = lazy (Obs.Metrics.counter "factor.chaos.injected")
let m_delayed = lazy (Obs.Metrics.counter "factor.chaos.delayed")

let parse_mode = function
  | "all" -> Some All
  | "fail" -> Some Fail_only
  | "delay" -> Some Delay_only
  | _ -> None

let parse_prefixes p =
  List.filter (fun s -> s <> "") (String.split_on_char ',' p)

(* FACTOR_CHAOS=<seed>:<rate>[:<mode>][:<prefix>[,<prefix>...]] *)
let parse_env s =
  match String.split_on_char ':' (String.trim s) with
  | seed :: rate :: rest ->
    (match int_of_string_opt seed, float_of_string_opt rate with
     | Some c_seed, Some c_rate when c_rate >= 0.0 && c_rate <= 1.0 ->
       let c_mode, c_prefixes =
         match rest with
         | [] -> All, []
         | [ m ] ->
           (match parse_mode m with
            | Some md -> md, []
            | None -> All, parse_prefixes m)
         | m :: p :: _ ->
           (match parse_mode m with
            | Some md -> md, parse_prefixes p
            | None -> All, parse_prefixes m)
       in
       Some { c_seed; c_rate; c_mode; c_prefixes }
     | _ -> None)
  | _ -> None

let install c =
  Mutex.lock lock;
  config := c;
  Hashtbl.reset hits;
  Atomic.set armed (c <> None);
  Mutex.unlock lock

(* The FACTOR_CHAOS configuration, parsed on first use; {!clear}
   restores it. *)
let env_loaded = ref false
let env_config : cfg option ref = ref None

let load_env () =
  if not !env_loaded then begin
    Mutex.lock lock;
    if not !env_loaded then begin
      env_loaded := true;
      match Sys.getenv_opt "FACTOR_CHAOS" with
      | None -> ()
      | Some s ->
        (match parse_env s with
         | Some c ->
           env_config := Some c;
           config := Some c;
           Atomic.set armed true
         | None ->
           Obs.Log.warnf "ignoring malformed FACTOR_CHAOS=%S" s)
    end;
    Mutex.unlock lock
  end

let set ~seed ~rate ?(mode = All) ?prefix () =
  load_env ();
  install
    (Some { c_seed = seed; c_rate = rate; c_mode = mode;
            c_prefixes =
              (match prefix with None -> [] | Some p -> parse_prefixes p) })

let clear () =
  load_env ();
  install !env_config

let active () =
  if Atomic.get armed then true
  else begin
    load_env ();
    Atomic.get armed
  end

(* Deterministic per-(seed, site, occurrence) draw.  Hashtbl.hash only
   folds over a prefix of long strings, so mix the full site content in
   explicitly. *)
let draw cfg site n =
  let h = ref (cfg.c_seed lxor (n * 0x9e3779b1)) in
  String.iter
    (fun ch -> h := (!h * 31 + Char.code ch) land 0x3FFFFFFF)
    site;
  let h = Hashtbl.hash (!h, cfg.c_seed, n) land 0xFFFFFF in
  float_of_int h /. 16777216.0

let decide site =
  Mutex.lock lock;
  let r =
    match !config with
    | None -> None
    | Some cfg ->
      let skip =
        match cfg.c_prefixes with
        | [] -> false
        | ps ->
          not (List.exists (fun p -> String.starts_with ~prefix:p site) ps)
      in
      if skip then None
      else begin
        let n = try Hashtbl.find hits site with Not_found -> 0 in
        Hashtbl.replace hits site (n + 1);
        let u = draw cfg site n in
        if u >= cfg.c_rate then None
        else
          (* reuse low-order structure of a second draw to pick the
             flavour and the delay length deterministically *)
          let v = draw cfg (site ^ "#flavour") n in
          Some (cfg.c_mode, v)
      end
  in
  Mutex.unlock lock;
  r

let delay_of v = 0.0005 +. (v *. 0.004)   (* 0.5 .. 4.5 ms *)

let inject site =
  Obs.Metrics.incr (Lazy.force m_injected);
  Obs.Log.event Obs.Log.Warn "chaos.injected"
    [ ("site", Obs.Json.String site) ];
  raise (Injected site)

let delay site v =
  Obs.Metrics.incr (Lazy.force m_delayed);
  Obs.Log.event Obs.Log.Debug "chaos.delayed"
    [ ("site", Obs.Json.String site) ];
  Unix.sleepf (delay_of v)

let point site =
  if active () then
    match decide site with
    | None -> ()
    | Some (Fail_only, _) -> inject site
    | Some (Delay_only, v) -> delay site v
    | Some (All, v) -> if v < 0.5 then inject site else delay site v

let delay_point site =
  if active () then
    match decide site with
    | None | Some (Fail_only, _) -> ()
    | Some ((All | Delay_only), v) -> delay site v

let abort_point site =
  if not (active ()) then false
  else
    match decide site with
    | None | Some (Delay_only, _) -> false
    | Some ((All | Fail_only), _) ->
      Obs.Metrics.incr (Lazy.force m_injected);
      Obs.Log.event Obs.Log.Warn "chaos.injected"
        [ ("site", Obs.Json.String site);
          ("kind", Obs.Json.String "abort") ];
      true
