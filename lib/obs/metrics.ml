type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  h_counts : int Atomic.t array;  (* one per bound, then the overflow *)
  h_sum : float Atomic.t;
  h_max : float Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

(* Every histogram's bucket upper bounds, seconds-scale latencies:
   1 µs .. ~537 s, doubling. *)
let bounds = Array.init 30 (fun i -> 1e-6 *. Float.pow 2.0 (float_of_int i))

let intern name make project kind =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m ->
        (match project m with
         | Some v -> v
         | None ->
           invalid_arg
             (Printf.sprintf
                "Obs.Metrics: %s already registered with a kind other than %s"
                name kind))
      | None ->
        let (m, v) = make () in
        Hashtbl.add registry name m;
        v)

let counter name =
  intern name
    (fun () ->
      let c = Atomic.make 0 in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)
    "counter"

let incr c = ignore (Atomic.fetch_and_add c 1)
let add c k = ignore (Atomic.fetch_and_add c k)
let value c = Atomic.get c

let gauge name =
  intern name
    (fun () ->
      let g = Atomic.make 0.0 in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let set g v = Atomic.set g v
let get g = Atomic.get g

let histogram name =
  intern name
    (fun () ->
      let h =
        { h_counts =
            Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.0;
          h_max = Atomic.make neg_infinity }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)
    "histogram"

(* CAS update loop for float cells (fetch-and-add only exists for ints). *)
let rec cas_update cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then cas_update cell f

let observe h v =
  let nb = Array.length bounds in
  let rec bucket i =
    if i >= nb || v <= bounds.(i) then i else bucket (i + 1)
  in
  ignore (Atomic.fetch_and_add h.h_counts.(bucket 0) 1);
  cas_update h.h_sum (fun s -> s +. v);
  cas_update h.h_max (fun m -> if v > m then v else m)

let count h =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 h.h_counts

let sum h = Atomic.get h.h_sum

(* Percentile over plain bucket counts; shared by the live histogram
   reader and snapshot-delta rendering. *)
let percentile_of ~counts ~max_v p =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int total)))
    in
    let nb = Array.length bounds in
    let rec walk i seen =
      if i >= nb then max_v
      else
        let seen = seen + counts.(i) in
        if seen >= rank then bounds.(i) else walk (i + 1) seen
    in
    walk 0 0
  end

let percentile h p =
  percentile_of
    ~counts:(Array.map Atomic.get h.h_counts)
    ~max_v:(Atomic.get h.h_max) p

let histogram_json h =
  let n = count h in
  Json.Obj
    [ ("count", Json.Int n);
      ("sum", Json.Float (sum h));
      ("p50", Json.Float (percentile h 50.0));
      ("p90", Json.Float (percentile h 90.0));
      ("p99", Json.Float (percentile h 99.0));
      ("max", Json.Float (if n = 0 then 0.0 else Atomic.get h.h_max)) ]

let metric_json = function
  | Counter c -> Json.Int (value c)
  | Gauge g -> Json.Float (get g)
  | Histogram h -> histogram_json h

let dump () =
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Json.Obj (List.map (fun (name, m) -> (name, metric_json m)) entries)

let dump_string () = Json.to_string (dump ())

let find name =
  Mutex.protect registry_lock (fun () ->
      Option.map metric_json (Hashtbl.find_opt registry name))

(* ------------------------------------------------------------------ *)
(* Snapshots and deltas: reset-free per-request accounting.  A snapshot
   copies every cell once; [diff a b] reports what moved between the two
   without disturbing the live registry, so concurrent readers (and the
   exit-time dump) are unaffected.                                      *)
(* ------------------------------------------------------------------ *)

type snap_value =
  | S_counter of int
  | S_gauge of float
  | S_hist of {
      sh_counts : int array;
      sh_sum : float;
      sh_max : float;
    }

type snapshot = (string, snap_value) Hashtbl.t

let snapshot () : snapshot =
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  let snap = Hashtbl.create (List.length entries) in
  List.iter
    (fun (name, m) ->
      let v =
        match m with
        | Counter c -> S_counter (Atomic.get c)
        | Gauge g -> S_gauge (Atomic.get g)
        | Histogram h ->
          S_hist
            { sh_counts = Array.map Atomic.get h.h_counts;
              sh_sum = Atomic.get h.h_sum;
              sh_max = Atomic.get h.h_max }
      in
      Hashtbl.add snap name v)
    entries;
  snap

let hist_delta_json ~counts ~sum ~max_v =
  let n = Array.fold_left ( + ) 0 counts in
  Json.Obj
    [ ("count", Json.Int n);
      ("sum", Json.Float sum);
      ("p50", Json.Float (percentile_of ~counts ~max_v 50.0));
      ("p90", Json.Float (percentile_of ~counts ~max_v 90.0));
      ("p99", Json.Float (percentile_of ~counts ~max_v 99.0));
      ("max", Json.Float (if n = 0 then 0.0 else max_v)) ]

(* [diff before after]: counters and histogram cells subtract (a metric
   born after [before] counts from zero); gauges report the [after]
   value.  Entries that did not move are dropped, so a request that
   touched three subsystems yields a three-line delta.  A histogram's
   [max] is the max over the whole run, not the window — bucket counts
   cannot recover the window max. *)
let diff (before : snapshot) (after : snapshot) =
  let fields =
    Hashtbl.fold
      (fun name v acc ->
        match v with
        | S_counter b ->
          let a =
            match Hashtbl.find_opt before name with
            | Some (S_counter a) -> a
            | _ -> 0
          in
          if b <> a then (name, Json.Int (b - a)) :: acc else acc
        | S_gauge g ->
          let changed =
            match Hashtbl.find_opt before name with
            | Some (S_gauge a) -> a <> g
            | _ -> true
          in
          if changed then (name, Json.Float g) :: acc else acc
        | S_hist h ->
          let prev_counts, prev_sum =
            match Hashtbl.find_opt before name with
            | Some (S_hist p) -> (p.sh_counts, p.sh_sum)
            | _ -> (Array.map (fun _ -> 0) h.sh_counts, 0.0)
          in
          let counts = Array.mapi (fun i c -> c - prev_counts.(i)) h.sh_counts in
          if Array.exists (fun c -> c <> 0) counts then
            ( name,
              hist_delta_json ~counts
                ~sum:(h.sh_sum -. prev_sum) ~max_v:h.sh_max )
            :: acc
          else acc)
      after []
  in
  Json.Obj (List.sort (fun (a, _) (b, _) -> compare a b) fields)

let snapshot_counter (snap : snapshot) name =
  match Hashtbl.find_opt snap name with
  | Some (S_counter c) -> c
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4), for the serve daemon's
   [metrics] request.                                                   *)
(* ------------------------------------------------------------------ *)

let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let dump_prometheus () =
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      let n = prom_name name in
      match m with
      | Counter c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" n (Atomic.get c))
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" n (prom_float (Atomic.get g)))
      | Histogram h ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + Atomic.get h.h_counts.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                 (prom_float bound) !cum))
          bounds;
        let total = !cum + Atomic.get h.h_counts.(Array.length bounds) in
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n total);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" n (prom_float (Atomic.get h.h_sum)));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n total))
    entries;
  Buffer.contents buf
