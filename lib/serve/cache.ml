(** Resident + on-disk design cache.  See the mli for the two-level
    content-addressing scheme. *)

module Compose = Factor.Compose

type outcome = Cold | Warm_mem | Warm_disk

let outcome_to_string = function
  | Cold -> "cold"
  | Warm_mem -> "warm-mem"
  | Warm_disk -> "warm-disk"

type entry = {
  e_fp : string;
  e_top : string;
  e_design : Verilog.Ast.design;
  e_env : Compose.env;
  e_session : Compose.session;
  e_lock : Mutex.t;
  mutable e_circuit : Netlist.t option;
  e_transforms :
    (string, Factor.Transform.t * Compose.stats) Hashtbl.t;
  (* changed since its blob was last written; under [e_lock] *)
  mutable e_dirty : bool;
  (* serializes this entry's blob writes, so an older snapshot never
     lands on disk after a newer one *)
  e_flush : Mutex.t;
  e_store : Store.t option;
}

(* The persisted image of an entry: everything except locks and the
   store handle.  Pure data throughout (ASTs, functional maps, netlists,
   the exported session), so a single Marshal round-trips it. *)
type blob = {
  b_fp : string;
  b_top : string;
  b_design : Verilog.Ast.design;
  b_env : Compose.env;
  b_session : Compose.session_state;
  b_circuit : Netlist.t option;
  b_transforms : (string * (Factor.Transform.t * Compose.stats)) list;
}

type t = {
  c_store : Store.t option;
  c_lock : Mutex.t;
  (* alias hash (raw source+top) -> chain fingerprint *)
  c_alias : (string, string) Hashtbl.t;
  (* chain fingerprint -> resident entry *)
  c_entries : (string, entry) Hashtbl.t;
  (* LRU bound on [c_entries]; [None] = unbounded *)
  c_max : int option;
  (* logical clock + fingerprint -> last-use stamp, under [c_lock] *)
  mutable c_clock : int;
  c_stamp : (string, int) Hashtbl.t;
}

let m_cold = Obs.Metrics.counter "factor.serve.cache_cold"
let m_warm_mem = Obs.Metrics.counter "factor.serve.cache_warm_mem"
let m_warm_disk = Obs.Metrics.counter "factor.serve.cache_warm_disk"
let m_evicted = Obs.Metrics.counter "factor.serve.cache_evicted"

let create ?store ?max_resident () =
  { c_store = store;
    c_lock = Mutex.create ();
    c_alias = Hashtbl.create 16;
    c_entries = Hashtbl.create 16;
    c_max = Option.map (max 1) max_resident;
    c_clock = 0;
    c_stamp = Hashtbl.create 16 }

let fingerprint e = e.e_fp
let env e = e.e_env

let resident t =
  Mutex.protect t.c_lock @@ fun () -> Hashtbl.length t.c_entries

(* Call with [c_lock] held. *)
let touch t fp =
  t.c_clock <- t.c_clock + 1;
  Hashtbl.replace t.c_stamp fp t.c_clock

(* Call with [c_lock] held.  Eviction only forgets the resident image:
   the on-disk blob and alias edges survive, so a re-request of an
   evicted design comes back [Warm_disk] (or rebuilds cold without a
   store) through the ordinary miss path. *)
let evict_over_cap t =
  match t.c_max with
  | None -> ()
  | Some cap ->
    while Hashtbl.length t.c_entries > cap do
      let victim =
        Hashtbl.fold
          (fun fp _ acc ->
            let stamp =
              Option.value (Hashtbl.find_opt t.c_stamp fp)
                ~default:min_int
            in
            match acc with
            | Some (_, best) when best <= stamp -> acc
            | _ -> Some (fp, stamp))
          t.c_entries None
      in
      match victim with
      | None -> ()
      | Some (fp, _) ->
        Hashtbl.remove t.c_entries fp;
        Hashtbl.remove t.c_stamp fp;
        let aliases =
          Hashtbl.fold
            (fun a fp' acc -> if fp' = fp then a :: acc else acc)
            t.c_alias []
        in
        List.iter (Hashtbl.remove t.c_alias) aliases;
        Obs.Metrics.incr m_evicted
    done

(* ------------------------------------------------------------------ *)
(* Persistence.                                                        *)
(* ------------------------------------------------------------------ *)

let full_key fp = "full-" ^ fp
let alias_key alias = "alias-" ^ alias

(* Writes the entry's blob if it changed since the last write.  The
   snapshot (circuit, sorted transforms, dirty bit) is taken under
   [e_lock], so a concurrent [transform] on another domain cannot race
   the fold; marshalling and the write run outside it. *)
let persist_entry e =
  match e.e_store with
  | None -> ()
  | Some store ->
    Mutex.protect e.e_flush @@ fun () ->
    let snapshot =
      Mutex.protect e.e_lock @@ fun () ->
      if not e.e_dirty then None
      else begin
        e.e_dirty <- false;
        Some
          ( e.e_circuit,
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.e_transforms []
            |> List.sort (fun (a, _) (b, _) -> compare a b) )
      end
    in
    match snapshot with
    | None -> ()
    | Some (circuit, transforms) ->
      let blob =
        { b_fp = e.e_fp;
          b_top = e.e_top;
          b_design = e.e_design;
          b_env = e.e_env;
          b_session = Compose.export_session e.e_session;
          b_circuit = circuit;
          b_transforms = transforms }
      in
      (try Store.put_value store ~key:(full_key e.e_fp) blob with
       | ex ->
         Mutex.protect e.e_lock (fun () -> e.e_dirty <- true);
         raise ex)

(* Entries changed inside a {!batch} on this domain, written when the
   batch ends; [None] outside one, where a change is written at once. *)
let pending : entry list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Call after marking [e] dirty, without [e_lock]. *)
let changed e =
  match Domain.DLS.get pending with
  | Some l -> if not (List.memq e !l) then l := e :: !l
  | None -> persist_entry e

(* A failed write leaves the entry dirty, so its next change writes it
   again; the request that derived it still gets its answer. *)
let flush_quietly e =
  try persist_entry e with
  | ex ->
    Obs.Log.warnf "serve: cannot write cache entry %s: %s" e.e_fp
      (Printexc.to_string ex)

let batch f =
  let mine = ref [] in
  let outer = Domain.DLS.get pending in
  Domain.DLS.set pending (Some mine);
  Fun.protect f ~finally:(fun () ->
      Domain.DLS.set pending outer;
      List.iter flush_quietly (List.rev !mine))

(* Alias edges go through the digested value path, like blobs: the
   digest binds the fingerprint to its own key, so an edge swapped in
   from another alias, or one written bare by an older build, reads as a
   miss instead of naming another design's blob. *)
let persist_alias t ~alias ~fp =
  match t.c_store with
  | None -> ()
  | Some store -> Store.put_value store ~key:(alias_key alias) (fp : string)

let entry_of_blob t (b : blob) =
  { e_fp = b.b_fp;
    e_top = b.b_top;
    e_design = b.b_design;
    e_env = b.b_env;
    e_session = Compose.import_session b.b_session;
    e_lock = Mutex.create ();
    e_circuit = b.b_circuit;
    e_transforms =
      (let h = Hashtbl.create 8 in
       List.iter (fun (k, v) -> Hashtbl.replace h k v) b.b_transforms;
       h);
    e_dirty = false;
    e_flush = Mutex.create ();
    e_store = t.c_store }

let load_from_store t ~fp =
  match t.c_store with
  | None -> None
  | Some store ->
    (match Store.get_value store ~key:(full_key fp) with
     | Some (b : blob) when b.b_fp = fp -> Some (entry_of_blob t b)
     | Some _ | None -> None)

(* ------------------------------------------------------------------ *)
(* Lookup.                                                             *)
(* ------------------------------------------------------------------ *)

let parse_design ?file ?guard source =
  try Verilog.Parser.parse_design ?guard source with
  | (Verilog.Lexer.Error _ | Verilog.Parser.Error _) as e ->
    raise (Factor.Errors.Error (Option.get (Factor.Errors.of_exn ?file e)))

let resolve_top ?file (design : Verilog.Ast.design) = function
  | Some top -> top
  | None ->
    (match List.rev design.Verilog.Ast.modules with
     | last :: _ -> last.Verilog.Ast.mod_name
     | [] ->
       Factor.Errors.fail ?file Factor.Errors.Elaborate
         "empty design: no modules to pick a top from")

(* Call with [c_lock] held. *)
let install t ~alias entry =
  Hashtbl.replace t.c_entries entry.e_fp entry;
  Hashtbl.replace t.c_alias alias entry.e_fp;
  touch t entry.e_fp;
  evict_over_cap t

(* An alias edge read back from disk must name a chain fingerprint
   (hex MD5) before it is used as part of a key. *)
let is_fingerprint s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* The cache lock covers the index lookups and installs only; parsing,
   elaboration and store I/O run outside it, so one cold build does not
   stall unrelated warm hits.  Two racing cold builds of the same design
   converge: both compute identical entries and the second install wins
   harmlessly. *)
let find_or_build ?file t ~budget ~source ~top =
  let alias =
    Compose.source_fingerprint ~source
      ~top:(Option.value top ~default:"")
  in
  let resident_hit =
    Mutex.protect t.c_lock @@ fun () ->
    match Hashtbl.find_opt t.c_alias alias with
    | Some fp ->
      let hit = Hashtbl.find_opt t.c_entries fp in
      if hit <> None then touch t fp;
      hit
    | None -> None
  in
  match resident_hit with
  | Some e ->
    Obs.Metrics.incr m_warm_mem;
    (e, Warm_mem)
  | None ->
    (* alias unknown (or entry evicted): check the disk alias edge
       before paying for a parse *)
    let disk_fp =
      match t.c_store with
      | None -> None
      | Some store ->
        Option.bind (Store.get_value store ~key:(alias_key alias))
          (fun (fp : string) -> if is_fingerprint fp then Some fp else None)
    in
    (* [on_disk]: the alias edge was read from the store, so it is not
       written back *)
    let from_fp ~on_disk fp =
      match
        Mutex.protect t.c_lock @@ fun () -> Hashtbl.find_opt t.c_entries fp
      with
      | Some e ->
        Mutex.protect t.c_lock (fun () ->
            Hashtbl.replace t.c_alias alias fp;
            touch t fp);
        if not on_disk then persist_alias t ~alias ~fp;
        Obs.Metrics.incr m_warm_mem;
        Some (e, Warm_mem)
      | None ->
        (match load_from_store t ~fp with
         | Some e ->
           Mutex.protect t.c_lock (fun () -> install t ~alias e);
           if not on_disk then persist_alias t ~alias ~fp;
           Obs.Metrics.incr m_warm_disk;
           Some (e, Warm_disk)
         | None -> None)
    in
    (match Option.bind disk_fp (from_fp ~on_disk:true) with
     | Some hit -> hit
     | None ->
       (* parse, fingerprint the module chain, and try again: a
          whitespace-only edit or a new alias of a known design lands
          here and still avoids elaboration and extraction *)
       let guard () = Engine.Budget.guard ~site:"parse" budget in
       let design = parse_design ?file ~guard source in
       let top = resolve_top ?file design top in
       let fp = Compose.design_fingerprint design ~top in
       (match from_fp ~on_disk:false fp with
        | Some hit -> hit
        | None ->
          let env = Compose.make_env ~budget design ~top in
          let e =
            { e_fp = fp;
              e_top = top;
              e_design = design;
              e_env = env;
              e_session = Compose.create_session ();
              e_lock = Mutex.create ();
              e_circuit = None;
              e_transforms = Hashtbl.create 8;
              e_dirty = true;
              e_flush = Mutex.create ();
              e_store = t.c_store }
          in
          Mutex.protect t.c_lock (fun () -> install t ~alias e);
          persist_alias t ~alias ~fp;
          changed e;
          Obs.Metrics.incr m_cold;
          (e, Cold)))

(* ------------------------------------------------------------------ *)
(* Derived artifacts.                                                  *)
(* ------------------------------------------------------------------ *)

let m_synth_hits = Obs.Metrics.counter "factor.serve.synth_hits"
let m_tf_hits = Obs.Metrics.counter "factor.serve.transform_hits"

let circuit e =
  let cached = Mutex.protect e.e_lock @@ fun () -> e.e_circuit in
  match cached with
  | Some c ->
    Obs.Metrics.incr m_synth_hits;
    c
  | None ->
    let c = Factor.Flow.full_circuit e.e_env in
    let fresh =
      Mutex.protect e.e_lock @@ fun () ->
      if Option.is_some e.e_circuit then false
      else begin
        e.e_circuit <- Some c;
        e.e_dirty <- true;
        true
      end
    in
    if fresh then changed e;
    c

let transform e ~budget ~mut ~mode =
  let key = Factor.Flow.mode_name mode ^ "|" ^ mut in
  let cached =
    Mutex.protect e.e_lock @@ fun () -> Hashtbl.find_opt e.e_transforms key
  in
  match cached with
  | Some r ->
    Obs.Metrics.incr m_tf_hits;
    (r, true)
  | None ->
    let (tf, stats) =
      Factor.Flow.build_transform ~budget e.e_env e.e_session mode
        ~mut_path:mut
    in
    let fresh =
      Mutex.protect e.e_lock @@ fun () ->
      if Hashtbl.mem e.e_transforms key then false
      else begin
        Hashtbl.replace e.e_transforms key (tf, stats);
        e.e_dirty <- true;
        true
      end
    in
    if fresh then changed e;
    ((tf, stats), false)
