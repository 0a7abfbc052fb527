(** Gate-level netlist.  Nets are integers; every net has exactly one
    driver.  The builder hash-conses combinational gates and applies local
    simplification rules, which is the "synthesis removes the redundant
    constraints" step the paper relies on. *)

type g1 = Inv | Buff
type g2 = And | Or | Xor | Nand | Nor | Xnor

type driver =
  | Pi of int                (** primary input index *)
  | Ff of int                (** flip-flop q, index into ff table *)
  | C0
  | C1
  | G1 of g1 * int
  | G2 of g2 * int * int
  | Mux of int * int * int   (** select, value-when-0, value-when-1 *)

type t = {
  drv : driver array;              (** indexed by net *)
  pis : int array;                 (** net of each primary input *)
  pi_names : string array;
  pos : int array;                 (** net observed by each primary output *)
  po_names : string array;
  ff_d : int array;                (** d input net of each flip-flop *)
  ff_q : int array;                (** q net of each flip-flop *)
  ff_names : string array;
  origin : string array;           (** per net: instance path that produced it *)
}

let num_nets c = Array.length c.drv
let num_pis c = Array.length c.pis
let num_pos c = Array.length c.pos
let num_ffs c = Array.length c.ff_d

let under_prefix prefix origin =
  String.equal origin prefix
  || (String.length origin > String.length prefix
      && String.sub origin 0 (String.length prefix) = prefix
      && (prefix = "" || origin.[String.length prefix] = '.'))

(* ------------------------------------------------------------------ *)
(* Builder.                                                            *)
(* ------------------------------------------------------------------ *)

(* Hash-consing compares a driver and an interned origin id by hand,
   with int hashing: a lookup never hashes the origin string or walks
   the driver generically. *)
let same_driver d d' =
  match (d, d') with
  | (G2 (g, a, b), G2 (g', a', b')) -> g == g' && a = a' && b = b'
  | (G1 (g, a), G1 (g', a')) -> g == g' && a = a'
  | (Mux (s, a, b), Mux (s', a', b')) -> s = s' && a = a' && b = b'
  | (Pi i, Pi i') | (Ff i, Ff i') -> i = i'
  | (C0, C0) | (C1, C1) -> true
  | _ -> false

let mix h x = (h lxor x) * 0x100000001b3

let hash_key origin d =
  let h =
    match d with
    | G2 (g, a, b) ->
      let tag =
        match g with
        | And -> 0 | Or -> 1 | Xor -> 2 | Nand -> 3 | Nor -> 4 | Xnor -> 5
      in
      mix (mix (mix 7 tag) a) b
    | G1 (Inv, a) -> mix 11 a
    | G1 (Buff, a) -> mix 13 a
    | Mux (s, a, b) -> mix (mix (mix 17 s) a) b
    | Pi i -> mix 19 i
    | Ff i -> mix 23 i
    | C0 -> 29
    | C1 -> 31
  in
  let h = mix h origin in
  h lxor (h lsr 29)

type builder = {
  mutable b_drv : driver array;
  mutable b_origin : string array;
  mutable b_n : int;
  mutable b_key_origin : int array;
      (* per net: the origin id it is hash-consed under.  Hash-consing
         is scoped by origin: a module under test keeps its own gates
         even when the surrounding logic contains identical ones, so
         fault sites never migrate across module boundaries *)
  mutable b_slots : int array;
      (* the hash-consed nets, open addressing with linear probing;
         -1 is empty, the length a power of two at most half full *)
  mutable b_consed : int;  (* nets in [b_slots] *)
  b_origin_ids : (string, int) Hashtbl.t;  (* origin -> interned id *)
  mutable b_pis : (string * int) list;      (* reverse order *)
  mutable b_npis : int;
  mutable b_pos : (string * int) list;
  mutable b_ffs : (string * int) list;      (* name, q net; reverse order *)
  mutable b_nffs : int;
  mutable b_ff_d : int array;  (* d net by flip-flop index, -1 until patched *)
  mutable b_ctx : string;  (* current origin tag *)
  mutable b_ctx_id : int;  (* its interned id *)
}

let create_builder () =
  let ids = Hashtbl.create 64 in
  Hashtbl.add ids "" 0;
  { b_drv = Array.make 1024 C0;
    b_origin = Array.make 1024 "";
    b_n = 0;
    b_key_origin = Array.make 1024 0;
    b_slots = Array.make 4096 (-1);
    b_consed = 0;
    b_origin_ids = ids;
    b_pis = [];
    b_npis = 0;
    b_pos = [];
    b_ffs = [];
    b_nffs = 0;
    b_ff_d = Array.make 64 (-1);
    b_ctx = "";
    b_ctx_id = 0 }

(** Set the origin tag recorded on nets created from now on (instance
    path during flattening). *)
let set_context b ctx =
  if ctx != b.b_ctx then begin
    b.b_ctx <- ctx;
    b.b_ctx_id <-
      (match Hashtbl.find_opt b.b_origin_ids ctx with
       | Some id -> id
       | None ->
         let id = Hashtbl.length b.b_origin_ids in
         Hashtbl.add b.b_origin_ids ctx id;
         id)
  end

let get_context b = b.b_ctx

let fresh_net b d =
  if b.b_n = Array.length b.b_drv then begin
    let drv = Array.make (2 * b.b_n) C0 in
    Array.blit b.b_drv 0 drv 0 b.b_n;
    b.b_drv <- drv;
    let origin = Array.make (2 * b.b_n) "" in
    Array.blit b.b_origin 0 origin 0 b.b_n;
    b.b_origin <- origin;
    let key_origin = Array.make (2 * b.b_n) 0 in
    Array.blit b.b_key_origin 0 key_origin 0 b.b_n;
    b.b_key_origin <- key_origin
  end;
  let n = b.b_n in
  b.b_drv.(n) <- d;
  b.b_origin.(n) <- b.b_ctx;
  b.b_n <- n + 1;
  n

(* The slot holding the net hash-consed as [(origin, d)], or the empty
   slot where it belongs. *)
let rec probe b origin d mask i =
  let n = b.b_slots.(i) in
  if n < 0 || (b.b_key_origin.(n) = origin && same_driver b.b_drv.(n) d) then i
  else probe b origin d mask ((i + 1) land mask)

let find_slot b origin d =
  let mask = Array.length b.b_slots - 1 in
  probe b origin d mask (hash_key origin d land mask)

let grow_slots b =
  let old = b.b_slots in
  b.b_slots <- Array.make (2 * Array.length old) (-1);
  Array.iter
    (fun n ->
      if n >= 0 then
        b.b_slots.(find_slot b b.b_key_origin.(n) b.b_drv.(n)) <- n)
    old

let hashcons b d =
  (* constants are shared globally (under the id of the empty origin);
     everything else within its origin *)
  let origin = match d with C0 | C1 -> 0 | _ -> b.b_ctx_id in
  let i = find_slot b origin d in
  let n = b.b_slots.(i) in
  if n >= 0 then n
  else begin
    let n = fresh_net b d in
    b.b_key_origin.(n) <- origin;
    b.b_slots.(i) <- n;
    b.b_consed <- b.b_consed + 1;
    if 2 * b.b_consed > Array.length b.b_slots then grow_slots b;
    n
  end

let const0 b = hashcons b C0
let const1 b = hashcons b C1

let add_pi b name =
  let n = fresh_net b (Pi b.b_npis) in
  b.b_pis <- (name, n) :: b.b_pis;
  b.b_npis <- b.b_npis + 1;
  n

let add_po b name net = b.b_pos <- (name, net) :: b.b_pos

(** Allocate a flip-flop; returns its q net.  The d input is patched later
    with [set_ff_d], allowing feedback through state. *)
let add_ff b name =
  let idx = b.b_nffs in
  if idx = Array.length b.b_ff_d then begin
    let ff_d = Array.make (2 * idx) (-1) in
    Array.blit b.b_ff_d 0 ff_d 0 idx;
    b.b_ff_d <- ff_d
  end;
  let q = fresh_net b (Ff idx) in
  b.b_ffs <- (name, q) :: b.b_ffs;
  b.b_nffs <- idx + 1;
  q

(* O(1): the q net's driver names the flip-flop's index *)
let set_ff_d b q d =
  match b.b_drv.(q) with
  | Ff i -> b.b_ff_d.(i) <- d
  | _ -> invalid_arg "Netlist.set_ff_d: not a flip-flop q net"

let is_const0 b n = match b.b_drv.(n) with C0 -> true | _ -> false
let is_const1 b n = match b.b_drv.(n) with C1 -> true | _ -> false

(* Local simplification rules, then hash-consing.  Inputs of commutative
   gates are ordered so that structurally equal gates unify. *)
let mk_not b a =
  if is_const0 b a then const1 b
  else if is_const1 b a then const0 b
  else
    match b.b_drv.(a) with
    | G1 (Inv, x) -> x
    | _ -> hashcons b (G1 (Inv, a))

let mk_buf _b a = a

(** A buffer that really exists in the netlist: used at module port
    boundaries so every hierarchical pin has its own fault site. *)
let mk_hard_buf b a = hashcons b (G1 (Buff, a))

let rec mk_and b a0 a1 =
  let (a0, a1) = if a0 <= a1 then (a0, a1) else (a1, a0) in
  if is_const0 b a0 || is_const0 b a1 then const0 b
  else if is_const1 b a0 then a1
  else if is_const1 b a1 then a0
  else if a0 = a1 then a0
  else if complementary b a0 a1 then const0 b
  else hashcons b (G2 (And, a0, a1))

and mk_or b a0 a1 =
  let (a0, a1) = if a0 <= a1 then (a0, a1) else (a1, a0) in
  if is_const1 b a0 || is_const1 b a1 then const1 b
  else if is_const0 b a0 then a1
  else if is_const0 b a1 then a0
  else if a0 = a1 then a0
  else if complementary b a0 a1 then const1 b
  else hashcons b (G2 (Or, a0, a1))

and mk_xor b a0 a1 =
  let (a0, a1) = if a0 <= a1 then (a0, a1) else (a1, a0) in
  if a0 = a1 then const0 b
  else if is_const0 b a0 then a1
  else if is_const0 b a1 then a0
  else if is_const1 b a0 then mk_not b a1
  else if is_const1 b a1 then mk_not b a0
  else if complementary b a0 a1 then const1 b
  else hashcons b (G2 (Xor, a0, a1))

and complementary b x y =
  match (b.b_drv.(x), b.b_drv.(y)) with
  | (G1 (Inv, x'), _) when x' = y -> true
  | (_, G1 (Inv, y')) when y' = x -> true
  | _ -> false

let mk_nand b a0 a1 = mk_not b (mk_and b a0 a1)
let mk_nor b a0 a1 = mk_not b (mk_or b a0 a1)
let mk_xnor b a0 a1 = mk_not b (mk_xor b a0 a1)

let mk_mux b s a0 a1 =
  (* select s: 0 -> a0, 1 -> a1 *)
  if is_const0 b s then a0
  else if is_const1 b s then a1
  else if a0 = a1 then a0
  else if is_const0 b a0 && is_const1 b a1 then s
  else if is_const1 b a0 && is_const0 b a1 then mk_not b s
  else if is_const0 b a0 then mk_and b s a1
  else if is_const1 b a1 then mk_or b s a0
  else if is_const1 b a0 then mk_or b (mk_not b s) a1
  else if is_const0 b a1 then mk_and b (mk_not b s) a0
  else hashcons b (Mux (s, a0, a1))

exception Error of string  (** structural invariant violation *)

(** Freeze the builder into an immutable netlist.
    @raise Error if some flip-flop was never given a d input. *)
let finalize b =
  let pis = List.rev b.b_pis in
  let pos = List.rev b.b_pos in
  let ffs = List.rev b.b_ffs in
  let ff_d = Array.sub b.b_ff_d 0 b.b_nffs in
  List.iteri
    (fun i (name, _) ->
      if ff_d.(i) < 0 then
        raise (Error (Printf.sprintf "flip-flop %s has no d input" name)))
    ffs;
  { drv = Array.sub b.b_drv 0 b.b_n;
    origin = Array.sub b.b_origin 0 b.b_n;
    pis = Array.of_list (List.map snd pis);
    pi_names = Array.of_list (List.map fst pis);
    pos = Array.of_list (List.map snd pos);
    po_names = Array.of_list (List.map fst pos);
    ff_q = Array.of_list (List.map snd ffs);
    ff_d;
    ff_names = Array.of_list (List.map fst ffs) }

(* ------------------------------------------------------------------ *)
(* Structure queries.                                                  *)
(* ------------------------------------------------------------------ *)

let fanins = function
  | Pi _ | Ff _ | C0 | C1 -> []
  | G1 (_, a) -> [ a ]
  | G2 (_, a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]

(** Topological order of all nets: fanins before fanouts.  FF q nets are
    sources.  @raise Error on a combinational cycle. *)
let topological_order c =
  let n = num_nets c in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let order = ref [] in
  let rec visit net =
    match state.(net) with
    | 2 -> ()
    | 1 -> raise (Error "combinational cycle in netlist")
    | _ ->
      state.(net) <- 1;
      List.iter visit (fanins c.drv.(net));
      state.(net) <- 2;
      order := net :: !order
  in
  for net = 0 to n - 1 do
    visit net
  done;
  Array.of_list (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Shared structural analysis.                                         *)
(* ------------------------------------------------------------------ *)

module Analysis = struct
  let op_pi = 0
  let op_ff = 1
  let op_c0 = 2
  let op_c1 = 3
  let op_buf = 4
  let op_inv = 5
  let op_and = 6
  let op_or = 7
  let op_xor = 8
  let op_nand = 9
  let op_nor = 10
  let op_xnor = 11
  let op_mux = 12

  type info = {
    order : int array;       (** topological order, fanins first *)
    level : int array;       (** per net: longest path from a source *)
    max_level : int;
    fanout : int array;      (** gate-read fanouts, flattened (CSR) *)
    fanout_off : int array;  (** per net: offset into [fanout]; length
                                 num_nets + 1 *)
    position : int array;    (** per net: its index in [order] *)
    ff_of_d : int array;     (** flip-flops grouped by d-input net (CSR) *)
    ff_of_d_off : int array; (** per net: offset into [ff_of_d]; length
                                 num_nets + 1 *)
    op : Bytes.t;            (** per net: the driver's opcode *)
    fanin : int array;       (** per net [k]: a, b, select at [3k..3k+2] *)
    level_off : int array;   (** per level: offset of its nets in a
                                 level-bucketed array; length
                                 max_level + 2 *)
    is_po : Bytes.t;         (** per net: 1 if observed by a primary
                                 output, else 0 *)
  }
end

let analysis_build_count = ref 0
let analysis_builds () = !analysis_build_count

(* Memoized per circuit by physical equality.  The cache is a short
   list of the most recent builds, each an ephemeron keyed on its
   circuit: flows work on a handful of circuits at a time, and a circuit
   nothing else references (one the daemon evicted, say) is collected
   together with its analysis instead of being held by the cache.
   Guarded by a mutex — the parallel engine's fault shards and MUT flows
   all consult it concurrently. *)
let analysis_cache : (t, Analysis.info) Ephemeron.K1.t list ref = ref []
let analysis_cache_max = 8
let analysis_mutex = Mutex.create ()

let build_analysis c =
  incr analysis_build_count;
  let n = num_nets c in
  let order = topological_order c in
  let level = Array.make n 0 in
  let max_level = ref 0 in
  Array.iter
    (fun net ->
      List.iter
        (fun a -> if level.(net) <= level.(a) then level.(net) <- level.(a) + 1)
        (fanins c.drv.(net));
      if level.(net) > !max_level then max_level := level.(net))
    order;
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun d -> List.iter (fun a -> off.(a + 1) <- off.(a + 1) + 1) (fanins d))
    c.drv;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let fanout = Array.make off.(n) 0 in
  let fill = Array.make n 0 in
  Array.iteri
    (fun net d ->
      List.iter
        (fun a ->
          fanout.(off.(a) + fill.(a)) <- net;
          fill.(a) <- fill.(a) + 1)
        (fanins d))
    c.drv;
  let position = Array.make n 0 in
  Array.iteri (fun k net -> position.(net) <- k) order;
  let ff_off = Array.make (n + 1) 0 in
  Array.iter (fun d -> ff_off.(d + 1) <- ff_off.(d + 1) + 1) c.ff_d;
  for i = 1 to n do
    ff_off.(i) <- ff_off.(i) + ff_off.(i - 1)
  done;
  let ff_of_d = Array.make (num_ffs c) 0 in
  let cursor = Array.copy ff_off in
  Array.iteri
    (fun i d ->
      ff_of_d.(cursor.(d)) <- i;
      cursor.(d) <- cursor.(d) + 1)
    c.ff_d;
  (* the compiled form: unused fanin slots repeat a real fanin (or the
     net itself), so a kernel may read all three without a check *)
  let op = Bytes.make n '\000' in
  let fanin = Array.make (3 * n) 0 in
  let set net code a b s =
    Bytes.set_uint8 op net code;
    fanin.(3 * net) <- a;
    fanin.((3 * net) + 1) <- b;
    fanin.((3 * net) + 2) <- s
  in
  Array.iteri
    (fun net d ->
      let open Analysis in
      match d with
      | Pi i -> set net op_pi i i i
      | Ff i -> set net op_ff i i i
      | C0 -> set net op_c0 net net net
      | C1 -> set net op_c1 net net net
      | G1 (Buff, a) -> set net op_buf a a a
      | G1 (Inv, a) -> set net op_inv a a a
      | G2 (g, a, b) ->
        let code =
          match g with
          | And -> op_and
          | Or -> op_or
          | Xor -> op_xor
          | Nand -> op_nand
          | Nor -> op_nor
          | Xnor -> op_xnor
        in
        set net code a b a
      | Mux (sel, a, b) -> set net op_mux a b sel)
    c.drv;
  let level_off = Array.make (!max_level + 2) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) level;
  for l = 1 to !max_level + 1 do
    level_off.(l) <- level_off.(l) + level_off.(l - 1)
  done;
  let is_po = Bytes.make n '\000' in
  Array.iter (fun po -> Bytes.set_uint8 is_po po 1) c.pos;
  { Analysis.order; level; max_level = !max_level; fanout; fanout_off = off;
    position; ff_of_d; ff_of_d_off = ff_off; op; fanin; level_off; is_po }

(** Memoized structural analysis of a circuit: computed once per netlist
    value, shared by every engine that needs an evaluation order.
    Domain-safe: lookups and inserts are serialized, so concurrent fault
    shards on the same circuit share one [info]. *)
let analysis_hits = Obs.Metrics.counter "factor.netlist.analysis_hits"
let analysis_misses = Obs.Metrics.counter "factor.netlist.analysis_misses"

let analysis c =
  Mutex.protect analysis_mutex (fun () ->
      match
        List.find_map (fun eph -> Ephemeron.K1.query eph c) !analysis_cache
      with
      | Some info ->
        Obs.Metrics.incr analysis_hits;
        info
      | None ->
        Obs.Metrics.incr analysis_misses;
        if Obs.Log.enabled Obs.Log.Debug then
          Obs.Log.event Obs.Log.Debug "netlist.analysis miss"
            [ ("nets", Obs.Json.Int (num_nets c)) ];
        let info =
          Obs.Span.with_ "netlist.analysis" (fun () -> build_analysis c)
        in
        let rec keep k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: keep (k - 1) rest
        in
        analysis_cache :=
          Ephemeron.K1.make c info
          :: keep (analysis_cache_max - 1) !analysis_cache;
        info)

(* ------------------------------------------------------------------ *)
(* Reachability and sequential distance.                               *)
(* ------------------------------------------------------------------ *)

type direction = Forward | Backward

let unreachable = max_int

(* A 0-1 breadth-first walk, one distance level at a time: [cur] holds
   the nets settled at [level] (a weight-0 step pushes onto it), [next]
   those at [level + 1].  A net's distance only falls, and at most from
   [level + 1] to [level], so it enters each stack at most once and both
   fit in [n] slots; an entry whose net has since fallen below [level]
   was already expanded and is skipped. *)
let walk c dir ~gate ~reg sources =
  let weight w = w = 0 || w = 1 in
  if not (weight gate && weight reg) then
    invalid_arg "Netlist.walk: weights are 0 or 1";
  let info = analysis c in
  let n = num_nets c in
  let dist = Array.make n unreachable in
  let cur = Array.make n 0 and ncur = ref 0 in
  let next = Array.make n 0 and nnext = ref 0 in
  let level = ref 0 in
  let relax v d =
    if d < dist.(v) then begin
      dist.(v) <- d;
      if d = !level then begin
        cur.(!ncur) <- v;
        incr ncur
      end
      else begin
        next.(!nnext) <- v;
        incr nnext
      end
    end
  in
  let expand u =
    let dg = !level + gate and dr = !level + reg in
    match dir with
    | Forward ->
      for k = info.fanout_off.(u) to info.fanout_off.(u + 1) - 1 do
        relax info.fanout.(k) dg
      done;
      for k = info.ff_of_d_off.(u) to info.ff_of_d_off.(u + 1) - 1 do
        relax c.ff_q.(info.ff_of_d.(k)) dr
      done
    | Backward ->
      let op = Bytes.get_uint8 info.op u in
      if op = Analysis.op_ff then relax c.ff_d.(info.fanin.(3 * u)) dr
      else if op >= Analysis.op_buf then
        for k = 3 * u to (3 * u) + 2 do
          relax info.fanin.(k) dg
        done
  in
  Array.iter (fun s -> relax s 0) sources;
  while !ncur > 0 do
    while !ncur > 0 do
      decr ncur;
      let u = cur.(!ncur) in
      if dist.(u) = !level then expand u
    done;
    Array.blit next 0 cur 0 !nnext;
    ncur := !nnext;
    nnext := 0;
    incr level
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Stats (gate counts for the paper's tables).                         *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_g2 : int;
  st_inv : int;
  st_mux : int;
  st_ffs : int;
  st_pis : int;
  st_pos : int;
}

(* Only nets in the cone of the observable outputs count: dangling logic
   produced during lowering is what synthesis would sweep. *)
let live_mask c =
  Array.map (fun d -> d <> unreachable) (walk c Backward ~gate:0 ~reg:0 c.pos)

let stats c =
  let mask = live_mask c in
  let g2 = ref 0 and inv = ref 0 and mux = ref 0 in
  Array.iteri
    (fun net d ->
      if mask.(net) then
        match d with
        | G2 _ -> incr g2
        | G1 (Inv, _) -> incr inv
        | G1 (Buff, _) -> ()
        | Mux _ -> incr mux
        | Pi _ | Ff _ | C0 | C1 -> ())
    c.drv;
  let live_ffs =
    Array.to_list c.ff_q |> List.filter (fun q -> mask.(q)) |> List.length
  in
  { st_g2 = !g2; st_inv = !inv; st_mux = !mux; st_ffs = live_ffs;
    st_pis = num_pis c; st_pos = num_pos c }

(** Gate-equivalent count used in all tables: 2-input gates and inverters
    count 1, muxes 3, flip-flops 6. *)
let gate_equivalents st =
  st.st_g2 + st.st_inv + (3 * st.st_mux) + (6 * st.st_ffs)
