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

(* ------------------------------------------------------------------ *)
(* Builder.                                                            *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable b_drv : driver array;
  mutable b_origin : string array;
  mutable b_n : int;
  b_tbl : (string * driver, int) Hashtbl.t;
      (* hash-consing is scoped by origin: a module under test keeps its
         own gates even when the surrounding logic contains identical
         ones, so fault sites never migrate across module boundaries *)
  mutable b_pis : (string * int) list;      (* reverse order *)
  mutable b_pos : (string * int) list;
  mutable b_ffs : (string * int * int) list; (* name, q net, d net; d patched *)
  mutable b_ctx : string;  (* current origin tag *)
}

let create_builder () =
  { b_drv = Array.make 1024 C0;
    b_origin = Array.make 1024 "";
    b_n = 0;
    b_tbl = Hashtbl.create 4096;
    b_pis = [];
    b_pos = [];
    b_ffs = [];
    b_ctx = "" }

(** Set the origin tag recorded on nets created from now on (instance
    path during flattening). *)
let set_context b ctx = b.b_ctx <- ctx

let get_context b = b.b_ctx

let fresh_net b d =
  if b.b_n = Array.length b.b_drv then begin
    let drv = Array.make (2 * b.b_n) C0 in
    Array.blit b.b_drv 0 drv 0 b.b_n;
    b.b_drv <- drv;
    let origin = Array.make (2 * b.b_n) "" in
    Array.blit b.b_origin 0 origin 0 b.b_n;
    b.b_origin <- origin
  end;
  let n = b.b_n in
  b.b_drv.(n) <- d;
  b.b_origin.(n) <- b.b_ctx;
  b.b_n <- n + 1;
  n

let hashcons b d =
  (* constants are shared globally; everything else within its origin *)
  let key = (match d with C0 | C1 -> "" | _ -> b.b_ctx) in
  match Hashtbl.find_opt b.b_tbl (key, d) with
  | Some n -> n
  | None ->
    let n = fresh_net b d in
    Hashtbl.add b.b_tbl (key, d) n;
    n

let const0 b = hashcons b C0
let const1 b = hashcons b C1

let add_pi b name =
  let n = fresh_net b (Pi (List.length b.b_pis)) in
  b.b_pis <- (name, n) :: b.b_pis;
  n

let add_po b name net = b.b_pos <- (name, net) :: b.b_pos

(** Allocate a flip-flop; returns its q net.  The d input is patched later
    with [set_ff_d], allowing feedback through state. *)
let add_ff b name =
  let idx = List.length b.b_ffs in
  let q = fresh_net b (Ff idx) in
  b.b_ffs <- (name, q, -1) :: b.b_ffs;
  q

let set_ff_d b q d =
  b.b_ffs <-
    List.map (fun (n, q', d') -> if q' = q then (n, q', d) else (n, q', d'))
      b.b_ffs

let is_const0 b n = b.b_drv.(n) = C0
let is_const1 b n = b.b_drv.(n) = C1

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
  List.iter
    (fun (name, _, d) ->
      if d < 0 then
        raise (Error (Printf.sprintf "flip-flop %s has no d input" name)))
    ffs;
  { drv = Array.sub b.b_drv 0 b.b_n;
    origin = Array.sub b.b_origin 0 b.b_n;
    pis = Array.of_list (List.map snd pis);
    pi_names = Array.of_list (List.map fst pis);
    pos = Array.of_list (List.map snd pos);
    po_names = Array.of_list (List.map fst pos);
    ff_q = Array.of_list (List.map (fun (_, q, _) -> q) ffs);
    ff_d = Array.of_list (List.map (fun (_, _, d) -> d) ffs);
    ff_names = Array.of_list (List.map (fun (n, _, _) -> n) ffs) }

(* ------------------------------------------------------------------ *)
(* Structure queries.                                                  *)
(* ------------------------------------------------------------------ *)

let fanins = function
  | Pi _ | Ff _ | C0 | C1 -> []
  | G1 (_, a) -> [ a ]
  | G2 (_, a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]

(** Nets reachable backwards from [roots] through combinational gates
    (stops at PIs, FFs and constants, which are included). *)
let comb_cone c roots =
  let seen = Array.make (num_nets c) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      List.iter visit (fanins c.drv.(n))
    end
  in
  List.iter visit roots;
  seen

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

(** Fanout lists: for each net, the nets whose driver reads it. *)
let fanouts c =
  let out = Array.make (num_nets c) [] in
  Array.iteri
    (fun net d -> List.iter (fun i -> out.(i) <- net :: out.(i)) (fanins d))
    c.drv;
  out

(* ------------------------------------------------------------------ *)
(* Shared structural analysis.                                         *)
(* ------------------------------------------------------------------ *)

module Analysis = struct
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
  }
end

let analysis_build_count = ref 0
let analysis_builds () = !analysis_build_count

(* Memoized per circuit by physical equality.  The cache is a short MRU
   list: flows work on a handful of circuits at a time, and bounding it
   lets dead circuits be collected.  Guarded by a mutex — the parallel
   engine's fault shards and MUT flows all consult it concurrently. *)
let analysis_cache : (t * Analysis.info) list ref = ref []
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
  { Analysis.order; level; max_level = !max_level; fanout; fanout_off = off;
    position; ff_of_d; ff_of_d_off = ff_off }

(** Memoized structural analysis of a circuit: computed once per netlist
    value, shared by every engine that needs an evaluation order.
    Domain-safe: lookups and inserts are serialized, so concurrent fault
    shards on the same circuit share one [info]. *)
let analysis_hits = Obs.Metrics.counter "factor.netlist.analysis_hits"
let analysis_misses = Obs.Metrics.counter "factor.netlist.analysis_misses"

let analysis c =
  Mutex.protect analysis_mutex (fun () ->
      match List.find_opt (fun (c', _) -> c' == c) !analysis_cache with
      | Some (_, info) ->
        Obs.Metrics.incr analysis_hits;
        info
      | None ->
        Obs.Metrics.incr analysis_misses;
        if Obs.Log.enabled Obs.Log.Debug then
          Obs.Log.event Obs.Log.Debug "netlist.analysis miss"
            [ ("nets", Obs.Json.Int (num_nets c)) ];
        let info = build_analysis c in
        let rec keep k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: keep (k - 1) rest
        in
        analysis_cache :=
          (c, info) :: keep (analysis_cache_max - 1) !analysis_cache;
        info)

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
(* FF d cones matter only if the FF q is itself live; iterate to a
   fixpoint. *)
let live_mask c =
  let seen = ref (comb_cone c (Array.to_list c.pos)) in
  let changed = ref true in
  while !changed do
    changed := false;
    let extra = ref [] in
    Array.iteri
      (fun i q -> if !seen.(q) then extra := c.ff_d.(i) :: !extra)
      c.ff_q;
    let next = comb_cone c (Array.to_list c.pos @ !extra) in
    if next <> !seen then begin
      seen := next;
      changed := true
    end
  done;
  !seen

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

let comb_gates st = st.st_g2 + st.st_inv + (3 * st.st_mux)
