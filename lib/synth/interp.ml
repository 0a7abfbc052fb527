(** Reference RTL interpreter: evaluates a flattened module directly at
    the word level, with no gate lowering involved.  Deliberately an
    independent implementation of the language semantics, used to
    cross-check the synthesizer (gate-level simulation of the lowered
    netlist must agree with this interpreter on defined state). *)

open Verilog.Ast
open Design.Elaborate
open Flatten
module Smap = Verilog.Ast_util.Smap
module Sset = Verilog.Ast_util.Sset

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type t = {
  it_flat : flat;
  it_values : (string, int) Hashtbl.t;   (** current signal values *)
  it_next : (string, int) Hashtbl.t;     (** pending nonblocking updates *)
  it_widths : (string, int) Hashtbl.t;   (** per storage key, incl. words *)
  it_order : int array;                  (** combinational item order *)
  it_clocked : int array;                (** clocked item indices *)
}

(* Memory words are stored under a per-word key. *)
let word_key name w = Printf.sprintf "%s@%d" name w

let signal_info t name =
  match Smap.find_opt name t.it_flat.fl_signals with
  | Some s -> s
  | None -> errorf "undeclared signal %s" name

let width_of t name =
  match Hashtbl.find_opt t.it_widths name with
  | Some w -> w
  | None -> signal_width (signal_info t name)

let mask w v = if w >= 62 then v else v land ((1 lsl w) - 1)

let value t name = mask (width_of t name) (
  match Hashtbl.find_opt t.it_values name with Some v -> v | None -> 0)

let set_value t name v = Hashtbl.replace t.it_values name (mask (width_of t name) v)

(* ------------------------------------------------------------------ *)
(* Expression evaluation (self-determined widths, zero extension).     *)
(* ------------------------------------------------------------------ *)

let rec self_width t e =
  match e with
  | E_const { width = Some w; _ } -> w
  | E_const { width = None; _ } -> 32
  | E_masked m -> m.m_width
  | E_ident s -> width_of t s
  | E_bit _ -> 1
  | E_part (_, E_const m, E_const l) -> m.value - l.value + 1
  | E_part _ -> errorf "part select bounds must be constant"
  | E_unop ((U_lnot | U_rand | U_ror | U_rxor | U_rnand | U_rnor | U_rxnor), _)
    -> 1
  | E_unop (_, a) -> self_width t a
  | E_binop ((B_eq | B_neq | B_lt | B_le | B_gt | B_ge | B_land | B_lor), _, _)
    -> 1
  | E_binop ((B_shl | B_shr), a, _) -> self_width t a
  | E_binop (_, a, b) -> max (self_width t a) (self_width t b)
  | E_cond (_, a, b) -> max (self_width t a) (self_width t b)
  | E_concat es -> List.fold_left (fun acc e -> acc + self_width t e) 0 es
  | E_repl (E_const n, es) ->
    n.value * List.fold_left (fun acc e -> acc + self_width t e) 0 es
  | E_repl _ -> errorf "replication count must be constant"

let lsb_of t name =
  match Smap.find_opt name t.it_flat.fl_signals with
  | Some s -> s.sg_lsb
  | None -> errorf "undeclared signal %s" name

let rec eval t read e ~width =
  let v =
    match e with
    | E_const { value; _ } -> value
    | E_masked _ ->
      errorf "a masked literal is only valid as a casez/casex pattern"
    | E_ident s ->
      if is_memory (signal_info t s) then
        errorf "memory %s can only be read one word at a time" s;
      read s
    | E_bit (s, idx) ->
      let info = signal_info t s in
      if is_memory info then begin
        let w =
          eval t read idx ~width:(self_width t idx) - info.sg_addr_base
        in
        if w < 0 || w >= info.sg_words then 0 else read (word_key s w)
      end
      else begin
        let i = eval t read idx ~width:(self_width t idx) - lsb_of t s in
        if i < 0 || i >= width_of t s then 0 else (read s lsr i) land 1
      end
    | E_part (s, E_const m, E_const l) ->
      if is_memory (signal_info t s) then
        errorf "part select on memory %s" s;
      let lo = l.value - lsb_of t s in
      let w = m.value - l.value + 1 in
      mask w (read s lsr lo)
    | E_part _ -> errorf "part select bounds must be constant"
    | E_unop (op, a) ->
      let wa = max width (self_width t a) in
      let va = eval t read a ~width:wa in
      (match op with
       | U_not -> mask wa (lnot va)
       | U_neg -> mask wa (-va)
       | U_plus -> va
       | U_lnot ->
         (* the operand of ! is self-determined *)
         if eval t read a ~width:(self_width t a) = 0 then 1 else 0
       | U_rand -> if va = mask (self_width t a) (-1) then 1 else 0
       | U_ror -> if eval t read a ~width:(self_width t a) <> 0 then 1 else 0
       | U_rxor ->
         let rec pop v acc = if v = 0 then acc else pop (v lsr 1) (acc lxor (v land 1)) in
         pop (eval t read a ~width:(self_width t a)) 0
       | U_rnand -> if eval t read a ~width:(self_width t a)
                       = mask (self_width t a) (-1) then 0 else 1
       | U_rnor -> if eval t read a ~width:(self_width t a) = 0 then 1 else 0
       | U_rxnor ->
         let rec pop v acc = if v = 0 then acc else pop (v lsr 1) (acc lxor (v land 1)) in
         1 lxor pop (eval t read a ~width:(self_width t a)) 0)
    | E_binop (op, a, b) ->
      (match op with
       | B_and | B_or | B_xor | B_xnor | B_add | B_sub | B_mul ->
         let va = eval t read a ~width and vb = eval t read b ~width in
         (match op with
          | B_and -> va land vb
          | B_or -> va lor vb
          | B_xor -> va lxor vb
          | B_xnor -> mask width (lnot (va lxor vb))
          | B_add -> va + vb
          | B_sub -> va - vb
          | B_mul -> va * vb
          | _ -> assert false)
       | B_eq | B_neq | B_lt | B_le | B_gt | B_ge ->
         let w = max (self_width t a) (self_width t b) in
         let va = eval t read a ~width:w and vb = eval t read b ~width:w in
         (match op with
          | B_eq -> if va = vb then 1 else 0
          | B_neq -> if va <> vb then 1 else 0
          | B_lt -> if va < vb then 1 else 0
          | B_le -> if va <= vb then 1 else 0
          | B_gt -> if va > vb then 1 else 0
          | B_ge -> if va >= vb then 1 else 0
          | _ -> assert false)
       | B_land ->
         if eval t read a ~width:(self_width t a) <> 0
            && eval t read b ~width:(self_width t b) <> 0
         then 1 else 0
       | B_lor ->
         if eval t read a ~width:(self_width t a) <> 0
            || eval t read b ~width:(self_width t b) <> 0
         then 1 else 0
       | B_shl | B_shr ->
         let w = max width (self_width t a) in
         let va = eval t read a ~width:w in
         let k = eval t read b ~width:(self_width t b) in
         let shifted =
           if k >= 62 then 0
           else match op with
             | B_shl -> mask w (va lsl k)
             | _ -> va lsr k
             [@warning "-8"]
         in
         shifted)
    | E_cond (c, a, b) ->
      if eval t read c ~width:(self_width t c) <> 0 then
        eval t read a ~width
      else eval t read b ~width
    | E_concat es ->
      List.fold_left
        (fun acc e ->
          let w = self_width t e in
          (acc lsl w) lor eval t read e ~width:w)
        0 es
    | E_repl (E_const n, es) ->
      let w = List.fold_left (fun acc e -> acc + self_width t e) 0 es in
      let one =
        List.fold_left
          (fun acc e ->
            let we = self_width t e in
            (acc lsl we) lor eval t read e ~width:we)
          0 es
      in
      let rec rep i acc = if i = 0 then acc else rep (i - 1) ((acc lsl w) lor one) in
      rep n.value 0
    | E_repl _ -> errorf "replication count must be constant"
  in
  mask width v

(* ------------------------------------------------------------------ *)
(* Assignment.                                                         *)
(* ------------------------------------------------------------------ *)

let rec lvalue_width t = function
  | L_ident s -> width_of t s
  | L_bit (s, _) when is_memory (signal_info t s) -> width_of t s
  | L_bit _ -> 1
  | L_part (_, E_const m, E_const l) -> m.value - l.value + 1
  | L_part _ -> errorf "part select bounds must be constant"
  | L_concat lvs -> List.fold_left (fun a lv -> a + lvalue_width t lv) 0 lvs

(* [write] receives (storage key, bit offset, field width, field value). *)
let rec assign t read write lv v =
  match lv with
  | L_ident s ->
    if is_memory (signal_info t s) then
      errorf "memory %s can only be written one word at a time" s;
    write s 0 (width_of t s) v
  | L_bit (s, idx) when is_memory (signal_info t s) ->
    let info = signal_info t s in
    let w = eval t read idx ~width:(self_width t idx) - info.sg_addr_base in
    if w >= 0 && w < info.sg_words then
      write (word_key s w) 0 (signal_width info) (mask (signal_width info) v)
  | L_bit (s, E_const i) -> write s (i.value - lsb_of t s) 1 (v land 1)
  | L_bit _ -> errorf "dynamic bit select on the left-hand side"
  | L_part (s, E_const m, E_const l) ->
    let lo = l.value - lsb_of t s in
    let w = m.value - l.value + 1 in
    write s lo w (mask w v)
  | L_part _ -> errorf "part select bounds must be constant"
  | L_concat lvs ->
    (* first lvalue takes the most significant bits *)
    let rec go = function
      | [] -> ()
      | lv :: rest ->
        let skipped = List.fold_left (fun a l -> a + lvalue_width t l) 0 rest in
        assign t read write lv (mask (lvalue_width t lv) (v lsr skipped));
        go rest
    in
    go lvs

let update_field old lo w v =
  let m = ((1 lsl w) - 1) lsl lo in
  (old land lnot m) lor ((v lsl lo) land m)

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)
(* ------------------------------------------------------------------ *)

let rec exec_stmt t read write_block write_nb stmt =
  match stmt with
  | S_blocking (lv, e) ->
    assign t read write_block lv (eval t read e ~width:(lvalue_width t lv))
  | S_nonblocking (lv, e) ->
    assign t read write_nb lv (eval t read e ~width:(lvalue_width t lv))
  | S_if (c, th, el) ->
    let branch =
      if eval t read c ~width:(self_width t c) <> 0 then th else el
    in
    List.iter (exec_stmt t read write_block write_nb) branch
  | S_case (_, subject, arms) ->
    (* subject and patterns are mutually extended to the widest *)
    let w =
      List.fold_left
        (fun acc arm ->
          List.fold_left
            (fun acc p -> max acc (self_width t p))
            acc arm.arm_patterns)
        (self_width t subject) arms
    in
    let sv = eval t read subject ~width:w in
    let rec first = function
      | [] -> ()
      | arm :: rest ->
        let match_one p =
          match p with
          | E_masked m -> sv land m.m_care = m.m_value land m.m_care
          | _ -> eval t read p ~width:w = sv
        in
        let matches =
          arm.arm_patterns = [] || List.exists match_one arm.arm_patterns
        in
        if matches then
          List.iter (exec_stmt t read write_block write_nb) arm.arm_body
        else first rest
    in
    first arms
  | S_for _ -> errorf "for loop survived elaboration"

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

(* Topological order of the combinational items (reads before writes);
   clocked items are excluded.  @raise Error on a combinational cycle. *)
let comb_order flat =
  let module U = Verilog.Ast_util in
  let items = flat.fl_items in
  let n = Array.length items in
  let writes = Array.make n Sset.empty in
  let reads = Array.make n Sset.empty in
  let comb = Array.make n false in
  Array.iteri
    (fun i (_, item) ->
      match item with
      | EI_assign (lv, e) ->
        comb.(i) <- true;
        writes.(i) <- U.lvalue_writes lv Sset.empty;
        reads.(i) <- U.expr_reads e (U.lvalue_index_reads lv Sset.empty)
      | EI_gate (_, _, out, ins) ->
        comb.(i) <- true;
        writes.(i) <- U.lvalue_writes out Sset.empty;
        reads.(i) <-
          List.fold_left (fun a e -> U.expr_reads e a)
            (U.lvalue_index_reads out Sset.empty) ins
      | EI_always (Combinational, body) ->
        comb.(i) <- true;
        writes.(i) <- U.stmts_writes body;
        reads.(i) <- Sset.diff (U.stmts_reads body) (U.stmts_writes body)
      | EI_always (Clocked _, _) | EI_instance _ -> ())
    items;
  let writer = Hashtbl.create 64 in
  Array.iteri
    (fun i ws -> if comb.(i) then Sset.iter (fun s -> Hashtbl.replace writer s i) ws)
    writes;
  let state = Array.make n 0 in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> raise (Error "combinational cycle between items")
    | _ ->
      state.(i) <- 1;
      Sset.iter
        (fun s ->
          match Hashtbl.find_opt writer s with
          | Some j when j <> i -> visit j
          | _ -> ())
        reads.(i);
      state.(i) <- 2;
      order := i :: !order
  in
  Array.iteri (fun i _ -> if comb.(i) then visit i) items;
  Array.of_list (List.rev !order)

(** [create flat] builds an interpreter with every signal (including
    state) initialized to zero. *)
let create flat =
  let clocked =
    Array.to_list flat.fl_items
    |> List.mapi (fun i (_, item) -> (i, item))
    |> List.filter_map (fun (i, item) ->
           match item with
           | EI_always (Clocked _, _) -> Some i
           | _ -> None)
    |> Array.of_list
  in
  let widths = Hashtbl.create 256 in
  Smap.iter
    (fun name s ->
      if is_memory s then
        for w = 0 to s.sg_words - 1 do
          Hashtbl.replace widths (word_key name w) (signal_width s)
        done
      else Hashtbl.replace widths name (signal_width s))
    flat.fl_signals;
  { it_flat = flat;
    it_values = Hashtbl.create 256;
    it_next = Hashtbl.create 64;
    it_widths = widths;
    it_order = comb_order flat;
    it_clocked = clocked }

(* Evaluate all combinational items against current values. *)
let settle t =
  let read s = value t s in
  Array.iter
    (fun i ->
      match snd t.it_flat.fl_items.(i) with
      | EI_assign (lv, e) ->
        assign t read
          (fun s lo w v -> set_value t s (update_field (value t s) lo w v))
          lv
          (eval t read e ~width:(lvalue_width t lv))
      | EI_gate (g, _, out, ins) ->
        let bits = List.map (fun e -> eval t read e ~width:(max 1 (self_width t e))) ins in
        let bits = List.map (fun v -> if v <> 0 then 1 else 0) bits in
        let v =
          match (g, bits) with
          | (G_not, [ a ]) -> 1 - a
          | (G_buf, [ a ]) -> a
          | (G_and, x :: rest) -> List.fold_left ( land ) x rest
          | (G_or, x :: rest) -> List.fold_left ( lor ) x rest
          | (G_xor, x :: rest) -> List.fold_left ( lxor ) x rest
          | (G_nand, x :: rest) -> 1 - List.fold_left ( land ) x rest
          | (G_nor, x :: rest) -> 1 - List.fold_left ( lor ) x rest
          | (G_xnor, x :: rest) -> 1 - List.fold_left ( lxor ) x rest
          | _ -> errorf "gate with no inputs"
        in
        assign t read
          (fun s lo w v -> set_value t s (update_field (value t s) lo w v))
          out v
      | EI_always (Combinational, body) ->
        let write s lo w v = set_value t s (update_field (value t s) lo w v) in
        List.iter (exec_stmt t read write write) body
      | _ -> ())
    t.it_order

(** [output t name] reads any signal (typically a root output) after
    {!step}. *)
let output t name = value t name

(** Advance one clock cycle: run every clocked block against the settled
    values, then commit nonblocking updates. *)
let tick t =
  Hashtbl.reset t.it_next;
  let read s = value t s in
  Array.iter
    (fun i ->
      match snd t.it_flat.fl_items.(i) with
      | EI_always (Clocked _, body) ->
        (* blocking writes inside a clocked block update a shadow that
           subsequent reads in the same block see *)
        let shadow = Hashtbl.create 8 in
        let read s =
          match Hashtbl.find_opt shadow s with
          | Some v -> v
          | None -> read s
        in
        let base s =
          match Hashtbl.find_opt t.it_next s with
          | Some v -> v
          | None -> read s
        in
        let write_nb s lo w v =
          Hashtbl.replace t.it_next s
            (mask (width_of t s) (update_field (base s) lo w v))
        in
        let write_block s lo w v =
          let cur = read s in
          Hashtbl.replace shadow s (mask (width_of t s) (update_field cur lo w v));
          write_nb s lo w v
        in
        List.iter (exec_stmt t read write_block write_nb) body
      | _ -> ())
    t.it_clocked;
  Hashtbl.iter (fun s v -> set_value t s v) t.it_next;
  settle t

(** [step t inputs] drives the inputs, settles, reads nothing; call
    {!output} before or after {!tick} as needed. *)
let step t inputs =
  List.iter (fun (n, v) -> set_value t n v) inputs;
  settle t
