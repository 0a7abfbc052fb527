(** RTL-to-gate lowering over a flattened module.  Word-level operators
    are bit-blasted (ripple adders, borrow comparators, barrel shifters,
    mux trees); always blocks are symbolically executed into per-bit
    next-state functions; clocked blocks infer flip-flops.  The builder's
    hash-consing and local rules perform the redundancy removal the paper
    delegates to a synthesis tool. *)

open Verilog.Ast
open Design.Elaborate
open Flatten
module Smap = Verilog.Ast_util.Smap
module N = Netlist

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type result = {
  circuit : N.t;
  warnings : string list;  (** undriven or partially driven signals *)
}

(* ------------------------------------------------------------------ *)
(* Lowering context.                                                   *)
(* ------------------------------------------------------------------ *)

type item_state = Pending | Active | Done

type ctx = {
  b : N.builder;
  flat : flat;
  signals : (string, signal) Hashtbl.t; (* [flat.fl_signals], hashed *)
  defs : (string, int list) Hashtbl.t; (* signal -> defining item indices *)
  vec_memo : (string, int array) Hashtbl.t; (* completed signal vectors *)
  partial : (string, int option array) Hashtbl.t;
  state : item_state array;
  mutable warnings : string list;      (* first-seen order, reversed *)
  warned : (string, unit) Hashtbl.t;   (* the set of [warnings] *)
  ff_signals : Verilog.Ast_util.Sset.t; (* signals registered by clocked blocks *)
}

let warn ctx msg =
  if not (Hashtbl.mem ctx.warned msg) then begin
    Hashtbl.add ctx.warned msg ();
    ctx.warnings <- msg :: ctx.warnings
  end

let signal_info ctx name =
  match Hashtbl.find_opt ctx.signals name with
  | Some s -> s
  | None -> errorf "undeclared signal %s" name

let width_of ctx name = signal_width (signal_info ctx name)

(* Memories occupy words * width bits; scalars have one word. *)
let total_bits ctx name =
  let info = signal_info ctx name in
  signal_width info * info.sg_words

(* ------------------------------------------------------------------ *)
(* Word-level gate constructors.                                       *)
(* ------------------------------------------------------------------ *)

let zext b vec w =
  let n = Array.length vec in
  Array.init w (fun i -> if i < n then vec.(i) else N.const0 b)

(* Bits past 62 repeat the sign: [asr] by more than that is
   unspecified. *)
let const_vec b value w =
  Array.init w (fun i ->
      if (value asr min i 62) land 1 = 1 then N.const1 b else N.const0 b)

let map2_bits f b x y = Array.init (Array.length x) (fun i -> f b x.(i) y.(i))

let reduce f b vec =
  match Array.to_list vec with
  | [] -> N.const0 b
  | first :: rest -> List.fold_left (f b) first rest

let reduce_or b vec = reduce N.mk_or b vec
let reduce_and b vec = reduce N.mk_and b vec
let reduce_xor b vec = reduce N.mk_xor b vec

let add_vec b x y =
  let w = Array.length x in
  let out = Array.make w 0 in
  let carry = ref (N.const0 b) in
  for i = 0 to w - 1 do
    let axb = N.mk_xor b x.(i) y.(i) in
    out.(i) <- N.mk_xor b axb !carry;
    carry := N.mk_or b (N.mk_and b x.(i) y.(i)) (N.mk_and b axb !carry)
  done;
  out

let neg_vec b x =
  let inv = Array.map (N.mk_not b) x in
  add_vec b inv (const_vec b 1 (Array.length x))

let sub_vec b x y = add_vec b x (neg_vec b y)

let mul_vec b x y =
  let w = Array.length x in
  let acc = ref (const_vec b 0 w) in
  for i = 0 to w - 1 do
    let pp =
      Array.init w (fun j ->
          if j < i then N.const0 b else N.mk_and b x.(j - i) y.(i))
    in
    acc := add_vec b !acc pp
  done;
  !acc

(* Unsigned a < b via the borrow chain. *)
let lt_vec b x y =
  let borrow = ref (N.const0 b) in
  Array.iteri
    (fun i xi ->
      let yi = y.(i) in
      let gen = N.mk_and b (N.mk_not b xi) yi in
      let prop = N.mk_or b (N.mk_not b xi) yi in
      borrow := N.mk_or b gen (N.mk_and b prop !borrow))
    x;
  !borrow

let eq_vec b x y = N.mk_not b (reduce_or b (map2_bits N.mk_xor b x y))

(* Shift left by a constant amount. *)
let shl_const b vec k =
  let w = Array.length vec in
  Array.init w (fun i -> if i >= k then vec.(i - k) else N.const0 b)

let shr_const b vec k =
  let w = Array.length vec in
  Array.init w (fun i -> if i + k < w then vec.(i + k) else N.const0 b)

(* Barrel shifter: one mux stage per bit of the shift amount. *)
let barrel b shift_stage vec amount =
  let result = ref vec in
  Array.iteri
    (fun j aj ->
      (* past bit 61, 2^j overflows; any such stage shifts every bit out *)
      let k = if j > 61 then Array.length vec else 1 lsl j in
      let shifted = shift_stage b !result k in
      result :=
        Array.init (Array.length vec) (fun i ->
            N.mk_mux b aj !result.(i) shifted.(i)))
    amount;
  !result

(* Dynamic bit select: halve the vector per index bit, low bit first. *)
let rec dyn_select b vec idx_bits =
  match idx_bits with
  | [] -> if Array.length vec = 0 then N.const0 b else vec.(0)
  | s :: rest ->
    let n = Array.length vec in
    let half = (n + 1) / 2 in
    let nxt =
      Array.init half (fun i ->
          let lo = vec.(2 * i) in
          let hi = if (2 * i) + 1 < n then vec.((2 * i) + 1) else N.const0 b in
          N.mk_mux b s lo hi)
    in
    dyn_select b nxt rest

(* Select one word of a memory image: per output bit, a mux tree over the
   words. *)
let word_select b vec ~words ~word_width idx_bits =
  Array.init word_width (fun k ->
      let column = Array.init words (fun w -> vec.((w * word_width) + k)) in
      dyn_select b column idx_bits)

(* ------------------------------------------------------------------ *)
(* Expression lowering.                                                *)
(* ------------------------------------------------------------------ *)

(* [read] returns the current full vector of a signal (LSB first,
   positions normalized to 0). *)
let rec lower_expr ctx read e ~width : int array =
  let b = ctx.b in
  match e with
  | E_const { value; _ } -> const_vec b value width
  | (E_unop _ | E_binop _) when foldable e ->
    (* literal arithmetic, at the width this context gives it *)
    const_vec b (Option.get (const_value ~width e)).value width
  | E_masked _ ->
    errorf "a masked literal is only valid as a casez/casex pattern"
  | E_ident s ->
    let info = signal_info ctx s in
    if is_memory info then
      errorf "memory %s can only be read one word at a time" s;
    zext b (read s) width
  | E_bit (s, idx) ->
    let info = signal_info ctx s in
    let vec = read s in
    if is_memory info then begin
      (* word select *)
      let ww = signal_width info in
      match idx with
      | E_const { value; _ } ->
        let w = value - info.sg_addr_base in
        (* out-of-range selects read as zero, like the dynamic case *)
        if w < 0 || w >= info.sg_words then const_vec b 0 width
        else zext b (Array.sub vec (w * ww) ww) width
      | _ ->
        let iw = self_width (signal_info ctx) idx in
        let ivec = lower_expr ctx read idx ~width:iw in
        let ivec =
          if info.sg_addr_base = 0 then ivec
          else sub_vec b ivec (const_vec b info.sg_addr_base iw)
        in
        zext b
          (word_select b vec ~words:info.sg_words ~word_width:ww
             (Array.to_list ivec))
          width
    end
    else
      (match idx with
       | E_const { value; _ } ->
         let pos = value - info.sg_lsb in
         if pos < 0 || pos >= Array.length vec then const_vec b 0 width
         else zext b [| vec.(pos) |] width
       | _ ->
         let iw = self_width (signal_info ctx) idx in
         let ivec = lower_expr ctx read idx ~width:iw in
         (* normalize a non-zero lsb by selecting idx - lsb *)
         let ivec =
           if info.sg_lsb = 0 then ivec
           else sub_vec b ivec (const_vec b info.sg_lsb iw)
         in
         zext b [| dyn_select b vec (Array.to_list ivec) |] width)
  | E_part (s, E_const m, E_const l) ->
    let info = signal_info ctx s in
    if is_memory info then errorf "part select on memory %s" s;
    let vec = read s in
    let lo = l.value - info.sg_lsb and hi = m.value - info.sg_lsb in
    if lo < 0 || hi >= Array.length vec || lo > hi then
      errorf "part select %s[%d:%d] out of range" s m.value l.value;
    zext b (Array.sub vec lo (hi - lo + 1)) width
  | E_part _ -> errorf "part select bounds must be constant"
  | E_unop (op, a) -> lower_unop ctx read op a ~width
  | E_binop (op, x, y) -> lower_binop ctx read op x y ~width
  | E_cond (c, t, f) ->
    let cbit = lower_to_bit ctx read c in
    let tv = lower_expr ctx read t ~width in
    let fv = lower_expr ctx read f ~width in
    Array.init width (fun i -> N.mk_mux b cbit fv.(i) tv.(i))
  | E_concat es ->
    (* first element is the most significant *)
    let parts =
      List.rev_map
        (fun e -> lower_expr ctx read e ~width:(self_width (signal_info ctx) e))
        es
    in
    zext b (Array.concat parts) width
  | E_repl (n, es) ->
    let n =
      match n with
      | E_const { value; _ } -> value
      | _ -> errorf "replication count must be constant"
    in
    let parts =
      List.rev_map
        (fun e -> lower_expr ctx read e ~width:(self_width (signal_info ctx) e))
        es
    in
    let one = Array.concat parts in
    zext b (Array.concat (List.init n (fun _ -> one))) width

and lower_to_bit ctx read e =
  let w = max 1 (self_width (signal_info ctx) e) in
  let v = lower_expr ctx read e ~width:w in
  reduce_or ctx.b v

and lower_unop ctx read op a ~width =
  let b = ctx.b in
  match op with
  | U_not ->
    Array.map (N.mk_not b) (lower_expr ctx read a ~width)
  | U_neg -> neg_vec b (lower_expr ctx read a ~width)
  | U_plus -> lower_expr ctx read a ~width
  | U_lnot -> zext b [| N.mk_not b (lower_to_bit ctx read a) |] width
  | U_rand | U_ror | U_rxor | U_rnand | U_rnor | U_rxnor ->
    let w = max 1 (self_width (signal_info ctx) a) in
    let v = lower_expr ctx read a ~width:w in
    let bit =
      match op with
      | U_rand -> reduce_and b v
      | U_ror -> reduce_or b v
      | U_rxor -> reduce_xor b v
      | U_rnand -> N.mk_not b (reduce_and b v)
      | U_rnor -> N.mk_not b (reduce_or b v)
      | U_rxnor -> N.mk_not b (reduce_xor b v)
      | _ -> assert false
    in
    zext b [| bit |] width

and lower_binop ctx read op x y ~width =
  let b = ctx.b in
  let at w e = lower_expr ctx read e ~width:w in
  match op with
  | B_and -> map2_bits N.mk_and b (at width x) (at width y)
  | B_or -> map2_bits N.mk_or b (at width x) (at width y)
  | B_xor -> map2_bits N.mk_xor b (at width x) (at width y)
  | B_xnor -> map2_bits N.mk_xnor b (at width x) (at width y)
  | B_add -> add_vec b (at width x) (at width y)
  | B_sub -> sub_vec b (at width x) (at width y)
  | B_mul -> mul_vec b (at width x) (at width y)
  | B_eq | B_neq | B_lt | B_le | B_gt | B_ge ->
    let w =
      max (self_width (signal_info ctx) x) (self_width (signal_info ctx) y)
    in
    let xv = at w x and yv = at w y in
    let bit =
      match op with
      | B_eq -> eq_vec b xv yv
      | B_neq -> N.mk_not b (eq_vec b xv yv)
      | B_lt -> lt_vec b xv yv
      | B_ge -> N.mk_not b (lt_vec b xv yv)
      | B_gt -> lt_vec b yv xv
      | B_le -> N.mk_not b (lt_vec b yv xv)
      | _ -> assert false
    in
    zext b [| bit |] width
  | B_land ->
    zext b
      [| N.mk_and b (lower_to_bit ctx read x) (lower_to_bit ctx read y) |]
      width
  | B_lor ->
    zext b
      [| N.mk_or b (lower_to_bit ctx read x) (lower_to_bit ctx read y) |]
      width
  | B_shl | B_shr ->
    let w = max width (self_width (signal_info ctx) x) in
    let xv = at w x in
    let shifted =
      match y with
      | E_const { value; _ } ->
        (* clamp pathological amounts: negative or huge constants shift
           everything out *)
        let k = if value < 0 || value > w then w else value in
        (match op with
         | B_shl -> shl_const b xv k
         | _ -> shr_const b xv k)
      | _ ->
        let yw = self_width (signal_info ctx) y in
        let yv = at yw y in
        (match op with
         | B_shl -> barrel b shl_const xv yv
         | _ -> barrel b shr_const xv yv)
    in
    zext b (Array.sub shifted 0 (min w width)) width

(* ------------------------------------------------------------------ *)
(* Symbolic execution of always bodies.                                *)
(* ------------------------------------------------------------------ *)

(* Environment during execution of one always block: the current value of
   every signal the block writes, as optional per-bit nets. *)
type exec_env = int option array Smap.t

let env_read outer_read (env : exec_env) s =
  match Smap.find_opt s env with
  | None -> outer_read s
  | Some bits ->
    Array.mapi
      (fun i bit ->
        match bit with
        | Some n -> n
        | None ->
          errorf "signal %s bit %d read before assignment in always block" s i)
      bits

(* Write a lowered vector through an lvalue into the environment. *)
let rec env_write ctx read env lv (vec : int array) : exec_env =
  match lv with
  | L_ident s ->
    if is_memory (signal_info ctx s) then
      errorf "memory %s can only be written one word at a time" s;
    write_bits ctx env s 0 (Array.length vec) vec
  | L_bit (s, idx) when is_memory (signal_info ctx s) ->
    let info = signal_info ctx s in
    let ww = signal_width info in
    (match idx with
     | E_const { value; _ } ->
       let w = value - info.sg_addr_base in
       if w < 0 || w >= info.sg_words then env
       else write_bits ctx env s (w * ww) ww vec
     | _ ->
       (* dynamic word address: every word gets a write-enable mux *)
       let b = ctx.b in
       let old =
         match Smap.find_opt s env with
         | Some bits ->
           Array.mapi
             (fun i bit ->
               match bit with
               | Some n -> n
               | None ->
                 errorf "memory %s bit %d unknown before dynamic write" s i)
             bits
         | None -> errorf "internal: memory %s not seeded" s
       in
       (* the comparison width must cover both the index expression and
          every word number *)
       let needed =
         let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
         max 1 (bits (info.sg_words - 1) 0)
       in
       let self_w = self_width (signal_info ctx) idx in
       let idx_w = max self_w needed in
       (* the index is self-determined: evaluate at its own width, then
          zero-extend for the comparisons *)
       let ivec = zext b (lower_expr ctx read idx ~width:self_w) idx_w in
       let ivec =
         if info.sg_addr_base = 0 then ivec
         else sub_vec b ivec (const_vec b info.sg_addr_base idx_w)
       in
       let fresh =
         Array.init (info.sg_words * ww) (fun pos ->
             let w = pos / ww and k = pos mod ww in
             let hit = eq_vec b ivec (const_vec b w idx_w) in
             let newbit = if k < Array.length vec then vec.(k) else N.const0 b in
             N.mk_mux b hit old.(pos) newbit)
       in
       Smap.add s (Array.map (fun n -> Some n) fresh) env)
  | L_bit (s, E_const { value; _ }) ->
    let info = signal_info ctx s in
    write_bits ctx env s (value - info.sg_lsb) 1 vec
  | L_bit _ -> errorf "dynamic bit select on the left-hand side"
  | L_part (s, E_const m, E_const l) ->
    let info = signal_info ctx s in
    let lo = l.value - info.sg_lsb in
    write_bits ctx env s lo (m.value - l.value + 1) vec
  | L_part _ -> errorf "part select bounds must be constant"
  | L_concat lvs ->
    (* first lvalue is the most significant *)
    let rec go env pos = function
      | [] -> env
      | lv :: rest ->
        let w = lvalue_width (signal_info ctx) lv in
        let env = go env pos rest in
        let consumed =
          List.fold_left
            (fun a l -> a + lvalue_width (signal_info ctx) l) 0 rest
        in
        let slice =
          Array.init w (fun i ->
              let src = pos + consumed + i in
              if src < Array.length vec then vec.(src) else N.const0 ctx.b)
        in
        env_write ctx read env lv slice
    in
    go env 0 lvs

and write_bits ctx env s lo w vec =
  if not (Smap.mem s env) then
    errorf "internal: %s written but not pre-seeded in always block" s;
  let bits = Array.copy (Smap.find s env) in
  if lo < 0 || lo + w > Array.length bits then
    errorf "assignment to %s out of range" s;
  for i = 0 to w - 1 do
    bits.(lo + i) <- Some (if i < Array.length vec then vec.(i) else N.const0 ctx.b)
  done;
  Smap.add s bits env


(* Merge two branch environments under a select bit (1 chooses [env_t]). *)
let merge_envs ctx sel (env_t : exec_env) (env_f : exec_env) : exec_env =
  Smap.merge
    (fun _ t f ->
      match (t, f) with
      | (None, None) -> None
      | (Some t, Some f) ->
        Some
          (Array.init (Array.length t) (fun i ->
               match (t.(i), f.(i)) with
               | (Some a, Some b) when a = b -> Some a
               | (Some a, Some b) -> Some (N.mk_mux ctx.b sel b a)
               | _ -> None))
      | (Some _, None) | (None, Some _) ->
        errorf "internal: branch environments have different signals")
    env_t env_f

let rec exec_stmt ctx outer_read (cur, nxt) stmt =
  let read s = env_read outer_read cur s in
  match stmt with
  | S_blocking (lv, e) ->
    let width = lvalue_width (signal_info ctx) lv in
    let vec = lower_expr ctx read e ~width in
    (env_write ctx read cur lv vec, env_write ctx read nxt lv vec)
  | S_nonblocking (lv, e) ->
    let width = lvalue_width (signal_info ctx) lv in
    let vec = lower_expr ctx read e ~width in
    (cur, env_write ctx read nxt lv vec)
  | S_if (c, t, f) ->
    let sel = lower_to_bit ctx read c in
    let (cur_t, nxt_t) = exec_stmts ctx outer_read (cur, nxt) t in
    let (cur_f, nxt_f) = exec_stmts ctx outer_read (cur, nxt) f in
    (merge_envs ctx sel cur_t cur_f, merge_envs ctx sel nxt_t nxt_f)
  | S_case (_, subject, arms) ->
    (* subject and patterns are mutually extended to the widest *)
    let w =
      List.fold_left
        (fun acc arm ->
          List.fold_left
            (fun acc p -> max acc (self_width (signal_info ctx) p))
            acc arm.arm_patterns)
        (self_width (signal_info ctx) subject) arms
    in
    let sv = lower_expr ctx read subject ~width:w in
    (* first matching arm wins; build as a right-to-left mux cascade *)
    let rec build = function
      | [] -> (cur, nxt)
      | arm :: rest ->
        (match arm.arm_patterns with
         | [] -> exec_stmts ctx outer_read (cur, nxt) arm.arm_body
         | patterns ->
           let match_one p =
             match p with
             | E_masked m ->
               (* compare only the cared-about bits *)
               let bits =
                 List.filteri (fun i _ -> (m.m_care lsr i) land 1 = 1)
                   (Array.to_list (Array.mapi (fun i s -> (i, s)) sv))
               in
               List.fold_left
                 (fun acc (i, s) ->
                   let want =
                     if (m.m_value lsr i) land 1 = 1 then N.const1 ctx.b
                     else N.const0 ctx.b
                   in
                   N.mk_and ctx.b acc (N.mk_xnor ctx.b s want))
                 (N.const1 ctx.b) bits
             | _ -> eq_vec ctx.b sv (lower_expr ctx read p ~width:w)
           in
           let matches =
             List.map match_one patterns
             |> List.fold_left (N.mk_or ctx.b) (N.const0 ctx.b)
           in
           let (cur_t, nxt_t) = exec_stmts ctx outer_read (cur, nxt) arm.arm_body in
           let (cur_f, nxt_f) = build rest in
           (merge_envs ctx matches cur_t cur_f,
            merge_envs ctx matches nxt_t nxt_f))
    in
    build arms
  | S_for _ -> errorf "for loop survived elaboration"

and exec_stmts ctx outer_read acc stmts =
  List.fold_left (exec_stmt ctx outer_read) acc stmts

(* ------------------------------------------------------------------ *)
(* Item processing and the demand-driven driver.                       *)
(* ------------------------------------------------------------------ *)

let defining_items flat =
  let module U = Verilog.Ast_util in
  let defs = Hashtbl.create 1024 in
  Array.iteri
    (fun idx (_, item) ->
      let written =
        match item with
        | EI_assign (lv, _) -> U.lvalue_writes lv U.Sset.empty
        | EI_gate (_, _, out, _) -> U.lvalue_writes out U.Sset.empty
        | EI_always (_, body) -> U.stmts_writes body
        | EI_instance _ -> U.Sset.empty
      in
      U.Sset.iter
        (fun s ->
          let old = Option.value (Hashtbl.find_opt defs s) ~default:[] in
          Hashtbl.replace defs s (idx :: old))
        written)
    flat.fl_items;
  defs

let rec get_vec ctx s : int array =
  match Hashtbl.find_opt ctx.vec_memo s with
  | Some v -> v
  | None ->
    let width = total_bits ctx s in
    let items = Option.value (Hashtbl.find_opt ctx.defs s) ~default:[] in
    List.iter (process_item ctx) items;
    (match Hashtbl.find_opt ctx.vec_memo s with
     | Some v -> v  (* filled by a clocked block or earlier recursion *)
     | None ->
       let partial =
         Option.value (Hashtbl.find_opt ctx.partial s)
           ~default:(Array.make width None)
       in
       let vec =
         Array.mapi
           (fun i bit ->
             match bit with
             | Some n -> n
             | None ->
               warn ctx
                 (Printf.sprintf "undriven: %s%s" s
                    (if width > 1 then Printf.sprintf "[%d]" i else ""));
               N.const0 ctx.b)
           partial
       in
       Hashtbl.replace ctx.vec_memo s vec;
       vec)

and outer_read ctx s = get_vec ctx s

and process_item ctx idx =
  match ctx.state.(idx) with
  | Done -> ()
  | Active ->
    errorf "combinational cycle through item %d (%s)" idx
      (fst ctx.flat.fl_items.(idx))
  | Pending ->
    ctx.state.(idx) <- Active;
    let (origin, item) = ctx.flat.fl_items.(idx) in
    (* demand-driven recursion interleaves items: restore the caller's
       origin tag when this item finishes *)
    let saved_context = N.get_context ctx.b in
    N.set_context ctx.b origin;
    (match item with
     | EI_assign (L_ident s, E_ident r) when width_of ctx s = width_of ctx r ->
       (* whole-signal alias (typically a port-connection shim): buffer
          each bit so the boundary pin exists as a fault site *)
       let vec = Array.map (N.mk_hard_buf ctx.b) (get_vec ctx r) in
       fill_lvalue ctx (L_ident s) vec
     | EI_assign (lv, e) ->
       let width = lvalue_width (signal_info ctx) lv in
       let vec = lower_expr ctx (outer_read ctx) e ~width in
       fill_lvalue ctx lv vec
     | EI_gate (g, _, out, inputs) ->
       let bits =
         List.map (fun e -> lower_to_bit ctx (outer_read ctx) e) inputs
       in
       let bit =
         let b = ctx.b in
         match (g, bits) with
         | (G_not, [ a ]) -> N.mk_not b a
         | (G_buf, [ a ]) -> N.mk_buf b a
         | (G_and, x :: rest) -> List.fold_left (N.mk_and b) x rest
         | (G_or, x :: rest) -> List.fold_left (N.mk_or b) x rest
         | (G_xor, x :: rest) -> List.fold_left (N.mk_xor b) x rest
         | (G_nand, x :: rest) -> N.mk_not b (List.fold_left (N.mk_and b) x rest)
         | (G_nor, x :: rest) -> N.mk_not b (List.fold_left (N.mk_or b) x rest)
         | (G_xnor, x :: rest) -> N.mk_not b (List.fold_left (N.mk_xor b) x rest)
         | _ -> errorf "gate primitive with no inputs"
       in
       fill_lvalue ctx out [| bit |]
     | EI_instance _ -> ()  (* flattening removed instances *)
     | EI_always (Combinational, body) ->
       let module U = Verilog.Ast_util in
       let written = U.stmts_writes body in
       U.Sset.iter
         (fun s ->
           if is_memory (signal_info ctx s) then
             errorf "memory %s may only be written in a clocked block" s)
         written;
       let seed =
         U.Sset.fold
           (fun s env -> Smap.add s (Array.make (total_bits ctx s) None) env)
           written Smap.empty
       in
       let (cur, _) = exec_stmts ctx (outer_read ctx) (seed, seed) body in
       Smap.iter
         (fun s bits ->
           let vec =
             Array.mapi
               (fun i bit ->
                 match bit with
                 | Some n -> n
                 | None ->
                   errorf
                     "latch inferred: %s[%d] is not assigned on every path"
                     s i)
               bits
           in
           fill_full ctx s vec)
         cur
     | EI_always (Clocked _, body) ->
       let module U = Verilog.Ast_util in
       let written = U.stmts_writes body in
       (* q vectors were created up front; seed both envs with them *)
       let seed =
         U.Sset.fold
           (fun s env ->
             let q = Hashtbl.find ctx.vec_memo s in
             Smap.add s (Array.map (fun n -> Some n) q) env)
           written Smap.empty
       in
       let (_, nxt) = exec_stmts ctx (outer_read ctx) (seed, seed) body in
       Smap.iter
         (fun s bits ->
           let q = Hashtbl.find ctx.vec_memo s in
           Array.iteri
             (fun i bit ->
               match bit with
               | Some d -> N.set_ff_d ctx.b q.(i) d
               | None -> N.set_ff_d ctx.b q.(i) q.(i))
             bits)
         nxt);
    N.set_context ctx.b saved_context;
    ctx.state.(idx) <- Done

and fill_lvalue ctx lv vec =
  match lv with
  | L_ident s -> fill_range ctx s 0 vec
  | L_bit (s, E_const { value; _ }) ->
    let info = signal_info ctx s in
    fill_range ctx s (value - info.sg_lsb) (Array.sub vec 0 1)
  | L_bit _ -> errorf "dynamic bit select on the left-hand side"
  | L_part (s, E_const m, E_const l) ->
    let info = signal_info ctx s in
    let w = m.value - l.value + 1 in
    fill_range ctx s (l.value - info.sg_lsb) (Array.sub vec 0 (min w (Array.length vec)))
  | L_part _ -> errorf "part select bounds must be constant"
  | L_concat lvs ->
    let rec go pos = function
      | [] -> ()
      | lv :: rest ->
        (* first is most significant: recurse right-to-left *)
        let consumed =
          List.fold_left
            (fun a l -> a + lvalue_width (signal_info ctx) l) 0 rest
        in
        let w = lvalue_width (signal_info ctx) lv in
        let slice =
          Array.init w (fun i ->
              let src = pos + consumed + i in
              if src < Array.length vec then vec.(src) else N.const0 ctx.b)
        in
        fill_lvalue ctx lv slice;
        go pos rest
    in
    go 0 lvs

and fill_range ctx s lo vec =
  if Verilog.Ast_util.Sset.mem s ctx.ff_signals then
    errorf "%s is driven both by a clocked block and other logic" s;
  if is_memory (signal_info ctx s) then
    errorf "memory %s may only be written in a clocked block" s;
  let width = total_bits ctx s in
  let bits =
    match Hashtbl.find_opt ctx.partial s with
    | Some b -> b
    | None -> Array.make width None
  in
  Array.iteri
    (fun i n ->
      if lo + i >= width then errorf "assignment to %s out of range" s;
      (match bits.(lo + i) with
       | Some _ -> errorf "multiple drivers for %s[%d]" s (lo + i)
       | None -> ());
      bits.(lo + i) <- Some n)
    vec;
  Hashtbl.replace ctx.partial s bits

and fill_full ctx s vec =
  (match Hashtbl.find_opt ctx.partial s with
   | Some _ -> errorf "multiple drivers for %s" s
   | None -> ());
  fill_range ctx s 0 vec

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

(** [lower flat] synthesizes a flattened module into a gate-level
    netlist.  Primary inputs/outputs come from the root module's ports;
    every signal assigned in a clocked block becomes a bank of
    flip-flops.
    @raise Error on combinational cycles, multiple drivers, inferred
    latches, or unsupported constructs. *)
let lower flat =
  Obs.Span.with_ "synth.lower" @@ fun () ->
  let module U = Verilog.Ast_util in
  let b = N.create_builder () in
  (* pre-scan: signals registered by clocked blocks *)
  let ff_signals =
    Array.fold_left
      (fun acc (_, item) ->
        match item with
        | EI_always (Clocked _, body) -> U.Sset.union acc (U.stmts_writes body)
        | _ -> acc)
      U.Sset.empty flat.fl_items
  in
  let signals = Hashtbl.create 1024 in
  Smap.iter (Hashtbl.replace signals) flat.fl_signals;
  let ctx =
    { b; flat; signals;
      defs = defining_items flat;
      vec_memo = Hashtbl.create 1024;
      partial = Hashtbl.create 1024;
      state = Array.make (Array.length flat.fl_items) Pending;
      warnings = [];
      warned = Hashtbl.create 16;
      ff_signals }
  in
  let bit_name s info i =
    if is_memory info then
      Printf.sprintf "%s[%d][%d]" s
        ((i / signal_width info) + info.sg_addr_base)
        ((i mod signal_width info) + info.sg_lsb)
    else if signal_width info > 1 then
      Printf.sprintf "%s[%d]" s (i + info.sg_lsb)
    else s
  in
  (* primary inputs, in port order *)
  List.iter
    (fun (p, dir) ->
      if dir = Input then begin
        let info = signal_info ctx p in
        if U.Sset.mem p ff_signals then
          errorf "input port %s is assigned inside the module" p;
        let vec =
          Array.init (signal_width info) (fun i ->
              N.add_pi b (bit_name p info i))
        in
        Hashtbl.replace ctx.vec_memo p vec
      end)
    flat.fl_ports;
  (* flip-flop q nets, tagged with the origin of their clocked block *)
  Array.iter
    (fun (origin, item) ->
      match item with
      | EI_always (Clocked _, body) ->
        N.set_context b origin;
        U.Sset.iter
          (fun s ->
            if Hashtbl.mem ctx.vec_memo s then
              errorf "%s is registered by more than one clocked block" s;
            let info = signal_info ctx s in
            let vec =
              Array.init
                (signal_width info * info.sg_words)
                (fun i -> N.add_ff b (bit_name s info i))
            in
            Hashtbl.replace ctx.vec_memo s vec)
          (U.stmts_writes body)
      | _ -> ())
    flat.fl_items;
  N.set_context b "";
  (* primary outputs *)
  List.iter
    (fun (p, dir) ->
      if dir = Output then begin
        let info = signal_info ctx p in
        let vec = get_vec ctx p in
        Array.iteri (fun i n -> N.add_po b (bit_name p info i) n) vec
      end)
    flat.fl_ports;
  (* make sure every clocked block ran so all flip-flops have a d input *)
  Array.iteri
    (fun idx (_, item) ->
      match item with
      | EI_always (Clocked _, _) -> process_item ctx idx
      | _ -> ())
    flat.fl_items;
  { circuit = N.finalize b; warnings = List.rev ctx.warnings }

let synthesize ed top = lower (Flatten.flatten ed top)
