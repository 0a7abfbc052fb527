(* Dual-rail Tseitin encoding of netlists.  The rail equations are the
   clausal image of Sim.Logic3: for every gate the "is 1" and "is 0"
   rails are monotone AND/OR combinations of the fanin rails, so a net
   whose inputs are all binary gets binary rails, and an X input
   (both rails false) propagates exactly as in the simulator. *)

type rails = {
  r1 : Solver.lit;
  r0 : Solver.lit;
}

(* literals compared, sorted and hashed as the ints they are *)
let same (a : Solver.lit) (b : Solver.lit) = (a :> int) = (b :> int)
let compare_lit (a : Solver.lit) (b : Solver.lit) =
  Int.compare (a :> int) (b :> int)

module Memo = Hashtbl.Make (struct
  type t = Solver.lit list
  let equal = List.equal same
  let hash ls =
    List.fold_left (fun h (l : Solver.lit) -> (h * 31) + (l :> int)) 7 ls
    land max_int
end)

type env = {
  sv : Solver.t;
  tlit : Solver.lit;  (* literal constrained true at level 0 *)
  memo : Solver.lit Memo.t;
      (* structural sharing of AND terms, keyed on the sorted operand
         list: the two rails of a gate reuse each other's conjunctions
         instead of re-Tseitinizing them *)
}

let create () =
  let sv = Solver.create () in
  let v = Solver.new_var sv in
  let tlit = Solver.pos v in
  Solver.add_clause sv [ tlit ];
  { sv; tlit; memo = Memo.create 1024 }

let solver e = e.sv
let lit_true e = e.tlit
let lit_false e = Solver.neg e.tlit
let rails_x e = { r1 = lit_false e; r0 = lit_false e }

let rails_of_bool e b =
  if b then { r1 = lit_true e; r0 = lit_false e }
  else { r1 = lit_false e; r0 = lit_true e }

let fresh_binary e =
  let l = Solver.pos (Solver.new_var e.sv) in
  { r1 = l; r0 = Solver.neg l }

(* [mk_and e ls]: a literal equivalent to the conjunction of [ls], with
   constant folding so that the pervasive constant rails of X state and
   stuck nets never reach the solver. *)
let mk_and e ls =
  let f = lit_false e and t = lit_true e in
  if List.exists (same f) ls then f
  else
    let ls =
      List.sort_uniq compare_lit (List.filter (fun l -> not (same l t)) ls)
    in
    (* once sorted, a complementary pair [2v], [2v+1] is adjacent *)
    let rec complementary = function
      | a :: (b :: _ as rest) -> same (Solver.neg a) b || complementary rest
      | _ -> false
    in
    if complementary ls then f
    else
      match ls with
      | [] -> t
      | [ l ] -> l
      | _ ->
        (match Memo.find_opt e.memo ls with
        | Some y -> y
        | None ->
          let y = Solver.pos (Solver.new_var e.sv) in
          List.iter (fun l -> Solver.add_clause e.sv [ Solver.neg y; l ]) ls;
          Solver.add_clause e.sv (y :: List.map Solver.neg ls);
          Memo.add e.memo ls y;
          y)

let mk_or e ls = Solver.neg (mk_and e (List.map Solver.neg ls))

let diff_lit e a b =
  mk_or e [ mk_and e [ a.r1; b.r0 ]; mk_and e [ a.r0; b.r1 ] ]

(* rails that are exact complements carry a known (binary) value; any X
   source breaks the property and falls back to the dual-rail rules *)
let binary r = r.r0 = Solver.neg r.r1

(* One gate, in the image of the Logic3 evaluation rules.  When every
   fanin is binary the output is binary too (Logic3 maps known inputs
   to known outputs), so only the "is 1" rail is encoded and the "is 0"
   rail is its complement — single-rail circuit SAT with full unit
   propagation, at half the variables. *)
let encode_driver e get (drv : Netlist.driver) =
  let band = mk_and e and bor = mk_or e in
  match drv with
  | Netlist.C0 -> rails_of_bool e false
  | Netlist.C1 -> rails_of_bool e true
  | Netlist.G1 (Buff, a) -> get a
  | Netlist.G1 (Inv, a) ->
    let a = get a in
    { r1 = a.r0; r0 = a.r1 }
  | Netlist.G2 (op, a, b) ->
    let a = get a and b = get b in
    if binary a && binary b then begin
      let r1 =
        match op with
        | And -> band [ a.r1; b.r1 ]
        | Nand -> bor [ a.r0; b.r0 ]
        | Or -> bor [ a.r1; b.r1 ]
        | Nor -> band [ a.r0; b.r0 ]
        | Xor -> bor [ band [ a.r1; b.r0 ]; band [ a.r0; b.r1 ] ]
        | Xnor -> bor [ band [ a.r1; b.r1 ]; band [ a.r0; b.r0 ] ]
      in
      { r1; r0 = Solver.neg r1 }
    end
    else begin
      match op with
      | And -> { r1 = band [ a.r1; b.r1 ]; r0 = bor [ a.r0; b.r0 ] }
      | Nand -> { r1 = bor [ a.r0; b.r0 ]; r0 = band [ a.r1; b.r1 ] }
      | Or -> { r1 = bor [ a.r1; b.r1 ]; r0 = band [ a.r0; b.r0 ] }
      | Nor -> { r1 = band [ a.r0; b.r0 ]; r0 = bor [ a.r1; b.r1 ] }
      | Xor ->
        { r1 = bor [ band [ a.r1; b.r0 ]; band [ a.r0; b.r1 ] ];
          r0 = bor [ band [ a.r1; b.r1 ]; band [ a.r0; b.r0 ] ] }
      | Xnor ->
        { r1 = bor [ band [ a.r1; b.r1 ]; band [ a.r0; b.r0 ] ];
          r0 = bor [ band [ a.r1; b.r0 ]; band [ a.r0; b.r1 ] ] }
    end
  | Netlist.Mux (s, a, b) ->
    (* select 1 chooses [b]; an X select is known only where the
       branches agree — Logic3.v_mux verbatim *)
    let s = get s and a = get a and b = get b in
    if binary s && binary a && binary b then begin
      (* the consensus term is redundant once the select is binary *)
      let r1 = bor [ band [ s.r1; b.r1 ]; band [ s.r0; a.r1 ] ] in
      { r1; r0 = Solver.neg r1 }
    end
    else
      { r1 = bor [ band [ s.r1; b.r1 ]; band [ s.r0; a.r1 ];
                   band [ a.r1; b.r1 ] ];
        r0 = bor [ band [ s.r1; b.r0 ]; band [ s.r0; a.r0 ];
                   band [ a.r0; b.r0 ] ] }
  | Netlist.Pi _ | Netlist.Ff _ ->
    invalid_arg "Cnf.encode: input net not covered by assign"

let encode e (c : Netlist.t) ?cone ~assign () =
  let n = Netlist.num_nets c in
  let rails = Array.make n (rails_x e) in
  let info = Netlist.analysis c in
  let in_cone net = match cone with None -> true | Some m -> m.(net) in
  Array.iter
    (fun net ->
      match assign net with
      | Some r -> rails.(net) <- r
      | None ->
        if in_cone net then
          rails.(net) <- encode_driver e (fun m -> rails.(m)) c.drv.(net))
    info.order;
  rails

let lit_holds e l =
  let v = Solver.value e.sv (Solver.var_of l) in
  if Solver.positive l then v else not v

let rails_value e r =
  if lit_holds e r.r1 then Some true
  else if lit_holds e r.r0 then Some false
  else None
