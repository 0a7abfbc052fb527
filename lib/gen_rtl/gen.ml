(** Seeded bottom-up RTL generation.  See the mli for the contract; the
    leaf generator is the layered-expression scheme the fuzz suites have
    always used (acyclic by construction: every expression only reads
    signals from earlier layers), lifted off QCheck onto a bare
    [Random.State.t] so library code and tests share one generator. *)

type modu = {
  m_name : string;
  m_src : string;
  m_inputs : (string * int) list;
  m_outputs : (string * int) list;
  m_sequential : bool;
}

(* ------------------------------------------------------------------ *)
(* Draw helpers.                                                       *)
(* ------------------------------------------------------------------ *)

let int_range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let oneofl rng l = List.nth l (Random.State.int rng (List.length l))

(* Weighted choice among thunks — the [frequency] of the old QCheck
   generator, with an explicit state. *)
let frequency rng choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  let rec pick n = function
    | [] -> assert false
    | (w, f) :: rest -> if n < w then f () else pick (n - w) rest
  in
  pick (Random.State.int rng total) choices

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

type genv = {
  g_avail : (string * int) list;  (* signals readable at this point *)
  g_depth : int;
}

let gen_const rng width =
  let v = Random.State.int rng (1 lsl min width 15) in
  Printf.sprintf "%d'd%d" width (v land ((1 lsl width) - 1))

let rec gen_expr rng env width =
  if env.g_depth = 0 then gen_leaf_expr rng env width
  else
    let sub = { env with g_depth = env.g_depth - 1 } in
    frequency rng
      [ (3, fun () -> gen_leaf_expr rng env width);
        (2, fun () -> gen_binop rng sub width);
        (1, fun () -> gen_unop rng sub width);
        (1, fun () -> gen_cond rng sub width);
        (1, fun () -> gen_select rng env);
        (1, fun () -> gen_reduce rng sub) ]

and gen_leaf_expr rng env width =
  match env.g_avail with
  | [] -> gen_const rng width
  | avail ->
    frequency rng
      [ (3, fun () -> fst (oneofl rng avail));
        (1, fun () -> gen_const rng width) ]

and gen_binop rng env width =
  let op =
    oneofl rng
      [ "+"; "-"; "*"; "&"; "|"; "^"; "=="; "!="; "<"; "<="; ">"; ">=";
        "<<"; ">>"; "&&"; "||" ]
  in
  let a = gen_expr rng env width in
  let b = gen_expr rng env width in
  Printf.sprintf "(%s %s %s)" a op b

and gen_unop rng env width =
  let op = oneofl rng [ "~"; "!"; "-" ] in
  Printf.sprintf "(%s%s)" op (gen_expr rng env width)

and gen_cond rng env width =
  let c = gen_expr rng env 1 in
  let a = gen_expr rng env width in
  let b = gen_expr rng env width in
  Printf.sprintf "(%s ? %s : %s)" c a b

and gen_select rng env =
  match List.filter (fun (_, w) -> w > 1) env.g_avail with
  | [] -> gen_const rng 1
  | wide ->
    let (name, w) = oneofl rng wide in
    let hi = int_range rng 0 (w - 1) in
    let lo = int_range rng 0 hi in
    if hi = lo then Printf.sprintf "%s[%d]" name hi
    else Printf.sprintf "%s[%d:%d]" name hi lo

and gen_reduce rng env =
  let op = oneofl rng [ "&"; "|"; "^" ] in
  Printf.sprintf "(%s%s)" op (gen_leaf_expr rng env 4)

(* ------------------------------------------------------------------ *)
(* Leaf modules.                                                       *)
(* ------------------------------------------------------------------ *)

let decl_of kw (n, w) =
  if w = 1 then Printf.sprintf "  %s %s;\n" kw n
  else Printf.sprintf "  %s [%d:0] %s;\n" kw (w - 1) n

let leaf rng ~name ~sequential =
  let n_inputs = int_range rng 2 4 in
  let inputs =
    List.init n_inputs (fun i ->
        (Printf.sprintf "in%d" i, int_range rng 1 8))
  in
  let n_wires = int_range rng 2 5 in
  let wires =
    List.init n_wires (fun i ->
        (Printf.sprintf "w%d" i, int_range rng 1 8))
  in
  let n_regs = if sequential then int_range rng 1 3 else 0 in
  let regs =
    List.init n_regs (fun i ->
        (Printf.sprintf "r%d" i, int_range rng 1 8))
  in
  (* wires are layered: wire i may read inputs, regs, and wires < i *)
  let wire_exprs =
    let rec go avail = function
      | [] -> []
      | (n, w) :: rest ->
        let e = gen_expr rng { g_avail = avail; g_depth = 3 } w in
        (n, w, e) :: go ((n, w) :: avail) rest
    in
    go (inputs @ regs) wires
  in
  let all_readable = inputs @ regs @ wires in
  (* clocked block: each register updated under a condition *)
  let reg_updates =
    List.map
      (fun (n, w) ->
        let cond = gen_expr rng { g_avail = all_readable; g_depth = 2 } 1 in
        let rhs = gen_expr rng { g_avail = all_readable; g_depth = 3 } w in
        let alt = gen_expr rng { g_avail = all_readable; g_depth = 2 } w in
        Printf.sprintf "      if (%s) %s <= %s; else %s <= %s;" cond n rhs n
          alt)
      regs
  in
  (* a small register array written under a condition and read back *)
  let mem_words_log = int_range rng 1 2 in
  let mem_words = 1 lsl mem_words_log in
  let mem_width = int_range rng 1 6 in
  let mem_waddr = gen_expr rng { g_avail = inputs; g_depth = 1 } mem_words_log in
  let mem_raddr = gen_expr rng { g_avail = inputs; g_depth = 1 } mem_words_log in
  let mem_wdata =
    gen_expr rng { g_avail = all_readable; g_depth = 2 } mem_width
  in
  let mem_we = gen_expr rng { g_avail = all_readable; g_depth = 1 } 1 in
  (* a combinational always block with full default assignment *)
  let comb_width = int_range rng 1 8 in
  let comb_default =
    gen_expr rng { g_avail = all_readable; g_depth = 2 } comb_width
  in
  let comb_sel = gen_expr rng { g_avail = all_readable; g_depth = 2 } 2 in
  let use_casez = Random.State.bool rng in
  let comb_a = gen_expr rng { g_avail = all_readable; g_depth = 2 } comb_width in
  let comb_b = gen_expr rng { g_avail = all_readable; g_depth = 2 } comb_width in
  let comb = ("cmb", comb_width) in
  let memout = ("memout", mem_width) in
  (* outputs observe a sample of everything *)
  let outputs =
    List.mapi
      (fun i (n, w) -> (Printf.sprintf "o%d" i, n, w))
      (wires @ regs @ [ comb ] @ (if sequential then [ memout ] else []))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "module %s (\n  input clk,\n" name);
  List.iter
    (fun (n, w) ->
      Buffer.add_string buf
        (if w = 1 then Printf.sprintf "  input %s,\n" n
         else Printf.sprintf "  input [%d:0] %s,\n" (w - 1) n))
    inputs;
  List.iteri
    (fun i (o, _, w) ->
      let last = i = List.length outputs - 1 in
      Buffer.add_string buf
        (Printf.sprintf "  output %s%s%s\n"
           (if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1))
           o
           (if last then "" else ",")))
    outputs;
  Buffer.add_string buf ");\n";
  List.iter (fun d -> Buffer.add_string buf (decl_of "wire" d)) wires;
  List.iter (fun d -> Buffer.add_string buf (decl_of "reg" d)) regs;
  Buffer.add_string buf (decl_of "reg" comb);
  if sequential then
    Buffer.add_string buf
      (Printf.sprintf "  reg [%d:0] marr [0:%d];\n  wire [%d:0] memout;\n"
         (mem_width - 1) (mem_words - 1) (mem_width - 1));
  List.iter
    (fun (n, _, e) ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s;\n" n e))
    wire_exprs;
  if sequential then begin
    Buffer.add_string buf "  always @(posedge clk) begin\n";
    List.iter (fun line -> Buffer.add_string buf (line ^ "\n")) reg_updates;
    Buffer.add_string buf
      (Printf.sprintf "      if (%s) marr[%s] <= %s;\n" mem_we mem_waddr
         mem_wdata);
    Buffer.add_string buf "  end\n";
    Buffer.add_string buf
      (Printf.sprintf "  assign memout = marr[%s];\n" mem_raddr)
  end;
  Buffer.add_string buf "  always @(*) begin\n";
  Buffer.add_string buf (Printf.sprintf "    cmb = %s;\n" comb_default);
  (if use_casez then
     Buffer.add_string buf
       (Printf.sprintf
          "    casez (%s)\n      2'b1?: cmb = %s;\n      2'b?1: cmb = %s;\n    endcase\n"
          comb_sel comb_a comb_b)
   else
     Buffer.add_string buf
       (Printf.sprintf
          "    case (%s)\n      2'd1: cmb = %s;\n      2'd2: cmb = %s;\n    endcase\n"
          comb_sel comb_a comb_b));
  Buffer.add_string buf "  end\n";
  List.iter
    (fun (o, src, _) ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s;\n" o src))
    outputs;
  Buffer.add_string buf "endmodule\n";
  { m_name = name;
    m_src = Buffer.contents buf;
    m_inputs = inputs;
    m_outputs = List.map (fun (o, _, w) -> (o, w)) outputs;
    m_sequential = sequential }

(* ------------------------------------------------------------------ *)
(* Composite modules.                                                  *)
(* ------------------------------------------------------------------ *)

(* One composite instantiates [children] (in order, as instances u0,
   u1, ...).  Every child input is fed through a dedicated wire of the
   exact port width assigned from a random expression over the
   composite's own inputs and the outputs of earlier instances, so the
   hierarchy is acyclic and every connection is a plain identifier —
   the shape the flattening mutation and the extractor both rely on.
   A reduction output xors every child output so no child is dead. *)
let composite rng ~name ~children =
  let n_inputs = int_range rng 2 4 in
  let inputs =
    List.init n_inputs (fun i ->
        (Printf.sprintf "in%d" i, int_range rng 1 8))
  in
  let buf = Buffer.create 2048 in
  let body = Buffer.create 2048 in
  let outs_of_children = ref [] in
  List.iteri
    (fun i (child : modu) ->
      let avail = inputs @ !outs_of_children in
      let conns = ref [ "    .clk(clk)" ] in
      List.iter
        (fun (p, w) ->
          let wire = Printf.sprintf "c%d_%s" i p in
          let e = gen_expr rng { g_avail = avail; g_depth = 3 } w in
          Buffer.add_string body (decl_of "wire" (wire, w));
          Buffer.add_string body
            (Printf.sprintf "  assign %s = %s;\n" wire e);
          conns := Printf.sprintf "    .%s(%s)" p wire :: !conns)
        child.m_inputs;
      List.iter
        (fun (p, w) ->
          let wire = Printf.sprintf "c%d_%s" i p in
          Buffer.add_string body (decl_of "wire" (wire, w));
          conns := Printf.sprintf "    .%s(%s)" p wire :: !conns;
          outs_of_children := (wire, w) :: !outs_of_children)
        child.m_outputs;
      Buffer.add_string body
        (Printf.sprintf "  %s u%d (\n%s\n  );\n" child.m_name i
           (String.concat ",\n" (List.rev !conns))))
    children;
  let child_outs = List.rev !outs_of_children in
  let avail = inputs @ child_outs in
  let n_outs = int_range rng 2 3 in
  let outputs =
    List.init n_outs (fun i ->
        (Printf.sprintf "out%d" i, int_range rng 1 8))
  in
  List.iter
    (fun (o, w) ->
      let e = gen_expr rng { g_avail = avail; g_depth = 3 } w in
      Buffer.add_string body (Printf.sprintf "  assign %s = %s;\n" o e))
    outputs;
  (* observe every child output so no instance is dead logic *)
  let red =
    match child_outs with
    | [] -> "1'd0"
    | outs ->
      String.concat " ^ " (List.map (fun (n, _) -> Printf.sprintf "(^%s)" n) outs)
  in
  Buffer.add_string body (Printf.sprintf "  assign osum = %s;\n" red);
  let outputs = outputs @ [ ("osum", 1) ] in
  Buffer.add_string buf (Printf.sprintf "module %s (\n  input clk,\n" name);
  List.iter
    (fun (n, w) ->
      Buffer.add_string buf
        (if w = 1 then Printf.sprintf "  input %s,\n" n
         else Printf.sprintf "  input [%d:0] %s,\n" (w - 1) n))
    inputs;
  List.iteri
    (fun i (o, w) ->
      let last = i = List.length outputs - 1 in
      Buffer.add_string buf
        (Printf.sprintf "  output %s%s%s\n"
           (if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1))
           o
           (if last then "" else ",")))
    outputs;
  Buffer.add_string buf ");\n";
  Buffer.add_buffer buf body;
  Buffer.add_string buf "endmodule\n";
  ({ m_name = name;
     m_src = Buffer.contents buf;
     m_inputs = inputs;
     m_outputs = outputs;
     m_sequential = List.exists (fun c -> c.m_sequential) children },
   List.mapi (fun i (c : modu) -> (Printf.sprintf "u%d" i, c.m_name)) children)

(* ------------------------------------------------------------------ *)
(* Whole designs.                                                      *)
(* ------------------------------------------------------------------ *)

(* Hierarchy shape: [n_leaves] leaf modules (the first sequential, each
   other one sequential by a coin flip), one level of [n_mids] composite
   modules over them, then [top]; every composite instantiates
   [children_lo] to [children_hi] modules of the level below. *)
let n_leaves = 3
let n_mids = 2
let children_lo = 2
let children_hi = 3

type design = {
  d_seed : int;
  d_source : string;
  d_ast : Verilog.Ast.design;
  d_top : string;
  d_muts : string list;
}

let generate ~seed () =
  let rng = Random.State.make [| 0x9e2d; 0x6e52; seed |] in
  let leaves =
    List.init n_leaves (fun i ->
        let sequential = i = 0 || Random.State.bool rng in
        leaf rng ~name:(Printf.sprintf "leaf%d" i) ~sequential)
  in
  let instances = Hashtbl.create 16 in
  let compose ~name prev =
    let n = int_range rng children_lo children_hi in
    let children = List.init n (fun _ -> oneofl rng prev) in
    let (m, insts) = composite rng ~name ~children in
    Hashtbl.replace instances m.m_name insts;
    m
  in
  let mids =
    List.init n_mids (fun i ->
        compose ~name:(Printf.sprintf "mid1_%d" i) leaves)
  in
  let top = compose ~name:"top" mids in
  let source =
    String.concat "\n" (List.map (fun m -> m.m_src) (leaves @ mids @ [ top ]))
  in
  let ast = Verilog.Parser.parse_design source in
  let rec paths prefix name acc =
    match Hashtbl.find_opt instances name with
    | None -> acc
    | Some insts ->
      List.fold_left
        (fun acc (inst, child) ->
          let p = if prefix = "" then inst else prefix ^ "." ^ inst in
          paths p child (p :: acc))
        acc insts
  in
  let depth p =
    String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 p
  in
  let muts =
    paths "" "top" []
    |> List.sort (fun a b ->
           match compare (depth a) (depth b) with
           | 0 -> compare a b
           | c -> c)
  in
  { d_seed = seed; d_source = source; d_ast = ast; d_top = "top";
    d_muts = muts }

let circuit_of ast ~top =
  let ed = Design.Elaborate.elaborate ast ~top in
  (Synth.Lower.synthesize ed top).Synth.Lower.circuit
