(** Abstract syntax for the synthesizable Verilog-95 subset handled by
    FACTOR.  The subset covers everything the extraction pseudocode in the
    paper manipulates: continuous assignments, always blocks with
    if/case/for, module instances, and structural gate primitives. *)

type unop =
  | U_not   (** [~e] bitwise negation *)
  | U_lnot  (** [!e] logical negation *)
  | U_neg   (** [-e] two's complement negation *)
  | U_plus  (** [+e] no-op *)
  | U_rand  (** [&e] reduction and *)
  | U_ror   (** [|e] reduction or *)
  | U_rxor  (** [^e] reduction xor *)
  | U_rnand (** [~&e] *)
  | U_rnor  (** [~|e] *)
  | U_rxnor (** [~^e] *)

type binop =
  | B_add
  | B_sub
  | B_mul
  | B_and
  | B_or
  | B_xor
  | B_xnor
  | B_eq
  | B_neq
  | B_lt
  | B_le
  | B_gt
  | B_ge
  | B_shl
  | B_shr
  | B_land
  | B_lor

(** Numeric literal.  [width = None] for unsized decimals. *)
type const = { width : int option; value : int }

(** Binary literal with [?]/[z]/[x] digits: [care] has a bit set where the
    digit is significant. *)
type masked = { m_width : int; m_value : int; m_care : int }

type expr =
  | E_const of const
  | E_masked of masked  (** binary literal with don't-care digits,
                            only meaningful as a casez/casex pattern *)
  | E_ident of string
  | E_bit of string * expr            (** [s\[i\]] *)
  | E_part of string * expr * expr    (** [s\[msb:lsb\]] *)
  | E_unop of unop * expr
  | E_binop of binop * expr * expr
  | E_cond of expr * expr * expr
  | E_concat of expr list
  | E_repl of expr * expr list        (** [{n{e, ...}}] *)

type lvalue =
  | L_ident of string
  | L_bit of string * expr
  | L_part of string * expr * expr
  | L_concat of lvalue list

type case_kind = Case | Casex | Casez

type stmt =
  | S_blocking of lvalue * expr
  | S_nonblocking of lvalue * expr
  | S_if of expr * stmt list * stmt list
  | S_case of case_kind * expr * case_arm list
  | S_for of for_loop

and case_arm = {
  arm_patterns : expr list;  (** empty list encodes [default] *)
  arm_body : stmt list;
}

and for_loop = {
  for_var : string;
  for_init : expr;
  for_cond : expr;
  for_step : expr;  (** value assigned to [for_var] each iteration *)
  for_body : stmt list;
}

type event =
  | Ev_posedge of string
  | Ev_negedge of string
  | Ev_level of string
  | Ev_star  (** the wildcard sensitivity list *)

type direction = Input | Output | Inout
type net_type = Wire | Reg

(** Bit range [\[msb:lsb\]]; expressions so parameters may appear before
    elaboration. *)
type range = { msb : expr; lsb : expr }

type gate_prim = G_and | G_or | G_nand | G_nor | G_xor | G_xnor | G_not | G_buf

type conns =
  | Positional of expr list
  | Named of (string * expr option) list

type instance = {
  inst_module : string;
  inst_name : string;
  inst_params : (string * expr) list;
  inst_conns : conns;
}

type item =
  | I_port of direction * net_type * range option * string list
  | I_net of net_type * range option * string list
  | I_memory of range option * range * string list
      (** [reg \[msb:lsb\] name \[lo:hi\];] — a register array.  Words are
          read with [name\[addr\]] and written (in clocked blocks only)
          with [name\[addr\] <= value]. *)
  | I_param of string * expr
  | I_localparam of string * expr
  | I_assign of lvalue * expr
  | I_always of event list * stmt list
  | I_instance of instance
  | I_gate of gate_prim * string * lvalue * expr list
      (** [and g (out, i0, i1, ...)] — first terminal drives. *)

type module_def = {
  mod_name : string;
  mod_ports : string list;  (** header order *)
  mod_items : item list;
}

type design = { modules : module_def list }

(** [find_module_opt d name] is the definition of [name], if any. *)
let find_module_opt design name =
  List.find_opt (fun m -> String.equal m.mod_name name) design.modules

(** [find_module d name] returns the definition of [name].
    @raise Not_found if absent. *)
let find_module design name =
  match find_module_opt design name with
  | Some m -> m
  | None -> raise Not_found

let unop_to_string = function
  | U_not -> "~"
  | U_lnot -> "!"
  | U_neg -> "-"
  | U_plus -> "+"
  | U_rand -> "&"
  | U_ror -> "|"
  | U_rxor -> "^"
  | U_rnand -> "~&"
  | U_rnor -> "~|"
  | U_rxnor -> "~^"

let binop_to_string = function
  | B_add -> "+"
  | B_sub -> "-"
  | B_mul -> "*"
  | B_and -> "&"
  | B_or -> "|"
  | B_xor -> "^"
  | B_xnor -> "~^"
  | B_eq -> "=="
  | B_neq -> "!="
  | B_lt -> "<"
  | B_le -> "<="
  | B_gt -> ">"
  | B_ge -> ">="
  | B_shl -> "<<"
  | B_shr -> ">>"
  | B_land -> "&&"
  | B_lor -> "||"

let gate_prim_to_string = function
  | G_and -> "and"
  | G_or -> "or"
  | G_nand -> "nand"
  | G_nor -> "nor"
  | G_xor -> "xor"
  | G_xnor -> "xnor"
  | G_not -> "not"
  | G_buf -> "buf"
