(** Hand-written lexer for the Verilog subset.  Produces a token stream
    with line numbers for error reporting. *)

type token =
  | T_ident of string
  | T_number of int option * int  (* width (if sized), value *)
  | T_masked of int * int * int   (* width, value, care mask *)
  | T_keyword of string
  | T_lparen
  | T_rparen
  | T_lbracket
  | T_rbracket
  | T_lbrace
  | T_rbrace
  | T_semi
  | T_comma
  | T_colon
  | T_dot
  | T_hash
  | T_at
  | T_question
  | T_eq          (* = *)
  | T_le_assign   (* <= , also less-equal; parser disambiguates *)
  | T_op of string
  | T_eof

exception Error of string * int * int  (** message, line, column *)

let keyword_set =
  let t = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace t k ())
    [ "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg";
      "assign"; "always"; "begin"; "end"; "if"; "else"; "case"; "casex";
      "casez"; "endcase"; "default"; "for"; "posedge"; "negedge"; "or";
      "parameter"; "localparam"; "and"; "nand"; "nor"; "xor"; "xnor";
      "not"; "buf"; "integer"; "initial" ];
  t

let is_keyword s = Hashtbl.mem keyword_set s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* byte offset of the current line's first column *)
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* [at st c] is [peek st = Some c] without the option and the
   polymorphic compare; [at2 st c] tests the character after it. *)
let at st c = st.pos < String.length st.src && st.src.[st.pos] = c

let at2 st c =
  st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = c

let advance st =
  (if st.pos < String.length st.src && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let column st = st.pos - st.bol + 1

let error st msg = raise (Error (msg, st.line, column st))

(* Up to, not over, the next newline: no line bookkeeping needed. *)
let skip_to_eol st =
  while st.pos < String.length st.src && st.src.[st.pos] <> '\n' do
    st.pos <- st.pos + 1
  done

let rec skip_space st =
  if st.pos < String.length st.src then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_space st
    | '/' when at2 st '/' ->
      skip_to_eol st;
      skip_space st
    | '/' when at2 st '*' ->
      advance st;
      advance st;
      let rec block_comment () =
        if st.pos >= String.length st.src then
          error st "unterminated block comment"
        else if at st '*' && at2 st '/' then begin
          advance st;
          advance st
        end
        else begin
          advance st;
          block_comment ()
        end
      in
      block_comment ();
      skip_space st
    | '`' ->
      (* compiler directives (`timescale etc.) — skip to end of line *)
      skip_to_eol st;
      skip_space st
    | _ -> ()

let lex_ident st =
  let start = st.pos in
  while st.pos < String.length st.src && is_ident_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* Digits of an unsigned decimal run, ignoring '_' separators. *)
let lex_decimal st =
  let buf = Buffer.create 8 in
  let rec go () =
    match peek st with
    | Some c when is_digit c ->
      Buffer.add_char buf c;
      advance st;
      go ()
    | Some '_' ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  int_of_string (Buffer.contents buf)

(* Binary digits allowing don't-cares; returns (value, care, any_dontcare). *)
let lex_binary_masked st =
  let value = ref 0 and care = ref 0 and bits = ref 0 and masked = ref false in
  let rec go () =
    match peek st with
    | Some ('0' | '1' as c) ->
      value := (!value lsl 1) lor (if c = '1' then 1 else 0);
      care := (!care lsl 1) lor 1;
      incr bits;
      advance st;
      go ()
    | Some ('x' | 'X' | 'z' | 'Z' | '?') ->
      value := !value lsl 1;
      care := !care lsl 1;
      masked := true;
      incr bits;
      advance st;
      go ()
    | Some '_' ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  if !bits = 0 then error st "empty binary literal";
  (!value, !care, !masked)

let lex_based_value st base =
  let buf = Buffer.create 8 in
  let valid c =
    match base with
    | 2 -> c = '0' || c = '1'
    | 8 -> c >= '0' && c <= '7'
    | 10 -> is_digit c
    | 16 -> is_hex_digit c
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when valid c ->
      Buffer.add_char buf c;
      advance st;
      go ()
    | Some '_' ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let digits = Buffer.contents buf in
  if String.length digits = 0 then error st "empty based literal";
  let digit_value c =
    if is_digit c then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
    else Char.code c - Char.code 'A' + 10
  in
  String.fold_left (fun acc c -> (acc * base) + digit_value c) 0 digits

(* A number: either plain decimal, or [size]'[base]digits. *)
let lex_number st =
  let first = lex_decimal st in
  match peek st with
  | Some '\'' ->
    advance st;
    let base =
      match peek st with
      | Some ('b' | 'B') -> 2
      | Some ('o' | 'O') -> 8
      | Some ('d' | 'D') -> 10
      | Some ('h' | 'H') -> 16
      | _ -> error st "bad base in sized literal"
    in
    advance st;
    if base = 2 then begin
      let (value, care, masked) = lex_binary_masked st in
      if masked then T_masked (first, value, care)
      else T_number (Some first, value)
    end
    else T_number (Some first, lex_based_value st base)
  | _ -> T_number (None, first)

let lex_unsized_based st =
  (* leading ' without size: '[base]digits *)
  advance st;
  let base =
    match peek st with
    | Some ('b' | 'B') -> 2
    | Some ('o' | 'O') -> 8
    | Some ('d' | 'D') -> 10
    | Some ('h' | 'H') -> 16
    | _ -> error st "bad base in literal"
  in
  advance st;
  let value = lex_based_value st base in
  T_number (None, value)

let next_token st =
  skip_space st;
  let line = st.line in
  let col = column st in
  let tok =
    match peek st with
    | None -> T_eof
    | Some c when is_ident_start c ->
      let id = lex_ident st in
      if is_keyword id then T_keyword id else T_ident id
    | Some c when is_digit c -> lex_number st
    | Some '\'' -> lex_unsized_based st
    | Some '(' -> advance st; T_lparen
    | Some ')' -> advance st; T_rparen
    | Some '[' -> advance st; T_lbracket
    | Some ']' -> advance st; T_rbracket
    | Some '{' -> advance st; T_lbrace
    | Some '}' -> advance st; T_rbrace
    | Some ';' -> advance st; T_semi
    | Some ',' -> advance st; T_comma
    | Some ':' -> advance st; T_colon
    | Some '.' -> advance st; T_dot
    | Some '#' -> advance st; T_hash
    | Some '@' -> advance st; T_at
    | Some '?' -> advance st; T_question
    | Some '=' ->
      advance st;
      if at st '=' then (advance st; T_op "==") else T_eq
    | Some '!' ->
      advance st;
      if at st '=' then (advance st; T_op "!=") else T_op "!"
    | Some '<' ->
      advance st;
      if at st '=' then (advance st; T_le_assign)
      else if at st '<' then (advance st; T_op "<<")
      else T_op "<"
    | Some '>' ->
      advance st;
      if at st '=' then (advance st; T_op ">=")
      else if at st '>' then (advance st; T_op ">>")
      else T_op ">"
    | Some '&' ->
      advance st;
      if at st '&' then (advance st; T_op "&&") else T_op "&"
    | Some '|' ->
      advance st;
      if at st '|' then (advance st; T_op "||") else T_op "|"
    | Some '^' ->
      advance st;
      if at st '~' then (advance st; T_op "^~") else T_op "^"
    | Some '~' ->
      advance st;
      (match peek st with
       | Some '&' -> advance st; T_op "~&"
       | Some '|' -> advance st; T_op "~|"
       | Some '^' -> advance st; T_op "~^"
       | _ -> T_op "~")
    | Some '+' -> advance st; T_op "+"
    | Some '-' -> advance st; T_op "-"
    | Some '*' -> advance st; T_op "*"
    | Some '/' -> advance st; T_op "/"
    | Some '%' -> advance st; T_op "%"
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  (tok, line, col)

(** [tokenize src] lexes [src] into a list of (token, line, column)
    triples ending in [T_eof].
    @raise Error on malformed input. *)
let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let ((tok, _, _) as t) = next_token st in
    match tok with
    | T_eof -> List.rev (t :: acc)
    | _ -> go (t :: acc)
  in
  go []

let token_to_string = function
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_number (_, v) -> Printf.sprintf "number %d" v
  | T_masked (w, v, _) -> Printf.sprintf "masked literal %d'b...%d" w v
  | T_keyword k -> Printf.sprintf "keyword %S" k
  | T_lparen -> "'('"
  | T_rparen -> "')'"
  | T_lbracket -> "'['"
  | T_rbracket -> "']'"
  | T_lbrace -> "'{'"
  | T_rbrace -> "'}'"
  | T_semi -> "';'"
  | T_comma -> "','"
  | T_colon -> "':'"
  | T_dot -> "'.'"
  | T_hash -> "'#'"
  | T_at -> "'@'"
  | T_question -> "'?'"
  | T_eq -> "'='"
  | T_le_assign -> "'<='"
  | T_op s -> Printf.sprintf "operator %S" s
  | T_eof -> "end of input"
