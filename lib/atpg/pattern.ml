(** Test patterns: a test is a sequence of primary-input vectors applied
    on consecutive clock cycles, plus initial load values for PIER
    registers (registers the chip can load via load/store instructions). *)

type test = {
  p_vectors : bool array array;  (** per frame, one bool per primary input *)
  p_loads : (int * bool) list;   (** PIER flip-flop index, loaded value *)
}

let num_frames t = Array.length t.p_vectors

(** Render one test in the usual per-cycle bit-string form. *)
let to_string t =
  let frame v =
    String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
  in
  let loads =
    match t.p_loads with
    | [] -> ""
    | ls ->
      " loads:"
      ^ String.concat ","
          (List.map
             (fun (i, v) -> Printf.sprintf "ff%d=%d" i (if v then 1 else 0))
             ls)
  in
  String.concat " " (Array.to_list (Array.map frame t.p_vectors)) ^ loads

(** [random ~rng ~num_pis ~frames] draws a random test sequence. *)
let random ~rng ~num_pis ~frames ~piers =
  { p_vectors =
      Array.init frames (fun _ -> Array.init num_pis (fun _ -> Random.State.bool rng));
    p_loads = List.map (fun i -> (i, Random.State.bool rng)) piers }

(** Total vector count across a test set (the pattern-count statistic). *)
let total_vectors tests =
  List.fold_left (fun acc t -> acc + num_frames t) 0 tests

(* ------------------------------------------------------------------ *)
(* Vector-file format, for handing tests to a tester or another tool:
   one test per block.

     test
     load 3 1
     vec 0101...
     vec 1100...
     end
*)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

(** [write_string tests] renders the test set in the vector-file format;
    [pi_names] become a header comment for humans. *)
let write_string ?(pi_names = [||]) tests =
  let buf = Buffer.create 256 in
  if Array.length pi_names > 0 then begin
    Buffer.add_string buf "# pins:";
    Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) pi_names;
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun t ->
      Buffer.add_string buf "test\n";
      List.iter
        (fun (ff, v) ->
          Buffer.add_string buf
            (Printf.sprintf "load %d %d\n" ff (if v then 1 else 0)))
        t.p_loads;
      Array.iter
        (fun vec ->
          Buffer.add_string buf "vec ";
          Array.iter
            (fun b -> Buffer.add_char buf (if b then '1' else '0'))
            vec;
          Buffer.add_char buf '\n')
        t.p_vectors;
      Buffer.add_string buf "end\n")
    tests;
  Buffer.contents buf

(* The parser.  With [fit = (num_pis, num_ffs)], every vec must be
   [num_pis] bits wide and every load name a flip-flop below
   [num_ffs]. *)
let read_lines ?fit s =
  let tests = ref [] in
  let vectors = ref [] and loads = ref [] in
  let in_test = ref false in
  (* 1-based number of the line being read, and of the open block's
     [test] line *)
  let lnum = ref 0 and opened = ref 0 in
  let fail ?(at = !lnum) msg = raise (Parse_error (at, msg)) in
  let finish () =
    tests :=
      { p_vectors = Array.of_list (List.rev !vectors);
        p_loads = List.rev !loads }
      :: !tests;
    vectors := [];
    loads := [];
    in_test := false
  in
  List.iter
    (fun line ->
       let line = String.trim line in
       incr lnum;
       if line = "" || (String.length line > 0 && line.[0] = '#') then ()
       else if line = "test" then begin
         if !in_test then fail "nested test block";
         in_test := true;
         opened := !lnum
       end
       else if line = "end" then begin
         if not !in_test then fail "end without test";
         finish ()
       end
       else if String.length line > 4 && String.sub line 0 4 = "vec " then begin
         let bits = String.sub line 4 (String.length line - 4) in
         let vec =
           Array.init (String.length bits) (fun i ->
               match bits.[i] with
               | '1' -> true
               | '0' -> false
               | c -> fail (Printf.sprintf "bad bit %C" c))
         in
         (match fit with
          | Some (pis, _) when Array.length vec <> pis ->
            fail
              (Printf.sprintf "%d-bit vec, the design has %d inputs"
                 (Array.length vec) pis)
          | _ -> ());
         vectors := vec :: !vectors
       end
       else if String.length line > 5 && String.sub line 0 5 = "load " then begin
         match String.split_on_char ' ' line with
         | [ _; ff; ("0" | "1" as v) ] when int_of_string_opt ff <> None ->
           let ff = int_of_string ff in
           (match fit with
            | Some (_, ffs) when ff < 0 || ff >= ffs ->
              fail
                (Printf.sprintf
                   "load of flip-flop %d, the design has %d flip-flops" ff ffs)
            | _ -> ());
           loads := (ff, v = "1") :: !loads
         | _ -> fail ("bad load line: " ^ line)
       end
       else fail ("unrecognized line: " ^ line))
    (String.split_on_char '\n' s);
  if !in_test then fail ~at:!opened "unterminated test block";
  List.rev !tests

(** [read_string s] parses the vector-file format from a string.
    @raise Parse_error on malformed input. *)
let read_string s = read_lines s

(** [read_string_for ~num_pis ~num_ffs s] parses [s] for a circuit with
    [num_pis] inputs and [num_ffs] flip-flops.
    @raise Parse_error on malformed input, a vec of another width or a
    load of a flip-flop the circuit lacks. *)
let read_string_for ~num_pis ~num_ffs s =
  read_lines ~fit:(num_pis, num_ffs) s
