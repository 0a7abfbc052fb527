(** Verilog pretty-printer.  The output is parseable by {!Parser}, so
    extracted constraints round-trip through the front end. *)

(** [module_to_string m] renders one module as Verilog source. *)
val module_to_string : Ast.module_def -> string

(** [design_to_string d] renders a whole design as Verilog source. *)
val design_to_string : Ast.design -> string
