(** Width linting: reports assignments and instance connections that
    silently truncate the driving expression. *)

type finding = {
  ln_module : string;
  ln_context : string;  (** the assigned signal or connected port *)
  ln_lhs_width : int;
  ln_rhs_width : int;
}

val to_string : finding -> string

(** Lint every module of a design. *)
val check : Elaborate.edesign -> finding list
