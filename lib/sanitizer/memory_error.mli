(** The memory-error taxonomy of the paper's Table 1.

    Every attack model in {!Bunshin_attack} is labelled with one of these
    classes, and every sanitizer declares which classes it detects; together
    they reproduce the defense column of Table 1. *)

type undefined_behavior =
  | Div_by_zero
  | Null_dereference
  | Pointer_misalignment
  | Signed_overflow
  | Shift_out_of_range
  | Invalid_bool
  | Unreachable_reached

type t =
  | Out_of_bounds_write  (** lack of length check, format string, integer overflow, bad cast *)
  | Out_of_bounds_read
  | Use_after_free       (** dangling pointer, double free *)
  | Double_free
  | Uninitialized_read   (** missing init, alignment padding, subword copy *)
  | Undefined of undefined_behavior

val all : t list
(** One representative of every class (undefined behaviours enumerated). *)

val name : t -> string
val pp : Format.formatter -> t -> unit

val main_causes : t -> string list
(** The "Main Causes" column of Table 1. *)

val of_hazard : Bunshin_ir.Interp.hazard -> t
(** Classify a hazard observed by the IR interpreter. *)

