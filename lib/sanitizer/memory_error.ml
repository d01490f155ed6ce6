type undefined_behavior =
  | Div_by_zero
  | Null_dereference
  | Pointer_misalignment
  | Signed_overflow
  | Shift_out_of_range
  | Invalid_bool
  | Unreachable_reached

type t =
  | Out_of_bounds_write
  | Out_of_bounds_read
  | Use_after_free
  | Double_free
  | Uninitialized_read
  | Undefined of undefined_behavior

let all =
  [
    Out_of_bounds_write;
    Out_of_bounds_read;
    Use_after_free;
    Double_free;
    Uninitialized_read;
    Undefined Div_by_zero;
    Undefined Null_dereference;
    Undefined Pointer_misalignment;
    Undefined Signed_overflow;
    Undefined Shift_out_of_range;
    Undefined Invalid_bool;
    Undefined Unreachable_reached;
  ]

let ub_name = function
  | Div_by_zero -> "divide-by-zero"
  | Null_dereference -> "null-pointer-dereference"
  | Pointer_misalignment -> "pointer-misalignment"
  | Signed_overflow -> "signed-integer-overflow"
  | Shift_out_of_range -> "shift-out-of-range"
  | Invalid_bool -> "invalid-bool-load"
  | Unreachable_reached -> "unreachable-code-reached"

let name = function
  | Out_of_bounds_write -> "out-of-bound write"
  | Out_of_bounds_read -> "out-of-bound read"
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Uninitialized_read -> "uninitialized read"
  | Undefined u -> "undefined behavior: " ^ ub_name u

let pp fmt t = Format.pp_print_string fmt (name t)

let main_causes = function
  | Out_of_bounds_write | Out_of_bounds_read ->
    [ "lack of length check"; "format string bug"; "integer overflow"; "bad type casting" ]
  | Use_after_free -> [ "dangling pointer" ]
  | Double_free -> [ "double free" ]
  | Uninitialized_read ->
    [ "lack of initialization"; "data structure alignment"; "subword copying" ]
  | Undefined _ -> [ "pointer misalignment"; "divide-by-zero"; "null pointer dereference" ]

let of_hazard = function
  | Bunshin_ir.Interp.Oob_write _ -> Out_of_bounds_write
  | Bunshin_ir.Interp.Oob_read _ -> Out_of_bounds_read
  | Bunshin_ir.Interp.Uaf_write _ | Bunshin_ir.Interp.Uaf_read _ -> Use_after_free
  | Bunshin_ir.Interp.Uninit_read _ -> Uninitialized_read
  | Bunshin_ir.Interp.Double_free _ -> Double_free
  | Bunshin_ir.Interp.Bad_free _ -> Use_after_free
