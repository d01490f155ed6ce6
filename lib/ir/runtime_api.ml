let malloc = "malloc"
let free = "free"
let print = "print"
let syscall_prefix = "sys_"

let bounds_ok = "__bunshin_bounds_ok"
let not_freed = "__bunshin_not_freed"
let in_alloc = "__bunshin_in_alloc"
let init_ok = "__bunshin_init_ok"
let add_ok = "__bunshin_add_ok"
let mul_ok = "__bunshin_mul_ok"
let shift_ok = "__bunshin_shift_ok"
let code_ptr_ok = "__bunshin_code_ptr_ok"
let canary_value = 0xC0FFEEL

let report_prefixes =
  [ "__asan_report_"; "__msan_report"; "__ubsan_report_"; "__softbound_report";
    "__cets_report"; "__safecode_report"; "__stackcookie_report"; "__cfi_report" ]

let is_report_handler name =
  List.exists (fun prefix -> String.starts_with ~prefix name) report_prefixes

let helpers = [ bounds_ok; not_freed; in_alloc; init_ok; add_ok; mul_ok; shift_ok; code_ptr_ok ]

(* Arguments each fixed-arity intrinsic reads.  Syscalls and report
   handlers take any number. *)
let fixed_arities =
  [ (malloc, 1); (free, 1); (print, 1); (bounds_ok, 1); (not_freed, 1); (in_alloc, 1);
    (init_ok, 1); (add_ok, 2); (mul_ok, 2); (shift_ok, 1); (code_ptr_ok, 1) ]

let fixed_arity name = List.assoc_opt name fixed_arities

let is_intrinsic name =
  List.mem_assoc name fixed_arities
  || String.starts_with ~prefix:syscall_prefix name
  || is_report_handler name
