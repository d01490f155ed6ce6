(** Names of runtime intrinsics shared by the verifier, interpreter,
    sanitizer passes and the check-removal slicer. *)

val malloc : string
val free : string

(** [print v]: observable output event. *)
val print : string

(** ["sys_"]: modelled syscalls, e.g. [sys_write]. *)
val syscall_prefix : string

(** {1 Sanitizer runtime helpers}

    Pure queries returning I1, inserted by instrumentation passes as the
    condition of a sanity check. *)

(** Address lies inside a live allocation. *)
val bounds_ok : string

(** Address does not point into freed memory. *)
val not_freed : string

(** Address lies inside some allocation, live or freed — a purely spatial
    check (SoftBound-style), blind to temporal errors. *)
val in_alloc : string

(** Slot at address has been initialised. *)
val init_ok : string

(** Signed addition does not overflow. *)
val add_ok : string

(** Signed multiplication does not overflow. *)
val mul_ok : string

(** Shift amount is in range. *)
val shift_ok : string

(** Value is the address of an actual function entry point (CFI-style
    indirect-call target check). *)
val code_ptr_ok : string

(** All of the check helpers above, for membership tests (e.g. the
    interpreter's per-variant check-hit counters). *)
val helpers : string list

(** The stack-cookie canary value stored below the return context. *)
val canary_value : int64

(** Known report-handler name prefixes ([__asan_report_], ...).  A call to
    any of these is the second sink-point criterion of check discovery. *)
val report_prefixes : string list

val is_report_handler : string -> bool

(** Every runtime function the interpreter implements (including report
    handlers and modelled syscalls). *)
val is_intrinsic : string -> bool

(** How many arguments a fixed-arity intrinsic reads: 1 for [malloc],
    [free], [print] and the check helpers, 2 for [add_ok] and [mul_ok].
    [None] for modelled syscalls and report handlers, which take any
    number, and for names that are not intrinsics. *)
val fixed_arity : string -> int option
