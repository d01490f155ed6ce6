(** IR instrumentation passes: compile a module "with sanitizers enabled".

    For each access the sanitizer guards, the pass splits the basic block
    and inserts exactly the shape the paper's check-discovery step looks
    for (§4.1):

    {v
      %ok = call @__bunshin_bounds_ok(%p)     ; check condition
      condbr %ok, %cont, %fail
    fail:                                      ; sink block:
      call @__asan_report_load()               ;   - branch target
      unreachable                              ;   - report handler call
    cont:                                      ;   - ends in unreachable
      %v = load %p                             ; the guarded access
    v}

    Metadata-maintenance instructions (shadow bookkeeping) are inserted as
    plain loads/stores of a module global — they involve neither report
    handlers nor [unreachable], so check removal must leave them intact. *)

open Bunshin_ir

val apply : Sanitizer.t list -> Ast.modul -> (Ast.modul, string) result
(** Instrument a copy of the module with all given sanitizers, in every
    function.  Fails when the set is not collectively enforceable — the
    implementation-conflict case Bunshin exists to avoid. *)

val apply_exn : Sanitizer.t list -> Ast.modul -> Ast.modul
(** @raise Invalid_argument on conflict. *)

