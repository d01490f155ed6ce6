(** Structural well-formedness checks for mini-IR modules.

    The verifier enforces the invariants the slicer and interpreter rely on:
    unique labels and register definitions within a function, branch targets
    that exist, phi nodes that name actual predecessors, calls to known
    module functions with exactly their parameter count or to known
    intrinsics with at least the arguments they read
    ({!Runtime_api.fixed_arity}), and the SSA dominance rule (every use
    dominated by its definition, via {!Dominance}). *)

open Ast

type error = { ev_func : string; ev_message : string }

val errors : modul -> error list
(** All violations found, empty when the module is well formed. *)

val check : modul -> (unit, string) result
(** [Ok ()] or a rendered multi-line error report. *)

val check_exn : modul -> unit
(** @raise Invalid_argument with the rendered report when invalid. *)
