(** Dominator analysis over a function's CFG (iterative data-flow on the
    reverse post-order), used by the verifier's SSA-style rule: every
    register use must be dominated by its definition. *)

type t

val of_func : Ast.func -> t

val dominates : t -> Ast.label -> Ast.label -> bool
(** [dominates t a b]: every path from entry to [b] passes through [a].
    Reflexive.  Unreachable blocks are dominated by everything (they never
    execute). *)

val dominance_violations : Ast.func -> string list
(** Human-readable SSA violations: uses not dominated by their defs.  Phi
    operands are checked at the end of the corresponding predecessor. *)
