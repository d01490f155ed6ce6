(** Control-flow graph queries over a single function. *)

open Ast

type t

val of_func : func -> t

val successors : t -> label -> label list
val predecessors : t -> label -> label list

val is_branch_target : t -> label -> bool
(** [true] when the block is reached through a conditional branch — the
    first of the paper's three sink-point criteria for check discovery. *)

val reachable : t -> label list
(** Labels reachable from the entry block, in reverse post-order. *)
