(** Check removal by backward slicing — the "de-instrumentation" pass of
    §4.1 of the paper.

    {b Discovery}: a basic block is a {e sink point} when it (1) is a
    branch target, (2) calls a known report handler, and (3) ends in
    [unreachable].  Metadata-maintenance code involves neither report
    handlers nor [unreachable], so it is never discovered.

    {b Removal}: for each sink, the conditional branch guarding it is
    located; a recursive backward trace marks the instructions that exist
    only to derive the branch condition, stopping at any value that is also
    used elsewhere in the program.  Marked instructions and the sink block
    are deleted and the branch is rewired to fall through to the surviving
    successor. *)

open Bunshin_ir

exception Error of string
(** Raised on malformed input the slicer cannot repair — e.g. a register
    whose definition site points at a location that holds no instruction
    (dangling sliced location).  The message names the function, block and
    instruction index involved. *)

type sink = {
  sk_func : string;
  sk_block : Ast.label;   (** label of the sink block *)
  sk_handler : string;    (** the report handler it calls *)
}

val discover : Ast.modul -> sink list
(** All sink points in the module, in function/block order. *)

val remove_checks :
  ?in_funcs:string list ->
  ?sink_filter:(sink -> bool) ->
  Ast.modul ->
  Ast.modul
(** Return a copy with checks removed.  [in_funcs] limits removal to the
    named functions (default: all); [sink_filter] selects individual sink
    sites (default: all), enabling basic-block-granularity distribution
    (§6): partition a function's sinks across variants instead of the
    whole function. *)

val removed_instruction_count : Ast.modul -> Ast.modul -> int
(** [removed_instruction_count before after]: how many instructions the
    removal deleted (including sink-block bodies). *)
