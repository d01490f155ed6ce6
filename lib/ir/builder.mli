(** Imperative construction of mini-IR modules.

    A builder tracks the current function and insertion block and generates
    fresh register/label names, mirroring LLVM's IRBuilder.  All emit
    functions return the defined register as a {!Ast.value} so calls
    compose: [let x = add b (cst 1) (cst 2) in store b x p]. *)

open Ast

type t

val create : string -> t
(** [create module_name] starts an empty module. *)

val finish : t -> modul
(** Return the module built so far. *)

val add_global : t -> name:string -> size:int -> ?init:int64 array -> unit -> unit
(** Declare a module-level global of [size] slots. *)

val start_func : t -> name:string -> params:reg list -> unit
(** Open a new function; creates and positions at its ["entry"] block. *)

val start_block : t -> label -> unit
(** Create block [label] in the current function and make it current. *)

val cst : int -> value

(** {1 Instruction emitters} — each appends to the current block. *)

val bin : t -> binop -> value -> value -> value
val add : t -> value -> value -> value
val sub : t -> value -> value -> value
val mul : t -> value -> value -> value
val sdiv : t -> value -> value -> value
val cmp : t -> cmpop -> value -> value -> value
val alloca : t -> int -> value
val load : t -> value -> value
val store : t -> value -> value -> unit
val gep : t -> value -> value -> value
val call : t -> string -> value list -> value
(** Call with a result register. *)

val call_void : t -> string -> value list -> unit
val call_ind : t -> value -> value list -> value
val select : t -> value -> value -> value -> value
val phi : t -> (label * value) list -> value

(** {1 Terminators} — each closes the current block. *)

val ret : t -> value option -> unit
val br : t -> label -> unit
val cond_br : t -> value -> label -> label -> unit
val unreachable : t -> unit
