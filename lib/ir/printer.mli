(** Textual rendering of the mini-IR (LLVM-ish syntax) for debugging,
    example output and golden tests. *)

open Ast

val string_of_func : func -> string
val string_of_modul : modul -> string
