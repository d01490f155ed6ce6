(** Parser for the mini-IR's textual form — the exact syntax {!Printer}
    emits, so modules round-trip losslessly through text.  Used by the CLI
    to run [.bir] files through the full pipeline. *)

val parse : string -> (Ast.modul, string) result
(** Parse a whole module.  The error string carries a line number. *)

