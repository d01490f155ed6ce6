(** Plain-text table rendering for the benchmark harness.

    Renders the paper's tables/figure series as aligned ASCII so the bench
    output can be diffed against EXPERIMENTS.md. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** [create columns] starts an empty table with the given header. *)

val add_row : t -> string list -> unit
(** Append one row; must have as many cells as there are columns. *)

val add_sep : t -> unit
(** Append a horizontal separator row. *)

val render : t -> string
(** Full rendering, header first. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
