(** A minimal JSON reader/printer, with no dependency beyond the stdlib:
    enough to round-trip incidents, to read and scale the bench baselines,
    and to validate exporter output (the CLI checks that the Chrome-trace
    and attribution JSON it writes actually parse).  The telemetry and
    profile exporters render their own documents but escape strings with
    {!escape}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, without the quotes.  The double
    quote, the backslash, newline, carriage return and tab get their
    two-character escapes; other control characters become a
    four-hex-digit [u] escape; every other byte passes through. *)

val parse : string -> (t, string) result
(** Strict recursive-descent parse of one JSON value (surrounding
    whitespace allowed, trailing garbage rejected).  A [u] escape takes
    exactly four hex digits.  Never raises: malformed input is an
    [Error] naming the offset. *)

val to_string : t -> string
(** Compact rendering; [parse (to_string v) = Ok v] for every value whose
    numbers are finite. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)
