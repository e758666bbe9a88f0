(** JSON values, one printer and a parser.

    The repository has no JSON dependency. Every JSON document it writes
    (bench [--json], [scdsim prof --json], Chrome traces) is built as a
    {!value} and printed by {!to_string}; the parser reads documents back,
    for tests and for {!Chrome_trace.add_other}'s pre-serialised members. *)

val escape : string -> string
(** Escape a string for inclusion between double quotes. *)

val string : string -> string
(** A quoted, escaped JSON string literal. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list
(** A JSON document. Object members keep document order; duplicate keys
    keep their first occurrence for {!member}. *)

val int : int -> value
(** [Number] of an int (exact below 2{^53}). *)

val to_string : value -> string
(** The document as JSON text, without a trailing newline. Strings go
    through {!escape}; a non-finite number prints as [null] (JSON has no
    NaN or infinity); every other number prints in the fewest of 15, 16
    or 17 significant digits that {!parse} reads back as the same float.
    The top two levels put one item per line where they hold a non-empty
    array or object; everything deeper prints on one line. *)

val parse : string -> (value, string) result
(** Parse the whole input as exactly one JSON value (surrounded by optional
    whitespace). On failure the error names the byte offset. String escapes
    are decoded: [\uXXXX] becomes UTF-8, with UTF-16 surrogate pairs
    ([\uD800-\uDBFF] followed by [\uDC00-\uDFFF]) reassembled into one
    supplementary-plane code point; a lone surrogate is a parse error. *)

val member : string -> value -> value option
(** [member k (Object _)] is the value bound to [k], if any; [None] on
    non-objects. *)

val get_string : value -> string option
val get_number : value -> float option
val get_list : value -> value list option
