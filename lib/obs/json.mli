(** The one JSON value type, parser and printer of the repository.

    The repository carries no third-party JSON dependency, so this
    module provides what its formats need: full parse/print
    round-tripping of objects, arrays, strings, integers, floats,
    booleans and null.  Campaign journals, triage lines, fleet
    requests and replies, merge summaries and bench rows all go
    through it; {!Trace_events} and {!Metrics} stream their output
    but share {!escape}.

    The parser fails closed on untrusted input: it returns [Error] on
    any deviation from the grammar, on nesting deeper than
    {!max_depth}, and on a [\u] escape that is not exactly four hex
    digits or that leaves a UTF-16 surrogate unpaired.  A [\uXXXX]
    escape decodes to the code point's UTF-8 bytes; raw bytes pass
    through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val max_depth : int
(** 256: the deepest nesting of arrays and objects {!parse} accepts. *)

val parse : string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error). *)

val escape : string -> string
(** JSON string escaping, without the surrounding quotes: double quote,
    backslash, newline, carriage return and tab get their two-character
    escapes, the other control bytes a [\u00XX] escape, and every other
    byte passes through.  The one escaper every JSON writer in the
    repository uses. *)

val to_string : t -> string
(** Compact single-line rendering; integers print without a decimal
    point and non-finite floats as [null], so [parse (to_string v) =
    Ok v] for values with finite floats nested at most {!max_depth}
    deep. *)

(** {1 Accessors}

    All return [None] on a shape mismatch, so protocol handlers can
    validate with [Option] pipelines instead of exceptions. *)

val mem : string -> t -> t option
(** [mem key (Obj _)] — field lookup; [None] on non-objects. *)

val str : t -> string option
val int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val num : t -> float option
(** Accepts [Int] and [Float]. *)

val bool : t -> bool option
val list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
