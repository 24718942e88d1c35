(** A minimal JSON value type with a strict parser and printer.

    The fleet protocol is JSON over HTTP and the repository deliberately
    carries no third-party JSON dependency, so this module provides the
    small subset the protocol needs: full parse/print round-tripping of
    objects, arrays, strings (with escapes), integers, floats, booleans
    and null.  Unicode escapes are passed through byte-wise ([\uXXXX]
    decodes to the low byte), matching {!S4e_fault.Journal}'s escaping
    discipline — journal lines are themselves parseable by this
    module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed; trailing garbage is an error). *)

val to_string : t -> string
(** Compact single-line rendering; integers print without a decimal
    point, so [parse (to_string v) = Ok v] for values built from the
    constructors above. *)

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
