(** Declarative decoder generator, modeled on QEMU's DecodeTree.

    An instruction set is described as a list of {!spec} rows — a
    mask/value pattern plus an operand-extraction function.  {!compile}
    turns the rows into a decision tree that switches on bit fields
    shared by all candidate rows, exactly as QEMU's decodetree generator
    emits nested [switch] statements.  The compiled tree decodes in a
    handful of table lookups instead of a linear scan.

    The RV32IMF+BMI table {!rv32_rows} is equivalent to the hand decoder
    {!Decode.decode}; the equivalence is property-tested and the
    relative speed benchmarked (experiment E7). *)

type word = S4e_bits.Bits.word

type spec = {
  name : string;  (** mnemonic, for reports and overlap diagnostics *)
  mask : word;  (** bits that must match *)
  value : word;  (** their required values; invariant [value land mask = value] *)
  operands : word -> Instr.t;  (** total on words matching the pattern *)
}

type t
(** A compiled decision tree. *)

val compile : spec list -> t
(** Compiles rows into a decision tree.  Raises [Invalid_argument] if a
    row violates the [value land mask = value] invariant or if two rows
    overlap (some word matches both). *)

val decode : t -> word -> Instr.t option
(** Decode one 32-bit word.  Words with low bits [<> 0b11] (compressed
    space) return [None]. *)

val rv32_rows : spec list
(** The full RV32I+M+Zicsr+F-subset+BMI row table. *)

val rv32 : unit -> t
(** Compiled decoder for {!rv32_rows}, built once when the module is
    initialised, so any number of domains may share it. *)

(** Shape statistics, for the E7 report. *)
type stats = { rows : int; switch_nodes : int; leaves : int; max_depth : int;
               max_leaf_width : int }

val stats : t -> stats

val check_overlap : spec list -> (string * string) option
(** [check_overlap rows] returns a pair of row names that can both match
    some word, or [None] if the table is unambiguous. *)
