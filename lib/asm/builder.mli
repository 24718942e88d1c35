(** Instruction building: mnemonic + operands -> {!S4e_isa.Instr.t} list.

    Handles both real instructions and the standard pseudo-instruction
    set ([li], [la], [mv], [call], [ret], branch aliases, CSR aliases,
    FP sign-injection aliases, ...).  Pseudo expansion sizes are fixed
    per syntactic shape so that the assembler's pass 1 (layout) and
    pass 2 (encode) agree; the assembler asserts this.

    One table, built once, maps each mnemonic to its size rule and its
    build function; {!size_of}, {!build} and {!known_mnemonics} all read
    it. *)

exception Build_error of string

val size_of : string -> Source.operand list -> int
(** Encoded size in bytes (4 per expanded instruction).
    @raise Build_error for unknown mnemonics or operand shapes. *)

val build :
  string ->
  Source.operand list ->
  pc:int ->
  eval:(Source.expr -> int) ->
  S4e_isa.Instr.t list
(** Expand at address [pc], resolving expressions with [eval] ([eval]
    implements [%hi]/[%lo] and symbol lookup, and may itself raise
    {!Build_error}).
    @raise Build_error for range violations and shape errors. *)

val known_mnemonics : unit -> string list
(** Every mnemonic in the table, real and pseudo. *)

val hi20 : int -> int
(** [%hi] semantics: upper 20 bits compensated for [%lo] sign extension. *)

val lo12 : int -> int
(** [%lo] semantics: low 12 bits as a signed value. *)
