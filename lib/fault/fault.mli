(** Fault models: bit flips in architectural state and memory.

    The fault paper's model space: permanent and transient single-bit
    flips in the register file, in instruction memory (equivalent to
    binary mutation), and in data memory.  A (fault, program) pair is a
    {e mutant}; running all mutants and classifying their outcomes is a
    campaign ({!Campaign}). *)

type word = S4e_bits.Bits.word

type location =
  | Gpr of S4e_isa.Reg.t * int  (** (register, bit 0..31) *)
  | Fpr of S4e_isa.Reg.t * int
  | Code of word * int  (** (instruction address, bit) — binary mutation *)
  | Data of word * int  (** (data address, bit within the byte's word) *)

type kind =
  | Permanent  (** stuck-at: the bit is held at its flipped value *)
  | Transient of int  (** single flip after N retired instructions *)

type t = { loc : location; kind : kind }

val describe : t -> string
(** Human-readable form ("GPR a0 bit 3 (permanent)").  Total: a
    register outside 0..31, which {!validate} rejects, prints by index
    ("GPR x33 bit 0"). *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int

val to_string : t -> string
(** Stable machine-readable form, e.g. ["gpr:10:24:perm"] or
    ["code:0x80000000:3:trans:43"].  Used in campaign journal records. *)

val validate : t -> (unit, string) result
(** [Ok ()] for a fault the injector can arm: register 0..31, bit
    0..31, a non-negative address, and a positive transient time. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}, and fails closed: accepts only the exact
    spelling {!to_string} prints ([to_string (of_string s) = s]) of a
    fault that {!validate} accepts. *)
