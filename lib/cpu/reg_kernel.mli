(** Register kernels: the fast engines' integer semantics.

    Both fast engines compile through this module: {!Lower} each
    register-only instruction and each branch of a translation block,
    and {!Superblock} each such unit of a trace.  A kernel is
    one closure per opcode, specialised at translate time: it reads
    and writes {!Arch_state.t.regs} in place and computes through
    {!S4e_bits.Bits}, with no operator closure and no register
    accessor call.  A write to x0 is dropped when the kernel is built,
    leaving only its tail.

    {!Exec.execute} stays the single-step reference for the same
    instructions; the differential tests hold the two equal. *)

type word = int

(** What a kernel does after its register write. *)
type _ tail =
  | Fall : Arch_state.t * word * int -> int tail
      (** a lowered µop: set pc to the fall-through and return the
          cycle charge *)
  | Next : (unit -> unit) -> unit tail
      (** a trace unit: run the rest of the trace *)

(** How a branch kernel leaves, in each direction. *)
type _ fork =
  | Goto : Arch_state.t * word * int * word * int -> int fork
      (** a lowered branch: [(st, target, taken charge, fall-through,
          not-taken charge)]; sets pc and returns that direction's
          charge *)
  | Either : (unit -> unit) * (unit -> unit) -> unit fork
      (** a trace: the continuation when taken, and when not taken *)

val value :
  'a tail -> Arch_state.t -> pc:word -> S4e_isa.Instr.t -> unit -> 'a
(** The kernel of an instruction whose only effect is a GPR write:
    [lui], [auipc], and every [op_r], [op_i], [op_shift] and
    [op_unary] form.  [pc] is the instruction's own address.
    @raise Invalid_argument on any other instruction. *)

val branch :
  'a fork ->
  Arch_state.t ->
  S4e_isa.Instr.op_branch ->
  rs1:int ->
  rs2:int ->
  unit ->
  'a
(** The kernel of a conditional branch comparing [rs1] with [rs2]. *)
