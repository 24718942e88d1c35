open S4e_isa.Instr
module Bits = S4e_bits.Bits

type word = int

type _ tail =
  | Fall : Arch_state.t * word * int -> int tail
  | Next : (unit -> unit) -> unit tail

type _ fork =
  | Goto : Arch_state.t * word * int * word * int -> int fork
  | Either : (unit -> unit) * (unit -> unit) -> unit fork

(* The tails are matched inside each kernel: a tag test on a captured
   constant, where a tail closure would cost a call per execution. *)
let[@inline] finish : type a. a tail -> a = function
  | Fall (st, next, c) ->
      st.Arch_state.pc <- next;
      c
  | Next k -> k ()

let[@inline] taken : type a. a fork -> a = function
  | Goto (st, target, ct, _, _) ->
      st.Arch_state.pc <- target;
      ct
  | Either (k, _) -> k ()

let[@inline] not_taken : type a. a fork -> a = function
  | Goto (st, _, _, next, cn) ->
      st.Arch_state.pc <- next;
      cn
  | Either (_, k) -> k ()

(* Registers are read and written in place.  [Arch_state.set_reg] never
   writes x0, so reading index 0 yields 0; kernels never write it
   either, since an x0 destination is dropped before a kernel is built.
   Every value stored is a canonical word: [Bits] results are. *)
let[@inline] get r i = Array.unsafe_get r i
let[@inline] set r i v = Array.unsafe_set r i v

(* The kernel of an instruction whose destination is x0: only its tail. *)
let skip (type a) (tl : a tail) : unit -> a =
  match tl with Next k -> k | Fall _ -> fun () -> finish tl

let const tl (st : Arch_state.t) ~rd v =
  if rd = 0 then skip tl
  else
    let r = st.Arch_state.regs in
    fun () ->
      set r rd v;
      finish tl

let op_r tl (st : Arch_state.t) op ~rd ~rs1 ~rs2 =
  if rd = 0 then skip tl
  else
    let r = st.Arch_state.regs in
    match op with
    | ADD -> fun () -> set r rd (Bits.add (get r rs1) (get r rs2)); finish tl
    | SUB -> fun () -> set r rd (Bits.sub (get r rs1) (get r rs2)); finish tl
    | SLL -> fun () -> set r rd (Bits.sll (get r rs1) (get r rs2)); finish tl
    | SLT ->
        fun () ->
          set r rd (if Bits.lt_signed (get r rs1) (get r rs2) then 1 else 0);
          finish tl
    | SLTU ->
        fun () ->
          set r rd
            (if Bits.lt_unsigned (get r rs1) (get r rs2) then 1 else 0);
          finish tl
    | XOR ->
        fun () ->
          set r rd (Bits.logxor (get r rs1) (get r rs2));
          finish tl
    | SRL -> fun () -> set r rd (Bits.srl (get r rs1) (get r rs2)); finish tl
    | SRA -> fun () -> set r rd (Bits.sra (get r rs1) (get r rs2)); finish tl
    | OR -> fun () -> set r rd (Bits.logor (get r rs1) (get r rs2)); finish tl
    | AND ->
        fun () ->
          set r rd (Bits.logand (get r rs1) (get r rs2));
          finish tl
    | MUL -> fun () -> set r rd (Bits.mul (get r rs1) (get r rs2)); finish tl
    | MULH ->
        fun () ->
          set r rd (Bits.mulh (get r rs1) (get r rs2));
          finish tl
    | MULHSU ->
        fun () ->
          set r rd (Bits.mulhsu (get r rs1) (get r rs2));
          finish tl
    | MULHU ->
        fun () ->
          set r rd (Bits.mulhu (get r rs1) (get r rs2));
          finish tl
    | DIV -> fun () -> set r rd (Bits.div (get r rs1) (get r rs2)); finish tl
    | DIVU ->
        fun () ->
          set r rd (Bits.divu (get r rs1) (get r rs2));
          finish tl
    | REM -> fun () -> set r rd (Bits.rem (get r rs1) (get r rs2)); finish tl
    | REMU ->
        fun () ->
          set r rd (Bits.remu (get r rs1) (get r rs2));
          finish tl
    | ANDN ->
        fun () ->
          set r rd (Bits.andn (get r rs1) (get r rs2));
          finish tl
    | ORN -> fun () -> set r rd (Bits.orn (get r rs1) (get r rs2)); finish tl
    | XNOR ->
        fun () ->
          set r rd (Bits.xnor (get r rs1) (get r rs2));
          finish tl
    | ROL -> fun () -> set r rd (Bits.rol (get r rs1) (get r rs2)); finish tl
    | ROR -> fun () -> set r rd (Bits.ror (get r rs1) (get r rs2)); finish tl
    | MIN ->
        fun () ->
          set r rd (Bits.min_signed (get r rs1) (get r rs2));
          finish tl
    | MAX ->
        fun () ->
          set r rd (Bits.max_signed (get r rs1) (get r rs2));
          finish tl
    | MINU ->
        fun () ->
          set r rd (Bits.min_unsigned (get r rs1) (get r rs2));
          finish tl
    | MAXU ->
        fun () ->
          set r rd (Bits.max_unsigned (get r rs1) (get r rs2));
          finish tl
    | BSET ->
        fun () ->
          set r rd (Bits.bset (get r rs1) (get r rs2));
          finish tl
    | BCLR ->
        fun () ->
          set r rd (Bits.bclr (get r rs1) (get r rs2));
          finish tl
    | BINV ->
        fun () ->
          set r rd (Bits.binv (get r rs1) (get r rs2));
          finish tl
    | BEXT ->
        fun () ->
          set r rd (Bits.bext (get r rs1) (get r rs2));
          finish tl

let op_i tl (st : Arch_state.t) op ~rd ~rs1 ~imm =
  if rd = 0 then skip tl
  else
    let r = st.Arch_state.regs in
    let b = Bits.of_signed imm in
    match op with
    | ADDI -> fun () -> set r rd (Bits.add (get r rs1) b); finish tl
    | SLTI ->
        fun () ->
          set r rd (if Bits.lt_signed (get r rs1) b then 1 else 0);
          finish tl
    | SLTIU ->
        fun () ->
          set r rd (if Bits.lt_unsigned (get r rs1) b then 1 else 0);
          finish tl
    | XORI -> fun () -> set r rd (Bits.logxor (get r rs1) b); finish tl
    | ORI -> fun () -> set r rd (Bits.logor (get r rs1) b); finish tl
    | ANDI -> fun () -> set r rd (Bits.logand (get r rs1) b); finish tl

let op_shift tl (st : Arch_state.t) op ~rd ~rs1 ~sh =
  if rd = 0 then skip tl
  else
    let r = st.Arch_state.regs in
    match op with
    | SLLI -> fun () -> set r rd (Bits.sll (get r rs1) sh); finish tl
    | SRLI -> fun () -> set r rd (Bits.srl (get r rs1) sh); finish tl
    | SRAI -> fun () -> set r rd (Bits.sra (get r rs1) sh); finish tl
    | RORI -> fun () -> set r rd (Bits.ror (get r rs1) sh); finish tl
    | BSETI -> fun () -> set r rd (Bits.bset (get r rs1) sh); finish tl
    | BCLRI -> fun () -> set r rd (Bits.bclr (get r rs1) sh); finish tl
    | BINVI -> fun () -> set r rd (Bits.binv (get r rs1) sh); finish tl
    | BEXTI -> fun () -> set r rd (Bits.bext (get r rs1) sh); finish tl

let op_unary tl (st : Arch_state.t) op ~rd ~rs1 =
  if rd = 0 then skip tl
  else
    let r = st.Arch_state.regs in
    match op with
    | CLZ -> fun () -> set r rd (Bits.clz (get r rs1)); finish tl
    | CTZ -> fun () -> set r rd (Bits.ctz (get r rs1)); finish tl
    | CPOP -> fun () -> set r rd (Bits.popcount (get r rs1)); finish tl
    | SEXT_B -> fun () -> set r rd (Bits.sext ~width:8 (get r rs1)); finish tl
    | SEXT_H ->
        fun () ->
          set r rd (Bits.sext ~width:16 (get r rs1));
          finish tl
    | ZEXT_H ->
        fun () ->
          set r rd (Bits.zext ~width:16 (get r rs1));
          finish tl
    | REV8 -> fun () -> set r rd (Bits.rev8 (get r rs1)); finish tl
    | ORC_B -> fun () -> set r rd (Bits.orc_b (get r rs1)); finish tl

let value tl st ~pc instr =
  match instr with
  | Lui (rd, imm20) -> const tl st ~rd (Bits.mask32 (imm20 lsl 12))
  | Auipc (rd, imm20) -> const tl st ~rd (Bits.add pc (imm20 lsl 12))
  | Op (op, rd, rs1, rs2) -> op_r tl st op ~rd ~rs1 ~rs2
  | Op_imm (op, rd, rs1, imm) -> op_i tl st op ~rd ~rs1 ~imm
  | Shift_imm (op, rd, rs1, sh) -> op_shift tl st op ~rd ~rs1 ~sh
  | Unary (op, rd, rs1) -> op_unary tl st op ~rd ~rs1
  | _ -> invalid_arg "Reg_kernel.value: not a register-value instruction"

let branch fk (st : Arch_state.t) op ~rs1 ~rs2 =
  let r = st.Arch_state.regs in
  match op with
  | BEQ ->
      fun () -> if get r rs1 = get r rs2 then taken fk else not_taken fk
  | BNE ->
      fun () -> if get r rs1 <> get r rs2 then taken fk else not_taken fk
  | BLT ->
      fun () ->
        if Bits.lt_signed (get r rs1) (get r rs2) then taken fk
        else not_taken fk
  | BGE ->
      fun () ->
        if Bits.ge_signed (get r rs1) (get r rs2) then taken fk
        else not_taken fk
  | BLTU ->
      fun () ->
        if Bits.lt_unsigned (get r rs1) (get r rs2) then taken fk
        else not_taken fk
  | BGEU ->
      fun () ->
        if Bits.ge_unsigned (get r rs1) (get r rs2) then taken fk
        else not_taken fk
