open S4e_isa
open S4e_isa.Instr
module Bits = S4e_bits.Bits
module Bus = S4e_mem.Bus

type word = int

(* Floating point: FPRs hold IEEE-754 single bit patterns; operations
   convert to OCaml doubles, compute, and round back to single.  For
   +, -, *, / and sqrt this double-precision detour is exactly rounded
   (2p + 2 <= 53 for p = 24), so results are bit-accurate. *)

let f32_of_bits b = Int32.float_of_bits (Bits.to_int32 b)
let bits_of_f32 f = Bits.of_int32 (Int32.bits_of_float f)
let canonical_nan = 0x7FC0_0000
let is_nan_bits b = b land 0x7F80_0000 = 0x7F80_0000 && b land 0x007F_FFFF <> 0

(* fflags bits *)
let fflag_nv = 0x10
let fflag_dz = 0x08

let set_fflag (st : Arch_state.t) bit = st.fcsr <- st.fcsr lor bit

let alu_op op a b =
  match op with
  | ADD -> Bits.add a b
  | SUB -> Bits.sub a b
  | SLL -> Bits.sll a b
  | SLT -> if Bits.lt_signed a b then 1 else 0
  | SLTU -> if Bits.lt_unsigned a b then 1 else 0
  | XOR -> Bits.logxor a b
  | SRL -> Bits.srl a b
  | SRA -> Bits.sra a b
  | OR -> Bits.logor a b
  | AND -> Bits.logand a b
  | MUL -> Bits.mul a b
  | MULH -> Bits.mulh a b
  | MULHSU -> Bits.mulhsu a b
  | MULHU -> Bits.mulhu a b
  | DIV -> Bits.div a b
  | DIVU -> Bits.divu a b
  | REM -> Bits.rem a b
  | REMU -> Bits.remu a b
  | ANDN -> Bits.andn a b
  | ORN -> Bits.orn a b
  | XNOR -> Bits.xnor a b
  | ROL -> Bits.rol a b
  | ROR -> Bits.ror a b
  | MIN -> Bits.min_signed a b
  | MAX -> Bits.max_signed a b
  | MINU -> Bits.min_unsigned a b
  | MAXU -> Bits.max_unsigned a b
  | BSET -> Bits.bset a b
  | BCLR -> Bits.bclr a b
  | BINV -> Bits.binv a b
  | BEXT -> Bits.bext a b

let imm_op op a imm =
  let b = Bits.of_signed imm in
  match op with
  | ADDI -> Bits.add a b
  | SLTI -> if Bits.lt_signed a b then 1 else 0
  | SLTIU -> if Bits.lt_unsigned a b then 1 else 0
  | XORI -> Bits.logxor a b
  | ORI -> Bits.logor a b
  | ANDI -> Bits.logand a b

let shift_op op a sh =
  match op with
  | SLLI -> Bits.sll a sh
  | SRLI -> Bits.srl a sh
  | SRAI -> Bits.sra a sh
  | RORI -> Bits.ror a sh
  | BSETI -> Bits.bset a sh
  | BCLRI -> Bits.bclr a sh
  | BINVI -> Bits.binv a sh
  | BEXTI -> Bits.bext a sh

let unary_op op a =
  match op with
  | CLZ -> Bits.clz a
  | CTZ -> Bits.ctz a
  | CPOP -> Bits.popcount a
  | SEXT_B -> Bits.sext ~width:8 a
  | SEXT_H -> Bits.sext ~width:16 a
  | ZEXT_H -> Bits.zext ~width:16 a
  | REV8 -> Bits.rev8 a
  | ORC_B -> Bits.orc_b a

let branch_cond op a b =
  match op with
  | BEQ -> a = b
  | BNE -> a <> b
  | BLT -> Bits.lt_signed a b
  | BGE -> Bits.ge_signed a b
  | BLTU -> Bits.lt_unsigned a b
  | BGEU -> Bits.ge_unsigned a b

let fp_min_max st ~is_max a_bits b_bits =
  let a_nan = is_nan_bits a_bits and b_nan = is_nan_bits b_bits in
  if a_nan && b_nan then begin
    set_fflag st fflag_nv;
    canonical_nan
  end
  else if a_nan then begin set_fflag st fflag_nv; b_bits end
  else if b_nan then begin set_fflag st fflag_nv; a_bits end
  else
    let a = f32_of_bits a_bits and b = f32_of_bits b_bits in
    (* -0.0 orders below +0.0, which Float.compare delivers. *)
    let cmp = Float.compare a b in
    if (is_max && cmp >= 0) || ((not is_max) && cmp <= 0) then a_bits
    else b_bits

let fp_op st op a_bits b_bits =
  match op with
  | FSGNJ -> (a_bits land 0x7FFF_FFFF) lor (b_bits land 0x8000_0000)
  | FSGNJN ->
      (a_bits land 0x7FFF_FFFF) lor (lnot b_bits land 0x8000_0000)
  | FSGNJX -> a_bits lxor (b_bits land 0x8000_0000)
  | FMIN -> fp_min_max st ~is_max:false a_bits b_bits
  | FMAX -> fp_min_max st ~is_max:true a_bits b_bits
  | FADD | FSUB | FMUL | FDIV ->
      if is_nan_bits a_bits || is_nan_bits b_bits then begin
        set_fflag st fflag_nv;
        canonical_nan
      end
      else
        let a = f32_of_bits a_bits and b = f32_of_bits b_bits in
        let r =
          match op with
          | FADD -> a +. b
          | FSUB -> a -. b
          | FMUL -> a *. b
          | FDIV ->
              if b = 0.0 then set_fflag st fflag_dz;
              a /. b
          | _ -> assert false
        in
        if Float.is_nan r then canonical_nan else bits_of_f32 r

let fp_cmp st op a_bits b_bits =
  if is_nan_bits a_bits || is_nan_bits b_bits then begin
    (match op with FLT | FLE -> set_fflag st fflag_nv | FEQ -> ());
    0
  end
  else
    let a = f32_of_bits a_bits and b = f32_of_bits b_bits in
    let r =
      match op with FEQ -> a = b | FLT -> a < b | FLE -> a <= b
    in
    if r then 1 else 0

let fcvt_w_s st ~unsigned bits =
  if is_nan_bits bits then begin
    set_fflag st fflag_nv;
    if unsigned then 0xFFFF_FFFF else 0x7FFF_FFFF
  end
  else
    let f = f32_of_bits bits in
    (* Conversion truncates toward zero (RTZ, the usual fcvt rm). *)
    if unsigned then
      if f <= -1.0 then begin set_fflag st fflag_nv; 0 end
      else if f >= 4294967296.0 then begin
        set_fflag st fflag_nv;
        0xFFFF_FFFF
      end
      else Bits.mask32 (int_of_float f)
    else if f <= -2147483649.0 then begin
      set_fflag st fflag_nv;
      0x8000_0000
    end
    else if f >= 2147483648.0 then begin
      set_fflag st fflag_nv;
      0x7FFF_FFFF
    end
    else Bits.of_signed (int_of_float f)

let fcvt_s_w ~unsigned v =
  let f = if unsigned then float_of_int v else float_of_int (Bits.to_signed v) in
  bits_of_f32 f

let load_value bus op addr =
  match op with
  | LB -> Bits.sext ~width:8 (Bus.read8 bus addr)
  | LBU -> Bus.read8 bus addr
  | LH ->
      if addr land 1 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
      Bits.sext ~width:16 (Bus.read16 bus addr)
  | LHU ->
      if addr land 1 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
      Bus.read16 bus addr
  | LW ->
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
      Bus.read32 bus addr

let amo_op op old v =
  match op with
  | AMOSWAP -> v
  | AMOADD -> Bits.add old v
  | AMOXOR -> Bits.logxor old v
  | AMOAND -> Bits.logand old v
  | AMOOR -> Bits.logor old v
  | AMOMIN -> Bits.min_signed old v
  | AMOMAX -> Bits.max_signed old v
  | AMOMINU -> Bits.min_unsigned old v
  | AMOMAXU -> Bits.max_unsigned old v

let load_size = function LB | LBU -> 1 | LH | LHU -> 2 | LW -> 4
let store_size = function SB -> 1 | SH -> 2 | SW -> 4

let fsqrt_bits st a_bits =
  if is_nan_bits a_bits then begin
    set_fflag st fflag_nv;
    canonical_nan
  end
  else
    let a = f32_of_bits a_bits in
    if a < 0.0 then begin
      set_fflag st fflag_nv;
      canonical_nan
    end
    else bits_of_f32 (sqrt a)

(* Translation-time AMO selection for the lowered engine: resolves the
   sub-opcode match once and returns what [amo_op] computes. *)
let amo_fn = function
  | AMOSWAP -> fun _ v -> v
  | AMOADD -> Bits.add
  | AMOXOR -> Bits.logxor
  | AMOAND -> Bits.logand
  | AMOOR -> Bits.logor
  | AMOMIN -> Bits.min_signed
  | AMOMAX -> Bits.max_signed
  | AMOMINU -> Bits.min_unsigned
  | AMOMAXU -> Bits.max_unsigned

let execute ?on_mem (st : Arch_state.t) bus ~size instr =
  let pc = st.pc in
  let next = Bits.mask32 (pc + size) in
  let get = Arch_state.get_reg st and set = Arch_state.set_reg st in
  let getf = Arch_state.get_freg st and setf = Arch_state.set_freg st in
  let notify_mem addr sz value is_store =
    match on_mem with
    | None -> ()
    | Some f ->
        f { Hooks.mem_pc = pc; mem_addr = addr; mem_size = sz;
            mem_value = value; mem_is_store = is_store }
  in
  let taken = ref false in
  (match instr with
  | Lui (rd, imm20) ->
      set rd (imm20 lsl 12);
      st.pc <- next
  | Auipc (rd, imm20) ->
      set rd (Bits.add pc (imm20 lsl 12));
      st.pc <- next
  | Jal (rd, off) ->
      set rd next;
      st.pc <- Bits.add pc (Bits.of_signed off)
  | Jalr (rd, rs1, imm) ->
      let target = Bits.add (get rs1) (Bits.of_signed imm) land lnot 1 in
      set rd next;
      st.pc <- target
  | Branch (op, rs1, rs2, off) ->
      if branch_cond op (get rs1) (get rs2) then begin
        taken := true;
        st.pc <- Bits.add pc (Bits.of_signed off)
      end
      else st.pc <- next
  | Load (op, rd, base, imm) ->
      let addr = Bits.add (get base) (Bits.of_signed imm) in
      let v = load_value bus op addr in
      notify_mem addr (load_size op) v false;
      set rd v;
      st.pc <- next
  | Store (op, src, base, imm) ->
      let addr = Bits.add (get base) (Bits.of_signed imm) in
      let v = get src in
      (match op with
      | SB -> Bus.write8 bus addr v
      | SH ->
          if addr land 1 <> 0 then
            raise (Trap.Exn (Trap.Misaligned_store addr));
          Bus.write16 bus addr v
      | SW ->
          if addr land 3 <> 0 then
            raise (Trap.Exn (Trap.Misaligned_store addr));
          Bus.write32 bus addr v);
      notify_mem addr (store_size op) v true;
      st.pc <- next
  | Op_imm (op, rd, rs1, imm) ->
      set rd (imm_op op (get rs1) imm);
      st.pc <- next
  | Shift_imm (op, rd, rs1, sh) ->
      set rd (shift_op op (get rs1) sh);
      st.pc <- next
  | Op (op, rd, rs1, rs2) ->
      set rd (alu_op op (get rs1) (get rs2));
      st.pc <- next
  | Unary (op, rd, rs1) ->
      set rd (unary_op op (get rs1));
      st.pc <- next
  | Fence | Fence_i | Wfi ->
      (* Memory ordering is trivially strong in this emulator; WFI's
         wait behaviour is implemented by the machine loop. *)
      st.pc <- next
  | Ecall -> raise (Trap.Exn Trap.Ecall_from_m)
  | Ebreak -> raise (Trap.Exn Trap.Breakpoint)
  | Mret ->
      Arch_state.set_mie_bit st (Arch_state.mpie_bit st);
      Arch_state.set_mpie_bit st true;
      st.pc <- st.mepc
  | Csr (op, rd, csr, src) ->
      let read () =
        match Arch_state.csr_read st csr with
        | Some v -> v
        | None -> raise (Trap.Exn (Trap.Illegal_instruction (Encode.encode instr)))
      in
      let write v =
        match Arch_state.csr_write st csr v with
        | Some () -> ()
        | None -> raise (Trap.Exn (Trap.Illegal_instruction (Encode.encode instr)))
      in
      let old = read () in
      (match op with
      | CSRRW -> write (get src)
      | CSRRWI -> write src
      | CSRRS -> if src <> 0 then write (old lor get src)
      | CSRRSI -> if src <> 0 then write (old lor src)
      | CSRRC -> if src <> 0 then write (old land lnot (get src) land 0xFFFF_FFFF)
      | CSRRCI -> if src <> 0 then write (old land lnot src land 0xFFFF_FFFF));
      set rd old;
      st.pc <- next
  | Flw (frd, base, imm) ->
      let addr = Bits.add (get base) (Bits.of_signed imm) in
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
      let v = Bus.read32 bus addr in
      notify_mem addr 4 v false;
      setf frd v;
      st.pc <- next
  | Fsw (fsrc, base, imm) ->
      let addr = Bits.add (get base) (Bits.of_signed imm) in
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_store addr));
      let v = getf fsrc in
      Bus.write32 bus addr v;
      notify_mem addr 4 v true;
      st.pc <- next
  | Fp_op (op, frd, frs1, frs2) ->
      setf frd (fp_op st op (getf frs1) (getf frs2));
      st.pc <- next
  | Fp_cmp (op, rd, frs1, frs2) ->
      set rd (fp_cmp st op (getf frs1) (getf frs2));
      st.pc <- next
  | Fsqrt (frd, frs1) ->
      setf frd (fsqrt_bits st (getf frs1));
      st.pc <- next
  | Fcvt_w_s (rd, frs1, unsigned) ->
      set rd (fcvt_w_s st ~unsigned (getf frs1));
      st.pc <- next
  | Fcvt_s_w (frd, rs1, unsigned) ->
      setf frd (fcvt_s_w ~unsigned (get rs1));
      st.pc <- next
  | Fmv_x_w (rd, frs1) ->
      set rd (getf frs1);
      st.pc <- next
  | Fmv_w_x (frd, rs1) ->
      setf frd (get rs1);
      st.pc <- next
  | Lr (rd, rs1) ->
      let addr = get rs1 in
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
      let v = Bus.read32 bus addr in
      notify_mem addr 4 v false;
      st.reservation <- Some addr;
      set rd v;
      st.pc <- next
  | Sc (rd, src, rs1) ->
      let addr = get rs1 in
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_store addr));
      (match st.reservation with
      | Some r when r = addr ->
          let v = get src in
          Bus.write32 bus addr v;
          notify_mem addr 4 v true;
          set rd 0
      | Some _ | None -> set rd 1);
      st.reservation <- None;
      st.pc <- next
  | Amo (op, rd, src, rs1) ->
      let addr = get rs1 in
      if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_store addr));
      let old = Bus.read32 bus addr in
      notify_mem addr 4 old false;
      let v = amo_op op old (get src) in
      Bus.write32 bus addr v;
      notify_mem addr 4 v true;
      set rd old;
      st.pc <- next);
  !taken
