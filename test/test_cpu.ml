(* CPU tests: architectural state, single-instruction semantics, traps,
   CSRs, interrupts, the TB cache, and machine-level runs. *)

open S4e_isa
module Machine = S4e_cpu.Machine
module State = S4e_cpu.Arch_state
module Exec = S4e_cpu.Exec
module Trap = S4e_cpu.Trap
module Bus = S4e_mem.Bus

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 gen f)

(* run one instruction on a fresh state/bus *)
let step ?(pc = 0x8000_0000) ?(setup = fun _ _ -> ()) instr =
  let st = State.create ~pc () in
  let bus = Bus.create () in
  setup st bus;
  let taken = Exec.execute st bus ~size:4 instr in
  (st, bus, taken)

let reg_is st r v =
  Alcotest.(check int) (Printf.sprintf "x%d" r) v (State.get_reg st r)

(* ---------------- state ---------------- *)

let test_x0_hardwired () =
  let st = State.create () in
  State.set_reg st 0 123;
  Alcotest.(check int) "x0 stays zero" 0 (State.get_reg st 0);
  State.set_reg st 5 0x1_2345_6789;
  Alcotest.(check int) "values masked" 0x2345_6789 (State.get_reg st 5)

let test_state_copy () =
  let st = State.create () in
  State.set_reg st 7 42;
  st.State.mscratch <- 9;
  let c = State.copy st in
  State.set_reg st 7 1;
  st.State.mscratch <- 0;
  Alcotest.(check int) "copied reg" 42 (State.get_reg c 7);
  Alcotest.(check int) "copied csr" 9 c.State.mscratch

let test_csr_file () =
  let st = State.create () in
  Alcotest.(check (option unit)) "mscratch write" (Some ())
    (State.csr_write st Csr.mscratch 0xABCD);
  Alcotest.(check (option int)) "mscratch read" (Some 0xABCD)
    (State.csr_read st Csr.mscratch);
  Alcotest.(check (option unit)) "read-only rejected" None
    (State.csr_write st Csr.cycle 0);
  Alcotest.(check (option int)) "unknown csr" None (State.csr_read st 0x123);
  Alcotest.(check (option unit)) "mtvec aligned" (Some ())
    (State.csr_write st Csr.mtvec 0x8000_0003);
  Alcotest.(check (option int)) "mtvec low bits cleared" (Some 0x8000_0000)
    (State.csr_read st Csr.mtvec);
  st.State.cycle <- 0x1_0000_0002;
  Alcotest.(check (option int)) "cycle lo" (Some 2) (State.csr_read st Csr.cycle);
  Alcotest.(check (option int)) "cycleh" (Some 1) (State.csr_read st Csr.cycleh)

(* ---------------- ALU semantics vs the bits library ---------------- *)

let alu_matches_bits =
  prop "Op semantics match Bits"
    (QCheck.triple Gen.instr Gen.word32 Gen.word32)
    (fun (i, a, b) ->
      match i with
      | Instr.Op (op, rd, rs1, rs2) when rd <> 0 && rs1 <> rs2 && rs1 <> 0 && rs2 <> 0 ->
          let st, _, _ =
            step
              ~setup:(fun st _ ->
                State.set_reg st rs1 a;
                State.set_reg st rs2 b)
              i
          in
          let expected =
            let open S4e_bits.Bits in
            match op with
            | Instr.ADD -> add a b
            | SUB -> sub a b
            | SLL -> sll a b
            | SLT -> if lt_signed a b then 1 else 0
            | SLTU -> if lt_unsigned a b then 1 else 0
            | XOR -> logxor a b
            | SRL -> srl a b
            | SRA -> sra a b
            | OR -> logor a b
            | AND -> logand a b
            | MUL -> mul a b
            | MULH -> mulh a b
            | MULHSU -> mulhsu a b
            | MULHU -> mulhu a b
            | DIV -> div a b
            | DIVU -> divu a b
            | REM -> rem a b
            | REMU -> remu a b
            | ANDN -> andn a b
            | ORN -> orn a b
            | XNOR -> xnor a b
            | ROL -> rol a b
            | ROR -> ror a b
            | MIN -> min_signed a b
            | MAX -> max_signed a b
            | MINU -> min_unsigned a b
            | MAXU -> max_unsigned a b
            | BSET -> bset a b
            | BCLR -> bclr a b
            | BINV -> binv a b
            | BEXT -> bext a b
          in
          State.get_reg st rd = expected
      | _ -> true)

let unary_matches_bits =
  prop "Unary/Op_imm/Shift semantics match Bits"
    (QCheck.pair Gen.instr Gen.word32)
    (fun (i, a) ->
      let open S4e_bits.Bits in
      match i with
      | Instr.Unary (op, rd, rs1) when rd <> 0 && rs1 <> 0 ->
          let st, _, _ =
            step ~setup:(fun st _ -> State.set_reg st rs1 a) i
          in
          let expected =
            match op with
            | Instr.CLZ -> clz a
            | CTZ -> ctz a
            | CPOP -> popcount a
            | SEXT_B -> sext ~width:8 a
            | SEXT_H -> sext ~width:16 a
            | ZEXT_H -> zext ~width:16 a
            | REV8 -> rev8 a
            | ORC_B -> orc_b a
          in
          State.get_reg st rd = expected
      | Instr.Op_imm (op, rd, rs1, imm) when rd <> 0 && rs1 <> 0 ->
          let st, _, _ =
            step ~setup:(fun st _ -> State.set_reg st rs1 a) i
          in
          let b = of_signed imm in
          let expected =
            match op with
            | Instr.ADDI -> add a b
            | SLTI -> if lt_signed a b then 1 else 0
            | SLTIU -> if lt_unsigned a b then 1 else 0
            | XORI -> logxor a b
            | ORI -> logor a b
            | ANDI -> logand a b
          in
          State.get_reg st rd = expected
      | Instr.Shift_imm (op, rd, rs1, sh) when rd <> 0 && rs1 <> 0 ->
          let st, _, _ =
            step ~setup:(fun st _ -> State.set_reg st rs1 a) i
          in
          let expected =
            match op with
            | Instr.SLLI -> sll a sh
            | SRLI -> srl a sh
            | SRAI -> sra a sh
            | RORI -> ror a sh
            | BSETI -> bset a sh
            | BCLRI -> bclr a sh
            | BINVI -> binv a sh
            | BEXTI -> bext a sh
          in
          State.get_reg st rd = expected
      | _ -> true)

let test_directed_exec () =
  (* lui/auipc *)
  let st, _, _ = step (Instr.Lui (5, 0x12345)) in
  reg_is st 5 0x12345000;
  let st, _, _ = step ~pc:0x8000_0100 (Instr.Auipc (5, 0x1)) in
  reg_is st 5 0x8000_1100;
  (* jal writes the link and jumps *)
  let st, _, _ = step ~pc:0x8000_0000 (Instr.Jal (1, 16)) in
  reg_is st 1 0x8000_0004;
  Alcotest.(check int) "jal target" 0x8000_0010 st.State.pc;
  (* jalr clears bit 0 *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> State.set_reg st 6 0x8000_0101)
      (Instr.Jalr (1, 6, 2))
  in
  Alcotest.(check int) "jalr target even" 0x8000_0102 st.State.pc;
  (* branch taken/not-taken *)
  let st, _, taken =
    step
      ~setup:(fun st _ -> State.set_reg st 5 1)
      (Instr.Branch (BNE, 5, 0, 8))
  in
  Alcotest.(check bool) "taken" true taken;
  Alcotest.(check int) "branch target" 0x8000_0008 st.State.pc;
  let st, _, taken = step (Instr.Branch (BNE, 0, 0, 8)) in
  Alcotest.(check bool) "not taken" false taken;
  Alcotest.(check int) "fallthrough" 0x8000_0004 st.State.pc

let test_loads_stores () =
  let st, bus, _ =
    step
      ~setup:(fun st bus ->
        State.set_reg st 5 0x9000_0000;
        Bus.write32 bus 0x9000_0000 0xFFFF_FF80)
      (Instr.Load (LB, 6, 5, 0))
  in
  ignore bus;
  reg_is st 6 0xFFFF_FF80;  (* sign extended *)
  let st, _, _ =
    step
      ~setup:(fun st bus ->
        State.set_reg st 5 0x9000_0000;
        Bus.write32 bus 0x9000_0000 0x8081)
      (Instr.Load (LHU, 6, 5, 0))
  in
  reg_is st 6 0x8081;  (* zero extended *)
  let _, bus, _ =
    step
      ~setup:(fun st _ ->
        State.set_reg st 5 0x9000_0000;
        State.set_reg st 6 0xAABBCCDD)
      (Instr.Store (SH, 6, 5, 4))
  in
  Alcotest.(check int) "sh stores low half" 0xCCDD (Bus.read16 bus 0x9000_0004)

let test_misaligned_traps () =
  let expect_trap name instr setup =
    match step ~setup instr with
    | exception Trap.Exn _ -> ()
    | _ -> Alcotest.failf "%s should have trapped" name
  in
  expect_trap "lw misaligned" (Instr.Load (LW, 6, 5, 1)) (fun st _ ->
      State.set_reg st 5 0x9000_0000);
  expect_trap "lh misaligned" (Instr.Load (LH, 6, 5, 1)) (fun st _ ->
      State.set_reg st 5 0x9000_0000);
  expect_trap "sw misaligned" (Instr.Store (SW, 6, 5, 2)) (fun st _ ->
      State.set_reg st 5 0x9000_0000);
  expect_trap "ecall" Instr.Ecall (fun _ _ -> ());
  expect_trap "ebreak" Instr.Ebreak (fun _ _ -> ())

let test_csr_instr_semantics () =
  (* csrrw swaps *)
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        st.State.mscratch <- 7;
        State.set_reg st 5 9)
      (Instr.Csr (CSRRW, 6, Csr.mscratch, 5))
  in
  reg_is st 6 7;
  Alcotest.(check int) "written" 9 st.State.mscratch;
  (* csrrs with x0 does not write *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> st.State.mscratch <- 5)
      (Instr.Csr (CSRRS, 6, Csr.mscratch, 0))
  in
  reg_is st 6 5;
  Alcotest.(check int) "unchanged" 5 st.State.mscratch;
  (* csrrci clears bits *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> st.State.mscratch <- 0b1111)
      (Instr.Csr (CSRRCI, 6, Csr.mscratch, 0b0101))
  in
  Alcotest.(check int) "cleared" 0b1010 st.State.mscratch;
  (* access to an unimplemented CSR traps *)
  (match step (Instr.Csr (CSRRW, 6, 0x123, 5)) with
  | exception Trap.Exn (Trap.Illegal_instruction _) -> ()
  | _ -> Alcotest.fail "unimplemented CSR should trap");
  (* write to a read-only CSR traps, but reading via csrrs x0 is fine *)
  (match step (Instr.Csr (CSRRW, 6, Csr.cycle, 5)) with
  | exception Trap.Exn (Trap.Illegal_instruction _) -> ()
  | _ -> Alcotest.fail "read-only CSR write should trap");
  let st, _, _ = step (Instr.Csr (CSRRS, 6, Csr.mhartid, 0)) in
  reg_is st 6 0

(* ---------------- FP semantics ---------------- *)

let test_fp_basic () =
  let bits_of f = S4e_bits.Bits.of_int32 (Int32.bits_of_float f) in
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 (bits_of 1.5);
        State.set_freg st 2 (bits_of 2.25))
      (Instr.Fp_op (FADD, 3, 1, 2))
  in
  Alcotest.(check int) "1.5 + 2.25" (bits_of 3.75) (State.get_freg st 3);
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 (bits_of 2.0);
        State.set_freg st 2 (bits_of 3.0))
      (Instr.Fp_cmp (FLT, 5, 1, 2))
  in
  reg_is st 5 1;
  (* NaN handling: compares are false, min returns the other operand *)
  let nan_bits = 0x7FC00000 in
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 nan_bits;
        State.set_freg st 2 (bits_of 1.0))
      (Instr.Fp_cmp (FEQ, 5, 1, 2))
  in
  reg_is st 5 0;
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 nan_bits;
        State.set_freg st 2 (bits_of 1.0))
      (Instr.Fp_op (FMIN, 3, 1, 2))
  in
  Alcotest.(check int) "fmin ignores NaN" (bits_of 1.0) (State.get_freg st 3);
  (* conversions saturate *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> State.set_freg st 1 (bits_of 3.0e9))
      (Instr.Fcvt_w_s (5, 1, false))
  in
  reg_is st 5 0x7FFF_FFFF;
  let st, _, _ =
    step
      ~setup:(fun st _ -> State.set_freg st 1 (bits_of (-1.0)))
      (Instr.Fcvt_w_s (5, 1, true))
  in
  reg_is st 5 0;
  (* fmv roundtrip *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> State.set_reg st 5 0x12345678)
      (Instr.Fmv_w_x (1, 5))
  in
  Alcotest.(check int) "fmv.w.x" 0x12345678 (State.get_freg st 1)

let state_canonical_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"architectural state stays canonical" ~count:40
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 50_000))
       (fun seed ->
         let p =
           S4e_torture.Torture.generate
             { S4e_torture.Torture.default_config with seed; segments = 12 }
         in
         let m = Machine.create () in
         S4e_asm.Program.load_machine p m;
         let _ = Machine.run m ~fuel:100_000 in
         let st = Machine.state m in
         let canonical v = v >= 0 && v <= 0xFFFF_FFFF in
         st.State.regs.(0) = 0
         && Array.for_all canonical st.State.regs
         && Array.for_all canonical st.State.fregs
         && canonical st.State.pc
         && canonical st.State.mstatus
         && st.State.cycle >= st.State.instret))

let fp_props =
  [ prop "fadd matches single-precision double detour"
      (QCheck.pair Gen.word32 Gen.word32)
      (fun (a, b) ->
        let to_f x = Int32.float_of_bits (S4e_bits.Bits.to_int32 x) in
        QCheck.assume
          ((not (Float.is_nan (to_f a))) && not (Float.is_nan (to_f b)));
        let st, _, _ =
          step
            ~setup:(fun st _ ->
              State.set_freg st 1 a;
              State.set_freg st 2 b)
            (Instr.Fp_op (FADD, 3, 1, 2))
        in
        let expect = Int32.bits_of_float (to_f a +. to_f b) in
        let got = State.get_freg st 3 in
        (* NaN results are canonicalized *)
        Float.is_nan (to_f a +. to_f b)
        || got = S4e_bits.Bits.of_int32 expect);
    prop "fsgnj moves only the sign" (QCheck.pair Gen.word32 Gen.word32)
      (fun (a, b) ->
        let st, _, _ =
          step
            ~setup:(fun st _ ->
              State.set_freg st 1 a;
              State.set_freg st 2 b)
            (Instr.Fp_op (FSGNJ, 3, 1, 2))
        in
        let r = State.get_freg st 3 in
        r land 0x7FFF_FFFF = a land 0x7FFF_FFFF
        && r land 0x8000_0000 = b land 0x8000_0000);
    prop "fcvt.s.w exact for small ints" (QCheck.int_range (-1000000) 1000000)
      (fun v ->
        let st, _, _ =
          step
            ~setup:(fun st _ -> State.set_reg st 5 (S4e_bits.Bits.of_signed v))
            (Instr.Fcvt_s_w (1, 5, false))
        in
        let back =
          Int32.float_of_bits (S4e_bits.Bits.to_int32 (State.get_freg st 1))
        in
        back = float_of_int v) ]

(* ---------------- machine-level ---------------- *)

let run_asm ?config ?(fuel = 100_000) src =
  let p = S4e_asm.Assembler.assemble_exn src in
  let m = Machine.create ?config () in
  S4e_asm.Program.load_machine p m;
  let stop = Machine.run m ~fuel in
  (m, stop)

let exit_code = function
  | Machine.Exited c -> c
  | stop ->
      Alcotest.failf "expected exit, got %a" Machine.pp_stop_reason stop

let test_fp_special_values () =
  let bits_of f = S4e_bits.Bits.of_int32 (Int32.bits_of_float f) in
  (* division by zero produces infinity and raises DZ *)
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 (bits_of 1.0);
        State.set_freg st 2 (bits_of 0.0))
      (Instr.Fp_op (FDIV, 3, 1, 2))
  in
  Alcotest.(check int) "1/0 = +inf" 0x7F800000 (State.get_freg st 3);
  Alcotest.(check bool) "DZ flag" true (st.State.fcsr land 0x08 <> 0);
  (* sqrt of a negative is the canonical NaN with NV *)
  let st, _, _ =
    step
      ~setup:(fun st _ -> State.set_freg st 1 (bits_of (-4.0)))
      (Instr.Fsqrt (3, 1))
  in
  Alcotest.(check int) "sqrt(-4) canonical NaN" 0x7FC00000 (State.get_freg st 3);
  Alcotest.(check bool) "NV flag" true (st.State.fcsr land 0x10 <> 0);
  (* fmin orders -0.0 below +0.0 *)
  let st, _, _ =
    step
      ~setup:(fun st _ ->
        State.set_freg st 1 0x8000_0000;  (* -0.0 *)
        State.set_freg st 2 0x0000_0000)
      (Instr.Fp_op (FMIN, 3, 1, 2))
  in
  Alcotest.(check int) "fmin(-0,+0) = -0" 0x8000_0000 (State.get_freg st 3)

let test_interrupt_priority () =
  (* with both software and timer pending, software wins *)
  let _, stop =
    run_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  # make the timer already pending: mtimecmp = 0
  li   t1, CLINT + 0x4000
  sw   zero, 0(t1)
  sw   zero, 4(t1)
  # raise the software interrupt too
  li   t2, 1
  li   t3, CLINT
  sw   t2, 0(t3)
  # enable both and take one
  li   t4, 0x888
  csrw mie, t4
  csrrsi zero, mstatus, 8
spin:
  nop
  j    spin
handler:
  csrr a0, mcause
  li   t5, 0x00100000
  sw   a0, 0(t5)
  mret
|}
  in
  (* mcause = interrupt bit | 3 (machine software interrupt) *)
  Alcotest.(check int) "software interrupt first" 0x80000003 (exit_code stop)

let test_machine_trap_handler () =
  let _, stop =
    run_asm {|
_start:
  la   t0, handler
  csrw mtvec, t0
  ecall                  # -> handler, which bumps a0
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
handler:
  addi a0, a0, 55
  csrr t2, mepc
  addi t2, t2, 4
  csrw mepc, t2
  mret
|}
  in
  Alcotest.(check int) "handler ran" 55 (exit_code stop)

let test_machine_fatal_trap () =
  let _, stop = run_asm {|
_start:
  ecall
|} in
  match stop with
  | Machine.Fatal_trap (Trap.Ecall_from_m, pc) ->
      Alcotest.(check int) "faulting pc" 0x8000_0000 pc
  | _ -> Alcotest.failf "expected fatal trap, got %a" Machine.pp_stop_reason stop

let test_machine_illegal () =
  let _, stop = run_asm {|
_start:
  .word 0x00000057
|} in
  match stop with
  | Machine.Fatal_trap (Trap.Illegal_instruction w, _) ->
      Alcotest.(check int) "offending word" 0x57 w
  | _ -> Alcotest.fail "expected illegal instruction"

let test_machine_timer_interrupt () =
  let _, stop =
    run_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  # mtimecmp = 50 (mtime is still near zero)
  li   t1, CLINT
  li   t2, 50
  li   t5, CLINT + 0x4000
  sw   t2, 0(t5)          # mtimecmp lo = 50
  sw   zero, 4(t5)        # mtimecmp hi = 0
  # enable timer interrupt
  li   t6, 0x80
  csrw mie, t6
  csrrsi zero, mstatus, 8 # set MIE
wait:
  wfi
  j    wait
handler:
  li   t1, 0x00100000
  li   t2, 77
  sw   t2, 0(t1)
  mret
|}
  in
  Alcotest.(check int) "woken by timer" 77 (exit_code stop)

let test_machine_wfi_halt () =
  let _, stop = run_asm {|
_start:
  wfi
|} in
  match stop with
  | Machine.Wfi_halt -> ()
  | _ -> Alcotest.failf "expected wfi halt, got %a" Machine.pp_stop_reason stop

let test_machine_out_of_fuel () =
  let _, stop = run_asm ~fuel:100 {|
_start:
spin:
  j spin
|} in
  match stop with
  | Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_fence_i_self_modifying () =
  (* the program overwrites an addi 0 with addi 1 ahead of the pc, runs
     fence.i, and must observe the new code *)
  let _, stop =
    run_asm {|
_start:
  la   t0, patch_site
  # build "addi a0, a0, 1" = 0x00150513
  li   t1, 0x00150513
  sw   t1, 0(t0)
  fence.i
  li   a0, 0
patch_site:
  addi a0, a0, 0
  li   t2, 0x00100000
  sw   a0, 0(t2)
  ebreak
|}
  in
  Alcotest.(check int) "patched code executed" 1 (exit_code stop)

let test_page_granular_invalidation () =
  (* self-modifying code with NO fence.i: the store alone must kill the
     already-cached block it overwrites (page-granular invalidation),
     while unrelated cached blocks survive.  The slot runs twice: the
     first pass executes the original addi+1, then patches itself to
     addi+99, so exit code 100 proves the second pass saw fresh code. *)
  let m, stop =
    run_asm {|
_start:
  li   s0, 2
  li   a0, 0
  la   t0, patch
  lw   t1, 0(t0)
loop:
slot:
  addi a0, a0, 1
  addi s0, s0, -1
  beqz s0, done
  la   t2, slot
  sw   t1, 0(t2)
  j    loop
done:
  li   t3, 0x00100000
  sw   a0, 0(t3)
patch:
  addi a0, a0, 99
|}
  in
  Alcotest.(check int) "patched code executed without fence.i" 100
    (exit_code stop);
  let ts = Machine.tb_stats m in
  (* exactly the block overlapping the stored word died; no flush *)
  Alcotest.(check int) "one block invalidated"
    1 ts.S4e_cpu.Tb_cache.st_invalidations;
  let blocks = ts.S4e_cpu.Tb_cache.st_blocks in
  Alcotest.(check bool) "unrelated blocks survive" true (blocks >= 2)

(* A block that ends just before an undecodable word was decoded from
   that word too: had it decoded, the block would be longer, and a
   block boundary is where interrupts are sampled.  So rewriting the
   word kills the block, and so does a restore that changes it. *)
let test_undecodable_end_in_span () =
  let src = {|
_start:
  li   a0, 1
  addi a0, a0, 2
  .word 0
|}
  in
  let m, stop = run_asm src in
  (match stop with
  | Machine.Fatal_trap (S4e_cpu.Trap.Illegal_instruction 0, pc) ->
      Alcotest.(check int) "traps on the word" 0x8000_0008 pc
  | stop -> Alcotest.failf "expected an illegal instruction, got %a"
              Machine.pp_stop_reason stop);
  let killed () = (Machine.tb_stats m).S4e_cpu.Tb_cache.st_invalidations in
  let k0 = killed () in
  Machine.load_word m 0x8000_0008 (S4e_isa.Encode.encode (Instr.Ebreak));
  (* the block before the word, and the empty block at it *)
  Alcotest.(check int) "rewriting the word kills both blocks" (k0 + 2)
    (killed ())

(* A restore keeps the translations over bytes it does not change and
   kills exactly those over bytes it does: a rerun translates nothing
   new, unless code was rewritten between snapshot and restore. *)
let test_restore_keeps_translations () =
  let src = {|
_start:
  li   s0, 0
  li   s1, 200
loop:
  addi s0, s0, 1
slot:
  addi a0, a0, 3
  blt  s0, s1, loop
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
|}
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  let snap = Machine.snapshot m in
  let first = exit_code (Machine.run m ~fuel:100_000) in
  let misses () = (Machine.tb_stats m).S4e_cpu.Tb_cache.st_misses in
  let killed () = (Machine.tb_stats m).S4e_cpu.Tb_cache.st_invalidations in
  let m0 = misses () and k0 = killed () in
  Machine.restore m snap;
  Alcotest.(check int) "rerun exits the same" first
    (exit_code (Machine.run m ~fuel:100_000));
  Alcotest.(check int) "rerun translates nothing" m0 (misses ());
  Alcotest.(check int) "restore kills nothing" k0 (killed ());
  (* slot: addi a0, a0, 3 -> addi a0, a0, 5 *)
  let slot = Option.get (S4e_asm.Program.symbol p "slot") in
  Machine.load_word m slot
    (S4e_isa.Encode.encode (Instr.Op_imm (Instr.ADDI, 10, 10, 5)));
  Machine.restore m snap;
  Alcotest.(check int) "restore takes the rewrite back" first
    (exit_code (Machine.run m ~fuel:100_000))

let test_decoder_configs_agree () =
  (* the same torture program must produce identical results under all
     four decoder/TB-cache configurations *)
  let p =
    S4e_torture.Torture.generate
      { S4e_torture.Torture.default_config with seed = 99 }
  in
  let run config =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    let stop = Machine.run m ~fuel:100_000 in
    (stop, Machine.instret m)
  in
  let combos =
    [ { Machine.default_config with Machine.use_tb_cache = true;
        decoder = Machine.Decodetree_decoder };
      { Machine.default_config with Machine.use_tb_cache = false;
        decoder = Machine.Decodetree_decoder };
      { Machine.default_config with Machine.use_tb_cache = true;
        decoder = Machine.Hand_decoder };
      { Machine.default_config with Machine.use_tb_cache = false;
        decoder = Machine.Hand_decoder } ]
  in
  match List.map run combos with
  | first :: rest ->
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "config %d equals config 0" (i + 1))
            true (r = first))
        rest
  | [] -> assert false

let test_restricted_isa_traps () =
  (* running an M instruction on an RV32I-only machine must trap *)
  let config =
    { Machine.default_config with
      Machine.isa = [ Isa_module.I; Isa_module.Zicsr ] }
  in
  let _, stop =
    run_asm ~config {|
_start:
  li a0, 6
  li a1, 7
  mul a2, a0, a1
|}
  in
  match stop with
  | Machine.Fatal_trap (Trap.Illegal_instruction _, _) -> ()
  | _ -> Alcotest.failf "expected illegal on RV32I, got %a"
           Machine.pp_stop_reason stop

let test_tb_cache_stats () =
  let m = Machine.create () in
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   t0, 0
  li   t1, 100
loop:
  addi t0, t0, 1
  blt  t0, t1, loop
  li   t2, 0x00100000
  sw   zero, 0(t2)
  ebreak
|}
  in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:10_000 in
  let ts = Machine.tb_stats m in
  (* chained successor lookups bypass the hashtable entirely *)
  let chained = ts.S4e_cpu.Tb_cache.st_chain_hits in
  Alcotest.(check bool) "few blocks" true (ts.S4e_cpu.Tb_cache.st_blocks <= 5);
  Alcotest.(check bool) "mostly hits" true
    (ts.S4e_cpu.Tb_cache.st_hits + chained
    > ts.S4e_cpu.Tb_cache.st_misses * 10);
  Alcotest.(check bool) "chaining engaged" true (chained > 0)

(* The jump cache in front of the TB table.  A table-only model of the
   cache (the set of pcs with a live entry) predicts every hit and
   miss; lookups interleave two pcs that share a jump-cache slot and a
   third in another slot with invalidating stores and flushes.  No
   lookup may return a dead entry or an entry for another pc, and a
   killed block must be retranslated. *)
module Tb = S4e_cpu.Tb_cache

type tb_op = Look of int | Store of int | Flush

let tb_ops_gen =
  QCheck.make
    ~print:
      (QCheck.Print.list (function
        | Look i -> Printf.sprintf "look %d" i
        | Store i -> Printf.sprintf "store %d" i
        | Flush -> "flush"))
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [ (6, map (fun i -> Look i) (int_bound 2));
             (2, map (fun i -> Store i) (int_bound 2));
             (1, return Flush) ]))

let jump_cache_prop =
  prop "jump cache: live entry of the right pc, table-only counts" tb_ops_gen
    (fun ops ->
      let base = 0x8000_0000 in
      (* pcs 0 and 1 share a slot; pc 2 has its own *)
      let pcs = [| base; base + (2 * Tb.jump_slots); base + 8 |] in
      let bus = Bus.create () in
      let ram = Bus.ram bus in
      let put pc imm =
        S4e_mem.Sparse_mem.write32 ram pc
          (Encode.encode (Instr.Op_imm (Instr.ADDI, 10, 10, imm)));
        S4e_mem.Sparse_mem.write32 ram (pc + 4)
          (Encode.encode (Instr.Jal (0, 0)))
      in
      Array.iteri (fun i pc -> put pc i) pcs;
      let tb =
        Tb.create ~decode32:Decode.decode ~decode16:None
          ~fetch32:(Bus.fetch32 bus) ~fetch16:(Bus.fetch16 bus) ()
      in
      let live = Hashtbl.create 4 and hits = ref 0 and misses = ref 0 in
      let version = Array.make 3 0 in
      List.for_all
        (function
          | Look i ->
              let pc = pcs.(i) in
              if Hashtbl.mem live pc then incr hits
              else begin
                incr misses;
                Hashtbl.replace live pc ()
              end;
              let e = Tb.lookup tb pc in
              let s = Tb.stats tb in
              (not e.Tb.dead) && e.Tb.block_pc = pc
              && (match e.Tb.instrs.(0) with
                 | _, _, Instr.Op_imm (_, _, _, imm) -> imm = i + version.(i)
                 | _ -> false)
              && s.Tb.st_hits = !hits
              && s.Tb.st_misses = !misses
          | Store i ->
              let pc = pcs.(i) in
              version.(i) <- version.(i) + 3;
              put pc (i + version.(i));
              Tb.notify_store tb pc;
              Hashtbl.remove live pc;
              true
          | Flush ->
              Tb.flush tb;
              Hashtbl.reset live;
              true)
        ops)

(* Allocation guard for the hot path.  Once a loop is translated,
   lowered and promoted, running it allocates nothing per instruction:
   no option per block dispatch, no [Some hart] per CLINT query, no
   hash-table probe result, no operator closure.  The loop is branchy
   (a data-dependent diamond, so superblock guards bail every other
   iteration and the dispatch loop and lowered blocks run too) and
   goes through memory, and one of its blocks fails trace promotion on
   every attempt (its hot successor already heads a trace).  The bound
   leaves room for the closures each [Machine.run] call builds (about
   0.0015 words per instruction here).  An option per block dispatch
   and a hart option per interrupt sample came to 1.66; one closure per
   failed promotion attempt alone exceeds the bound. *)
let test_hot_loop_allocation () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s0, 0
  li   s1, 40000
  li   s2, 0
  la   s3, buf
loop:
  andi t0, s0, 1
  beqz t0, even
  addi s2, s2, 3
  j    next
even:
  xor  s2, s2, s0
  sw   s2, 0(s3)
next:
  lw   t1, 0(s3)
  add  s2, s2, t1
  addi s0, s0, 1
  bne  s0, s1, loop
  li   t2, 0x00100000
  sw   zero, 0(t2)
  ebreak
  .data
buf:
  .word 0
|}
  in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  (* warm-up: translation, lowering and trace promotion allocate *)
  (match Machine.run m ~fuel:20_000 with
  | Machine.Out_of_fuel -> ()
  | stop -> Alcotest.failf "warm-up: %a" Machine.pp_stop_reason stop);
  let i0 = Machine.instret m in
  let w0 = Gc.minor_words () in
  let stop = Machine.run m ~fuel:1_000_000 in
  let words = Gc.minor_words () -. w0 in
  let n = Machine.instret m - i0 in
  Alcotest.(check int) "loop exits" 0 (exit_code stop);
  Alcotest.(check bool) "hot loop retires >= 200k instructions" true
    (n >= 200_000);
  let per = words /. float_of_int n in
  if per > 0.01 then
    Alcotest.failf "%.0f minor words over %d instructions (%.3f each)" words n
      per

let test_atomics () =
  (* lr/sc success and failure, and a representative amo *)
  let _, stop =
    run_asm {|
_start:
  la   a0, cell
  lr.w a1, (a0)          # a1 = 7, reservation set
  addi a1, a1, 1
  sc.w a2, a1, (a0)      # succeeds: a2 = 0, cell = 8
  sc.w a3, a1, (a0)      # fails: a3 = 1 (reservation consumed)
  li   a4, 5
  amoadd.w a5, a4, (a0)  # a5 = 8, cell = 13
  lw   a6, 0(a0)
  # result = a2*1000 + a3*100 + (a6 == 13)
  li   t0, 1000
  mul  a2, a2, t0
  li   t0, 100
  mul  a3, a3, t0
  li   t1, 13
  xor  a6, a6, t1
  seqz a6, a6
  add  a0, a2, a3
  add  a0, a0, a6
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
cell:
  .word 7
|}
  in
  (* expect sc success (0*1000) + sc failure (1*100) + cell==13 (1) *)
  Alcotest.(check int) "atomics semantics" 101 (exit_code stop)

let test_amo_misaligned_traps () =
  let _, stop =
    run_asm {|
_start:
  li   a0, 0x80001001
  li   a1, 1
  amoadd.w a2, a1, (a0)
|}
  in
  match stop with
  | Machine.Fatal_trap (Trap.Misaligned_store _, _) -> ()
  | _ -> Alcotest.failf "expected misaligned trap, got %a"
           Machine.pp_stop_reason stop

let test_sc_wrong_address_fails () =
  let _, stop =
    run_asm {|
_start:
  la   a0, cell
  la   a1, other
  lr.w a2, (a0)          # reserve cell
  li   a3, 9
  sc.w a4, a3, (a1)      # different address: must fail
  lw   a5, 0(a1)         # other must be unchanged (42)
  # result = a4*100 + (a5 == 42)
  li   t0, 100
  mul  a4, a4, t0
  li   t1, 42
  xor  a5, a5, t1
  seqz a5, a5
  add  a0, a4, a5
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
cell:
  .word 7
other:
  .word 42
|}
  in
  Alcotest.(check int) "sc to wrong address fails, memory intact" 101
    (exit_code stop)

let test_load_use_hazard_cycles () =
  (* same instruction count; the dependent sequence stalls once *)
  let dependent = {|
_start:
  la   t0, v
  lw   a0, 0(t0)
  addi a0, a0, 1        # consumes the load result immediately
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
v:
  .word 41
|} in
  let independent = {|
_start:
  la   t0, v
  lw   a0, 0(t0)
  addi a1, t0, 1        # does not touch a0
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
v:
  .word 41
|} in
  let cycles src =
    let m, stop = run_asm src in
    (match stop with Machine.Exited _ -> () | _ -> Alcotest.fail "no exit");
    Machine.cycles m
  in
  let dep = cycles dependent and indep = cycles independent in
  Alcotest.(check int) "one stall cycle"
    Machine.default_config.Machine.timing.S4e_cpu.Timing_model.load_use_hazard
    (dep - indep);
  (* disabling hazards removes the difference *)
  let config =
    { Machine.default_config with
      Machine.timing =
        S4e_cpu.Timing_model.without_hazards Machine.default_config.Machine.timing }
  in
  let cycles_nh src =
    let m, _ = run_asm ~config src in
    Machine.cycles m
  in
  Alcotest.(check int) "no difference without hazards" 0
    (cycles_nh dependent - cycles_nh independent)

let test_recorder_window () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   t0, 0
  li   t1, 3
loop:
  addi t0, t0, 1
  blt  t0, t1, loop
  call f
  li   t2, 0x00100000
  sw   zero, 0(t2)
  ebreak
f:
  ret
|}
  in
  let module Fr = S4e_obs.Flight_recorder in
  (* the run's recorded window, through a ring of [capacity] records *)
  let recorded capacity =
    let m = Machine.create () in
    let r = Fr.create ~capacity () in
    Machine.set_recorder m (Some r);
    S4e_asm.Program.load_machine p m;
    (match Machine.run m ~fuel:1_000 with
    | Machine.Exited 0 -> ()
    | stop -> Alcotest.failf "run failed: %a" Machine.pp_stop_reason stop);
    (m, Fr.records r)
  in
  let m, window = recorded 256 in
  Alcotest.(check int) "instructions recorded" (Machine.instret m)
    (List.length (List.filter (fun rc -> rc.Fr.r_kind = Fr.Retire) window));
  let f = S4e_asm.Disasm.flow window in
  Alcotest.(check int) "three branch executions" 3 f.S4e_asm.Disasm.branches;
  Alcotest.(check int) "two taken" 2 f.S4e_asm.Disasm.taken;
  Alcotest.(check int) "one call" 1 f.S4e_asm.Disasm.calls;
  Alcotest.(check int) "one return" 1 f.S4e_asm.Disasm.returns;
  let _, tail = recorded 4 in
  Alcotest.(check int) "tail bounded" 4 (List.length tail);
  (* last recorded instruction is the store (ebreak never runs) *)
  match List.rev tail with
  | last :: _ ->
      Alcotest.(check string) "last is the exit store" "sw"
        (match Decode.decode last.Fr.r_op with
        | Some i -> Instr.mnemonic i
        | None -> "?")
  | [] -> Alcotest.fail "empty tail"

let test_cache_model_unit () =
  let module C = S4e_cpu.Cache_model in
  let geo = C.geometry ~ways:2 ~line_bytes:16 ~total_bytes:128 () in
  Alcotest.(check int) "derived sets" 4 geo.C.g_sets;
  Alcotest.(check int) "size roundtrip" 128 (C.size_bytes geo);
  let c = C.create geo in
  (* cold miss, then hits within the same line *)
  Alcotest.(check bool) "cold miss" false (C.access c 0x100);
  Alcotest.(check bool) "same-line hit" true (C.access c 0x10f);
  Alcotest.(check bool) "next line misses" false (C.access c 0x110);
  (* two-way set: two conflicting lines coexist, a third evicts LRU *)
  let conflict n = 0x1000 + (n * 16 * geo.C.g_sets) in
  ignore (C.access c (conflict 0));
  ignore (C.access c (conflict 1));
  Alcotest.(check bool) "way 0 still resident" true (C.access c (conflict 0));
  ignore (C.access c (conflict 2));  (* evicts conflict 1 (LRU) *)
  Alcotest.(check bool) "way survives" true (C.access c (conflict 0));
  Alcotest.(check bool) "LRU victim gone" false (C.access c (conflict 1));
  let s = C.stats c in
  Alcotest.(check int) "accesses" 9 s.C.st_accesses;
  Alcotest.(check int) "partition" s.C.st_accesses (s.C.st_hits + s.C.st_misses);
  C.reset c;
  Alcotest.(check int) "reset" 0 (C.stats c).C.st_accesses;
  Alcotest.check_raises "bad geometry"
    (Invalid_argument
       "Cache_model.geometry: line size must be a power of two >= 4")
    (fun () -> ignore (C.geometry ~line_bytes:24 ~total_bytes:96 ()))

let test_cache_model_attached () =
  let module C = S4e_cpu.Cache_model in
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s0, 0
  li   s1, 500
  la   s2, buf
lp:
  andi a0, s0, 31
  slli a0, a0, 2
  add  a1, s2, a0
  sw   s0, 0(a1)
  lw   a2, 0(a1)
  addi s0, s0, 1
  blt  s0, s1, lp
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
  .data
buf:
  .space 128
|}
  in
  let m = Machine.create () in
  let caches = C.attach m in
  S4e_asm.Program.load_machine p m;
  (match Machine.run m ~fuel:100_000 with
  | Machine.Exited 0 -> ()
  | stop -> Alcotest.failf "run: %a" Machine.pp_stop_reason stop);
  let ic = C.icache_stats caches and dc = C.dcache_stats caches in
  Alcotest.(check int) "icache saw every instruction" (Machine.instret m)
    ic.C.st_accesses;
  (* a tight loop is almost entirely I-cache hits *)
  Alcotest.(check bool) "icache hit rate > 99%" true (C.hit_rate ic > 0.99);
  (* the 128-byte working set fits: D-cache compulsory misses only *)
  Alcotest.(check bool) "dcache hit rate > 95%" true (C.hit_rate dc > 0.95);
  Alcotest.(check bool) "dcache misses bounded by working set" true
    (dc.C.st_misses <= 8);
  C.detach m caches;
  let before = ic.C.st_accesses in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:100_000 in
  Alcotest.(check int) "detached: no further counting" before
    (C.icache_stats caches).C.st_accesses

(* snapshot -> run k -> restore -> run k must replay identically:
   the campaign engine's fork correctness rests on this *)
let snapshot_replay_prop =
  let src = {|
_start:
  li   s0, 0
  li   s1, 300
  la   s2, buf
lp:
  andi a0, s0, 15
  slli a0, a0, 2
  add  a1, s2, a0
  sw   s0, 0(a1)
  lw   a2, 0(a1)
  mul  a3, a2, s0
  xor  s3, s3, a3
  addi s0, s0, 1
  blt  s0, s1, lp
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
  .data
buf:
  .space 64
|}
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"snapshot/restore replays identically" ~count:40
       QCheck.(pair (int_bound 600) (int_bound 600))
       (fun (k, j) ->
         let p = S4e_asm.Assembler.assemble_exn src in
         let m = Machine.create () in
         S4e_asm.Program.load_machine p m;
         ignore (Machine.run m ~fuel:k);
         let snap = Machine.snapshot m in
         let obs stop =
           ( stop,
             (Machine.state m).State.pc,
             Machine.instret m,
             (Machine.state m).State.cycle,
             Machine.uart_output m,
             Machine.state_digest m )
         in
         let o1 = obs (Machine.run m ~fuel:(j + 1)) in
         Machine.restore m snap;
         let o2 = obs (Machine.run m ~fuel:(j + 1)) in
         o1 = o2))

(* TLB invalidation corners at machine level: the same phased scenario —
   warm-up, an Io_guard stacked mid-run (installs/uninstalls the bus
   watcher), snapshot/restore, and injector writes — must be
   digest-identical with the software TLB on and off.  Any stale page
   pointer surviving one of those mutation points diverges the digest. *)
let tlb_corner_scenario mem_tlb (k1, k2, k3) =
  let src = {|
_start:
  li   s0, 0
  li   s1, 100000
  la   s2, buf
  li   s3, 0x10000000
lp:
  andi a0, s0, 63
  add  a1, s2, a0
  sb   s0, 0(a1)
  lbu  a2, 0(a1)
  xor  s4, s4, a2
  andi a3, s0, 1023
  bnez a3, nouart
  li   a4, 46
  sw   a4, 0(s3)
nouart:
  addi s0, s0, 1
  blt  s0, s1, lp
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
  .data
buf:
  .space 64
|}
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let config = { Machine.default_config with Machine.mem_tlb } in
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  (* phase 1: warm the TLB *)
  ignore (Machine.run m ~fuel:(k1 + 1));
  (* phase 2: stack an IO guard mid-run (watcher install must flush) *)
  let guard =
    S4e_core.Io_guard.attach m
      [ { S4e_core.Io_guard.p_device = "uart"; p_allowed = [];
          p_restrict = S4e_core.Io_guard.Restrict_writes } ]
  in
  ignore (Machine.run m ~fuel:(k2 + 1));
  let violations = List.length (S4e_core.Io_guard.violations guard) in
  S4e_core.Io_guard.detach m guard;
  (* phase 3: snapshot, diverge, restore (restore must flush) *)
  let snap = Machine.snapshot m in
  ignore (Machine.run m ~fuel:(k3 + 1));
  let diverged = Machine.state_digest m in
  Machine.restore m snap;
  (* phase 4: injector writes behind the bus — into the buffer the loop
     keeps reading, so a stale read-view entry would alter the xor
     stream — then run to completion *)
  let buf = List.assoc "buf" p.S4e_asm.Program.symbols in
  let armed =
    S4e_fault.Injector.arm m
      { S4e_fault.Fault.loc = S4e_fault.Fault.Data (buf + 7, 3);
        kind = S4e_fault.Fault.Permanent }
  in
  S4e_fault.Injector.disarm m armed;
  let stop = Machine.run m ~fuel:2_000_000 in
  (stop, violations, diverged, Machine.uart_output m, Machine.state_digest m)

let tlb_corners_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"TLB on/off agree across invalidation corners"
       ~count:20
       QCheck.(triple (int_bound 5_000) (int_bound 5_000) (int_bound 5_000))
       (fun ks -> tlb_corner_scenario true ks = tlb_corner_scenario false ks))

(* DMA-active runs: torture programs with the device rig armed (vnet
   generator bursts + delayed DMA descriptors mutating RAM behind the
   hart's back).  The full observable outcome must be digest-identical
   with the software TLB on and off — DMA writes bypass the bus, so a
   page pointer cached across a burst would serve stale data — and a
   mid-flight snapshot (DMA events pending, pages half-written) must
   restore and replay to the same digest. *)
let device_plane_scenario mem_tlb (seed, k) =
  let p =
    S4e_torture.Torture.generate
      { S4e_torture.Torture.default_config with S4e_torture.Torture.seed }
  in
  let config = { Machine.default_config with Machine.mem_tlb } in
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  S4e_core.Flows.arm_device_rig m;
  ignore (Machine.run m ~fuel:(k + 1));
  let snap = Machine.snapshot m in
  let stop1 = Machine.run m ~fuel:2_000_000 in
  let final1 = Machine.state_digest m in
  Machine.restore m snap;
  let stop2 = Machine.run m ~fuel:2_000_000 in
  let final2 = Machine.state_digest m in
  if final1 <> final2 || stop1 <> stop2 then
    QCheck.Test.fail_reportf
      "snapshot replay diverged (mem_tlb=%b seed=%d k=%d)" mem_tlb seed k;
  (stop1, final1, Machine.instret m, Machine.uart_output m)

let device_plane_diff_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"DMA-active runs: TLB on/off agree, snapshots replay" ~count:15
       QCheck.(pair (int_range 1 10_000) (int_bound 1_500))
       (fun sk ->
         device_plane_scenario true sk = device_plane_scenario false sk))

let test_mret_restores_mie () =
  let st = State.create () in
  State.set_mie_bit st false;
  State.set_mpie_bit st true;
  st.State.mepc <- 0x8000_0042 land lnot 1;
  let bus = Bus.create () in
  let _ = Exec.execute st bus ~size:4 Instr.Mret in
  Alcotest.(check bool) "MIE restored" true (State.mie_bit st);
  Alcotest.(check bool) "MPIE set" true (State.mpie_bit st);
  Alcotest.(check int) "pc from mepc" 0x8000_0042 st.State.pc

let () =
  Alcotest.run "cpu"
    [ ( "state",
        [ Alcotest.test_case "x0 hardwired" `Quick test_x0_hardwired;
          Alcotest.test_case "copy" `Quick test_state_copy;
          Alcotest.test_case "csr file" `Quick test_csr_file ] );
      ( "exec",
        [ Alcotest.test_case "directed" `Quick test_directed_exec;
          Alcotest.test_case "loads/stores" `Quick test_loads_stores;
          Alcotest.test_case "traps" `Quick test_misaligned_traps;
          Alcotest.test_case "csr instructions" `Quick test_csr_instr_semantics;
          Alcotest.test_case "fp basics" `Quick test_fp_basic;
          Alcotest.test_case "fp special values" `Quick test_fp_special_values;
          Alcotest.test_case "mret" `Quick test_mret_restores_mie ] );
      ("exec-properties",
        alu_matches_bits :: unary_matches_bits :: state_canonical_prop
        :: fp_props);
      ( "machine",
        [ Alcotest.test_case "trap handler" `Quick test_machine_trap_handler;
          Alcotest.test_case "interrupt priority" `Quick
            test_interrupt_priority;
          Alcotest.test_case "fatal trap" `Quick test_machine_fatal_trap;
          Alcotest.test_case "illegal instruction" `Quick test_machine_illegal;
          Alcotest.test_case "timer interrupt" `Quick
            test_machine_timer_interrupt;
          Alcotest.test_case "wfi halt" `Quick test_machine_wfi_halt;
          Alcotest.test_case "out of fuel" `Quick test_machine_out_of_fuel;
          Alcotest.test_case "fence.i self-modifying" `Quick
            test_fence_i_self_modifying;
          Alcotest.test_case "page-granular invalidation" `Quick
            test_page_granular_invalidation;
          Alcotest.test_case "undecodable end is in the span" `Quick
            test_undecodable_end_in_span;
          Alcotest.test_case "restore keeps translations" `Quick
            test_restore_keeps_translations;
          Alcotest.test_case "decoder configs agree" `Quick
            test_decoder_configs_agree;
          Alcotest.test_case "restricted ISA traps" `Quick
            test_restricted_isa_traps;
          Alcotest.test_case "tb cache stats" `Quick test_tb_cache_stats;
          Alcotest.test_case "load-use hazard" `Quick
            test_load_use_hazard_cycles;
          Alcotest.test_case "recorder window" `Quick test_recorder_window;
          Alcotest.test_case "atomics" `Quick test_atomics;
          Alcotest.test_case "amo misaligned" `Quick test_amo_misaligned_traps;
          Alcotest.test_case "sc wrong address" `Quick
            test_sc_wrong_address_fails;
          Alcotest.test_case "cache model unit" `Quick test_cache_model_unit;
          Alcotest.test_case "cache model attached" `Quick
            test_cache_model_attached;
          snapshot_replay_prop;
          tlb_corners_prop;
          device_plane_diff_prop;
          jump_cache_prop;
          Alcotest.test_case "hot loop allocates nothing" `Quick
            test_hot_loop_allocation ] ) ]
