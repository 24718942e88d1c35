open S4e_isa
open S4e_isa.Instr
module Bits = S4e_bits.Bits
module Bus = S4e_mem.Bus

type word = int

type reg_file = Gpr | Fpr

type stuck = {
  sk_file : reg_file;
  sk_reg : int;
  sk_bit : int;
  sk_value : bool;
}

(* The lowering context: everything a compiled µop may touch, bound
   once per machine.  [lx_flush_time] applies the cycles batched so far
   in the current block to [state.cycle] and the CLINT; µops that can
   observe time (CSR accesses, any bus access below [lx_dev_limit],
   i.e. into device space) call it first so batched ticking is
   indistinguishable from the generic per-instruction ticking.
   [lx_stuck] is read at translate time only: whoever changes it must
   flush the translations compiled under the old setting. *)
type ctx = {
  lx_state : Arch_state.t;
  lx_bus : Bus.t;
  lx_timing : Timing_model.t;
  lx_flush_time : unit -> unit;
  lx_notify_store : word -> unit;
  lx_dev_limit : word;
  mutable lx_stuck : stuck option;
}

(* x0 is hardwired: a stuck bit there is never forced. *)
let force st s =
  match s.sk_file with
  | Gpr ->
      if s.sk_reg <> 0 then
        Arch_state.set_reg st s.sk_reg
          (Bits.set_bit s.sk_bit s.sk_value (Arch_state.get_reg st s.sk_reg))
  | Fpr ->
      Arch_state.set_freg st s.sk_reg
        (Bits.set_bit s.sk_bit s.sk_value (Arch_state.get_freg st s.sk_reg))

let writes_stuck s instr =
  match s.sk_file with
  | Gpr -> s.sk_reg <> 0 && Instr.destination instr = Some s.sk_reg
  | Fpr -> Instr.fp_destination instr = Some s.sk_reg

(* Width/sign dispatch for loads and stores, hoisted to translate
   time.  Shared with the superblock trace compiler so both engines
   trap and truncate identically. *)
let load_fn bus op =
  match op with
  | LB -> fun addr -> Bits.sext ~width:8 (Bus.read8 bus addr)
  | LBU -> Bus.read8 bus
  | LH ->
      fun addr ->
        if addr land 1 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
        Bits.sext ~width:16 (Bus.read16 bus addr)
  | LHU ->
      fun addr ->
        if addr land 1 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
        Bus.read16 bus addr
  | LW ->
      fun addr ->
        if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
        Bus.read32 bus addr

let store_fn bus op =
  match op with
  | SB -> Bus.write8 bus
  | SH ->
      fun addr v ->
        if addr land 1 <> 0 then raise (Trap.Exn (Trap.Misaligned_store addr));
        Bus.write16 bus addr v
  | SW ->
      fun addr v ->
        if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_store addr));
        Bus.write32 bus addr v

let lower_instr ctx ~pc ~size instr =
  let st = ctx.lx_state in
  let bus = ctx.lx_bus in
  let flush_time = ctx.lx_flush_time in
  let notify_store = ctx.lx_notify_store in
  let dev_limit = ctx.lx_dev_limit in
  let get r = Arch_state.get_reg st r in
  let set r v = Arch_state.set_reg st r v in
  let getf r = Arch_state.get_freg st r in
  let setf r v = Arch_state.set_freg st r v in
  let next = Bits.mask32 (pc + size) in
  let cn, ct = Timing_model.costs ctx.lx_timing instr in
  (* [exec] must mirror [Exec.execute] arch-effect for arch-effect —
     the differential property tests in test_lowered.ml enforce the
     equivalence on random programs.  Register-only instructions and
     branches are {!Reg_kernel} kernels. *)
  let exec : unit -> int =
    match instr with
    | Lui _ | Auipc _ | Op_imm _ | Shift_imm _ | Op _ | Unary _ ->
        Reg_kernel.value (Reg_kernel.Fall (st, next, cn)) st ~pc instr
    | Jal (rd, off) ->
        let target = Bits.add pc (Bits.of_signed off) in
        fun () ->
          set rd next;
          st.pc <- target;
          cn
    | Jalr (rd, rs1, imm) ->
        let b = Bits.of_signed imm in
        fun () ->
          let target = Bits.add (get rs1) b land lnot 1 in
          set rd next;
          st.pc <- target;
          cn
    | Branch (op, rs1, rs2, off) ->
        let target = Bits.add pc (Bits.of_signed off) in
        Reg_kernel.branch (Reg_kernel.Goto (st, target, ct, next, cn)) st op
          ~rs1 ~rs2
    | Load (op, rd, base, imm) ->
        let b = Bits.of_signed imm in
        let load = load_fn bus op in
        fun () ->
          let addr = Bits.add (get base) b in
          if addr < dev_limit then flush_time ();
          set rd (load addr);
          st.pc <- next;
          cn
    | Store (op, src, base, imm) ->
        let b = Bits.of_signed imm in
        let write = store_fn bus op in
        fun () ->
          let addr = Bits.add (get base) b in
          if addr < dev_limit then flush_time ();
          write addr (get src);
          notify_store addr;
          st.pc <- next;
          cn
    | Fence | Fence_i | Wfi ->
        fun () ->
          st.pc <- next;
          cn
    | Ecall -> fun () -> raise (Trap.Exn Trap.Ecall_from_m)
    | Ebreak -> fun () -> raise (Trap.Exn Trap.Breakpoint)
    | Mret ->
        fun () ->
          Arch_state.set_mie_bit st (Arch_state.mpie_bit st);
          Arch_state.set_mpie_bit st true;
          st.pc <- st.mepc;
          cn
    | Csr (op, rd, csr, src) ->
        let ill = Trap.Exn (Trap.Illegal_instruction (Encode.encode instr)) in
        fun () ->
          flush_time ();
          let old =
            match Arch_state.csr_read st csr with
            | Some v -> v
            | None -> raise ill
          in
          let write v =
            match Arch_state.csr_write st csr v with
            | Some () -> ()
            | None -> raise ill
          in
          (match op with
          | CSRRW -> write (get src)
          | CSRRWI -> write src
          | CSRRS -> if src <> 0 then write (old lor get src)
          | CSRRSI -> if src <> 0 then write (old lor src)
          | CSRRC ->
              if src <> 0 then write (old land lnot (get src) land 0xFFFF_FFFF)
          | CSRRCI -> if src <> 0 then write (old land lnot src land 0xFFFF_FFFF));
          set rd old;
          st.pc <- next;
          cn
    | Flw (frd, base, imm) ->
        let b = Bits.of_signed imm in
        fun () ->
          let addr = Bits.add (get base) b in
          if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
          if addr < dev_limit then flush_time ();
          setf frd (Bus.read32 bus addr);
          st.pc <- next;
          cn
    | Fsw (fsrc, base, imm) ->
        let b = Bits.of_signed imm in
        fun () ->
          let addr = Bits.add (get base) b in
          if addr land 3 <> 0 then
            raise (Trap.Exn (Trap.Misaligned_store addr));
          if addr < dev_limit then flush_time ();
          Bus.write32 bus addr (getf fsrc);
          notify_store addr;
          st.pc <- next;
          cn
    | Fp_op (op, frd, frs1, frs2) ->
        fun () ->
          setf frd (Exec.fp_op st op (getf frs1) (getf frs2));
          st.pc <- next;
          cn
    | Fp_cmp (op, rd, frs1, frs2) ->
        fun () ->
          set rd (Exec.fp_cmp st op (getf frs1) (getf frs2));
          st.pc <- next;
          cn
    | Fsqrt (frd, frs1) ->
        fun () ->
          setf frd (Exec.fsqrt_bits st (getf frs1));
          st.pc <- next;
          cn
    | Fcvt_w_s (rd, frs1, unsigned) ->
        fun () ->
          set rd (Exec.fcvt_w_s st ~unsigned (getf frs1));
          st.pc <- next;
          cn
    | Fcvt_s_w (frd, rs1, unsigned) ->
        fun () ->
          setf frd (Exec.fcvt_s_w ~unsigned (get rs1));
          st.pc <- next;
          cn
    | Fmv_x_w (rd, frs1) ->
        fun () ->
          set rd (getf frs1);
          st.pc <- next;
          cn
    | Fmv_w_x (frd, rs1) ->
        fun () ->
          setf frd (get rs1);
          st.pc <- next;
          cn
    | Lr (rd, rs1) ->
        fun () ->
          let addr = get rs1 in
          if addr land 3 <> 0 then raise (Trap.Exn (Trap.Misaligned_load addr));
          if addr < dev_limit then flush_time ();
          let v = Bus.read32 bus addr in
          st.reservation <- Some addr;
          set rd v;
          st.pc <- next;
          cn
    | Sc (rd, src, rs1) ->
        fun () ->
          let addr = get rs1 in
          if addr land 3 <> 0 then
            raise (Trap.Exn (Trap.Misaligned_store addr));
          (match st.reservation with
          | Some r when r = addr ->
              if addr < dev_limit then flush_time ();
              Bus.write32 bus addr (get src);
              notify_store addr;
              set rd 0
          | Some _ | None -> set rd 1);
          st.reservation <- None;
          st.pc <- next;
          cn
    | Amo (op, rd, src, rs1) ->
        let f = Exec.amo_fn op in
        fun () ->
          let addr = get rs1 in
          if addr land 3 <> 0 then
            raise (Trap.Exn (Trap.Misaligned_store addr));
          if addr < dev_limit then flush_time ();
          let old = Bus.read32 bus addr in
          Bus.write32 bus addr (f old (get src));
          notify_store addr;
          set rd old;
          st.pc <- next;
          cn
  in
  (* Only a write to the stuck register pays for the fault: it re-forces
     the bit straight after the write, so every later read — and the
     flight recorder's writeback capture — sees the held value. *)
  let exec =
    match ctx.lx_stuck with
    | Some s when writes_stuck s instr ->
        fun () ->
          let c = exec () in
          force st s;
          c
    | Some _ | None -> exec
  in
  { Tb_cache.u_pc = pc; u_size = size;
    u_src_mask = Instr.source_mask instr;
    u_load_dest_mask = Instr.load_dest_mask instr;
    u_wfi = (instr = Wfi); u_fence_i = (instr = Fence_i); u_exec = exec }

let lower_entry ctx (e : Tb_cache.entry) =
  Array.map
    (fun (pc, size, instr) -> lower_instr ctx ~pc ~size instr)
    e.Tb_cache.instrs
