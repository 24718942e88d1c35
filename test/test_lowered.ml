(* Differential tests for the lowered (µop) execution engine.

   The machine has three engines — lowered translation blocks (with and
   without chaining), the generic decoded-array interpreter, and
   single-step decode-dispatch — that must be observationally
   indistinguishable: same stop reason, same instruction and cycle
   counts, and byte-identical [Machine.state_digest ~include_time:true]
   on every program, including ones that trap, take timer interrupts,
   sleep in WFI, rewrite their own code, and run compressed.  These
   tests drive all engines over hand-written corner cases and random
   torture programs and compare.  A TLB-off variant of the default
   engine rides along so the same cases also pin down the bus's
   software TLB (lib/mem/bus.ml).  The stuck-at group checks stuck
   register bits compiled into translated code against a
   per-instruction hook reference on every engine. *)

module Machine = S4e_cpu.Machine
module Torture = S4e_torture.Torture

let prop ?(count = 25) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

(* The engines under comparison.  [lowered] is the block engine with
   superblock traces pinned off (the stable reference); [superblocks]
   is the full default config, so every differential case also drives
   the trace engine.  [tlb-off] rides along likewise to prove the
   memory fast path observationally inert. *)
let sb_off c = { c with Machine.superblocks = false }

let engines =
  [ ("lowered", sb_off Machine.default_config);
    ("unchained", sb_off { Machine.default_config with Machine.chain_blocks = false });
    ("generic-tb", sb_off { Machine.default_config with Machine.lower_blocks = false });
    ("single-step", sb_off { Machine.default_config with Machine.use_tb_cache = false });
    ("tlb-off", sb_off { Machine.default_config with Machine.mem_tlb = false });
    ("superblocks", Machine.default_config)
  ]

type outcome = {
  o_stop : string;
  o_digest : string;
  o_instret : int;
  o_cycles : int;
}

let outcome_of m stop =
  { o_stop = Format.asprintf "%a" Machine.pp_stop_reason stop;
    o_digest = Digest.to_hex (Machine.state_digest ~include_time:true m);
    o_instret = Machine.instret m;
    o_cycles = Machine.cycles m }

(* [rig] arms the deterministic device-traffic rig (vnet generator +
   delayed DMA bursts, {!S4e_core.Flows.arm_device_rig}) before the
   run, so the differential also covers DMA invalidation, event-wheel
   ordering, and MEIP sampling. *)
let run_program ?(fuel = 200_000) ?(rig = false) config p =
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  if rig then S4e_core.Flows.arm_device_rig m;
  outcome_of m (Machine.run m ~fuel)

let check_engines_agree ?fuel ?rig p =
  match engines with
  | [] -> assert false
  | (ref_name, ref_config) :: rest ->
      let reference = run_program ?fuel ?rig ref_config p in
      List.iter
        (fun (name, config) ->
          let o = run_program ?fuel ?rig config p in
          Alcotest.(check string)
            (Printf.sprintf "%s vs %s: stop" name ref_name)
            reference.o_stop o.o_stop;
          Alcotest.(check int)
            (Printf.sprintf "%s vs %s: instret" name ref_name)
            reference.o_instret o.o_instret;
          Alcotest.(check int)
            (Printf.sprintf "%s vs %s: cycles" name ref_name)
            reference.o_cycles o.o_cycles;
          Alcotest.(check string)
            (Printf.sprintf "%s vs %s: digest" name ref_name)
            reference.o_digest o.o_digest)
        rest

let differential_asm ?fuel src =
  check_engines_agree ?fuel (S4e_asm.Assembler.assemble_exn src)

(* ---------------- hand-written corner cases ---------------- *)

(* Traps raised from the middle of a translation block: the handler
   skips the trapping instruction, so execution re-enters the block
   body at a non-entry pc. *)
let test_traps_mid_block () =
  differential_asm {|
_start:
  la   t0, handler
  csrw mtvec, t0
  li   s0, 0
  li   s1, 50
tloop:
  ecall
  ebreak
  addi s0, s0, 7
  addi s1, s1, -1
  bnez s1, tloop
  li   t1, 0x00100000
  sw   s0, 0(t1)
handler:
  addi s0, s0, 1
  csrr t2, mepc
  addi t2, t2, 4
  csrw mepc, t2
  mret
|}

(* mtvec pointing at the instruction right after the trap: the generic
   driver keeps executing the same block (pc happens to match), and the
   lowered driver must reproduce that. *)
let test_trap_continues_block () =
  differential_asm {|
_start:
  la   t0, after
  csrw mtvec, t0
  li   s0, 11
  ecall
after:
  addi s0, s0, 22
  li   t1, 0x00100000
  sw   s0, 0(t1)
|}

(* Timer interrupts landing in the middle of a compute loop; the
   handler pushes mtimecmp forward so several fire over the run.  Cycle
   equality here proves interrupt latency is identical across engines
   (batched ticking never defers a timer past a sampling point, and
   single-step samples at the same block boundaries the TB path does). *)
let test_timer_interrupts_during_loop () =
  differential_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t1, CLINT + 0x4000
  li   t2, 40
  sw   t2, 0(t1)          # mtimecmp = 40
  sw   zero, 4(t1)
  li   t3, 0x80
  csrw mie, t3
  csrrsi zero, mstatus, 8
  li   s0, 0
  li   s1, 2000
loop:
  addi s0, s0, 3
  xor  s2, s0, s1
  addi s1, s1, -1
  bnez s1, loop
  add  s0, s0, s3
  li   t4, 0x00100000
  sw   s0, 0(t4)
handler:
  addi s3, s3, 1          # count interrupts
  li   t5, CLINT + 0x4000
  lw   t6, 0(t5)
  addi t6, t6, 97
  sw   t6, 0(t5)
  mret
|}

let test_wfi_wakeup_and_halt () =
  (* timer-driven wakeups, then a final WFI with interrupts disabled
     halts the hart; digests must agree on the halt as well *)
  differential_asm {|
  .equ CLINT, 0x02000000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t1, CLINT + 0x4000
  li   t2, 30
  sw   t2, 0(t1)
  sw   zero, 4(t1)
  li   t3, 0x80
  csrw mie, t3
  csrrsi zero, mstatus, 8
  li   s1, 3
wait:
  wfi
  bnez s1, wait
  csrw mie, zero          # no wake source left
  wfi                     # -> Wfi_halt
handler:
  addi s1, s1, -1
  li   t5, CLINT + 0x4000
  lw   t6, 0(t5)
  addi t6, t6, 50
  sw   t6, 0(t5)
  mret
|}

(* Reading the cycle and time CSRs from inside hot blocks: forces the
   lowered engine to flush its batched ticks at the observation point. *)
let test_time_observed_mid_block () =
  differential_asm {|
_start:
  li   s1, 300
loop:
  csrr t0, cycle
  csrr t1, time
  add  s0, t0, t1
  addi s1, s1, -1
  bnez s1, loop
  li   t2, 0x00100000
  sw   s0, 0(t2)
|}

let test_fatal_traps_agree () =
  differential_asm {|
_start:
  li  s0, 5
  .word 0x00000057
|};
  differential_asm {|
_start:
  li  t0, 0x80000001
  lw  t1, 0(t0)           # misaligned load, no handler
|}

(* Self-modifying code without fence.i: a store into an already-cached
   block must invalidate it (page-granular) so the next entry
   retranslates.  First pass adds 1, the patched second pass adds 99. *)
let smc_src = {|
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

let test_self_modifying_differential () = differential_asm smc_src

(* ---------------- hooks attach/detach mid-run ---------------- *)

(* The lowered path is only taken while no hooks are installed;
   attaching one mid-run must transparently fall back to the generic
   engine (observing every subsequent event) and detaching must return
   to the lowered path — with no observable difference in the
   architectural trace. *)
let test_hooks_attach_detach_mid_run () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s1, 400
loop:
  addi s0, s0, 3
  xor  s2, s0, s1
  addi s1, s1, -1
  bnez s1, loop
  li   t0, 0x00100000
  sw   s0, 0(t0)
|}
  in
  let staged hooked =
    let m = Machine.create () in
    S4e_asm.Program.load_machine p m;
    (* identical fuel staging in both runs so block segmentation and
       interrupt sampling line up *)
    let r1 = Machine.run m ~fuel:100 in
    assert (r1 = Machine.Out_of_fuel);
    let count = ref 0 in
    let id =
      if hooked then
        Some (S4e_cpu.Hooks.on_insn m.Machine.hooks (fun _ _ -> incr count))
      else None
    in
    let r2 = Machine.run m ~fuel:100 in
    assert (r2 = Machine.Out_of_fuel);
    (match id with
    | Some id ->
        Alcotest.(check int) "hook saw every staged instruction" 100 !count;
        S4e_cpu.Hooks.unregister m.Machine.hooks id
    | None -> ());
    let stop = Machine.run m ~fuel:100_000 in
    (Format.asprintf "%a" Machine.pp_stop_reason stop,
     Digest.to_hex (Machine.state_digest ~include_time:true m),
     Machine.cycles m)
  in
  let plain = staged false and hooked = staged true in
  Alcotest.(check bool) "hooked run identical to plain run" true
    (plain = hooked)

(* ---------------- superblock trace invalidation ---------------- *)

(* A hot self-patching loop: runs long enough for the trace engine to
   promote the loop body (promotion needs ~64 block dispatches plus hot
   chain edges), then periodically rewrites an instruction {e inside
   the promoted trace} from within it — the store's invalidation must
   kill the running trace, which bails at the next block boundary with
   exact architectural state.  [mask] sets the patch period; the store
   target alternates branchlessly between a data word and the loop's
   own code. *)
let smc_hot_loop ~iters ~mask =
  Printf.sprintf {|
_start:
  li   s3, 0x00200000
  la   s4, site
  sub  s4, s4, s3
  li   t0, %d
  li   s1, 0
loop:
  addi s1, s1, 1
  andi t1, t0, %d
  seqz t1, t1
  neg  t1, t1
  and  t1, t1, s4
  add  t2, s3, t1
  lw   t3, 0(t2)
  sw   t3, 0(t2)
site:
  addi t0, t0, -1
  bnez t0, loop
  li   t6, 0x00100000
  sw   s1, 0(t6)
  ebreak
|} iters mask

let test_smc_kills_running_trace () =
  (* directed variant with stats assertions: the trace must have been
     promoted, executed, and then invalidated by the in-trace store *)
  let p = S4e_asm.Assembler.assemble_exn (smc_hot_loop ~iters:10_000 ~mask:255) in
  check_engines_agree p;
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  (match Machine.run m ~fuel:200_000 with
  | Machine.Exited _ -> ()
  | stop ->
      Alcotest.failf "smc loop did not exit: %a" Machine.pp_stop_reason stop);
  match Machine.trace_stats m with
  | None -> Alcotest.fail "superblocks disabled in default config"
  | Some s ->
      Alcotest.(check bool) "traces promoted" true
        (s.S4e_cpu.Superblock.sb_promotions > 0);
      Alcotest.(check bool) "traces completed" true
        (s.S4e_cpu.Superblock.sb_completions > 0);
      Alcotest.(check bool) "in-trace SMC store invalidated traces" true
        (s.S4e_cpu.Superblock.sb_invalidations > 0);
      Alcotest.(check bool) "invalidated trace bailed mid-run" true
        (s.S4e_cpu.Superblock.sb_bail_dead > 0)

let smc_trace_agrees seed =
  let iters = 300 + (seed mod 4000) in
  let mask = [| 127; 255; 511 |].(seed mod 3) in
  check_engines_agree (S4e_asm.Assembler.assemble_exn (smc_hot_loop ~iters ~mask));
  true

(* Fault-injector writes landing in promoted trace code: arm a
   permanent code flip after the loop is hot (traces promoted and
   running), then finish the run.  The flip goes through
   [Tb_cache.notify_store], so it must kill the overlapping blocks AND
   their traces; both engines then execute the mutated code. *)
let injector_mid_trace_agrees seed =
  let iters = 4_000 + (seed mod 4_000) in
  let src = Printf.sprintf {|
_start:
  li   t0, %d
  li   s1, 0
loop:
  addi s1, s1, 1
  xori s1, s1, 21
slot:
  addi s1, s1, 3
  addi t0, t0, -1
  bnez t0, loop
  li   t6, 0x00100000
  sw   s1, 0(t6)
  ebreak
|} iters
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let slot =
    match S4e_asm.Program.symbol p "slot" with
    | Some a -> a
    | None -> Alcotest.fail "no slot symbol"
  in
  (* flip a bit of slot's immediate: stays a decodable addi, so the
     run completes with a different checksum on both engines *)
  let bit = 20 + (seed mod 12) in
  let fault =
    { S4e_fault.Fault.loc = S4e_fault.Fault.Code (slot, bit);
      kind = S4e_fault.Fault.Permanent }
  in
  let staged config =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    let r1 = Machine.run m ~fuel:2_000 in
    assert (r1 = Machine.Out_of_fuel);
    let _armed = S4e_fault.Injector.arm m fault in
    let stop = Machine.run m ~fuel:1_000_000 in
    (outcome_of m stop, Machine.trace_stats m)
  in
  let on, st = staged Machine.default_config in
  let off, _ = staged (sb_off Machine.default_config) in
  (match st with
  | Some s ->
      (* non-vacuity: the loop was hot enough to promote before the flip *)
      if s.S4e_cpu.Superblock.sb_promotions = 0 then
        QCheck.Test.fail_report "no trace promoted before injector write"
  | None -> QCheck.Test.fail_report "superblocks disabled");
  on = off

(* ---------------- random torture programs ---------------- *)

let torture_agrees ?rig ~compress seed =
  let cfg = { Torture.default_config with Torture.seed; compress } in
  let p = Torture.generate cfg in
  check_engines_agree ?rig ~fuel:(Torture.fuel_bound cfg) p;
  true

(* A guest driver over the device plane: DMA burst with completion IRQ
   serviced from WFI, then the per-byte PIO tap — every engine must
   sample MEIP at the same boundaries and fast-forward WFI to the same
   event deadlines. *)
let test_device_driver_agrees () =
  differential_asm {|
  .equ DMA,  0x10020000
  .equ VNET, 0x10030000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t0, 0x800
  csrw mie, t0
  csrrsi zero, mstatus, 8
  # one 64-byte DMA burst out of the code-adjacent data area
  la   a0, ring
  la   a1, src
  la   a2, dst
  sw   a1, 0(a0)
  sw   a2, 4(a0)
  li   t1, 64
  sw   t1, 8(a0)
  li   t1, 1
  sw   t1, 12(a0)
  li   s0, DMA
  sw   a0, 0x00(s0)
  li   t1, 1
  sw   t1, 0x04(s0)
  sw   t1, 0x14(s0)
  sw   t1, 0x08(s0)
wait:
  lw   t1, 0x20(s0)
  beqz t1, sleep
  j    drained
sleep:
  wfi
  j    wait
drained:
  # drain 32 stream bytes through the PIO tap
  li   s1, VNET
  li   t2, 9
  sw   t2, 0x2C(s1)
  li   s2, 0
  li   s3, 32
  li   s4, 0
pio:
  lw   t3, 0x50(s1)
  add  s4, s4, t3
  addi s2, s2, 1
  blt  s2, s3, pio
  lw   t4, 0(a2)        # first copied word
  add  a0, s4, t4
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
handler:
  li   t5, DMA
  lw   t4, 0x10(t5)
  sw   t4, 0x10(t5)
  mret
  .data
ring:
  .space 16
src:
  .word 0x11223344, 2, 3, 4, 5, 6, 7, 8
  .space 32
dst:
  .space 64
|}

(* ---------------- stuck-at register bits ---------------- *)

(* The reference model of a permanent register fault: a
   per-instruction hook that re-forces the bit before every instruction
   (and so keeps the run on the generic interpreter).  The compiled
   force must be indistinguishable from it. *)
let ref_force (st : S4e_cpu.Arch_state.t) (s : Machine.stuck) =
  let set v = S4e_bits.Bits.set_bit s.Machine.sk_bit s.Machine.sk_value v in
  match s.Machine.sk_file with
  | Machine.Gpr ->
      S4e_cpu.Arch_state.set_reg st s.Machine.sk_reg
        (set (S4e_cpu.Arch_state.get_reg st s.Machine.sk_reg))
  | Machine.Fpr ->
      S4e_cpu.Arch_state.set_freg st s.Machine.sk_reg
        (set (S4e_cpu.Arch_state.get_freg st s.Machine.sk_reg))

type stuck_case = {
  sc_file : Machine.reg_file;
  sc_reg : int;
  sc_bit : int;
  sc_arm_at : int;  (** retired instructions before arming; 0 = at reset *)
}

let pp_case c =
  Printf.sprintf "%s%d bit %d armed at %d"
    (match c.sc_file with Machine.Gpr -> "x" | Machine.Fpr -> "f")
    c.sc_reg c.sc_bit c.sc_arm_at

let fault_of c =
  { S4e_fault.Fault.loc =
      (match c.sc_file with
      | Machine.Gpr -> S4e_fault.Fault.Gpr (c.sc_reg, c.sc_bit)
      | Machine.Fpr -> S4e_fault.Fault.Fpr (c.sc_reg, c.sc_bit));
    kind = S4e_fault.Fault.Permanent }

type stuck_outcome = { so : outcome; so_uart : string }

(* Run [p] for [sc_arm_at] instructions, arm, and run to the end.  Both
   sides are staged identically so block segmentation and interrupt
   sampling line up.  [`Hook] is the reference; [`Injector] goes through
   [Injector.arm] (a compiled stuck bit).  The reference's final state
   gets the bit forced once more: the hook only re-forced before the
   next instruction, so a write by the last one is still visible. *)
let run_stuck ~via ~fuel config p c =
  let m = Machine.create ~config () in
  S4e_asm.Program.load_machine p m;
  let first =
    if c.sc_arm_at > 0 then Machine.run m ~fuel:c.sc_arm_at
    else Machine.Out_of_fuel
  in
  let stop =
    match first with
    | Machine.Out_of_fuel -> (
        let st = Machine.state m in
        let v =
          match c.sc_file with
          | Machine.Gpr -> S4e_cpu.Arch_state.get_reg st c.sc_reg
          | Machine.Fpr -> S4e_cpu.Arch_state.get_freg st c.sc_reg
        in
        let s =
          { Machine.sk_file = c.sc_file; sk_reg = c.sc_reg; sk_bit = c.sc_bit;
            sk_value = S4e_bits.Bits.bit c.sc_bit v = 0 }
        in
        let rest = fuel - c.sc_arm_at in
        match via with
        | `Hook ->
            let id =
              S4e_cpu.Hooks.on_insn m.Machine.hooks (fun _ _ -> ref_force st s)
            in
            let stop = Machine.run m ~fuel:rest in
            S4e_cpu.Hooks.unregister m.Machine.hooks id;
            ref_force st s;
            stop
        | `Injector ->
            let armed = S4e_fault.Injector.arm m (fault_of c) in
            let stop = Machine.run m ~fuel:rest in
            S4e_fault.Injector.disarm m armed;
            stop
        | `Plain -> Machine.run m ~fuel:rest)
    | stop -> stop
  in
  { so = outcome_of m stop; so_uart = Machine.uart_output m }

(* The first engine whose compiled stuck bit departs from the hook
   reference, as a message. *)
let stuck_mismatch ~fuel p c =
  let reference = run_stuck ~via:`Hook ~fuel Machine.default_config p c in
  List.find_map
    (fun (name, config) ->
      let o = run_stuck ~via:`Injector ~fuel config p c in
      if o = reference then None
      else
        Some
          (Printf.sprintf
             "%s: %s differs from the hook reference (stop %s/%s, instret \
              %d/%d, cycles %d/%d)"
             (pp_case c) name o.so.o_stop reference.so.o_stop o.so.o_instret
             reference.so.o_instret o.so.o_cycles reference.so.o_cycles))
    engines

let qcheck_ok = function
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* Torture programs over RV32IMF+B so FPR faults hit live registers;
   the arm point is at reset for a quarter of the cases, else mid-run. *)
let stuck_gen =
  let open QCheck.Gen in
  let case =
    int_bound 100_000 >>= fun seed ->
    bool >>= fun fpr ->
    (if fpr then int_bound 31 else int_range 1 31) >>= fun reg ->
    int_bound 31 >>= fun bit ->
    int_bound 2_500 >>= fun arm ->
    return
      ( seed,
        { sc_file = (if fpr then Machine.Fpr else Machine.Gpr);
          sc_reg = reg; sc_bit = bit;
          sc_arm_at = (if arm < 500 then 0 else arm - 500) } )
  in
  QCheck.make
    ~print:(fun (seed, c) -> Printf.sprintf "seed %d, %s" seed (pp_case c))
    case

let torture_f seed =
  let cfg =
    { Torture.default_config with
      Torture.seed;
      isa = [ S4e_isa.Isa_module.I; M; B; F ] }
  in
  (Torture.generate cfg, Torture.fuel_bound cfg)

let stuck_torture_agrees (seed, c) =
  let p, fuel = torture_f seed in
  qcheck_ok (stuck_mismatch ~fuel p c)

(* x0 is hardwired: a stuck bit there must leave every engine's run
   identical to an unfaulted one. *)
let stuck_x0_masked (seed, c) =
  let p, fuel = torture_f seed in
  let c = { c with sc_file = Machine.Gpr; sc_reg = 0 } in
  let plain = run_stuck ~via:`Plain ~fuel Machine.default_config p c in
  qcheck_ok
    (List.find_map
       (fun (name, config) ->
         if run_stuck ~via:`Injector ~fuel config p c = plain then None
         else
           Some (Printf.sprintf "%s: stuck x0 changed the run on %s"
                   (pp_case c) name))
       engines)

(* The F-using architectural and unit suites, with every FPR stuck (at
   reset and a few instructions in) — the directed FPR coverage. *)
let test_stuck_f_suites () =
  let isa = Machine.default_config.Machine.isa in
  let progs =
    List.filter
      (fun (name, _) -> name = "arch-F" || name = "unit-fpr-walk")
      (S4e_torture.Suites.arch_suite ~isa @ S4e_torture.Suites.unit_suite ~isa)
  in
  Alcotest.(check int) "both F suites present" 2 (List.length progs);
  List.iter
    (fun (name, p) ->
      for reg = 0 to 31 do
        List.iter
          (fun arm ->
            let c =
              { sc_file = Machine.Fpr; sc_reg = reg; sc_bit = (7 * reg) mod 32;
                sc_arm_at = arm }
            in
            Option.iter
              (Alcotest.failf "%s: %s" name)
              (stuck_mismatch ~fuel:S4e_torture.Suites.fuel p c))
          [ 0; 5 ]
      done)
    progs

(* The force is applied at once and again whenever [restore] or
   [reset] rewrite the registers; x0 is never forced; an out-of-range
   register is rejected. *)
let test_stuck_restore_reset () =
  let m = Machine.create () in
  S4e_asm.Program.load_machine
    (S4e_asm.Assembler.assemble_exn "_start:\n  ebreak\n") m;
  let snap = Machine.snapshot m in
  let reg r = S4e_cpu.Arch_state.get_reg (Machine.state m) r in
  let stuck r =
    Some { Machine.sk_file = Machine.Gpr; sk_reg = r; sk_bit = 3; sk_value = true }
  in
  Machine.set_stuck m (stuck 9);
  Alcotest.(check int) "forced at once" 8 (reg 9);
  Machine.restore m snap;
  Alcotest.(check int) "forced after restore" 8 (reg 9);
  Machine.reset m ~pc:0x8000_0000;
  Alcotest.(check int) "forced after reset" 8 (reg 9);
  Machine.set_stuck m None;
  Machine.restore m snap;
  Alcotest.(check int) "cleared" 0 (reg 9);
  Machine.set_stuck m (stuck 0);
  Alcotest.(check int) "x0 is never forced" 0 (Machine.state m).S4e_cpu.Arch_state.regs.(0);
  Alcotest.check_raises "register out of range"
    (Invalid_argument "Machine.set_stuck: register or bit out of range")
    (fun () -> Machine.set_stuck m (stuck 32))

(* A loop hot enough for superblock promotion.  Arming must kill the
   traces promoted so far and keep new ones from forming: trace
   closures write registers without the force. *)
let test_stuck_hot_loop () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   t0, 3000
  li   s1, 0
  li   s2, 0
loop:
  addi s1, s1, 1
  xor  s2, s2, s1
  slli t2, s2, 3
  sltu t1, s1, t0
  bnez t1, loop
  add  a0, s2, t2
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
|}
  in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  ignore (Machine.run m ~fuel:4_000 : Machine.stop_reason);
  (match Machine.trace_stats m with
  | Some st when st.S4e_cpu.Superblock.sb_promotions > 0 -> ()
  | _ -> Alcotest.fail "the loop is not hot enough to promote a trace");
  List.iter
    (fun (reg, bit) ->
      List.iter
        (fun arm ->
          let c =
            { sc_file = Machine.Gpr; sc_reg = reg; sc_bit = bit; sc_arm_at = arm }
          in
          Option.iter Alcotest.fail (stuck_mismatch ~fuel:100_000 p c))
        [ 0; 1_000; 4_000 ])
    [ (9, 5); (18, 0); (18, 31); (7, 4); (6, 0) ]

(* ---------------- register kernels vs the reference ---------------- *)

(* Every register kernel ({!S4e_cpu.Reg_kernel}) against [Exec.execute]:
   random operand values, a destination that is x0, the first source or
   another register, and x0 among the sources.  The lowered µop runs
   the instruction alone; the trace runs it at the head of a two-block
   superblock whose first block ends in a [jal] or in a branch reading
   the kernel's result (the fused ALU+branch item), so the kernel runs
   inside the trace and a guard may bail.  Both must leave the same
   registers and pc as stepping [Exec.execute] over as many
   instructions as they retired. *)
module Exec = S4e_cpu.Exec
module Arch_state = S4e_cpu.Arch_state
module Bus = S4e_mem.Bus
module Tb_cache = S4e_cpu.Tb_cache
module Superblock = S4e_cpu.Superblock
module Lower = S4e_cpu.Lower
open S4e_isa

type kcase = {
  kc_instr : Instr.t;
  kc_regs : int array;  (* initial register file; x0 stays 0 *)
  kc_branch : (Instr.op_branch * int * int) option;
      (* first block's terminal: [None] is a jal to the next block *)
  kc_hot_taken : bool;  (* the direction the trace is built along *)
}

let kcase_gen =
  let open QCheck.Gen in
  let src = frequency [ (1, return 0); (4, int_range 1 31) ] in
  let* rs1 = src and* rs2 = src and* other = int_range 1 31 in
  let* rd = oneofl [ 0; rs1; other ] in
  let* instr =
    oneof
      [ map (fun op -> Instr.Op (op, rd, rs1, rs2)) Gen.op_r;
        map2 (fun op imm -> Instr.Op_imm (op, rd, rs1, imm)) Gen.op_i Gen.imm12;
        map2 (fun op sh -> Instr.Shift_imm (op, rd, rs1, sh)) Gen.op_shift
          Gen.shamt;
        map (fun op -> Instr.Unary (op, rd, rs1)) Gen.op_unary;
        (* the taken target skips one instruction; see [kernel_program] *)
        map (fun op -> Instr.Branch (op, rs1, rs2, 8)) Gen.op_branch ]
  in
  let word =
    frequency
      [ (3, int_bound 0xFFFF_FFFF |> map (fun w -> w land 0xFFFF_FFFF));
        (1, oneofl [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ]) ]
  in
  let* regs = array_repeat 32 word in
  regs.(0) <- 0;
  let* kc_branch =
    opt
      (triple Gen.op_branch (oneofl [ rd; rs1; 0; other ]) (oneofl [ rd; rs2 ]))
  in
  let+ kc_hot_taken = bool in
  { kc_instr = instr; kc_regs = regs; kc_branch; kc_hot_taken }

let print_kcase c =
  Printf.sprintf "%s; terminal %s; hot %s; regs %s" (Instr.to_string c.kc_instr)
    (match c.kc_branch with
    | None -> "jal"
    | Some (op, a, b) -> Instr.to_string (Instr.Branch (op, a, b, 8)))
    (if c.kc_hot_taken then "taken" else "not taken")
    (String.concat "," (Array.to_list (Array.map string_of_int c.kc_regs)))

let kernel_base = 0x8000_0000

(* Layout: [instr] at base; then, for a value instruction, its terminal
   at base+4 (a jal to base+8, or a branch to base+12); every remaining
   slot up to base+12 is a [jal x0, 0] (a one-instruction final block).
   A branch under test is itself the first block's terminal. *)
let kernel_program c =
  let bus = Bus.create () in
  let ram = Bus.ram bus in
  let put i instr =
    S4e_mem.Sparse_mem.write32 ram (kernel_base + (4 * i)) (Encode.encode instr)
  in
  for i = 1 to 3 do put i (Instr.Jal (0, 0)) done;
  put 0 c.kc_instr;
  let head_term =
    match (c.kc_instr, c.kc_branch) with
    | Instr.Branch _, _ -> 0
    | _, None ->
        put 1 (Instr.Jal (0, 4));
        1
    | _, Some (op, a, b) ->
        put 1 (Instr.Branch (op, a, b, 8));
        1
  in
  (bus, head_term)

let fresh_state c =
  let st = Arch_state.create ~pc:kernel_base () in
  Array.iteri (fun i v -> Arch_state.set_reg st i v) c.kc_regs;
  st

let reference c bus steps =
  let st = fresh_state c in
  for _ = 1 to steps do
    let instr =
      Option.get (Decode.decode (Bus.fetch32 bus st.Arch_state.pc))
    in
    ignore (Exec.execute st bus ~size:4 instr)
  done;
  st

let same_state (a : Arch_state.t) (b : Arch_state.t) =
  a.Arch_state.pc = b.Arch_state.pc && a.Arch_state.regs = b.Arch_state.regs

let lowered_kernel_agrees c =
  let bus, _ = kernel_program c in
  let st = fresh_state c in
  let ctx =
    { Lower.lx_state = st; lx_bus = bus;
      lx_timing = S4e_cpu.Timing_model.default; lx_flush_time = ignore;
      lx_notify_store = ignore; lx_dev_limit = kernel_base; lx_stuck = None }
  in
  let u = Lower.lower_instr ctx ~pc:kernel_base ~size:4 c.kc_instr in
  ignore (u.Tb_cache.u_exec ());
  same_state st (reference c bus 1)

let trace_kernel_agrees c =
  let bus, head_term = kernel_program c in
  let st = fresh_state c in
  let retired = ref 0 in
  let sx =
    { Superblock.sx_state = st; sx_bus = bus;
      sx_timing = S4e_cpu.Timing_model.default; sx_pending = ref 0;
      sx_exit_dirty = ref false; sx_flush = ignore;
      sx_retire = (fun n -> retired := !retired + n);
      sx_exit_code = (fun () -> None);
      sx_raise_exited = (fun _ -> failwith "unexpected exit");
      sx_trap = (fun _ _ _ -> failwith "unexpected trap");
      sx_irq = (fun () -> false); sx_notify_store = ignore;
      sx_get_llm = (fun () -> 0); sx_set_llm = ignore;
      sx_dev_limit = kernel_base }
  in
  let tb =
    Tb_cache.create ~decode32:Decode.decode ~decode16:None
      ~fetch32:(Bus.fetch32 bus) ~fetch16:(Bus.fetch16 bus) ()
  in
  let sb = Superblock.create ~min_edge_hits:1 sx tb in
  let head = Tb_cache.lookup tb kernel_base in
  let term_pc = kernel_base + (4 * head_term) in
  let succ =
    match Array.get head.Tb_cache.instrs head_term with
    | _, _, Instr.Branch _ ->
        if c.kc_hot_taken then term_pc + 8 else term_pc + 4
    | _ -> term_pc + 4
  in
  (* heat the edge: patch the link, then traverse it *)
  ignore (Tb_cache.next tb head succ);
  ignore (Tb_cache.next tb head succ);
  Superblock.maybe_promote sb head;
  match head.Tb_cache.attach with
  | Superblock.Trace_head tr ->
      Superblock.exec sb tr;
      !retired > 0 && same_state st (reference c bus !retired)
  | _ -> QCheck.Test.fail_report "head block was not promoted"

let kernel_props =
  let arb = QCheck.make ~print:print_kcase kcase_gen in
  [ prop ~count:500 "lowered kernel = Exec.execute" arb lowered_kernel_agrees;
    prop ~count:500 "kernel in a two-block trace = Exec.execute" arb
      trace_kernel_agrees ]

let props =
  [ prop "torture: engines agree" seed_gen (torture_agrees ~compress:false);
    prop ~count:15 "torture (compressed): engines agree" seed_gen
      (torture_agrees ~compress:true);
    prop ~count:15 "torture + device rig: engines agree" seed_gen
      (torture_agrees ~rig:true ~compress:false) ]

let sb_props =
  [ prop ~count:15 "smc in hot trace: engines agree" seed_gen smc_trace_agrees;
    prop ~count:10 "injector write mid-trace: engines agree" seed_gen
      injector_mid_trace_agrees ]

let () =
  Alcotest.run "lowered"
    [ ("differential",
       [ Alcotest.test_case "traps mid-block" `Quick test_traps_mid_block;
         Alcotest.test_case "trap continues block" `Quick
           test_trap_continues_block;
         Alcotest.test_case "timer interrupts during loop" `Quick
           test_timer_interrupts_during_loop;
         Alcotest.test_case "wfi wakeup and halt" `Quick
           test_wfi_wakeup_and_halt;
         Alcotest.test_case "time observed mid-block" `Quick
           test_time_observed_mid_block;
         Alcotest.test_case "fatal traps agree" `Quick test_fatal_traps_agree;
         Alcotest.test_case "self-modifying code" `Quick
           test_self_modifying_differential;
         Alcotest.test_case "hooks attach/detach mid-run" `Quick
           test_hooks_attach_detach_mid_run;
         Alcotest.test_case "device driver (dma irq + pio)" `Quick
           test_device_driver_agrees ]);
      ("superblocks",
       Alcotest.test_case "smc kills running trace" `Quick
         test_smc_kills_running_trace
       :: sb_props);
      ("stuck-at",
       [ prop ~count:30 "torture: compiled stuck bit = hook reference"
           stuck_gen stuck_torture_agrees;
         prop ~count:15 "torture: stuck x0 is masked" stuck_gen
           stuck_x0_masked;
         Alcotest.test_case "F suites: compiled stuck FPR = hook reference"
           `Quick test_stuck_f_suites;
         Alcotest.test_case "hot loop: no trace reads past the force" `Quick
           test_stuck_hot_loop;
         Alcotest.test_case "restore and reset force again" `Quick
           test_stuck_restore_reset ]);
      ("torture", props);
      ("kernels", kernel_props) ]
