(* Cross-library integration tests: the four flows, the IO guard, and
   multi-component scenarios mirroring the examples. *)

module Machine = S4e_cpu.Machine
module Flows = S4e_core.Flows
module Io_guard = S4e_core.Io_guard

let assemble = S4e_asm.Assembler.assemble_exn

let test_run_flow () =
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   a1, UART
  li   a2, 'h'
  sb   a2, 0(a1)
  li   a2, 'i'
  sb   a2, 0(a1)
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let r = Flows.run p in
  Alcotest.(check string) "uart output" "hi" r.Flows.rr_uart;
  (match r.Flows.rr_stop with
  | Machine.Exited 0 -> ()
  | _ -> Alcotest.fail "expected clean exit");
  Alcotest.(check bool) "cycles >= instret" true
    (r.Flows.rr_cycles >= r.Flows.rr_instret)

(* the superblocks knob (CLI --no-superblocks) must be behaviorally
   invisible: same stop, counters, and output on a trace-hot loop *)
let test_run_flow_superblocks_knob () =
  let p =
    assemble {|
  li   a0, 0
  li   t0, 50000
loop:
  addi a0, a0, 3
  addi t0, t0, -1
  bnez t0, loop
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let on = Flows.run p in
  let off =
    Flows.run
      ~config:{ Machine.default_config with Machine.superblocks = false } p
  in
  Alcotest.(check bool) "same stop" true (on.Flows.rr_stop = off.Flows.rr_stop);
  Alcotest.(check int) "same instret" off.Flows.rr_instret on.Flows.rr_instret;
  Alcotest.(check int) "same cycles" off.Flows.rr_cycles on.Flows.rr_cycles;
  Alcotest.(check string) "same uart" off.Flows.rr_uart on.Flows.rr_uart

let test_uart_echo_roundtrip () =
  (* target program echoes everything it receives until NUL *)
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   s0, UART
echo:
  lbu  a0, 4(s0)          # status
  andi a0, a0, 1
  beqz a0, finish         # queue drained
  lbu  a0, 0(s0)
  sb   a0, 0(s0)
  j    echo
finish:
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  S4e_soc.Uart.feed m.Machine.uart "ping";
  let stop = Machine.run m ~fuel:10_000 in
  (match stop with
  | Machine.Exited 0 -> ()
  | _ -> Alcotest.failf "echo failed: %a" Machine.pp_stop_reason stop);
  Alcotest.(check string) "echoed" "ping" (Machine.uart_output m)

let test_gpio_actuation () =
  let p =
    assemble {|
  .equ GPIO, 0x10012000
_start:
  li   a1, GPIO
  li   a2, 0xff
  sw   a2, 0(a1)
  lw   a3, 4(a1)          # read input pins
  li   t1, 0x00100000
  sw   a3, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  S4e_soc.Gpio.set_input m.Machine.gpio 0x5A;
  let stop = Machine.run m ~fuel:1_000 in
  (match stop with
  | Machine.Exited 0x5A -> ()
  | _ -> Alcotest.failf "gpio read failed: %a" Machine.pp_stop_reason stop);
  Alcotest.(check int) "gpio latched" 0xFF (S4e_soc.Gpio.output m.Machine.gpio)

let test_io_guard_write_policy () =
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   s0, UART
  lbu  a0, 0(s0)          # read: allowed under Restrict_writes
  sb   a0, 0(s0)          # write outside any allowed range: violation
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  let guard =
    Io_guard.attach m
      [ { Io_guard.p_device = "uart"; p_allowed = [];
          p_restrict = Io_guard.Restrict_writes } ]
  in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:1_000 in
  let vs = Io_guard.violations guard in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  (match vs with
  | [ v ] ->
      Alcotest.(check bool) "is a write" true v.Io_guard.v_is_write;
      Alcotest.(check string) "device" "uart" v.Io_guard.v_device
  | _ -> assert false);
  (* uart read + uart write + the syscon exit store *)
  Alcotest.(check int) "all accesses observed" 3 (Io_guard.accesses guard)

let test_io_guard_restrict_all () =
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   s0, UART
  lbu  a0, 0(s0)
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  let guard =
    Io_guard.attach m
      [ { Io_guard.p_device = "uart"; p_allowed = [];
          p_restrict = Io_guard.Restrict_all } ]
  in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:1_000 in
  Alcotest.(check int) "read flagged too" 1
    (List.length (Io_guard.violations guard))

let test_io_guard_allowed_range () =
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  call driver
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
driver:
  li   t2, UART
  li   t3, 65
  sb   t3, 0(t2)
  ret
|}
  in
  let driver = Option.get (S4e_asm.Program.symbol p "driver") in
  let m = Machine.create () in
  let guard =
    Io_guard.attach m
      [ { Io_guard.p_device = "uart";
          p_allowed = [ (driver, driver + 16) ];
          p_restrict = Io_guard.Restrict_writes } ]
  in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:1_000 in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Io_guard.v_device) (Io_guard.violations guard))

let test_io_guard_stacking () =
  (* Two stacked guards: attaching the second must not silence the
     first (the displaced watcher is chained to), and detaching must
     restore the displaced watcher instead of unconditionally clearing
     the bus hook. *)
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   s0, UART
  lbu  a0, 0(s0)
  sb   a0, 0(s0)
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  let g1 =
    Io_guard.attach m
      [ { Io_guard.p_device = "uart"; p_allowed = [];
          p_restrict = Io_guard.Restrict_writes } ]
  in
  let g2 =
    Io_guard.attach m
      [ { Io_guard.p_device = "uart"; p_allowed = [];
          p_restrict = Io_guard.Restrict_all } ]
  in
  let run () =
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:1_000 : Machine.stop_reason)
  in
  run ();
  (* uart read + uart write + syscon exit store, seen by both guards *)
  Alcotest.(check int) "inner guard observes through the outer" 3
    (Io_guard.accesses g1);
  Alcotest.(check int) "outer guard observes" 3 (Io_guard.accesses g2);
  Alcotest.(check int) "inner flags the write" 1
    (List.length (Io_guard.violations g1));
  Alcotest.(check int) "outer flags read and write" 2
    (List.length (Io_guard.violations g2));
  (* detaching the inner guard while it is not on top is a no-op: the
     outer guard (and the chain through the inner) keeps observing *)
  Io_guard.detach m g1;
  run ();
  Alcotest.(check int) "outer unaffected by inner detach" 6
    (Io_guard.accesses g2);
  Alcotest.(check int) "inner still chained below" 6 (Io_guard.accesses g1);
  (* popping the outer guard reinstates the watcher it displaced *)
  Io_guard.detach m g2;
  run ();
  Alcotest.(check int) "outer detached" 6 (Io_guard.accesses g2);
  Alcotest.(check int) "displaced watcher restored" 9 (Io_guard.accesses g1)

let test_io_guard_device_plane () =
  (* the guard must see MMIO on the new device-plane peripherals: an
     unvetted driver poking DMA and NIC doorbells is exactly the kind
     of access the guard exists to flag *)
  let p =
    assemble {|
  .equ DMA,  0x10020000
  .equ VNET, 0x10030000
_start:
  li   s0, DMA
  lw   a0, 0x18(s0)       # STATUS read: allowed under Restrict_writes
  li   a1, 8
  sw   a1, 0x08(s0)       # TAIL doorbell: violation
  li   s1, VNET
  li   a2, 1
  sw   a2, 0x00(s1)       # CTRL enable: violation
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  let guard =
    Io_guard.attach m
      [ { Io_guard.p_device = "dma"; p_allowed = [];
          p_restrict = Io_guard.Restrict_writes };
        { Io_guard.p_device = "vnet"; p_allowed = [];
          p_restrict = Io_guard.Restrict_writes } ]
  in
  S4e_asm.Program.load_machine p m;
  (match Machine.run m ~fuel:1_000 with
  | Machine.Exited 0 -> ()
  | stop -> Alcotest.failf "device run: %a" Machine.pp_stop_reason stop);
  let vs = Io_guard.violations guard in
  Alcotest.(check (list string)) "both doorbells flagged" [ "dma"; "vnet" ]
    (List.map (fun v -> v.Io_guard.v_device) vs);
  List.iter
    (fun v -> Alcotest.(check bool) "is a write" true v.Io_guard.v_is_write)
    vs;
  (* dma read + dma write + vnet write + syscon exit store *)
  Alcotest.(check int) "all accesses observed" 4 (Io_guard.accesses guard)

let test_wcet_flow_on_control_task () =
  let p =
    assemble {|
_start:
  li   s0, 0
  li   s1, 12
accumulate:
  addi s0, s0, 3
  addi s1, s1, -1
  bgtz s1, accumulate
  li   t1, 0x00100000
  sw   s0, 0(t1)
  ebreak
|}
  in
  match Flows.wcet_flow p with
  | Error e -> Alcotest.failf "wcet: %s" (S4e_wcet.Analysis.describe_error e)
  | Ok r ->
      (match r.Flows.wr_stop with
      | Machine.Exited 36 -> ()
      | stop -> Alcotest.failf "wrong result: %a" Machine.pp_stop_reason stop);
      Alcotest.(check bool) "chain" true
        (r.Flows.wr_dynamic <= r.Flows.wr_path
        && r.Flows.wr_path <= r.Flows.wr_static);
      (* loose but meaningful tightness: the bound should be within 3x
         of the actual run for this simple counted loop *)
      Alcotest.(check bool) "not absurdly loose" true
        (r.Flows.wr_static < 3 * r.Flows.wr_dynamic)

let test_fault_flow_guided_vs_blind () =
  let p =
    assemble {|
_start:
  li   a0, 0
  li   a1, 1
  li   a2, 30
l:
  add  a0, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let guided =
    Result.get_ok
      (Flows.fault_campaign
         { Flows.default_fault_config with
           Flows.ff_mutants = 60; ff_fuel = 50_000 }
         p)
  in
  let blind =
    Result.get_ok
      (Flows.fault_campaign
         { Flows.default_fault_config with
           Flows.ff_mutants = 60; ff_fuel = 50_000; ff_blind = true }
         p)
  in
  Alcotest.(check int) "guided total" 60 guided.Flows.ff_summary.S4e_fault.Campaign.total;
  (* blind campaigns waste mutants on unused state, so they mask more *)
  Alcotest.(check bool) "blind masks at least as much" true
    (blind.Flows.ff_summary.S4e_fault.Campaign.masked
     >= guided.Flows.ff_summary.S4e_fault.Campaign.masked)

let test_full_pipeline_on_torture () =
  (* generate -> coverage -> faults -> wcet, all on one program *)
  let p =
    S4e_torture.Torture.generate
      { S4e_torture.Torture.default_config with seed = 2024; segments = 10 }
  in
  let cov = Flows.coverage_of_suite [ ("p", p) ] in
  Alcotest.(check bool) "coverage nonempty" true
    (S4e_coverage.Report.executed_count cov > 0);
  let fr =
    Result.get_ok
      (Flows.fault_campaign
         { Flows.default_fault_config with
           Flows.ff_mutants = 20; ff_fuel = 50_000 }
         p)
  in
  Alcotest.(check int) "campaign complete" 20
    fr.Flows.ff_summary.S4e_fault.Campaign.total;
  match Flows.wcet_flow ~fuel:50_000 p with
  | Ok r ->
      Alcotest.(check bool) "wcet chain" true
        (r.Flows.wr_dynamic <= r.Flows.wr_path
        && r.Flows.wr_path <= r.Flows.wr_static)
  | Error e -> Alcotest.failf "wcet: %s" (S4e_wcet.Analysis.describe_error e)

let test_wcet_flow_with_annotation () =
  (* data-dependent loop: inference fails, an annotation unblocks it *)
  let p =
    assemble {|
_start:
  la   s0, len
  lw   s1, 0(s0)          # loop bound comes from memory
  li   a0, 0
  li   s2, 0
scan:
  add  a0, a0, s2
  addi s2, s2, 1
  blt  s2, s1, scan
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
  .data
len:
  .word 12
|}
  in
  (match Flows.wcet_flow p with
  | Error (S4e_wcet.Analysis.E_unbounded_loop _) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s" (S4e_wcet.Analysis.describe_error e)
  | Ok _ -> Alcotest.fail "should need an annotation");
  match Flows.wcet_flow ~annotations:[ ("scan", 16) ] p with
  | Error e -> Alcotest.failf "annotated: %s" (S4e_wcet.Analysis.describe_error e)
  | Ok r ->
      (match r.Flows.wr_stop with
      | Machine.Exited 66 -> ()
      | stop -> Alcotest.failf "wrong result: %a" Machine.pp_stop_reason stop);
      Alcotest.(check bool) "chain with annotation" true
        (r.Flows.wr_dynamic <= r.Flows.wr_path
        && r.Flows.wr_path <= r.Flows.wr_static)

let test_image_file_roundtrip_through_machine () =
  let p =
    assemble {|
_start:
  li   a0, 321
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let path = Filename.temp_file "s4e" ".bin" in
  S4e_asm.Program.save p path;
  (match S4e_asm.Program.load_file path with
  | Error m -> Alcotest.failf "load_file: %s" m
  | Ok p' ->
      let r = Flows.run p' in
      (match r.Flows.rr_stop with
      | Machine.Exited 321 -> ()
      | stop -> Alcotest.failf "image run failed: %a" Machine.pp_stop_reason stop));
  Sys.remove path

let test_machine_reset_semantics () =
  let p =
    assemble {|
  .equ UART, 0x10000000
_start:
  li   a1, UART
  li   a2, 'x'
  sb   a2, 0(a1)
  li   t1, 0x00100000
  sw   zero, 0(t1)
  ebreak
|}
  in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:1_000 in
  Alcotest.(check string) "first run output" "x" (Machine.uart_output m);
  (* reset clears architectural state, devices, and UART output, but
     keeps memory: the program runs again unmodified *)
  Machine.reset m ~pc:p.S4e_asm.Program.entry;
  Alcotest.(check int) "instret reset" 0 (Machine.instret m);
  Alcotest.(check string) "uart cleared" "" (Machine.uart_output m);
  (match Machine.run m ~fuel:1_000 with
  | Machine.Exited 0 -> ()
  | stop -> Alcotest.failf "second run: %a" Machine.pp_stop_reason stop);
  Alcotest.(check string) "second run output" "x" (Machine.uart_output m)

(* An IRQ-driven DMA driver that polls the BURSTS counter: after a
   reset it must take exactly the path of its first run, so reset has
   to clear the counters software can read. *)
let test_machine_reset_clears_dma () =
  let p =
    assemble {|
  .equ DMA, 0x10020000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t0, 0x800
  csrw mie, t0
  csrrsi zero, mstatus, 8
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
  sw   t1, 0x04(s0)
  sw   t1, 0x14(s0)
  sw   t1, 0x08(s0)
wait:
  lw   t1, 0x20(s0)     # BURSTS
  bnez t1, drained
  wfi
  j    wait
drained:
  lw   t2, 0x24(s0)     # BYTES
  lw   t4, 0(a2)        # first copied word
  add  a0, t2, t4
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
  in
  let m = Machine.create () in
  let run () =
    (* reload the data the first run changed; this also resets *)
    S4e_asm.Program.load_machine p m;
    let stop = Machine.run m ~fuel:100_000 in
    (stop, Machine.instret m, Machine.state_digest m)
  in
  let stop1, instret1, digest1 = run () in
  (match stop1 with
  | Machine.Exited v when v = 0x11223344 + 64 -> ()
  | stop -> Alcotest.failf "first run: %a" Machine.pp_stop_reason stop);
  let stop2, instret2, digest2 = run () in
  Alcotest.(check bool) "same stop" true (stop1 = stop2);
  Alcotest.(check int) "same instret" instret1 instret2;
  Alcotest.(check string) "same state digest" digest1 digest2

let test_instret_cycle_csrs_visible () =
  (* software can observe its own progress through the counters *)
  let p =
    assemble {|
_start:
  csrr a0, instret
  csrr a1, instret
  sub  a2, a1, a0
  li   t1, 0x00100000
  sw   a2, 0(t1)
  ebreak
|}
  in
  let r = Flows.run p in
  match r.Flows.rr_stop with
  | Machine.Exited 1 -> ()
  | Machine.Exited n -> Alcotest.failf "instret delta %d, expected 1" n
  | stop -> Alcotest.failf "failed: %a" Machine.pp_stop_reason stop

let () =
  Alcotest.run "integration"
    [ ( "flows",
        [ Alcotest.test_case "run flow" `Quick test_run_flow;
          Alcotest.test_case "superblocks knob invisible" `Quick
            test_run_flow_superblocks_knob;
          Alcotest.test_case "uart echo" `Quick test_uart_echo_roundtrip;
          Alcotest.test_case "gpio actuation" `Quick test_gpio_actuation;
          Alcotest.test_case "wcet flow" `Quick test_wcet_flow_on_control_task;
          Alcotest.test_case "fault flow guided vs blind" `Quick
            test_fault_flow_guided_vs_blind;
          Alcotest.test_case "full pipeline" `Quick
            test_full_pipeline_on_torture;
          Alcotest.test_case "counter csrs" `Quick
            test_instret_cycle_csrs_visible;
          Alcotest.test_case "wcet flow with annotation" `Quick
            test_wcet_flow_with_annotation;
          Alcotest.test_case "image file roundtrip" `Quick
            test_image_file_roundtrip_through_machine;
          Alcotest.test_case "machine reset" `Quick
            test_machine_reset_semantics;
          Alcotest.test_case "machine reset clears dma counters" `Quick
            test_machine_reset_clears_dma ] );
      ( "io-guard",
        [ Alcotest.test_case "write policy" `Quick test_io_guard_write_policy;
          Alcotest.test_case "restrict all" `Quick test_io_guard_restrict_all;
          Alcotest.test_case "allowed range" `Quick test_io_guard_allowed_range;
          Alcotest.test_case "device plane visibility" `Quick
            test_io_guard_device_plane;
          Alcotest.test_case "stacked guards" `Quick test_io_guard_stacking ] ) ]
