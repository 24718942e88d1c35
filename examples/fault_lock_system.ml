(* The lock-system scenario: IO security analysis + fault campaign.

   The MBMV 2019 companion paper demonstrates non-invasive dynamic
   memory/IO analysis on an access-control system whose lock is driven
   over a UART.  This example reproduces both halves:

   1. A door-lock controller reads a PIN from the UART, compares it to
      the stored secret, and — only from its dedicated driver routine —
      writes the unlock command to the UART-attached lock.  The IO
      guard whitelists that driver; a planted "exploit" path that pokes
      the UART directly from the main loop is detected immediately.

   2. A coverage-guided bit-flip campaign on the same binary shows
      which faults are masked, which corrupt the decision silently, and
      which crash or hang the controller (the fault paper's flow).

   Run with: dune exec examples/fault_lock_system.exe *)

let source = {|
  .equ UART,  0x10000000
  .equ EXIT,  0x00100000
  .equ SECRET, 0x2739

_start:
  li   s0, UART
  li   s1, SECRET
  # read 4 hex digits of the PIN from the UART into a0
  li   a0, 0
  li   s2, 0
  li   s3, 4
read_loop:
  lbu  a1, 0(s0)          # RX data register
  slli a0, a0, 4
  andi a1, a1, 0x0f
  or   a0, a0, a1
  addi s2, s2, 1
  blt  s2, s3, read_loop
  # compare with the secret
  bne  a0, s1, reject
  call lock_driver_open
  j    done
reject:
  # EXPLOIT PATH (intentionally planted): on a rejected PIN the
  # buggy error handler pokes the lock port directly instead of
  # going through the driver.
  li   a2, 0x4f            # 'O'
  sb   a2, 0(s0)
done:
  li   t1, EXIT
  sw   a0, 0(t1)
  ebreak

# The only routine authorized to command the lock.
lock_driver_open:
  li   t2, UART
  li   t3, 0x4f            # 'O' = open command
  sb   t3, 0(t2)
  ret
|}

let () =
  let program = S4e_asm.Assembler.assemble_exn source in
  let driver_lo =
    match S4e_asm.Program.symbol program "lock_driver_open" with
    | Some a -> a
    | None -> failwith "missing driver symbol"
  in
  let driver_hi = driver_lo + 5 * 4 in

  let attempt ~pin =
    let m = S4e_cpu.Machine.create () in
    let guard =
      S4e_core.Io_guard.attach m
        [ { S4e_core.Io_guard.p_device = "uart";
            p_allowed = [ (driver_lo, driver_hi) ];
            p_restrict = S4e_core.Io_guard.Restrict_writes } ]
    in
    S4e_asm.Program.load_machine program m;
    S4e_soc.Uart.feed m.S4e_cpu.Machine.uart pin;
    let stop = S4e_cpu.Machine.run m ~fuel:100_000 in
    (stop, S4e_core.Io_guard.violations guard, S4e_cpu.Machine.instret m)
  in

  Format.printf "== authorized path (correct PIN) ==@.";
  let stop, violations, _ = attempt ~pin:"\x02\x07\x03\x09" in
  Format.printf "run: %a, violations: %d (expected 0)@."
    S4e_cpu.Machine.pp_stop_reason stop (List.length violations);
  assert (violations = []);

  Format.printf "@.== exploit path (wrong PIN) ==@.";
  let stop, violations, instret = attempt ~pin:"\x01\x01\x01\x01" in
  Format.printf "run: %a@." S4e_cpu.Machine.pp_stop_reason stop;
  List.iter
    (fun v -> Format.printf "DETECTED: %a@." S4e_core.Io_guard.pp_violation v)
    violations;
  assert (violations <> []);
  Format.printf "(attack visible after %d of %d instructions)@."
    (match violations with v :: _ -> v.S4e_core.Io_guard.v_instret | [] -> 0)
    instret;

  Format.printf "@.== fault campaign on the controller ==@.";
  let cfg =
    { S4e_core.Flows.default_fault_config with
      S4e_core.Flows.ff_mutants = 150; ff_fuel = 100_000 }
  in
  let r = Result.get_ok (S4e_core.Flows.fault_campaign cfg program) in
  Format.printf "%a@." S4e_fault.Campaign.pp_summary r.S4e_core.Flows.ff_summary;
  let sdc =
    List.filter
      (fun (_, o) -> o = S4e_fault.Campaign.Sdc)
      r.S4e_core.Flows.ff_results
  in
  Format.printf "silent corruptions needing countermeasures:@.";
  List.iteri
    (fun i (f, _) ->
      if i < 5 then Format.printf "  %a@." S4e_fault.Fault.pp f)
    sdc
