(* Coverage metric tests: collection, combination, and the E1 shape. *)

open S4e_isa
module Machine = S4e_cpu.Machine
module Report = S4e_coverage.Report
module Collector = S4e_coverage.Collector

let full_isa = Machine.default_config.Machine.isa

let collect ?(isa = full_isa) src =
  let p = S4e_asm.Assembler.assemble_exn src in
  let m = Machine.create () in
  let c = Collector.attach m ~isa () in
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:100_000 in
  let rep = Collector.report c in
  Collector.detach m c;
  rep

let test_instruction_recording () =
  let rep =
    collect {|
_start:
  addi a0, zero, 1
  addi a0, a0, 1
  mul  a1, a0, a0
  ebreak
|}
  in
  Alcotest.(check (option int)) "addi counted twice" (Some 2)
    (Hashtbl.find_opt rep.Report.executed "addi");
  Alcotest.(check (option int)) "mul once" (Some 1)
    (Hashtbl.find_opt rep.Report.executed "mul");
  Alcotest.(check int) "three + trap path" 3
    (Hashtbl.fold (fun _ v acc -> acc + v) rep.Report.executed 0 - 1)

let test_register_recording () =
  let rep =
    collect {|
_start:
  addi a0, zero, 1
  add  a1, a0, a0
  ebreak
|}
  in
  Alcotest.(check bool) "a0 written" true rep.Report.gpr_written.(10);
  Alcotest.(check bool) "a0 read" true rep.Report.gpr_read.(10);
  Alcotest.(check bool) "a1 written" true rep.Report.gpr_written.(11);
  Alcotest.(check bool) "x0 read" true rep.Report.gpr_read.(0);
  Alcotest.(check bool) "s5 untouched" false
    (rep.Report.gpr_read.(21) || rep.Report.gpr_written.(21))

let test_csr_and_mem_recording () =
  let rep =
    collect {|
_start:
  csrw mscratch, a0
  li   t0, 0x80001000
  lw   a1, 0(t0)
  sw   a1, 4(t0)
  ebreak
|}
  in
  Alcotest.(check bool) "mscratch accessed" true
    (Hashtbl.mem rep.Report.csr_accessed Csr.mscratch);
  Alcotest.(check int) "two data accesses" 2 rep.Report.mem_accesses;
  Alcotest.(check int) "mem lo" 0x80001000 rep.Report.mem_lo;
  Alcotest.(check int) "mem hi" 0x80001008 rep.Report.mem_hi

let test_metrics_and_missed () =
  let rep = collect "_start:\n  addi a0, zero, 1\n  ebreak\n" in
  let universe = Isa_module.universe full_isa in
  Alcotest.(check bool) "tiny instruction coverage" true
    (Report.instruction_coverage rep < 0.1);
  Alcotest.(check int) "missed count" (List.length universe - 2)
    (List.length (Report.missed_instructions rep));
  Alcotest.(check bool) "gpr partial" true
    (Report.gpr_coverage rep > 0.0 && Report.gpr_coverage rep < 0.2)

let test_combine_is_union () =
  let a = collect "_start:\n  addi a0, zero, 1\n  ebreak\n" in
  let b = collect "_start:\n  mul a1, a2, a3\n  ebreak\n" in
  let u = Report.combine a b in
  Alcotest.(check bool) "addi in union" true (Hashtbl.mem u.Report.executed "addi");
  Alcotest.(check bool) "mul in union" true (Hashtbl.mem u.Report.executed "mul");
  Alcotest.(check bool) "coverage monotone vs a" true
    (Report.instruction_coverage u >= Report.instruction_coverage a);
  Alcotest.(check bool) "coverage monotone vs b" true
    (Report.instruction_coverage u >= Report.instruction_coverage b);
  Alcotest.(check bool) "gpr union" true
    (u.Report.gpr_written.(10) && u.Report.gpr_written.(11))

let test_detach_stops_recording () =
  let p = S4e_asm.Assembler.assemble_exn "_start:\n  addi a0, zero, 1\n  ebreak\n" in
  let m = Machine.create () in
  let c = Collector.attach m () in
  Collector.detach m c;
  S4e_asm.Program.load_machine p m;
  let _ = Machine.run m ~fuel:100 in
  Alcotest.(check int) "nothing recorded" 0
    (Report.executed_count (Collector.report c))

(* the E1 experiment shape *)
let test_unified_suite_shape () =
  let isa = full_isa in
  let suite name progs =
    (name, S4e_core.Flows.coverage_of_suite ~fuel:S4e_torture.Suites.fuel progs)
  in
  let arch = suite "arch" (S4e_torture.Suites.arch_suite ~isa) in
  let unit = suite "unit" (S4e_torture.Suites.unit_suite ~isa) in
  let tort =
    suite "torture" (S4e_torture.Suites.torture_suite ~isa ~seeds:[ 1; 2; 3 ])
  in
  (* each suite individually has gaps *)
  Alcotest.(check bool) "arch misses registers" true
    (Report.gpr_coverage (snd arch) < 1.0);
  Alcotest.(check bool) "unit misses instructions" true
    (Report.instruction_coverage (snd unit) < 0.5);
  Alcotest.(check bool) "torture misses CSRs" true
    (Report.csr_coverage (snd tort) < 1.0);
  (* the union reaches full register coverage and high-90s instructions *)
  let union =
    List.fold_left
      (fun acc (_, r) -> Report.combine acc r)
      (Report.create ~isa)
      [ arch; unit; tort ]
  in
  Alcotest.(check (float 0.001)) "100% GPR" 1.0 (Report.gpr_coverage union);
  Alcotest.(check (float 0.001)) "100% FPR" 1.0 (Report.fpr_coverage union);
  Alcotest.(check (float 0.001)) "100% CSR" 1.0 (Report.csr_coverage union);
  let ic = Report.instruction_coverage union in
  Alcotest.(check bool) "instruction coverage in the high 90s" true
    (ic > 0.95 && ic < 1.0);
  Alcotest.(check (list string)) "exactly wfi missing" [ "wfi" ]
    (Report.missed_instructions union)

(* ---------------- the collector against a reference recorder -------- *)

(* The reference recorder: every retire and every access goes straight
   into a report, one table update per event. *)
let ref_record_instr (r : Report.t) pc instr =
  Hashtbl.replace r.Report.executed_pcs pc ();
  let m = Instr.mnemonic instr in
  let prev = Option.value (Hashtbl.find_opt r.Report.executed m) ~default:0 in
  Hashtbl.replace r.Report.executed m (prev + 1);
  List.iter (fun s -> r.Report.gpr_read.(s) <- true) (Instr.sources instr);
  (match Instr.destination instr with
  | Some d -> r.Report.gpr_written.(d) <- true
  | None -> ());
  List.iter (fun s -> r.Report.fpr_read.(s) <- true) (Instr.fp_sources instr);
  (match Instr.fp_destination instr with
  | Some d -> r.Report.fpr_written.(d) <- true
  | None -> ());
  match instr with
  | Instr.Csr (_, _, csr, _) -> Hashtbl.replace r.Report.csr_accessed csr ()
  | _ -> ()

let ref_record_mem (r : Report.t) (ev : S4e_cpu.Hooks.mem_event) =
  r.Report.mem_accesses <- r.Report.mem_accesses + 1;
  if Hashtbl.length r.Report.touched_data < Report.touched_data_cap then
    for i = 0 to ev.S4e_cpu.Hooks.mem_size - 1 do
      Hashtbl.replace r.Report.touched_data (ev.S4e_cpu.Hooks.mem_addr + i) ()
    done;
  if ev.S4e_cpu.Hooks.mem_addr < r.Report.mem_lo then
    r.Report.mem_lo <- ev.S4e_cpu.Hooks.mem_addr;
  let hi = ev.S4e_cpu.Hooks.mem_addr + ev.S4e_cpu.Hooks.mem_size in
  if hi > r.Report.mem_hi then r.Report.mem_hi <- hi

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) tbl [])

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

(* Both recorders watch the same run; every report field must agree. *)
let check_against_reference ?config ?(fuel = 400_000) name p =
  let m = Machine.create ?config () in
  let c = Collector.attach m () in
  let r = Report.create ~isa:full_isa in
  let hooks = m.Machine.hooks in
  let (_ : S4e_cpu.Hooks.id) =
    S4e_cpu.Hooks.on_insn hooks (ref_record_instr r)
  in
  let (_ : S4e_cpu.Hooks.id) = S4e_cpu.Hooks.on_mem hooks (ref_record_mem r) in
  S4e_asm.Program.load_machine p m;
  let (_ : Machine.stop_reason) = Machine.run m ~fuel in
  let got = Collector.report c in
  let chk what eq = Alcotest.(check bool) (name ^ ": " ^ what) true eq in
  chk "isa" (got.Report.isa = r.Report.isa);
  chk "executed"
    (sorted_bindings got.Report.executed = sorted_bindings r.Report.executed);
  chk "gpr_read" (got.Report.gpr_read = r.Report.gpr_read);
  chk "gpr_written" (got.Report.gpr_written = r.Report.gpr_written);
  chk "fpr_read" (got.Report.fpr_read = r.Report.fpr_read);
  chk "fpr_written" (got.Report.fpr_written = r.Report.fpr_written);
  chk "csr_accessed"
    (sorted_keys got.Report.csr_accessed = sorted_keys r.Report.csr_accessed);
  chk "executed_pcs"
    (sorted_keys got.Report.executed_pcs = sorted_keys r.Report.executed_pcs);
  chk "touched_data"
    (sorted_keys got.Report.touched_data = sorted_keys r.Report.touched_data);
  Alcotest.(check int) (name ^ ": mem_lo") r.Report.mem_lo got.Report.mem_lo;
  Alcotest.(check int) (name ^ ": mem_hi") r.Report.mem_hi got.Report.mem_hi;
  Alcotest.(check int) (name ^ ": mem_accesses") r.Report.mem_accesses
    got.Report.mem_accesses;
  (* a second fold adds nothing *)
  chk "report is idempotent"
    (sorted_bindings (Collector.report c).Report.executed
    = sorted_bindings r.Report.executed);
  got

let single_step = { Machine.default_config with Machine.use_tb_cache = false }

let test_reference_torture () =
  List.iter
    (fun seed ->
      let p =
        S4e_torture.Torture.generate
          { S4e_torture.Torture.default_config with S4e_torture.Torture.seed }
      in
      ignore (check_against_reference (Printf.sprintf "torture %d" seed) p);
      ignore
        (check_against_reference ~config:single_step
           (Printf.sprintf "torture %d, single-step" seed) p))
    [ 1; 2; 3; 7; 11 ]

(* A pc that retires two different instructions: the slot runs as addi,
   is patched to mul, and runs again. *)
let test_reference_self_modifying () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   s0, 3
  li   a0, 2
  la   t0, patch
  lw   t1, 0(t0)
loop:
slot:
  addi a0, a0, 1
  addi s0, s0, -1
  beqz s0, done
  la   t2, slot
  sw   t1, 0(t2)
  fence.i
  j    loop
done:
  li   t3, 0x00100000
  sw   zero, 0(t3)
patch:
  mul  a1, a0, a0
|}
  in
  List.iter
    (fun (name, config) ->
      let r = check_against_reference ~config name p in
      Alcotest.(check (option int)) (name ^ ": patched slot ran") (Some 2)
        (Hashtbl.find_opt r.Report.executed "mul"))
    [ ("smc", Machine.default_config); ("smc, single-step", single_step) ]

(* Past [touched_data_cap]: one byte store first, so that the word store
   which crosses the cap leaves the table 1 byte over it, as the
   per-access cap test does. *)
let test_reference_touched_cap () =
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   t0, 0x80200000
  sb   zero, -1(t0)
  li   t1, 20000
fill:
  sw   zero, 0(t0)
  addi t0, t0, 4
  addi t1, t1, -1
  bnez t1, fill
  li   t3, 0x00100000
  sw   zero, 0(t3)
|}
  in
  let r = check_against_reference "cap" p in
  Alcotest.(check int) "one byte over the cap" (Report.touched_data_cap + 1)
    (Hashtbl.length r.Report.touched_data)

let () =
  Alcotest.run "coverage"
    [ ( "collector",
        [ Alcotest.test_case "instructions" `Quick test_instruction_recording;
          Alcotest.test_case "registers" `Quick test_register_recording;
          Alcotest.test_case "csr and memory" `Quick test_csr_and_mem_recording;
          Alcotest.test_case "metrics" `Quick test_metrics_and_missed;
          Alcotest.test_case "combine" `Quick test_combine_is_union;
          Alcotest.test_case "detach" `Quick test_detach_stops_recording;
          Alcotest.test_case "= reference: torture" `Quick
            test_reference_torture;
          Alcotest.test_case "= reference: self-modifying" `Quick
            test_reference_self_modifying;
          Alcotest.test_case "= reference: past the touched-data cap" `Quick
            test_reference_touched_cap ] );
      ( "experiment-shape",
        [ Alcotest.test_case "unified suite (E1)" `Slow
            test_unified_suite_shape ] ) ]
