(* The experiment harness: regenerates every table and figure of the
   reproduction (E1..E20, see DESIGN.md for the per-experiment index and
   EXPERIMENTS.md for paper-vs-measured).

   Usage:  dune exec bench/main.exe                    # all experiments
           dune exec bench/main.exe e4 e6              # a subset
           dune exec bench/main.exe --json out.json    # also dump metrics *)

open Bechamel
module Machine = S4e_cpu.Machine
module Flows = S4e_core.Flows

let line = String.make 72 '-'

let section id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

(* Machine-readable metric records, dumped with --json for trend
   tracking across commits. *)
let metrics : (string * string * float * string) list ref = ref []

let record ~exp ~name ~value ~unit_ =
  metrics := (exp, name, value, unit_) :: !metrics

let write_json path =
  let module J = S4e_obs.Json in
  let rows =
    List.rev_map
      (fun (exp, name, value, unit_) ->
        "  "
        ^ J.to_string
            (J.Obj
               [ ("exp", J.String exp); ("name", J.String name);
                 ("value", J.Float value); ("unit", J.String unit_) ]))
      !metrics
  in
  let oc = open_out path in
  output_string oc ("[\n" ^ String.concat ",\n" rows ^ "\n]\n");
  close_out oc;
  Printf.printf "\nwrote %d metric records to %s\n" (List.length rows) path

(* Wall-clock helper: OLS estimate of ns/run for each bechamel test. *)
let benchmark_ns tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name est acc ->
          let ns =
            match Analyze.OLS.estimates est with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          (name, ns) :: acc)
        res [])
    tests

let find_ns results name =
  match List.assoc_opt name results with
  | Some ns -> ns
  | None -> nan

let pct f = 100.0 *. f

(* ------------------------------------------------------------------ *)
(* E1: suite coverage table                                             *)

let e1 () =
  section "E1" "instruction-type and register coverage of the test suites";
  let isa = Machine.default_config.Machine.isa in
  let suites =
    [ ("architectural", S4e_torture.Suites.arch_suite ~isa);
      ("unit", S4e_torture.Suites.unit_suite ~isa);
      ("torture",
       S4e_torture.Suites.torture_suite ~isa ~seeds:[ 1; 2; 3; 4; 5 ]) ]
  in
  Printf.printf "%-16s %6s %12s %8s %8s %8s\n" "suite" "progs" "instr-type"
    "GPR" "FPR" "CSR";
  let reports =
    List.map
      (fun (name, progs) ->
        let r = Flows.coverage_of_suite ~fuel:S4e_torture.Suites.fuel progs in
        Printf.printf "%-16s %6d %11.1f%% %7.1f%% %7.1f%% %7.1f%%\n" name
          (List.length progs)
          (pct (S4e_coverage.Report.instruction_coverage r))
          (pct (S4e_coverage.Report.gpr_coverage r))
          (pct (S4e_coverage.Report.fpr_coverage r))
          (pct (S4e_coverage.Report.csr_coverage r));
        r)
      suites
  in
  let union =
    List.fold_left S4e_coverage.Report.combine
      (S4e_coverage.Report.create ~isa)
      reports
  in
  Printf.printf "%-16s %6s %11.1f%% %7.1f%% %7.1f%% %7.1f%%\n" "unified" "-"
    (pct (S4e_coverage.Report.instruction_coverage union))
    (pct (S4e_coverage.Report.gpr_coverage union))
    (pct (S4e_coverage.Report.fpr_coverage union))
    (pct (S4e_coverage.Report.csr_coverage union));
  Printf.printf "still missing: %s\n"
    (String.concat ", " (S4e_coverage.Report.missed_instructions union));
  Printf.printf
    "(paper: unified suite reaches 100%% GPR+FPR and 98.7%% instruction \
     types)\n"

(* ------------------------------------------------------------------ *)
(* E2: fault campaign outcome table                                     *)

let e2 () =
  section "E2" "fault campaign outcomes by target and fault kind";
  let p = Workloads.program Workloads.crc32 in
  let golden, cov = S4e_fault.Campaign.golden ~fuel:1_000_000 p in
  let instret = golden.S4e_fault.Campaign.sig_instret in
  Printf.printf "workload: crc32 (golden: %d instructions)\n" instret;
  Printf.printf "%-24s %6s %6s %6s %6s %6s\n" "mutant class" "total" "masked"
    "sdc" "crash" "hung";
  List.iter
    (fun (label, targets, kinds, seed) ->
      let faults =
        S4e_fault.Campaign.generate ~seed ~n:120 ~targets ~kinds ~coverage:cov
          ~golden_instret:instret
      in
      let results = S4e_fault.Campaign.run ~fuel:1_000_000 p ~golden faults in
      let s = S4e_fault.Campaign.summarize results in
      Printf.printf "%-24s %6d %6d %6d %6d %6d\n" label
        s.S4e_fault.Campaign.total s.S4e_fault.Campaign.masked
        s.S4e_fault.Campaign.sdc s.S4e_fault.Campaign.crashed
        s.S4e_fault.Campaign.hung)
    [ ("register / transient", [ `Gpr ], [ `Transient ], 11);
      ("register / permanent", [ `Gpr ], [ `Permanent ], 12);
      ("code / transient", [ `Code ], [ `Transient ], 13);
      ("code / permanent", [ `Code ], [ `Permanent ], 14);
      ("data / permanent", [ `Data ], [ `Permanent ], 15) ];
  Printf.printf
    "(paper's shape: most faults masked; normal-termination-with-wrong-\n\
    \ output mutants are flagged for countermeasures; code flips crash \
     more)\n"

(* ------------------------------------------------------------------ *)
(* E3: campaign scaling + guided-vs-blind ablation                      *)

let e3 () =
  section "E3" "campaign runtime scaling and coverage-guidance ablation";
  let p = Workloads.program Workloads.fib in
  let golden, cov = S4e_fault.Campaign.golden ~fuel:100_000 p in
  let instret = golden.S4e_fault.Campaign.sig_instret in
  Printf.printf "%-10s %12s %14s\n" "mutants" "seconds" "mutants/sec";
  List.iter
    (fun n ->
      let faults =
        S4e_fault.Campaign.generate ~seed:1 ~n ~targets:[ `Gpr; `Code; `Data ]
          ~kinds:[ `Permanent; `Transient ] ~coverage:cov
          ~golden_instret:instret
      in
      let t0 = Sys.time () in
      let _ = S4e_fault.Campaign.run ~fuel:100_000 p ~golden faults in
      let dt = Sys.time () -. t0 in
      record ~exp:"e3" ~name:(Printf.sprintf "throughput-%d" n)
        ~value:(float_of_int n /. dt) ~unit_:"mutants/sec";
      Printf.printf "%-10d %12.3f %14.0f\n" n dt (float_of_int n /. dt))
    [ 25; 50; 100; 200; 400 ];
  (* ablation: guided vs blind at equal budget *)
  let run_campaign blind =
    let cfg =
      { Flows.default_fault_config with
        Flows.ff_mutants = 200; ff_fuel = 100_000; ff_blind = blind }
    in
    (Result.get_ok (Flows.fault_campaign cfg p)).Flows.ff_summary
  in
  let guided = run_campaign false and blind = run_campaign true in
  let effective (s : S4e_fault.Campaign.summary) =
    s.S4e_fault.Campaign.total - s.S4e_fault.Campaign.masked
  in
  Printf.printf "\nguidance ablation (200 mutants each):\n";
  Printf.printf "  guided: %3d effective (non-masked) mutants\n"
    (effective guided);
  Printf.printf "  blind:  %3d effective (non-masked) mutants\n"
    (effective blind);
  Printf.printf
    "(the paper's scalability argument: coverage guidance avoids wasting \
     simulations on unused state)\n"

(* ------------------------------------------------------------------ *)
(* E4: WCET bound vs observation                                        *)

let e4 () =
  section "E4" "static WCET vs QTA path WCET vs dynamic cycles";
  Printf.printf "%-10s %10s %10s %10s %8s\n" "program" "dynamic" "path-wcet"
    "static" "ratio";
  List.iter
    (fun w ->
      Workloads.validate w;
      let p = Workloads.program w in
      match Flows.wcet_flow ~annotations:w.Workloads.w_annotations p with
      | Error e ->
          Printf.printf "%-10s analysis error: %s\n" w.Workloads.w_name
            (S4e_wcet.Analysis.describe_error e)
      | Ok r ->
          assert (r.Flows.wr_dynamic <= r.Flows.wr_path);
          assert (r.Flows.wr_path <= r.Flows.wr_static);
          Printf.printf "%-10s %10d %10d %10d %8.2f\n" w.Workloads.w_name
            r.Flows.wr_dynamic r.Flows.wr_path r.Flows.wr_static
            (float_of_int r.Flows.wr_static /. float_of_int r.Flows.wr_dynamic))
    Workloads.all;
  Printf.printf
    "(soundness: dynamic <= path <= static on every row; ratios reflect \
     the simple pipeline model's per-path overestimation)\n";
  (* ablation: hazard modeling on vs off *)
  let nh = S4e_cpu.Timing_model.without_hazards S4e_cpu.Timing_model.default in
  Printf.printf "\nload-use hazard modeling ablation (static bound / dynamic):\n";
  Printf.printf "%-10s %14s %14s\n" "program" "with hazards" "without";
  List.iter
    (fun w ->
      let p = Workloads.program w in
      let annotations = w.Workloads.w_annotations in
      match
        (Flows.wcet_flow ~annotations p, Flows.wcet_flow ~annotations ~model:nh p)
      with
      | Ok a, Ok b ->
          Printf.printf "%-10s %8d/%-6d %8d/%-6d\n" w.Workloads.w_name
            a.Flows.wr_static a.Flows.wr_dynamic b.Flows.wr_static
            b.Flows.wr_dynamic
      | _, _ -> Printf.printf "%-10s analysis error\n" w.Workloads.w_name)
    Workloads.all;
  Printf.printf
    "(each model is sound against its own dynamic measurement; modeling \
     stalls moves both numbers up consistently)\n"

(* ------------------------------------------------------------------ *)
(* E5: plugin overhead                                                  *)

let e5 () =
  section "E5" "co-simulation overhead of the plugin API clients";
  let p = Workloads.program Workloads.mix in
  let acfg =
    match S4e_wcet.Annotated_cfg.of_program p with
    | Ok a -> a
    | Error e -> failwith (S4e_wcet.Analysis.describe_error e)
  in
  let run_plain () =
    let m = Machine.create () in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:100_000)
  in
  let run_with_coverage () =
    let m = Machine.create () in
    let c = S4e_coverage.Collector.attach m () in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:100_000);
    S4e_coverage.Collector.detach m c
  in
  let run_with_qta () =
    let m = Machine.create () in
    let q = S4e_wcet.Qta.attach m acfg in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:100_000);
    S4e_wcet.Qta.detach m q
  in
  let run_with_both () =
    let m = Machine.create () in
    let c = S4e_coverage.Collector.attach m () in
    let q = S4e_wcet.Qta.attach m acfg in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:100_000);
    S4e_wcet.Qta.detach m q;
    S4e_coverage.Collector.detach m c
  in
  let tests =
    [ Test.make ~name:"plain" (Staged.stage run_plain);
      Test.make ~name:"+coverage" (Staged.stage run_with_coverage);
      Test.make ~name:"+qta" (Staged.stage run_with_qta);
      Test.make ~name:"+both" (Staged.stage run_with_both) ]
  in
  let results = benchmark_ns tests in
  let plain = find_ns results "plain" in
  Printf.printf "%-12s %12s %10s\n" "config" "ms/run" "slowdown";
  List.iter
    (fun name ->
      let ns = find_ns results name in
      Printf.printf "%-12s %12.2f %9.2fx\n" name (ns /. 1e6) (ns /. plain))
    [ "plain"; "+coverage"; "+qta"; "+both" ];
  Printf.printf
    "(the QTA tool demo's point: version-independent instrumentation at \
     modest slowdown)\n"

(* ------------------------------------------------------------------ *)
(* E6: BMI speedups                                                     *)

let e6 () =
  section "E6" "BMI vs base-ISA cycle counts on crypto kernels";
  Printf.printf "%-10s %10s %10s %9s %10s %10s %9s\n" "kernel" "base-cyc"
    "bmi-cyc" "speedup" "base-inst" "bmi-inst" "reduction";
  List.iter
    (fun k ->
      let base = S4e_bmi.Kernels.measure k S4e_bmi.Kernels.Base ~n:256 ~seed:42 in
      let bmi = S4e_bmi.Kernels.measure k S4e_bmi.Kernels.Bmi ~n:256 ~seed:42 in
      assert (base.S4e_bmi.Kernels.m_checksum = bmi.S4e_bmi.Kernels.m_checksum);
      Printf.printf "%-10s %10d %10d %8.2fx %10d %10d %8.1f%%\n"
        k.S4e_bmi.Kernels.k_name base.S4e_bmi.Kernels.m_cycles
        bmi.S4e_bmi.Kernels.m_cycles
        (float_of_int base.S4e_bmi.Kernels.m_cycles
        /. float_of_int bmi.S4e_bmi.Kernels.m_cycles)
        base.S4e_bmi.Kernels.m_instret bmi.S4e_bmi.Kernels.m_instret
        (100.0
        *. (1.0
           -. float_of_int bmi.S4e_bmi.Kernels.m_instret
              /. float_of_int base.S4e_bmi.Kernels.m_instret)))
    S4e_bmi.Kernels.all;
  Printf.printf
    "(paper: \"significant impact for time and power consuming \
     cryptographic applications\")\n"

(* ------------------------------------------------------------------ *)
(* E7: DecodeTree vs hand decoder                                       *)

let e7 () =
  section "E7" "DecodeTree-generated decoder vs hand decoder";
  (* correctness sweep *)
  let tree = S4e_isa.Decodetree.rv32 () in
  let sweep = 2_000_000 in
  let rng = Random.State.make [| 4242 |] in
  let mismatches = ref 0 in
  let decoded = ref 0 in
  for _ = 1 to sweep do
    let w =
      (Random.State.bits rng lor (Random.State.bits rng lsl 15))
      land 0xFFFF_FFFF lor 0x3
    in
    let a = S4e_isa.Decode.decode w in
    let b = S4e_isa.Decodetree.decode tree w in
    (match a with Some _ -> incr decoded | None -> ());
    if not (Option.equal S4e_isa.Instr.equal a b) then incr mismatches
  done;
  Printf.printf "random sweep: %d words, %d decoded, %d mismatches\n" sweep
    !decoded !mismatches;
  let stats = S4e_isa.Decodetree.stats tree in
  Printf.printf
    "tree shape: %d rows, %d switch nodes, %d leaves, depth %d, widest \
     leaf %d\n"
    stats.S4e_isa.Decodetree.rows stats.S4e_isa.Decodetree.switch_nodes
    stats.S4e_isa.Decodetree.leaves stats.S4e_isa.Decodetree.max_depth
    stats.S4e_isa.Decodetree.max_leaf_width;
  (* throughput *)
  let words =
    Array.init 4096 (fun i ->
        let r = Random.State.make [| i |] in
        (Random.State.bits r lor (Random.State.bits r lsl 15))
        land 0xFFFF_FFFF lor 0x3)
  in
  let bench_decoder decode () =
    let acc = ref 0 in
    Array.iter
      (fun w -> match decode w with Some _ -> incr acc | None -> ())
      words;
    !acc
  in
  let results =
    benchmark_ns
      [ Test.make ~name:"hand" (Staged.stage (bench_decoder S4e_isa.Decode.decode));
        Test.make ~name:"decodetree"
          (Staged.stage (bench_decoder (S4e_isa.Decodetree.decode tree))) ]
  in
  let hand = find_ns results "hand" and dt = find_ns results "decodetree" in
  Printf.printf "decode of 4096 words: hand %.1f us, decodetree %.1f us \
                 (ratio %.2f)\n"
    (hand /. 1e3) (dt /. 1e3) (dt /. hand);
  Printf.printf
    "(identical decisions on every word; the generic tree pays an \
     interpretation overhead vs. the hand-specialized matcher, which \
     QEMU erases by emitting the tree as C — the TB cache hides the \
     residual cost: decode runs once per block)\n"

(* ------------------------------------------------------------------ *)
(* E8: IO guard detection                                               *)

let e8 () =
  section "E8" "UART access monitor: detection latency, zero false positives";
  let source = {|
  .equ UART,  0x10000000
_start:
  li   s0, UART
  li   s1, 0x2739
  li   a0, 0
  li   s2, 0
  li   s3, 4
read_loop:
  lbu  a1, 0(s0)
  slli a0, a0, 4
  andi a1, a1, 0x0f
  or   a0, a0, a1
  addi s2, s2, 1
  blt  s2, s3, read_loop
  bne  a0, s1, reject
  call lock_driver_open
  j    done
reject:
  li   a2, 0x4f
  sb   a2, 0(s0)          # exploit: direct lock poke
done:
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
lock_driver_open:
  li   t2, UART
  li   t3, 0x4f
  sb   t3, 0(t2)
  ret
|} in
  let p = S4e_asm.Assembler.assemble_exn source in
  let driver = Option.get (S4e_asm.Program.symbol p "lock_driver_open") in
  let attempt pin =
    let m = Machine.create () in
    let guard =
      S4e_core.Io_guard.attach m
        [ { S4e_core.Io_guard.p_device = "uart";
            p_allowed = [ (driver, driver + 20) ];
            p_restrict = S4e_core.Io_guard.Restrict_writes } ]
    in
    S4e_asm.Program.load_machine p m;
    S4e_soc.Uart.feed m.Machine.uart pin;
    let _ = Machine.run m ~fuel:10_000 in
    (S4e_core.Io_guard.violations guard, Machine.instret m)
  in
  let ok_violations, ok_instret = attempt "\x02\x07\x03\x09" in
  Printf.printf "authorized run:   %d violations in %d instructions \
                 (false-positive rate 0)\n"
    (List.length ok_violations) ok_instret;
  let bad_violations, bad_instret = attempt "\x01\x01\x01\x01" in
  (match bad_violations with
  | v :: _ ->
      Printf.printf
        "exploit run:      detected at instruction %d of %d (pc 0x%08x)\n"
        v.S4e_core.Io_guard.v_instret bad_instret v.S4e_core.Io_guard.v_pc
  | [] -> Printf.printf "exploit run:      NOT DETECTED (unexpected)\n");
  (* monitoring overhead *)
  let mixp = Workloads.program Workloads.mix in
  let run_guarded guarded () =
    let m = Machine.create () in
    let g =
      if guarded then
        Some
          (S4e_core.Io_guard.attach m
             [ { S4e_core.Io_guard.p_device = "uart"; p_allowed = [];
                 p_restrict = S4e_core.Io_guard.Restrict_writes } ])
      else None
    in
    S4e_asm.Program.load_machine mixp m;
    ignore (Machine.run m ~fuel:100_000);
    ignore g
  in
  let results =
    benchmark_ns
      [ Test.make ~name:"unmonitored" (Staged.stage (run_guarded false));
        Test.make ~name:"monitored" (Staged.stage (run_guarded true)) ]
  in
  let u = find_ns results "unmonitored" and g = find_ns results "monitored" in
  Printf.printf "monitoring overhead on the mix workload: %.1f%%\n"
    (100.0 *. ((g /. u) -. 1.0));
  Printf.printf
    "(the security paper's claim: non-invasive, early detection of \
     unauthorized IO)\n"

(* ------------------------------------------------------------------ *)
(* E9: emulation throughput and the TB cache                            *)

let e9 () =
  section "E9" "emulation throughput with and without the TB cache";
  let programs =
    (Workloads.mix :: Workloads.all)
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  let instret_of p config =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel:1_000_000);
    Machine.instret m
  in
  Printf.printf "%-10s %12s %14s %14s %8s\n" "workload" "instrs" "cached MIPS"
    "uncached MIPS" "ratio";
  List.iter
    (fun (name, p) ->
      let cached_cfg = Machine.default_config in
      let uncached_cfg =
        { Machine.default_config with Machine.use_tb_cache = false }
      in
      let n = instret_of p cached_cfg in
      let run config () =
        let m = Machine.create ~config () in
        S4e_asm.Program.load_machine p m;
        ignore (Machine.run m ~fuel:1_000_000)
      in
      let results =
        benchmark_ns
          [ Test.make ~name:"cached" (Staged.stage (run cached_cfg));
            Test.make ~name:"uncached" (Staged.stage (run uncached_cfg)) ]
      in
      let mips ns = float_of_int n /. (ns /. 1e9) /. 1e6 in
      let c = find_ns results "cached" and u = find_ns results "uncached" in
      Printf.printf "%-10s %12d %14.2f %14.2f %7.2fx\n" name n (mips c)
        (mips u) (u /. c))
    programs;
  Printf.printf
    "(the TB cache is the QEMU TCG analogue; the ratio justifies the \
     block-based design)\n";
  (* appendix: observational cache-model plugin (hit rates, two sizes) *)
  let module C = S4e_cpu.Cache_model in
  let small = C.geometry ~ways:2 ~line_bytes:32 ~total_bytes:1024 () in
  let big = C.geometry ~ways:2 ~line_bytes:32 ~total_bytes:8192 () in
  Printf.printf "\ncache-model plugin (icache%%/dcache%% hits):\n";
  Printf.printf "%-10s %16s %16s\n" "workload" "1 KiB caches" "8 KiB caches";
  List.iter
    (fun (name, p) ->
      let rates geo =
        let m = Machine.create () in
        let caches = C.attach ~icache:geo ~dcache:geo m in
        S4e_asm.Program.load_machine p m;
        ignore (Machine.run m ~fuel:1_000_000);
        ( 100.0 *. C.hit_rate (C.icache_stats caches),
          100.0 *. C.hit_rate (C.dcache_stats caches) )
      in
      let si, sd = rates small in
      let bi, bd = rates big in
      Printf.printf "%-10s %7.1f / %-6.1f %7.1f / %-6.1f\n" name si sd bi bd)
    programs

(* ------------------------------------------------------------------ *)
(* E10: mutation analysis as a test-quality metric                      *)

let e10 () =
  section "E10" "binary mutation score vs. test-suite strength";
  let source = {|
  .equ UART, 0x10000000
  .equ EXIT, 0x00100000
_start:
  li   s0, UART
  lbu  a0, 0(s0)
  lbu  a1, 0(s0)
  # weighted key check with a saturation step
  slli a2, a0, 3
  add  a2, a2, a1
  li   a3, 200
  min  a2, a2, a3
  addi a2, a2, -100
  bltz a2, low
  li   a4, 'H'
  sb   a4, 0(s0)
  li   a5, 1
  j    finish
low:
  li   a4, 'L'
  sb   a4, 0(s0)
  li   a5, 0
finish:
  li   t1, EXIT
  sw   a5, 0(t1)
  ebreak
|} in
  let p = S4e_asm.Assembler.assemble_exn source in
  let module Mutant = S4e_mutation.Mutant in
  let module Score = S4e_mutation.Score in
  let mutants = Mutant.generate p in
  Printf.printf "target: pin classifier, %d mutants over %d bytes of code\n"
    (List.length mutants) (S4e_asm.Program.size p);
  let suites =
    [ ("1 test (happy path)", [ Score.test ~name:"t1" "\x20\x10" ]);
      ("2 tests (+reject)",
       [ Score.test ~name:"t1" "\x20\x10"; Score.test ~name:"t2" "\x01\x01" ]);
      ("4 tests (+boundaries)",
       [ Score.test ~name:"t1" "\x20\x10"; Score.test ~name:"t2" "\x01\x01";
         Score.test ~name:"t3" "\x0c\x04"; Score.test ~name:"t4" "\x0c\x03" ]);
      ("6 tests (+saturation)",
       [ Score.test ~name:"t1" "\x20\x10"; Score.test ~name:"t2" "\x01\x01";
         Score.test ~name:"t3" "\x0c\x04"; Score.test ~name:"t4" "\x0c\x03";
         Score.test ~name:"t5" "\x7f\x7f"; Score.test ~name:"t6" "\x19\x03" ]) ]
  in
  Printf.printf "%-24s %8s %10s %10s\n" "suite" "killed" "survived" "score";
  List.iter
    (fun (label, tests) ->
      let s = Score.summarize (Score.run p ~tests ~mutants) in
      Printf.printf "%-24s %8d %10d %9.1f%%\n" label s.Score.s_killed
        s.Score.s_survived (100.0 *. s.Score.s_score))
    suites;
  let _, strongest = List.nth suites 3 in
  let results = Score.run p ~tests:strongest ~mutants in
  let s = Score.summarize results in
  Printf.printf "\nper-operator kill rates (strongest suite):\n";
  List.iter
    (fun (op, k, t) ->
      if t > 0 then
        Printf.printf "  %-4s %-38s %3d/%3d\n" (S4e_mutation.Mutop.name op)
          (S4e_mutation.Mutop.describe op) k t)
    s.Score.s_per_operator;
  let survivors = Score.survivors results in
  Printf.printf "surviving mutants (equivalence candidates / missing tests):\n";
  List.iteri
    (fun i m -> if i < 6 then Printf.printf "  %s\n" (Mutant.describe m))
    survivors;
  Printf.printf
    "(the mutation-analysis companions' metric: scores grow with \
     directed tests; survivors point at missing stimuli)\n"

(* ------------------------------------------------------------------ *)
(* E11: WCET-to-schedulability flow (RTA on analyzer-derived bounds)    *)

let e11 () =
  section "E11" "response-time analysis on statically bounded tasks";
  let image = {|
_start:
  ebreak

# sensor sampling task: 8-tap average
task_sample:
  la   a0, window
  li   a1, 0
  li   a2, 8
  li   a3, 0
smp:
  slli a4, a1, 2
  add  a5, a0, a4
  lw   a6, 0(a5)
  add  a3, a3, a6
  addi a1, a1, 1
  blt  a1, a2, smp
  srai a3, a3, 3
  mret

# control law task: 16-step PI iteration
task_control:
  li   a0, 0
  li   a1, 0
  li   a2, 16
ctl:
  add  a1, a1, a0
  srai a3, a1, 4
  addi a0, a0, 3
  addi a2, a2, -1
  bgtz a2, ctl
  mret

# logging task: CRC over 12 bytes
task_log:
  li   s0, 0
  li   s1, 12
  li   a0, -1
  li   s3, 0xedb88320
  li   a4, 8
lg_byte:
  la   a1, window
  add  a1, a1, s0
  lbu  a2, 0(a1)
  xor  a0, a0, a2
  li   s2, 0
lg_bit:
  andi a3, a0, 1
  srli a0, a0, 1
  beqz a3, lg_skip
  xor  a0, a0, s3
lg_skip:
  addi s2, s2, 1
  blt  s2, a4, lg_bit
  addi s0, s0, 1
  blt  s0, s1, lg_byte
  mret

  .data
window:
  .word 100, 220, 180, 90, 310, 240, 160, 200
|} in
  let p = S4e_asm.Assembler.assemble_exn image in
  let periods =
    [ ("task_sample", 700); ("task_control", 2500); ("task_log", 9000) ]
  in
  let print_for label model =
    match S4e_rtos.Rta.of_program ~model p ~tasks:periods with
    | Error m -> Printf.printf "%s: bridge failed: %s\n" label m
    | Ok tasks ->
        Printf.printf "%s:\n" label;
        Format.printf "%a" S4e_rtos.Rta.pp (S4e_rtos.Rta.analyze tasks)
  in
  print_for "default core model" S4e_cpu.Timing_model.default;
  print_for "rocket-like model" S4e_cpu.Timing_model.rocket_like;
  (* sensitivity: tighten the sampling period until the set breaks *)
  (match S4e_rtos.Rta.of_program p ~tasks:periods with
  | Error _ -> ()
  | Ok tasks ->
      let with_sample_period period =
        List.map
          (fun t ->
            if t.S4e_rtos.Rta.tk_name = "task_sample" then
              { t with S4e_rtos.Rta.tk_period = period; tk_deadline = period }
            else t)
          tasks
      in
      Printf.printf "\nsampling-period sensitivity:\n";
      List.iter
        (fun period ->
          let a = S4e_rtos.Rta.analyze (with_sample_period period) in
          Printf.printf "  T_sample=%-5d utilization %.3f -> %s\n" period
            a.S4e_rtos.Rta.a_utilization
            (if a.S4e_rtos.Rta.a_schedulable then "schedulable"
             else "DEADLINE MISS"))
        [ 700; 300; 150; 100; 80 ]);
  Printf.printf
    "(closing the loop the schedulability companions describe: static \
     WCET bounds feed classical fixed-priority response-time analysis)\n"

(* ------------------------------------------------------------------ *)
(* E12: campaign-engine throughput (snapshot fork, early exit, pool)    *)

let e12 () =
  section "E12"
    "fault-campaign engine: snapshot forking, early exit, domain pool";
  let module C = S4e_fault.Campaign in
  let p = Workloads.program Workloads.dhrystone in
  let golden, cov = C.golden ~fuel:1_000_000 p in
  let instret = golden.C.sig_instret in
  (* hang-detection budget proportional to the golden run, as usual for
     campaigns: a Hung mutant costs [fuel] on every engine, so an
     unbounded budget would just measure hangs *)
  let fuel = 3 * instret in
  Printf.printf "workload: dhrystone (golden: %d instructions)\n" instret;
  (* The headline campaign is the SEU model — transient bit flips, the
     dominant class in radiation-induced fault studies and the class
     the fork+early-exit axes accelerate.  Register/data targets only:
     their outcomes are independent of translation-block segmentation,
     so every engine below must agree bit-for-bit (asserted). *)
  let faults =
    C.generate ~seed:7 ~n:200 ~targets:[ `Gpr; `Data ]
      ~kinds:[ `Transient ] ~coverage:cov ~golden_instret:instret
  in
  let n = List.length faults in
  (* min-of-3 wall clock: this box is noisy and each run is short *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let r1, t1 = once () in
    let _, t2 = once () in
    let _, t3 = once () in
    (r1, List.fold_left min t1 [ t2; t3 ])
  in
  let campaign engine jobs faults =
    time (fun () -> C.run ~engine ~jobs ~fuel p ~golden faults)
  in
  let r_naive, t_naive = campaign C.rerun_engine 1 faults in
  let r_eng, t_eng = campaign C.default_engine 1 faults in
  let r_par, t_par = campaign C.default_engine 4 faults in
  assert (r_naive = r_eng);
  assert (r_eng = r_par);
  let s = C.summarize r_eng in
  Printf.printf
    "SEU campaign: %d transients -> %d masked, %d sdc, %d crashed, %d \
     hung\n"
    s.C.total s.C.masked s.C.sdc s.C.crashed s.C.hung;
  let thr t = float_of_int n /. t in
  Printf.printf "%-30s %10s %12s\n" "engine" "seconds" "faults/sec";
  List.iter
    (fun (label, t) ->
      Printf.printf "%-30s %10.3f %12.0f\n" label t (thr t);
      record ~exp:"e12" ~name:(label ^ "-throughput") ~value:(thr t)
        ~unit_:"faults/sec")
    [ ("naive-rerun", t_naive); ("engine-j1", t_eng); ("engine-j4", t_par) ];
  record ~exp:"e12" ~name:"engine-speedup" ~value:(t_naive /. t_eng)
    ~unit_:"x";
  Printf.printf
    "engine speedup over naive re-run: %.2fx (identical outcomes, \
     asserted)\n"
    (t_naive /. t_eng);
  (* stuck-at faults can neither fork (they act from reset) nor early
     exit (never inert), so a mixed campaign shows the blended gain *)
  let mixed =
    C.generate ~seed:8 ~n:200 ~targets:[ `Gpr; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:instret
  in
  let rm_naive, tm_naive = campaign C.rerun_engine 1 mixed in
  let rm_eng, tm_eng = campaign C.default_engine 1 mixed in
  assert (rm_naive = rm_eng);
  record ~exp:"e12" ~name:"mixed-kind-speedup" ~value:(tm_naive /. tm_eng)
    ~unit_:"x";
  Printf.printf
    "mixed permanent+transient campaign: naive %.3fs, engine %.3fs \
     (%.2fx)\n"
    tm_naive tm_eng (tm_naive /. tm_eng);
  (* the fork axis in isolation: transients injected near the end of
     the golden run, where re-running the shared prefix dominates *)
  let late =
    List.init 40 (fun i ->
        { S4e_fault.Fault.loc = S4e_fault.Fault.Gpr (10 + (i mod 8), i mod 32);
          kind = S4e_fault.Fault.Transient (instret - 1 - (i * 7 mod 2000)) })
  in
  let rl_naive, tl_naive =
    time (fun () -> C.run ~engine:C.rerun_engine ~fuel p ~golden late)
  in
  let rl_fork, tl_fork =
    time (fun () -> C.run ~engine:C.default_engine ~fuel p ~golden late)
  in
  assert (rl_naive = rl_fork);
  record ~exp:"e12" ~name:"late-transient-fork-speedup"
    ~value:(tl_naive /. tl_fork) ~unit_:"x";
  Printf.printf
    "late transients (40 mutants near instret %d): naive %.3fs, \
     fork+exit %.3fs (%.2fx)\n"
    instret tl_naive tl_fork (tl_naive /. tl_fork);
  Printf.printf
    "(one-core container: -j shows pool overhead only; on real \
     multicore hosts the jobs axis multiplies the algorithmic gains — \
     outcomes stay bit-identical either way)\n"

(* ------------------------------------------------------------------ *)
(* E13: closure-lowered blocks, chaining, hoisted overheads             *)

let e13 () =
  section "E13"
    "closure-lowered translation blocks: lowering, chaining, batching";
  let fuel = 1_000_000 in
  (* superblocks pinned off in every arm: this experiment isolates the
     lowering and chaining axes; the trace layer on top is E16's *)
  let generic_cfg =
    { Machine.default_config with
      Machine.lower_blocks = false; superblocks = false }
  in
  let lowered_cfg =
    { Machine.default_config with
      Machine.chain_blocks = false; superblocks = false }
  in
  let chained_cfg =
    { Machine.default_config with Machine.superblocks = false }
  in
  let finish p config =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    ignore (Machine.run m ~fuel);
    m
  in
  (* min-of-3 wall clock, as in E12: short runs on a noisy box *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let t1 = once () in
    let t2 = once () in
    let t3 = once () in
    List.fold_left min t1 [ t2; t3 ]
  in
  (* throughput-sized workloads only: the tiny WCET micro-kernels (fib,
     search, calls; < 200 instructions) measure machine construction,
     not execution *)
  let programs =
    [ Workloads.mix; Workloads.dhrystone; Workloads.bubble_sort;
      Workloads.matmul; Workloads.crc32 ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  Printf.printf "%-10s %10s %9s %9s %9s %9s %7s\n" "workload" "instrs"
    "generic" "lowered" "chained" "chain%" "speedup";
  Printf.printf "%-10s %10s %9s %9s %9s %9s %7s\n" "" "" "(MIPS)" "(MIPS)"
    "(MIPS)" "" "";
  let ratios =
    List.map
      (fun (name, p) ->
        (* correctness gate first: every engine must agree bit-for-bit
           (including cycle counters and mtime) before we time anything *)
        let m_ref = finish p generic_cfg in
        let d_ref = Machine.state_digest ~include_time:true m_ref in
        List.iter
          (fun (ename, config) ->
            let m = finish p config in
            if Machine.state_digest ~include_time:true m <> d_ref then
              failwith
                (Printf.sprintf "E13: %s digest mismatch on %s" ename name))
          [ ("lowered", lowered_cfg); ("chained", chained_cfg);
            ("single-step",
             { Machine.default_config with Machine.use_tb_cache = false }) ];
        let n1 = Machine.instret m_ref in
        (* steady-state throughput: re-run the image on the same machine
           (reset keeps memory and the warm TB cache) until each timed
           sample covers >= 200k instructions.  Execution is
           deterministic and digest-identical across engines, so every
           engine runs the exact same instruction sequence. *)
        let reps = max 1 (200_000 / max n1 1) in
        let run config () =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          ignore (Machine.run m ~fuel);
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel)
          done;
          m
        in
        (* instruction total over the rep sequence (identical for every
           engine; reps after the first may differ slightly from the
           first because the image's data segment carries over) *)
        let n =
          let m = Machine.create ~config:chained_cfg () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          let tot = ref 0 in
          ignore (Machine.run m ~fuel);
          tot := !tot + Machine.instret m;
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel);
            tot := !tot + Machine.instret m
          done;
          !tot
        in
        let mips t = float_of_int n /. t /. 1e6 in
        let tg = time (fun () -> ignore (run generic_cfg ())) in
        let tl = time (fun () -> ignore (run lowered_cfg ())) in
        let tc = time (fun () -> ignore (run chained_cfg ())) in
        (* chain hit rate over the same rep sequence *)
        let mc = run chained_cfg () in
        let ts = Machine.tb_stats mc in
        let chained_hits = ts.S4e_cpu.Tb_cache.st_chain_hits in
        let dispatches =
          ts.S4e_cpu.Tb_cache.st_hits + ts.S4e_cpu.Tb_cache.st_misses
          + chained_hits
        in
        let chain_pct =
          if dispatches = 0 then 0.0
          else pct (float_of_int chained_hits /. float_of_int dispatches)
        in
        let speedup = tg /. tc in
        Printf.printf "%-10s %10d %9.2f %9.2f %9.2f %8.1f%% %6.2fx\n" name n
          (mips tg) (mips tl) (mips tc) chain_pct speedup;
        record ~exp:"e13" ~name:(name ^ "/generic-mips") ~value:(mips tg)
          ~unit_:"MIPS";
        record ~exp:"e13" ~name:(name ^ "/lowered-mips") ~value:(mips tl)
          ~unit_:"MIPS";
        record ~exp:"e13" ~name:(name ^ "/chained-mips") ~value:(mips tc)
          ~unit_:"MIPS";
        record ~exp:"e13" ~name:(name ^ "/speedup") ~value:speedup
          ~unit_:"ratio";
        speedup)
      programs
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios
         /. float_of_int (List.length ratios))
  in
  record ~exp:"e13" ~name:"geomean-speedup" ~value:geomean ~unit_:"ratio";
  Printf.printf
    "geomean speedup (lowered+chained over the generic TB interpreter): \
     %.2fx\n"
    geomean;
  Printf.printf
    "(dispatch, timing, and hazard lookups hoisted to translate time; \
     digest-identical to the generic engine on every workload — asserted \
     above)\n"

(* ------------------------------------------------------------------ *)
(* E14: telemetry overhead of the unified observability layer           *)

let e14 () =
  section "E14"
    "telemetry overhead: metrics registered / profiler attached";
  let module Obs = S4e_obs in
  let fuel = 1_000_000 in
  let cfg = Machine.default_config in
  (* min-of-5 wall clock: the deltas measured here are small (the whole
     point), so take more samples than E13 does *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let best = ref (once ()) in
    for _ = 2 to 5 do
      best := min !best (once ())
    done;
    !best
  in
  let programs =
    [ Workloads.mix; Workloads.dhrystone ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  Printf.printf "%-10s %9s %9s %9s %10s %10s\n" "workload" "plain"
    "metrics" "profiler" "metrics" "profiler";
  Printf.printf "%-10s %9s %9s %9s %10s %10s\n" "" "(MIPS)" "(MIPS)"
    "(MIPS)" "(overhd)" "(overhd)";
  List.iter
    (fun (name, p) ->
      (* same steady-state rep sizing as E13 *)
      let n1 =
        let m = Machine.create ~config:cfg () in
        S4e_asm.Program.load_machine p m;
        ignore (Machine.run m ~fuel);
        Machine.instret m
      in
      let reps = max 1 (200_000 / max n1 1) in
      (* [instrument] decorates a fresh machine before the run; the run
         itself is the identical rep loop for every variant *)
      let run instrument () =
        let m = Machine.create ~config:cfg () in
        instrument m;
        S4e_asm.Program.load_machine p m;
        let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
        ignore (Machine.run m ~fuel);
        for _ = 2 to reps do
          Machine.reset m ~pc:entry;
          ignore (Machine.run m ~fuel)
        done;
        m
      in
      let n = reps * n1 in
      let mips t = float_of_int n /. t /. 1e6 in
      (* correctness gate: telemetry must not perturb execution *)
      let d_plain =
        Machine.state_digest ~include_time:true (run ignore ())
      in
      let with_profiler m =
        Machine.set_profiler m (Some (Obs.Profile.create ()))
      in
      let with_metrics m =
        Machine.register_metrics m (Obs.Metrics.create ())
      in
      List.iter
        (fun (vname, instrument) ->
          let d =
            Machine.state_digest ~include_time:true (run instrument ())
          in
          if d <> d_plain then
            failwith
              (Printf.sprintf "E14: %s digest mismatch on %s" vname name))
        [ ("metrics", with_metrics); ("profiler", with_profiler) ];
      let tp = time (fun () -> ignore (run ignore ())) in
      let tm = time (fun () -> ignore (run with_metrics ())) in
      let tf = time (fun () -> ignore (run with_profiler ())) in
      let ovh t = pct ((t /. tp) -. 1.0) in
      Printf.printf "%-10s %9.2f %9.2f %9.2f %9.1f%% %9.1f%%\n" name
        (mips tp) (mips tm) (mips tf) (ovh tm) (ovh tf);
      record ~exp:"e14" ~name:(name ^ "/plain-mips") ~value:(mips tp)
        ~unit_:"MIPS";
      record ~exp:"e14" ~name:(name ^ "/metrics-mips") ~value:(mips tm)
        ~unit_:"MIPS";
      record ~exp:"e14" ~name:(name ^ "/profiler-mips") ~value:(mips tf)
        ~unit_:"MIPS";
      record ~exp:"e14" ~name:(name ^ "/metrics-overhead") ~value:(ovh tm)
        ~unit_:"%";
      record ~exp:"e14" ~name:(name ^ "/profiler-overhead") ~value:(ovh tf)
        ~unit_:"%")
    programs;
  (* a metric snapshot from an instrumented run, dumped into --json so
     trend tracking sees the counters alongside the timings *)
  let reg = Obs.Metrics.create () in
  let m = Machine.create ~config:cfg () in
  Machine.register_metrics m reg;
  S4e_asm.Program.load_machine (Workloads.program Workloads.mix) m;
  ignore (Machine.run m ~fuel);
  List.iter
    (fun (k, v) ->
      let value =
        match v with
        | Obs.Metrics.Int i -> float_of_int i
        | Obs.Metrics.Float f -> f
      in
      record ~exp:"e14" ~name:("metric/" ^ k) ~value ~unit_:"count")
    (Obs.Metrics.snapshot reg);
  Printf.printf
    "(gauges are pull-only probes and the profiler hooks block exits \
     only; digest-identical to the plain engine on both workloads — \
     asserted above)\n"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E15: the memory fast path — software TLB of direct page pointers     *)

let e15 () =
  section "E15"
    "memory fast path: software TLB with direct page pointers";
  let fuel = 1_000_000 in
  let tlb_cfg = Machine.default_config in
  let slow_cfg = { Machine.default_config with Machine.mem_tlb = false } in
  (* min-of-3 wall clock, as in E13 *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let t1 = once () in
    let t2 = once () in
    let t3 = once () in
    List.fold_left min t1 [ t2; t3 ]
  in
  (* Memory-heavy workloads only: stream (copy + checksum) and pchase
     (dependent loads) are load/store-dominated by construction; mix,
     dhrystone and sort interleave dense memory traffic with branches
     and ALU work.  The compute-bound kernels (matmul: mul-dominated;
     crc32: xor/shift chains) are measured by E13's general-throughput
     sweep instead — per Amdahl they dilute a memory-path experiment. *)
  let programs =
    [ Workloads.stream; Workloads.pchase; Workloads.mix;
      Workloads.dhrystone; Workloads.bubble_sort ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  Printf.printf
    "(excluded as compute-bound: matmul, crc32 — see E13 for those)\n";
  Printf.printf "%-10s %10s %9s %9s %8s %7s\n" "workload" "instrs"
    "tlb-off" "tlb-on" "tlb-hit%" "speedup";
  Printf.printf "%-10s %10s %9s %9s %8s %7s\n" "" "" "(MIPS)" "(MIPS)" "" "";
  let ratios =
    List.map
      (fun (name, p) ->
        (* correctness gate before timing: TLB on and off must be
           digest-identical on every engine *)
        let finish config =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          ignore (Machine.run m ~fuel);
          m
        in
        let m_ref = finish slow_cfg in
        let d_ref = Machine.state_digest ~include_time:true m_ref in
        List.iter
          (fun (ename, config) ->
            let m = finish config in
            if Machine.state_digest ~include_time:true m <> d_ref then
              failwith
                (Printf.sprintf "E15: %s digest mismatch on %s" ename name))
          [ ("tlb-on", tlb_cfg);
            ("tlb-on unchained",
             { tlb_cfg with Machine.chain_blocks = false });
            ("tlb-on generic-tb",
             { tlb_cfg with Machine.lower_blocks = false });
            ("tlb-on single-step",
             { tlb_cfg with Machine.use_tb_cache = false }) ];
        let n1 = Machine.instret m_ref in
        (* steady-state rep sizing, as in E13 *)
        let reps = max 1 (200_000 / max n1 1) in
        let run config () =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          ignore (Machine.run m ~fuel);
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel)
          done;
          m
        in
        let n =
          let m = Machine.create ~config:tlb_cfg () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          let tot = ref 0 in
          ignore (Machine.run m ~fuel);
          tot := !tot + Machine.instret m;
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel);
            tot := !tot + Machine.instret m
          done;
          !tot
        in
        let mips t = float_of_int n /. t /. 1e6 in
        let t_off = time (fun () -> ignore (run slow_cfg ())) in
        let t_on = time (fun () -> ignore (run tlb_cfg ())) in
        let m_on = run tlb_cfg () in
        let ts = S4e_mem.Bus.tlb_stats m_on.Machine.bus in
        let accesses = ts.S4e_mem.Bus.tlb_hits + ts.S4e_mem.Bus.tlb_misses in
        let hit_pct =
          if accesses = 0 then 0.0
          else pct (float_of_int ts.S4e_mem.Bus.tlb_hits
                    /. float_of_int accesses)
        in
        let speedup = t_off /. t_on in
        Printf.printf "%-10s %10d %9.2f %9.2f %7.1f%% %6.2fx\n" name n
          (mips t_off) (mips t_on) hit_pct speedup;
        record ~exp:"e15" ~name:(name ^ "/tlb-off-mips") ~value:(mips t_off)
          ~unit_:"MIPS";
        record ~exp:"e15" ~name:(name ^ "/tlb-on-mips") ~value:(mips t_on)
          ~unit_:"MIPS";
        record ~exp:"e15" ~name:(name ^ "/tlb-hit-rate") ~value:hit_pct
          ~unit_:"%";
        record ~exp:"e15" ~name:(name ^ "/speedup") ~value:speedup
          ~unit_:"ratio";
        speedup)
      programs
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios
         /. float_of_int (List.length ratios))
  in
  record ~exp:"e15" ~name:"geomean-speedup" ~value:geomean ~unit_:"ratio";
  Printf.printf
    "geomean speedup (software TLB over full bus routing): %.2fx\n" geomean;
  Printf.printf
    "(a TLB hit is a tag compare plus direct page-buffer access — no \
     device scan, no hash lookup, no allocation; digest-identical to \
     the TLB-off run on every engine — asserted above)\n"

(* ------------------------------------------------------------------ *)
(* E16: profile-guided superblock traces over the chained engine        *)

let e16 () =
  section "E16"
    "superblock traces: hot chained paths recompiled as guarded traces";
  let fuel = 2_000_000 in
  let on_cfg = Machine.default_config in
  let off_cfg = { Machine.default_config with Machine.superblocks = false } in
  (* min-of-3 wall clock, as in E13 *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let t1 = once () in
    let t2 = once () in
    let t3 = once () in
    List.fold_left min t1 [ t2; t3 ]
  in
  (* the compute/branchy suite: loop-dominated kernels whose hot paths
     chain (the trace layer's target); branchy is the adversarial case
     with biased condition ladders and side paths *)
  let programs =
    [ Workloads.branchy; Workloads.mix; Workloads.dhrystone;
      Workloads.bubble_sort; Workloads.matmul; Workloads.crc32 ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  Printf.printf "%-10s %10s %9s %9s %7s %7s %8s %7s %7s\n" "workload"
    "instrs" "sb-off" "sb-on" "traces" "traced%" "bail%" "ins/run" "speedup";
  Printf.printf "%-10s %10s %9s %9s %7s %7s %8s %7s %7s\n" "" "" "(MIPS)"
    "(MIPS)" "" "" "" "" "";
  let ratios =
    List.map
      (fun (name, p) ->
        (* correctness gate before timing: traces on must be
           digest-identical (cycles and mtime included) to every other
           engine configuration *)
        let finish config =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          ignore (Machine.run m ~fuel);
          m
        in
        let m_ref = finish on_cfg in
        let d_ref = Machine.state_digest ~include_time:true m_ref in
        List.iter
          (fun (ename, config) ->
            let m = finish config in
            if Machine.state_digest ~include_time:true m <> d_ref then
              failwith
                (Printf.sprintf "E16: %s digest mismatch on %s" ename name))
          [ ("sb-off", off_cfg);
            ("sb-off tlb-off", { off_cfg with Machine.mem_tlb = false });
            ("unchained", { off_cfg with Machine.chain_blocks = false });
            ("generic-tb", { off_cfg with Machine.lower_blocks = false });
            ("single-step", { off_cfg with Machine.use_tb_cache = false }) ];
        let n1 = Machine.instret m_ref in
        (* steady-state rep sizing, as in E13: reset keeps RAM and the
           warm TB cache — and with it the promoted traces *)
        let reps = max 1 (200_000 / max n1 1) in
        let run config () =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          ignore (Machine.run m ~fuel);
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel)
          done;
          m
        in
        let n =
          let m = Machine.create ~config:on_cfg () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          let tot = ref 0 in
          ignore (Machine.run m ~fuel);
          tot := !tot + Machine.instret m;
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel);
            tot := !tot + Machine.instret m
          done;
          !tot
        in
        let mips t = float_of_int n /. t /. 1e6 in
        let t_off = time (fun () -> ignore (run off_cfg ())) in
        let t_on = time (fun () -> ignore (run on_cfg ())) in
        (* trace behavior over the same rep sequence *)
        let m_on = run on_cfg () in
        let st = Option.get (Machine.trace_stats m_on) in
        let traced_pct =
          pct (float_of_int st.S4e_cpu.Superblock.sb_instrs
               /. float_of_int (max 1 n))
        in
        let bail_pct =
          pct
            (float_of_int
               (st.S4e_cpu.Superblock.sb_execs
               - st.S4e_cpu.Superblock.sb_completions)
            /. float_of_int (max 1 st.S4e_cpu.Superblock.sb_execs))
        in
        let per_run =
          float_of_int st.S4e_cpu.Superblock.sb_instrs
          /. float_of_int (max 1 st.S4e_cpu.Superblock.sb_execs)
        in
        let speedup = t_off /. t_on in
        Printf.printf
          "%-10s %10d %9.2f %9.2f %7d %6.1f%% %7.1f%% %7.1f %6.2fx\n" name n
          (mips t_off) (mips t_on) st.S4e_cpu.Superblock.sb_promotions
          traced_pct bail_pct per_run speedup;
        record ~exp:"e16" ~name:(name ^ "/sb-off-mips") ~value:(mips t_off)
          ~unit_:"MIPS";
        record ~exp:"e16" ~name:(name ^ "/sb-on-mips") ~value:(mips t_on)
          ~unit_:"MIPS";
        record ~exp:"e16" ~name:(name ^ "/traced-instr-share")
          ~value:traced_pct ~unit_:"%";
        record ~exp:"e16" ~name:(name ^ "/speedup") ~value:speedup
          ~unit_:"ratio";
        speedup)
      programs
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios
         /. float_of_int (List.length ratios))
  in
  record ~exp:"e16" ~name:"geomean-speedup" ~value:geomean ~unit_:"ratio";
  Printf.printf
    "geomean speedup (superblock traces over the chained engine): %.2fx\n"
    geomean;
  Printf.printf
    "(hot chain edges recompiled into guarded cross-block traces: fused \
     address constants and compare+branch pairs, batched accounting; \
     side exits restore exact architectural state — digest-identical \
     to every other engine, asserted above)\n"

(* ------------------------------------------------------------------ *)
(* E17: device-plane throughput — DMA bursts vs per-byte MMIO           *)

let e17 () =
  section "E17"
    "device plane: DMA-burst vs PIO throughput over the event wheel";
  let fuel = 10_000_000 in
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let t1 = once () in
    let t2 = once () in
    let t3 = once () in
    List.fold_left min t1 [ t2; t3 ]
  in
  let on_cfg = Machine.default_config in
  (* the I/O workloads: identical 32 KiB payload moved as 8 DMA bursts
     (interrupt-driven) vs 32768 per-byte RXDATA reads, plus the vnet
     rx driver as the mixed ring-service case *)
  let programs =
    [ (Workloads.dma_irq, 32768); (Workloads.mmio_copy, 32768);
      (Workloads.vnet_rx, 64 * 192) ]
    |> List.map (fun (w, bytes) ->
           Workloads.validate w;
           (w.Workloads.w_name, Workloads.program w, bytes))
  in
  Printf.printf "%-10s %9s %8s %9s %10s %8s %9s\n" "workload" "instrs"
    "(MIPS)" "payload" "MB/s" "wheel" "idle-skip";
  let rates =
    List.map
      (fun (name, p, bytes) ->
        (* correctness gate before timing: the device plane must be
           digest-identical (cycles and mtime included) on every
           engine configuration *)
        let finish config =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          ignore (Machine.run m ~fuel);
          m
        in
        let m_ref = finish on_cfg in
        let d_ref = Machine.state_digest ~include_time:true m_ref in
        let off_cfg = { on_cfg with Machine.superblocks = false } in
        List.iter
          (fun (ename, config) ->
            let m = finish config in
            if Machine.state_digest ~include_time:true m <> d_ref then
              failwith
                (Printf.sprintf "E17: %s digest mismatch on %s" ename name))
          [ ("sb-off", off_cfg);
            ("sb-off tlb-off", { off_cfg with Machine.mem_tlb = false });
            ("unchained", { off_cfg with Machine.chain_blocks = false });
            ("generic-tb", { off_cfg with Machine.lower_blocks = false });
            ("single-step", { off_cfg with Machine.use_tb_cache = false }) ];
        let n1 = Machine.instret m_ref in
        let reps = max 1 (400_000 / max n1 1) in
        let run () =
          let m = Machine.create ~config:on_cfg () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          ignore (Machine.run m ~fuel);
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel)
          done;
          m
        in
        let t = time (fun () -> ignore (run ())) in
        let m = run () in
        let ws = S4e_soc.Event_wheel.stats m.Machine.wheel in
        let n = n1 * reps in
        let mips = float_of_int n /. t /. 1e6 in
        let rate = float_of_int (bytes * reps) /. t in
        Printf.printf "%-10s %9d %8.2f %8dB %10.2f %8d %9d\n" name n1 mips
          bytes (rate /. 1e6) ws.S4e_soc.Event_wheel.ws_fired
          ws.S4e_soc.Event_wheel.ws_idle_skips;
        record ~exp:"e17" ~name:(name ^ "/mips") ~value:mips ~unit_:"MIPS";
        record ~exp:"e17" ~name:(name ^ "/throughput") ~value:rate
          ~unit_:"B/s";
        (name, rate))
      programs
  in
  let rate_of n = List.assoc n rates in
  let ratio = rate_of "dma_irq" /. rate_of "mmio_copy" in
  record ~exp:"e17" ~name:"dma-vs-pio-ratio" ~value:ratio ~unit_:"ratio";
  Printf.printf "DMA-burst throughput over per-byte MMIO: %.1fx\n" ratio;
  if ratio < 10.0 then
    failwith
      (Printf.sprintf "E17: DMA/PIO throughput ratio %.1fx below 10x" ratio);
  (* compute guard: attaching the device plane (two extra devices, the
     wheel consulted at every block exit) must not tax pure compute —
     the E16 suite with the plane on vs off *)
  let compute =
    [ Workloads.branchy; Workloads.mix; Workloads.dhrystone;
      Workloads.bubble_sort; Workloads.matmul; Workloads.crc32 ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  let off_cfg = { on_cfg with Machine.device_plane = false } in
  let ratios =
    List.map
      (fun (name, p) ->
        let m0 = Machine.create ~config:on_cfg () in
        S4e_asm.Program.load_machine p m0;
        ignore (Machine.run m0 ~fuel);
        let n1 = Machine.instret m0 in
        (* larger sample than the throughput table: the guard compares
           two runs that should differ by under 2%, so each measurement
           must sit well above timer/scheduler noise *)
        let reps = max 2 (2_000_000 / max n1 1) in
        let run config () =
          let m = Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
          ignore (Machine.run m ~fuel);
          for _ = 2 to reps do
            Machine.reset m ~pc:entry;
            ignore (Machine.run m ~fuel)
          done
        in
        (* best-of-3 per arm, samples interleaved: the two runs differ
           by under 2% when the host is quiet, so a single 40ms sample
           grazing a scheduler hiccup — or a host-speed drift between
           the off block and the on block — can swing the ratio past
           the 10% hard gate below *)
        let t_off = ref infinity and t_on = ref infinity in
        for _ = 1 to 3 do
          t_off := Float.min !t_off (time (run off_cfg));
          t_on := Float.min !t_on (time (run on_cfg))
        done;
        let r = !t_off /. !t_on in
        record ~exp:"e17" ~name:(name ^ "/devplane-mips-ratio") ~value:r
          ~unit_:"ratio";
        r)
      compute
  in
  let geomean =
    exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios
         /. float_of_int (List.length ratios))
  in
  record ~exp:"e17" ~name:"compute-guard-geomean" ~value:geomean
    ~unit_:"ratio";
  Printf.printf
    "compute guard: device plane on/off geomean MIPS ratio %.3f \
     (1.0 = free; target >= 0.98 on a quiet machine)\n" geomean;
  (* hard gate only on gross regression: sub-0.9 cannot be explained by
     host timing noise and means the idle wheel leaked into the hot
     path; the precise <=2% target is judged from the recorded metric
     on a quiet machine *)
  if geomean < 0.90 then
    failwith
      (Printf.sprintf
         "E17: device plane costs %.1f%% on pure compute (budget 10%%)"
         ((1.0 -. geomean) *. 100.0));
  Printf.printf
    "(one next-deadline compare per block exit when idle; DMA bursts \
     move pages with host memcpy and invalidate translation blocks \
     only in the written range — digest-identical on every engine, \
     asserted above)\n"

(* ------------------------------------------------------------------ *)
(* E18: flight-recorder overhead and inertness                          *)

let e18 () =
  section "E18"
    "flight recorder: armed overhead, unarmed fast path, inertness gate";
  let module Obs = S4e_obs in
  let fuel = 1_000_000 in
  let cfg = Machine.default_config in
  (* min-of-5 wall clock, as in E14: the unarmed delta in particular is
     a single pointer test per lowered µop *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let best = ref (once ()) in
    for _ = 2 to 5 do
      best := min !best (once ())
    done;
    !best
  in
  let programs =
    [ Workloads.mix; Workloads.dhrystone ]
    |> List.map (fun w -> (w.Workloads.w_name, Workloads.program w))
  in
  Printf.printf "%-10s %9s %9s %10s\n" "workload" "plain" "recorded"
    "recorded";
  Printf.printf "%-10s %9s %9s %10s\n" "" "(MIPS)" "(MIPS)" "(overhd)";
  List.iter
    (fun (name, p) ->
      let n1 =
        let m = Machine.create ~config:cfg () in
        S4e_asm.Program.load_machine p m;
        ignore (Machine.run m ~fuel);
        Machine.instret m
      in
      let reps = max 1 (200_000 / max n1 1) in
      let run instrument () =
        let m = Machine.create ~config:cfg () in
        instrument m;
        S4e_asm.Program.load_machine p m;
        let entry = (Machine.state m).S4e_cpu.Arch_state.pc in
        ignore (Machine.run m ~fuel);
        for _ = 2 to reps do
          Machine.reset m ~pc:entry;
          ignore (Machine.run m ~fuel)
        done;
        m
      in
      let n = reps * n1 in
      let mips t = float_of_int n /. t /. 1e6 in
      let with_recorder m =
        Machine.set_recorder m (Some (Obs.Flight_recorder.create ()))
      in
      (* hard inertness gate: an armed recorder must be digest-identical
         to the plain run (stop reason and counters are covered by the
         differential tests; the digest covers the architectural state) *)
      let d_plain =
        Machine.state_digest ~include_time:true (run ignore ())
      in
      let m_rec = run with_recorder () in
      if Machine.state_digest ~include_time:true m_rec <> d_plain then
        failwith
          (Printf.sprintf "E18: recorder digest mismatch on %s" name);
      (match Machine.recorder m_rec with
      | Some r when Obs.Flight_recorder.length r > 0 -> ()
      | _ -> failwith "E18: armed recorder captured nothing");
      let tp = time (fun () -> ignore (run ignore ())) in
      let tr = time (fun () -> ignore (run with_recorder ())) in
      let ovh = pct ((tr /. tp) -. 1.0) in
      Printf.printf "%-10s %9.2f %9.2f %9.1f%%\n" name (mips tp) (mips tr)
        ovh;
      record ~exp:"e18" ~name:(name ^ "/plain-mips") ~value:(mips tp)
        ~unit_:"MIPS";
      record ~exp:"e18" ~name:(name ^ "/recorded-mips") ~value:(mips tr)
        ~unit_:"MIPS";
      record ~exp:"e18" ~name:(name ^ "/record-overhead") ~value:ovh
        ~unit_:"%")
    programs;
  Printf.printf
    "(unarmed runs pay one recorder-pointer test per lowered µop — \
     the plain column IS the unarmed fast path, gated against E13's \
     baseline by trend tracking; armed runs leave the superblock path \
     and capture pc/opcode/writeback/effective-address per retire, \
     digest-identical — asserted above)\n"

(* ------------------------------------------------------------------ *)
(* E19: SMP machine — determinism gates and scaling                     *)

let e19 () =
  section "E19"
    "SMP: single-hart no-regression, cross-engine/cross-slice digests, \
     scaling";
  let module Smp = S4e_torture.Smp in
  let module Torture = S4e_torture.Torture in
  let sb_off c = { c with Machine.superblocks = false } in
  let engines =
    [ ("lowered", sb_off Machine.default_config);
      ("unchained", sb_off { Machine.default_config with
                             Machine.chain_blocks = false });
      ("generic-tb", sb_off { Machine.default_config with
                              Machine.lower_blocks = false });
      ("single-step", sb_off { Machine.default_config with
                               Machine.use_tb_cache = false });
      ("tlb-off", sb_off { Machine.default_config with
                           Machine.mem_tlb = false });
      ("superblocks", Machine.default_config) ]
  in
  let digest_of ?(include_time = true) ?(include_instret = true) config p
      ~fuel =
    let m = Machine.create ~config () in
    S4e_asm.Program.load_machine p m;
    (match Machine.run m ~fuel with
    | Machine.Exited _ -> ()
    | stop ->
        failwith
          (Format.asprintf "E19: unexpected stop: %a" Machine.pp_stop_reason
             stop));
    ( Digest.to_hex (Machine.state_digest ~include_time ~include_instret m),
      Machine.instret m )
  in
  (* 1. single-hart anchor: a fixed torture program's full digest must
     agree across every engine AND match the value recorded when the
     multi-hart machine was introduced — the SMP machinery (per-hart
     contexts, scheduler, PLIC) must be invisible at harts = 1.  The
     anchor pins the serialized byte stream, so accidental format or
     semantics drift fails here even if all engines drift together. *)
  let golden = "eec064a6561fdec58438cc2bf2bc983b" in
  let anchor_cfg = Torture.default_config in
  let anchor = Torture.generate anchor_cfg in
  let anchor_fuel = Torture.fuel_bound anchor_cfg in
  List.iter
    (fun (name, config) ->
      let d, _ = digest_of config anchor ~fuel:anchor_fuel in
      if d <> golden then
        failwith
          (Printf.sprintf "E19: single-hart digest drift on %s: %s <> %s"
             name d golden))
    engines;
  Printf.printf "single-hart anchor: %s on all %d engines\n" golden
    (List.length engines);
  (* 2. SMP digest gates at 2 and 4 harts: every engine agrees on the
     full digest at the default slice, and the digest is invariant
     under the scheduler's slice size (full digest for the IPI ring,
     time/instret-masked for the spinlock, whose spin counts legitimately
     depend on the interleaving). *)
  let slices = [ 64; 256; 1024; 4096 ] in
  List.iter
    (fun harts ->
      let fuel = Smp.fuel ~harts ~rounds:8 in
      List.iter
        (fun (wname, p) ->
          let with_harts ?(slice = 1024) config =
            { config with Machine.harts; Machine.hart_slice = slice }
          in
          let reference, _ =
            digest_of (with_harts (snd (List.hd engines))) p ~fuel
          in
          List.iter
            (fun (name, config) ->
              let d, _ = digest_of (with_harts config) p ~fuel in
              if d <> reference then
                failwith
                  (Printf.sprintf "E19: %s@%d harts: engine %s diverges"
                     wname harts name))
            (List.tl engines);
          let relaxed = String.length wname >= 8
                        && String.sub wname 0 8 = "smp-spin" in
          let rd slice =
            let d, _ =
              digest_of
                ~include_time:(not relaxed) ~include_instret:(not relaxed)
                (with_harts ~slice Machine.default_config) p ~fuel
            in
            d
          in
          let r0 = rd (List.hd slices) in
          List.iter
            (fun slice ->
              if rd slice <> r0 then
                failwith
                  (Printf.sprintf "E19: %s@%d harts: slice %d diverges"
                     wname harts slice))
            (List.tl slices);
          Printf.printf
            "%-18s %d harts: engine-invariant, slice-invariant%s\n" wname
            harts (if relaxed then " (time/instret masked)" else ""))
        (Smp.suite ~harts ~rounds:8))
    [ 2; 4 ];
  (* 3. scaling: aggregate simulated MIPS of the spinlock workload as
     hart count grows (the host is one thread; this measures scheduler
     and coherence overhead, not parallel speedup) *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let best = ref (once ()) in
    for _ = 2 to 5 do
      best := min !best (once ())
    done;
    !best
  in
  Printf.printf "%-10s %12s %10s\n" "harts" "instructions" "MIPS";
  List.iter
    (fun harts ->
      let rounds = 256 in
      let _, p = Smp.spinlock ~harts ~rounds in
      let fuel = Smp.fuel ~harts ~rounds in
      let config =
        { Machine.default_config with Machine.harts }
      in
      let run () =
        let m = Machine.create ~config () in
        S4e_asm.Program.load_machine p m;
        (match Machine.run m ~fuel with
        | Machine.Exited 0 -> ()
        | stop ->
            failwith
              (Format.asprintf "E19: scaling run stopped: %a"
                 Machine.pp_stop_reason stop));
        Machine.instret m
      in
      let n = run () in
      let t = time (fun () -> ignore (run ())) in
      let mips = float_of_int n /. t /. 1e6 in
      Printf.printf "%-10d %12d %10.2f\n" harts n mips;
      record ~exp:"e19"
        ~name:(Printf.sprintf "spinlock-%d-harts/mips" harts) ~value:mips
        ~unit_:"MIPS")
    [ 1; 2; 4 ];
  Printf.printf
    "(deterministic round-robin over fuel slices; stores invalidate \
     translated code on every hart and break other harts' reservations; \
     digests gated above)\n"

(* ------------------------------------------------------------------ *)
(* E20: campaign fleet scale-out                                        *)

let e20 () =
  section "E20" "campaign fleet: shard-leasing workers vs one process";
  let module F = S4e_fleet in
  let module J = S4e_obs.Json in
  let module Fault = S4e_fault.Fault in
  let module Campaign = S4e_fault.Campaign in
  let module Journal = S4e_fault.Journal in
  let src =
    {|
_start:
  li   a0, 0
  li   a1, 1
  li   a2, 30000
l:
  add  a0, a0, a1
  xor  a3, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let mutants = 400 and fuel = 600_000 and shards = 8 in
  let seeds = [ 1; 2 ] in
  let cfg seed =
    { Flows.default_fault_config with
      Flows.ff_seed = seed; ff_mutants = mutants; ff_fuel = fuel;
      ff_hang_budget = Flows.Hang_fuel;
      ff_engine = S4e_fault.Campaign.rerun_engine }
  in
  (* single-process references: one campaign per job, run back to back
     (that is what the fleet's 1-worker configuration competes with) *)
  let t0 = Unix.gettimeofday () in
  let refs = List.map (fun seed -> (seed, Result.get_ok (Flows.fault_campaign (cfg seed) p))) seeds in
  let t_ref = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (seed, r) ->
      Printf.printf "reference seed %d: %s\n" seed
        (Format.asprintf "%a" Campaign.pp_summary r.Flows.ff_summary))
    refs;
  (* one fleet run: in-process orchestrator on an ephemeral loopback
     port, [workers] domains each running the real pull loop over real
     sockets, both jobs submitted up front, workers drain and exit *)
  let run_fleet ~workers =
    let dir = Filename.temp_file "s4e-e20" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let server = F.Server.create ~journal_dir:dir () in
    match F.Server.start server (F.Http.Tcp ("127.0.0.1", 0)) with
    | Error e -> failwith ("E20: " ^ e)
    | Ok addr ->
        let ctl = F.Client.create addr in
        let submit seed =
          let spec =
            J.Obj
              [ ("program", J.String "e20-checksum"); ("mutants", J.Int mutants);
                ("seed", J.Int seed); ("fuel", J.Int fuel);
                ("engine", J.String "rerun"); ("shards", J.Int shards) ]
          in
          match
            F.Client.request ctl ~meth:"POST" ~path:"/api/jobs" ~body:spec ()
          with
          | Ok (200, reply) -> (
              match J.mem_str "job" reply with
              | Some id -> (seed, id)
              | None -> failwith "E20: submit reply without a job id")
          | Ok (s, r) ->
              failwith
                (Printf.sprintf "E20: submit HTTP %d: %s" s (J.to_string r))
          | Error e -> failwith ("E20: submit: " ^ e)
        in
        (* the bench runner closes over the assembled program; the spec
           carries the campaign shape exactly as [s4e submit] ships it *)
        let runner ~spec ~shard ~resume ~emit ~cancelled =
          let seed = Option.value (J.mem_int "seed" spec) ~default:1 in
          let resume_path =
            Option.map
              (fun (header, lines) ->
                let tmp = Filename.temp_file "s4e-e20-resume" ".jsonl" in
                let oc = open_out_bin tmp in
                List.iter
                  (fun l ->
                    output_string oc l;
                    output_char oc '\n')
                  (header :: lines);
                close_out oc;
                tmp)
              resume
          in
          let result =
            Flows.fault_campaign ~jobs:1 ?resume:resume_path ~shard
              ~on_journal_line:emit ~cancelled (cfg seed) p
          in
          Option.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            resume_path;
          match result with
          | Error e -> Error e
          | Ok r when r.Flows.ff_complete -> Ok ()
          | Ok _ -> Error "cancelled before the shard finished"
        in
        let t0 = Unix.gettimeofday () in
        let jobs = List.map submit seeds in
        let fleet =
          List.init workers (fun i ->
              Domain.spawn (fun () ->
                  let client = F.Client.create addr in
                  let r =
                    F.Worker.run
                      ~name:(Printf.sprintf "w%d" i)
                      ~poll_s:0.05 ~drain:true ~client ~runner ()
                  in
                  F.Client.close client;
                  r))
        in
        List.iter
          (fun d ->
            match Domain.join d with
            | Error e -> failwith ("E20: worker: " ^ e)
            | Ok o ->
                if o.F.Worker.o_shards_failed > 0 then
                  failwith
                    (Printf.sprintf "E20: %d shard(s) failed"
                       o.F.Worker.o_shards_failed))
          fleet;
        let dt = Unix.gettimeofday () -. t0 in
        (* determinism gate (always hard): each job's merged journal
           must reproduce the single-process campaign exactly - same
           summary line, same (index, fault, outcome) multiset *)
        List.iter
          (fun (seed, job) ->
            (match
               F.Client.request ctl ~meth:"GET" ~path:("/api/jobs/" ^ job) ()
             with
            | Ok (200, st) when J.mem_str "state" st = Some "done" -> ()
            | Ok (_, st) ->
                failwith
                  (Printf.sprintf "E20: job %s not done: %s" job
                     (J.to_string st))
            | Error e -> failwith ("E20: status: " ^ e));
            let reference = List.assoc seed refs in
            match Journal.read (Filename.concat dir (job ^ ".jsonl")) with
            | Error e -> failwith ("E20: merged journal: " ^ e)
            | Ok (h, records) ->
                if not (Journal.is_complete h records) then
                  failwith (Printf.sprintf "E20: job %s journal incomplete" job);
                let got_summary =
                  Campaign.summarize
                    (List.map
                       (fun r -> (r.Journal.r_fault, r.Journal.r_outcome))
                       records)
                in
                let show s = Format.asprintf "%a" Campaign.pp_summary s in
                if show got_summary <> show reference.Flows.ff_summary then
                  failwith
                    (Printf.sprintf "E20: summary diverges: %s <> %s"
                       (show got_summary)
                       (show reference.Flows.ff_summary));
                let key (i, f, o) =
                  (i, Fault.to_string f, Campaign.outcome_name o)
                in
                let got =
                  List.sort compare
                    (List.map
                       (fun r ->
                         key (r.Journal.r_index, r.Journal.r_fault,
                              r.Journal.r_outcome))
                       records)
                in
                let want =
                  List.sort compare (List.map key reference.Flows.ff_indexed)
                in
                if got <> want then
                  failwith
                    (Printf.sprintf "E20: job %s records diverge from the \
                                     unsharded campaign" job))
          jobs;
        F.Client.close ctl;
        F.Server.stop server;
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
        (try Unix.rmdir dir with Unix.Unix_error _ -> ());
        dt
  in
  let t1 = run_fleet ~workers:1 in
  let t4 = run_fleet ~workers:4 in
  let speedup = t1 /. t4 in
  let cores = Domain.recommended_domain_count () in
  let total = float_of_int (mutants * List.length seeds) in
  Printf.printf "%-28s %10s %12s\n" "configuration" "wall (s)" "mutants/s";
  Printf.printf "%-28s %10.2f %12.1f\n" "single process (reference)" t_ref
    (total /. t_ref);
  Printf.printf "%-28s %10.2f %12.1f\n" "fleet, 1 worker" t1 (total /. t1);
  Printf.printf "%-28s %10.2f %12.1f\n" "fleet, 4 workers" t4 (total /. t4);
  Printf.printf
    "4-worker speedup: %.2fx over 1 worker (%d cores%s); merged summaries \
     and record sets byte-equal to the references\n"
    speedup cores
    (if cores >= 4 then "" else "; scaling gate skipped below 4 cores");
  record ~exp:"e20" ~name:"single-process/s" ~value:t_ref ~unit_:"s";
  record ~exp:"e20" ~name:"fleet-1-worker/s" ~value:t1 ~unit_:"s";
  record ~exp:"e20" ~name:"fleet-4-workers/s" ~value:t4 ~unit_:"s";
  record ~exp:"e20" ~name:"fleet-1-worker/mutants-per-s" ~value:(total /. t1)
    ~unit_:"mutants/s";
  record ~exp:"e20" ~name:"fleet-4-workers/mutants-per-s" ~value:(total /. t4)
    ~unit_:"mutants/s";
  record ~exp:"e20" ~name:"4-worker-speedup" ~value:speedup ~unit_:"ratio";
  if cores >= 4 && speedup < 3.0 then
    failwith
      (Printf.sprintf
         "E20: 4 workers only %.2fx faster than 1 on a %d-core host" speedup
         cores)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20) ]

let () =
  let rec parse json names = function
    | [] -> (json, List.rev names)
    | "--json" :: path :: rest -> parse (Some path) names rest
    | a :: rest -> parse json (a :: names) rest
  in
  let json_out, requested =
    parse None [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match requested with [] -> List.map fst experiments | l -> l
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    requested;
  Option.iter write_json json_out;
  Printf.printf "\n%s\nall requested experiments completed\n" line
