(* Fault injection tests: injector mechanics, campaign classification,
   coverage-guided generation, and determinism. *)

module Machine = S4e_cpu.Machine
module Fault = S4e_fault.Fault
module Injector = S4e_fault.Injector
module Campaign = S4e_fault.Campaign

let prop ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let checksum_src = {|
_start:
  li   a0, 0
  li   a1, 1
  li   a2, 20
l:
  add  a0, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let program () = S4e_asm.Assembler.assemble_exn checksum_src

let test_golden_signature () =
  let sg, cov = Campaign.golden ~fuel:10_000 (program ()) in
  Alcotest.(check (option int)) "exit is sum 1..19" (Some 190)
    sg.Campaign.sig_exit;
  Alcotest.(check bool) "instret recorded" true (sg.Campaign.sig_instret > 30);
  Alcotest.(check bool) "coverage collected" true
    (S4e_coverage.Report.executed_count cov > 0)

let test_code_flip_changes_memory () =
  let m = Machine.create () in
  S4e_asm.Program.load_machine (program ()) m;
  let before = S4e_mem.Sparse_mem.read32 (S4e_mem.Bus.ram m.Machine.bus) 0x8000_0000 in
  let _ = Injector.arm m { Fault.loc = Fault.Code (0x8000_0000, 5); kind = Fault.Permanent } in
  let after = S4e_mem.Sparse_mem.read32 (S4e_mem.Bus.ram m.Machine.bus) 0x8000_0000 in
  Alcotest.(check int) "exactly one bit flipped" (1 lsl 5) (before lxor after)

let test_transient_gpr_flip () =
  (* flip bit 0 of the accumulator a0 exactly once -> off-by-one sdc *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let fault =
    { Fault.loc = Fault.Gpr (10, 0); kind = Fault.Transient 20 }
  in
  let outcome = Campaign.run_one ~fuel:10_000 p ~golden fault in
  Alcotest.(check string) "classified sdc" "sdc" (Campaign.outcome_name outcome)

let test_x0_fault_masked () =
  (* x0 is hardwired: injecting into it must always be masked *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  List.iter
    (fun kind ->
      let outcome =
        Campaign.run_one ~fuel:10_000 p ~golden
          { Fault.loc = Fault.Gpr (0, 7); kind }
      in
      Alcotest.(check string) "masked" "masked" (Campaign.outcome_name outcome))
    [ Fault.Permanent; Fault.Transient 5 ]

let test_unused_register_masked () =
  (* s5 is never touched by the program: any fault there is masked *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (21, 13); kind = Fault.Permanent }
  in
  Alcotest.(check string) "masked" "masked" (Campaign.outcome_name outcome)

let test_opcode_corruption_crashes () =
  (* flipping a high opcode bit of the first instruction usually makes
     an illegal/strange instruction; flip into the unused encoding *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  (* turn addi (0x13) into an undefined opcode by flipping bit 2 -> 0x17?
     that is auipc.  Use bit 6 -> 0x53 = OP-FP funct7=0 rm... decodes.
     Flip bit 3: 0x13 -> 0x1B which is RV64 OP-IMM-32: undecodable. *)
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Code (0x8000_0000, 3); kind = Fault.Permanent }
  in
  Alcotest.(check string) "crashed" "crashed" (Campaign.outcome_name outcome)

let test_branch_corruption_can_hang () =
  (* flip the branch polarity bit: bne <-> beq style changes can spin *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   a0, 0
  li   a1, 5
l:
  addi a0, a0, 1
  bne  a0, a1, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  (* corrupt the bound register so the equality is never met *)
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (11, 31); kind = Fault.Permanent }
  in
  Alcotest.(check string) "hung" "hung" (Campaign.outcome_name outcome)

let test_unexecuted_code_fault_masked () =
  (* a flip in code past the exit store is never fetched *)
  let p =
    S4e_asm.Assembler.assemble_exn {|
_start:
  li   a0, 9
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
dead:
  addi a0, a0, 1
|}
  in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let dead = Option.get (S4e_asm.Program.symbol p "dead") in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Code (dead, 11); kind = Fault.Permanent }
  in
  Alcotest.(check string) "dead code fault masked" "masked"
    (Campaign.outcome_name outcome)

let test_untouched_data_fault_masked () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Data (0x8005_0000, 3); kind = Fault.Permanent }
  in
  Alcotest.(check string) "untouched data fault masked" "masked"
    (Campaign.outcome_name outcome)

let test_late_transient_masked () =
  (* a transient scheduled after the program exits never fires *)
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let outcome =
    Campaign.run_one ~fuel:10_000 p ~golden
      { Fault.loc = Fault.Gpr (10, 0);
        kind = Fault.Transient (golden.Campaign.sig_instret + 100) }
  in
  Alcotest.(check string) "late transient masked" "masked"
    (Campaign.outcome_name outcome)

let test_generation_determinism () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let gen () =
    Campaign.generate ~seed:99 ~n:50 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check bool) "same seed, same faults" true (gen () = gen ());
  let other =
    Campaign.generate ~seed:100 ~n:50 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check bool) "different seed differs" true (gen () <> other)

let test_guided_sites_are_covered () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate ~seed:5 ~n:100 ~targets:[ `Gpr; `Code ]
      ~kinds:[ `Permanent ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  List.iter
    (fun f ->
      match f.Fault.loc with
      | Fault.Gpr (r, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "reg %d accessed" r)
            true
            (cov.S4e_coverage.Report.gpr_read.(r)
            || cov.S4e_coverage.Report.gpr_written.(r))
      | Fault.Code (a, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "pc 0x%08x executed" a)
            true
            (Hashtbl.mem cov.S4e_coverage.Report.executed_pcs a)
      | Fault.Fpr _ | Fault.Data _ -> Alcotest.fail "unexpected target")
    faults

let test_campaign_summary_adds_up () =
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate ~seed:3 ~n:40 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  let results = Campaign.run ~fuel:10_000 p ~golden faults in
  let s = Campaign.summarize results in
  Alcotest.(check int) "total" 40 s.Campaign.total;
  Alcotest.(check int) "classes partition" s.Campaign.total
    (s.Campaign.masked + s.Campaign.sdc + s.Campaign.crashed + s.Campaign.hung
    + s.Campaign.errors)

let campaign_determinism =
  prop ~count:5 "campaign outcome deterministic" (QCheck.int_bound 1000)
    (fun seed ->
      let p = program () in
      let golden, cov = Campaign.golden ~fuel:10_000 p in
      let faults =
        Campaign.generate ~seed ~n:15 ~targets:[ `Gpr; `Code; `Data ]
          ~kinds:[ `Permanent; `Transient ] ~coverage:cov
          ~golden_instret:golden.Campaign.sig_instret
      in
      let r1 = Campaign.run ~fuel:10_000 p ~golden faults in
      let r2 = Campaign.run ~fuel:10_000 p ~golden faults in
      r1 = r2)

let test_generation_regression () =
  (* Exact expected fault list for a pinned seed: fails if pool
     derivation, rng consumption order, or site sorting ever changes
     silently.  Regenerate with Campaign.generate ~seed:42 ~n:6 on the
     checksum program if the change is intentional. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  Alcotest.(check int) "golden instret" 63 golden.Campaign.sig_instret;
  let faults =
    Campaign.generate ~seed:42 ~n:6 ~targets:[ `Gpr; `Code; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  let expected =
    [ { Fault.loc = Fault.Gpr (10, 24); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (10, 31); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (6, 2); kind = Fault.Transient 43 };
      { Fault.loc = Fault.Gpr (12, 27); kind = Fault.Transient 37 };
      { Fault.loc = Fault.Gpr (10, 19); kind = Fault.Permanent };
      { Fault.loc = Fault.Gpr (6, 11); kind = Fault.Transient 15 } ]
  in
  Alcotest.(check bool) "exact fault list" true (faults = expected)

(* A longer workload than the checksum loop so engine shortcuts
   (forking, early exit) have room to act. *)
let engine_src = {|
_start:
  li   s0, 0
  li   s1, 0
  li   s2, 120
  li   s3, 0x80001000
outer:
  li   t0, 0
  li   t1, 13
inner:
  mul  t2, t0, s1
  add  s0, s0, t2
  xor  s0, s0, t0
  sw   s0, 0(s3)
  lw   t3, 0(s3)
  add  s0, s0, t3
  addi t0, t0, 1
  blt  t0, t1, inner
  addi s1, s1, 1
  blt  s1, s2, outer
  andi a0, s0, 0xff
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let engine_campaign ?config ?engine ?jobs () =
  let p = S4e_asm.Assembler.assemble_exn engine_src in
  let golden, cov = Campaign.golden ?config ~fuel:100_000 p in
  let faults =
    Campaign.generate ~seed:11 ~n:200 ~targets:[ `Gpr; `Data ]
      ~kinds:[ `Permanent; `Transient ] ~coverage:cov
      ~golden_instret:golden.Campaign.sig_instret
  in
  Campaign.run ?config ?engine ?jobs ~fuel:100_000 p ~golden faults

let test_jobs_deterministic () =
  (* acceptance: a 200-fault campaign at -j 4 is byte-identical to the
     sequential run, including fault order *)
  let seq = engine_campaign ~jobs:1 () in
  let par = engine_campaign ~jobs:4 () in
  Alcotest.(check bool) "jobs=4 identical to jobs=1" true (seq = par);
  Alcotest.(check bool) "summaries equal" true
    (Campaign.summarize seq = Campaign.summarize par)

let test_engine_matches_rerun () =
  (* With per-instruction decode (no TB cache) the engine's snapshot
     seams cannot shift translation-block boundaries, so fork + early
     exit must reproduce the naive rerun classification exactly. *)
  let config =
    { Machine.default_config with Machine.use_tb_cache = false }
  in
  let fast = engine_campaign ~config ~engine:Campaign.default_engine () in
  let naive = engine_campaign ~config ~engine:Campaign.rerun_engine () in
  Alcotest.(check bool) "engine = naive rerun" true (fast = naive);
  let s = Campaign.summarize fast in
  Alcotest.(check int) "all faults classified" 200 s.Campaign.total

let test_engine_axes_agree () =
  (* every axis combination classifies identically on the default
     config for register/data faults *)
  let base = engine_campaign ~engine:Campaign.rerun_engine () in
  List.iter
    (fun engine ->
      Alcotest.(check bool) "axis combination agrees" true
        (engine_campaign ~engine () = base))
    [ Campaign.default_engine;
      { Campaign.default_engine with Campaign.eng_fork = false };
      { Campaign.default_engine with Campaign.eng_checkpoint = 0 };
      { Campaign.default_engine with Campaign.eng_checkpoint = 256 } ]

let test_midblock_code_flip_visibility () =
  (* A transient code flip landing just AHEAD of the pc inside the
     currently-executing translation block: every path must segment the
     run at the injection instant, so the next fetch decodes the
     flipped word.  A continuous hooked run would ride the stale
     pre-decoded block to its end and miss the flip entirely —
     classifying Masked where the engine's forked suffix (which
     resumes, and re-decodes, at the injection point) sees Sdc. *)
  let src = {|
_start:
  li   t2, 5
  li   a0, 0
warm:
  addi t2, t2, -1
  bnez t2, warm
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  addi a0, a0, 1
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}
  in
  let p = S4e_asm.Assembler.assemble_exn src in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  Alcotest.(check (option int)) "golden exit" (Some 5) golden.Campaign.sig_exit;
  (* straight-line block entered at instret 13 (after the warm loop);
     flip bit 21 of the addi at 0x8000001c (imm 1 -> 3, instret 16)
     at instret 14 — two slots ahead of the pc, same block *)
  let fault =
    { Fault.loc = Fault.Code (0x8000001c, 21); kind = Fault.Transient 14 }
  in
  Alcotest.(check string) "run_one sees the flip" "sdc"
    (Campaign.outcome_name (Campaign.run_one ~fuel:10_000 p ~golden fault));
  List.iter
    (fun (name, engine) ->
      match Campaign.run ~engine ~fuel:10_000 p ~golden [ fault ] with
      | [ (_, o) ] ->
          Alcotest.(check string) (name ^ " sees the flip") "sdc"
            (Campaign.outcome_name o)
      | _ -> Alcotest.fail (name ^ ": expected one classified mutant"))
    [ ("engine", Campaign.default_engine); ("rerun", Campaign.rerun_engine) ]

(* ---------------- warm forks ---------------- *)

(* A campaign restores one snapshot for mutant after mutant and keeps
   every translation whose bytes the restore leaves unchanged, so each
   mutant starts on the blocks, links and traces the previous ones
   left.  That must be invisible: every mutant classifies exactly as a
   fresh machine from reset ([Campaign.run_one]) does.  Three programs
   stress the lifetime rule — a dhrystone-like target; one whose data
   shares a 256-byte translation page with its code; and one that
   rewrites an instruction in its loop (so a restore must kill the
   rewritten block) and reads a routine's instruction word as data (so
   a data flip lands on warm, translated code). *)
let dhry_src = {|
_start:
  li   s0, 0
  li   s1, 12
  li   s5, 0
loop:
  la   a0, src_str
  la   a1, dst_str
  li   a2, 16
  call str_copy
  la   a0, dst_str
  la   a1, ref_str
  li   a2, 16
  call str_cmp
  add  s5, s5, a0
  mv   a0, s0
  call int_mix
  add  s5, s5, a0
  la   a3, arr
  andi a4, s0, 15
  slli a4, a4, 2
  add  a3, a3, a4
  lw   a5, 0(a3)
  add  a5, a5, s5
  sw   a5, 0(a3)
  la   a3, src_str
  andi a4, s0, 15
  add  a3, a3, a4
  andi a5, s5, 127
  sb   a5, 0(a3)
  addi s0, s0, 1
  blt  s0, s1, loop
  la   a3, arr
  li   a4, 0
  li   a6, 16
fold:
  lw   a5, 0(a3)
  xor  s5, s5, a5
  addi a3, a3, 4
  addi a4, a4, 1
  blt  a4, a6, fold
  li   t6, 0x00100000
  sw   s5, 0(t6)
  ebreak
str_copy:
  li   t0, 0
sc_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  sb   t2, 0(t3)
  addi t0, t0, 1
  blt  t0, a2, sc_loop
  ret
str_cmp:
  li   t0, 0
  li   t4, 0
scm_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  lbu  t5, 0(t3)
  bne  t2, t5, scm_next
  addi t4, t4, 1
scm_next:
  addi t0, t0, 1
  blt  t0, a2, scm_loop
  mv   a0, t4
  ret
int_mix:
  slli t0, a0, 2
  add  t0, t0, a0
  li   t5, 0x5a
  xor  t0, t0, t5
  srli t1, t0, 3
  add  a0, t0, t1
  ret
  .data
src_str:
  .word 0x44434241, 0x48474645, 0x4c4b4a49, 0x504f4e4d
dst_str:
  .space 16
ref_str:
  .word 0x44434241, 0x48474645, 0x4c4b4a21, 0x504f4e21
arr:
  .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
|}

(* No [.data]: [buf] follows the code in the same 256-byte page, and
   the loop stores into it on every iteration. *)
let shared_page_src = {|
_start:
  la   s2, buf
  li   s0, 0
  li   s1, 150
  li   s3, 7
loop:
  andi t0, s0, 7
  slli t0, t0, 2
  add  t1, s2, t0
  lw   t2, 0(t1)
  add  t2, t2, s0
  xor  t2, t2, s3
  sw   t2, 0(t1)
  add  s3, s3, t2
  addi s0, s0, 1
  blt  s0, s1, loop
  li   t6, 0x00100000
  sw   s3, 0(t6)
  ebreak
buf:
  .word 1, 2, 3, 4, 5, 6, 7, 8
|}

(* [slot] is rewritten from one of two templates before each pass (from
   another block, so no engine runs a stale copy of it), and [leaf]'s
   first word is read as data into a spare word the exit code never
   sees. *)
let smc_src = {|
_start:
  li   s0, 0
  li   s1, 40
  li   a0, 0
  la   s2, slot
  la   s4, tmpl
loop:
  andi t0, s0, 1
  slli t0, t0, 2
  add  t0, s4, t0
  lw   t1, 0(t0)
  sw   t1, 0(s2)
  call leaf
slot:
  addi a0, a0, 1
  addi s0, s0, 1
  blt  s0, s1, loop
  la   t2, leaf
  lw   t3, 0(t2)
  la   t4, spare
  sw   t3, 0(t4)
  li   t6, 0x00100000
  sw   a0, 0(t6)
  ebreak
leaf:
  xori a0, a0, 0x55
  slli a1, a0, 1
  add  a0, a0, a1
  ret
tmpl:
  addi a0, a0, 3
  addi a0, a0, 7
spare:
  .word 0
|}

let warm_fork_programs =
  [ ("dhry", dhry_src); ("shared page", shared_page_src);
    ("self-modifying", smc_src) ]

let test_warm_forks_equal_run_one () =
  List.iter
    (fun (name, src) ->
      let p = S4e_asm.Assembler.assemble_exn src in
      let golden, cov = Campaign.golden ~fuel:1_000_000 p in
      Alcotest.(check bool) (name ^ ": golden exits") true
        (golden.Campaign.sig_exit <> None);
      let fuel = 3 * golden.Campaign.sig_instret in
      let faults =
        Campaign.generate ~seed:17 ~n:240 ~targets:[ `Gpr; `Code; `Data ]
          ~kinds:[ `Permanent; `Transient ] ~coverage:cov
          ~golden_instret:golden.Campaign.sig_instret
      in
      let want =
        List.map
          (fun f ->
            (Fault.to_string f,
             Campaign.outcome_name (Campaign.run_one ~fuel p ~golden f)))
          faults
      in
      List.iter
        (fun jobs ->
          let got =
            List.map
              (fun (f, o) -> (Fault.to_string f, Campaign.outcome_name o))
              (Campaign.run ~jobs ~fuel p ~golden faults)
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s at -j %d: every mutant = run_one" name jobs)
            want got)
        [ 1; 2 ])
    warm_fork_programs

(* A restore keeps the program's translations, so forking a warm
   program allocates almost nothing: no block is decoded, lowered or
   promoted again.  (Retranslating every block, as a flushing restore
   would, costs about 20,000 minor words on a dhrystone-sized
   target.) *)
let test_warm_restore_allocation () =
  let p = S4e_asm.Assembler.assemble_exn dhry_src in
  let m = Machine.create () in
  S4e_asm.Program.load_machine p m;
  let snap = Machine.snapshot m in
  let run () = Machine.run m ~fuel:1_000_000 in
  let first = run () in
  (* warm-up: traces promote over the first few reruns *)
  for _ = 1 to 5 do
    Machine.restore m snap;
    ignore (run () : Machine.stop_reason)
  done;
  let w0 = Gc.minor_words () in
  Machine.restore m snap;
  let stop = run () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "rerun stops like the first run" true (stop = first);
  if words >= 1000. then
    Alcotest.failf "warm restore + rerun allocated %.0f minor words" words

(* ---------------- hardening: errors, journals, shards ---------------- *)

module Journal = S4e_fault.Journal
module Flows = S4e_core.Flows

let gen_faults ~seed ~n _p golden cov =
  Campaign.generate ~seed ~n ~targets:[ `Gpr; `Code; `Data ]
    ~kinds:[ `Permanent; `Transient ] ~coverage:cov
    ~golden_instret:golden.Campaign.sig_instret

let fault_string_roundtrip =
  prop ~count:100 "fault to_string/of_string roundtrip"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = program () in
      let golden, cov = Campaign.golden ~fuel:10_000 p in
      List.for_all
        (fun f -> Fault.of_string (Fault.to_string f) = Ok f)
        (gen_faults ~seed ~n:20 p golden cov))

let test_malformed_fault_errored () =
  (* A fault the injector rejects must not abort the campaign: the
     mutant is classified Errored (after one retry), the rest of the
     list classifies normally, and the counters record it. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let good = gen_faults ~seed:7 ~n:4 p golden cov in
  let bad = { Fault.loc = Fault.Gpr (33, 0); kind = Fault.Permanent } in
  let faults = List.concat [ [ List.hd good ]; [ bad ]; List.tl good ] in
  let reg = S4e_obs.Metrics.create () in
  let results = Campaign.run ~metrics:reg ~fuel:10_000 p ~golden faults in
  Alcotest.(check int) "all classified" 5 (List.length results);
  let outcomes = List.map (fun (_, o) -> Campaign.outcome_name o) results in
  Alcotest.(check string) "bad mutant errored" "errored" (List.nth outcomes 1);
  List.iteri
    (fun i o ->
      if i <> 1 then
        Alcotest.(check bool) "good mutants unaffected" false (o = "errored"))
    outcomes;
  (match List.nth results 1 with
  | _, Campaign.Errored msg ->
      Alcotest.(check bool) "exception text kept" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Errored");
  let v name = S4e_obs.Metrics.value (S4e_obs.Metrics.counter reg name) in
  Alcotest.(check int) "campaign.errors" 1 (v "campaign.errors");
  Alcotest.(check int) "campaign.retries" 1 (v "campaign.retries");
  let s = Campaign.summarize results in
  Alcotest.(check int) "summary counts it" 1 s.Campaign.errors

(* [Fault.describe] is total, so the per-mutant trace span (formatted
   with [Fault.pp]) cannot turn a malformed fault into an exception out
   of the campaign. *)
let test_describe_total () =
  Alcotest.(check string) "gpr by index" "GPR x33 bit 0 (permanent)"
    (Fault.describe { Fault.loc = Fault.Gpr (33, 0); kind = Fault.Permanent });
  Alcotest.(check string) "fpr by index" "FPR f-1 bit 2 (transient @ instr 5)"
    (Fault.describe { Fault.loc = Fault.Fpr (-1, 2); kind = Fault.Transient 5 });
  Alcotest.(check string) "valid register by name" "GPR a0 bit 3 (permanent)"
    (Fault.describe { Fault.loc = Fault.Gpr (10, 3); kind = Fault.Permanent });
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let bad = { Fault.loc = Fault.Gpr (33, 0); kind = Fault.Permanent } in
  let sink = S4e_obs.Trace_events.create () in
  match Campaign.run ~trace:sink ~fuel:10_000 p ~golden [ bad ] with
  | [ (_, o) ] ->
      Alcotest.(check string) "traced malformed mutant errored" "errored"
        (Campaign.outcome_name o)
  | _ -> Alcotest.fail "expected one classified mutant"

let test_wallclock_timeout () =
  (* With an (absurdly) tiny wall-clock budget every mutant hits its
     deadline before its first burst and classifies like fuel
     exhaustion. *)
  let p = program () in
  let golden, cov = Campaign.golden ~fuel:10_000 p in
  let faults = gen_faults ~seed:9 ~n:8 p golden cov in
  let engine =
    { Campaign.default_engine with Campaign.eng_timeout_s = 1e-9 }
  in
  let reg = S4e_obs.Metrics.create () in
  let results = Campaign.run ~engine ~metrics:reg ~fuel:10_000 p ~golden faults in
  List.iter
    (fun (_, o) ->
      Alcotest.(check string) "deadline -> hung" "hung"
        (Campaign.outcome_name o))
    results;
  Alcotest.(check bool) "timeouts counted" true
    (S4e_obs.Metrics.value (S4e_obs.Metrics.counter reg "campaign.timeouts")
    >= 8)

let shard_completeness =
  prop ~count:50 "shards partition the fault list"
    QCheck.(pair (int_range 1 7) (int_range 0 40))
    (fun (count, n) ->
      let ifaults =
        List.init n (fun i ->
            (i, { Fault.loc = Fault.Gpr (i mod 32, 0); kind = Fault.Permanent }))
      in
      let shards =
        List.init count (fun index -> Campaign.shard ~index ~count ifaults)
      in
      let union = List.concat shards in
      List.length union = n
      && List.sort compare union = ifaults
      && List.for_all
           (fun s ->
             List.for_all (fun (i, _) -> List.mem_assoc i ifaults) s)
           shards)

let with_tmp f =
  let path = Filename.temp_file "s4e_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let flow_cfg ~seed ~n =
  { Flows.default_fault_config with
    Flows.ff_seed = seed; ff_mutants = n; ff_fuel = 100_000;
    ff_hang_budget = Flows.Hang_fuel }

let engine_program () = S4e_asm.Assembler.assemble_exn engine_src

let test_journal_roundtrip_and_torn_tail () =
  let p = engine_program () in
  with_tmp (fun path ->
      let r =
        match Flows.fault_campaign ~journal:path (flow_cfg ~seed:11 ~n:30) p with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "complete" true r.Flows.ff_complete;
      let h, records =
        match Journal.read path with
        | Ok x -> x
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "header total" 30 h.Journal.j_total;
      Alcotest.(check int) "one record per mutant" 30 (List.length records);
      Alcotest.(check bool) "journal reproduces the summary" true
        (Campaign.summarize
           (List.map (fun r -> (r.Journal.r_fault, r.Journal.r_outcome)) records)
        = r.Flows.ff_summary);
      (* a torn final line (crash mid-write) is dropped on read *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"i\":99,\"fau";
      close_out oc;
      match Journal.read path with
      | Ok (_, records') ->
          Alcotest.(check int) "torn tail dropped" 30 (List.length records')
      | Error e -> Alcotest.fail ("torn tail should be tolerated: " ^ e))

let resume_differential =
  prop ~count:4 "interrupted-at-k + resume = full run"
    QCheck.(triple (int_bound 1000) (int_range 0 29) (int_range 1 4))
    (fun (seed, k, jobs) ->
      let p = engine_program () in
      let cfg = flow_cfg ~seed ~n:30 in
      with_tmp (fun j_full ->
          with_tmp (fun j_part ->
              let full =
                match Flows.fault_campaign ~jobs ~journal:j_full cfg p with
                | Ok r -> r
                | Error e -> Alcotest.fail e
              in
              let header, records =
                match Journal.read j_full with
                | Ok x -> x
                | Error e -> Alcotest.fail e
              in
              (* reconstruct the journal of a run interrupted after k
                 classifications, then resume it *)
              let w =
                match Journal.create ~path:j_part header with
                | Ok w -> w
                | Error e -> Alcotest.fail e
              in
              List.iteri (fun i r -> if i < k then Journal.write w r) records;
              Journal.close w;
              let resumed =
                match Flows.fault_campaign ~jobs ~resume:j_part cfg p with
                | Ok r -> r
                | Error e -> Alcotest.fail e
              in
              resumed.Flows.ff_resumed = k
              && resumed.Flows.ff_complete
              && resumed.Flows.ff_summary = full.Flows.ff_summary
              && resumed.Flows.ff_results = full.Flows.ff_results)))

let test_resume_rejects_other_campaign () =
  let p = engine_program () in
  with_tmp (fun path ->
      (match Flows.fault_campaign ~journal:path (flow_cfg ~seed:3 ~n:10) p with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      match Flows.fault_campaign ~resume:path (flow_cfg ~seed:4 ~n:10) p with
      | Ok _ -> Alcotest.fail "resume with a different seed must be rejected"
      | Error _ -> ())

let test_shard_merge_equals_full () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:17 ~n:24 in
  let full =
    match Flows.fault_campaign cfg p with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let count = 3 in
  let journals =
    List.init count (fun index ->
        let path =
          Filename.temp_file (Printf.sprintf "s4e_shard%d" index) ".jsonl"
        in
        (match
           Flows.fault_campaign ~journal:path ~shard:(index, count) cfg p
         with
        | Ok r -> Alcotest.(check bool) "shard complete" true r.Flows.ff_complete
        | Error e -> Alcotest.fail e);
        path)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) journals)
    (fun () ->
      let inputs =
        List.map
          (fun path ->
            match Journal.read path with
            | Ok x -> x
            | Error e -> Alcotest.fail e)
          journals
      in
      match Journal.merge inputs with
      | Error e -> Alcotest.fail e
      | Ok (h, records) ->
          Alcotest.(check bool) "merged complete" true
            (Journal.is_complete h records);
          Alcotest.(check bool) "merged summary = full summary" true
            (Campaign.summarize
               (List.map
                  (fun r -> (r.Journal.r_fault, r.Journal.r_outcome))
                  records)
            = full.Flows.ff_summary);
          Alcotest.(check bool) "merged results = full results" true
            (List.map (fun r -> (r.Journal.r_fault, r.Journal.r_outcome)) records
            = full.Flows.ff_results))

let test_cancellation_partial_then_resume () =
  (* cancel after ~half the mutants classify: the partial result is
     valid and resumable, and the resumed run completes the campaign *)
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:20 in
  let full =
    match Flows.fault_campaign cfg p with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  with_tmp (fun path ->
      (* the campaign's own mutants counter tracks classifications, so
         the cancellation callback can poll it like a SIGINT flag *)
      let reg = S4e_obs.Metrics.create () in
      let mutants = S4e_obs.Metrics.counter reg "campaign.mutants" in
      let partial =
        match
          Flows.fault_campaign ~metrics:reg ~journal:path
            ~cancelled:(fun () -> S4e_obs.Metrics.value mutants >= 10)
            cfg p
        with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "partial run incomplete" true
        (not partial.Flows.ff_complete);
      Alcotest.(check bool) "partial run classified a prefix" true
        (partial.Flows.ff_summary.Campaign.total < 20);
      let resumed =
        match Flows.fault_campaign ~resume:path cfg p with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "resumed run completes" true
        resumed.Flows.ff_complete;
      Alcotest.(check bool) "summary identical to uninterrupted" true
        (resumed.Flows.ff_summary = full.Flows.ff_summary))

let test_blind_generation () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let faults =
    Campaign.generate_blind ~seed:5 ~n:50 ~targets:[ `Gpr ]
      ~kinds:[ `Permanent ] ~program:p
      ~golden_instret:golden.Campaign.sig_instret
  in
  Alcotest.(check int) "fifty faults" 50 (List.length faults);
  (* blind generation hits registers the program never uses *)
  let unused =
    List.exists
      (fun f ->
        match f.Fault.loc with
        | Fault.Gpr (r, _) -> r >= 18 && r <= 27  (* s2..s11 untouched *)
        | _ -> false)
      faults
  in
  Alcotest.(check bool) "includes unused registers" true unused

(* ---------------- the journal line format ---------------- *)

let gpr_perm = { Fault.loc = Fault.Gpr (10, 24); kind = Fault.Permanent }

let code_trans =
  { Fault.loc = Fault.Code (0x8000_0000, 3); kind = Fault.Transient 43 }

(* Exact bytes, so a change of printer cannot silently change a journal
   that another build has to resume or merge. *)
let test_journal_line_bytes () =
  let h =
    { Journal.j_seed = 7; j_total = 600; j_shard = (2, 6);
      j_program = "0123456789abcdef0123456789abcdef" }
  in
  Alcotest.(check string) "header"
    {|{"s4e_journal":1,"seed":7,"total":600,"shard":"2/6","program":"0123456789abcdef0123456789abcdef"}|}
    (Journal.header_line h);
  let line i fault outcome =
    Journal.record_line
      { Journal.r_index = i; r_fault = fault; r_outcome = outcome }
  in
  List.iter
    (fun (want, got) -> Alcotest.(check string) want want got)
    [ ({|{"i":0,"fault":"gpr:10:24:perm","outcome":"masked"}|},
       line 0 gpr_perm Campaign.Masked);
      ({|{"i":1,"fault":"code:0x80000000:3:trans:43","outcome":"sdc"}|},
       line 1 code_trans Campaign.Sdc);
      ({|{"i":2,"fault":"gpr:10:24:perm","outcome":"crashed"}|},
       line 2 gpr_perm Campaign.Crashed);
      ({|{"i":3,"fault":"gpr:10:24:perm","outcome":"hung"}|},
       line 3 gpr_perm Campaign.Hung);
      ({|{"i":4,"fault":"gpr:10:24:perm","outcome":"errored","error":"say \"hi\" \\ then\nline \u0001 Ł"}|},
       line 4 gpr_perm
         (Campaign.Errored "say \"hi\" \\ then\nline \001 Ł")) ];
  let tg =
    { Campaign.tg_index = 5; tg_fault = gpr_perm; tg_outcome = Campaign.Sdc;
      tg_diverged = true; tg_instret = 1234; tg_golden_pc = 0x8000_0010;
      tg_mutant_pc = 0x8000_0014; tg_insn = "addi a0, a0, 1";
      tg_reg_diffs =
        [ { Campaign.rd_name = "a0"; rd_golden = 0x2a; rd_mutant = 0x102a };
          { Campaign.rd_name = "mstatus"; rd_golden = 0; rd_mutant = 8 } ];
      tg_mem_diff = false; tg_mip_golden = 0; tg_mip_mutant = 128;
      tg_tail = [ "a \"quoted\" line"; "tab\there" ] }
  in
  Alcotest.(check string) "triage line"
    {|{"index":5,"fault":"gpr:10:24:perm","outcome":"sdc","diverged":true,"instret":1234,"golden_pc":"0x80000010","mutant_pc":"0x80000014","insn":"addi a0, a0, 1","reg_diffs":[{"reg":"a0","golden":"0x2a","mutant":"0x102a"},{"reg":"mstatus","golden":"0x0","mutant":"0x8"}],"mem_diff":false,"mip_golden":0,"mip_mutant":128,"tail":["a \"quoted\" line","tab\there"]}|}
    (Campaign.triage_to_json tg)

let fault_gen =
  let open QCheck.Gen in
  let bit = int_bound 31 in
  let loc =
    oneof
      [ map2 (fun r b -> Fault.Gpr (r, b)) (int_bound 31) bit;
        map2 (fun r b -> Fault.Fpr (r, b)) (int_bound 31) bit;
        map2 (fun a b -> Fault.Code (a, b)) (int_bound 0xffff_ffff) bit;
        map2 (fun a b -> Fault.Data (a, b)) (int_bound 0xffff_ffff) bit ]
  in
  let kind =
    oneof
      [ return Fault.Permanent; map (fun n -> Fault.Transient (1 + n)) nat ]
  in
  map2 (fun loc kind -> { Fault.loc; kind }) loc kind

(* Faults in and around the armable ranges: registers and bits from -2
   to 40, addresses down to -2, transient times from -2 up. *)
let any_fault_gen =
  let open QCheck.Gen in
  let small = int_range (-2) 40 in
  let addr = oneof [ int_range (-2) 0xffff_ffff; int ] in
  let loc =
    oneof
      [ map2 (fun r b -> Fault.Gpr (r, b)) small small;
        map2 (fun r b -> Fault.Fpr (r, b)) small small;
        map2 (fun a b -> Fault.Code (a, b)) addr small;
        map2 (fun a b -> Fault.Data (a, b)) addr small ]
  in
  let kind =
    oneof
      [ return Fault.Permanent;
        map (fun n -> Fault.Transient n) (int_range (-2) 1_000_000) ]
  in
  map2 (fun loc kind -> { Fault.loc; kind }) loc kind

let fault_print_parse_identity =
  prop ~count:1000 "fault print then parse = identity"
    (QCheck.make ~print:Fault.to_string any_fault_gen)
    (fun f ->
      match Fault.of_string (Fault.to_string f) with
      | Ok g -> g = f && Fault.validate f = Ok ()
      | Error _ -> Fault.validate f <> Ok ())

(* Edited spellings of valid faults: whatever [of_string] accepts, it
   prints back byte for byte. *)
let fault_parse_print_identity =
  let gen =
    let open QCheck.Gen in
    let edit =
      oneofl [ 'x'; '0'; '7'; '+'; '-'; '_'; ':'; 'a'; ' '; 'f'; 'e' ]
    in
    map3
      (fun f (pos, c) op ->
        let s = Fault.to_string f in
        let n = String.length s in
        let i = pos mod (n + 1) in
        let j = min n (i + 1) in
        let c = String.make 1 c in
        let sub lo hi = String.sub s lo (hi - lo) in
        match op with
        | 0 -> sub 0 i ^ c ^ sub i n (* insert *)
        | 1 -> sub 0 i ^ sub j n (* delete *)
        | _ -> sub 0 i ^ c ^ sub j n (* replace *))
      fault_gen (pair nat edit) (int_bound 2)
  in
  prop ~count:2000 "fault parse then print = identity"
    (QCheck.make ~print:(fun s -> s) gen)
    (fun s ->
      match Fault.of_string s with
      | Ok f -> Fault.to_string f = s && Fault.validate f = Ok ()
      | Error _ -> true)

(* Spellings [int_of_string] reads but [to_string] never prints, and
   faults the injector would refuse to arm. *)
let bad_fault_strings =
  [ "gpr:0x7:+3:perm"; "gpr:99:77:perm"; "gpr:07:3:perm"; "gpr:7:3_0:perm";
    "gpr:-1:3:perm"; "fpr:3:32:perm"; "code:0X80000000:3:perm";
    "code:0x080000000:3:perm"; "code:2147483648:3:perm";
    "data:0x80000000:3:trans:0"; "data:0x80000000:3:trans:+5";
    "gpr:7:3:perm "; "gpr:7:3:trans:5:6" ]

let test_fault_of_string_fails_closed () =
  List.iter
    (fun s ->
      match Fault.of_string s with
      | Ok f -> Alcotest.failf "%S read as %s" s (Fault.to_string f)
      | Error _ -> ())
    bad_fault_strings;
  Alcotest.(check bool) "the canonical spelling still reads" true
    (Fault.of_string "gpr:7:3:perm"
     = Ok { Fault.loc = Fault.Gpr (7, 3); kind = Fault.Permanent })

let outcome_gen =
  QCheck.Gen.(
    oneof
      [ return Campaign.Masked; return Campaign.Sdc; return Campaign.Crashed;
        return Campaign.Hung;
        map (fun s -> Campaign.Errored s) (string_size (int_bound 24)) ])

let journal_line_roundtrip =
  let gen =
    let open QCheck.Gen in
    let header =
      map
        (fun (seed, total, (n, i), program) ->
          { Journal.j_seed = seed; j_total = total;
            j_shard = (i mod n, n); j_program = program })
        (quad int nat (pair (int_range 1 8) nat) (string_size (int_bound 40)))
    in
    let record =
      map3
        (fun i f o -> { Journal.r_index = i; r_fault = f; r_outcome = o })
        nat fault_gen outcome_gen
    in
    pair header record
  in
  prop ~count:500 "journal header/record print then parse = identity"
    (QCheck.make gen)
    (fun (h, r) ->
      Journal.parse_header (Journal.header_line h) = Ok h
      && Journal.parse_record (Journal.record_line r) = Ok r
      && Journal.parse_line (Journal.header_line h) = Ok (Journal.Header h)
      && Journal.parse_line (Journal.record_line r) = Ok (Journal.Record r))

let write_journal path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let header_line ?(shard = (0, 1)) total =
  Journal.header_line
    { Journal.j_seed = 1; j_total = total; j_shard = shard; j_program = "p" }

let record_line i =
  Journal.record_line
    { Journal.r_index = i; r_fault = gpr_perm; r_outcome = Campaign.Masked }

(* Each of these was read as a (possibly complete) campaign before the
   reader checked records against their header and parsed lines as
   JSON. *)
let test_journal_read_fails_closed () =
  let rejects name lines =
    with_tmp (fun path ->
        write_journal path lines;
        match Journal.read path with
        | Ok (_, rs) ->
            Alcotest.failf "%s: read accepted %d records" name (List.length rs)
        | Error _ -> ())
  in
  rejects "index past total" [ header_line 2; record_line 0; record_line 7 ];
  rejects "negative index" [ header_line 2; record_line (-1) ];
  rejects "outside the shard slice"
    [ header_line ~shard:(1, 2) 4; record_line 1; record_line 2 ];
  rejects "unterminated object"
    [ header_line 2;
      {|{"i":0,"fault":"gpr:10:24:perm","outcome":"masked"|} ];
  rejects "garbage around the fields"
    [ header_line 2;
      {|xx"i":1,"fault":"gpr:10:24:perm","outcome":"masked"yy|} ];
  rejects "second header" [ header_line 2; record_line 0; header_line 2 ];
  (* headers [Journal.header_line] cannot print *)
  let raw_header ~total shard =
    S4e_obs.Json.(
      to_string
        (Obj
           [ ("s4e_journal", Int 1); ("seed", Int 1); ("total", Int total);
             ("shard", String shard); ("program", String "p") ]))
  in
  List.iter
    (fun shard -> rejects ("shard " ^ shard) [ raw_header ~total:2 shard ])
    [ "2/2"; "-1/2"; "1/0"; "0/-1"; "1/2/3"; "01/2"; "0x1/2"; " 0/1"; "0/1_0" ];
  rejects "negative total" [ raw_header ~total:(-1) "0/1" ];
  List.iter
    (fun f ->
      rejects ("fault " ^ f)
        [ header_line 2;
          S4e_obs.Json.(
            to_string
              (Obj
                 [ ("i", Int 0); ("fault", String f);
                   ("outcome", String "masked") ])) ])
    bad_fault_strings;
  (* the checked journals still read *)
  with_tmp (fun path ->
      write_journal path
        [ header_line ~shard:(1, 2) 4; record_line 1; record_line 3 ];
      match Journal.read path with
      | Ok (h, rs) ->
          Alcotest.(check bool) "complete shard" true (Journal.is_complete h rs)
      | Error e -> Alcotest.fail e)

let test_journal_merge_checks_records () =
  let h n i =
    { Journal.j_seed = 1; j_total = 4; j_shard = (i, n); j_program = "p" }
  in
  let r i =
    { Journal.r_index = i; r_fault = gpr_perm; r_outcome = Campaign.Masked }
  in
  (match Journal.merge [ (h 2 0, [ r 0; r 2 ]); (h 2 1, [ r 1; r 3 ]) ] with
  | Ok (hm, rs) ->
      Alcotest.(check (pair int int)) "unsharded" (0, 1) hm.Journal.j_shard;
      Alcotest.(check int) "all records" 4 (List.length rs)
  | Error e -> Alcotest.fail e);
  (match Journal.merge [ (h 2 0, [ r 0; r 1 ]) ] with
  | Ok _ -> Alcotest.fail "merge accepted a record outside its shard"
  | Error _ -> ());
  match Journal.merge [ (h 1 0, [ r 0; r 4 ]) ] with
  | Ok _ -> Alcotest.fail "merge accepted a record past the total"
  | Error _ -> ()

(* ---------------- divergence triage ---------------- *)

let test_triage_locates_divergence () =
  let p = program () in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  let faults =
    [ { Fault.loc = Fault.Gpr (10, 0); kind = Fault.Transient 20 };
      { Fault.loc = Fault.Code (0x8000_0000, 3); kind = Fault.Permanent } ]
  in
  let results =
    List.mapi
      (fun i f -> (i, f, Campaign.run_one ~fuel:10_000 p ~golden f))
      faults
  in
  let recs = Campaign.triage ~fuel:10_000 p results in
  Alcotest.(check int) "one record per divergent mutant" 2 (List.length recs);
  List.iter
    (fun t ->
      Alcotest.(check bool) "diverged" true t.Campaign.tg_diverged;
      Alcotest.(check bool) "diverging site named" true
        (String.length t.Campaign.tg_insn > 0);
      Alcotest.(check bool) "architectural diff present" true
        (t.Campaign.tg_reg_diffs <> [] || t.Campaign.tg_mem_diff
        || t.Campaign.tg_golden_pc <> t.Campaign.tg_mutant_pc);
      Alcotest.(check bool) "tail dump present" true
        (t.Campaign.tg_tail <> []))
    recs;
  (* the transient flips a0 right before its 20th instruction retires,
     so the first differing record cannot come earlier *)
  let t0 = List.hd recs in
  Alcotest.(check bool) "transient diverges at/after injection" true
    (t0.Campaign.tg_instret >= 20);
  (* the permanent code flip turns the first instruction undecodable:
     the mutant's first record is the trap marker *)
  let t1 = List.nth recs 1 in
  Alcotest.(check int) "code flip diverges at the first instruction" 0
    t1.Campaign.tg_instret;
  Alcotest.(check bool) "code flip is a memory diff" true
    t1.Campaign.tg_mem_diff

(* A stuck-at bit is forced at the write itself, so triage names the
   write it overrides — here the program's first instruction — and not
   the instruction that consumes the register near the end. *)
let stuck_src = {|
_start:
  li   s1, 115
  li   a0, 0
  li   a1, 1
  li   a2, 20
l:
  add  a0, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  add  a0, a0, s1
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let test_triage_stuck_at_write () =
  let p = S4e_asm.Assembler.assemble_exn stuck_src in
  let golden, _ = Campaign.golden ~fuel:10_000 p in
  (* s1 is 0 at reset, so bit 2 sticks at 1: the first write of 115
     leaves 119 *)
  let fault = { Fault.loc = Fault.Gpr (9, 2); kind = Fault.Permanent } in
  let o = Campaign.run_one ~fuel:10_000 p ~golden fault in
  Alcotest.(check string) "stuck s1 is an sdc" "sdc" (Campaign.outcome_name o);
  match Campaign.triage ~fuel:10_000 p [ (0, fault, o) ] with
  | [ t ] ->
      let has sub =
        let n = String.length sub and s = t.Campaign.tg_insn in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "diverged" true t.Campaign.tg_diverged;
      Alcotest.(check int) "divergence at the first retired instruction" 1
        t.Campaign.tg_instret;
      Alcotest.(check int) "mutant stopped just past the write" 0x8000_0004
        t.Campaign.tg_mutant_pc;
      Alcotest.(check bool)
        (Printf.sprintf "the overridden write is named (%s)" t.Campaign.tg_insn)
        true
        (has "pc=0x80000000" && has "x9=0x00000077");
      Alcotest.(check bool) "s1 differs: 115 golden, 119 mutant" true
        (List.exists
           (fun d ->
             d.Campaign.rd_name = "s1" && d.Campaign.rd_golden = 115
             && d.Campaign.rd_mutant = 119)
           t.Campaign.tg_reg_diffs)
  | l -> Alcotest.failf "expected one triage record, got %d" (List.length l)

let test_triage_flow_jsonl_and_top_sites () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:40 in
  let r = Result.get_ok (Flows.fault_campaign cfg p) in
  let divergent =
    List.filter
      (fun (_, _, o) ->
        match o with
        | Campaign.Sdc | Campaign.Crashed | Campaign.Hung -> true
        | _ -> false)
      r.Flows.ff_indexed
  in
  let sample = 4 in
  let expected = min sample (List.length divergent) in
  Alcotest.(check bool) "campaign produced divergent mutants" true
    (expected > 0);
  let recs = Flows.fault_triage ~sample cfg p r in
  Alcotest.(check int) "one triage record per sampled mutant" expected
    (List.length recs);
  List.iter
    (fun t ->
      let line = Campaign.triage_to_json t in
      Alcotest.(check bool) "jsonl: single line" false
        (String.contains line '\n');
      Alcotest.(check bool) "jsonl: valid JSON" true
        (Result.is_ok (S4e_obs.Json.parse line));
      Alcotest.(check bool) "diverged with a named site" true
        (t.Campaign.tg_diverged && String.length t.Campaign.tg_insn > 0))
    recs;
  let sites = Campaign.top_sites recs in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 sites in
  let ndiv =
    List.length (List.filter (fun t -> t.Campaign.tg_diverged) recs)
  in
  Alcotest.(check int) "site counts cover diverged records" ndiv total;
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as tl) -> a >= b && descending tl
    | _ -> true
  in
  Alcotest.(check bool) "sites ranked by count" true (descending sites)

let test_triage_deterministic () =
  let p = engine_program () in
  let cfg = flow_cfg ~seed:23 ~n:40 in
  let r = Result.get_ok (Flows.fault_campaign cfg p) in
  let a = Flows.fault_triage ~sample:3 cfg p r in
  let b = Flows.fault_triage ~sample:3 cfg p r in
  Alcotest.(check bool) "triage is deterministic" true (a = b)

let () =
  Alcotest.run "fault"
    [ ( "injector",
        [ Alcotest.test_case "golden signature" `Quick test_golden_signature;
          Alcotest.test_case "code flip" `Quick test_code_flip_changes_memory;
          Alcotest.test_case "transient gpr" `Quick test_transient_gpr_flip;
          Alcotest.test_case "x0 masked" `Quick test_x0_fault_masked;
          Alcotest.test_case "unused reg masked" `Quick
            test_unused_register_masked;
          Alcotest.test_case "opcode corruption crashes" `Quick
            test_opcode_corruption_crashes;
          Alcotest.test_case "bound corruption hangs" `Quick
            test_branch_corruption_can_hang ] );
      ( "campaign",
        [ Alcotest.test_case "dead code masked" `Quick
            test_unexecuted_code_fault_masked;
          Alcotest.test_case "untouched data masked" `Quick
            test_untouched_data_fault_masked;
          Alcotest.test_case "late transient masked" `Quick
            test_late_transient_masked;
          Alcotest.test_case "generation determinism" `Quick
            test_generation_determinism;
          Alcotest.test_case "guided sites covered" `Quick
            test_guided_sites_are_covered;
          Alcotest.test_case "summary adds up" `Quick
            test_campaign_summary_adds_up;
          Alcotest.test_case "blind generation" `Quick test_blind_generation;
          campaign_determinism ] );
      ( "engine",
        [ Alcotest.test_case "generation regression" `Quick
            test_generation_regression;
          Alcotest.test_case "jobs deterministic" `Quick
            test_jobs_deterministic;
          Alcotest.test_case "engine matches rerun" `Quick
            test_engine_matches_rerun;
          Alcotest.test_case "engine axes agree" `Quick
            test_engine_axes_agree;
          Alcotest.test_case "mid-block code flip visibility" `Quick
            test_midblock_code_flip_visibility;
          Alcotest.test_case "warm forks = run_one" `Quick
            test_warm_forks_equal_run_one;
          Alcotest.test_case "warm restore allocates little" `Quick
            test_warm_restore_allocation ] );
      ( "hardening",
        [ fault_string_roundtrip;
          Alcotest.test_case "malformed fault errored" `Quick
            test_malformed_fault_errored;
          Alcotest.test_case "describe is total" `Quick test_describe_total;
          Alcotest.test_case "wall-clock timeout" `Quick
            test_wallclock_timeout;
          shard_completeness;
          Alcotest.test_case "journal roundtrip + torn tail" `Quick
            test_journal_roundtrip_and_torn_tail;
          resume_differential;
          Alcotest.test_case "resume rejects other campaign" `Quick
            test_resume_rejects_other_campaign;
          Alcotest.test_case "shard merge equals full" `Quick
            test_shard_merge_equals_full;
          Alcotest.test_case "cancel then resume" `Quick
            test_cancellation_partial_then_resume ] );
      ( "journal",
        [ Alcotest.test_case "line bytes" `Quick test_journal_line_bytes;
          journal_line_roundtrip;
          fault_print_parse_identity;
          fault_parse_print_identity;
          Alcotest.test_case "fault spelling fails closed" `Quick
            test_fault_of_string_fails_closed;
          Alcotest.test_case "read fails closed" `Quick
            test_journal_read_fails_closed;
          Alcotest.test_case "merge checks records" `Quick
            test_journal_merge_checks_records ] );
      ( "triage",
        [ Alcotest.test_case "locates first divergence" `Quick
            test_triage_locates_divergence;
          Alcotest.test_case "stuck-at names the overridden write" `Quick
            test_triage_stuck_at_write;
          Alcotest.test_case "flow + jsonl + top sites" `Quick
            test_triage_flow_jsonl_and_top_sites;
          Alcotest.test_case "deterministic" `Quick
            test_triage_deterministic ] ) ]
