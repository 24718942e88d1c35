(* End-to-end checks of the s4e command-line tool: each case runs a
   subcommand on a generated source file and greps the output.  This
   covers the argument parsing and wiring that the library-level tests
   cannot see. *)

let s4e = Sys.argv.(1)

let failures = ref 0

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let hello_src = {|
  .equ UART, 0x10000000
  .equ EXIT, 0x00100000
_start:
  la   a1, msg
  li   a2, UART
put:
  lbu  a0, 0(a1)
  beqz a0, fin
  sb   a0, 0(a2)
  addi a1, a1, 1
  j    put
fin:
  li   a3, EXIT
  sw   zero, 0(a3)
  ebreak
  .data
msg:
  .asciz "cli-ok"
|}

let loop_src = {|
_start:
  li   a0, 0
  li   a1, 8
again:
  addi a0, a0, 1
  blt  a0, a1, again
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

(* A nested loop doing enough work (~45k instructions) that a rerun
   campaign over a few hundred mutants takes seconds, leaving a window
   to deliver SIGINT mid-run for the kill-and-resume check. *)
let slow_src = {|
_start:
  li   s0, 0
  li   s1, 0
  li   s2, 400
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

(* Run a command, capture stdout+stderr, return (exit code, output). *)
let run_capture cmd =
  let out = Filename.temp_file "s4e_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd out) in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check name cmd ~expect_code ~expect_substrings =
  let code, out = run_capture cmd in
  let ok =
    code = expect_code && List.for_all (contains out) expect_substrings
  in
  if ok then Printf.printf "  [OK]   %s\n" name
  else begin
    incr failures;
    Printf.printf "  [FAIL] %s\n    cmd: %s\n    exit %d (wanted %d)\n" name
      cmd code expect_code;
    List.iter
      (fun sub ->
        if not (contains out sub) then
          Printf.printf "    missing substring %S\n" sub)
      expect_substrings;
    print_string out
  end

let () =
  let dir = Filename.temp_file "s4e_cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let hello = Filename.concat dir "hello.s" in
  let loop = Filename.concat dir "loop.s" in
  let image = Filename.concat dir "hello.bin" in
  let qta = Filename.concat dir "hello.qta" in
  let bad = Filename.concat dir "bad.s" in
  let slow = Filename.concat dir "slow.s" in
  write_file hello hello_src;
  write_file loop loop_src;
  write_file bad "_start:\n  frobnicate a0\n";
  write_file slow slow_src;
  Printf.printf "cli tests (%s):\n" s4e;

  check "run prints the UART output"
    (Printf.sprintf "%s run %s" s4e hello)
    ~expect_code:0
    ~expect_substrings:[ "cli-ok"; "exited with code 0" ];
  check "run --trace prints a tail"
    (Printf.sprintf "%s run %s --trace 3" s4e hello)
    ~expect_code:0
    ~expect_substrings:[ "trace tail:"; "branches:" ];
  check "assembly errors carry line numbers"
    (Printf.sprintf "%s run %s" s4e bad)
    ~expect_code:1
    ~expect_substrings:[ "line 2"; "unknown mnemonic" ];
  check "dis shows decoded instructions"
    (Printf.sprintf "%s dis %s" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "addi a0, zero, 0"; "blt a0, a1, -4" ];
  check "asm writes an image"
    (Printf.sprintf "%s asm %s -o %s" s4e hello image)
    ~expect_code:0
    ~expect_substrings:[ "wrote" ];
  check "run accepts the image"
    (Printf.sprintf "%s run %s" s4e image)
    ~expect_code:0
    ~expect_substrings:[ "cli-ok" ];
  check "cfg reconstructs blocks"
    (Printf.sprintf "%s cfg %s" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "function @ 0x80000000"; "block 0" ];
  check "stats reports the minimal ISA"
    (Printf.sprintf "%s stats %s" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "minimal ISA: RV32I" ];
  check "wcet analyzes the counted loop"
    (Printf.sprintf "%s wcet %s" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "program WCET:"; "bound=9 (inferred)" ];
  check "wcet --cosim prints the chain"
    (Printf.sprintf "%s wcet %s --cosim" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "co-simulation: dynamic=" ];
  check "wcet rejects data-dependent loops"
    (Printf.sprintf "%s wcet %s" s4e hello)
    ~expect_code:1
    ~expect_substrings:[ "no inferable bound" ];
  check "wcet accepts annotations"
    (Printf.sprintf "%s wcet %s -a put=7" s4e hello)
    ~expect_code:0
    ~expect_substrings:[ "bound=7 (annotated)" ];
  check "qta-export emits the interchange format"
    (Printf.sprintf "%s qta-export %s -o %s && head -1 %s" s4e loop qta qta)
    ~expect_code:0
    ~expect_substrings:[ "qta-cfg v1" ];
  check "fault campaign summarizes"
    (Printf.sprintf "%s fault %s -n 25 --fuel 100000" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "total=25" ];
  check "mutate scores a test set"
    (Printf.sprintf "%s mutate %s --fuel 100000" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "mutation score" ];
  check "run --cache-stats reports hit rates"
    (Printf.sprintf "%s run %s --cache-stats" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "icache:"; "dcache:" ];
  check "torture runs deterministically"
    (Printf.sprintf "%s torture --seed 12" s4e)
    ~expect_code:0
    ~expect_substrings:[ "torture seed=12: exited with code" ];
  check "run --profile ranks the hot loop"
    (Printf.sprintf "%s run %s --profile" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "hot blocks (by cycles):"; "again" ];
  check "run --metrics - dumps the registry"
    (Printf.sprintf "%s run %s --metrics -" s4e loop)
    ~expect_code:0
    ~expect_substrings:
      [ "\"machine.instret\""; "\"machine.tb.blocks\"" ];
  check "run --cache-stats labels chain hits"
    (Printf.sprintf "%s run %s --cache-stats" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "chain hits"; "invalidations" ];
  check "run --cache-stats reports the memory TLB"
    (Printf.sprintf "%s run %s --cache-stats" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "mem tlb:"; "flushes" ];
  check "run --no-mem-tlb matches the default output"
    (Printf.sprintf
       "{ a=$(%s run %s); b=$(%s run %s --no-mem-tlb); [ \"$a\" = \"$b\" ] \
        && echo TLB-OUTPUT-MATCH; }"
       s4e hello s4e hello)
    ~expect_code:0
    ~expect_substrings:[ "TLB-OUTPUT-MATCH" ];
  check "run --no-mem-tlb --cache-stats shows a cold TLB"
    (Printf.sprintf "%s run %s --no-mem-tlb --cache-stats" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "mem tlb: 0 hits" ];
  check "run --metrics includes TLB gauges"
    (Printf.sprintf "%s run %s --metrics -" s4e loop)
    ~expect_code:0
    ~expect_substrings:
      [ "\"machine.mem.tlb_hits\""; "\"machine.mem.tlb_flushes\"" ];
  check "torture --no-mem-tlb agrees with the default"
    (Printf.sprintf
       "{ a=$(%s torture --seed 3 --count 4); b=$(%s torture --seed 3 \
        --count 4 --no-mem-tlb); [ \"$a\" = \"$b\" ] && echo \
        TORTURE-TLB-MATCH; }"
       s4e s4e)
    ~expect_code:0
    ~expect_substrings:[ "TORTURE-TLB-MATCH" ];
  check "profile subcommand prints the ranked report"
    (Printf.sprintf "%s profile %s" s4e loop)
    ~expect_code:0
    ~expect_substrings:
      [ "hot blocks (by cycles):"; "hot functions:"; "again" ];
  check "profile --disas disassembles the hottest block"
    (Printf.sprintf "%s profile %s --disas" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "hottest block"; "addi a0, a0, 1" ];
  (let trace = Filename.concat dir "trace.json" in
   check "fault --trace-events writes a trace"
     (Printf.sprintf
        "{ %s fault %s -n 25 --fuel 100000 --trace-events %s && head -2 \
         %s; }"
        s4e loop trace trace)
     ~expect_code:0
     ~expect_substrings:[ "trace events"; "\"ph\"" ]);
  check "fault --metrics - reports campaign counters"
    (Printf.sprintf "%s fault %s -n 25 --fuel 100000 --metrics -" s4e loop)
    ~expect_code:0
    ~expect_substrings:[ "\"campaign.mutants\": 25"; "\"campaign.hangs\"" ];
  (let j = Filename.concat dir "campaign.jsonl" in
   check "fault --journal records every outcome"
     (Printf.sprintf
        "{ %s fault %s -n 25 --fuel 100000 --journal %s && head -1 %s; }" s4e
        loop j j)
     ~expect_code:0
     ~expect_substrings:[ "total=25"; "\"s4e_journal\":1"; "\"total\":25" ];
   check "fault --resume skips already-classified mutants"
     (Printf.sprintf "%s fault %s -n 25 --fuel 100000 --resume %s" s4e loop j)
     ~expect_code:0
     ~expect_substrings:
       [ "total=25"; "resumed: 25 mutants already classified" ];
   check "fault --resume rejects a mismatched campaign"
     (Printf.sprintf "%s fault %s -n 25 --fuel 100000 --seed 9 --resume %s"
        s4e loop j)
     ~expect_code:1
     ~expect_substrings:[ "fault:" ]);
  (let s0 = Filename.concat dir "shard0.jsonl" in
   let s1 = Filename.concat dir "shard1.jsonl" in
   let merged = Filename.concat dir "merged.jsonl" in
   check "fault --shard runs a deterministic slice"
     (Printf.sprintf
        "%s fault %s -n 25 --fuel 100000 --shard 0/2 --journal %s" s4e loop
        s0)
     ~expect_code:0
     ~expect_substrings:[ "total=13" ];
   check "merge-journals flags an incomplete campaign"
     (Printf.sprintf "%s merge-journals %s" s4e s0)
     ~expect_code:1
     ~expect_substrings:[ "incomplete campaign: 13/25" ];
   check "merge-journals combines complementary shards"
     (Printf.sprintf
        "{ %s fault %s -n 25 --fuel 100000 --shard 1/2 --journal %s && %s \
         merge-journals %s %s -o %s && head -1 %s; }"
        s4e loop s1 s4e s0 s1 merged merged)
     ~expect_code:0
     ~expect_substrings:[ "total=25"; "\"s4e_journal\":1" ];
   check "merge-journals --json emits the machine summary"
     (Printf.sprintf "%s merge-journals %s %s --json" s4e s0 s1)
     ~expect_code:0
     ~expect_substrings:
       [ "\"s4e_merge_schema\":1"; "\"records\":25"; "\"expected\":25";
         "\"complete\":true"; "\"summary\":{\"masked\":" ];
   check "merge-journals --json reports incompleteness in the exit code"
     (Printf.sprintf "%s merge-journals %s --json" s4e s0)
     ~expect_code:1
     ~expect_substrings:[ "\"complete\":false"; "\"records\":13" ];
   check "merge-journals --json counts the summary's total"
     (Printf.sprintf "%s merge-journals %s %s --json" s4e s0 s1)
     ~expect_code:0
     ~expect_substrings:[ "\"errored\":0,\"total\":25}" ]);
  (* journals whose records do not fit their header, or whose lines are
     not JSON, fail the read instead of merging *)
  (let bad = Filename.concat dir "bad.jsonl" in
   let header =
     {|{"s4e_journal":1,"seed":1,"total":2,"shard":"0/1","program":"p"}|}
   in
   List.iter
     (fun (name, lines) ->
       write_file bad (String.concat "\n" (header :: lines) ^ "\n");
       check ("merge-journals rejects " ^ name)
         (Printf.sprintf "%s merge-journals %s" s4e bad)
         ~expect_code:1 ~expect_substrings:[ "merge-journals:"; "journal:" ])
     [ ("a record past the total",
        [ {|{"i":0,"fault":"gpr:1:0:perm","outcome":"masked"}|};
          {|{"i":7,"fault":"gpr:1:0:perm","outcome":"masked"}|} ]);
       ("an unterminated object",
        [ {|{"i":0,"fault":"gpr:1:0:perm","outcome":"masked"|};
          {|{"i":1,"fault":"gpr:1:0:perm","outcome":"masked"}|} ]);
       ("text around the fields",
        [ {|{"i":0,"fault":"gpr:1:0:perm","outcome":"masked"}|};
          {|xx"i":1,"fault":"gpr:1:0:perm","outcome":"masked"yy|} ]) ]);
  (let j = Filename.concat dir "killed.jsonl" in
   let part = Filename.concat dir "killed.out" in
   let args =
     Printf.sprintf "fault %s -n 400 --fuel 200000 --rerun -j 2" slow
   in
   (* Interrupt a campaign mid-run, then resume it from the journal and
      compare the final summary against an uninterrupted reference. *)
   check "SIGINT journals progress and --resume completes it"
     (Printf.sprintf
        "{ ref=$(%s %s | head -1); %s %s --journal %s > %s 2>&1 & pid=$!; \
         sleep 0.7; kill -INT $pid 2>/dev/null; wait $pid; echo exit=$?; \
         grep interrupted %s; res=$(%s %s --resume %s | head -1); [ \
         \"$ref\" = \"$res\" ] && echo SUMMARIES-MATCH; }"
        s4e args s4e args j part part s4e args j)
     ~expect_code:0
     ~expect_substrings:[ "exit=130"; "interrupted:"; "SUMMARIES-MATCH" ]);
  (let j = Filename.concat dir "termed.jsonl" in
   let part = Filename.concat dir "termed.out" in
   let args =
     Printf.sprintf "fault %s -n 400 --fuel 200000 --rerun -j 2" slow
   in
   (* Same shape with SIGTERM: supervisors (and the fleet) stop
      campaigns with TERM, which must journal and exit 143. *)
   check "SIGTERM journals progress (exit 143) and --resume completes it"
     (Printf.sprintf
        "{ ref=$(%s %s | head -1); %s %s --journal %s > %s 2>&1 & pid=$!; \
         sleep 0.7; kill -TERM $pid 2>/dev/null; wait $pid; echo exit=$?; \
         grep interrupted %s; res=$(%s %s --resume %s | head -1); [ \
         \"$ref\" = \"$res\" ] && echo SUMMARIES-MATCH; }"
        s4e args s4e args j part part s4e args j)
     ~expect_code:0
     ~expect_substrings:[ "exit=143"; "interrupted:"; "SUMMARIES-MATCH" ]);
  (let sock = Filename.concat dir "fleet.sock" in
   let jd = Filename.concat dir "fleet-journals" in
   let sub = Filename.concat dir "submit.out" in
   let args = "-n 120 --fuel 200000 --rerun" in
   (* The fleet path end to end on a unix socket: orchestrator, one
      draining worker, a 3-shard submission - the merged summary must
      be byte-equal to the single-process campaign and the merged
      journal must read back complete. *)
   check "fleet serve/worker/submit matches the single-process campaign"
     (Printf.sprintf
        "{ ref=$(%s fault %s %s -j 1 | head -1); %s serve --listen unix:%s \
         --journal-dir %s --lease-ttl 10 -q & spid=$!; sleep 0.5; %s submit \
         %s --connect unix:%s %s --shards 3 --wait > %s 2>&1 & wpid=$!; \
         sleep 0.3; %s worker --connect unix:%s -j 1 --drain -q; wait \
         $wpid; echo submit=$?; kill -TERM $spid; wait $spid; echo \
         serve=$?; res=$(head -1 %s); [ \"$ref\" = \"$res\" ] && echo \
         FLEET-SUMMARY-MATCH; %s merge-journals %s/j1.jsonl --json; }"
        s4e slow args s4e sock jd s4e slow sock args sub s4e sock sub s4e jd)
     ~expect_code:0
     ~expect_substrings:
       [ "submit=0"; "serve=0"; "FLEET-SUMMARY-MATCH"; "\"complete\":true" ]);

  if !failures > 0 then begin
    Printf.printf "%d CLI test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all CLI tests passed"
