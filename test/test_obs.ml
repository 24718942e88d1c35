(* Tests for the unified telemetry layer (s4e_obs) and its wiring.

   The load-bearing properties: telemetry is observationally inert
   (digest-identical runs with and without a profiler attached, on the
   lowered engine), its numbers agree with the independent witnesses we
   already trust (Tracer.stats, campaign summaries), and the exported
   artifacts (metric snapshots, trace-event JSON) are well-formed. *)

module Machine = S4e_cpu.Machine
module Metrics = S4e_obs.Metrics
module Trace_events = S4e_obs.Trace_events
module Profile = S4e_obs.Profile
module Torture = S4e_torture.Torture
module Flows = S4e_core.Flows

let prop ?(count = 10) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

(* naive substring search; the haystacks here are tiny JSON buffers *)
let contains s ~affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let check_infix what s affix =
  Alcotest.(check bool) (what ^ ": contains " ^ affix) true
    (contains s ~affix)

(* ---------------- metrics registry ---------------- *)

let test_counter_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "events" in
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "value" 6 (Metrics.value c);
  (* registration is idempotent by name: same instrument comes back *)
  let c' = Metrics.counter t "events" in
  Metrics.incr c';
  Alcotest.(check int) "shared" 7 (Metrics.value c);
  Alcotest.(check (list (pair string int)))
    "snapshot"
    [ ("events", 7) ]
    (List.map
       (fun (k, v) ->
         (k, match v with Metrics.Int i -> i | Metrics.Float _ -> -1))
       (Metrics.snapshot t))

let test_shape_conflict () =
  let t = Metrics.create () in
  let (_ : Metrics.counter) = Metrics.counter t "x" in
  Alcotest.check_raises "counter vs histogram"
    (Invalid_argument "Metrics: x already bound to another shape")
    (fun () -> ignore (Metrics.histogram t "x" ~bounds:[| 1 |]))

let test_gauges () =
  let t = Metrics.create () in
  let cell = ref 0 in
  Metrics.gauge_int t "cell" (fun () -> !cell);
  Metrics.gauge_float t "ratio" (fun () -> 0.5);
  cell := 42;
  let snap = Metrics.snapshot t in
  Alcotest.(check bool)
    "int gauge probed at snapshot time" true
    (List.assoc "cell" snap = Metrics.Int 42);
  Alcotest.(check bool)
    "float gauge" true
    (List.assoc "ratio" snap = Metrics.Float 0.5)

let test_histogram () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "lat" ~bounds:[| 10; 100 |] in
  List.iter (Metrics.observe h) [ 1; 10; 11; 100; 5000 ];
  let snap = Metrics.snapshot t in
  let geti k =
    match List.assoc k snap with Metrics.Int i -> i | _ -> -1
  in
  Alcotest.(check int) "le_10" 2 (geti "lat.le_10");
  Alcotest.(check int) "le_100" 2 (geti "lat.le_100");
  Alcotest.(check int) "le_inf" 1 (geti "lat.le_inf");
  Alcotest.(check int) "count" 5 (geti "lat.count");
  Alcotest.(check int) "sum" 5122 (geti "lat.sum");
  Alcotest.check_raises "unsorted bounds"
    (Invalid_argument "Metrics: bad: bounds must be ascending") (fun () ->
      ignore (Metrics.histogram t "bad" ~bounds:[| 5; 5 |]))

let test_snapshot_sorted () =
  let t = Metrics.create () in
  List.iter
    (fun n -> ignore (Metrics.counter t n))
    [ "zz"; "aa"; "mm" ];
  let names = List.map fst (Metrics.snapshot t) in
  Alcotest.(check (list string)) "sorted" [ "aa"; "mm"; "zz" ] names

let test_json_export () =
  let t = Metrics.create () in
  let c = Metrics.counter t "events" in
  Metrics.add c 3;
  Metrics.gauge_float t "bad_probe" (fun () -> Float.nan);
  Metrics.gauge_float t "ratio" (fun () -> 0.25) ;
  let json = Metrics.to_json t in
  Alcotest.(check bool) "object" true
    (String.length json > 2 && json.[0] = '{');
  check_infix "json" json "\"events\": 3";
  check_infix "json" json "\"ratio\": 0.25";
  check_infix "json" json
    (Printf.sprintf "\"s4e_metrics_schema\": %d" Metrics.schema_version);
  (* non-finite probe values are clamped so the JSON stays parseable *)
  check_infix "json" json "\"bad_probe\": 0";
  Alcotest.(check bool) "no nan literal" false (contains json ~affix:"nan")

(* Keys go through the shared JSON escaper: a key with a quote, a
   backslash, a newline and a raw control byte still exports a document
   the strict fleet parser accepts, with the key intact. *)
let test_json_export_escapes_keys () =
  let t = Metrics.create () in
  let key = "odd\"key\\with\nnewline\001" in
  Metrics.add (Metrics.counter t key) 7;
  match S4e_obs.Json.parse (Metrics.to_json t) with
  | Error e -> Alcotest.failf "metrics export is not JSON: %s" e
  | Ok v ->
      Alcotest.(check (option int)) "key intact" (Some 7)
        (S4e_obs.Json.mem_int key v)

(* a registry counter is safe to bump from several domains at once *)
let test_counter_cross_domain () =
  let t = Metrics.create () in
  let c = Metrics.counter t "hits" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all increments survived" 40_000 (Metrics.value c)

(* ---------------- trace-event sink ---------------- *)

let test_trace_span_and_shape () =
  let t = Trace_events.create () in
  Trace_events.thread_name t ~tid:0 "main";
  Trace_events.thread_name t ~tid:0 "main" (* deduplicated *);
  let r = Trace_events.span t ~name:"work" ~cat:"test" (fun () -> 17) in
  Alcotest.(check int) "span returns" 17 r;
  Trace_events.instant t ~name:"mark" ~cat:"test" ~tid:3 ();
  Alcotest.(check int) "events (name dedup)" 3 (Trace_events.events t);
  let s = Trace_events.contents t in
  Alcotest.(check bool) "array" true (s.[0] = '[');
  List.iter (check_infix "trace" s)
    [ "\"ph\":\"X\""; "\"ph\":\"i\""; "\"ph\":\"M\""; "\"name\":\"work\"";
      "\"tid\":3"; "thread_name" ]

let test_trace_span_on_exception () =
  let t = Trace_events.create () in
  (try
     Trace_events.span t ~name:"boom" ~cat:"test" (fun () ->
         failwith "expected")
   with Failure _ -> ());
  Alcotest.(check int) "span emitted despite raise" 1
    (Trace_events.events t);
  check_infix "trace" (Trace_events.contents t) "\"name\":\"boom\""

(* ---------------- profiler: inert + consistent ---------------- *)

let digest_of ?profile p =
  let m = Machine.create () in
  (match profile with
  | Some prof -> Machine.set_profiler m (Some prof)
  | None -> ());
  S4e_asm.Program.load_machine p m;
  let stop = Machine.run m ~fuel:200_000 in
  ( Format.asprintf "%a" Machine.pp_stop_reason stop,
    Digest.to_hex (Machine.state_digest ~include_time:true m),
    Machine.instret m,
    Machine.cycles m )

(* attaching a profiler must not perturb the lowered engine at all *)
let prop_profiler_inert =
  prop ~count:15 "profiler attached vs detached: identical run" seed_gen
    (fun seed ->
      let p =
        Torture.generate { Torture.default_config with Torture.seed }
      in
      let plain = digest_of p in
      let prof = Profile.create () in
      let profiled = digest_of ~profile:prof p in
      plain = profiled)

(* the profiler's aggregate instruction count is exact: it equals the
   machine's own retired-instruction counter on every run *)
let prop_profiler_totals =
  prop ~count:15 "profiler totals match machine counters" seed_gen
    (fun seed ->
      let p =
        Torture.generate { Torture.default_config with Torture.seed }
      in
      let prof = Profile.create () in
      let m = Machine.create () in
      Machine.set_profiler m (Some prof);
      S4e_asm.Program.load_machine p m;
      let (_ : Machine.stop_reason) = Machine.run m ~fuel:200_000 in
      Profile.total_instrs prof = Machine.instret m
      && Profile.total_cycles prof = Machine.cycles m
      && Profile.total_execs prof > 0)

(* metric gauges and the (hook-based, generic-engine) tracer agree on
   what ran: same program, deterministic execution, independent
   witnesses *)
let prop_metrics_match_tracer =
  prop ~count:10 "machine gauges match Tracer.stats" seed_gen (fun seed ->
      let p =
        Torture.generate { Torture.default_config with Torture.seed }
      in
      (* profiled run on the lowered engine *)
      let prof = Profile.create () in
      let reg = Metrics.create () in
      let m = Machine.create () in
      Machine.set_profiler m (Some prof);
      Machine.register_metrics m reg;
      S4e_asm.Program.load_machine p m;
      let (_ : Machine.stop_reason) = Machine.run m ~fuel:200_000 in
      (* traced run: hooks force the generic path — an independent
         per-instruction witness of the same deterministic program *)
      let mt = Machine.create () in
      let tracer = S4e_cpu.Tracer.attach mt.Machine.hooks ~depth:4 in
      S4e_asm.Program.load_machine p mt;
      let (_ : Machine.stop_reason) = Machine.run mt ~fuel:200_000 in
      let ts = S4e_cpu.Tracer.stats tracer in
      let snap = Metrics.snapshot reg in
      List.assoc "machine.instret" snap
        = Metrics.Int ts.S4e_cpu.Tracer.st_instructions
      && Profile.total_instrs prof = ts.S4e_cpu.Tracer.st_instructions)

(* ---------------- flight recorder ---------------- *)

module Flight_recorder = S4e_obs.Flight_recorder

let rec_sb_off c = { c with Machine.superblocks = false }

(* the six engine configs the lowered differential suite exercises *)
let rec_engines =
  [ ("lowered", rec_sb_off Machine.default_config);
    ("unchained",
     rec_sb_off { Machine.default_config with Machine.chain_blocks = false });
    ("generic-tb",
     rec_sb_off { Machine.default_config with Machine.lower_blocks = false });
    ("single-step",
     rec_sb_off { Machine.default_config with Machine.use_tb_cache = false });
    ("tlb-off",
     rec_sb_off { Machine.default_config with Machine.mem_tlb = false });
    ("superblocks", Machine.default_config) ]

let rec_outcome_of ?config ?recorder p =
  let m = Machine.create ?config () in
  (match recorder with
  | Some r -> Machine.set_recorder m (Some r)
  | None -> ());
  S4e_asm.Program.load_machine p m;
  let stop = Machine.run m ~fuel:200_000 in
  ( Format.asprintf "%a" Machine.pp_stop_reason stop,
    Digest.to_hex (Machine.state_digest ~include_time:true m),
    Machine.instret m,
    Machine.cycles m )

(* tentpole invariant: an armed recorder is observationally inert on
   every engine config — identical digest, stop reason, instret, and
   cycle count *)
let prop_recorder_inert =
  prop ~count:8 "recorder armed vs unarmed: identical run on every engine"
    seed_gen (fun seed ->
      let p =
        Torture.generate { Torture.default_config with Torture.seed }
      in
      List.for_all
        (fun (_, config) ->
          let plain = rec_outcome_of ~config p in
          let r = Flight_recorder.create ~capacity:64 () in
          let recorded = rec_outcome_of ~config ~recorder:r p in
          plain = recorded && Flight_recorder.seq r > 0)
        rec_engines)

(* arming and disarming mid-run (between run calls) is equally inert;
   both runs use identical fuel segmentation so the recorder is the
   only difference *)
let prop_recorder_arm_disarm_inert =
  prop ~count:8 "mid-run arm/disarm: identical run" seed_gen (fun seed ->
      let p =
        Torture.generate { Torture.default_config with Torture.seed }
      in
      let segmented arm =
        let m = Machine.create () in
        S4e_asm.Program.load_machine p m;
        let stop = ref (Machine.run m ~fuel:1_000) in
        if !stop = Machine.Out_of_fuel then begin
          if arm then
            Machine.set_recorder m
              (Some (Flight_recorder.create ~capacity:128 ()));
          stop := Machine.run m ~fuel:1_000
        end;
        if !stop = Machine.Out_of_fuel then begin
          Machine.set_recorder m None;
          stop := Machine.run m ~fuel:198_000
        end;
        ( Format.asprintf "%a" Machine.pp_stop_reason !stop,
          Digest.to_hex (Machine.state_digest ~include_time:true m),
          Machine.instret m,
          Machine.cycles m )
      in
      segmented false = segmented true)

(* Recorder contents are engine-independent: every field of every
   record, the stop reason and the sequence count agree across the six
   engine configs.  The ring is large enough to hold each whole run. *)
let recording ?(rig = false) ~fuel config p =
  let m = Machine.create ~config () in
  let r = Flight_recorder.create ~capacity:8192 () in
  Machine.set_recorder m (Some r);
  S4e_asm.Program.load_machine p m;
  if rig then Flows.arm_device_rig m;
  let stop = Machine.run m ~fuel in
  if Flight_recorder.seq r > Flight_recorder.capacity r then
    failwith "recording: the run overflowed the ring";
  ( Format.asprintf "%a" Machine.pp_stop_reason stop,
    Flight_recorder.seq r,
    Flight_recorder.records r )

(* [None] when every engine config records what the first one does,
   else the name of the first config that differs *)
let recording_mismatch ?rig ?(harts = 1) ~fuel p =
  let runs =
    List.map
      (fun (name, config) ->
        (name, recording ?rig ~fuel { config with Machine.harts } p))
      rec_engines
  in
  let reference = snd (List.hd runs) in
  List.find_map
    (fun (name, got) -> if got = reference then None else Some name)
    runs

let prop_recorder_engines_agree =
  prop ~count:60 "recorder contents identical on every engine" seed_gen
    (fun seed ->
      List.for_all
        (fun (compress, rig) ->
          let cfg = { Torture.default_config with Torture.seed; compress } in
          let fuel = Torture.fuel_bound cfg in
          match recording_mismatch ~rig ~fuel (Torture.generate cfg) with
          | None -> true
          | Some name ->
              QCheck.Test.fail_reportf "rvc=%b rig=%b: %s differs" compress
                rig name)
        [ (false, false); (true, false); (false, true); (true, true) ])

let test_recorder_engines_agree_smp () =
  List.iter
    (fun harts ->
      let fuel = S4e_torture.Smp.fuel ~harts ~rounds:8 in
      List.iter
        (fun (name, p) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: every engine records the same" name)
            None
            (recording_mismatch ~harts ~fuel p))
        (S4e_torture.Smp.suite ~harts ~rounds:8))
    [ 2; 4 ]

let push_retire r i =
  Flight_recorder.retire r ~pc:i ~op:i ~rd:(-1) ~rd_val:0 ~addr:(-1)
    ~width:0 ~value:0 ~store:false

let rec_seqs r =
  List.map (fun rc -> rc.Flight_recorder.r_seq) (Flight_recorder.records r)

let test_ring_wraparound () =
  let r = Flight_recorder.create ~capacity:4 () in
  for i = 0 to 9 do
    push_retire r i
  done;
  Alcotest.(check int) "seq counts every record" 10 (Flight_recorder.seq r);
  Alcotest.(check int) "length capped at capacity" 4
    (Flight_recorder.length r);
  Alcotest.(check (list int)) "newest survive, oldest first" [ 6; 7; 8; 9 ]
    (rec_seqs r);
  Alcotest.(check (list int)) "slots hold their own payloads" [ 6; 7; 8; 9 ]
    (List.map
       (fun rc -> rc.Flight_recorder.r_pc)
       (Flight_recorder.records r));
  Flight_recorder.clear r;
  Alcotest.(check int) "clear empties" 0 (Flight_recorder.length r);
  Alcotest.(check int) "clear resets numbering" 0 (Flight_recorder.seq r)

let test_mark_rewind () =
  let r = Flight_recorder.create ~capacity:4 () in
  push_retire r 0;
  push_retire r 1;
  let m = Flight_recorder.mark r in
  push_retire r 2;
  push_retire r 3;
  Flight_recorder.rewind r m;
  Alcotest.(check int) "seq restored" 2 (Flight_recorder.seq r);
  Alcotest.(check (list int)) "pre-mark records intact" [ 0; 1 ]
    (rec_seqs r);
  (* write far enough past the mark to clobber the pre-mark slots *)
  for i = 2 to 6 do
    push_retire r i
  done;
  Alcotest.(check (list int)) "ring wrapped past the mark" [ 3; 4; 5; 6 ]
    (rec_seqs r);
  Flight_recorder.rewind r m;
  Alcotest.(check int) "seq restored exactly" 2 (Flight_recorder.seq r);
  (* the overwritten pre-mark records are gone; the rewound window must
     not fabricate them *)
  Alcotest.(check (list int)) "no fabricated records" [] (rec_seqs r)

(* machine snapshot/restore carries the recorder mark: a campaign fork
   rewinds the recording and replays it with continuous, identical
   sequence numbering *)
let test_recorder_snapshot_restore () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  li   a0, 0
  li   a1, 4000
again:
  addi a0, a0, 1
  bne  a0, a1, again
  ebreak
|}
  in
  let m = Machine.create () in
  let r = Flight_recorder.create ~capacity:512 () in
  Machine.set_recorder m (Some r);
  S4e_asm.Program.load_machine p m;
  let (_ : Machine.stop_reason) = Machine.run m ~fuel:100 in
  let seq0 = Flight_recorder.seq r in
  let snap = Machine.snapshot m in
  let (_ : Machine.stop_reason) = Machine.run m ~fuel:50 in
  let seq1 = Flight_recorder.seq r in
  let recs1 = Flight_recorder.records r in
  Alcotest.(check bool) "recording advanced" true (seq1 > seq0);
  Machine.restore m snap;
  Alcotest.(check int) "restore rewinds the recorder" seq0
    (Flight_recorder.seq r);
  let (_ : Machine.stop_reason) = Machine.run m ~fuel:50 in
  Alcotest.(check int) "replay re-records the same window" seq1
    (Flight_recorder.seq r);
  Alcotest.(check bool) "replayed records identical" true
    (Flight_recorder.records r = recs1)

(* symbol labels must never be empty: anonymous / stripped table
   entries fall back to the resolved base address *)
let test_sym_label_empty_names () =
  let s =
    Profile.symbolizer_of_symbols
      [ ("", 0x1000); ("known", 0x2000); ("", 0x3000) ]
  in
  Alcotest.(check string) "empty name at offset" "0x00001000+0x1c"
    (Profile.sym_label s 0x101c);
  Alcotest.(check string) "empty name at base" "0x00001000"
    (Profile.sym_label s 0x1000);
  Alcotest.(check string) "named symbol unaffected" "known+0x8"
    (Profile.sym_label s 0x2008);
  Alcotest.(check string) "below first symbol" "0x00000040"
    (Profile.sym_label s 0x40);
  (* [functions] aggregation takes the same fallback *)
  let prof = Profile.create () in
  Profile.note prof ~pc:0x3010 ~bytes:8 ~instrs:2 ~cycles:4;
  match Profile.functions ~symbolize:s prof with
  | [ row ] ->
      Alcotest.(check string) "aggregated under base label" "0x00003000"
        row.Profile.f_name
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* the acceptance criterion: on a known loop workload the profiler must
   rank the loop body's block first, attributed to the loop symbol *)
let test_hot_loop_ranked_first () =
  let p =
    S4e_asm.Assembler.assemble_exn
      {|
_start:
  li   a0, 0
  li   a1, 5000
hot_loop:
  addi a0, a0, 1
  bne  a0, a1, hot_loop
  li   t0, 0x00100000
  sw   a0, 0(t0)
  ebreak
|}
  in
  let r = Flows.profile_flow p in
  let loop_pc = List.assoc "hot_loop" p.S4e_asm.Program.symbols in
  (match Profile.ranked r.Flows.pf_profile with
  | [] -> Alcotest.fail "no blocks profiled"
  | top :: _ ->
      Alcotest.(check int) "hottest block is the loop head" loop_pc
        top.Profile.bl_pc;
      Alcotest.(check bool) "dominates executions" true
        (top.Profile.bl_execs > 4_000));
  Alcotest.(check bool) "symbolized to the loop label" true
    (match r.Flows.pf_symbolize loop_pc with
    | Some ("hot_loop", 0) -> true
    | _ -> false);
  (match Profile.functions ~symbolize:r.Flows.pf_symbolize r.Flows.pf_profile
   with
  | [] -> Alcotest.fail "no function rows"
  | fr :: _ ->
      Alcotest.(check string) "hottest function" "hot_loop"
        fr.Profile.f_name;
      Alcotest.(check bool) "majority share" true (fr.Profile.f_share > 0.5))

(* ---------------- campaign telemetry ---------------- *)

let campaign_program =
  lazy
    (S4e_asm.Assembler.assemble_exn
       {|
_start:
  li   a0, 0
  li   a1, 400
again:
  addi a0, a0, 1
  bne  a0, a1, again
  li   t0, 0x00100000
  sw   zero, 0(t0)
  ebreak
|})

let test_campaign_metrics_and_trace () =
  let p = Lazy.force campaign_program in
  let reg = Metrics.create () in
  let sink = Trace_events.create () in
  let cfg =
    { Flows.default_fault_config with
      Flows.ff_mutants = 30;
      Flows.ff_fuel = 100_000;
      Flows.ff_hang_budget = Flows.Hang_auto }
  in
  let r =
    Result.get_ok (Flows.fault_campaign ~jobs:2 ~metrics:reg ~trace:sink cfg p)
  in
  let s = r.Flows.ff_summary in
  let snap = Metrics.snapshot reg in
  let geti k = match List.assoc k snap with Metrics.Int i -> i | _ -> -1 in
  Alcotest.(check int) "campaign.mutants = total" s.S4e_fault.Campaign.total
    (geti "campaign.mutants");
  Alcotest.(check int) "campaign.mutants = requested" 30
    (geti "campaign.mutants");
  Alcotest.(check int) "campaign.hangs = summary.hung"
    s.S4e_fault.Campaign.hung (geti "campaign.hangs");
  (* mutants resolved from a finished golden run never execute, so the
     per-mutant instruction histogram may cover slightly fewer *)
  let hcount = geti "campaign.mutant_insns.count" in
  Alcotest.(check bool) "histogram populated" true
    (hcount > 0 && hcount <= 30);
  Alcotest.(check bool) "early-exit counter present" true
    (geti "campaign.early_exits" >= 0);
  Alcotest.(check bool) "fork counter present" true
    (geti "campaign.snapshot_forks" >= 0);
  (* the trace must cover the flow phases, per-mutant spans, and at
     least one chunk per participating domain *)
  let s' = Trace_events.contents sink in
  List.iter (check_infix "trace" s')
    [ "\"name\":\"campaign\""; "\"name\":\"golden-trace\"";
      "\"cat\":\"mutant\""; "\"name\":\"chunk\"" ];
  Alcotest.(check bool) "enough events" true (Trace_events.events sink > 30);
  (* telemetry must not change outcomes: same campaign, no telemetry *)
  let r' = Result.get_ok (Flows.fault_campaign ~jobs:2 cfg p) in
  Alcotest.(check bool) "outcomes unaffected by telemetry" true
    (r.Flows.ff_summary = r'.Flows.ff_summary)

let test_pool_stats () =
  S4e_par.Par_pool.with_pool ~jobs:3 (fun pool ->
      let out =
        S4e_par.Par_pool.map_chunked ~chunk:2 pool
          (fun x -> x * x)
          (List.init 40 Fun.id)
      in
      Alcotest.(check int) "results" 40 (List.length out);
      let st = S4e_par.Par_pool.stats pool in
      Alcotest.(check int) "one slot per worker incl. submitter" 3
        (Array.length st);
      let chunks =
        Array.fold_left
          (fun a w -> a + w.S4e_par.Par_pool.ws_chunks)
          0 st
      in
      Alcotest.(check int) "every chunk accounted" 20 chunks;
      Array.iter
        (fun w ->
          Alcotest.(check bool) "idle time non-negative" true
            (w.S4e_par.Par_pool.ws_idle_s >= 0.0))
        st;
      let reg = Metrics.create () in
      S4e_par.Par_pool.register_metrics pool reg;
      let snap = Metrics.snapshot reg in
      Alcotest.(check bool) "pool.workers gauge" true
        (List.assoc "pool.workers" snap = Metrics.Int 3);
      Alcotest.(check bool) "pool.chunks totalled" true
        (List.assoc "pool.chunks" snap = Metrics.Int 20))

let test_pool_idle_monotone () =
  (* Idle time is accumulated around every Condition.wait, so it must
     be (a) monotone across maps and (b) strictly positive once workers
     have blocked waiting for work — a spurious-wakeup-tolerant
     accounting would under-report but never decrease. *)
  S4e_par.Par_pool.with_pool ~jobs:3 (fun pool ->
      let idle () =
        Array.map
          (fun w -> w.S4e_par.Par_pool.ws_idle_s)
          (S4e_par.Par_pool.stats pool)
      in
      let work x =
        if x = 0 then Unix.sleepf 0.005;
        x * 2
      in
      let before = ref (idle ()) in
      let grew = ref false in
      for _ = 1 to 3 do
        ignore
          (S4e_par.Par_pool.map_chunked ~chunk:1 pool work
             (List.init 20 Fun.id));
        let after = idle () in
        Array.iteri
          (fun i b ->
            Alcotest.(check bool) "idle monotone per worker" true
              (after.(i) >= b);
            if after.(i) > b then grew := true)
          !before;
        before := after
      done;
      Alcotest.(check bool) "idle time accumulates across maps" true !grew)

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "shape conflict" `Quick test_shape_conflict;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "json export" `Quick test_json_export;
          Alcotest.test_case "json export escapes keys" `Quick
            test_json_export_escapes_keys;
          Alcotest.test_case "cross-domain counter" `Quick
            test_counter_cross_domain ] );
      ( "trace-events",
        [ Alcotest.test_case "span and shape" `Quick
            test_trace_span_and_shape;
          Alcotest.test_case "span on exception" `Quick
            test_trace_span_on_exception ] );
      ( "profiler",
        [ prop_profiler_inert; prop_profiler_totals;
          Alcotest.test_case "sym label empty names" `Quick
            test_sym_label_empty_names;
          prop_metrics_match_tracer;
          Alcotest.test_case "hot loop ranked first" `Quick
            test_hot_loop_ranked_first ] );
      ( "flight-recorder",
        [ prop_recorder_inert; prop_recorder_arm_disarm_inert;
          prop_recorder_engines_agree;
          Alcotest.test_case "engines agree (SMP)" `Quick
            test_recorder_engines_agree_smp;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "mark/rewind" `Quick test_mark_rewind;
          Alcotest.test_case "snapshot/restore continuity" `Quick
            test_recorder_snapshot_restore ] );
      ( "campaign",
        [ Alcotest.test_case "metrics + trace" `Quick
            test_campaign_metrics_and_trace;
          Alcotest.test_case "pool stats" `Quick test_pool_stats;
          Alcotest.test_case "pool idle monotone" `Quick
            test_pool_idle_monotone ] ) ]
