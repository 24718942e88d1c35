(* The Scale4Edge ecosystem command-line front end.

   One subcommand per flow: run / dis / cfg / wcet / qta-export /
   coverage / fault / torture / bmi.  Each subcommand is a thin shell
   over the s4e_core API so everything it does is also available as a
   library call. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Accept either assembly source or a binary image (by magic). *)
let assemble_file path =
  let content = read_file path in
  if String.length content >= 4 && String.sub content 0 4 = "S4EP" then
    match S4e_asm.Program.of_bytes content with
    | Ok p -> p
    | Error m ->
        Format.eprintf "%s: malformed image: %s@." path m;
        exit 1
  else
    match S4e_asm.Assembler.assemble content with
    | Ok p -> p
    | Error e ->
        Format.eprintf "%s: %a@." path S4e_asm.Assembler.pp_error e;
        exit 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s"
         ~doc:"Assembly source file.")

let fuel_arg =
  Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~docv:"N"
         ~doc:"Maximum instructions to execute.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(value & opt int (S4e_par.Par_pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"JOBS"
           ~doc:"Worker domains to simulate with (default: the number of \
                 cores). Results are identical for every value.")

(* The engine knobs [run] and [torture] share, as one machine config. *)
let config_term =
  let no_mem_tlb =
    Arg.(value & flag & info [ "no-mem-tlb" ]
           ~doc:"Disable the bus's software TLB (direct page pointers for \
                 loads/stores/fetch). Observable behavior is identical; \
                 this is the escape hatch / benchmarking knob.")
  in
  let no_superblocks =
    Arg.(value & flag & info [ "no-superblocks" ]
           ~doc:"Disable superblock trace promotion (hot chained paths \
                 recompiled into guarded cross-block traces). Observable \
                 behavior is identical; this is the escape hatch / \
                 benchmarking knob.")
  in
  let harts =
    Arg.(value & opt int 1 & info [ "harts" ] ~docv:"N"
           ~doc:"Number of harts. All harts start at the entry point; \
                 software branches on mhartid. Scheduling is deterministic \
                 round-robin over fuel slices.")
  in
  let config no_mem_tlb no_superblocks harts =
    { S4e_cpu.Machine.default_config with
      S4e_cpu.Machine.mem_tlb = not no_mem_tlb;
      superblocks = not no_superblocks;
      harts = max 1 harts }
  in
  Term.(const config $ no_mem_tlb $ no_superblocks $ harts)

(* ---------------- run ---------------- *)

let run_cmd =
  let trace_arg =
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N"
           ~doc:"Print the last N executed instructions and control-flow \
                 statistics after the run.")
  in
  let input_arg =
    Arg.(value & opt (some string) None & info [ "input" ] ~docv:"BYTES"
           ~doc:"Bytes to feed into the UART receive queue before running.")
  in
  let cache_arg =
    Arg.(value & flag & info [ "cache-stats" ]
           ~doc:"Model 4 KiB 2-way I/D caches and report hit rates (plus \
                 translation-block cache statistics).")
  in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Attach the hot-spot profiler and print the ranked \
                 hot-block/hot-function report after the run.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a metrics-registry snapshot (JSON) to FILE after the \
                 run; '-' for stdout.")
  in
  let trace_stats_arg =
    Arg.(value & flag & info [ "trace-stats" ]
           ~doc:"Report superblock trace statistics (promotions, \
                 completions, bail-out breakdown) after the run.")
  in
  let trace_events_arg =
    Arg.(value & opt (some string) None & info [ "trace-events" ]
           ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file with one instant \
                 event per device-plane event (DMA bursts, vnet \
                 deliveries/drops/sends) after the run.")
  in
  let record_arg =
    Arg.(value & opt ~vopt:(Some 256) (some int) None & info [ "record" ]
           ~docv:"N"
           ~doc:"Arm the flight recorder with an N-record ring (default \
                 256) and dump the disassembled recorder tail when the run \
                 ends in a trap, fuel exhaustion, or a WFI halt. Unlike \
                 --trace, recording keeps the lowered fast path and never \
                 changes the run's outcome.")
  in
  let action file fuel trace input cache_stats profile metrics config
      trace_stats trace_events record =
    let p = assemble_file file in
    let m = S4e_cpu.Machine.create ~config () in
    let tracer =
      Option.map
        (fun depth -> S4e_cpu.Tracer.attach m.S4e_cpu.Machine.hooks ~depth)
        trace
    in
    let caches =
      if cache_stats then Some (S4e_cpu.Cache_model.attach m) else None
    in
    let reg =
      Option.map
        (fun _ ->
          let reg = S4e_obs.Metrics.create () in
          S4e_cpu.Machine.register_metrics m reg;
          Option.iter (fun c -> S4e_cpu.Cache_model.register_metrics c reg)
            caches;
          reg)
        metrics
    in
    let prof =
      if profile then begin
        let prof = S4e_obs.Profile.create () in
        S4e_cpu.Machine.set_profiler m (Some prof);
        Some prof
      end
      else None
    in
    let tev =
      Option.map (fun _ -> S4e_obs.Trace_events.create ()) trace_events
    in
    let rcd =
      Option.map
        (fun capacity ->
          let r = S4e_obs.Flight_recorder.create ~capacity () in
          S4e_cpu.Machine.set_recorder m (Some r);
          r)
        record
    in
    (match (reg, tev) with
    | None, None -> ()
    | _ -> S4e_cpu.Machine.observe_devices ?metrics:reg ?trace:tev m);
    S4e_asm.Program.load_machine p m;
    (match input with
    | Some s -> S4e_soc.Uart.feed m.S4e_cpu.Machine.uart s
    | None -> ());
    let stop = S4e_cpu.Machine.run m ~fuel in
    print_string (S4e_cpu.Machine.uart_output m);
    Format.printf "@.-- %a; %d instructions, %d cycles@."
      S4e_cpu.Machine.pp_stop_reason stop
      (S4e_cpu.Machine.instret m) (S4e_cpu.Machine.cycles m);
    (match rcd with
    | None -> ()
    | Some r -> (
        match stop with
        | S4e_cpu.Machine.Exited _ -> ()
        | _ ->
            Format.printf "flight recorder tail (last %d of %d records):@."
              (S4e_obs.Flight_recorder.length r)
              (S4e_obs.Flight_recorder.seq r);
            List.iter
              (fun rc ->
                Format.printf "  %a%s@." S4e_obs.Flight_recorder.pp_record rc
                  (match rc.S4e_obs.Flight_recorder.r_kind with
                  | S4e_obs.Flight_recorder.Retire
                  | S4e_obs.Flight_recorder.Watch ->
                      "  "
                      ^ S4e_asm.Disasm.disassemble_word
                          rc.S4e_obs.Flight_recorder.r_op
                  | _ -> ""))
              (S4e_obs.Flight_recorder.records r)));
    (match caches with
    | None -> ()
    | Some c ->
        let pr name (s : S4e_cpu.Cache_model.stats) =
          Format.printf "%s: %d accesses, %.1f%% hits@." name
            s.S4e_cpu.Cache_model.st_accesses
            (100.0 *. S4e_cpu.Cache_model.hit_rate s)
        in
        pr "icache" (S4e_cpu.Cache_model.icache_stats c);
        pr "dcache" (S4e_cpu.Cache_model.dcache_stats c);
        let ts = S4e_cpu.Machine.tb_stats m in
        Format.printf
          "tb cache: %d blocks, %d hits, %d misses, %d chain hits, %d \
           invalidations@."
          ts.S4e_cpu.Tb_cache.st_blocks ts.S4e_cpu.Tb_cache.st_hits
          ts.S4e_cpu.Tb_cache.st_misses ts.S4e_cpu.Tb_cache.st_chain_hits
          ts.S4e_cpu.Tb_cache.st_invalidations;
        (match S4e_cpu.Machine.hot_edges m with
        | [] -> ()
        | edges ->
            Format.printf "hot chain edges:@.";
            List.iteri
              (fun i (src, dst, hits) ->
                if i < 10 then
                  Format.printf "  0x%08x -> 0x%08x %10d traversals@." src
                    dst hits)
              edges);
        let ms = S4e_mem.Bus.tlb_stats m.S4e_cpu.Machine.bus in
        let total = ms.S4e_mem.Bus.tlb_hits + ms.S4e_mem.Bus.tlb_misses in
        Format.printf
          "mem tlb: %d hits, %d misses, %d flushes (%.1f%% hits)@."
          ms.S4e_mem.Bus.tlb_hits ms.S4e_mem.Bus.tlb_misses
          ms.S4e_mem.Bus.tlb_flushes
          (if total = 0 then 0.0
           else 100.0 *. float_of_int ms.S4e_mem.Bus.tlb_hits
                /. float_of_int total);
        (match S4e_mem.Bus.access_counts m.S4e_cpu.Machine.bus with
        | [] -> ()
        | counts ->
            Format.printf "device mmio:";
            List.iter
              (fun (name, n) -> Format.printf " %s=%d" name n)
              counts;
            Format.printf "@.");
        let ws = S4e_soc.Event_wheel.stats m.S4e_cpu.Machine.wheel in
        Format.printf
          "event wheel: %d fired, %d idle skips, %d live@."
          ws.S4e_soc.Event_wheel.ws_fired
          ws.S4e_soc.Event_wheel.ws_idle_skips
          ws.S4e_soc.Event_wheel.ws_live);
    (if trace_stats then
       match S4e_cpu.Machine.trace_stats m with
       | None ->
           Format.printf "superblocks: disabled (engine config)@."
       | Some s ->
           Format.printf
             "superblocks: %d live traces, %d promotions, %d invalidations@."
             s.S4e_cpu.Superblock.sb_live s.S4e_cpu.Superblock.sb_promotions
             s.S4e_cpu.Superblock.sb_invalidations;
           Format.printf
             "trace runs: %d (%d completed), %d instructions inside traces@."
             s.S4e_cpu.Superblock.sb_execs
             s.S4e_cpu.Superblock.sb_completions
             s.S4e_cpu.Superblock.sb_instrs;
           Format.printf
             "bail-outs: %d guard, %d irq, %d invalidated, %d trap@."
             s.S4e_cpu.Superblock.sb_bail_guard
             s.S4e_cpu.Superblock.sb_bail_irq
             s.S4e_cpu.Superblock.sb_bail_dead
             s.S4e_cpu.Superblock.sb_bail_trap);
    (match prof with
    | None -> ()
    | Some prof ->
        let symbolize =
          S4e_obs.Profile.symbolizer_of_symbols p.S4e_asm.Program.symbols
        in
        Format.printf "%a" (S4e_obs.Profile.pp_report ~top:10 ~symbolize)
          prof);
    (match (reg, metrics) with
    | Some reg, Some path -> S4e_obs.Metrics.write_json reg path
    | _ -> ());
    (match (tev, trace_events) with
    | Some t, Some path -> S4e_obs.Trace_events.write t path
    | _ -> ());
    match tracer with
    | None -> ()
    | Some t ->
        let s = S4e_cpu.Tracer.stats t in
        Format.printf "trace tail:@.%a" S4e_cpu.Tracer.pp_tail t;
        Format.printf
          "branches: %d (%d taken), calls: %d, returns: %d@."
          s.S4e_cpu.Tracer.st_branches s.S4e_cpu.Tracer.st_taken
          s.S4e_cpu.Tracer.st_calls s.S4e_cpu.Tracer.st_returns
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and execute a program on the virtual prototype.")
    Term.(const action $ file_arg $ fuel_arg $ trace_arg $ input_arg
          $ cache_arg $ profile_arg $ metrics_arg $ config_term
          $ trace_stats_arg $ trace_events_arg $ record_arg)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"Rows in the hot-block and hot-function tables.")
  in
  let disas_arg =
    Arg.(value & flag & info [ "disas" ]
           ~doc:"Also disassemble the hottest block.")
  in
  let action file fuel top disas =
    let p = assemble_file file in
    let r = S4e_core.Flows.profile_flow ~fuel p in
    let prof = r.S4e_core.Flows.pf_profile in
    Format.printf "-- %a; %d instructions, %d cycles@."
      S4e_cpu.Machine.pp_stop_reason r.S4e_core.Flows.pf_stop
      (S4e_cpu.Machine.instret r.S4e_core.Flows.pf_machine)
      (S4e_cpu.Machine.cycles r.S4e_core.Flows.pf_machine);
    Format.printf "%a"
      (S4e_obs.Profile.pp_report ~top
         ~symbolize:r.S4e_core.Flows.pf_symbolize)
      prof;
    if disas then
      match S4e_obs.Profile.ranked prof with
      | [] -> ()
      | b :: _ ->
          Format.printf "hottest block @@ 0x%08x:@."
            b.S4e_obs.Profile.bl_pc;
          List.iter
            (fun l -> Format.printf "  %a@." S4e_asm.Disasm.pp_line l)
            (S4e_asm.Disasm.disassemble_range
               ~mem:(S4e_mem.Bus.ram r.S4e_core.Flows.pf_machine.S4e_cpu.Machine.bus)
               ~start:b.S4e_obs.Profile.bl_pc
               ~len:(max 4 b.S4e_obs.Profile.bl_bytes) ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a program with the hot-spot profiler and print the ranked \
             hot-block/hot-function report.")
    Term.(const action $ file_arg $ fuel_arg $ top_arg $ disas_arg)

(* ---------------- mutate ---------------- *)

let mutate_cmd =
  let tests_arg =
    Arg.(value & opt_all string [] & info [ "test"; "t" ] ~docv:"BYTES"
           ~doc:"A test stimulus: bytes fed to the UART (repeatable). With \
                 no tests, one empty-input test is used.")
  in
  let ops_arg =
    Arg.(value & opt (some string) None & info [ "operators" ] ~docv:"OPS"
           ~doc:"Comma-separated operator subset (AOR,ROR,COR,SOR,SDL).")
  in
  let survivors_arg =
    Arg.(value & flag & info [ "survivors" ]
           ~doc:"List every surviving mutant.")
  in
  let action file tests ops survivors fuel =
    let p = assemble_file file in
    let operators =
      match ops with
      | None -> S4e_mutation.Mutop.all
      | Some s ->
          String.split_on_char ',' s
          |> List.filter_map (fun name ->
                 List.find_opt
                   (fun op ->
                     String.uppercase_ascii name = S4e_mutation.Mutop.name op)
                   S4e_mutation.Mutop.all)
    in
    let mutants = S4e_mutation.Mutant.generate ~operators p in
    let tests =
      match tests with
      | [] -> [ S4e_mutation.Score.test ~fuel ~name:"t0" "" ]
      | l ->
          List.mapi
            (fun i input ->
              S4e_mutation.Score.test ~fuel
                ~name:(Printf.sprintf "t%d" i)
                input)
            l
    in
    let results = S4e_mutation.Score.run p ~tests ~mutants in
    let s = S4e_mutation.Score.summarize results in
    Format.printf "%a@." S4e_mutation.Score.pp_score s;
    if survivors then
      List.iter
        (fun m -> Format.printf "survived: %s@." (S4e_mutation.Mutant.describe m))
        (S4e_mutation.Score.survivors results)
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Binary mutation analysis: score a test set by mutant killing.")
    Term.(const action $ file_arg $ tests_arg $ ops_arg $ survivors_arg $ fuel_arg)

(* ---------------- asm ---------------- *)

let asm_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ]
           ~docv:"OUT.bin" ~doc:"Output image path.")
  in
  let action file out =
    let p = assemble_file file in
    S4e_asm.Program.save p out;
    Format.printf "wrote %s (%d bytes of payload, entry 0x%08x)@." out
      (S4e_asm.Program.size p) p.S4e_asm.Program.entry
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a program into a loadable binary image.")
    Term.(const action $ file_arg $ out_arg)

(* ---------------- dis ---------------- *)

let dis_cmd =
  let action file =
    let p = assemble_file file in
    List.iter
      (fun l -> Format.printf "%a@." S4e_asm.Disasm.pp_line l)
      (S4e_asm.Disasm.disassemble_program p)
  in
  Cmd.v
    (Cmd.info "dis" ~doc:"Assemble and disassemble a program.")
    Term.(const action $ file_arg)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let action file =
    let p = assemble_file file in
    let s = S4e_cfg.Static_stats.analyze p in
    Format.printf "%a" S4e_cfg.Static_stats.pp s;
    Format.printf "minimal ISA: %s@."
      (S4e_isa.Isa_module.isa_string
         (S4e_cfg.Static_stats.required_modules s))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Static instruction-set analysis (histograms, register \
             pressure, minimal ISA).")
    Term.(const action $ file_arg)

(* ---------------- cfg ---------------- *)

let cfg_cmd =
  let action file =
    let p = assemble_file file in
    let decode = S4e_cfg.Cfg.decoder_of_program p in
    let cg = S4e_cfg.Callgraph.build ~decode ~entry:p.S4e_asm.Program.entry in
    List.iter
      (fun (entry, g) ->
        Format.printf "function @@ 0x%08x:@.%a@." entry S4e_cfg.Cfg.pp g)
      cg.S4e_cfg.Callgraph.functions
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Reconstruct and print the control-flow graph.")
    Term.(const action $ file_arg)

(* ---------------- wcet ---------------- *)

let annot_arg =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
        let label = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt v with
        | Some b -> Ok (label, b)
        | None -> Error (`Msg ("bad bound in " ^ s)))
    | None -> Error (`Msg ("expected LABEL=BOUND, got " ^ s))
  in
  let print fmt (l, b) = Format.fprintf fmt "%s=%d" l b in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "annot"; "a" ] ~docv:"LABEL=BOUND"
           ~doc:"Loop-bound annotation for the loop whose header carries LABEL.")

let cosim_arg =
  Arg.(value & flag & info [ "cosim" ]
         ~doc:"Also run the QTA co-simulation and report the path WCET.")

let wcet_cmd =
  let action file annotations cosim fuel =
    let p = assemble_file file in
    if cosim then
      match S4e_core.Flows.wcet_flow ~annotations ~fuel p with
      | Error e ->
          Format.eprintf "wcet: %s@." (S4e_wcet.Analysis.describe_error e);
          exit 1
      | Ok r ->
          Format.printf "%a" S4e_wcet.Analysis.pp_report
            r.S4e_core.Flows.wr_report;
          Format.printf "co-simulation: dynamic=%d path-wcet=%d static=%d (%a)@."
            r.S4e_core.Flows.wr_dynamic r.S4e_core.Flows.wr_path
            r.S4e_core.Flows.wr_static S4e_cpu.Machine.pp_stop_reason
            r.S4e_core.Flows.wr_stop
    else
      match S4e_wcet.Analysis.analyze ~annotations p with
      | Error e ->
          Format.eprintf "wcet: %s@." (S4e_wcet.Analysis.describe_error e);
          exit 1
      | Ok report -> Format.printf "%a" S4e_wcet.Analysis.pp_report report
  in
  Cmd.v
    (Cmd.info "wcet" ~doc:"Static WCET analysis (optionally with QTA co-simulation).")
    Term.(const action $ file_arg $ annot_arg $ cosim_arg $ fuel_arg)

(* ---------------- qta-export ---------------- *)

let qta_export_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Output path (default: stdout).")
  in
  let action file annotations out =
    let p = assemble_file file in
    match S4e_wcet.Annotated_cfg.of_program ~annotations p with
    | Error e ->
        Format.eprintf "qta-export: %s@." (S4e_wcet.Analysis.describe_error e);
        exit 1
    | Ok acfg -> (
        let s = S4e_wcet.Annotated_cfg.to_string acfg in
        match out with
        | None -> print_string s
        | Some path ->
            let oc = open_out path in
            output_string oc s;
            close_out oc)
  in
  Cmd.v
    (Cmd.info "qta-export"
       ~doc:"Write the WCET-annotated CFG (ait2qta interchange format).")
    Term.(const action $ file_arg $ annot_arg $ out_arg)

(* ---------------- coverage ---------------- *)

let coverage_cmd =
  let torture_n =
    Arg.(value & opt int 5 & info [ "torture-programs" ] ~docv:"N"
           ~doc:"Number of random torture programs in the third suite.")
  in
  let action torture_n jobs =
    let isa = S4e_cpu.Machine.default_config.S4e_cpu.Machine.isa in
    let suites =
      [ ("architectural", S4e_torture.Suites.arch_suite ~isa);
        ("unit", S4e_torture.Suites.unit_suite ~isa);
        ("torture",
         S4e_torture.Suites.torture_suite ~isa
           ~seeds:(List.init torture_n (fun i -> i + 1))) ]
    in
    let reports =
      List.map
        (fun (name, progs) ->
          (name, S4e_core.Flows.coverage_of_suite ~jobs progs))
        suites
    in
    List.iter
      (fun (name, rep) ->
        Format.printf "== %s ==@.%a@." name S4e_coverage.Report.pp rep)
      reports;
    let union =
      List.fold_left
        (fun acc (_, r) -> S4e_coverage.Report.combine acc r)
        (S4e_coverage.Report.create ~isa)
        reports
    in
    Format.printf "== unified suite ==@.%a@." S4e_coverage.Report.pp union
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Instruction and register coverage of the three test suites.")
    Term.(const action $ torture_n $ jobs_arg)

(* ---------------- fault ---------------- *)

let fault_cmd =
  let mutants_arg =
    Arg.(value & opt int 100 & info [ "mutants"; "n" ] ~docv:"N"
           ~doc:"Number of mutants to generate.")
  in
  let blind_arg =
    Arg.(value & flag & info [ "blind" ]
           ~doc:"Ignore coverage guidance when choosing injection sites.")
  in
  let rerun_arg =
    Arg.(value & flag & info [ "rerun" ]
           ~doc:"Use the naive engine (every mutant re-runs from reset, no \
                 snapshot forking or early exit).")
  in
  let fault_fuel_arg =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Per-run instruction budget (golden run and every mutant). \
                 Default: 10 million for the golden run, 3x the golden \
                 instruction count per mutant (hang detection).")
  in
  let trace_events_arg =
    Arg.(value & opt (some string) None & info [ "trace-events" ]
           ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the campaign (one lane \
                 per worker domain) to FILE; load it in Perfetto or \
                 chrome://tracing.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the campaign metrics snapshot (JSON) to FILE; '-' \
                 for stdout.")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Live mutants/sec + ETA meter on stderr.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Record every classified mutant to a JSONL journal at FILE \
                 (truncated first) so an interrupted campaign can be resumed \
                 with --resume.")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume from the journal at FILE: mutants it already \
                 classified are skipped and new records are appended in \
                 place. The journal must belong to this exact campaign \
                 (same program, seed, mutant count, and shard).")
  in
  let shard_arg =
    let parse s =
      match String.split_on_char '/' s with
      | [ i; n ] -> (
          match (int_of_string_opt i, int_of_string_opt n) with
          | Some i, Some n when n > 0 && i >= 0 && i < n -> Ok (i, n)
          | _ -> Error (`Msg ("expected I/N with 0 <= I < N, got " ^ s)))
      | _ -> Error (`Msg ("expected I/N, got " ^ s))
    in
    let print fmt (i, n) = Format.fprintf fmt "%d/%d" i n in
    Arg.(value & opt (some (conv (parse, print))) None
         & info [ "shard" ] ~docv:"I/N"
             ~doc:"Run only shard I of N (mutant indices congruent to I mod \
                   N). All N shard journals merge back into one campaign \
                   with 's4e merge-journals'.")
  in
  let timeout_arg =
    Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Wall-clock budget per mutant (a second hang defense behind \
                 the instruction budget); mutants over it are classified \
                 hung. 0 disables it. Note: makes borderline outcomes \
                 machine-dependent.")
  in
  let triage_arg =
    Arg.(value & opt ~vopt:(Some 8) (some int) None & info [ "triage" ]
           ~docv:"K"
           ~doc:"After the campaign, re-run up to K (default 8) of the \
                 divergent mutants (sdc/crashed/hung) in lockstep against \
                 a golden run with flight recorders armed, and report each \
                 mutant's first architectural divergence (pc, instruction, \
                 register/memory delta) plus the ranked top faulty sites.")
  in
  let triage_out_arg =
    Arg.(value & opt (some string) None & info [ "triage-out" ] ~docv:"FILE"
           ~doc:"Write the triage records produced by --triage to FILE as \
                 JSONL (one object per triaged mutant).")
  in
  let action file mutants seed blind rerun fuel jobs trace_events metrics
      progress journal resume shard timeout triage triage_out =
    let p = assemble_file file in
    let engine =
      if rerun then S4e_fault.Campaign.rerun_engine
      else S4e_fault.Campaign.default_engine
    in
    let engine = { engine with S4e_fault.Campaign.eng_timeout_s = timeout } in
    let cfg =
      { S4e_core.Flows.default_fault_config with
        S4e_core.Flows.ff_seed = seed; ff_mutants = mutants;
        ff_blind = blind;
        ff_fuel = Option.value fuel ~default:10_000_000;
        ff_hang_budget =
          (match fuel with
          | Some _ -> S4e_core.Flows.Hang_fuel
          | None -> S4e_core.Flows.Hang_auto);
        ff_engine = engine }
    in
    let sink = Option.map (fun _ -> S4e_obs.Trace_events.create ()) trace_events in
    let reg = Option.map (fun _ -> S4e_obs.Metrics.create ()) metrics in
    (* Idempotent telemetry flush: the normal path and the force-quit
       SIGINT path below both call it, so the trace/metrics files
       survive even a second ^C (the campaign journal already has its
       own crash-safe batching). *)
    let flushed = Atomic.make false in
    let flush_outputs () =
      if not (Atomic.exchange flushed true) then begin
        (match (sink, trace_events) with
        | Some s, Some path ->
            S4e_obs.Trace_events.write s path;
            Format.printf "wrote %d trace events to %s@."
              (S4e_obs.Trace_events.events s)
              path
        | _ -> ());
        match (reg, metrics) with
        | Some reg, Some path -> S4e_obs.Metrics.write_json reg path
        | _ -> ()
      end
    in
    (* Cooperative shutdown on SIGINT and SIGTERM: workers finish
       their in-flight mutants, the journal is flushed, and the partial
       summary still prints.  A second signal force-quits - flushing
       the telemetry sinks on the way out so an impatient interrupt
       doesn't lose the trace.  The exit code names the signal (130 =
       INT, 143 = TERM) so supervisors that sent SIGTERM see the
       conventional code. *)
    let stop = Atomic.make false in
    let signal_exit = Atomic.make 130 in
    let handler signum =
      Atomic.set signal_exit (if signum = Sys.sigterm then 143 else 130);
      if Atomic.get stop then begin
        flush_outputs ();
        Stdlib.exit (Atomic.get signal_exit)
      end;
      Atomic.set stop true;
      prerr_endline
        "\ninterrupt: finishing in-flight mutants (again to force quit)"
    in
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    let r =
      match
        S4e_core.Flows.fault_campaign ~jobs ?metrics:reg ?trace:sink
          ~progress ?journal ?resume ?shard
          ~cancelled:(fun () -> Atomic.get stop)
          cfg p
      with
      | Ok r -> r
      | Error e ->
          Format.eprintf "fault: %s@." e;
          exit 1
    in
    Format.printf "%a@." S4e_fault.Campaign.pp_summary r.S4e_core.Flows.ff_summary;
    if r.S4e_core.Flows.ff_resumed > 0 then
      Format.printf "resumed: %d mutants already classified in the journal@."
        r.S4e_core.Flows.ff_resumed;
    List.iter
      (fun (f, o) ->
        if o <> S4e_fault.Campaign.Masked then
          Format.printf "  %-8s %a@."
            (S4e_fault.Campaign.outcome_name o)
            S4e_fault.Fault.pp f)
      r.S4e_core.Flows.ff_results;
    (match triage with
    | Some sample when r.S4e_core.Flows.ff_complete ->
        let recs = S4e_core.Flows.fault_triage ~sample cfg p r in
        if recs = [] then Format.printf "triage: no divergent mutants@."
        else begin
          Format.printf "triage (%d mutants):@." (List.length recs);
          List.iter
            (fun t -> Format.printf "  %a@." S4e_fault.Campaign.pp_triage t)
            recs;
          match S4e_fault.Campaign.top_sites recs with
          | [] -> ()
          | sites ->
              Format.printf "top faulty sites:@.";
              List.iteri
                (fun i (pc, c) ->
                  if i < 8 then
                    Format.printf "  0x%08x  %d mutant%s@." pc c
                      (if c = 1 then "" else "s"))
                sites
        end;
        (match triage_out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            List.iter
              (fun t ->
                output_string oc (S4e_fault.Campaign.triage_to_json t);
                output_char oc '\n')
              recs;
            close_out oc;
            Format.printf "wrote %d triage records to %s@."
              (List.length recs) path)
    | Some _ ->
        Format.printf "triage: skipped (campaign interrupted)@."
    | None -> ());
    flush_outputs ();
    if not r.S4e_core.Flows.ff_complete then begin
      (match (journal, resume) with
      | Some f, _ | None, Some f ->
          Format.printf "interrupted: %d mutants classified; continue with \
                         --resume %s@."
            r.S4e_core.Flows.ff_summary.S4e_fault.Campaign.total f
      | None, None ->
          Format.printf "interrupted: %d mutants classified (no journal - \
                         rerun from scratch)@."
            r.S4e_core.Flows.ff_summary.S4e_fault.Campaign.total);
      exit (Atomic.get signal_exit)
    end
  in
  Cmd.v
    (Cmd.info "fault" ~doc:"Coverage-guided bit-flip fault campaign.")
    Term.(const action $ file_arg $ mutants_arg $ seed_arg $ blind_arg
          $ rerun_arg $ fault_fuel_arg $ jobs_arg $ trace_events_arg
          $ metrics_arg $ progress_arg $ journal_arg $ resume_arg
          $ shard_arg $ timeout_arg $ triage_arg $ triage_out_arg)

(* ---------------- merge-journals ---------------- *)

let merge_journals_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"JOURNAL"
           ~doc:"Shard journal files of one campaign.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Also write the merged records as a single unsharded journal \
                 to OUT.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print a machine-readable merge summary (one JSON object) on \
                 stdout instead of the human summary. Merge conflicts become \
                 an {\"error\": ...} object; the exit code still reports \
                 conflict or incompleteness.")
  in
  let action files out json =
    let module J = S4e_obs.Json in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          if json then
            print_endline
              (J.to_string
                 (J.Obj
                    [ ("s4e_merge_schema", J.Int 1);
                      ("error", J.String msg) ]))
          else Format.eprintf "merge-journals: %s@." msg;
          exit 1)
        fmt
    in
    let inputs =
      List.map
        (fun path ->
          match S4e_fault.Journal.read path with
          | Ok j -> j
          | Error e -> fail "%s: %s" path e)
        files
    in
    match S4e_fault.Journal.merge inputs with
    | Error e -> fail "%s" e
    | Ok (h, records) ->
        let results =
          List.map
            (fun r ->
              (r.S4e_fault.Journal.r_fault, r.S4e_fault.Journal.r_outcome))
            records
        in
        let summary = S4e_fault.Campaign.summarize results in
        let complete = S4e_fault.Journal.is_complete h records in
        if json then
          print_endline
            (J.to_string
               (J.Obj
                  [ ("s4e_merge_schema", J.Int 1);
                    ("seed", J.Int h.S4e_fault.Journal.j_seed);
                    ("total", J.Int h.S4e_fault.Journal.j_total);
                    ("program", J.String h.S4e_fault.Journal.j_program);
                    ("journals", J.Int (List.length files));
                    ("records", J.Int (List.length records));
                    ("expected", J.Int (S4e_fault.Journal.expected_count h));
                    ("complete", J.Bool complete);
                    ("summary", S4e_fault.Campaign.summary_to_json summary) ]))
        else
          Format.printf "%a@." S4e_fault.Campaign.pp_summary summary;
        (match out with
        | None -> ()
        | Some path -> (
            match S4e_fault.Journal.create ~path h with
            | Error e -> fail "%s: %s" path e
            | Ok w ->
                List.iter (S4e_fault.Journal.write w) records;
                S4e_fault.Journal.close w;
                if not json then
                  Format.printf "wrote %d records to %s@."
                    (List.length records) path));
        if not complete then begin
          if not json then
            Format.eprintf
              "merge-journals: incomplete campaign: %d/%d mutants classified@."
              (List.length records) h.S4e_fault.Journal.j_total;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "merge-journals"
       ~doc:"Merge the journals of a sharded fault campaign and print the \
             combined summary.")
    Term.(const action $ files_arg $ out_arg $ json_arg)

(* ---------------- fleet: serve / worker / submit / jobs ----------- *)

module Fleet = S4e_fleet

let default_fleet_addr = "127.0.0.1:4750"

let fleet_addr s =
  match Fleet.Http.addr_of_string s with
  | Ok a -> a
  | Error e ->
      Format.eprintf "s4e: %s@." e;
      exit 1

let connect_arg =
  Arg.(value & opt string default_fleet_addr
       & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Orchestrator address: HOST:PORT, PORT, or unix:PATH.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"Suppress per-event log lines on stderr.")

(* Block until a signal flips the flag: handlers must not take the
   server's locks themselves, so they only set the atomic and the main
   thread does the teardown. *)
let wait_for_shutdown () =
  let req = Atomic.make false in
  let handler _ = Atomic.set req true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  fun () ->
    while not (Atomic.get req) do
      Thread.delay 0.2
    done

let serve_cmd =
  let listen_arg =
    Arg.(value & opt string default_fleet_addr
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Address to serve the fleet API on: HOST:PORT, PORT (on \
                   127.0.0.1), or unix:PATH. Port 0 picks an ephemeral \
                   port (printed).")
  in
  let ttl_arg =
    Arg.(value & opt float 30.0 & info [ "lease-ttl" ] ~docv:"SECS"
           ~doc:"Shard lease expiry. A worker that streams no records and \
                 sends no heartbeat for this long loses its shard to the \
                 next worker; its already-streamed records are kept.")
  in
  let journal_dir_arg =
    Arg.(value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR"
           ~doc:"Write each completed job's merged journal to DIR/JOB.jsonl \
                 (readable by 's4e merge-journals'); on shutdown, running \
                 jobs flush to DIR/JOB.partial.jsonl.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Also write the final metrics snapshot (JSON) to FILE on \
                 shutdown; '-' for stdout. The live registry is always \
                 available at GET /metrics.")
  in
  let action listen ttl journal_dir metrics quiet =
    (match journal_dir with
    | Some d when not (Sys.file_exists d) -> (
        try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
    | _ -> ());
    let reg = S4e_obs.Metrics.create () in
    let log =
      if quiet then fun _ -> ()
      else fun m -> Printf.eprintf "s4e serve: %s\n%!" m
    in
    let server = Fleet.Server.create ~ttl ?journal_dir ~metrics:reg ~log () in
    let wait = wait_for_shutdown () in
    match Fleet.Server.start server (fleet_addr listen) with
    | Error e ->
        Format.eprintf "serve: %s@." e;
        exit 1
    | Ok bound ->
        Printf.printf "s4e serve: listening on %s\n%!"
          (Fleet.Http.addr_to_string bound);
        wait ();
        log "shutting down";
        Fleet.Server.stop server;
        Option.iter (S4e_obs.Metrics.write_json reg) metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the campaign fleet orchestrator: accept job submissions, \
             lease shards to workers, merge their journal streams live, \
             and re-lease the shards of dead workers.")
    Term.(const action $ listen_arg $ ttl_arg $ journal_dir_arg
          $ metrics_arg $ quiet_arg)

(* Non-exiting variant of [assemble_file]: a worker must survive a job
   whose program does not assemble — the shard fails, not the
   process. *)
let try_assemble path =
  match (try Ok (read_file path) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok content ->
      if String.length content >= 4 && String.sub content 0 4 = "S4EP" then
        Result.map_error
          (fun m -> path ^ ": malformed image: " ^ m)
          (S4e_asm.Program.of_bytes content)
      else (
        match S4e_asm.Assembler.assemble content with
        | Ok p -> Ok p
        | Error e ->
            Error (Format.asprintf "%s: %a" path S4e_asm.Assembler.pp_error e))

(* The job spec -> campaign config mapping mirrors the [fault]
   subcommand's defaults exactly, so a fleet run of a spec and a local
   [s4e fault] with the same flags classify identically. *)
let fleet_spec_campaign spec =
  let module J = S4e_obs.Json in
  match J.mem_str "program" spec with
  | None -> Error "spec: missing program"
  | Some path ->
      let fuel = J.mem_int "fuel" spec in
      let engine =
        if J.mem_str "engine" spec = Some "rerun" then
          S4e_fault.Campaign.rerun_engine
        else S4e_fault.Campaign.default_engine
      in
      Ok
        ( path,
          { S4e_core.Flows.default_fault_config with
            S4e_core.Flows.ff_seed =
              Option.value (J.mem_int "seed" spec) ~default:1;
            ff_mutants = Option.value (J.mem_int "mutants" spec) ~default:100;
            ff_blind = Option.value (J.mem_bool "blind" spec) ~default:false;
            ff_fuel = Option.value fuel ~default:10_000_000;
            ff_hang_budget =
              (match fuel with
              | Some _ -> S4e_core.Flows.Hang_fuel
              | None -> S4e_core.Flows.Hang_auto);
            ff_engine = engine } )

let worker_cmd =
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Worker name reported to the orchestrator (default: \
                 worker-PID).")
  in
  let poll_arg =
    Arg.(value & opt float 0.5 & info [ "poll" ] ~docv:"SECS"
           ~doc:"Idle backoff between lease requests when no work is \
                 available.")
  in
  let drain_arg =
    Arg.(value & flag & info [ "drain" ]
           ~doc:"Exit once the orchestrator reports no running jobs, \
                 instead of polling forever - for finite fleets in \
                 benchmarks and CI.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the worker's metrics snapshot (JSON) to FILE on \
                 exit; '-' for stdout.")
  in
  let action connect jobs name poll drain metrics quiet =
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
    in
    let reg = Option.map (fun _ -> S4e_obs.Metrics.create ()) metrics in
    let log =
      if quiet then fun _ -> ()
      else fun m -> Printf.eprintf "s4e worker: %s\n%!" m
    in
    let stop = ref false in
    let handler _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    let client = Fleet.Client.create (fleet_addr connect) in
    let runner ~spec ~shard ~resume ~emit ~cancelled =
      match fleet_spec_campaign spec with
      | Error e -> Error e
      | Ok (path, cfg) -> (
          match try_assemble path with
          | Error e -> Error e
          | Ok p ->
              (* The grant's resume payload becomes a journal file on
                 disk so the campaign resumes through the same
                 validated [--resume] path an interrupted local run
                 uses. *)
              let resume_path =
                Option.map
                  (fun (header, lines) ->
                    let tmp =
                      Filename.temp_file "s4e-fleet-resume" ".jsonl"
                    in
                    let oc = open_out_bin tmp in
                    output_string oc header;
                    output_char oc '\n';
                    List.iter
                      (fun l ->
                        output_string oc l;
                        output_char oc '\n')
                      lines;
                    close_out oc;
                    tmp)
                  resume
              in
              let result =
                S4e_core.Flows.fault_campaign ~jobs ?metrics:reg
                  ?resume:resume_path ~shard ~on_journal_line:emit ~cancelled
                  cfg p
              in
              Option.iter
                (fun f -> try Sys.remove f with Sys_error _ -> ())
                resume_path;
              match result with
              | Error e -> Error e
              | Ok r when r.S4e_core.Flows.ff_complete -> Ok ()
              | Ok _ -> Error "cancelled before the shard finished")
    in
    match
      Fleet.Worker.run ~name ~poll_s:poll ~stop ~drain ?metrics:reg ~log
        ~client ~runner ()
    with
    | Error e ->
        Format.eprintf "worker: %s@." e;
        exit 1
    | Ok o ->
        Printf.printf
          "worker %s: %d shards completed, %d failed, %d journal lines \
           streamed\n"
          name o.Fleet.Worker.o_shards_ok o.Fleet.Worker.o_shards_failed
          o.Fleet.Worker.o_records;
        (match (reg, metrics) with
        | Some reg, Some path -> S4e_obs.Metrics.write_json reg path
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Run a fleet worker: pull shard leases from the orchestrator, \
             run the campaign shards, and stream the journal back.")
    Term.(const action $ connect_arg $ jobs_arg $ name_arg $ poll_arg
          $ drain_arg $ metrics_arg $ quiet_arg)

let fleet_request client ~meth ~path ?body () =
  match Fleet.Client.request client ~meth ~path ?body () with
  | Error e ->
      Format.eprintf "s4e: %s: %s@."
        (Fleet.Http.addr_to_string (Fleet.Client.addr client))
        e;
      exit 1
  | Ok (status, reply) ->
      if status < 200 || status > 299 then begin
        Format.eprintf "s4e: HTTP %d: %s@." status
          (Option.value
             (S4e_obs.Json.mem_str "error" reply)
             ~default:(S4e_obs.Json.to_string reply));
        exit 1
      end;
      reply

let submit_cmd =
  let mutants_arg =
    Arg.(value & opt int 100 & info [ "mutants"; "n" ] ~docv:"N"
           ~doc:"Number of mutants to generate.")
  in
  let fuel_arg =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Per-run instruction budget, as in 's4e fault --fuel'.")
  in
  let blind_arg =
    Arg.(value & flag & info [ "blind" ]
           ~doc:"Ignore coverage guidance when choosing injection sites.")
  in
  let rerun_arg =
    Arg.(value & flag & info [ "rerun" ]
           ~doc:"Use the naive re-run engine, as in 's4e fault --rerun'.")
  in
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shards to split the campaign into; each is leased to a \
                 worker independently.")
  in
  let wait_arg =
    Arg.(value & flag & info [ "wait" ]
           ~doc:"Block until the job finishes and print the merged campaign \
                 summary (first line matches 's4e fault' output); exit 1 if \
                 the job fails.")
  in
  let poll_arg =
    Arg.(value & opt float 0.5 & info [ "poll" ] ~docv:"SECS"
           ~doc:"Status poll interval with --wait.")
  in
  let action file connect mutants seed fuel blind rerun shards wait poll =
    let module J = S4e_obs.Json in
    if shards <= 0 then begin
      Format.eprintf "submit: --shards must be positive@.";
      exit 1
    end;
    (* Workers read the program themselves, so ship an absolute path -
       and reject a file that does not assemble before occupying the
       fleet with it. *)
    let path =
      try Unix.realpath file with Unix.Unix_error _ | Sys_error _ -> file
    in
    ignore (assemble_file path : S4e_asm.Program.t);
    let spec =
      J.Obj
        ([ ("program", J.String path); ("mutants", J.Int mutants);
           ("seed", J.Int seed); ("shards", J.Int shards) ]
        @ (match fuel with Some f -> [ ("fuel", J.Int f) ] | None -> [])
        @ (if blind then [ ("blind", J.Bool true) ] else [])
        @ if rerun then [ ("engine", J.String "rerun") ] else [])
    in
    let client = Fleet.Client.create (fleet_addr connect) in
    let reply =
      fleet_request client ~meth:"POST" ~path:"/api/jobs" ~body:spec ()
    in
    let job =
      match J.mem_str "job" reply with
      | Some id -> id
      | None ->
          Format.eprintf "submit: malformed reply: %s@." (J.to_string reply);
          exit 1
    in
    if not wait then
      Printf.printf "submitted %s (%d shards); poll with: s4e jobs %s\n" job
        shards job
    else begin
      let rec poll_status () =
        let st =
          fleet_request client ~meth:"GET" ~path:("/api/jobs/" ^ job) ()
        in
        match J.mem_str "state" st with
        | Some "running" | None ->
            Thread.delay poll;
            poll_status ()
        | Some state -> (state, st)
      in
      match poll_status () with
      | "done", st ->
          let summary =
            match
              Option.bind (J.mem "summary" st) S4e_fault.Campaign.summary_of_json
            with
            | Some s -> s
            | None ->
                Format.eprintf "submit: job %s: malformed summary: %s@." job
                  (J.to_string st);
                exit 1
          in
          Format.printf "%a@." S4e_fault.Campaign.pp_summary summary;
          Printf.printf "job %s: done in %.1fs\n" job
            (match J.mem "age_s" st with
            | Some v -> Option.value (J.num v) ~default:0.
            | None -> 0.);
          Option.iter
            (fun p -> Printf.printf "journal: %s\n" p)
            (J.mem_str "journal" st)
      | state, st ->
          Format.eprintf "submit: job %s %s: %s@." job state
            (Option.value (J.mem_str "error" st) ~default:"(no reason)");
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a fault campaign to the fleet orchestrator as a \
             sharded job.")
    Term.(const action $ file_arg $ connect_arg $ mutants_arg $ seed_arg
          $ fuel_arg $ blind_arg $ rerun_arg $ shards_arg $ wait_arg
          $ poll_arg)

let jobs_cmd =
  let id_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB"
           ~doc:"Job id; omit to list every job.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the orchestrator's JSON status verbatim.")
  in
  let action connect id json =
    let module J = S4e_obs.Json in
    let client = Fleet.Client.create (fleet_addr connect) in
    let path =
      match id with Some id -> "/api/jobs/" ^ id | None -> "/api/jobs"
    in
    let reply = fleet_request client ~meth:"GET" ~path () in
    if json then print_endline (J.to_string reply)
    else
      let describe v =
        let str k = Option.value (J.mem_str k v) ~default:"?" in
        let shards =
          Option.value (J.mem "shards" v) ~default:J.Null
        in
        let n k = Option.value (J.mem_int k shards) ~default:0 in
        Printf.printf "%-6s %-8s records=%s/%s shards=%d/%d leased=%d%s\n"
          (str "job") (str "state")
          (match J.mem_int "records" v with
          | Some r -> string_of_int r
          | None -> "?")
          (match J.mem_int "total" v with
          | Some t -> string_of_int t
          | None -> "?")
          (n "done") (n "count") (n "leased")
          (match J.mem_str "error" v with
          | Some e -> "  error: " ^ e
          | None -> "")
      in
      match J.mem_list "jobs" reply with
      | Some jobs ->
          if jobs = [] then print_endline "no jobs"
          else List.iter describe jobs
      | None -> describe reply
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"Show fleet job status from the orchestrator.")
    Term.(const action $ connect_arg $ id_arg $ json_arg)

(* ---------------- torture ---------------- *)

let torture_cmd =
  let segments_arg =
    Arg.(value & opt int 20 & info [ "segments" ] ~docv:"N"
           ~doc:"Number of generated segments.")
  in
  let compress_arg =
    Arg.(value & flag & info [ "rvc" ] ~doc:"Emit compressed encodings.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"OUT.bin"
           ~doc:"Also save the generated program as a binary image.")
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N"
           ~doc:"Generate and run N programs with seeds SEED..SEED+N-1 \
                 (domain-parallel with --jobs).")
  in
  let device_plane_arg =
    Arg.(value & flag & info [ "device-plane" ]
           ~doc:"Arm the deterministic device-traffic rig (vnet generator \
                 burst + delayed DMA descriptors) concurrently with each \
                 run and append a device/digest summary to the result \
                 line. The summary is engine-independent: it must match \
                 across --no-mem-tlb / --no-superblocks.")
  in
  let action seed segments compress out count jobs
      (config : S4e_cpu.Machine.config) dev =
    let harts = config.S4e_cpu.Machine.harts in
    let cfg_of seed =
      { S4e_torture.Torture.default_config with
        S4e_torture.Torture.seed; segments; compress }
    in
    let pp_dev ppf = function
      | Some s -> Format.fprintf ppf "; %s" s
      | None -> ()
    in
    if harts > 1 then begin
      let rounds = 8 in
      List.iter
        (fun (name, p) ->
          let m = S4e_cpu.Machine.create ~config () in
          S4e_asm.Program.load_machine p m;
          let stop =
            S4e_cpu.Machine.run m ~fuel:(S4e_torture.Smp.fuel ~harts ~rounds)
          in
          Format.printf "smp %s: %a; %d instructions; digest %s@." name
            S4e_cpu.Machine.pp_stop_reason stop
            (S4e_cpu.Machine.instret m)
            (Digest.to_hex (S4e_cpu.Machine.state_digest m)))
        (S4e_torture.Smp.suite ~harts ~rounds)
    end
    else if count <= 1 then begin
      let cfg = cfg_of seed in
      let p = S4e_torture.Torture.generate cfg in
      (match out with
      | Some path -> S4e_asm.Program.save p path
      | None -> ());
      let r =
        S4e_core.Flows.run ~config ~device_traffic:dev
          ~fuel:(S4e_torture.Torture.fuel_bound cfg) p
      in
      Format.printf "torture seed=%d: %a; %d instructions%a@." seed
        S4e_cpu.Machine.pp_stop_reason r.S4e_core.Flows.rr_stop
        r.S4e_core.Flows.rr_instret pp_dev r.S4e_core.Flows.rr_dev
    end
    else begin
      let fuel = S4e_torture.Torture.fuel_bound (cfg_of seed) in
      let suite =
        List.init count (fun i ->
            let s = seed + i in
            (string_of_int s, S4e_torture.Torture.generate (cfg_of s)))
      in
      let results =
        S4e_core.Flows.run_suite ~config ~device_traffic:dev ~fuel ~jobs
          suite
      in
      List.iter
        (fun (name, r) ->
          Format.printf "torture seed=%s: %a; %d instructions%a@." name
            S4e_cpu.Machine.pp_stop_reason r.S4e_core.Flows.rr_stop
            r.S4e_core.Flows.rr_instret pp_dev r.S4e_core.Flows.rr_dev)
        results
    end
  in
  let man =
    [ `S Manpage.s_description;
      `P "With $(b,--harts) N > 1, run the deterministic SMP workloads \
          (spinlock and IPI ring, lib/torture/smp.ml) on an N-hart machine \
          instead of random programs, and print each final state digest. \
          The digests are engine-independent: they must match across \
          $(b,--no-mem-tlb) / $(b,--no-superblocks)." ]
  in
  Cmd.v
    (Cmd.info "torture" ~doc:"Generate and run random test programs." ~man)
    Term.(const action $ seed_arg $ segments_arg $ compress_arg $ out_arg
          $ count_arg $ jobs_arg $ config_term $ device_plane_arg)

(* ---------------- bmi ---------------- *)

let bmi_cmd =
  let n_arg =
    Arg.(value & opt int 256 & info [ "words" ] ~docv:"N"
           ~doc:"Input array length in words.")
  in
  let action n seed =
    Format.printf "%-10s %-8s %-8s %s@." "kernel" "base" "bmi" "speedup";
    List.iter
      (fun k ->
        let base = S4e_bmi.Kernels.measure k S4e_bmi.Kernels.Base ~n ~seed in
        let bmi = S4e_bmi.Kernels.measure k S4e_bmi.Kernels.Bmi ~n ~seed in
        Format.printf "%-10s %-8d %-8d %.2fx@." k.S4e_bmi.Kernels.k_name
          base.S4e_bmi.Kernels.m_cycles bmi.S4e_bmi.Kernels.m_cycles
          (float_of_int base.S4e_bmi.Kernels.m_cycles
          /. float_of_int bmi.S4e_bmi.Kernels.m_cycles))
      S4e_bmi.Kernels.all
  in
  Cmd.v
    (Cmd.info "bmi" ~doc:"Cycle comparison of base-ISA vs BMI kernels.")
    Term.(const action $ n_arg $ seed_arg)

let () =
  let info =
    Cmd.info "s4e" ~version:"1.0.0"
      ~doc:"The Scale4Edge RISC-V ecosystem tools."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; profile_cmd; asm_cmd; dis_cmd; cfg_cmd; stats_cmd;
            wcet_cmd; qta_export_cmd; coverage_cmd; fault_cmd;
            merge_journals_cmd; serve_cmd; worker_cmd; submit_cmd; jobs_cmd;
            mutate_cmd; torture_cmd; bmi_cmd ]))
