module Machine = S4e_cpu.Machine
module Program = S4e_asm.Program

type word = int

type run_result = {
  rr_stop : Machine.stop_reason;
  rr_instret : int;
  rr_cycles : int;
  rr_uart : string;
  rr_dev : string option;
  rr_recorder : S4e_obs.Flight_recorder.t option;
}

let default_fuel = 10_000_000

(* Device-plane exercise rig: a host-armed traffic pattern that runs
   CONCURRENTLY with whatever program is executing, so torture programs
   are stressed by DMA writes, vnet deliveries and MEIP assertions they
   never asked for.  Everything is deterministic (fixed seed/cadence,
   event-wheel ordering), so cross-engine digest comparisons stay
   exact.  The rig lives well above the torture data window. *)
let rig_base = S4e_soc.Memory_map.ram_base + 0x30_0000

let arm_device_rig ?(seed = 7) m =
  let bus = m.Machine.bus in
  let w32 = S4e_mem.Bus.write32 bus in
  let desc = S4e_soc.Dma.desc_size in
  (* rx ring: 32 descriptors, one 256-byte buffer each *)
  let rx_ring = rig_base and rx_bufs = rig_base + 0x1000 in
  for i = 0 to 31 do
    w32 (rx_ring + (i * desc)) (rx_bufs + (i * 256));
    w32 (rx_ring + (i * desc) + 8) 256;
    w32 (rx_ring + (i * desc) + 12) 0
  done;
  let vnet = S4e_soc.Memory_map.vnet_base in
  w32 (vnet + 0x00) 1 (* CTRL: enable *);
  w32 (vnet + 0x0C) rx_ring;
  w32 (vnet + 0x10) 32;
  w32 (vnet + 0x14) 32 (* all 32 buffers posted *);
  w32 (vnet + 0x2C) seed;
  w32 (vnet + 0x30) 128 (* rate *);
  w32 (vnet + 0x34) 4 (* burst *);
  w32 (vnet + 0x38) 128 (* payload length *);
  w32 (vnet + 0x3C) 256 (* arm: 256 packets *);
  (* DMA: 4 descriptors copying the torture data window into the rig
     area, spread out by DELAY so copies land mid-run and snapshot
     moving state — a cross-engine timing probe. *)
  let dma_ring = rig_base + 0x4000 and dma_dst = rig_base + 0x5000 in
  let data = S4e_soc.Memory_map.ram_base + 0x20000 in
  for i = 0 to 3 do
    w32 (dma_ring + (i * desc)) data;
    w32 (dma_ring + (i * desc) + 4) (dma_dst + (i * 0x400));
    w32 (dma_ring + (i * desc) + 8) 1024;
    w32 (dma_ring + (i * desc) + 12) 0
  done;
  let dma = S4e_soc.Memory_map.dma_base in
  w32 (dma + 0x00) dma_ring;
  w32 (dma + 0x04) 4;
  w32 (dma + 0x1C) 100 (* DELAY: spread completions across the run *);
  w32 (dma + 0x08) 4 (* doorbell *)

let device_summary m =
  let vn = S4e_soc.Vnet.stats m.Machine.vnet in
  let dm = S4e_soc.Dma.stats m.Machine.dma in
  let ws = S4e_soc.Event_wheel.stats m.Machine.wheel in
  Printf.sprintf "vnet rx=%d drop=%d dma=%dB wheel=%d digest=%s"
    vn.S4e_soc.Vnet.vn_rx_delivered vn.S4e_soc.Vnet.vn_rx_dropped
    dm.S4e_soc.Dma.dma_bytes ws.S4e_soc.Event_wheel.ws_fired
    (String.sub (Digest.to_hex (Machine.state_digest m)) 0 12)

let run ?config ?(device_traffic = false) ?record ?(fuel = default_fuel) p =
  let m = Machine.create ?config () in
  Program.load_machine p m;
  if device_traffic then arm_device_rig m;
  let recorder =
    match record with
    | None -> None
    | Some capacity ->
        let r = S4e_obs.Flight_recorder.create ~capacity () in
        Machine.set_recorder m (Some r);
        Some r
  in
  let stop = Machine.run m ~fuel in
  { rr_stop = stop;
    rr_instret = Machine.instret m;
    rr_cycles = Machine.cycles m;
    rr_uart = Machine.uart_output m;
    rr_dev = (if device_traffic then Some (device_summary m) else None);
    rr_recorder = recorder }

let coverage_of_program ?config ~fuel p =
  let m = Machine.create ?config () in
  let collector = S4e_coverage.Collector.attach m () in
  Program.load_machine p m;
  let (_ : Machine.stop_reason) = Machine.run m ~fuel in
  let rep = S4e_coverage.Collector.report collector in
  S4e_coverage.Collector.detach m collector;
  rep

let coverage_of_suite ?config ?(fuel = default_fuel) ?(jobs = 1) suite =
  let isa =
    match config with
    | Some c -> c.Machine.isa
    | None -> Machine.default_config.Machine.isa
  in
  let reports =
    if jobs <= 1 || List.length suite <= 1 then
      List.map (fun (_, p) -> coverage_of_program ?config ~fuel p) suite
    else
      S4e_par.Par_pool.with_pool ~jobs (fun pool ->
          S4e_par.Par_pool.map_chunked ~chunk:1 pool
            (fun (_, p) -> coverage_of_program ?config ~fuel p)
            suite)
  in
  (* [map_chunked] preserves input order, so the combine below folds the
     suite in the same order regardless of [jobs] *)
  List.fold_left S4e_coverage.Report.combine
    (S4e_coverage.Report.create ~isa)
    reports

let run_suite ?config ?device_traffic ?fuel ?(jobs = 1) suite =
  if jobs <= 1 || List.length suite <= 1 then
    List.map (fun (name, p) -> (name, run ?config ?device_traffic ?fuel p))
      suite
  else
    S4e_par.Par_pool.with_pool ~jobs (fun pool ->
        S4e_par.Par_pool.map_chunked ~chunk:1 pool
          (fun (name, p) -> (name, run ?config ?device_traffic ?fuel p))
          suite)

type wcet_result = {
  wr_static : int;
  wr_path : int;
  wr_dynamic : int;
  wr_report : S4e_wcet.Analysis.report;
  wr_stop : Machine.stop_reason;
}

let wcet_flow ?config ?(model = S4e_cpu.Timing_model.default)
    ?(annotations = []) ?(fuel = default_fuel) p =
  match S4e_wcet.Analysis.analyze ~model ~annotations p with
  | Error e -> Error e
  | Ok report -> (
      match S4e_wcet.Annotated_cfg.of_program ~model ~annotations p with
      | Error e -> Error e
      | Ok acfg ->
          let config =
            match config with
            | Some c -> { c with Machine.timing = model }
            | None -> { Machine.default_config with Machine.timing = model }
          in
          let m = Machine.create ~config () in
          let qta = S4e_wcet.Qta.attach m acfg in
          Program.load_machine p m;
          let stop = Machine.run m ~fuel in
          let qr = S4e_wcet.Qta.report qta in
          Ok
            { wr_static = report.S4e_wcet.Analysis.program_wcet;
              wr_path = qr.S4e_wcet.Qta.path_wcet;
              wr_dynamic = Machine.cycles m;
              wr_report = report;
              wr_stop = stop })

type hang_budget = Hang_fuel | Hang_auto | Hang_insns of int

type fault_flow_config = {
  ff_seed : int;
  ff_mutants : int;
  ff_targets : S4e_fault.Campaign.target list;
  ff_kinds : S4e_fault.Campaign.kind_choice list;
  ff_fuel : int;
  ff_hang_budget : hang_budget;
  ff_blind : bool;
  ff_engine : S4e_fault.Campaign.engine;
}

let default_fault_config =
  { ff_seed = 1; ff_mutants = 100; ff_targets = [ `Gpr; `Code; `Data ];
    ff_kinds = [ `Permanent; `Transient ]; ff_fuel = 1_000_000;
    ff_hang_budget = Hang_fuel; ff_blind = false;
    ff_engine = S4e_fault.Campaign.default_engine }

type fault_flow_result = {
  ff_summary : S4e_fault.Campaign.summary;
  ff_results : (S4e_fault.Fault.t * S4e_fault.Campaign.outcome) list;
  ff_indexed : (int * S4e_fault.Fault.t * S4e_fault.Campaign.outcome) list;
  ff_golden : S4e_fault.Campaign.signature;
  ff_resumed : int;
  ff_complete : bool;
}

(* A mutants/sec + ETA meter on stderr, rate-limited so per-mutant
   callbacks from fast campaigns don't turn into terminal spam.  The
   callback arrives from whichever domain classified the mutant, hence
   the mutex. *)
let progress_meter () =
  let mu = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  let last = ref 0.0 in
  fun done_ total ->
    Mutex.lock mu;
    let now = Unix.gettimeofday () in
    if done_ = total || now -. !last >= 0.25 then begin
      last := now;
      let dt = now -. t0 in
      let rate = if dt > 0.0 then float_of_int done_ /. dt else 0.0 in
      let eta =
        if rate > 0.0 then float_of_int (total - done_) /. rate else 0.0
      in
      Printf.eprintf "\r%d/%d mutants  %.0f/s  eta %.1fs " done_ total rate
        eta;
      if done_ = total then prerr_newline ();
      flush stderr
    end;
    Mutex.unlock mu

let ( let* ) = Result.bind

module Campaign = S4e_fault.Campaign
module Journal = S4e_fault.Journal

let hang_budget_insns hb ~fuel ~golden_instret =
  match hb with
  | Hang_fuel -> fuel
  | Hang_insns b -> b
  | Hang_auto -> min fuel (max 10_000 (3 * golden_instret))

let fault_campaign ?config ?jobs ?metrics ?trace ?(progress = false) ?journal
    ?resume ?shard:shard_spec ?on_journal_line ?cancelled cfg p =
  Option.iter S4e_obs.Metrics.register_process_gauges metrics;
  let span name f =
    match trace with
    | Some s -> S4e_obs.Trace_events.span s ~name ~cat:"flow" f
    | None -> f ()
  in
  let golden, coverage =
    span "golden+coverage" (fun () -> Campaign.golden ?config ~fuel:cfg.ff_fuel p)
  in
  let golden_instret = golden.Campaign.sig_instret in
  let faults =
    span "generate" (fun () ->
        if cfg.ff_blind then
          Campaign.generate_blind ~seed:cfg.ff_seed ~n:cfg.ff_mutants
            ~targets:cfg.ff_targets ~kinds:cfg.ff_kinds ~program:p
            ~golden_instret
        else
          Campaign.generate ~seed:cfg.ff_seed ~n:cfg.ff_mutants
            ~targets:cfg.ff_targets ~kinds:cfg.ff_kinds ~coverage
            ~golden_instret)
  in
  let total = List.length faults in
  let by_index = Array.of_list faults in
  let ifaults = List.mapi (fun i f -> (i, f)) faults in
  let scoped =
    match shard_spec with
    | None -> ifaults
    | Some (index, count) -> Campaign.shard ~index ~count ifaults
  in
  let header =
    Journal.header_of
      ?shard:shard_spec
      ~seed:cfg.ff_seed ~total p
  in
  Option.iter (fun f -> f (Journal.header_line header)) on_journal_line;
  (* Records that survive in the resume journal must describe this
     exact campaign: same header, and every recorded fault must equal
     the regenerated fault at its index — anything else means the
     journal belongs to a different run and resuming would fabricate
     results. *)
  let* resumed_from =
    match resume with
    | None -> Ok None
    | Some path ->
        (* [append_to] checked every index against [header]: in range
           and in this shard *)
        let* w, records = Journal.append_to ?sink:trace ~path header in
        let check =
          List.fold_left
            (fun acc r ->
              let* () = acc in
              let i = r.Journal.r_index in
              if S4e_fault.Fault.compare r.Journal.r_fault by_index.(i) <> 0
              then
                Error
                  (Printf.sprintf
                     "journal: record %d does not match the regenerated fault \
                      list (journal for a different campaign?)"
                     i)
              else Ok ())
            (Ok ()) records
        in
        (match check with
        | Error e -> Journal.close w; Error e
        | Ok () -> Ok (Some (w, records)))
  in
  let prior = match resumed_from with None -> [] | Some (_, r) -> r in
  let classified = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace classified r.Journal.r_index ()) prior;
  let remaining =
    List.filter (fun (i, _) -> not (Hashtbl.mem classified i)) scoped
  in
  let resumed = List.length scoped - List.length remaining in
  if resumed > 0 then
    Option.iter
      (fun m ->
        S4e_obs.Metrics.add
          (S4e_obs.Metrics.counter m "campaign.resumed_skips")
          resumed)
      metrics;
  (* The journal being written: [--resume f] appends to [f] in place;
     an explicit [--journal g] with [g <> f] starts [g] fresh and
     carries the already-known records over, so [g] alone is enough for
     the next resume. *)
  let* writer =
    match (journal, resumed_from) with
    | None, None -> Ok None
    | Some j, Some (w, _) when Some j <> resume -> (
        Journal.close w;
        match Journal.create ?sink:trace ~path:j header with
        | Error e -> Error e
        | Ok w ->
            List.iter (Journal.write w) prior;
            Journal.flush w;
            Ok (Some w))
    | _, Some (w, _) -> Ok (Some w)
    | Some j, None ->
        let* w = Journal.create ?sink:trace ~path:j header in
        Ok (Some w)
  in
  let on_result =
    match (writer, on_journal_line) with
    | None, None -> None
    | _ ->
        (* Campaign.run_indexed serializes on_result, so the stream is
           ordered even with a parallel engine. *)
        Some
          (fun i fault outcome ->
            let r =
              { Journal.r_index = i; r_fault = fault; r_outcome = outcome }
            in
            Option.iter (fun w -> Journal.write w r) writer;
            Option.iter (fun f -> f (Journal.record_line r)) on_journal_line)
  in
  let budget =
    hang_budget_insns cfg.ff_hang_budget ~fuel:cfg.ff_fuel ~golden_instret
  in
  let on_progress = if progress then Some (progress_meter ()) else None in
  let fresh =
    span "campaign" (fun () ->
        Campaign.run_indexed ?config ~engine:cfg.ff_engine ?jobs ?metrics
          ?trace ?on_progress ?on_result ?cancelled ~fuel:budget p ~golden
          remaining)
  in
  Option.iter Journal.close writer;
  let all =
    List.map
      (fun r -> (r.Journal.r_index, r.Journal.r_fault, r.Journal.r_outcome))
      prior
    @ fresh
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let results = List.map (fun (_, f, o) -> (f, o)) all in
  Ok
    { ff_summary = Campaign.summarize results;
      ff_results = results;
      ff_indexed = all;
      ff_golden = golden;
      ff_resumed = resumed;
      ff_complete = List.length all = List.length scoped }

let fault_triage ?config ?sample ?tail cfg p (r : fault_flow_result) =
  (* triage mutants with the same per-mutant budget the campaign used,
     so a Hung mutant's lockstep run covers the instants the campaign
     actually simulated *)
  let budget =
    hang_budget_insns cfg.ff_hang_budget ~fuel:cfg.ff_fuel
      ~golden_instret:r.ff_golden.Campaign.sig_instret
  in
  Campaign.triage ?config ?sample ?tail ~fuel:budget p r.ff_indexed

(* ---------------- profiling ---------------- *)

type profile_result = {
  pf_stop : Machine.stop_reason;
  pf_machine : Machine.t;
  pf_profile : S4e_obs.Profile.t;
  pf_symbolize : S4e_obs.Profile.symbolizer;
}

let profile_flow ?config ?(fuel = default_fuel) p =
  let m = Machine.create ?config () in
  let prof = S4e_obs.Profile.create () in
  Machine.set_profiler m (Some prof);
  Program.load_machine p m;
  let stop = Machine.run m ~fuel in
  { pf_stop = stop; pf_machine = m; pf_profile = prof;
    pf_symbolize = S4e_obs.Profile.symbolizer_of_symbols p.Program.symbols }
