module Machine = S4e_cpu.Machine
module Arch_state = S4e_cpu.Arch_state
module Hooks = S4e_cpu.Hooks
module Program = S4e_asm.Program
module Report = S4e_coverage.Report
module Par_pool = S4e_par.Par_pool
module Obs = S4e_obs
module Json = S4e_obs.Json

type outcome = Masked | Sdc | Crashed | Hung | Errored of string

let outcome_name = function
  | Masked -> "masked"
  | Sdc -> "sdc"
  | Crashed -> "crashed"
  | Hung -> "hung"
  | Errored _ -> "errored"

type signature = {
  sig_exit : int option;
  sig_uart : string;
  sig_instret : int;
}

type summary = {
  masked : int;
  sdc : int;
  crashed : int;
  hung : int;
  errors : int;
  total : int;
}

type target = [ `Gpr | `Fpr | `Code | `Data ]
type kind_choice = [ `Permanent | `Transient ]

let run_machine ?config program =
  let m = Machine.create ?config () in
  Program.load_machine program m;
  m

let signature_of m stop =
  { sig_exit = (match stop with Machine.Exited c -> Some c | _ -> None);
    sig_uart = Machine.uart_output m;
    sig_instret = Machine.instret m }

let golden ?config ~fuel program =
  let m = run_machine ?config program in
  let collector = S4e_coverage.Collector.attach m () in
  let stop = Machine.run m ~fuel in
  let rep = S4e_coverage.Collector.report collector in
  S4e_coverage.Collector.detach m collector;
  (signature_of m stop, rep)

(* ---------------- fault-list generation ---------------- *)

(* Injection-site pools are always derived by sorted extraction so the
   pool an index picks is a function of the key set alone, never of
   hash-table internals. *)
let sorted_sites ?(keep = fun _ -> true) table =
  let arr =
    Array.of_list
      (Hashtbl.fold (fun k () acc -> if keep k then k :: acc else acc) table [])
  in
  Array.sort compare arr;
  arr

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let accessed_regs read written =
  let out = ref [] in
  for i = 31 downto 0 do
    if read.(i) || written.(i) then out := i :: !out
  done;
  Array.of_list !out

let gen_with rng ~targets ~kinds ~golden_instret ~gpr_pool ~fpr_pool ~code_pool
    ~data_pool n =
  let targets = Array.of_list targets in
  let kinds = Array.of_list kinds in
  let viable = function
    | `Gpr -> Array.length gpr_pool > 0
    | `Fpr -> Array.length fpr_pool > 0
    | `Code -> Array.length code_pool > 0
    | `Data -> Array.length data_pool > 0
  in
  let targets = Array.of_list (List.filter viable (Array.to_list targets)) in
  if Array.length targets = 0 then []
  else
    List.init n (fun _ ->
        let bit = Random.State.int rng 32 in
        let loc =
          match pick rng targets with
          | `Gpr -> Fault.Gpr (pick rng gpr_pool, bit)
          | `Fpr -> Fault.Fpr (pick rng fpr_pool, bit)
          | `Code -> Fault.Code (pick rng code_pool, bit)
          | `Data ->
              Fault.Data (pick rng data_pool, Random.State.int rng 8)
        in
        let kind =
          match pick rng kinds with
          | `Permanent -> Fault.Permanent
          | `Transient ->
              Fault.Transient (1 + Random.State.int rng (max 1 golden_instret))
        in
        { Fault.loc; kind })

let generate ~seed ~n ~targets ~kinds ~coverage ~golden_instret =
  let rng = Random.State.make [| seed |] in
  let rep = (coverage : Report.t) in
  let gpr_pool = accessed_regs rep.Report.gpr_read rep.Report.gpr_written in
  let fpr_pool = accessed_regs rep.Report.fpr_read rep.Report.fpr_written in
  let code_pool = sorted_sites rep.Report.executed_pcs in
  let data_pool =
    (* exact touched addresses, excluding device windows: a data fault
       only makes sense where the program actually keeps state *)
    sorted_sites rep.Report.touched_data
      ~keep:(fun k -> k >= S4e_soc.Memory_map.ram_base)
  in
  gen_with rng ~targets ~kinds ~golden_instret ~gpr_pool ~fpr_pool ~code_pool
    ~data_pool n

let generate_blind ~seed ~n ~targets ~kinds ~program ~golden_instret =
  let rng = Random.State.make [| seed |] in
  let gpr_pool = Array.init 32 Fun.id in
  let fpr_pool = Array.init 32 Fun.id in
  let code_pool =
    match Program.code_range program with
    | None -> [||]
    | Some (lo, hi) ->
        Array.init (max 0 ((hi - lo) / 4)) (fun i -> lo + (4 * i))
  in
  let data_pool =
    (* the whole RAM page around the data segment *)
    match program.Program.chunks with
    | [] -> [||]
    | chunks ->
        let datas = List.filter (fun c -> not c.Program.is_code) chunks in
        (match datas with
        | [] -> [||]
        | c :: _ ->
            Array.init
              (min 4096 (max 64 (String.length c.Program.bytes)))
              (fun i -> c.Program.addr + i))
  in
  gen_with rng ~targets ~kinds ~golden_instret ~gpr_pool ~fpr_pool ~code_pool
    ~data_pool n

(* ---------------- running ---------------- *)

let classify ~(golden : signature) m stop =
  match stop with
  | Machine.Exited c ->
      if Some c = golden.sig_exit && Machine.uart_output m = golden.sig_uart
      then Masked
      else Sdc
  | Machine.Fatal_trap _ -> Crashed
  | Machine.Out_of_fuel | Machine.Wfi_halt -> Hung

(* A mutant from reset: arm, run with [run] (plain [Machine.run], or a
   runner that also polls a deadline), disarm, classify. *)
let run_from_reset ?config ~run ~fuel program ~golden fault =
  let m = run_machine ?config program in
  let run_armed fuel =
    let armed = Injector.arm m fault in
    Fun.protect
      ~finally:(fun () -> Injector.disarm m armed)
      (fun () -> run m ~fuel)
  in
  let stop =
    match fault.Fault.kind with
    | Fault.Transient n when n < fuel -> (
        (* Segment the run at the injection instant.  A transient flip
           into memory becomes architecturally visible at the next
           translation-block boundary, and where that boundary falls
           depends on block geometry: a continuous run lets a flip into
           the currently-executing block go unseen until the block
           ends, while the campaign engine's forked suffixes always
           resume — and therefore re-decode — at exactly the injection
           point.  Splitting the run here pins the visibility boundary
           to the same instruction everywhere, which is what makes
           engine and rerun classifications comparable at all. *)
        match run_armed n with
        | Machine.Out_of_fuel -> run m ~fuel:(fuel - n)
        | stop -> stop)
    | _ -> run_armed fuel
  in
  classify ~golden m stop

let run_one ?config ~fuel program ~golden fault =
  run_from_reset ?config ~run:Machine.run ~fuel program ~golden fault

(* ---------------- the campaign engine ---------------- *)

type engine = {
  eng_jobs : int;
  eng_fork : bool;
  eng_checkpoint : int;
  eng_timeout_s : float;
}

let default_engine =
  { eng_jobs = 1; eng_fork = true; eng_checkpoint = 1024; eng_timeout_s = 0.0 }

let rerun_engine =
  { eng_jobs = 1; eng_fork = false; eng_checkpoint = 0; eng_timeout_s = 0.0 }

(* ---------------- sharding ---------------- *)

(* Stable round-robin partition of an indexed fault list: element [i]
   belongs to shard [i mod count].  A function of the indices alone, so
   [count] cooperating processes (or machines) cover the list exactly
   once and the union over shards is the whole list. *)
let shard ~index ~count ifaults =
  if count <= 0 || index < 0 || index >= count then
    invalid_arg
      (Printf.sprintf "Campaign.shard: bad shard %d/%d" index count);
  List.filter (fun (i, _) -> i mod count = index) ifaults

(* A cheap O(registers) fingerprint used to reject non-matching
   checkpoints before paying for the full memory digest.  Collisions
   are harmless: a fingerprint match only gates the exact
   [Machine.state_digest] comparison. *)
let cheap_fingerprint (m : Machine.t) =
  let st = Machine.state m in
  let h = ref 0 in
  let mix v = h := ((!h * 31) + v) land max_int in
  Array.iter mix st.Arch_state.regs;
  Array.iter mix st.Arch_state.fregs;
  mix st.Arch_state.pc;
  mix st.Arch_state.mstatus;
  !h

(* A program is time-observable when its outcome can depend on the
   cycle counter or the CLINT timer: it reads a time CSR, sleeps on
   WFI, enables an interrupt source, or touches the CLINT window.  For
   everything else the cycle/mtime counters are write-only telemetry
   and can be excluded from the convergence check — which matters,
   because a single perturbed branch leaves the cycle counter skewed
   forever even after the architectural state reconverges. *)
let is_time_csr c =
  let open S4e_isa.Csr in
  c = cycle || c = time || c = mcycle || c = cycleh || c = timeh

let clint_lo = S4e_soc.Memory_map.clint_base
let clint_hi = S4e_soc.Memory_map.clint_base + 0x10000

(* The golden run's checkpoint trace: state digests at every [interval]
   retired instructions and the golden run's own classification (what a
   run that never diverges must be).  Each checkpoint keeps the
   time-dependent counters next to the relaxed digest so the guard can
   apply either strictness. *)
type trace = {
  tr_interval : int;
  tr_digests : (int, int * string * int * int) Hashtbl.t;
      (** instret -> (cheap fingerprint, time-relaxed state digest,
          cycle, CLINT mtime) *)
  tr_strict : bool;
      (** the golden run observes time, so convergence must also match
          cycle and mtime *)
  tr_outcome : outcome;
}

let collect_trace ?config ~fuel ~interval ~golden program =
  let m = run_machine ?config program in
  let st = Machine.state m in
  let digests = Hashtbl.create 64 in
  let timed = ref false in
  let mem_id =
    Hooks.on_mem m.Machine.hooks (fun ev ->
        let a = ev.Hooks.mem_addr in
        if a >= clint_lo && a < clint_hi then timed := true)
  in
  let id =
    Hooks.on_insn m.Machine.hooks (fun _ instr ->
        (match instr with
        | S4e_isa.Instr.Wfi -> timed := true
        | S4e_isa.Instr.Csr (_, _, csr, _) when is_time_csr csr ->
            timed := true
        | _ -> ());
        if st.Arch_state.mie <> 0 then timed := true;
        let ir = Machine.instret m in
        if ir > 0 && ir mod interval = 0 && not (Hashtbl.mem digests ir) then
          Hashtbl.replace digests ir
            ( cheap_fingerprint m,
              Machine.state_digest ~include_time:false m,
              st.Arch_state.cycle,
              S4e_soc.Clint.time m.Machine.clint ))
  in
  let stop = Machine.run m ~fuel in
  Hooks.unregister m.Machine.hooks id;
  Hooks.unregister m.Machine.hooks mem_id;
  { tr_interval = interval;
    tr_digests = digests;
    tr_strict = !timed;
    tr_outcome = classify ~golden m stop }

(* Instret (absolute) after which the armed fault is fully applied and
   its hooks are inert, i.e. state equality with the golden trace
   implies an identical future.  A stuck-at register bit is held for
   the whole run, so it never qualifies. *)
let inert_after f =
  match (f.Fault.kind, f.Fault.loc) with
  | Fault.Transient n, _ -> max 1 n
  | Fault.Permanent, (Fault.Code _ | Fault.Data _) -> 0
  | Fault.Permanent, (Fault.Gpr _ | Fault.Fpr _) -> max_int

(* Golden instructions guaranteed identical before the fault can act. *)
let golden_prefix f =
  match f.Fault.kind with
  | Fault.Transient n -> max 0 (n - 1)
  | Fault.Permanent -> 0

let shift_transient at f =
  match f.Fault.kind with
  | Fault.Transient n -> { f with Fault.kind = Fault.Transient (n - at) }
  | Fault.Permanent -> f

(* Optional campaign telemetry, threaded into every worker task.  The
   counters are {!Obs.Metrics} atomics, so per-mutant bumps from
   concurrent worker domains need no lock; the trace sink serializes
   internally.  [tel_progress] fires once per classified mutant. *)
type telemetry = {
  tel_sink : Obs.Trace_events.t option;
  tel_mutants : Obs.Metrics.counter option;
  tel_hangs : Obs.Metrics.counter option;
  tel_early : Obs.Metrics.counter option;
  tel_forks : Obs.Metrics.counter option;
  tel_errors : Obs.Metrics.counter option;
  tel_retries : Obs.Metrics.counter option;
  tel_timeouts : Obs.Metrics.counter option;
  tel_insns : Obs.Metrics.histogram option;
  tel_progress : (unit -> unit) option;
}

let bump = Option.iter Obs.Metrics.incr

(* One worker task: a private machine, a reset snapshot, and a golden
   cursor that advances monotonically through the chunk's injection
   points so the golden prefix executes once per chunk, not once per
   fault. *)
let run_task_body ?config ~engine ~fuel ~golden ~trace ~tel ~cancelled
    ~on_result program chunk =
  let m = run_machine ?config program in
  let st = Machine.state m in
  (* [None] = not classified: a mutant skipped because the campaign was
     cancelled mid-chunk stays [None] and is simply absent from the
     results, never silently defaulted. *)
  let out = Array.map (fun (i, _) -> (i, None)) chunk in
  (* Wall-clock hang defense: an absolute deadline per mutant, checked
     at burst boundaries.  [None] (the default) disables it; outcomes
     then depend only on the instruction budget and stay deterministic. *)
  let deadline () =
    if engine.eng_timeout_s > 0.0 then
      Some (Unix.gettimeofday () +. engine.eng_timeout_s)
    else None
  in
  let deadline_hit = function
    | None -> false
    | Some d -> Unix.gettimeofday () >= d
  in
  (* [Machine.run] in bounded slices so the deadline is polled even on
     engines that never pause for checkpoints. *)
  let rec run_deadline m ~dl ~fuel =
    match dl with
    | None -> Machine.run m ~fuel
    | Some _ when deadline_hit dl ->
        bump tel.tel_timeouts;
        Machine.Out_of_fuel
    | Some _ ->
        let step = min fuel 65_536 in
        (match Machine.run m ~fuel:step with
        | Machine.Out_of_fuel when step < fuel ->
            run_deadline m ~dl ~fuel:(fuel - step)
        | stop -> stop)
  in
  (* Convergence test at a checkpoint boundary ([st.instret] a multiple
     of the trace interval).  The cheap fingerprint is checked every
     time, but the full digest (an MD5 over memory, ~20us) is
     throttled: a run whose registers reconverge while its memory stays
     corrupted — a flipped byte in never-rewritten data, say — would
     otherwise pay the full digest at every checkpoint until its budget
     runs out.  Each miss doubles the stride between full-digest probes
     (capped, so a late memory reconvergence is still caught within a
     few intervals). *)
  let probe tr ~next_full ~stride =
    let ir = st.Arch_state.instret in
    match Hashtbl.find_opt tr.tr_digests ir with
    | Some (ck, d, cyc, mtime)
      when ck = cheap_fingerprint m
           && ((not tr.tr_strict)
              || (cyc = st.Arch_state.cycle
                 && mtime = S4e_soc.Clint.time m.Machine.clint))
           && ir >= !next_full ->
        if String.equal d (Machine.state_digest ~include_time:false m) then
          true
        else begin
          next_full := ir + (!stride * tr.tr_interval);
          stride := min 16 (2 * !stride);
          false
        end
    | _ -> false
  in
  (* Run a faulty suffix in checkpoint-sized bursts, testing for
     reconvergence with the golden trace at every boundary past
     [inert_at].  The pauses piggyback on [Machine.run]'s fuel
     accounting, so the guard costs nothing per instruction and an
     unhooked run stays on the translation-block fast path. *)
  let run_guarded tr ~budget ~inert_at ~dl =
    let interval = tr.tr_interval in
    let next_full = ref 0 in
    let stride = ref 1 in
    let rec go budget =
      let ir = st.Arch_state.instret in
      if budget <= 0 then classify ~golden m Machine.Out_of_fuel
      else if deadline_hit dl then begin
        bump tel.tel_timeouts;
        classify ~golden m Machine.Out_of_fuel
      end
      else if
        ir >= inert_at
        && ir mod interval = 0
        && probe tr ~next_full ~stride
      then begin
        bump tel.tel_early;
        tr.tr_outcome
      end
      else begin
        let next_ck =
          let c = ((ir / interval) + 1) * interval in
          if c >= inert_at then c
          else (inert_at + interval - 1) / interval * interval
        in
        let step = min budget (next_ck - ir) in
        match Machine.run m ~fuel:step with
        | Machine.Out_of_fuel -> go (budget - step)
        | stop -> classify ~golden m stop
      end
    in
    go budget
  in
  (* Record one classified mutant: result slot, counters, journal. *)
  let finish slot o =
    out.(slot) <- (fst out.(slot), Some o);
    bump tel.tel_mutants;
    if o = Hung then bump tel.tel_hangs;
    (match o with Errored _ -> bump tel.tel_errors | _ -> ());
    on_result (fst out.(slot)) o;
    Option.iter (fun f -> f ()) tel.tel_progress
  in
  (* Second-chance rerun on a private machine with the naive
     from-reset semantics: an exception out of the engine path (a
     malformed fault, a snapshot seam gone wrong) must not cost the
     mutant its classification if the plain path still works. *)
  let retry_naive fault =
    let dl = deadline () in
    run_from_reset ?config
      ~run:(fun m ~fuel -> run_deadline m ~dl ~fuel)
      ~fuel program ~golden fault
  in
  let run_faulty ~slot ~budget ~inert_at ~orig fault =
    (* The convergence guard only applies to transients: stuck-at
       faults are never inert, and a permanent code/data flip persists
       in the digested memory image, so neither can ever reconverge. *)
    let dl = deadline () in
    let guarded budget =
      match (trace, fault.Fault.kind) with
      | Some tr, Fault.Transient _ -> run_guarded tr ~budget ~inert_at ~dl
      | _ -> classify ~golden m (run_deadline m ~dl ~fuel:budget)
    in
    let i0 = st.Arch_state.instret in
    let ts =
      match tel.tel_sink with
      | Some s -> Obs.Trace_events.now_us s
      | None -> 0.0
    in
    (* the machine's hooks must come back clean even when the run
       raises: a leaked injector hook would corrupt every later mutant
       in the chunk *)
    let with_armed f run =
      let armed = Injector.arm m f in
      Fun.protect ~finally:(fun () -> Injector.disarm m armed) run
    in
    let compute () =
      match fault.Fault.kind with
      | Fault.Transient n when n < budget ->
          (* Keep the injector's counting hook only until the flip
             lands, then drop it: the suffix — the bulk of the run —
             executes unhooked on the fast path.  Not fork-only: the
             split also pins the flip's visibility boundary to the
             injection instant (see [run_one]), so the rerun engine
             must segment here too or a flip into the currently-
             executing translation block would take effect at a
             different instruction than in the forked engine. *)
          let r = with_armed fault (fun () -> run_deadline m ~dl ~fuel:n) in
          (match r with
          | Machine.Out_of_fuel -> guarded (budget - n)
          | stop -> classify ~golden m stop)
      | _ -> with_armed fault (fun () -> guarded budget)
    in
    (* Per-mutant error isolation: a raising mutant is retried once on
       the naive path (with the original, unshifted fault), and only if
       that also raises is it classified [Errored] — either way the
       campaign keeps going and the mutant is counted. *)
    let o =
      match compute () with
      | o -> o
      | exception e ->
          bump tel.tel_retries;
          (match retry_naive orig with
          | o -> o
          | exception e2 ->
              ignore e;
              Errored (Printexc.to_string e2))
    in
    (match tel.tel_insns with
    | Some h -> Obs.Metrics.observe h (st.Arch_state.instret - i0)
    | None -> ());
    (match tel.tel_sink with
    | Some s ->
        Obs.Trace_events.complete s ~name:(outcome_name o) ~cat:"mutant"
          ~args:[ ("fault", Format.asprintf "%a" Fault.pp fault) ]
          ~tid:(Domain.self () :> int)
          ~ts_us:ts
          ~dur_us:(Obs.Trace_events.now_us s -. ts)
          ()
    | None -> ());
    finish slot o
  in
  let reset_snap = Machine.snapshot m in
  let immediate, deferred =
    let im = ref [] and de = ref [] in
    Array.iteri
      (fun slot (_, f) ->
        if engine.eng_fork && golden_prefix f > 0 then de := (slot, f) :: !de
        else im := (slot, f) :: !im)
      chunk;
    (List.rev !im, List.rev !de)
  in
  List.iter
    (fun (slot, f) ->
      if not (cancelled ()) then begin
        Machine.restore m reset_snap;
        run_faulty ~slot ~budget:fuel ~inert_at:(inert_after f) ~orig:f f
      end)
    immediate;
  (* Deferred transients, by injection time: fork each off a snapshot
     of the golden run at [n - 1] and simulate only the suffix. *)
  let deferred =
    List.sort
      (fun (s1, f1) (s2, f2) ->
        match compare (golden_prefix f1) (golden_prefix f2) with
        | 0 -> compare s1 s2
        | c -> c)
      deferred
  in
  let snap = ref reset_snap in
  let at = ref 0 in
  let golden_ended = ref None in
  List.iter
    (fun (slot, f) ->
      match !golden_ended with
      | _ when cancelled () -> ()
      | Some o -> finish slot o
      | None ->
          let pre = min (golden_prefix f) fuel in
          let advanced =
            if pre <= !at then true
            else begin
              Machine.restore m !snap;
              match Machine.run m ~fuel:(pre - !at) with
              | Machine.Out_of_fuel ->
                  at := pre;
                  snap := Machine.snapshot m;
                  true
              | stop ->
                  (* the golden run ends before this (and so before any
                     later) injection point: every remaining fault
                     replays the golden run verbatim *)
                  let o = classify ~golden m stop in
                  golden_ended := Some o;
                  finish slot o;
                  false
            end
          in
          if advanced then begin
            (* each deferred fault replays from the shared snapshot
               instead of re-executing the golden prefix *)
            bump tel.tel_forks;
            Machine.restore m !snap;
            run_faulty ~slot ~budget:(fuel - !at)
              ~inert_at:(inert_after f) ~orig:f
              (shift_transient !at f)
          end)
    deferred;
  out

let run_task ?config ~engine ~fuel ~golden ~trace ~tel ~cancelled ~on_result
    program chunk =
  let body () =
    run_task_body ?config ~engine ~fuel ~golden ~trace ~tel ~cancelled
      ~on_result program chunk
  in
  match tel.tel_sink with
  | None -> body ()
  | Some s ->
      let tid = (Domain.self () :> int) in
      Obs.Trace_events.thread_name s ~tid (Printf.sprintf "domain %d" tid);
      Obs.Trace_events.span s ~name:"chunk" ~cat:"campaign" ~tid
        ~args:[ ("faults", string_of_int (Array.length chunk)) ]
        body

(* Chunking is a function of the fault list only — never of [jobs] —
   so every degree of parallelism produces bit-identical results. *)
let task_chunks = 16

(* Core entry point over an {e indexed} fault list: every fault keeps
   its stable position in the full campaign, so a shard or a resumed
   remainder classifies exactly the same mutants (same indices, same
   chunk grouping is irrelevant — outcomes are per-mutant deterministic)
   as the corresponding slice of a full run.  Returns only the mutants
   actually classified: cancellation skips are absent, never
   defaulted. *)
let run_indexed ?config ?(engine = default_engine) ?jobs ?metrics ?trace:sink
    ?on_progress ?on_result ?cancelled ~fuel program ~golden ifaults =
  let jobs = max 1 (Option.value jobs ~default:engine.eng_jobs) in
  match ifaults with
  | [] -> []
  | _ ->
      let total = List.length ifaults in
      let cancelled = Option.value cancelled ~default:(fun () -> false) in
      let on_result =
        match on_result with
        | None -> fun _ _ _ -> ()
        | Some f ->
            (* journal writers &c. may be called from worker domains
               concurrently; serialize so callers need no lock *)
            let mu = Mutex.create () in
            fun i fl o ->
              Mutex.lock mu;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock mu)
                (fun () -> f i fl o)
      in
      let tel =
        let c name = Option.map (fun m -> Obs.Metrics.counter m name) metrics in
        { tel_sink = sink;
          tel_mutants = c "campaign.mutants";
          tel_hangs = c "campaign.hangs";
          tel_early = c "campaign.early_exits";
          tel_forks = c "campaign.snapshot_forks";
          tel_errors = c "campaign.errors";
          tel_retries = c "campaign.retries";
          tel_timeouts = c "campaign.timeouts";
          tel_insns =
            Option.map
              (fun m ->
                Obs.Metrics.histogram m "campaign.mutant_insns"
                  ~bounds:[| 100; 1_000; 10_000; 100_000; 1_000_000 |])
              metrics;
          tel_progress =
            Option.map
              (fun f ->
                let done_ = Atomic.make 0 in
                fun () -> f (Atomic.fetch_and_add done_ 1 + 1) total)
              on_progress }
      in
      let in_span name f =
        match sink with
        | Some s -> Obs.Trace_events.span s ~name ~cat:"campaign" f
        | None -> f ()
      in
      let trace =
        if engine.eng_checkpoint > 0 then
          Some
            (in_span "golden-trace" (fun () ->
                 collect_trace ?config ~fuel ~interval:engine.eng_checkpoint
                   ~golden program))
        else None
      in
      let arr = Array.of_list ifaults in
      let n = Array.length arr in
      let by_index = Hashtbl.create n in
      Array.iter (fun (i, f) -> Hashtbl.replace by_index i f) arr;
      let on_result i o = on_result i (Hashtbl.find by_index i) o in
      let n_chunks = min n task_chunks in
      let chunk_size = (n + n_chunks - 1) / n_chunks in
      let chunks =
        List.init n_chunks (fun c ->
            let lo = c * chunk_size in
            let hi = min n (lo + chunk_size) in
            Array.init (max 0 (hi - lo)) (fun k -> arr.(lo + k)))
        |> List.filter (fun c -> Array.length c > 0)
      in
      let task =
        run_task ?config ~engine ~fuel ~golden ~trace ~tel ~cancelled
          ~on_result program
      in
      let results =
        if jobs = 1 || List.length chunks = 1 then List.map task chunks
        else
          Par_pool.with_pool ~jobs (fun pool ->
              Option.iter (fun m -> Par_pool.register_metrics pool m) metrics;
              Par_pool.map_chunked ~chunk:1 pool task chunks)
      in
      List.concat_map
        (fun chunk ->
          Array.to_list chunk
          |> List.filter_map (fun (i, o) ->
                 Option.map (fun o -> (i, Hashtbl.find by_index i, o)) o))
        results

let run ?config ?engine ?jobs ?metrics ?trace ?on_progress ~fuel program
    ~golden faults =
  run_indexed ?config ?engine ?jobs ?metrics ?trace ?on_progress ~fuel program
    ~golden
    (List.mapi (fun i f -> (i, f)) faults)
  |> List.map (fun (_, f, o) -> (f, o))

let summarize results =
  List.fold_left
    (fun acc (_, o) ->
      match o with
      | Masked -> { acc with masked = acc.masked + 1; total = acc.total + 1 }
      | Sdc -> { acc with sdc = acc.sdc + 1; total = acc.total + 1 }
      | Crashed -> { acc with crashed = acc.crashed + 1; total = acc.total + 1 }
      | Hung -> { acc with hung = acc.hung + 1; total = acc.total + 1 }
      | Errored _ -> { acc with errors = acc.errors + 1; total = acc.total + 1 })
    { masked = 0; sdc = 0; crashed = 0; hung = 0; errors = 0; total = 0 }
    results

let summary_to_json s =
  Json.Obj
    [ ("masked", Json.Int s.masked); ("sdc", Json.Int s.sdc);
      ("crashed", Json.Int s.crashed); ("hung", Json.Int s.hung);
      ("errored", Json.Int s.errors); ("total", Json.Int s.total) ]

let summary_of_json v =
  match
    List.map
      (fun k -> Json.mem_int k v)
      [ "masked"; "sdc"; "crashed"; "hung"; "errored"; "total" ]
  with
  | [ Some masked; Some sdc; Some crashed; Some hung; Some errors; Some total ]
    ->
      Some { masked; sdc; crashed; hung; errors; total }
  | _ -> None

let pp_summary fmt s =
  Format.fprintf fmt
    "total=%d masked=%d sdc=%d crashed=%d hung=%d errored=%d" s.total s.masked
    s.sdc s.crashed s.hung s.errors

(* ---------------- divergence triage ---------------- *)

type reg_diff = { rd_name : string; rd_golden : int; rd_mutant : int }

type triage_record = {
  tg_index : int;
  tg_fault : Fault.t;
  tg_outcome : outcome;
  tg_diverged : bool;
  tg_instret : int;
  tg_golden_pc : int;
  tg_mutant_pc : int;
  tg_insn : string;
  tg_reg_diffs : reg_diff list;
  tg_mem_diff : bool;
  tg_mip_golden : int;
  tg_mip_mutant : int;
  tg_tail : string list;
}

(* Lockstep burst length.  Bursts never cross a transient's injection
   instant, so the flip always lands exactly at a burst boundary — the
   same segmentation contract as [run_one]. *)
let triage_burst = 256

let recorder_tail ?(limit = max_int) r =
  let recs = Obs.Flight_recorder.records r in
  let len = List.length recs in
  List.filteri (fun i _ -> i >= len - limit) recs
  |> List.map S4e_asm.Disasm.record_line

(* Architectural register/CSR diff between two machines, GPRs first.
   Capped — a wildly diverged mutant differs everywhere, and the first
   few registers already name the corruption. *)
let reg_diffs ?(limit = 12) (g : Machine.t) (m : Machine.t) =
  let gs = Machine.state g and ms = Machine.state m in
  let out = ref [] in
  let diff name a b =
    if a <> b then out := { rd_name = name; rd_golden = a; rd_mutant = b } :: !out
  in
  diff "mtval" gs.Arch_state.mtval ms.Arch_state.mtval;
  diff "mcause" gs.Arch_state.mcause ms.Arch_state.mcause;
  diff "mepc" gs.Arch_state.mepc ms.Arch_state.mepc;
  diff "mie" gs.Arch_state.mie ms.Arch_state.mie;
  diff "mstatus" gs.Arch_state.mstatus ms.Arch_state.mstatus;
  for i = 31 downto 0 do
    diff (Printf.sprintf "f%d" i) gs.Arch_state.fregs.(i)
      ms.Arch_state.fregs.(i)
  done;
  for i = 31 downto 0 do
    diff (S4e_isa.Reg.abi_name i) gs.Arch_state.regs.(i)
      ms.Arch_state.regs.(i)
  done;
  List.filteri (fun i _ -> i < limit) !out

let mem_differs g m =
  S4e_mem.Sparse_mem.digest (S4e_mem.Bus.ram g.Machine.bus)
  <> S4e_mem.Sparse_mem.digest (S4e_mem.Bus.ram m.Machine.bus)

(* Triage one divergent mutant: run a golden and a faulty machine in
   instret-lockstep bursts with flight recorders armed on both, and
   compare the recorded retire/marker streams after every burst.  The
   first differing record is the first architectural delta; the burst
   is then replayed from its pre-burst snapshots up to that record so
   the register/memory/mip diffs are taken at the divergence instant
   (the snapshots carry recorder marks, so the replayed tails line up).
   The one burst that cannot be replayed is a transient's flip burst —
   the injector's counting hook does not rewind with a snapshot — but
   there the only possible mismatch is the burst's final record, whose
   post-state is exactly the end-of-burst state already in hand.  A
   stuck register bit replays fine: [Machine.restore] forces it again.
   Because it is forced at the write itself, the first divergence of a
   stuck-at fault is usually the first write the force overrides. *)
let triage_one ?config ~tail ~fuel program (index, fault, outcome) =
  let capacity = max 1024 (2 * tail) in
  let g = run_machine ?config program in
  let m = run_machine ?config program in
  let rg = Obs.Flight_recorder.create ~capacity () in
  let rm = Obs.Flight_recorder.create ~capacity () in
  Machine.set_recorder g (Some rg);
  Machine.set_recorder m (Some rm);
  let inject_at =
    match fault.Fault.kind with
    | Fault.Transient n -> min n fuel
    | Fault.Permanent -> 0
  in
  let armed = ref (Some (Injector.arm m fault)) in
  let disarm () =
    match !armed with
    | Some a ->
        Injector.disarm m a;
        armed := None
    | None -> ()
  in
  Fun.protect ~finally:disarm (fun () ->
      let recs_since r q0 =
        List.filter
          (fun rc -> rc.Obs.Flight_recorder.r_seq >= q0)
          (Obs.Flight_recorder.records r)
      in
      let rec first_mismatch j gr mr =
        match (gr, mr) with
        | [], [] -> None
        | [], _ | _, [] -> Some j
        | a :: gr', b :: mr' ->
            if a = b then first_mismatch (j + 1) gr' mr' else Some j
      in
      let finish ?tail_lines ~diverged ~insn () =
        { tg_index = index;
          tg_fault = fault;
          tg_outcome = outcome;
          tg_diverged = diverged;
          tg_instret = Machine.instret m;
          tg_golden_pc = (Machine.state g).Arch_state.pc;
          tg_mutant_pc = (Machine.state m).Arch_state.pc;
          tg_insn = insn;
          tg_reg_diffs = reg_diffs g m;
          tg_mem_diff = mem_differs g m;
          tg_mip_golden = (Machine.state g).Arch_state.mip;
          tg_mip_mutant = (Machine.state m).Arch_state.mip;
          tg_tail =
            (match tail_lines with
            | Some l -> l
            | None -> recorder_tail ~limit:tail rm) }
      in
      let budget = ref fuel in
      let gstop = ref None and mstop = ref None in
      let result = ref None in
      while
        !result = None && !budget > 0 && !gstop = None && !mstop = None
      do
        let ir0 = Machine.instret m in
        let step =
          let s = min triage_burst !budget in
          if inject_at > ir0 && inject_at - ir0 < s then inject_at - ir0
          else s
        in
        let sg = Machine.snapshot g and sm = Machine.snapshot m in
        let q0g = Obs.Flight_recorder.seq rg in
        let q0m = Obs.Flight_recorder.seq rm in
        (match Machine.run g ~fuel:step with
        | Machine.Out_of_fuel -> ()
        | st -> gstop := Some st);
        (match Machine.run m ~fuel:step with
        | Machine.Out_of_fuel -> ()
        | st -> mstop := Some st);
        budget := !budget - step;
        (match fault.Fault.kind with
        | Fault.Transient _ when Machine.instret m >= inject_at -> disarm ()
        | _ -> ());
        let gr = recs_since rg q0g and mr = recs_since rm q0m in
        match first_mismatch 0 gr mr with
        | Some j ->
            let prefix = List.filteri (fun i _ -> i < j) gr in
            let retires_before =
              List.length
                (List.filter
                   (fun rc ->
                     rc.Obs.Flight_recorder.r_kind = Obs.Flight_recorder.Retire)
                   prefix)
            in
            let at_j =
              match (List.nth_opt mr j, List.nth_opt gr j) with
              | (Some rc, _ | None, Some rc) -> Some rc
              | None, None -> None
            in
            let is_retire =
              match at_j with
              | Some rc ->
                  rc.Obs.Flight_recorder.r_kind = Obs.Flight_recorder.Retire
              | None -> false
            in
            let insn =
              match at_j with
              | Some rc -> S4e_asm.Disasm.record_line rc
              | None -> ""
            in
            (* capture the mutant's tail up to the diverging record now
               — a replay below rewinds the recorder past it *)
            let div_seq = q0m + j in
            let tail_lines =
              List.filter
                (fun rc -> rc.Obs.Flight_recorder.r_seq <= div_seq)
                (Obs.Flight_recorder.records rm)
              |> List.map S4e_asm.Disasm.record_line
              |> fun l ->
              let len = List.length l in
              List.filteri (fun i _ -> i >= len - tail) l
            in
            let can_replay =
              match fault.Fault.kind with
              | Fault.Transient _ -> ir0 >= inject_at
              | Fault.Permanent -> true
            in
            if can_replay then begin
              Machine.restore g sg;
              Machine.restore m sm;
              let k = retires_before + if is_retire then 1 else 0 in
              if k > 0 then begin
                ignore (Machine.run g ~fuel:k : Machine.stop_reason);
                ignore (Machine.run m ~fuel:k : Machine.stop_reason)
              end
            end;
            result := Some (finish ~tail_lines ~diverged:true ~insn ())
        | None -> (
            match (!gstop, !mstop) with
            | None, None -> ()
            | Some a, Some b when a = b -> ()
            | _ ->
                (* identical streams but different stop conditions: the
                   divergence is the stop itself *)
                let insn =
                  match (!mstop, !gstop) with
                  | Some st, _ ->
                      Format.asprintf "mutant stop: %a" Machine.pp_stop_reason
                        st
                  | None, Some st ->
                      Format.asprintf "golden stop: %a" Machine.pp_stop_reason
                        st
                  | None, None -> ""
                in
                result := Some (finish ~diverged:true ~insn ()))
      done;
      match !result with
      | Some r -> r
      | None -> finish ~diverged:false ~insn:"" ())

let triage ?config ?(sample = 8) ?(tail = 16) ~fuel program results =
  let candidates =
    List.filter
      (fun (_, _, o) -> match o with Sdc | Crashed | Hung -> true | _ -> false)
      results
  in
  let n = List.length candidates in
  let picked =
    if n <= sample then candidates
    else begin
      (* deterministic stride sample spread across the whole campaign *)
      let arr = Array.of_list candidates in
      List.init sample (fun k -> arr.(k * n / sample))
    end
  in
  List.map (triage_one ?config ~tail ~fuel program) picked

let top_sites records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.tg_diverged then
        let k = t.tg_mutant_pc in
        Hashtbl.replace tbl k
          (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (p1, c1) (p2, c2) ->
         match compare c2 c1 with 0 -> compare p1 p2 | c -> c)

let triage_to_json t =
  let hex8 v = Json.String (Printf.sprintf "0x%08x" v) in
  let reg_diff d =
    Json.Obj
      [ ("reg", Json.String d.rd_name);
        ("golden", Json.String (Printf.sprintf "0x%x" d.rd_golden));
        ("mutant", Json.String (Printf.sprintf "0x%x" d.rd_mutant)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("index", Json.Int t.tg_index);
         ("fault", Json.String (Fault.to_string t.tg_fault));
         ("outcome", Json.String (outcome_name t.tg_outcome));
         ("diverged", Json.Bool t.tg_diverged);
         ("instret", Json.Int t.tg_instret);
         ("golden_pc", hex8 t.tg_golden_pc);
         ("mutant_pc", hex8 t.tg_mutant_pc);
         ("insn", Json.String t.tg_insn);
         ("reg_diffs", Json.List (List.map reg_diff t.tg_reg_diffs));
         ("mem_diff", Json.Bool t.tg_mem_diff);
         ("mip_golden", Json.Int t.tg_mip_golden);
         ("mip_mutant", Json.Int t.tg_mip_mutant);
         ("tail", Json.List (List.map (fun l -> Json.String l) t.tg_tail)) ])

let pp_triage fmt t =
  Format.fprintf fmt "#%d %s -> %s: %s at instret=%d pc=0x%08x (%s)"
    t.tg_index (Fault.describe t.tg_fault) (outcome_name t.tg_outcome)
    (if t.tg_diverged then "first divergence" else "no divergence located")
    t.tg_instret t.tg_mutant_pc t.tg_insn
