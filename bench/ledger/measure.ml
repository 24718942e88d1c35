(* The five workloads, one repetition at a time, measured from outside.

   Every number comes from timing calls into public functions
   (Assembler.assemble, Machine.create / Program.load_machine /
   Machine.run / Machine.reset, Flows.fault_campaign, the fleet Server /
   Worker / Client) or from the gauges and counters those layers already
   export.  A traced repetition additionally records spans around the
   same calls and hands the sink to the layers' own [?trace] arguments;
   the per-layer numbers are derived from those spans afterwards. *)

module Machine = S4e_cpu.Machine
module Program = S4e_asm.Program
module Metrics = S4e_obs.Metrics
module Trace = S4e_obs.Trace_events
module Json = S4e_fleet.Json
module Flows = S4e_core.Flows
module Campaign = S4e_fault.Campaign
module Journal = S4e_fault.Journal

let now = Unix.gettimeofday

(* Telemetry of one repetition: the counter totals of the layers it ran,
   and in traced passes the pass-wide span sink. *)
type tel = { totals : (string, float) Hashtbl.t; sink : Trace.t option }

let new_tel sink = { totals = Hashtbl.create 64; sink }
let total tel name = Option.value (Hashtbl.find_opt tel.totals name) ~default:0.

let add tel name v = Hashtbl.replace tel.totals name (total tel name +. v)

(* Add a registry's snapshot to the repetition's totals. *)
let fold tel reg =
  List.iter
    (fun (k, v) ->
      add tel k (match v with Metrics.Int n -> float_of_int n | Metrics.Float f -> f))
    (Metrics.snapshot reg)

let span tel ?args ~cat name f =
  match tel.sink with
  | None -> f ()
  | Some s -> Trace.span s ?args ~name ~cat f

(* One repetition's observations.  Timings are keyed by input (a
   program, a mutant, or the whole campaign) so the estimators below can
   take each input's fastest repetition.  [insns] and [cycles] are the
   guest work of the repetition: a pure function of the inputs, so every
   repetition of a run must reproduce them exactly. *)
type rep = {
  mutable ops : int;
  mutable failed : int;
  mutable work : (int * float) list;  (** key, host seconds of guest work *)
  mutable lats : (int * float) list;  (** key, seconds of one operation *)
  mutable setups : (int * float) list;  (** key, seconds of set-up *)
  mutable insns : int;
  mutable cycles : int;
}

let new_rep () =
  { ops = 0; failed = 0; work = []; lats = []; setups = []; insns = 0; cycles = 0 }

(* Failures are counted, and the first few are explained on stderr. *)
let complaints = ref 0

let fail rep n fmt =
  rep.failed <- rep.failed + n;
  Printf.ksprintf
    (fun msg ->
      incr complaints;
      if !complaints <= 20 then prerr_endline ("ledger: FAILED " ^ msg))
    fmt

(* Scratch files live under the current directory, not the system's
   temporary directory. *)
let tmp_root = Filename.concat (Sys.getcwd ()) ".ledger"

let tmp_dir =
  lazy
    (let d = Filename.concat tmp_root (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
     List.iter
       (fun p -> try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
       [ tmp_root; d ];
     at_exit (fun () ->
         Array.iter
           (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
           (try Sys.readdir d with Sys_error _ -> [||]);
         (try Unix.rmdir d with Unix.Unix_error _ -> ());
         try Unix.rmdir tmp_root with Unix.Unix_error _ -> ());
     d)

let fresh_name =
  let n = Atomic.make 0 in
  fun stem ->
    Filename.concat (Lazy.force tmp_dir)
      (Printf.sprintf "%s-%d" stem (Atomic.fetch_and_add n 1))

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Running one guest program the way [s4e run] does. *)

type run = { r_lat : float; r_setup : float; r_insns : int; r_cycles : int }

let config_for harts =
  if harts = 1 then Machine.default_config else { Machine.default_config with Machine.harts }

(* Rewrite a data chunk word by word: Machine.load_string would flush
   the translation caches the re-run below is meant to find warm. *)
let restore_chunk m (c : Program.chunk) =
  let len = String.length c.Program.bytes in
  if len mod 4 <> 0 then Machine.load_string m c.Program.addr c.Program.bytes
  else
    for i = 0 to (len / 4) - 1 do
      Machine.load_word m (c.Program.addr + (4 * i))
        (Int32.to_int (String.get_int32_le c.Program.bytes (4 * i)) land 0xFFFF_FFFF)
    done

let assemble tel src = span tel ~cat:"asm" "assemble" (fun () -> S4e_asm.Assembler.assemble src)

let run_prog tel rep (p : Progs.prog) =
  let t0 = now () in
  match assemble tel p.src with
  | Error e ->
      fail rep 1 "%s: %s" p.name (Format.asprintf "%a" S4e_asm.Assembler.pp_error e);
      { r_lat = now () -. t0; r_setup = 0.; r_insns = 0; r_cycles = 0 }
  | Ok image ->
      let m =
        span tel ~cat:"cpu" "create" (fun () -> Machine.create ~config:(config_for p.harts) ())
      in
      span tel ~cat:"cpu" "load" (fun () -> Program.load_machine image m);
      let t1 = now () in
      let args = [ ("class", p.cls) ] in
      let stop = span tel ~args ~cat:"cpu" "run" (fun () -> Machine.run m ~fuel:p.fuel) in
      let t2 = now () in
      if stop <> Machine.Exited p.expect then
        fail rep 1 "%s stopped with %s, expected exit %d" p.name
          (Format.asprintf "%a" Machine.pp_stop_reason stop) p.expect;
      let insns = Machine.instret m and cycles = Machine.cycles m in
      (match tel.sink with
      | None -> ()
      | Some sink ->
          let reg = Metrics.create () in
          Machine.register_metrics m reg;
          fold tel reg;
          (* Translation-cost probe: restore the data, reset, and re-run
             on the same machine, whose translation caches are now warm.
             Only a re-run that replays the first one exactly is paired
             with it ("rerun"); Machine.reset leaves some device state
             (the DMA engine's BURSTS/BYTES registers) behind, so a
             device driver's re-run may take another path. *)
          List.iter
            (fun c -> if not c.Program.is_code then restore_chunk m c)
            image.Program.chunks;
          Machine.reset m ~pc:image.Program.entry;
          let ts = Trace.now_us sink in
          let stop2 = Machine.run m ~fuel:p.fuel in
          let replayed = stop2 = stop && Machine.instret m = insns in
          let name = if replayed then "rerun" else "rerun-diverged" in
          Trace.complete sink ~args ~name ~cat:"cpu" ~tid:(Domain.self () :> int) ~ts_us:ts
            ~dur_us:(Trace.now_us sink -. ts) ());
      { r_lat = t2 -. t0; r_setup = t1 -. t0; r_insns = insns; r_cycles = cycles }

let exec_rep progs tel =
  let rep = new_rep () in
  List.iteri
    (fun k p ->
      let r = run_prog tel rep p in
      rep.ops <- rep.ops + 1;
      rep.work <- (k, r.r_lat) :: rep.work;
      rep.lats <- (k, r.r_lat) :: rep.lats;
      rep.setups <- (k, r.r_setup) :: rep.setups;
      rep.insns <- rep.insns + r.r_insns;
      rep.cycles <- rep.cycles + r.r_cycles)
    progs;
  rep

(* ------------------------------------------------------------------ *)
(* Fault campaigns. *)

(* [s4e fault] defaults: 10 M fuel with the automatic hang budget. *)
let campaign_cfg ~seed ~mutants =
  { Flows.default_fault_config with
    Flows.ff_seed = seed; ff_mutants = mutants; ff_fuel = 10_000_000;
    ff_hang_budget = Flows.Hang_auto }

(* The per-mutant budget Flows derives for [Hang_auto]. *)
let hang_budget (cfg : Flows.fault_flow_config) golden_instret =
  min cfg.Flows.ff_fuel (max 10_000 (3 * golden_instret))

let key (i, f, o) = (i, S4e_fault.Fault.to_string f, Campaign.outcome_name o)

(* Per-mutant latency, observed through the journal stream: each domain
   classifies mutants one after another, so the gap between two of its
   record lines is the time it spent on the second mutant.  A domain's
   first record also pays for the golden checkpoint trace, so it only
   starts that domain's clock.  Lines are only collected here and parsed
   after the campaign. *)
type tap = { mutable lines : (int * float * string) list }

let new_tap () = { lines = [] }
let tap_line tp line = tp.lines <- ((Domain.self () :> int), now (), line) :: tp.lines

(* The header's arrival time, and (key, gap) per record line; [job]
   keeps the mutants of different jobs apart. *)
let tap_gaps ?(job = 0) tp =
  match List.rev tp.lines with
  | [] -> (nan, [])
  | (_, t_header, _) :: records ->
      let last = Hashtbl.create 4 in
      ( t_header,
        List.filter_map
          (fun (d, t, line) ->
            let prev = Hashtbl.find_opt last d in
            Hashtbl.replace last d t;
            match (prev, Journal.parse_record line) with
            | Some prev, Ok r -> Some ((job * 1_000_000) + r.Journal.r_index, t -. prev)
            | _ -> None)
          records )

(* The target must itself exit as its generator predicts, or every
   mutant would classify against a broken golden run. *)
let health_check tel rep target = ignore (run_prog tel rep target : run)

(* One repetition is [seeds] independent campaigns over the same target,
   each timed as its own input: the mix of mutant outcomes varies a lot
   from one fault list to the next, and several lists average it out. *)
let campaign_rep ~target ~mutants ~seeds =
  let references = Array.make (List.length seeds) None in
  fun tel ->
    let rep = new_rep () in
    if tel.sink <> None then health_check tel rep target;
    List.iteri
      (fun k seed ->
        let cfg = campaign_cfg ~seed ~mutants in
        let journal = fresh_name "campaign.jsonl" in
        let tp = new_tap () in
        let reg = Metrics.create () in
        let t0 = now () in
        let result =
          match assemble tel target.Progs.src with
          | Error _ -> Error "target does not assemble"
          | Ok p ->
              Result.map
                (fun r -> (p, r))
                (Flows.fault_campaign ~jobs:2 ~metrics:reg ?trace:tel.sink ~journal
                   ~on_journal_line:(tap_line tp) cfg p)
        in
        let t1 = now () in
        fold tel reg;
        rep.ops <- rep.ops + mutants;
        (match result with
        | Error e -> fail rep mutants "campaign: %s" e
        | Ok (p, r) ->
            let header, gaps = tap_gaps ~job:k tp in
            rep.work <- (k, t1 -. t0) :: rep.work;
            rep.setups <- (k, header -. t0) :: rep.setups;
            rep.lats <- List.rev_append gaps rep.lats;
            add tel "journal.bytes" (float_of_int (Unix.stat journal).Unix.st_size);
            let got = Array.of_list (List.map key r.Flows.ff_indexed) in
            (match references.(k) with
            | None ->
                (* First repetition: its outcomes become the reference
                   after a 1-in-32 sample agrees with the from-reset
                   semantics. *)
                references.(k) <- Some got;
                let fuel = hang_budget cfg r.Flows.ff_golden.Campaign.sig_instret in
                List.iteri
                  (fun n (i, f, o) ->
                    if n mod 32 = 0 then
                      let o' = Campaign.run_one ~fuel p ~golden:r.Flows.ff_golden f in
                      if Campaign.outcome_name o' <> Campaign.outcome_name o then
                        fail rep 1 "campaign: mutant %d is %s, run_one says %s" i
                          (Campaign.outcome_name o) (Campaign.outcome_name o'))
                  r.Flows.ff_indexed
            | Some want ->
                let bad = ref (abs (Array.length want - Array.length got)) in
                Array.iteri
                  (fun i k -> if i < Array.length want && want.(i) <> k then incr bad)
                  got;
                if !bad > 0 then
                  fail rep !bad "campaign: %d outcomes differ from the first run" !bad);
            if Array.length got <> mutants then
              fail rep (mutants - Array.length got) "campaign: %d of %d mutants classified"
                (Array.length got) mutants);
        (try Sys.remove journal with Sys_error _ -> ()))
      seeds;
    rep.insns <- int_of_float (total tel "campaign.mutant_insns.sum");
    rep

(* ------------------------------------------------------------------ *)
(* The campaign fleet, in process: a loopback server and two worker
   domains.  The main domain only submits, serves HTTP, and checks. *)

module F = S4e_fleet

let request c ~meth ~path ?body () =
  match F.Client.request c ~meth ~path ?body () with
  | Ok (200, v) -> Ok v
  | Ok (s, v) -> Error (Printf.sprintf "HTTP %d %s" s (Json.to_string v))
  | Error e -> Error e

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let fleet_rep ~target ~seeds ~mutants ~shards ~rtt =
  (* single-process references of every job, before any timing *)
  let refs =
    let p = S4e_asm.Assembler.assemble_exn target.Progs.src in
    List.map
      (fun seed ->
        match Flows.fault_campaign ~jobs:2 (campaign_cfg ~seed ~mutants) p with
        | Ok r -> (seed, List.sort compare (List.map key r.Flows.ff_indexed))
        | Error e -> failwith ("fleet reference: " ^ e))
      seeds
  in
  fun tel ->
    let rep = new_rep () in
    let n_mutants = mutants * List.length seeds in
    rep.ops <- n_mutants;
    if tel.sink <> None then health_check tel rep target;
    (* Decodetree.rv32 is a lazy table: two worker domains forcing it at
       the same time can raise CamlinternalLazy.Undefined and fail a
       shard.  Creating one machine here, before the workers exist,
       forces it once — as Campaign.run_indexed does for its pool. *)
    ignore (span tel ~cat:"cpu" "create" (fun () -> Machine.create ()) : Machine.t);
    let dir = fresh_name "fleet" in
    Unix.mkdir dir 0o755;
    let reg = Metrics.create () in
    let server = F.Server.create ~journal_dir:dir ~metrics:reg () in
    (match F.Server.start server (F.Http.Tcp ("127.0.0.1", 0)) with
    | Error e -> fail rep n_mutants "fleet: server: %s" e
    | Ok addr ->
        let clients = [| F.Client.create addr; F.Client.create addr |] in
        (* set-up ends when the first shard's campaign has its golden run
           and fault list: the moment its journal header arrives *)
        let first_header = ref infinity in
        let mu = Mutex.create () in
        (* like [s4e worker], every shard assembles its program *)
        let runner ~spec ~shard ~resume ~emit ~cancelled =
          span tel ~cat:"fleet" "runner" (fun () ->
              let p = Result.get_ok (assemble tel target.Progs.src) in
              let cfg =
                campaign_cfg
                  ~seed:(Option.value (Json.mem_int "seed" spec) ~default:1)
                  ~mutants:(Option.value (Json.mem_int "mutants" spec) ~default:mutants)
              in
              let resume =
                Option.map
                  (fun (h, lines) ->
                    let f = fresh_name "resume.jsonl" in
                    write_lines f (h :: lines);
                    f)
                  resume
              in
              let tp = new_tap () in
              let emit line = tap_line tp line; emit line in
              let r =
                Flows.fault_campaign ~jobs:1 ~metrics:reg ?trace:tel.sink ?resume ~shard
                  ~on_journal_line:emit ~cancelled cfg p
              in
              Option.iter Sys.remove resume;
              let job = Option.get (List.find_index (( = ) cfg.Flows.ff_seed) seeds) in
              let header, gaps = tap_gaps ~job tp in
              Mutex.protect mu (fun () ->
                  first_header := Float.min !first_header header;
                  rep.lats <- List.rev_append gaps rep.lats);
              match r with
              | Error e -> Error e
              | Ok r when r.Flows.ff_complete -> Ok ()
              | Ok _ -> Error "cancelled before the shard finished")
        in
        let t0 = now () in
        let jobs =
          List.filter_map
            (fun seed ->
              let spec =
                Json.Obj
                  [ ("program", Json.String target.Progs.name); ("seed", Json.Int seed);
                    ("mutants", Json.Int mutants); ("shards", Json.Int shards) ]
              in
              match request clients.(0) ~meth:"POST" ~path:"/api/jobs" ~body:spec () with
              | Ok v -> Option.map (fun id -> (id, seed)) (Json.mem_str "job" v)
              | Error e -> fail rep mutants "fleet: submit: %s" e; None)
            seeds
        in
        let workers =
          Array.mapi
            (fun i client ->
              Domain.spawn (fun () ->
                  span tel ~cat:"fleet" "worker" (fun () ->
                      F.Worker.run ~name:(Printf.sprintf "w%d" i) ~poll_s:0.02 ~drain:true
                        ~client ~runner ())))
            clients
        in
        let outcomes = Array.map Domain.join workers in
        let t1 = now () in
        fold tel reg;
        rep.insns <- int_of_float (total tel "campaign.mutant_insns.sum");
        rep.work <- [ (0, t1 -. t0) ];
        rep.setups <- [ (0, !first_header -. t0) ];
        Array.iter
          (function
            | Error e -> fail rep (n_mutants / 2) "fleet: worker: %s" e
            | Ok o when o.F.Worker.o_shards_failed > 0 ->
                fail rep (o.F.Worker.o_shards_failed * mutants / shards)
                  "fleet: %d shard(s) failed" o.F.Worker.o_shards_failed
            | Ok _ -> ())
          outcomes;
        List.iter
          (fun (id, seed) ->
            match
              ( request clients.(0) ~meth:"GET" ~path:("/api/jobs/" ^ id) (),
                Journal.read (Filename.concat dir (id ^ ".jsonl")) )
            with
            | Ok st, Ok (_, records) when Json.mem_str "state" st = Some "done" ->
                let got =
                  List.sort compare
                    (List.map
                       (fun r -> key (r.Journal.r_index, r.Journal.r_fault, r.Journal.r_outcome))
                       records)
                in
                let want = List.assoc seed refs in
                let bad =
                  List.length (List.filter (fun k -> not (List.mem k want)) got)
                  + List.length (List.filter (fun k -> not (List.mem k got)) want)
                in
                if bad > 0 then
                  fail rep bad "fleet: job %s differs from one process in %d records" id bad
            | Ok st, _ -> fail rep mutants "fleet: job %s: %s" id (Json.to_string st)
            | Error e, _ -> fail rep mutants "fleet: job %s: %s" id e)
          jobs;
        (* round trips on an idle server, after the totals were taken *)
        if tel.sink <> None then
          List.iter
            (fun (id, _) ->
              for i = 1 to rtt do
                let path = if i land 1 = 0 then "/healthz" else "/api/jobs/" ^ id in
                let get () = request clients.(0) ~meth:"GET" ~path () in
                match span tel ~cat:"fleet" "rtt" get with
                | Ok _ -> ()
                | Error e -> fail rep 1 "fleet: %s: %s" path e
              done)
            (match jobs with j :: _ -> [ j ] | [] -> []);
        Array.iter F.Client.close clients);
    F.Server.stop server;
    remove_tree dir;
    rep

(* ------------------------------------------------------------------ *)
(* The workloads. *)

type workload = {
  name : string;
  why : string;
  prepare : seed:int -> scale:int -> tel -> rep;
      (** untimed: generate inputs and references; returns one repetition *)
}

let workloads =
  [ { name = "exec_hot";
      why =
        "six seeded ~2 M-instruction kernels: dispatch, superblocks, chaining and the \
         memory TLB";
      prepare = (fun ~seed ~scale -> exec_rep (Progs.exec_hot ~seed ~scale)) };
    { name = "exec_cold";
      why = "one-shot 2-8 KiB programs run 1-4 times: assembly, machine creation and translation";
      prepare =
        (fun ~seed ~scale -> exec_rep (List.init (100 / scale) (Progs.cold ~seed))) };
    { name = "platform";
      why =
        "4-hart spinlock and IPI ring, IRQ-driven DMA and vnet drivers, per-byte MMIO: the \
         event wheel, devices, WFI and the SMP scheduler";
      prepare = (fun ~seed ~scale -> exec_rep (Progs.platform ~seed ~scale)) };
    { name = "campaign";
      why =
        "six s4e fault runs of 500 GPR/code/data mutants on 2 domains: golden run, \
         snapshot forks, early exit, journal";
      prepare =
        (fun ~seed ~scale ->
          campaign_rep ~target:(Progs.campaign_target ~seed) ~mutants:(max 64 (500 / scale))
            ~seeds:(List.init 6 (fun k -> (8 * seed) + k))) };
    { name = "fleet";
      why =
        "the campaign shape through a loopback server and 2 shard-leasing worker domains: \
         HTTP/JSON, leases, live merge";
      prepare =
        (fun ~seed ~scale ->
          fleet_rep ~target:(Progs.campaign_target ~seed)
            ~seeds:[ (2 * seed) + 1; (2 * seed) + 2 ]
            ~mutants:(max 32 (800 / scale)) ~shards:4 ~rtt:(1000 / scale)) } ]

(* ------------------------------------------------------------------ *)
(* Statistics and metric derivation. *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let ratio a b = if b = 0. then 0. else a /. b

(* Each input's fastest repetition.  On a shared or SMT host a core can
   run at half speed for seconds at a time, so a median over repetitions
   lands on whichever speed dominated the run; the fastest observation
   of each short input does not. *)
let fastest pairs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt t k with Some b when b <= v -> () | _ -> Hashtbl.replace t k v)
    pairs;
  Hashtbl.fold (fun _ v acc -> v :: acc) t []

let sum = List.fold_left ( +. ) 0.

(* End-to-end metrics of a set of repetitions: (name, unit, value). *)
let e2e_of_reps reps =
  let r0 = List.hd reps in
  let secs = sum (fastest (List.concat_map (fun r -> r.work) reps)) in
  let lats = fastest (List.concat_map (fun r -> r.lats) reps) in
  [ ("guest_mips", "MIPS", float_of_int r0.insns /. secs /. 1e6);
    ("runs_per_s", "1/s", float_of_int r0.ops /. secs);
    ("run_ms_p50", "ms", 1e3 *. quantile 0.5 lats);
    ("run_ms_p99", "ms", 1e3 *. quantile 0.99 lats);
    ("setup_s", "s", sum (fastest (List.concat_map (fun r -> r.setups) reps))) ]

type event = { cat : string; ev : string; dur_us : float; cls : string option }

let events_of_trace contents =
  match Json.parse contents with
  | Ok (Json.List l) ->
      Array.of_list
        (List.map
           (fun e ->
             { cat = Option.value (Json.mem_str "cat" e) ~default:"";
               ev = Option.value (Json.mem_str "name" e) ~default:"";
               dur_us =
                 Option.value (Option.bind (Json.mem "dur" e) Json.num) ~default:0.;
               cls = Option.bind (Json.mem "args" e) (Json.mem_str "class") })
           l)
  | Ok _ | Error _ -> failwith "trace does not parse as a JSON array"

(* Per-layer metrics of one traced repetition, from its spans, its
   registry, and its observations: (name, unit, value). *)
let layers_of_rep r events tel =
  let sel cat name = List.filter (fun e -> e.cat = cat && e.ev = name) events in
  let span_secs l = List.fold_left (fun a e -> a +. (e.dur_us /. 1e6)) 0. l in
  let secs cat name = span_secs (sel cat name) in
  let pct q l = if l = [] then 0. else quantile q (List.map (fun e -> e.dur_us) l) in
  let c = total tel in
  let run_s = secs "cpu" "run" in
  (* each replaying "rerun" directly follows its program's "run" *)
  let translate_s =
    fst
      (List.fold_left
         (fun (acc, last) e ->
           match (e.cat, e.ev) with
           | "cpu", "run" -> (acc, e.dur_us)
           | "cpu", "rerun" -> (acc +. ((last -. e.dur_us) /. 1e6), 0.)
           | _ -> (acc, last))
         (0., 0.) events)
  in
  let run_class k = span_secs (List.filter (fun e -> e.cls = Some k) (sel "cpu" "run")) in
  let mutants = List.filter (fun e -> e.cat = "mutant") events in
  let dispatches = c "machine.tb.hits" +. c "machine.tb.misses" +. c "machine.tb.chain_hits" in
  let runner_s = secs "fleet" "runner" in
  let rtts = sel "fleet" "rtt" in
  [ ("asm.assemble_s", "s", secs "asm" "assemble");
    ("cpu.create_s", "s", secs "cpu" "create");
    ("cpu.run_s", "s", run_s);
    ("cpu.translate_s", "s", translate_s);
    ("tb.blocks_translated", "count", c "machine.tb.misses");
    ("tb.hits", "count", c "machine.tb.hits");
    ("tb.chain_hits", "count", c "machine.tb.chain_hits");
    ("tb.invalidations", "count", c "machine.tb.invalidations");
    ("tb.chain_rate", "ratio", ratio (c "machine.tb.chain_hits") dispatches);
    ("sb.promotions", "count", c "machine.sb.promotions");
    ("sb.execs", "count", c "machine.sb.execs");
    ("sb.completions", "count", c "machine.sb.completions");
    ("sb.coverage", "ratio", ratio (c "machine.sb.instrs") (c "machine.instret"));
    ("sb.completion_rate", "ratio", ratio (c "machine.sb.completions") (c "machine.sb.execs"));
    ("sim.instret", "count", float_of_int r.insns);
    ("sim.cycles", "count", float_of_int r.cycles);
    ("sim.mcps", "Mcycles/s", float_of_int r.cycles /. sum (List.map snd r.work) /. 1e6);
    ("mem.tlb_hits", "count", c "machine.mem.tlb_hits");
    ("mem.tlb_misses", "count", c "machine.mem.tlb_misses");
    ("mem.tlb_flushes", "count", c "machine.mem.tlb_flushes");
    ("mem.tlb_hit_rate", "ratio",
      ratio (c "machine.mem.tlb_hits") (c "machine.mem.tlb_hits" +. c "machine.mem.tlb_misses"));
    ("soc.wheel_fired", "count", c "machine.wheel.fired");
    ("soc.wheel_idle_skips", "count", c "machine.wheel.idle_skips");
    ("soc.dma_bytes", "count", c "machine.dma.bytes");
    ("soc.vnet_rx_delivered", "count", c "machine.vnet.rx_delivered");
    ("soc.vnet_rx_dropped", "count", c "machine.vnet.rx_dropped");
    ("soc.device_run_s", "s", run_class "device");
    ("smp.run_s", "s", run_class "smp");
    ("fault.golden_s", "s", secs "flow" "golden+coverage");
    ("fault.generate_s", "s", secs "flow" "generate");
    ("fault.golden_trace_s", "s", secs "campaign" "golden-trace");
    ("fault.mutant_us_p50", "us", pct 0.5 mutants);
    ("fault.mutant_us_p99", "us", pct 0.99 mutants);
    ("fault.sim_mips", "MIPS",
      ratio (c "campaign.mutant_insns.sum") (secs "flow" "campaign") /. 1e6);
    ("fault.early_exit_rate", "ratio", ratio (c "campaign.early_exits") (c "campaign.mutants"));
    ("fault.snapshot_forks", "count", c "campaign.snapshot_forks");
    ("fault.hangs", "count", c "campaign.hangs");
    ("fault.errors", "count", c "campaign.errors");
    ("journal.flush_s", "s", secs "campaign" "journal-flush");
    ("journal.bytes", "count", c "journal.bytes");
    ("pool.idle_s", "s", c "pool.idle_s");
    ("pool.chunks", "count", c "pool.chunks");
    ("fleet.runner_s", "s", runner_s);
    ("fleet.overhead_s", "s", secs "fleet" "worker" -. runner_s);
    ("fleet.http_requests", "count", c "fleet.http.requests");
    ("fleet.leases_granted", "count", c "fleet.leases.granted");
    ("fleet.records_received", "count", c "fleet.records.received");
    ("fleet.batch_mean", "count",
      ratio (c "fleet.records.batch_size.sum") (c "fleet.records.batch_size.count"));
    ("fleet.rtt_us_p50", "us", pct 0.5 rtts);
    ("fleet.rtt_us_p99", "us", pct 0.99 rtts) ]

(* ------------------------------------------------------------------ *)
(* A measured pass: repetitions until [budget] seconds have elapsed. *)

type pass = { reps : rep list; layer_reps : (string * string * float) list list }

let run_pass ~budget ~traced rep_fn =
  let sink = if traced then Some (Trace.create ()) else None in
  let t_end = now () +. budget in
  let rec go acc =
    Gc.full_major ();
    let tel = new_tel sink in
    let first = Option.fold ~none:0 ~some:Trace.events sink in
    let r = span tel ~cat:"ledger" "rep" (fun () -> rep_fn tel) in
    let acc = (r, tel, first, Option.fold ~none:0 ~some:Trace.events sink) :: acc in
    if now () < t_end then go acc else List.rev acc
  in
  let reps = go [] in
  let layer_reps =
    match sink with
    | None -> []
    | Some s ->
        let events = events_of_trace (Trace.contents s) in
        List.map
          (fun (r, tel, lo, hi) ->
            layers_of_rep r (Array.to_list (Array.sub events lo (hi - lo))) tel)
          reps
  in
  ({ reps = List.map (fun (r, _, _, _) -> r) reps; layer_reps }, sink)

let peak_rss_mb () =
  let tel = new_tel None and reg = Metrics.create () in
  Metrics.register_process_gauges reg;
  fold tel reg;
  total tel "process.max_rss_kb" /. 1024.
