module Obs = S4e_obs
module Json = S4e_obs.Json
module Journal = S4e_fault.Journal
module Campaign = S4e_fault.Campaign

(* ---------------- jobs ---------------- *)

type jstate = Running | Done | Failed of string

type worker_stat = {
  mutable w_records : int;
  mutable w_first : float;
  mutable w_last : float;
}

type job = {
  j_id : string;
  j_spec : Json.t;
  j_shards : int;
  j_lease : Lease.t;
  j_created : float;
  mutable j_state : jstate;
  mutable j_finished : float option;
  mutable j_header : Journal.header option;  (* unsharded, once streamed *)
  j_records : (int, Journal.record) Hashtbl.t;
  j_grants : (int, int) Hashtbl.t;  (* lease id -> shard, stale ones too *)
  mutable j_dups : int;
  mutable j_journal : string option;  (* merged journal path, once written *)
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  clock : unit -> float;
  ttl : float;
  journal_dir : string option;
  metrics : Obs.Metrics.t option;
  log : string -> unit;
  started : float;
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (* submission order, newest first *)
  mutable next_job : int;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  workers : (string, worker_stat) Hashtbl.t;
  mutable last_merge : float;
  (* counters (None when no registry is attached) *)
  c_requests : Obs.Metrics.counter option;
  c_leases : Obs.Metrics.counter option;
  c_records : Obs.Metrics.counter option;
  c_dups : Obs.Metrics.counter option;
  c_shards_done : Obs.Metrics.counter option;
  c_jobs_done : Obs.Metrics.counter option;
  c_jobs_failed : Obs.Metrics.counter option;
  h_batch : Obs.Metrics.histogram option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let jobs_in_order t =
  List.rev_map (fun id -> Hashtbl.find t.jobs id) t.order

let jobs_running t =
  locked t (fun () ->
      List.length
        (List.filter (fun j -> j.j_state = Running) (jobs_in_order t)))

let jobs_total t = locked t (fun () -> Hashtbl.length t.jobs)

let register_gauges t reg =
  let fold f init = locked t (fun () -> List.fold_left f init (jobs_in_order t)) in
  Obs.Metrics.gauge_int reg "fleet.jobs.total" (fun () ->
      locked t (fun () -> Hashtbl.length t.jobs));
  Obs.Metrics.gauge_int reg "fleet.jobs.running" (fun () ->
      fold (fun n j -> if j.j_state = Running then n + 1 else n) 0);
  Obs.Metrics.gauge_int reg "fleet.shards.queued" (fun () ->
      fold
        (fun n j ->
          if j.j_state = Running then n + Lease.queued j.j_lease else n)
        0);
  Obs.Metrics.gauge_int reg "fleet.shards.leased" (fun () ->
      fold (fun n j -> n + Lease.leased j.j_lease) 0);
  Obs.Metrics.gauge_int reg "fleet.leases.reclaimed" (fun () ->
      fold (fun n j -> n + Lease.reclaimed_total j.j_lease) 0);
  Obs.Metrics.gauge_float reg "fleet.leases.oldest_age_s" (fun () ->
      let now = t.clock () in
      fold (fun age j -> Float.max age (Lease.oldest_age j.j_lease ~now)) 0.)

let create ?(ttl = 30.0) ?journal_dir ?metrics ?(clock = Unix.gettimeofday)
    ?(log = fun _ -> ()) () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  let t =
    { mutex = Mutex.create ();
      cond = Condition.create ();
      clock;
      ttl;
      journal_dir;
      metrics;
      log;
      started = clock ();
      jobs = Hashtbl.create 16;
      order = [];
      next_job = 1;
      stopped = false;
      accept_thread = None;
      workers = Hashtbl.create 16;
      last_merge = clock ();
      c_requests = c "fleet.http.requests";
      c_leases = c "fleet.leases.granted";
      c_records = c "fleet.records.received";
      c_dups = c "fleet.records.duplicates";
      c_shards_done = c "fleet.shards.completed";
      c_jobs_done = c "fleet.jobs.completed";
      c_jobs_failed = c "fleet.jobs.failed";
      h_batch =
        Option.map
          (fun r ->
            Obs.Metrics.histogram r "fleet.records.batch_size"
              ~bounds:[| 1; 8; 32; 64; 128; 512 |])
          metrics }
  in
  (match metrics with
  | Some reg ->
      register_gauges t reg;
      Obs.Metrics.gauge_float reg "fleet.merge.last_record_age_s" (fun () ->
          locked t (fun () -> t.clock () -. t.last_merge));
      Obs.Metrics.register_process_gauges reg
  | None -> ());
  t

let bump c = Option.iter Obs.Metrics.incr c
let bump_n c n = Option.iter (fun c -> Obs.Metrics.add c n) c

(* per-worker throughput gauges, registered on first sight *)
let worker_stat t name =
  match Hashtbl.find_opt t.workers name with
  | Some w -> w
  | None ->
      let now = t.clock () in
      let w = { w_records = 0; w_first = now; w_last = now } in
      Hashtbl.replace t.workers name w;
      (match t.metrics with
      | Some reg ->
          Obs.Metrics.gauge_int reg
            (Printf.sprintf "fleet.worker.%s.records" name)
            (fun () -> w.w_records);
          Obs.Metrics.gauge_float reg
            (Printf.sprintf "fleet.worker.%s.mutants_per_s" name)
            (fun () ->
              let dt = w.w_last -. w.w_first in
              if dt <= 0. then 0. else float_of_int w.w_records /. dt)
      | None -> ());
      w

(* ---------------- job bookkeeping (caller holds the lock) -------- *)

let job_summary j =
  Campaign.summary_to_json
    (Campaign.summarize
       (Hashtbl.fold
          (fun _ r acc -> (r.Journal.r_fault, r.Journal.r_outcome) :: acc)
          j.j_records []))

(* the header of one shard's slice of the job's campaign *)
let shard_header j h s = { h with Journal.j_shard = (s, j.j_shards) }

let write_journal t j ~partial =
  match (t.journal_dir, j.j_header) with
  | Some dir, Some h when Hashtbl.length j.j_records > 0 || not partial -> (
      let path =
        Filename.concat dir
          (j.j_id ^ if partial then ".partial.jsonl" else ".jsonl")
      in
      let written =
        Result.bind (Journal.create ~path h) (fun w ->
            try
              List.iter (Journal.write w) (Journal.sorted_records j.j_records);
              Ok (Journal.close w)
            with Sys_error e -> Error e)
      in
      match written with
      | Ok () ->
          if not partial then j.j_journal <- Some path;
          t.log (Printf.sprintf "job %s: journal %s" j.j_id path)
      | Error e ->
          t.log (Printf.sprintf "job %s: journal write failed: %s" j.j_id e))
  | _ -> ()

let fail_job t j msg =
  if j.j_state = Running then begin
    j.j_state <- Failed msg;
    j.j_finished <- Some (t.clock ());
    bump t.c_jobs_failed;
    t.log (Printf.sprintf "job %s: FAILED: %s" j.j_id msg)
  end

let maybe_finish t j =
  if j.j_state = Running && Lease.all_done j.j_lease then
    match j.j_header with
    | Some h when Hashtbl.length j.j_records >= h.Journal.j_total ->
        j.j_state <- Done;
        j.j_finished <- Some (t.clock ());
        bump t.c_jobs_done;
        t.log
          (Printf.sprintf "job %s: done (%d records)" j.j_id h.Journal.j_total);
        write_journal t j ~partial:false
    | Some h ->
        fail_job t j
          (Printf.sprintf "all shards complete but only %d/%d records"
             (Hashtbl.length j.j_records) h.Journal.j_total)
    | None -> fail_job t j "all shards complete but no journal header seen"

(* One checked journal line into the job, under Journal.merge's
   rules; a disagreement fails the job. *)
let merge_line t j ~fresh ~dups = function
  | Journal.Header h -> (
      match j.j_header with
      | None when h.Journal.j_total <= 0 ->
          fail_job t j "journal header with non-positive total"
      | None -> j.j_header <- Some { h with Journal.j_shard = (0, 1) }
      | Some h0 -> Result.iter_error (fail_job t j) (Journal.merge_header h0 h))
  | Journal.Record r -> (
      match Journal.merge_record j.j_records r with
      | Ok `Fresh ->
          t.last_merge <- t.clock ();
          incr fresh
      | Ok `Dup ->
          incr dups;
          j.j_dups <- j.j_dups + 1
      | Error e -> fail_job t j e)

(* ---------------- responses ---------------- *)

let respond ?(status = 200) v =
  { Http.rs_status = status;
    rs_headers = [ ("content-type", "application/json") ];
    rs_body = Json.to_string v ^ "\n" }

let error_response status msg =
  respond ~status (Json.Obj [ ("error", Json.String msg) ])

let job_status_json t j =
  let now = t.clock () in
  let state, err =
    match j.j_state with
    | Running -> ("running", None)
    | Done -> ("done", None)
    | Failed e -> ("failed", Some e)
  in
  Json.Obj
    ([ ("job", Json.String j.j_id);
       ("state", Json.String state) ]
    @ (match err with Some e -> [ ("error", Json.String e) ] | None -> [])
    @ [ ("shards",
         Json.Obj
           [ ("count", Json.Int (Lease.count j.j_lease));
             ("queued", Json.Int (Lease.queued j.j_lease));
             ("leased", Json.Int (Lease.leased j.j_lease));
             ("done", Json.Int (Lease.completed j.j_lease));
             ("reclaimed", Json.Int (Lease.reclaimed_total j.j_lease)) ]);
        ("records", Json.Int (Hashtbl.length j.j_records));
        ("duplicates", Json.Int j.j_dups);
        ("total",
         match j.j_header with
         | Some h -> Json.Int h.Journal.j_total
         | None -> Json.Null);
        ("summary", job_summary j);
        ("age_s",
         Json.Float
           (match j.j_finished with
           | Some f -> f -. j.j_created
           | None -> now -. j.j_created));
        ("journal",
         match j.j_journal with
         | Some p -> Json.String p
         | None -> Json.Null);
        ("spec", j.j_spec) ])

(* ---------------- endpoint handlers ---------------- *)

let parse_body body =
  match Json.parse body with
  | Ok v -> Ok v
  | Error e -> Error (error_response 400 e)

let handle_submit t body =
  match parse_body body with
  | Error r -> r
  | Ok spec ->
      let shards = max 1 (Option.value (Json.mem_int "shards" spec) ~default:1) in
      locked t (fun () ->
          let id = Printf.sprintf "j%d" t.next_job in
          t.next_job <- t.next_job + 1;
          let job =
            { j_id = id;
              j_spec = spec;
              j_shards = shards;
              j_lease = Lease.create ~count:shards;
              j_created = t.clock ();
              j_state = Running;
              j_finished = None;
              j_header = None;
              j_records = Hashtbl.create 256;
              j_grants = Hashtbl.create 8;
              j_dups = 0;
              j_journal = None }
          in
          Hashtbl.replace t.jobs id job;
          t.order <- id :: t.order;
          t.log (Printf.sprintf "job %s: submitted (%d shards)" id shards);
          respond
            (Json.Obj [ ("job", Json.String id); ("shards", Json.Int shards) ]))

(* Fair multi-tenant lease choice: among running jobs with an available
   shard, pick the one with the fewest live leases (ties to the oldest
   submission), so concurrent jobs make progress together instead of
   draining in submission order. *)
let handle_lease t body =
  match parse_body body with
  | Error r -> r
  | Ok v ->
      let worker = Option.value (Json.mem_str "worker" v) ~default:"anon" in
      locked t (fun () ->
          let now = t.clock () in
          ignore (worker_stat t worker : worker_stat);
          let candidates =
            List.filter
              (fun j ->
                j.j_state = Running
                && Lease.queued j.j_lease > 0
                   (* count expired-but-unreaped leases as available *)
                   || (j.j_state = Running
                      && List.exists
                           (fun (_, h) -> h.Lease.h_expires <= now)
                           (Lease.holders j.j_lease)))
              (jobs_in_order t)
          in
          let running =
            List.length
              (List.filter (fun j -> j.j_state = Running) (jobs_in_order t))
          in
          let pick =
            List.fold_left
              (fun best j ->
                match best with
                | None -> Some j
                | Some b ->
                    if Lease.leased j.j_lease < Lease.leased b.j_lease then
                      Some j
                    else best)
              None candidates
          in
          match pick with
          | None ->
              respond
                (Json.Obj
                   [ ("idle", Json.Bool true); ("running", Json.Int running) ])
          | Some j -> (
              match Lease.acquire j.j_lease ~now ~ttl:t.ttl ~worker with
              | None ->
                  respond
                    (Json.Obj
                       [ ("idle", Json.Bool true);
                         ("running", Json.Int running) ])
              | Some (shard, lease) ->
                  bump t.c_leases;
                  Hashtbl.replace j.j_grants lease shard;
                  let lease_id = Printf.sprintf "%s:%d" j.j_id lease in
                  t.log
                    (Printf.sprintf "job %s: shard %d/%d leased to %s (%s)"
                       j.j_id shard j.j_shards worker lease_id);
                  let known =
                    Journal.sorted_records j.j_records
                    |> List.filter (fun r ->
                           r.Journal.r_index mod j.j_shards = shard)
                  in
                  let resume =
                    match (j.j_header, known) with
                    | Some h, _ :: _ ->
                        Json.Obj
                          [ ("header",
                             Json.String
                               (Journal.header_line (shard_header j h shard)));
                            ("lines",
                             Json.List
                               (List.map
                                  (fun r -> Json.String (Journal.record_line r))
                                  known)) ]
                    | _ -> Json.Null
                  in
                  respond
                    (Json.Obj
                       [ ("job", Json.String j.j_id);
                         ("shard", Json.Int shard);
                         ("shards", Json.Int j.j_shards);
                         ("lease", Json.String lease_id);
                         ("ttl", Json.Float t.ttl);
                         ("spec", j.j_spec);
                         ("resume", resume) ])))

let find_lease t v =
  match Json.mem_str "lease" v with
  | None -> Error (error_response 400 "missing lease")
  | Some id -> (
      match String.index_opt id ':' with
      | None -> Error (error_response 400 ("malformed lease id: " ^ id))
      | Some i -> (
          let job_id = String.sub id 0 i in
          let lease =
            int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
          in
          match (Hashtbl.find_opt t.jobs job_id, lease) with
          | Some j, Some l -> Ok (j, l)
          | None, _ -> Error (error_response 404 ("unknown job: " ^ job_id))
          | _, None -> Error (error_response 400 ("malformed lease id: " ^ id))))

let handle_renew t body =
  match parse_body body with
  | Error r -> r
  | Ok v ->
      locked t (fun () ->
          match find_lease t v with
          | Error r -> r
          | Ok (j, lease) ->
              let ok =
                j.j_state = Running
                && Lease.renew j.j_lease ~now:(t.clock ()) ~ttl:t.ttl ~lease
              in
              respond (Json.Obj [ ("ok", Json.Bool ok) ]))

(* A batch is checked whole before any of it merges: every line must
   be a string that parses, a header must be for the lease's shard,
   and every record must follow a header and lie in the lease's shard
   slice. *)
let check_lines j lease lines =
  match Hashtbl.find_opt j.j_grants lease with
  | None -> Error "records on a lease this job never granted"
  | Some shard ->
      let rec go header acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            match Option.map Journal.parse_line (Json.str line) with
            | None -> Error "journal line is not a string"
            | Some (Error e) -> Error e
            | Some (Ok (Journal.Header h as l)) ->
                if h.Journal.j_shard = (shard, j.j_shards) then
                  go (Some h) (l :: acc) rest
                else
                  Error
                    (Printf.sprintf
                       "journal header for another shard than %d/%d" shard
                       j.j_shards)
            | Some (Ok (Journal.Record r as l)) -> (
                match header with
                | None -> Error "record line before the journal header"
                | Some h -> (
                    match Journal.check (shard_header j h shard) r with
                    | Error e -> Error e
                    | Ok () -> go header (l :: acc) rest)))
      in
      go j.j_header [] lines

let handle_records t body =
  match parse_body body with
  | Error r -> r
  | Ok v ->
      locked t (fun () ->
          match find_lease t v with
          | Error r -> r
          | Ok (j, lease) ->
              let lines = Option.value (Json.mem_list "lines" v) ~default:[] in
              Option.iter
                (fun h -> Obs.Metrics.observe h (List.length lines))
                t.h_batch;
              let now = t.clock () in
              let lease_ok =
                j.j_state = Running
                && Lease.renew j.j_lease ~now ~ttl:t.ttl ~lease
              in
              if j.j_state <> Running then
                (* done or failed: the records are no longer needed *)
                respond
                  (Json.Obj
                     [ ("accepted", Json.Int 0);
                       ("duplicates", Json.Int 0);
                       ("lease_ok", Json.Bool false) ])
              else
                match check_lines j lease lines with
                | Error e -> error_response 400 e
                | Ok parsed -> (
                    let fresh = ref 0 and dups = ref 0 in
                    List.iter
                      (fun l ->
                        if j.j_state = Running then
                          merge_line t j ~fresh ~dups l)
                      parsed;
                    bump_n t.c_records !fresh;
                    bump_n t.c_dups !dups;
                    let worker =
                      Option.value (Json.mem_str "worker" v) ~default:"anon"
                    in
                    let w = worker_stat t worker in
                    w.w_records <- w.w_records + !fresh;
                    w.w_last <- now;
                    match j.j_state with
                    | Failed e -> error_response 409 e
                    | _ ->
                        respond
                          (Json.Obj
                             [ ("accepted", Json.Int !fresh);
                               ("duplicates", Json.Int !dups);
                               ("lease_ok", Json.Bool lease_ok) ])))

let handle_complete t body =
  match parse_body body with
  | Error r -> r
  | Ok v ->
      locked t (fun () ->
          match find_lease t v with
          | Error r -> r
          | Ok (j, lease) ->
              if j.j_state <> Running then
                error_response 409
                  (match j.j_state with
                  | Failed e -> e
                  | _ -> "job already finished")
              else
                let now = t.clock () in
                (* the shard must actually be fully classified *)
                let shard = Lease.shard_of j.j_lease ~now ~lease in
                match (shard, j.j_header) with
                | None, _ ->
                    error_response 410 "lease expired (shard reassigned)"
                | Some _, None ->
                    error_response 409 "no journal header streamed yet"
                | Some s, Some h ->
                    let expected =
                      Journal.expected_count (shard_header j h s)
                    and have =
                      Hashtbl.fold
                        (fun i _ n -> if i mod j.j_shards = s then n + 1 else n)
                        j.j_records 0
                    in
                    if have < expected then
                      error_response 409
                        (Printf.sprintf "shard %d incomplete: %d/%d records" s
                           have expected)
                    else (
                      match Lease.complete j.j_lease ~now ~lease with
                      | Error e -> error_response 410 e
                      | Ok _ ->
                          bump t.c_shards_done;
                          t.log
                            (Printf.sprintf "job %s: shard %d complete"
                               j.j_id s);
                          maybe_finish t j;
                          respond
                            (Json.Obj
                               [ ("ok", Json.Bool true);
                                 ("job_state",
                                  Json.String
                                    (match j.j_state with
                                    | Done -> "done"
                                    | Running -> "running"
                                    | Failed _ -> "failed")) ])))

let handle_release t body =
  match parse_body body with
  | Error r -> r
  | Ok v ->
      locked t (fun () ->
          match find_lease t v with
          | Error r -> r
          | Ok (j, lease) ->
              let ok = Lease.release j.j_lease ~lease in
              if ok then t.log (Printf.sprintf "job %s: lease released" j.j_id);
              respond (Json.Obj [ ("ok", Json.Bool ok) ]))

let handle t (rq : Http.request) =
  bump t.c_requests;
  match (rq.Http.rq_method, rq.Http.rq_path) with
  | "POST", "/api/jobs" -> handle_submit t rq.Http.rq_body
  | "GET", "/api/jobs" ->
      locked t (fun () ->
          respond
            (Json.Obj
               [ ("jobs",
                  Json.List (List.map (job_status_json t) (jobs_in_order t)))
               ]))
  | "GET", path
    when String.length path > String.length "/api/jobs/"
         && String.sub path 0 (String.length "/api/jobs/") = "/api/jobs/" -> (
      let id =
        String.sub path (String.length "/api/jobs/")
          (String.length path - String.length "/api/jobs/")
      in
      locked t (fun () ->
          match Hashtbl.find_opt t.jobs id with
          | Some j -> respond (job_status_json t j)
          | None -> error_response 404 ("unknown job: " ^ id)))
  | "POST", "/api/lease" -> handle_lease t rq.Http.rq_body
  | "POST", "/api/renew" -> handle_renew t rq.Http.rq_body
  | "POST", "/api/records" -> handle_records t rq.Http.rq_body
  | "POST", "/api/complete" -> handle_complete t rq.Http.rq_body
  | "POST", "/api/release" -> handle_release t rq.Http.rq_body
  | "GET", "/metrics" -> (
      match t.metrics with
      | Some reg ->
          { Http.rs_status = 200;
            rs_headers = [ ("content-type", "application/json") ];
            rs_body = Obs.Metrics.to_json reg }
      | None -> error_response 404 "no metrics registry attached")
  | "GET", "/healthz" ->
      respond
        (Json.Obj
           [ ("ok", Json.Bool true);
             ("uptime_s", Json.Float (t.clock () -. t.started)) ])
  | ("GET" | "POST"), _ -> error_response 404 ("no such endpoint: " ^ rq.Http.rq_path)
  | _ -> error_response 405 "method not allowed"

(* ---------------- transport ---------------- *)

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Http.read_request ic with
    | Error `Eof -> ()
    | Error (`Bad msg) ->
        (try Http.write_response oc ~status:400
               (Json.to_string (Json.Obj [ ("error", Json.String msg) ]))
         with Sys_error _ -> ())
    | Ok rq ->
        let rs =
          if locked t (fun () -> t.stopped) then
            error_response 503 "server shutting down"
          else
            try handle t rq
            with e -> error_response 400 (Printexc.to_string e)
        in
        (match
           try
             Http.write_response oc ~status:rs.Http.rs_status rs.Http.rs_body;
             true
           with Sys_error _ -> false
         with
        | true -> loop ()
        | false -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try flush oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let accept_loop t fd =
  let rec loop () =
    let stop = locked t (fun () -> t.stopped) in
    if not stop then begin
      (match Unix.select [ fd ] [] [] 0.25 with
      | [ _ ], _, _ -> (
          match Unix.accept fd with
          | conn, _ ->
              ignore
                (Thread.create
                   (fun () -> try serve_connection t conn with _ -> ())
                   ()
                  : Thread.t)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start t addr =
  match Http.listen addr with
  | Error e -> Error e
  | Ok fd ->
      let bound = Http.bound_addr fd addr in
      let th = Thread.create (fun () -> accept_loop t fd) () in
      locked t (fun () -> t.accept_thread <- Some th);
      t.log ("listening on " ^ Http.addr_to_string bound);
      Ok bound

let stop t =
  let flush_jobs =
    locked t (fun () ->
        if t.stopped then []
        else begin
          t.stopped <- true;
          Condition.broadcast t.cond;
          List.filter
            (fun j ->
              j.j_state = Running && Hashtbl.length j.j_records > 0)
            (jobs_in_order t)
        end)
  in
  List.iter (fun j -> locked t (fun () -> write_journal t j ~partial:true))
    flush_jobs;
  match locked t (fun () -> t.accept_thread) with
  | Some th -> (try Thread.join th with _ -> ())
  | None -> ()

let wait t =
  Mutex.lock t.mutex;
  while not t.stopped do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex;
  match locked t (fun () -> t.accept_thread) with
  | Some th -> (try Thread.join th with _ -> ())
  | None -> ()
