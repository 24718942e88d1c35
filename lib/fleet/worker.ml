module Obs = S4e_obs
module Json = S4e_obs.Json

type runner =
  spec:Json.t ->
  shard:int * int ->
  resume:(string * string list) option ->
  emit:(string -> unit) ->
  cancelled:(unit -> bool) ->
  (unit, string) result

type outcome = {
  o_shards_ok : int;
  o_shards_failed : int;
  o_records : int;
}

type grant = {
  g_job : string;
  g_shard : int;
  g_shards : int;
  g_lease : string;
  g_ttl : float;
  g_spec : Json.t;
  g_resume : (string * string list) option;
}

module Alarm = struct
  (* A self-pipe: [wait] sleeps in [Unix.select] on its read end, and
     [wake] makes it readable. *)
  type t = { r : Unix.file_descr; w : Unix.file_descr }

  let create () =
    let r, w = Unix.pipe ~cloexec:true () in
    { r; w }

  let wait t seconds =
    match Unix.select [ t.r ] [] [] seconds with
    | [], _, _ -> false
    | _ :: _, _, _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  let wake t = ignore (Unix.write_substring t.w "!" 0 1 : int)

  let close t =
    Unix.close t.r;
    Unix.close t.w
end

let parse_grant v =
  match
    ( Json.mem_str "job" v,
      Json.mem_int "shard" v,
      Json.mem_int "shards" v,
      Json.mem_str "lease" v )
  with
  | Some job, Some shard, Some shards, Some lease ->
      let ttl =
        match Json.mem "ttl" v with
        | Some t -> Option.value (Json.num t) ~default:30.
        | None -> 30.
      in
      let resume =
        match Json.mem "resume" v with
        | Some (Json.Obj _ as r) -> (
            match (Json.mem_str "header" r, Json.mem_list "lines" r) with
            | Some header, Some lines ->
                Some (header, List.filter_map Json.str lines)
            | _ -> None)
        | _ -> None
      in
      Ok
        { g_job = job; g_shard = shard; g_shards = shards; g_lease = lease;
          g_ttl = ttl;
          g_spec = Option.value (Json.mem "spec" v) ~default:Json.Null;
          g_resume = resume }
  | _ -> Error "malformed lease grant"

let run ?(name = "worker") ?(poll_s = 0.5) ?(batch = 32) ?stop ?(drain = false)
    ?metrics ?(log = fun _ -> ()) ~client ~runner () =
  let stopped () = match stop with Some r -> !r | None -> false in
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  Option.iter Obs.Metrics.register_process_gauges metrics;
  let c_ok = c "worker.shards.completed" in
  let c_failed = c "worker.shards.failed" in
  let c_sent = c "worker.records.sent" in
  let bump c = Option.iter Obs.Metrics.incr c in
  let bump_n c n = Option.iter (fun c -> Obs.Metrics.add c n) c in
  let ok = ref 0 and failed = ref 0 and records = ref 0 in
  (* First contact: an unreachable server is a setup error, not an idle
     fleet — later transport hiccups are retried by the pull loop. *)
  match Client.request client ~meth:"GET" ~path:"/healthz" () with
  | Error e -> Error ("orchestrator unreachable: " ^ e)
  | Ok _ ->
      let run_shard g =
        let lost = Atomic.make false in
        let buffer = ref [] and buffered = ref 0 in
        let post_lines lines =
          let body =
            Json.Obj
              [ ("lease", Json.String g.g_lease);
                ("worker", Json.String name);
                ("lines", Json.List (List.map (fun l -> Json.String l) lines))
              ]
          in
          match
            Client.request client ~meth:"POST" ~path:"/api/records" ~body ()
          with
          | Ok (200, reply) ->
              records := !records + List.length lines;
              bump_n c_sent (List.length lines);
              if Json.mem_bool "lease_ok" reply = Some false then
                Atomic.set lost true
          | Ok (_, _) | Error _ ->
              (* Conflict, job gone, or transport failure: the shard is
                 no longer ours to finish.  Streamed records are merged
                 idempotently, so abandoning here loses nothing. *)
              Atomic.set lost true
        in
        let flush () =
          if !buffer <> [] then begin
            post_lines (List.rev !buffer);
            buffer := [];
            buffered := 0
          end
        in
        let emit line =
          buffer := line :: !buffer;
          incr buffered;
          if !buffered >= batch then flush ()
        in
        (* Heartbeat: renew at ttl/3 so one missed beat still leaves
           slack before expiry.  It waits on an alarm, so the end of the
           shard wakes it at once instead of after a nap. *)
        let alarm = Alarm.create () in
        let shard_done = Atomic.make false in
        let heartbeat =
          Thread.create
            (fun () ->
              let interval = Float.max 0.05 (g.g_ttl /. 3.) in
              while not (Atomic.get shard_done || Atomic.get lost) do
                ignore (Alarm.wait alarm interval : bool);
                if not (Atomic.get shard_done || Atomic.get lost) then
                  match
                    Client.request client ~meth:"POST" ~path:"/api/renew"
                      ~body:(Json.Obj [ ("lease", Json.String g.g_lease) ])
                      ()
                  with
                  | Ok (200, reply)
                    when Json.mem_bool "ok" reply = Some true ->
                      ()
                  | Ok _ | Error _ -> Atomic.set lost true
              done)
            ()
        in
        let cancelled () = stopped () || Atomic.get lost in
        let result =
          try
            runner ~spec:g.g_spec ~shard:(g.g_shard, g.g_shards)
              ~resume:g.g_resume ~emit ~cancelled
          with e -> Error (Printexc.to_string e)
        in
        flush ();
        Atomic.set shard_done true;
        Alarm.wake alarm;
        (try Thread.join heartbeat with _ -> ());
        Alarm.close alarm;
        let lease_body = Json.Obj [ ("lease", Json.String g.g_lease) ] in
        match (result, Atomic.get lost, stopped ()) with
        | Ok (), false, false -> (
            match
              Client.request client ~meth:"POST" ~path:"/api/complete"
                ~body:lease_body ()
            with
            | Ok (200, _) ->
                incr ok;
                bump c_ok;
                log
                  (Printf.sprintf "%s: job %s shard %d/%d complete" name
                     g.g_job g.g_shard g.g_shards)
            | Ok (_, reply) ->
                incr failed;
                bump c_failed;
                log
                  (Printf.sprintf "%s: job %s shard %d rejected: %s" name
                     g.g_job g.g_shard
                     (Option.value (Json.mem_str "error" reply)
                        ~default:"(no reason)"))
            | Error e ->
                incr failed;
                bump c_failed;
                log (Printf.sprintf "%s: complete failed: %s" name e))
        | (Error _ | Ok ()), _, _ ->
            (match result with
            | Error e ->
                log
                  (Printf.sprintf "%s: job %s shard %d failed: %s" name
                     g.g_job g.g_shard e)
            | Ok () ->
                log
                  (Printf.sprintf "%s: job %s shard %d abandoned" name
                     g.g_job g.g_shard));
            incr failed;
            bump c_failed;
            ignore
              (Client.request client ~meth:"POST" ~path:"/api/release"
                 ~body:lease_body ()
                : (int * Json.t, string) result)
      in
      let rec loop () =
        if stopped () then ()
        else
          match
            Client.request client ~meth:"POST" ~path:"/api/lease"
              ~body:(Json.Obj [ ("worker", Json.String name) ])
              ()
          with
          | Ok (200, reply) when Json.mem_bool "idle" reply = Some true ->
              let running =
                Option.value (Json.mem_int "running" reply) ~default:0
              in
              if drain && running = 0 then ()
              else begin
                Thread.delay poll_s;
                loop ()
              end
          | Ok (200, reply) -> (
              match parse_grant reply with
              | Ok g ->
                  log
                    (Printf.sprintf "%s: leased job %s shard %d/%d" name
                       g.g_job g.g_shard g.g_shards);
                  run_shard g;
                  loop ()
              | Error e ->
                  log (Printf.sprintf "%s: bad grant: %s" name e);
                  Thread.delay poll_s;
                  loop ())
          | Ok (status, _) ->
              log (Printf.sprintf "%s: lease request got HTTP %d" name status);
              Thread.delay poll_s;
              loop ()
          | Error e ->
              log (Printf.sprintf "%s: lease request failed: %s" name e);
              Thread.delay poll_s;
              loop ()
      in
      loop ();
      Ok { o_shards_ok = !ok; o_shards_failed = !failed; o_records = !records }
