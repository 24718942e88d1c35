(* Fleet tests: the JSON codec, the HTTP framing, the lease table, the
   orchestrator state machine driven transport-free through
   Server.handle, and the end-to-end determinism property: an n-shard
   fleet execution with randomized worker deaths, lease re-assignment,
   and resume merges to exactly the outcome set of the unsharded
   campaign. *)

module Json = S4e_obs.Json
module Http = S4e_fleet.Http
module Lease = S4e_fleet.Lease
module Server = S4e_fleet.Server
module Client = S4e_fleet.Client
module Worker = S4e_fleet.Worker
module Journal = S4e_fault.Journal
module Campaign = S4e_fault.Campaign
module Flows = S4e_core.Flows

let prop ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* ---------------- json ---------------- *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Json.Float (Float.of_int f /. 16.)) (int_range (-4096) 4096);
        map (fun s -> Json.String s) (string_size ~gen:char (int_bound 12));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (value (depth - 1))));
          (1,
           map
             (fun kvs -> Json.Obj kvs)
             (list_size (int_bound 4)
                (pair (string_size ~gen:char (int_bound 8))
                   (value (depth - 1))))) ]
  in
  value 3

let json_roundtrip =
  prop ~count:200 "json print/parse roundtrip" (QCheck.make json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_parse_strictness () =
  let bad =
    [ "{"; "[1,]"; "{\"a\":1,}"; "1 2"; "tru"; "\"\\x\""; "";
      (* \u takes exactly four hex digits *)
      {|"\u12_3"|}; {|"\u004"|}; {|"\u00g1"|}; {|"\u+041"|}; {|"\u 041"|};
      (* surrogates come in high-low pairs *)
      {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83d\u0041"|}; {|"\ud83dx"|};
      {|"\ude00\ud83d"|} ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse accepted %S" s
      | Error _ -> ())
    bad;
  Alcotest.(check bool) "escapes roundtrip" true
    (Json.parse "\"a\\n\\\"b\\u0041\"" = Ok (Json.String "a\n\"bA"));
  (* \u decodes the code point to UTF-8 *)
  List.iter
    (fun (text, want) ->
      Alcotest.(check (result string string)) text (Ok want)
        (Result.map
           (function Json.String s -> s | v -> Json.to_string v)
           (Json.parse text)))
    [ ({|"\u0141"|}, "Ł"); ({|"\u00e9\u00E9"|}, "éé"); ({|"\u0001"|}, "\001");
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80"); ({|"\uffff"|}, "\xef\xbf\xbf");
      ({|"\u0000"|}, "\000") ]

(* Nesting is bounded: [max_depth] levels parse, one more is an Error,
   and a megabyte of '[' fails fast instead of recursing a million
   frames deep. *)
let test_json_depth_bound () =
  let nest d = String.make d '[' ^ String.make d ']' in
  let obj d =
    String.concat "" (List.init d (fun _ -> {|{"a":|})) ^ "1" ^ String.make d '}'
  in
  Alcotest.(check int) "bound" 256 Json.max_depth;
  Alcotest.(check bool) "arrays at the bound" true
    (Result.is_ok (Json.parse (nest Json.max_depth)));
  Alcotest.(check bool) "objects at the bound" true
    (Result.is_ok (Json.parse (obj Json.max_depth)));
  Alcotest.(check bool) "arrays past the bound" true
    (Result.is_error (Json.parse (nest (Json.max_depth + 1))));
  Alcotest.(check bool) "objects past the bound" true
    (Result.is_error (Json.parse (obj (Json.max_depth + 1))));
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "1 MB of [" true
    (Result.is_error (Json.parse (String.make (1 lsl 20) '[')));
  Alcotest.(check bool) "rejected at once" true (Unix.gettimeofday () -. t0 < 0.5)

let test_json_reads_journal_lines () =
  (* the orchestrator merges journal lines as JSON: every line the
     journal writer produces must be parseable by this module *)
  let h = { Journal.j_seed = 3; j_total = 10; j_shard = (1, 4);
            j_program = "abc123" } in
  let fault = { S4e_fault.Fault.loc = S4e_fault.Fault.Gpr (7, 3);
                kind = S4e_fault.Fault.Transient 42 } in
  let lines =
    [ Journal.header_line h;
      Journal.record_line
        { Journal.r_index = 5; r_fault = fault; r_outcome = Campaign.Sdc };
      Journal.record_line
        { Journal.r_index = 6; r_fault = fault;
          r_outcome = Campaign.Errored "boom \"quoted\"\n" } ]
  in
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "journal line parsed to a non-object: %s" line
      | Error e -> Alcotest.failf "journal line unparseable (%s): %s" e line)
    lines;
  (* and the parsed fields match what Journal.parse_record sees *)
  let line =
    Journal.record_line
      { Journal.r_index = 9; r_fault = fault; r_outcome = Campaign.Crashed }
  in
  let v = Result.get_ok (Json.parse line) in
  Alcotest.(check (option int)) "index" (Some 9) (Json.mem_int "i" v);
  Alcotest.(check (option string)) "outcome" (Some "crashed")
    (Json.mem_str "outcome" v);
  Alcotest.(check (option string)) "fault" (Some (S4e_fault.Fault.to_string fault))
    (Json.mem_str "fault" v)

(* ---------------- http ---------------- *)

let test_http_roundtrip_over_pipe () =
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  let ic = Unix.in_channel_of_descr rd in
  Http.write_request oc ~meth:"POST" ~path:"/api/records"
    ~body:"{\"lease\":\"j1:2\"}";
  (match Http.read_request ic with
  | Ok rq ->
      Alcotest.(check string) "method" "POST" rq.Http.rq_method;
      Alcotest.(check string) "path" "/api/records" rq.Http.rq_path;
      Alcotest.(check string) "body" "{\"lease\":\"j1:2\"}" rq.Http.rq_body
  | Error _ -> Alcotest.fail "request did not roundtrip");
  Http.write_response oc ~status:409 "{\"error\":\"conflict\"}";
  (match Http.read_response ic with
  | Ok rs ->
      Alcotest.(check int) "status" 409 rs.Http.rs_status;
      Alcotest.(check string) "body" "{\"error\":\"conflict\"}" rs.Http.rs_body
  | Error e -> Alcotest.failf "response did not roundtrip: %s" e);
  close_out_noerr oc;
  close_in_noerr ic

let test_addr_parsing () =
  let ok s = Result.get_ok (Http.addr_of_string s) in
  Alcotest.(check bool) "host:port" true
    (ok "127.0.0.1:4750" = Http.Tcp ("127.0.0.1", 4750));
  Alcotest.(check bool) "bare port" true (ok "8080" = Http.Tcp ("127.0.0.1", 8080));
  Alcotest.(check bool) "unix prefix" true
    (ok "unix:/tmp/x.sock" = Http.Unix_path "/tmp/x.sock");
  Alcotest.(check bool) "bare path" true
    (ok "/tmp/x.sock" = Http.Unix_path "/tmp/x.sock");
  List.iter
    (fun s ->
      match Http.addr_of_string s with
      | Ok _ -> Alcotest.failf "accepted bad address %S" s
      | Error _ -> ())
    [ ""; "host:99999"; "nonsense" ]

(* ---------------- lease table ---------------- *)

let test_lease_lifecycle () =
  let t = Lease.create ~count:3 in
  let ttl = 10. in
  (* three acquires hand out the three shards in order *)
  let g1 = Option.get (Lease.acquire t ~now:0. ~ttl ~worker:"a") in
  let g2 = Option.get (Lease.acquire t ~now:0. ~ttl ~worker:"b") in
  let g3 = Option.get (Lease.acquire t ~now:0. ~ttl ~worker:"a") in
  Alcotest.(check (list int)) "shards in order" [ 0; 1; 2 ]
    [ fst g1; fst g2; fst g3 ];
  Alcotest.(check bool) "no fourth" true
    (Lease.acquire t ~now:1. ~ttl ~worker:"c" = None);
  (* renewal extends, completion sticks *)
  Alcotest.(check bool) "renew live" true (Lease.renew t ~now:5. ~ttl ~lease:(snd g1));
  Alcotest.(check bool) "complete live" true
    (Lease.complete t ~now:14. ~lease:(snd g1) = Ok 0);
  Alcotest.(check int) "one done" 1 (Lease.completed t);
  (* an expired lease is reclaimed and re-leased under a fresh id *)
  let g2' = Option.get (Lease.acquire t ~now:25. ~ttl ~worker:"c") in
  Alcotest.(check int) "reclaimed shard 1 re-leased" 1 (fst g2');
  Alcotest.(check bool) "fresh lease id" true (snd g2' <> snd g2);
  Alcotest.(check bool) "stale renew rejected" false
    (Lease.renew t ~now:26. ~ttl ~lease:(snd g2));
  (match Lease.complete t ~now:26. ~lease:(snd g2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale lease completed");
  Alcotest.(check bool) "reclaims counted" true (Lease.reclaimed_total t >= 2);
  (* g3's lease expired in the same reap; shard 2 queues again *)
  let g3' = Option.get (Lease.acquire t ~now:25. ~ttl ~worker:"b") in
  Alcotest.(check int) "expired shard re-leased" 2 (fst g3');
  (* release voluntarily returns the shard to the queue *)
  Alcotest.(check bool) "release" true (Lease.release t ~lease:(snd g3'));
  let g3'' = Option.get (Lease.acquire t ~now:26. ~ttl ~worker:"b") in
  Alcotest.(check int) "released shard re-leased" 2 (fst g3'');
  Alcotest.(check bool) "complete rest" true
    (Lease.complete t ~now:27. ~lease:(snd g2') = Ok 1
    && Lease.complete t ~now:27. ~lease:(snd g3'') = Ok 2);
  Alcotest.(check bool) "all done" true (Lease.all_done t)

(* ---------------- server, driven through handle ---------------- *)

let req ?(meth = "POST") path body =
  { Http.rq_method = meth; rq_path = path; rq_headers = [];
    rq_body = (match body with Some v -> Json.to_string v | None -> "") }

let call t ?meth path body =
  let rs = Server.handle t (req ?meth path body) in
  (rs.Http.rs_status, Result.get_ok (Json.parse (String.trim rs.Http.rs_body)))

let jstr k v = Option.get (Json.mem_str k v)
let jint k v = Option.get (Json.mem_int k v)

let header_line ~seed ~total ~shard ~program =
  Journal.header_line
    { Journal.j_seed = seed; j_total = total; j_shard = shard;
      j_program = program }

let record_line ~i ~outcome =
  Journal.record_line
    { Journal.r_index = i;
      r_fault = { S4e_fault.Fault.loc = S4e_fault.Fault.Gpr (i mod 32, 0);
                  kind = S4e_fault.Fault.Permanent };
      r_outcome = outcome }

let submit t ~shards =
  let _, v =
    call t "/api/jobs"
      (Some (Json.Obj [ ("shards", Json.Int shards) ]))
  in
  jstr "job" v

let lease t ~worker =
  let _, v = call t "/api/lease" (Some (Json.Obj [ ("worker", Json.String worker) ])) in
  v

let post_records t ~lease ~lines =
  call t "/api/records"
    (Some
       (Json.Obj
          [ ("lease", Json.String lease);
            ("lines", Json.List (List.map (fun l -> Json.String l) lines)) ]))

let test_server_happy_path () =
  let now = ref 0. in
  let t = Server.create ~ttl:30. ~clock:(fun () -> !now) () in
  let job = submit t ~shards:2 in
  Alcotest.(check string) "job ids are ordinal" "j1" job;
  (* two workers lease the two shards *)
  let g0 = lease t ~worker:"a" and g1 = lease t ~worker:"b" in
  Alcotest.(check (list int)) "both shards out" [ 0; 1 ]
    (List.sort compare [ jint "shard" g0; jint "shard" g1 ]);
  Alcotest.(check bool) "then idle" true
    (Json.mem_bool "idle" (lease t ~worker:"c") = Some true);
  (* stream: header + the shard's records; indices i mod 2 = shard *)
  let h = header_line ~seed:1 ~total:4 ~shard:(jint "shard" g0, 2) ~program:"p" in
  let st, v =
    post_records t ~lease:(jstr "lease" g0)
      ~lines:[ h; record_line ~i:(jint "shard" g0) ~outcome:Campaign.Masked;
               record_line ~i:(jint "shard" g0 + 2) ~outcome:Campaign.Sdc ]
  in
  Alcotest.(check int) "records accepted" 200 st;
  Alcotest.(check (option int)) "fresh" (Some 2) (Json.mem_int "accepted" v);
  let st, _ = call t "/api/complete" (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g0)) ])) in
  Alcotest.(check int) "complete ok" 200 st;
  (* completing an unfinished shard is rejected *)
  let st, _ = call t "/api/complete" (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g1)) ])) in
  Alcotest.(check int) "incomplete shard rejected" 409 st;
  let _ =
    post_records t ~lease:(jstr "lease" g1)
      ~lines:[ record_line ~i:(jint "shard" g1) ~outcome:Campaign.Crashed;
               record_line ~i:(jint "shard" g1 + 2) ~outcome:Campaign.Hung ]
  in
  let st, v = call t "/api/complete" (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g1)) ])) in
  Alcotest.(check int) "second complete ok" 200 st;
  Alcotest.(check (option string)) "job done" (Some "done")
    (Json.mem_str "job_state" v);
  let _, st_json = call t ~meth:"GET" ("/api/jobs/" ^ job) None in
  Alcotest.(check (option int)) "all records merged" (Some 4)
    (Json.mem_int "records" st_json);
  let summary = Option.get (Json.mem "summary" st_json) in
  Alcotest.(check (list int)) "summary counts" [ 1; 1; 1; 1 ]
    [ jint "masked" summary; jint "sdc" summary; jint "crashed" summary;
      jint "hung" summary ]

let test_server_expiry_resume_and_dup () =
  let now = ref 0. in
  let t = Server.create ~ttl:10. ~clock:(fun () -> !now) () in
  let _job = submit t ~shards:1 in
  let g = lease t ~worker:"dies" in
  let h = header_line ~seed:1 ~total:3 ~shard:(0, 1) ~program:"p" in
  let _ = post_records t ~lease:(jstr "lease" g)
      ~lines:[ h; record_line ~i:0 ~outcome:Campaign.Masked ] in
  (* the worker dies; its lease expires; the shard is re-leased with
     the survivor's records as the resume payload *)
  now := 60.;
  let g' = lease t ~worker:"heir" in
  Alcotest.(check int) "same shard re-leased" 0 (jint "shard" g');
  Alcotest.(check bool) "fresh lease" true (jstr "lease" g <> jstr "lease" g');
  let resume = Option.get (Json.mem "resume" g') in
  Alcotest.(check int) "resume carries the merged record" 1
    (List.length (Option.get (Json.mem_list "lines" resume)));
  Alcotest.(check bool) "resume header is canonical" true
    (jstr "header" resume = h);
  (* stale-lease records still merge (the work is valid), but the
     reply tells the dead worker's ghost to stop *)
  let _, v = post_records t ~lease:(jstr "lease" g)
      ~lines:[ record_line ~i:1 ~outcome:Campaign.Sdc ] in
  Alcotest.(check (option bool)) "ghost told to stop" (Some false)
    (Json.mem_bool "lease_ok" v);
  Alcotest.(check (option int)) "ghost record still merged" (Some 1)
    (Json.mem_int "accepted" v);
  (* duplicates are deduplicated, conflicts fail the job *)
  let _, v = post_records t ~lease:(jstr "lease" g')
      ~lines:[ record_line ~i:0 ~outcome:Campaign.Masked;
               record_line ~i:2 ~outcome:Campaign.Hung ] in
  Alcotest.(check (option int)) "dup deduplicated" (Some 1)
    (Json.mem_int "duplicates" v);
  let st, _ = call t "/api/complete"
      (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g)) ])) in
  Alcotest.(check int) "stale complete rejected" 410 st;
  let st, _ = call t "/api/complete"
      (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g')) ])) in
  Alcotest.(check int) "heir completes" 200 st;
  Alcotest.(check int) "no running jobs left" 0 (Server.jobs_running t)

let test_server_conflict_fails_job () =
  let t = Server.create () in
  let job = submit t ~shards:1 in
  let g = lease t ~worker:"w" in
  let h = header_line ~seed:1 ~total:2 ~shard:(0, 1) ~program:"p" in
  let _ = post_records t ~lease:(jstr "lease" g)
      ~lines:[ h; record_line ~i:0 ~outcome:Campaign.Masked ] in
  let st, _ = post_records t ~lease:(jstr "lease" g)
      ~lines:[ record_line ~i:0 ~outcome:Campaign.Sdc ] in
  Alcotest.(check int) "conflict reported" 409 st;
  let _, v = call t ~meth:"GET" ("/api/jobs/" ^ job) None in
  Alcotest.(check (option string)) "job failed" (Some "failed")
    (Json.mem_str "state" v)

let test_server_fairness_across_jobs () =
  (* with two running jobs, grants alternate to the job with fewer
     active leases instead of draining the first submission *)
  let t = Server.create () in
  let a = submit t ~shards:2 and b = submit t ~shards:2 in
  let owners =
    List.init 4 (fun i -> jstr "job" (lease t ~worker:(Printf.sprintf "w%d" i)))
  in
  Alcotest.(check int) "two grants each"
    2 (List.length (List.filter (( = ) a) owners));
  Alcotest.(check int) "two grants each (b)"
    2 (List.length (List.filter (( = ) b) owners))

(* ---------------- the orchestrator fails closed ---------------- *)

let job_status t job = snd (call t ~meth:"GET" ("/api/jobs/" ^ job) None)

let complete t g =
  fst
    (call t "/api/complete"
       (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g)) ])))

(* Before records were checked against the job's header, a pre-header
   record was merged unchecked: a bogus index counted towards its
   shard's quota, the shard completed without record 3, and the job
   finished "done" with a record set no reader accepts. *)
let test_server_rejects_preheader_records () =
  let t = Server.create () in
  let job = submit t ~shards:2 in
  let g0 = lease t ~worker:"a" and g1 = lease t ~worker:"b" in
  let g0, g1 = if jint "shard" g0 = 0 then (g0, g1) else (g1, g0) in
  List.iter
    (fun line ->
      let st, _ = post_records t ~lease:(jstr "lease" g1) ~lines:[ line ] in
      Alcotest.(check int) ("pre-header line rejected: " ^ line) 400 st;
      Alcotest.(check int) "nothing merged" 0 (jint "records" (job_status t job)))
    [ {|{"i":99,"fault":"not-a-fault","outcome":"masked"}|};
      record_line ~i:(-1) ~outcome:Campaign.Masked;
      record_line ~i:3 ~outcome:Campaign.Masked ];
  let st, _ =
    post_records t ~lease:(jstr "lease" g1)
      ~lines:[ header_line ~seed:1 ~total:4 ~shard:(1, 2) ~program:"p";
               record_line ~i:1 ~outcome:Campaign.Sdc ]
  in
  Alcotest.(check int) "header then record" 200 st;
  Alcotest.(check int) "shard 1 lacks record 3" 409 (complete t g1);
  let _ =
    post_records t ~lease:(jstr "lease" g0)
      ~lines:[ header_line ~seed:1 ~total:4 ~shard:(0, 2) ~program:"p";
               record_line ~i:0 ~outcome:Campaign.Masked;
               record_line ~i:2 ~outcome:Campaign.Crashed ]
  in
  Alcotest.(check int) "shard 0 completes" 200 (complete t g0);
  Alcotest.(check (option string)) "job still running" (Some "running")
    (Json.mem_str "state" (job_status t job));
  let _ =
    post_records t ~lease:(jstr "lease" g1)
      ~lines:[ record_line ~i:3 ~outcome:Campaign.Hung ]
  in
  Alcotest.(check int) "shard 1 completes" 200 (complete t g1);
  let st = job_status t job in
  Alcotest.(check (option string)) "done" (Some "done") (Json.mem_str "state" st);
  Alcotest.(check int) "every record, no more" 4 (jint "records" st)

let test_server_checks_whole_batches () =
  let t = Server.create () in
  let job = submit t ~shards:2 in
  let g = lease t ~worker:"a" in
  let shard = jint "shard" g in
  let h = header_line ~seed:1 ~total:4 ~shard:(shard, 2) ~program:"p" in
  let mine = record_line ~i:shard ~outcome:Campaign.Masked in
  let rejected name st =
    Alcotest.(check int) name 400 st;
    Alcotest.(check int) (name ^ ": nothing merged") 0
      (jint "records" (job_status t job))
  in
  List.iter
    (fun (name, lines) ->
      rejected name (fst (post_records t ~lease:(jstr "lease" g) ~lines)))
    [ ("index past the total",
       [ h; mine; record_line ~i:(shard + 4) ~outcome:Campaign.Sdc ]);
      ("negative index",
       [ h; mine; record_line ~i:(-2) ~outcome:Campaign.Sdc ]);
      ("another shard's record",
       [ h; mine; record_line ~i:(1 - shard) ~outcome:Campaign.Sdc ]);
      ("unterminated object",
       [ h; mine; {|{"i":2,"fault":"gpr:2:0:perm","outcome":"masked"|} ]);
      ("garbage around the fields",
       [ h; mine; {|xx"i":2,"fault":"gpr:2:0:perm","outcome":"masked"yy|} ]);
      ("unknown fault", [ h; {|{"i":0,"fault":"G0.0P","outcome":"masked"}|} ]);
      ("a fault in another spelling",
       [ h; mine;
         Printf.sprintf {|{"i":%d,"fault":"gpr:0x7:+3:perm","outcome":"sdc"}|}
           shard ]);
      ("a fault the injector cannot arm",
       [ h; mine;
         Printf.sprintf {|{"i":%d,"fault":"gpr:99:77:perm","outcome":"sdc"}|}
           shard ]);
      ("header for another shard",
       [ header_line ~seed:1 ~total:4 ~shard:(1 - shard, 2) ~program:"p" ]);
      ("header for another shard count",
       [ header_line ~seed:1 ~total:4 ~shard:(0, 1) ~program:"p" ]);
      ("shard not i/n",
       [ Json.to_string
           (Json.Obj
              [ ("s4e_journal", Json.Int 1); ("seed", Json.Int 1);
                ("total", Json.Int 4);
                ("shard", Json.String (Printf.sprintf "%d/2x" shard));
                ("program", Json.String "p") ]) ]) ];
  rejected "a line that is not a string"
    (fst
       (call t "/api/records"
          (Some
             (Json.Obj
                [ ("lease", Json.String (jstr "lease" g));
                  ("lines", Json.List [ Json.String h; Json.Int 3 ]) ]))));
  rejected "a lease never granted"
    (fst (post_records t ~lease:(job ^ ":99") ~lines:[ h; mine ]));
  Alcotest.(check (option string)) "the job survives bad input" (Some "running")
    (Json.mem_str "state" (job_status t job));
  let st, v = post_records t ~lease:(jstr "lease" g) ~lines:[ h; mine ] in
  Alcotest.(check int) "a good batch" 200 st;
  Alcotest.(check (option int)) "merged" (Some 1) (Json.mem_int "accepted" v)

(* ---------------- the determinism property (satellite) ------------- *)

let fleet_src = {|
_start:
  li   a0, 0
  li   a1, 1
  li   a2, 18
l:
  add  a0, a0, a1
  addi a1, a1, 1
  blt  a1, a2, l
  li   t1, 0x00100000
  sw   a0, 0(t1)
  ebreak
|}

let fleet_program () = S4e_asm.Assembler.assemble_exn fleet_src

let flow_cfg ~seed ~n =
  { Flows.default_fault_config with
    Flows.ff_seed = seed; ff_mutants = n; ff_fuel = 100_000;
    ff_hang_budget = Flows.Hang_fuel }

(* One simulated fleet worker turn: take a lease, run the real
   campaign shard through Flows.fault_campaign with the grant's resume
   payload, stream the journal lines — but deliver only a prefix when
   the death plan says this worker dies mid-shard (the undelivered
   tail is exactly what a SIGKILL loses), then either complete or
   vanish.  Time is a fake clock, so lease expiry is deterministic. *)
let run_fleet_simulation ~shards ~seed ~n ~deaths =
  let p = fleet_program () in
  let cfg = flow_cfg ~seed ~n in
  let now = ref 0. in
  let dir = Filename.temp_file "s4e_fleet_sim" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let t = Server.create ~ttl:10. ~journal_dir:dir ~clock:(fun () -> !now) () in
  let job = submit t ~shards in
  let deaths = ref deaths in
  let steps = ref 0 in
  let rec drive () =
    incr steps;
    if !steps > 200 then Alcotest.fail "fleet simulation did not converge";
    let g = lease t ~worker:(Printf.sprintf "sim%d" !steps) in
    if Json.mem_bool "idle" g = Some true then begin
      let _, v = call t ~meth:"GET" ("/api/jobs/" ^ job) None in
      if Json.mem_str "state" v = Some "running" then begin
        (* everything leased to dead workers: let the leases expire *)
        now := !now +. 60.;
        drive ()
      end
      else v
    end
    else begin
      let shard = jint "shard" g and count = jint "shards" g in
      let resume_path =
        match Json.mem "resume" g with
        | Some (Json.Obj _ as r) ->
            let path = Filename.temp_file "s4e_fleet_resume" ".jsonl" in
            let oc = open_out_bin path in
            output_string oc (jstr "header" r);
            output_char oc '\n';
            List.iter
              (fun l ->
                output_string oc (Option.get (Json.str l));
                output_char oc '\n')
              (Option.get (Json.mem_list "lines" r));
            close_out oc;
            Some path
        | _ -> None
      in
      let produced = ref [] in
      (match
         Flows.fault_campaign ?resume:resume_path ~shard:(shard, count)
           ~on_journal_line:(fun l -> produced := l :: !produced)
           cfg p
       with
      | Ok r -> Alcotest.(check bool) "sim shard complete" true r.Flows.ff_complete
      | Error e -> Alcotest.failf "sim shard failed: %s" e);
      Option.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) resume_path;
      let lines = List.rev !produced in
      let die = !deaths > 0 && !steps mod 2 = 1 in
      let delivered =
        if die then begin
          decr deaths;
          (* lose an un-posted tail: deliver only half the stream *)
          List.filteri (fun i _ -> i <= List.length lines / 2) lines
        end
        else lines
      in
      let _ = post_records t ~lease:(jstr "lease" g) ~lines:delivered in
      if die then now := !now +. 60. (* vanish; the lease expires *)
      else begin
        let st, _ =
          call t "/api/complete"
            (Some (Json.Obj [ ("lease", Json.String (jstr "lease" g)) ]))
        in
        Alcotest.(check int) "sim complete accepted" 200 st
      end;
      drive ()
    end
  in
  let final = drive () in
  let merged = Filename.concat dir (job ^ ".jsonl") in
  let result =
    match Json.mem_str "state" final with
    | Some "done" -> Journal.read merged
    | Some s -> Error ("job ended " ^ s)
    | None -> Error "no final state"
  in
  (try Sys.remove merged with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  result

let fleet_determinism =
  prop ~count:5 "sharded fleet with worker deaths = unsharded campaign"
    QCheck.(triple (int_range 1 4) (int_range 0 3) (int_range 1 500))
    (fun (shards, deaths, seed) ->
      let n = 12 in
      let p = fleet_program () in
      let cfg = flow_cfg ~seed ~n in
      let reference = Result.get_ok (Flows.fault_campaign cfg p) in
      match run_fleet_simulation ~shards ~seed ~n ~deaths with
      | Error e -> QCheck.Test.fail_reportf "simulation failed: %s" e
      | Ok (h, records) ->
          let key r =
            ( r.Journal.r_index,
              S4e_fault.Fault.to_string r.Journal.r_fault,
              Campaign.outcome_name r.Journal.r_outcome )
          in
          let got = List.map key records in
          let want =
            List.map
              (fun (i, f, o) ->
                (i, S4e_fault.Fault.to_string f, Campaign.outcome_name o))
              reference.Flows.ff_indexed
          in
          h.Journal.j_total = n
          && h.Journal.j_shard = (0, 1)
          && got = want)

(* ---------------- merged journals ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* The orchestrator writes its merged journal with the writer that
   [s4e merge-journals -o] uses, so the two files are equal byte for
   byte. *)
let test_fleet_journal_equals_merge () =
  let p = fleet_program () in
  let cfg = flow_cfg ~seed:5 ~n:14 in
  let dir = temp_dir "s4e_fleet_merge" in
  let t = Server.create ~journal_dir:dir () in
  let job = submit t ~shards:3 in
  let shards =
    List.init 3 (fun _ ->
        let g = lease t ~worker:"w" in
        let path =
          Filename.concat dir (Printf.sprintf "shard%d.jsonl" (jint "shard" g))
        in
        let lines = ref [] in
        (match
           Flows.fault_campaign ~journal:path ~shard:(jint "shard" g, 3)
             ~on_journal_line:(fun l -> lines := l :: !lines)
             cfg p
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        let st, _ =
          post_records t ~lease:(jstr "lease" g) ~lines:(List.rev !lines)
        in
        Alcotest.(check int) "records accepted" 200 st;
        Alcotest.(check int) "shard complete" 200 (complete t g);
        path)
  in
  let merged = Filename.concat dir "merged.jsonl" in
  (match
     Journal.merge (List.map (fun f -> Result.get_ok (Journal.read f)) shards)
   with
  | Error e -> Alcotest.fail e
  | Ok (h, records) ->
      let w = Result.get_ok (Journal.create ~path:merged h) in
      List.iter (Journal.write w) records;
      Journal.close w);
  let fleet = Filename.concat dir (job ^ ".jsonl") in
  Alcotest.(check string) "fleet journal = merge-journals -o" (read_file merged)
    (read_file fleet);
  List.iter Sys.remove (merged :: fleet :: shards);
  Unix.rmdir dir

(* ---------------- mutation fuzz of the one reader ---------------- *)

let mutate rng s =
  let n = String.length s in
  let pos () = Random.State.int rng (n + 1) in
  match Random.State.int rng 6 with
  | 0 when n > 0 ->
      (* flip bits of one byte *)
      let b = Bytes.of_string s in
      let p = Random.State.int rng n in
      Bytes.set b p
        (Char.chr (Char.code s.[p] lxor (1 + Random.State.int rng 255)));
      Bytes.to_string b
  | 1 -> String.sub s 0 (pos ())
  | 2 ->
      (* splice a slice of the text in somewhere else *)
      let a = pos () in
      let len = Random.State.int rng (n - a + 1) in
      let p = pos () in
      String.sub s 0 p ^ String.sub s a len ^ String.sub s p (n - p)
  | 3 ->
      (* duplicate a line *)
      let lines = String.split_on_char '\n' s in
      let k = Random.State.int rng (List.length lines) in
      String.concat "\n"
        (List.concat
           (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))
  | 4 ->
      let p = pos () in
      String.sub s 0 p ^ String.make (Random.State.int rng 2000) '['
      ^ String.sub s p (n - p)
  | _ -> (
      (* join a line to the next *)
      match String.index_from_opt s (min (pos ()) (max 0 (n - 1))) '\n' with
      | Some i -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | None -> s)

let mutant_lines ~shard ~total =
  header_line ~seed:1 ~total ~shard:(shard, 2) ~program:"p"
  :: List.filter_map
       (fun i ->
         if i mod 2 <> shard then None
         else
           Some
             (Journal.record_line
                { Journal.r_index = i;
                  r_fault =
                    { S4e_fault.Fault.loc =
                        S4e_fault.Fault.Code (0x8000_0000 + (4 * i), i);
                      kind = S4e_fault.Fault.Transient (10 * i) };
                  r_outcome =
                    (if i mod 3 = 0 then Campaign.Errored "x \"y\"\\\n\001 Ł"
                     else Campaign.Sdc) }))
       (List.init total Fun.id)

(* [Journal.read] on mutated journal files: [Ok] with records that pass
   [Journal.check], sorted and unique, or an [Error]; never an
   exception. *)
let journal_read_fuzz =
  prop ~count:300 "mutated journals read as Ok with checked records, or Error"
    QCheck.(pair small_nat int)
    (fun (extra, seed) ->
      let rng = Random.State.make [| seed |] in
      let lines = mutant_lines ~shard:(seed land 1) ~total:(6 + (extra mod 10)) in
      let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let text =
        List.fold_left (fun s _ -> mutate rng s) text
          (List.init (1 + Random.State.int rng 3) Fun.id)
      in
      let path = Filename.temp_file "s4e_fuzz" ".jsonl" in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let r = Journal.read path in
      Sys.remove path;
      match r with
      | Error _ -> true
      | Ok (h, rs) ->
          let idx = List.map (fun r -> r.Journal.r_index) rs in
          List.for_all (fun r -> Journal.check h r = Ok ()) rs
          && List.sort_uniq compare idx = idx)

(* [/api/records] bodies with mutated lines and mutated JSON, through
   [Server.handle]: every reply is a 200 or a 4xx, and a job never
   reaches "done" with fewer records than its total. *)
let records_fuzz =
  prop ~count:300 "mutated record batches: 200 or 4xx, never done short"
    QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = Server.create () in
      let job = submit t ~shards:2 in
      let total = 7 in
      let handle path body =
        (Server.handle t
           { Http.rq_method = "POST"; rq_path = path; rq_headers = [];
             rq_body = body }).Http.rs_status
      in
      let statuses =
        List.concat_map
          (fun g ->
            let lease = Json.String (jstr "lease" g) in
            let lines =
              List.map
                (fun l -> if Random.State.int rng 4 = 0 then mutate rng l else l)
                (mutant_lines ~shard:(jint "shard" g) ~total)
            in
            let body =
              Json.to_string
                (Json.Obj
                   [ ("lease", lease);
                     ("lines",
                      Json.List (List.map (fun l -> Json.String l) lines)) ])
            in
            let body =
              if Random.State.int rng 3 = 0 then mutate rng body else body
            in
            let posted = handle "/api/records" body in
            [ posted;
              handle "/api/complete"
                (Json.to_string (Json.Obj [ ("lease", lease) ])) ])
          [ lease t ~worker:"a"; lease t ~worker:"b" ]
      in
      let st = job_status t job in
      List.for_all (fun s -> s = 200 || (s >= 400 && s < 500)) statuses
      && (Json.mem_str "state" st <> Some "done" || jint "records" st = total))

(* ---------------- process gauges ---------------- *)

let test_process_gauges () =
  let reg = S4e_obs.Metrics.create () in
  S4e_obs.Metrics.register_process_gauges reg;
  let snap = S4e_obs.Metrics.snapshot reg in
  let get name =
    match List.assoc_opt name snap with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  (match get "process.gc_heap_words" with
  | S4e_obs.Metrics.Int w -> Alcotest.(check bool) "heap words > 0" true (w > 0)
  | _ -> Alcotest.fail "heap words not an int");
  (match get "process.max_rss_kb" with
  | S4e_obs.Metrics.Int kb ->
      (* VmHWM is available on Linux; elsewhere the gauge reads 0 *)
      Alcotest.(check bool) "max rss sane" true (kb >= 0)
  | _ -> Alcotest.fail "max rss not an int");
  match get "process.uptime_s" with
  | S4e_obs.Metrics.Float s -> Alcotest.(check bool) "uptime sane" true (s >= 0.)
  | _ -> Alcotest.fail "uptime not a float"

(* ---------------- worker heartbeat ---------------- *)

let test_alarm_wakes_sleeper () =
  let a = Worker.Alarm.create () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "times out unwoken" false (Worker.Alarm.wait a 0.02);
  Alcotest.(check bool) "slept" true (Unix.gettimeofday () -. t0 >= 0.015);
  let woken = ref false and slept = ref 0. in
  let sleeper =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        woken := Worker.Alarm.wait a 60.;
        slept := Unix.gettimeofday () -. t0)
      ()
  in
  Thread.delay 0.05;
  Worker.Alarm.wake a;
  Thread.join sleeper;
  Alcotest.(check bool) "woken" true !woken;
  Alcotest.(check bool) "long before its timeout" true (!slept < 10.);
  Alcotest.(check bool) "stays awake" true (Worker.Alarm.wait a 60.);
  Worker.Alarm.close a

(* With a 60 s TTL the heartbeat sleeps 20 s between renewals: a worker
   that waited for it at the end of each shard would take a minute for
   these three. *)
let test_worker_wakes_heartbeat_on_shard_end () =
  let server = Server.create ~ttl:60. () in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "s4e-wake-%d.sock" (Unix.getpid ()))
  in
  match Server.start server (Http.Unix_path sock) with
  | Error e -> Alcotest.failf "server: %s" e
  | Ok addr ->
      let client = Client.create addr in
      let shards = 3 in
      (match
         Client.request client ~meth:"POST" ~path:"/api/jobs"
           ~body:(Json.Obj [ ("shards", Json.Int shards) ]) ()
       with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "submit");
      let runner ~spec:_ ~shard:(i, n) ~resume:_ ~emit ~cancelled:_ =
        emit (header_line ~seed:1 ~total:n ~shard:(i, n) ~program:"p");
        emit (record_line ~i ~outcome:Campaign.Masked);
        Ok ()
      in
      let t0 = Unix.gettimeofday () in
      let r = Worker.run ~poll_s:0.01 ~drain:true ~client ~runner () in
      let elapsed = Unix.gettimeofday () -. t0 in
      Client.close client;
      Server.stop server;
      if Sys.file_exists sock then Sys.remove sock;
      (match r with
      | Ok o -> Alcotest.(check int) "shards completed" shards o.Worker.o_shards_ok
      | Error e -> Alcotest.failf "worker: %s" e);
      Alcotest.(check bool)
        (Printf.sprintf "no heartbeat wait (%.2f s for %d shards)" elapsed shards)
        true (elapsed < 10.)

let () =
  Alcotest.run "fleet"
    [ ( "json",
        [ json_roundtrip;
          Alcotest.test_case "parse strictness" `Quick
            test_json_parse_strictness;
          Alcotest.test_case "depth bound" `Quick test_json_depth_bound;
          Alcotest.test_case "reads journal lines" `Quick
            test_json_reads_journal_lines ] );
      ( "http",
        [ Alcotest.test_case "roundtrip over pipe" `Quick
            test_http_roundtrip_over_pipe;
          Alcotest.test_case "address parsing" `Quick test_addr_parsing ] );
      ( "lease",
        [ Alcotest.test_case "lifecycle" `Quick test_lease_lifecycle ] );
      ( "server",
        [ Alcotest.test_case "happy path" `Quick test_server_happy_path;
          Alcotest.test_case "expiry + resume + dup" `Quick
            test_server_expiry_resume_and_dup;
          Alcotest.test_case "conflict fails job" `Quick
            test_server_conflict_fails_job;
          Alcotest.test_case "fairness across jobs" `Quick
            test_server_fairness_across_jobs;
          Alcotest.test_case "pre-header records rejected" `Quick
            test_server_rejects_preheader_records;
          Alcotest.test_case "whole batches checked" `Quick
            test_server_checks_whole_batches ] );
      ("fuzz", [ journal_read_fuzz; records_fuzz ]);
      ( "worker",
        [ Alcotest.test_case "alarm wakes a sleeper" `Quick test_alarm_wakes_sleeper;
          Alcotest.test_case "shard end wakes the heartbeat" `Quick
            test_worker_wakes_heartbeat_on_shard_end ] );
      ( "fleet",
        [ fleet_determinism;
          Alcotest.test_case "merged journal = merge-journals -o" `Quick
            test_fleet_journal_equals_merge;
          Alcotest.test_case "process gauges" `Quick test_process_gauges ] ) ]
