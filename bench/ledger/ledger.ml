(* The reference ledger: the repository's one benchmark.

     ledger.exe [--seed S] [--seconds N] [--workload W]... [--json FILE] [--trace FILE]
     ledger.exe --compare A.json B.json
     ledger.exe --smoke
     ledger.exe --report --workload W --seed S --seconds N --trace 0|1

   See README.md in this directory for the workloads, the metrics, and
   the layer each metric belongs to. *)

module Json = S4e_fleet.Json
module M = Measure

let schema = 1
let default_seconds = 20.

let usage () =
  prerr_endline
    "usage: ledger.exe [--seed S] [--seconds N] [--workload W]... [--json FILE] [--trace FILE]\n\
    \       ledger.exe --compare A.json B.json [--benchmark BENCHMARK.json]\n\
    \       ledger.exe --smoke [--benchmark BENCHMARK.json]\n\
    \       ledger.exe --report --workload W --seed S --seconds N --trace 0|1";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics.  [value] is the estimate over all repetitions; [spread]
   is how far the estimates from the first and the second half of the
   repetitions disagree, as a share of [value]; median, p25, p75 and n
   describe the estimate taken on each repetition alone. *)

type stat = {
  unit_ : string;
  value : float;
  spread : float;
  median : float;
  p25 : float;
  p75 : float;
  n : int;
}

let single unit_ v = { unit_; value = v; spread = 0.; median = v; p25 = v; p75 = v; n = 1 }

(* The value of metric [name] in a list of [(name, unit, value)] rows. *)
let lookup rows name =
  let _, _, v = List.find (fun (k, _, _) -> k = name) rows in
  v

(* [estimate] maps a non-empty sample list to [(name, unit, value)] rows. *)
let summarize estimate = function
  | [] -> []
  | samples ->
      let n = List.length samples in
      let each = List.map (fun s -> estimate [ s ]) samples in
      let halves =
        if n < 2 then None
        else
          Some
            ( estimate (List.filteri (fun i _ -> i < n / 2) samples),
              estimate (List.filteri (fun i _ -> i >= n / 2) samples) )
      in
      List.map
        (fun (name, unit_, value) ->
          let xs = List.map (fun rows -> lookup rows name) each in
          let spread =
            match halves with
            | None -> 0.
            | Some (a, b) ->
                M.ratio (Float.abs (lookup a name -. lookup b name)) (Float.abs value)
          in
          ( name,
            { unit_; value; spread; median = M.quantile 0.5 xs; p25 = M.quantile 0.25 xs;
              p75 = M.quantile 0.75 xs; n } ))
        (estimate samples)

(* Per-layer rows are already per repetition: their estimate is the
   column median. *)
let column_medians = function
  | [] -> []
  | first :: _ as rows ->
      List.map
        (fun (name, unit_, _) ->
          (name, unit_, M.quantile 0.5 (List.map (fun row -> lookup row name) rows)))
        first

type result = {
  workload : string;
  attempted : int;
  failed : int;
  e2e : (string * stat) list;
  layers : (string * stat) list;
  trace : string option;
}

let run_workload ~seed ~scale ~seconds ~warmup ~traced (w : M.workload) =
  let rep_fn = w.M.prepare ~seed ~scale in
  let warm =
    if warmup then [ rep_fn (M.new_tel None) ] else []
  in
  let plain, _ = M.run_pass ~budget:seconds ~traced:false rep_fn in
  let tpass = if traced then Some (M.run_pass ~budget:seconds ~traced:true rep_fn) else None in
  let reps =
    warm @ plain.M.reps @ match tpass with Some (p, _) -> p.M.reps | None -> []
  in
  (* every repetition of a run retires exactly the same guest work *)
  let r0 = List.hd reps in
  List.iter
    (fun (r : M.rep) ->
      if r.M.insns <> r0.M.insns || r.M.cycles <> r0.M.cycles then
        M.fail r 1 "%s: %d instructions / %d cycles, first repetition had %d / %d" w.M.name
          r.M.insns r.M.cycles r0.M.insns r0.M.cycles)
    reps;
  let attempted = List.fold_left (fun a (r : M.rep) -> a + r.M.ops) 0 reps in
  let failed = List.fold_left (fun a (r : M.rep) -> a + r.M.failed) 0 reps in
  let e2e =
    summarize M.e2e_of_reps plain.M.reps
    @ [ ("peak_rss_mb", single "MB" (M.peak_rss_mb ()));
        ("error_rate", single "ratio" (float_of_int failed /. float_of_int (max 1 attempted))) ]
  in
  let layers, trace =
    match tpass with
    | None -> ([], None)
    | Some (p, sink) ->
        let rps reps = lookup (M.e2e_of_reps reps) "runs_per_s" in
        ( summarize column_medians p.M.layer_reps
          @ [ ("trace_overhead", single "ratio" (rps plain.M.reps /. rps p.M.reps)) ],
          Option.map S4e_obs.Trace_events.contents sink )
  in
  { workload = w.M.name; attempted; failed; e2e; layers; trace }

let print_result r =
  let row (name, s) =
    Printf.printf
      "%-10s %-22s %14.6g %-9s spread %5.1f%%  [per repetition: p25 %.6g  p75 %.6g  n %d]\n"
      r.workload name s.value s.unit_ (100. *. s.spread) s.p25 s.p75 s.n
  in
  List.iter row r.e2e;
  List.iter row r.layers;
  Printf.printf "%-10s %d of %d operations failed\n%!" r.workload r.failed r.attempted

(* ------------------------------------------------------------------ *)
(* The versioned document. *)

let stat_json s =
  Json.Obj
    [ ("unit", Json.String s.unit_); ("value", Json.Float s.value);
      ("spread", Json.Float s.spread); ("median", Json.Float s.median);
      ("p25", Json.Float s.p25); ("p75", Json.Float s.p75); ("n", Json.Int s.n) ]

let result_json r =
  ( r.workload,
    Json.Obj
      [ ("attempted", Json.Int r.attempted); ("failed", Json.Int r.failed);
        ("metrics", Json.Obj (List.map (fun (n, s) -> (n, stat_json s)) (r.e2e @ r.layers))) ] )

let doc ~seed ~seconds ~scale ~traced workloads =
  Json.Obj
    [ ("s4e_ledger_schema", Json.Int schema); ("seed", Json.Int seed);
      ("seconds", Json.Float seconds); ("scale", Json.Int scale);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version); ("traced", Json.Bool traced);
      ("workloads", Json.Obj workloads) ]

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> die "%s" e

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let parse_file path =
  match Json.parse (read_file path) with Ok v -> v | Error e -> die "%s: %s" path e

let fields = function Json.Obj l -> l | _ -> []

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: the metrics --report prints, and the bounds --compare
   applies. *)

type bench_metric = { name : string; unit_b : string; better : string; bound : float option }

let read_benchmark path =
  let v = parse_file path in
  let metrics key =
    List.map
      (fun m ->
        match (Json.mem_str "name" m, Json.mem_str "unit" m, Json.mem_str "better" m) with
        | Some name, Some unit_b, Some better ->
            { name; unit_b; better; bound = Option.bind (Json.mem "bound" m) Json.num }
        | _ -> die "%s: malformed %s entry" path key)
      (Option.value (Json.mem_list key v) ~default:[])
  in
  (metrics "end_to_end", metrics "per_layer")

(* The result line of --report: every listed metric, by name, with its
   unit. *)
let result_line ~listed r =
  let have = r.e2e @ r.layers in
  let metrics =
    List.map
      (fun b ->
        match List.assoc_opt b.name have with
        | Some s when s.unit_ = b.unit_b ->
            (b.name, Json.Obj [ ("value", Json.Float s.value); ("unit", Json.String s.unit_) ])
        | Some s -> die "%s: unit %s, BENCHMARK.json says %s" b.name s.unit_ b.unit_b
        | None -> die "%s is listed in BENCHMARK.json but not measured" b.name)
      listed
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.failed = 0)); ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed); ("metrics", Json.Obj metrics) ])

(* ------------------------------------------------------------------ *)
(* --compare: each (workload, bounded metric) pair is better, same or
   worse by more than its bound — or unresolved when either side's
   spread is wider than the bound.  A failed operation on the B side is
   always worse. *)

type verdict = { v_workload : string; v_metric : string; v_text : string; v_worse : bool }

let compare_docs ~bench a b =
  let e2e, _ = read_benchmark bench in
  let workloads d = fields (Option.value (Json.mem "workloads" d) ~default:Json.Null) in
  let estimate w name =
    match Option.bind (Json.mem "metrics" w) (Json.mem name) with
    | None -> None
    | Some m -> (
        let num k = Option.bind (Json.mem k m) Json.num in
        match (num "value", num "spread") with
        | Some v, Some sp -> Some (v, sp)
        | _ -> None)
  in
  List.concat_map
    (fun (w, wb) ->
      match List.assoc_opt w (workloads a) with
      | None -> [ { v_workload = w; v_metric = "-"; v_text = "only in B"; v_worse = false } ]
      | Some wa ->
          List.filter_map
            (fun m ->
              match (m.bound, estimate wa m.name, estimate wb m.name) with
              | Some bound, Some (ma, sa), Some (mb, sb) ->
                  let change = (mb -. ma) /. ma and spread = Float.max sa sb in
                  let gain = if m.better = "lower" then -.change else change in
                  let verdict =
                    if spread > bound then "unresolved"
                    else if gain < -.bound then "worse"
                    else if gain > bound then "better"
                    else "same"
                  in
                  Some
                    { v_workload = w; v_metric = m.name; v_worse = verdict = "worse";
                      v_text =
                        Printf.sprintf "%14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s" ma mb
                          (100. *. change) (100. *. spread) (100. *. bound) verdict }
              | _ -> None)
            e2e
          @
          match Json.mem_int "failed" wb with
          | Some n when n > 0 ->
              [ { v_workload = w; v_metric = "error_rate"; v_worse = true;
                  v_text = Printf.sprintf "%d failed operation(s)  worse" n } ]
          | _ -> [])
    (workloads b)

(* ------------------------------------------------------------------ *)
(* Modes. *)

let find_workload name =
  match List.find_opt (fun w -> w.M.name = name) M.workloads with
  | Some w -> w
  | None ->
      die "unknown workload %s (one of: %s)" name
        (String.concat ", " (List.map (fun w -> w.M.name) M.workloads))

let header (w : M.workload) seed = Printf.printf "== %s (seed %d): %s\n%!" w.M.name seed w.M.why

(* 1/50-size inputs, one repetition of each pass, every check. *)
let smoke ~bench =
  let e2e, layers = read_benchmark bench in
  let results =
    List.map
      (fun w -> run_workload ~seed:1 ~scale:50 ~seconds:0. ~warmup:false ~traced:true w)
      M.workloads
  in
  let d = doc ~seed:1 ~seconds:0. ~scale:50 ~traced:true (List.map result_json results) in
  let problems =
    List.filter_map
      (fun r ->
        if r.failed > 0 then Some (Printf.sprintf "%s: %d failed" r.workload r.failed) else None)
      results
    @ (if Json.parse (Json.to_string d) = Ok d then [] else [ "document does not round-trip" ])
    @ List.filter_map
        (fun v ->
          if v.v_worse then Some (String.concat " " [ v.v_workload; v.v_metric; v.v_text ])
          else None)
        (compare_docs ~bench d d)
  in
  (* every metric BENCHMARK.json lists is measured, with its unit *)
  List.iter (fun r -> ignore (result_line ~listed:(e2e @ layers) r : string)) results;
  List.iter (fun p -> prerr_endline ("ledger --smoke: " ^ p)) problems;
  Printf.printf "ledger --smoke: %d workloads, %d operations, %s\n"
    (List.length results)
    (List.fold_left (fun a r -> a + r.attempted) 0 results)
    (if problems = [] then "ok" else "FAILED");
  exit (if problems = [] then 0 else 1)

(* The command BENCHMARK.json names: one workload, in process, and the
   last line of stdout is the result object. *)
let report ~bench ~seed ~seconds ~traced w =
  let e2e, layers = read_benchmark bench in
  header w seed;
  (* a traced run measures two passes in the time of one *)
  let seconds = if traced then seconds /. 2. else seconds in
  let r = run_workload ~seed ~scale:1 ~seconds ~warmup:true ~traced w in
  print_result r;
  print_endline (result_line ~listed:(if traced then layers else e2e) r)

(* Each child's trace becomes one process lane group in the merged file. *)
let merge_traces named =
  let events =
    List.concat
      (List.mapi
         (fun i (w, contents) ->
           let pid = Json.Int (i + 1) in
           let retag = function
             | Json.Obj f ->
                 Json.Obj (List.map (fun (k, v) -> (k, if k = "pid" then pid else v)) f)
             | v -> v
           in
           Json.Obj
             [ ("name", Json.String "process_name"); ("ph", Json.String "M"); ("pid", pid);
               ("args", Json.Obj [ ("name", Json.String w) ]) ]
           :: (match Json.parse contents with Ok (Json.List l) -> List.map retag l | _ -> []))
         named)
  in
  Json.to_string (Json.List events)

let ledger ~seed ~seconds ~json ~trace ws =
  let traced = trace <> None in
  let write_doc parts =
    Option.iter
      (fun f -> write_file f (Json.to_string (doc ~seed ~seconds ~scale:1 ~traced parts)))
      json
  in
  match ws with
  | [ w ] ->
      header w seed;
      let r = run_workload ~seed ~scale:1 ~seconds ~warmup:true ~traced w in
      print_result r;
      write_doc [ result_json r ];
      Option.iter (fun f -> Option.iter (write_file f) r.trace) trace;
      exit (if r.failed > 0 then 1 else 0)
  | ws ->
      (* One process per workload: no workload inherits another's heap,
         and peak_rss_mb is each workload's own. *)
      let children =
        List.map
          (fun (w : M.workload) ->
            let cj = M.fresh_name "child.json" and ct = M.fresh_name "child-trace.json" in
            let args =
              [ Sys.executable_name; "--workload"; w.M.name; "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%g" seconds; "--json"; cj ]
              @ if traced then [ "--trace"; ct ] else []
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
                Unix.stderr
            in
            let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
            let part =
              if Sys.file_exists cj then
                match Json.mem "workloads" (parse_file cj) with
                | Some (Json.Obj [ one ]) -> Some one
                | _ -> None
              else None
            in
            let tr = if Sys.file_exists ct then Some (w.M.name, read_file ct) else None in
            (ok && part <> None, part, tr))
          ws
      in
      let parts = List.filter_map (fun (_, p, _) -> p) children in
      write_doc parts;
      Option.iter
        (fun f -> write_file f (merge_traces (List.filter_map (fun (_, _, t) -> t) children)))
        trace;
      exit (if List.for_all (fun (ok, _, _) -> ok) children then 0 else 1)

let () =
  let seed = ref 1 and seconds = ref default_seconds and names = ref [] in
  let json = ref None and trace = ref None and bench = ref "BENCHMARK.json" in
  let mode = ref `Ledger in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: r -> seed := int_arg v; parse r
    | "--seconds" :: v :: r ->
        (match float_of_string_opt v with Some s when s >= 0. -> seconds := s | _ -> usage ());
        parse r
    | "--workload" :: v :: r -> names := !names @ [ find_workload v ]; parse r
    | "--json" :: v :: r -> json := Some v; parse r
    | "--trace" :: v :: r -> trace := Some v; parse r
    | "--benchmark" :: v :: r -> bench := v; parse r
    | "--smoke" :: r -> mode := `Smoke; parse r
    | "--report" :: r -> mode := `Report; parse r
    | "--compare" :: a :: b :: r -> mode := `Compare (a, b); parse r
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | `Compare (a, b) ->
      let rows = compare_docs ~bench:!bench (parse_file a) (parse_file b) in
      Printf.printf "%-10s %-14s %14s %14s %9s %9s %7s  %s\n" "workload" "metric" "A" "B"
        "change" "spread" "bound" "verdict";
      List.iter (fun v -> Printf.printf "%-10s %-14s %s\n" v.v_workload v.v_metric v.v_text) rows;
      exit (if List.exists (fun v -> v.v_worse) rows then 1 else 0)
  | `Smoke -> smoke ~bench:!bench
  | `Report -> (
      match (!names, !trace) with
      | [ w ], (Some ("0" | "1") as t) ->
          report ~bench:!bench ~seed:!seed ~seconds:!seconds ~traced:(t = Some "1") w
      | _ -> usage ())
  | `Ledger ->
      ledger ~seed:!seed ~seconds:!seconds ~json:!json ~trace:!trace
        (if !names = [] then M.workloads else !names)
