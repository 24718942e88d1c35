module Obs = S4e_obs
module Json = S4e_obs.Json
module Program = S4e_asm.Program

type header = {
  j_seed : int;
  j_total : int;
  j_shard : int * int;
  j_program : string;
}

type record = {
  r_index : int;
  r_fault : Fault.t;
  r_outcome : Campaign.outcome;
}

let header_of ?(shard = (0, 1)) ~seed ~total program =
  { j_seed = seed;
    j_total = total;
    j_shard = shard;
    j_program = Digest.to_hex (Digest.string (Program.to_bytes program)) }

(* ---------------- the line format ---------------- *)

let header_line h =
  let i, n = h.j_shard in
  Json.to_string
    (Json.Obj
       [ ("s4e_journal", Json.Int 1); ("seed", Json.Int h.j_seed);
         ("total", Json.Int h.j_total);
         ("shard", Json.String (Printf.sprintf "%d/%d" i n));
         ("program", Json.String h.j_program) ])

let record_line r =
  Json.to_string
    (Json.Obj
       (("i", Json.Int r.r_index)
       :: ("fault", Json.String (Fault.to_string r.r_fault))
       :: ("outcome", Json.String (Campaign.outcome_name r.r_outcome))
       ::
       (match r.r_outcome with
       | Campaign.Errored e -> [ ("error", Json.String e) ]
       | _ -> [])))

let ( let* ) = Result.bind

(* [f] on every element, stopping at the first [Error] *)
let all f l = List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l

let sorted_records tbl =
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare a.r_index b.r_index)

let json_of line =
  Result.map_error (fun e -> "journal: " ^ e) (Json.parse line)

(* the shard must read back exactly as [header_line] prints it *)
let shard_of_string s =
  match String.split_on_char '/' s with
  | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n
        when 0 <= i && i < n && Printf.sprintf "%d/%d" i n = s ->
          Ok (i, n)
      | _ -> Error ("journal: bad shard field: " ^ s))
  | _ -> Error ("journal: bad shard field: " ^ s)

let header_of_json v =
  match
    ( Json.mem_int "s4e_journal" v,
      Json.mem_int "seed" v,
      Json.mem_int "total" v,
      Json.mem_str "shard" v,
      Json.mem_str "program" v )
  with
  | Some 1, Some seed, Some total, Some shard, Some program ->
      let* shard = shard_of_string shard in
      if total < 0 then Error "journal: negative total"
      else
        Ok { j_seed = seed; j_total = total; j_shard = shard;
             j_program = program }
  | Some 1, _, _, _, _ -> Error "journal: malformed header line"
  | _ -> Error "journal: not a campaign journal (missing version header)"

let record_of_json line v =
  match
    (Json.mem_int "i" v, Json.mem_str "fault" v, Json.mem_str "outcome" v)
  with
  | Some i, Some f, Some oc ->
      let* fault =
        Result.map_error (fun e -> "journal: " ^ e) (Fault.of_string f)
      in
      let* outcome =
        match oc with
        | "masked" -> Ok Campaign.Masked
        | "sdc" -> Ok Campaign.Sdc
        | "crashed" -> Ok Campaign.Crashed
        | "hung" -> Ok Campaign.Hung
        | "errored" ->
            Ok
              (Campaign.Errored
                 (Option.value (Json.mem_str "error" v) ~default:""))
        | _ -> Error ("journal: unknown outcome: " ^ oc)
      in
      Ok { r_index = i; r_fault = fault; r_outcome = outcome }
  | _ -> Error ("journal: malformed record: " ^ line)

let parse_header line =
  let* v = json_of line in
  header_of_json v

let parse_record line =
  let* v = json_of line in
  record_of_json line v

type line = Header of header | Record of record

let parse_line line =
  let* v = json_of line in
  if Json.mem "s4e_journal" v <> None then
    Result.map (fun h -> Header h) (header_of_json v)
  else Result.map (fun r -> Record r) (record_of_json line v)

let check h r =
  let i, n = h.j_shard in
  if r.r_index < 0 || r.r_index >= h.j_total then
    Error
      (Printf.sprintf "journal: record index %d outside [0, %d)" r.r_index
         h.j_total)
  else if r.r_index mod n <> i then
    Error
      (Printf.sprintf "journal: record %d outside shard %d/%d" r.r_index i n)
  else Ok ()

(* ---------------- reading ---------------- *)

(* [good_len] is the byte offset just past the last newline-terminated
   line: a crash between a write and its flush can leave a torn final
   fragment, which resume must drop (and overwrite) rather than choke
   on.  Any malformed {e terminated} line is real corruption and is a
   hard error. *)
let read_ex path =
  let* content =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error e
  in
  let good_len =
    match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
  in
  let lines =
    String.split_on_char '\n' (String.sub content 0 good_len)
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error ("journal: no header in " ^ path)
  | hd :: rest ->
      let* header = parse_header hd in
      (* a record may legitimately appear twice (a resume that re-ran a
         mutant whose record missed its fsync batch): last write wins *)
      let tbl = Hashtbl.create 64 in
      let* () =
        all
          (fun line ->
            let* r = parse_record line in
            let* () = check header r in
            Ok (Hashtbl.replace tbl r.r_index r))
          rest
      in
      Ok (header, sorted_records tbl, good_len)

let read path =
  let* h, rs, _ = read_ex path in
  Ok (h, rs)

(* indices in [0, total) congruent to i mod n *)
let expected_count h =
  let i, n = h.j_shard in
  (h.j_total / n) + if i < h.j_total mod n then 1 else 0

let is_complete h records = List.length records >= expected_count h

(* ---------------- writing ---------------- *)

type writer = {
  w_oc : out_channel;
  w_mutex : Mutex.t;
  mutable w_pending : int;
  w_sink : Obs.Trace_events.t option;
}

(* Records are fsync'd in batches: one fsync per record would gate the
   campaign on disk latency, while batching bounds the replay cost of a
   crash to [flush_batch] mutants. *)
let flush_batch = 64

let fsync_oc oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ | Sys_error _ -> ()

(* caller holds [w_mutex] *)
let sync w =
  let doit () = fsync_oc w.w_oc in
  (match w.w_sink with
  | Some s -> Obs.Trace_events.span s ~name:"journal-flush" ~cat:"campaign" doit
  | None -> doit ());
  w.w_pending <- 0

let locked w f =
  Mutex.lock w.w_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.w_mutex) f

let write w r =
  locked w (fun () ->
      output_string w.w_oc (record_line r);
      output_char w.w_oc '\n';
      w.w_pending <- w.w_pending + 1;
      if w.w_pending >= flush_batch then sync w)

let flush w = locked w (fun () -> sync w)

let close w =
  locked w (fun () ->
      sync w;
      close_out_noerr w.w_oc)

let writer_of_oc ?sink oc =
  { w_oc = oc; w_mutex = Mutex.create (); w_pending = 0; w_sink = sink }

let create ?sink ~path header =
  try
    let oc = open_out_bin path in
    output_string oc (header_line header);
    output_char oc '\n';
    fsync_oc oc;
    Ok (writer_of_oc ?sink oc)
  with Sys_error e -> Error e

let header_eq a b =
  a.j_seed = b.j_seed && a.j_total = b.j_total && a.j_shard = b.j_shard
  && a.j_program = b.j_program

let append_to ?sink ~path header =
  let* h, records, good_len = read_ex path in
  if not (header_eq h header) then
    Error
      (Printf.sprintf
         "journal: %s was written by a different campaign (seed/total/shard/\
          program mismatch)"
         path)
  else
    try
      (* reopen truncated to the last good line so a torn tail from the
         interrupted run is overwritten, not appended after *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd good_len;
      ignore (Unix.lseek fd good_len Unix.SEEK_SET : int);
      Ok (writer_of_oc ?sink (Unix.out_channel_of_descr fd), records)
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ---------------- merging shards ---------------- *)

let merge_header h0 h =
  if h.j_seed = h0.j_seed && h.j_total = h0.j_total
     && h.j_program = h0.j_program
  then Ok ()
  else Error "merge: journals disagree on seed, total, or program"

let merge_record tbl r =
  match Hashtbl.find_opt tbl r.r_index with
  | None ->
      Hashtbl.replace tbl r.r_index r;
      Ok `Fresh
  | Some prev
    when Fault.compare prev.r_fault r.r_fault = 0
         && Campaign.outcome_name prev.r_outcome
            = Campaign.outcome_name r.r_outcome ->
      Ok `Dup
  | Some prev ->
      Error
        (Printf.sprintf "merge: mutant %d classified both %s and %s" r.r_index
           (Campaign.outcome_name prev.r_outcome)
           (Campaign.outcome_name r.r_outcome))

let merge inputs =
  match inputs with
  | [] -> Error "merge: no journals given"
  | (h0, _) :: _ ->
      let* () = all (fun (h, _) -> merge_header h0 h) inputs in
      let tbl = Hashtbl.create 256 in
      let* () =
        all
          (fun (h, records) ->
            all
              (fun r ->
                let* () = check h r in
                Result.map ignore (merge_record tbl r))
              records)
          inputs
      in
      Ok ({ h0 with j_shard = (0, 1) }, sorted_records tbl)
