module Obs = S4e_obs
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

let escape = Obs.Trace_events.escape

let header_line h =
  let i, n = h.j_shard in
  Printf.sprintf
    "{\"s4e_journal\":1,\"seed\":%d,\"total\":%d,\"shard\":\"%d/%d\",\
     \"program\":\"%s\"}"
    h.j_seed h.j_total i n (escape h.j_program)

let record_line r =
  let base =
    Printf.sprintf "{\"i\":%d,\"fault\":\"%s\",\"outcome\":\"%s\"" r.r_index
      (escape (Fault.to_string r.r_fault))
      (Campaign.outcome_name r.r_outcome)
  in
  match r.r_outcome with
  | Campaign.Errored e -> Printf.sprintf "%s,\"error\":\"%s\"}" base (escape e)
  | _ -> base ^ "}"

(* Minimal field extraction over the fixed single-line objects this
   module emits — not a general JSON parser, and it need not be: a
   journal is only ever read back by this module. *)

let index_of s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go 0

let after_key line key =
  Option.map
    (fun i -> i + String.length key + 3)
    (index_of line (Printf.sprintf "\"%s\":" key))

let field_int line key =
  match after_key line key with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref i in
      if !j < n && line.[!j] = '-' then incr j;
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      if !j = i then None else int_of_string_opt (String.sub line i (!j - i))

let field_string line key =
  match after_key line key with
  | None -> None
  | Some i when i >= String.length line || line.[i] <> '"' -> None
  | Some i ->
      let n = String.length line in
      let b = Buffer.create 16 in
      let rec go j =
        if j >= n then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when j + 1 < n -> (
              match line.[j + 1] with
              | 'n' -> Buffer.add_char b '\n'; go (j + 2)
              | 'r' -> Buffer.add_char b '\r'; go (j + 2)
              | 't' -> Buffer.add_char b '\t'; go (j + 2)
              | 'u' when j + 5 < n -> (
                  match
                    int_of_string_opt ("0x" ^ String.sub line (j + 2) 4)
                  with
                  | Some c ->
                      Buffer.add_char b (Char.chr (c land 0xff));
                      go (j + 6)
                  | None -> None)
              | c -> Buffer.add_char b c; go (j + 2))
          | c -> Buffer.add_char b c; go (j + 1)
      in
      go (i + 1)

let parse_header line =
  if field_int line "s4e_journal" <> Some 1 then
    Error "journal: not a campaign journal (missing version header)"
  else
    match
      ( field_int line "seed",
        field_int line "total",
        field_string line "shard",
        field_string line "program" )
    with
    | Some seed, Some total, Some shard, Some program -> (
        match String.split_on_char '/' shard with
        | [ i; n ] -> (
            match (int_of_string_opt i, int_of_string_opt n) with
            | Some i, Some n ->
                Ok
                  { j_seed = seed;
                    j_total = total;
                    j_shard = (i, n);
                    j_program = program }
            | _ -> Error ("journal: bad shard field: " ^ shard))
        | _ -> Error ("journal: bad shard field: " ^ shard))
    | _ -> Error "journal: malformed header line"

let parse_record line =
  match
    ( field_int line "i",
      field_string line "fault",
      field_string line "outcome" )
  with
  | Some i, Some f, Some oc -> (
      match Fault.of_string f with
      | Error e -> Error ("journal: " ^ e)
      | Ok fault ->
          let outcome =
            match oc with
            | "masked" -> Ok Campaign.Masked
            | "sdc" -> Ok Campaign.Sdc
            | "crashed" -> Ok Campaign.Crashed
            | "hung" -> Ok Campaign.Hung
            | "errored" ->
                Ok
                  (Campaign.Errored
                     (Option.value (field_string line "error") ~default:""))
            | _ -> Error ("journal: unknown outcome: " ^ oc)
          in
          Result.map
            (fun o -> { r_index = i; r_fault = fault; r_outcome = o })
            outcome)
  | _ -> Error ("journal: malformed record: " ^ line)

(* ---------------- reading ---------------- *)

let ( let* ) = Result.bind

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
      let* records =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            let* r = parse_record line in
            Ok (r :: acc))
          (Ok []) rest
      in
      (* a record may legitimately appear twice (a resume that re-ran a
         mutant whose record missed its fsync batch): last write wins *)
      let tbl = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.replace tbl r.r_index r) (List.rev records);
      let dedup =
        Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
        |> List.sort (fun a b -> compare a.r_index b.r_index)
      in
      Ok (header, dedup, good_len)

let read path =
  let* h, rs, _ = read_ex path in
  Ok (h, rs)

let expected_count h =
  let i, n = h.j_shard in
  if n <= 1 then h.j_total
  else
    (* indices in [0, total) congruent to i mod n *)
    let q = h.j_total / n and r = h.j_total mod n in
    q + (if i < r then 1 else 0)

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

let outcome_key = function
  | Campaign.Errored _ -> "errored"
  | o -> Campaign.outcome_name o

let merge inputs =
  match inputs with
  | [] -> Error "merge: no journals given"
  | (h0, _) :: rest ->
      let compatible (h, _) =
        h.j_seed = h0.j_seed && h.j_total = h0.j_total
        && h.j_program = h0.j_program
      in
      if not (List.for_all compatible rest) then
        Error "merge: journals disagree on seed, total, or program"
      else
        let tbl : (int, record) Hashtbl.t = Hashtbl.create 256 in
        let conflict = ref None in
        List.iter
          (fun (_, records) ->
            List.iter
              (fun r ->
                match Hashtbl.find_opt tbl r.r_index with
                | None -> Hashtbl.replace tbl r.r_index r
                | Some prev
                  when Fault.compare prev.r_fault r.r_fault = 0
                       && outcome_key prev.r_outcome = outcome_key r.r_outcome
                  ->
                    ()
                | Some prev ->
                    if !conflict = None then
                      conflict :=
                        Some
                          (Printf.sprintf
                             "merge: mutant %d classified both %s and %s"
                             r.r_index
                             (Campaign.outcome_name prev.r_outcome)
                             (Campaign.outcome_name r.r_outcome)))
              records)
          inputs;
        (match !conflict with
        | Some msg -> Error msg
        | None ->
            let records =
              Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
              |> List.sort (fun a b -> compare a.r_index b.r_index)
            in
            Ok ({ h0 with j_shard = (0, 1) }, records))
