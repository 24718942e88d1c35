type value = Int of int | Float of float

type counter = { c_name : string; c_cell : int Atomic.t }

type histogram = {
  h_name : string;
  h_bounds : int array;
  h_counts : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
  h_sum : int Atomic.t;
}

type entry =
  | Counter of counter
  | Gauge of (unit -> value)
  | Histogram of histogram

type t = {
  mutex : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); tbl = Hashtbl.create 32 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let shape_error name =
  invalid_arg (Printf.sprintf "Metrics: %s already bound to another shape" name)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> c
      | Some _ -> shape_error name
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.replace t.tbl name (Counter c);
          c)

let incr c = ignore (Atomic.fetch_and_add c.c_cell 1)
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell

let gauge t name probe =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter _ | Histogram _) -> shape_error name
      | Some (Gauge _) | None -> Hashtbl.replace t.tbl name (Gauge probe))

let gauge_int t name f = gauge t name (fun () -> Int (f ()))
let gauge_float t name f = gauge t name (fun () -> Float (f ()))

let histogram t name ~bounds =
  let sorted = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then sorted := false)
    bounds;
  if not !sorted then
    invalid_arg (Printf.sprintf "Metrics: %s: bounds must be ascending" name);
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) when h.h_bounds = bounds -> h
      | Some _ -> shape_error name
      | None ->
          let h =
            { h_name = name;
              h_bounds = Array.copy bounds;
              h_counts =
                Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0 }
          in
          Hashtbl.replace t.tbl name (Histogram h);
          h)

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  ignore (Atomic.fetch_and_add h.h_counts.(bucket 0) 1);
  ignore (Atomic.fetch_and_add h.h_sum v)

(* [VmHWM] (peak RSS, kB) from /proc/self/status; 0 where procfs is
   unavailable, so the gauge stays harmless off Linux. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let rest = String.sub line 6 (String.length line - 6) in
              let digits =
                String.to_seq rest
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              match int_of_string_opt digits with
              | Some kb -> kb
              | None -> 0
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let register_process_gauges t =
  let epoch = Unix.gettimeofday () in
  gauge_float t "process.uptime_s" (fun () -> Unix.gettimeofday () -. epoch);
  gauge_int t "process.gc_heap_words" (fun () ->
      (Gc.quick_stat ()).Gc.heap_words);
  gauge_float t "process.gc_major_words" (fun () ->
      (Gc.quick_stat ()).Gc.major_words);
  gauge_int t "process.gc_minor_collections" (fun () ->
      (Gc.quick_stat ()).Gc.minor_collections);
  gauge_int t "process.gc_major_collections" (fun () ->
      (Gc.quick_stat ()).Gc.major_collections);
  gauge_int t "process.max_rss_kb" max_rss_kb

let snapshot t =
  let entries =
    locked t (fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl [])
  in
  let rows =
    List.concat_map
      (fun (name, e) ->
        match e with
        | Counter c -> [ (name, Int (value c)) ]
        | Gauge probe -> [ (name, probe ()) ]
        | Histogram h ->
            let buckets =
              Array.to_list
                (Array.mapi
                   (fun i cell ->
                     let label =
                       if i < Array.length h.h_bounds then
                         Printf.sprintf "%s.le_%d" name h.h_bounds.(i)
                       else name ^ ".le_inf"
                     in
                     (label, Int (Atomic.get cell)))
                   h.h_counts)
            in
            let count =
              Array.fold_left (fun a c -> a + Atomic.get c) 0 h.h_counts
            in
            buckets
            @ [ (name ^ ".count", Int count);
                (name ^ ".sum", Int (Atomic.get h.h_sum)) ])
      entries
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

let string_of_value = function
  | Int v -> string_of_int v
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f else "0"

(* Bumped whenever the export's shape changes (key naming, histogram
   expansion, value rendering), so downstream dashboards can detect a
   snapshot they were not written for. *)
let schema_version = 1

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"s4e_metrics_schema\": %d" schema_version);
  List.iter
    (fun (name, v) ->
      Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "  \"%s\": %s" (Json.escape name)
           (string_of_value v)))
    (snapshot t);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write_json t path =
  let s = to_json t in
  if path = "-" then print_string s
  else begin
    let oc = open_out path in
    output_string oc s;
    close_out oc
  end
