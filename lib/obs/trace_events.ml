type t = {
  mutex : Mutex.t;
  buf : Buffer.t;
  t0 : float;
  mutable count : int;
  mutable named : int list;  (* tids whose thread_name is already out *)
}

let create () =
  { mutex = Mutex.create (); buf = Buffer.create 4096;
    t0 = Unix.gettimeofday (); count = 0; named = [] }

let now_us t = (Unix.gettimeofday () -. t.t0) *. 1e6

let escape = Json.escape

let args_json = function
  | [] -> "{}"
  | args ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
             args)
      ^ "}"

let emit t json =
  Mutex.lock t.mutex;
  if t.count > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_string t.buf json;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

let us f = Printf.sprintf "%.1f" f

let complete t ?(args = []) ~name ~cat ~tid ~ts_us ~dur_us () =
  emit t
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
        \"ts\":%s,\"dur\":%s,\"args\":%s}"
       (escape name) (escape cat) tid (us ts_us) (us (Float.max 0.0 dur_us))
       (args_json args))

let instant t ?(args = []) ~name ~cat ~tid () =
  emit t
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
        \"tid\":%d,\"ts\":%s,\"args\":%s}"
       (escape name) (escape cat) tid
       (us (now_us t))
       (args_json args))

let thread_name t ~tid name =
  let fresh =
    Mutex.lock t.mutex;
    let fresh = not (List.mem tid t.named) in
    if fresh then t.named <- tid :: t.named;
    Mutex.unlock t.mutex;
    fresh
  in
  if fresh then
    emit t
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
          \"args\":{\"name\":\"%s\"}}"
         tid (escape name))

let span t ?(args = []) ~name ~cat ?tid f =
  let tid =
    match tid with Some i -> i | None -> (Domain.self () :> int)
  in
  let ts = now_us t in
  Fun.protect
    ~finally:(fun () ->
      complete t ~args ~name ~cat ~tid ~ts_us:ts ~dur_us:(now_us t -. ts) ())
    f

let events t = t.count

let contents t =
  Mutex.lock t.mutex;
  let body = Buffer.contents t.buf in
  Mutex.unlock t.mutex;
  "[\n" ^ body ^ "\n]\n"

let write t path =
  let s = contents t in
  if path = "-" then print_string s
  else begin
    let oc = open_out path in
    output_string oc s;
    close_out oc
  end
