module Json = S4e_obs.Json

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = {
  addr : Http.addr;
  mutex : Mutex.t;
  mutable conn : conn option;
}

let create addr = { addr; mutex = Mutex.create (); conn = None }
let addr t = t.addr

let close_conn c =
  (try close_out_noerr c.oc with _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
      match Http.connect t.addr with
      | Error e -> Error e
      | Ok fd ->
          let c =
            { fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd }
          in
          t.conn <- Some c;
          Ok c)

let drop t =
  match t.conn with
  | Some c ->
      t.conn <- None;
      close_conn c
  | None -> ()

let roundtrip t ~meth ~path ~body =
  match ensure_conn t with
  | Error e -> Error e
  | Ok c -> (
      match
        Http.write_request c.oc ~meth ~path ~body;
        Http.read_response c.ic
      with
      | Ok rs -> Ok rs
      | Error e ->
          drop t;
          Error e
      | exception Sys_error e ->
          drop t;
          Error e
      | exception End_of_file ->
          drop t;
          Error "connection closed")

let request t ~meth ~path ?body () =
  let body = match body with Some v -> Json.to_string v | None -> "" in
  locked t (fun () ->
      (* A keep-alive connection the server closed (restart, idle
         timeout) fails on the first write or read — retry once on a
         fresh connection before reporting the error. *)
      let attempt = roundtrip t ~meth ~path ~body in
      let attempt =
        match attempt with Error _ -> roundtrip t ~meth ~path ~body | ok -> ok
      in
      match attempt with
      | Error e -> Error e
      | Ok rs -> (
          if String.trim rs.Http.rs_body = "" then
            Ok (rs.Http.rs_status, Json.Null)
          else
            match Json.parse (String.trim rs.Http.rs_body) with
            | Ok v -> Ok (rs.Http.rs_status, v)
            | Error e -> Error ("response body: " ^ e)))

let close t = locked t (fun () -> drop t)
