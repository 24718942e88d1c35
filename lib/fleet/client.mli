(** Minimal JSON-over-HTTP client for the fleet API.

    Holds one keep-alive connection to the orchestrator and re-opens it
    once per request on failure, so a server restart or a dropped
    connection surfaces as at most one transparent retry.  Thread-safe:
    requests are serialized over the single connection. *)

type t

val create : Http.addr -> t
(** No I/O happens until the first {!request}. *)

val addr : t -> Http.addr

val request :
  t -> meth:string -> path:string -> ?body:S4e_obs.Json.t -> unit ->
  (int * S4e_obs.Json.t, string) result
(** [(status, parsed body)] — transport and JSON-parse failures are
    [Error].  Non-2xx statuses are returned, not raised: the fleet API
    encodes protocol outcomes (stale lease, conflict) in them. *)

val close : t -> unit
(** Drops the connection; a later {!request} reconnects. *)
