(** Chrome [trace_event]-format sink (Perfetto / chrome://tracing).

    Events accumulate in a buffer and are written out as one JSON array
    — the subset of the trace-event spec the viewers need: complete
    spans (ph ["X"]), instants (ph ["i"]), and thread-name metadata
    (ph ["M"]).  Timestamps are microseconds since the sink was
    created; [tid] is the caller's choice — the campaign engine passes
    the OCaml domain id, so each worker domain renders as its own lane.

    All emission is mutex-serialized: domains may emit concurrently.
    Overhead is one buffer append per event, so events should mark
    chunk- or phase-sized work, not per-instruction work. *)

type t

val create : unit -> t

val now_us : t -> float
(** Microseconds since [create] — the sink's clock, for callers that
    time a region themselves and emit via {!complete}. *)

val thread_name : t -> tid:int -> string -> unit
(** Labels a lane; deduplicated, so callers may re-announce freely. *)

val complete :
  t ->
  ?args:(string * string) list ->
  name:string ->
  cat:string ->
  tid:int ->
  ts_us:float ->
  dur_us:float ->
  unit ->
  unit
(** A finished span: began at [ts_us] (on the sink's clock), lasted
    [dur_us]. *)

val instant :
  t -> ?args:(string * string) list -> name:string -> cat:string ->
  tid:int -> unit -> unit

val span :
  t -> ?args:(string * string) list -> name:string -> cat:string ->
  ?tid:int -> (unit -> 'a) -> 'a
(** [span t ~name ~cat f] times [f] and emits the complete event —
    also when [f] raises.  [tid] defaults to the calling domain's id. *)

val events : t -> int
(** Events emitted so far. *)

val contents : t -> string
(** The trace as a JSON array (loadable in Perfetto as-is). *)

val write : t -> string -> unit
(** [write t path] writes {!contents} to [path]; ["-"] is stdout. *)
