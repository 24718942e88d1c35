(** The fleet worker pull loop behind [s4e worker].

    A worker repeatedly asks the orchestrator for a shard lease, runs
    the campaign shard through the caller-supplied [runner], and streams
    the journal lines the runner emits back in batches.  While a shard
    runs, a heartbeat thread renews the lease every [ttl/3], and the
    end of the shard wakes it at once, so finishing a shard costs no
    wait.  If the server reports the lease stale (the shard was reclaimed after a
    stall or partition), the runner is cancelled cooperatively and the
    shard abandoned — its streamed records remain valid on the server.

    The [runner] receives the job spec verbatim, the shard coordinates,
    the resume payload from the lease grant (header line + journal
    lines already merged for this shard), an [emit] sink for fresh
    journal lines, and a [cancelled] poll it must check between
    mutants.  It is the binary's job to turn the spec into a
    {!S4e_core.Flows.fault_campaign} call — this module stays free of
    engine dependencies so it can be driven by fakes in tests. *)

type runner =
  spec:S4e_obs.Json.t ->
  shard:int * int ->
  resume:(string * string list) option ->
  emit:(string -> unit) ->
  cancelled:(unit -> bool) ->
  (unit, string) result
(** [resume = Some (header_line, record_lines)] when the server has
    prior records for this shard. *)

type outcome = {
  o_shards_ok : int;  (** shards run to completion and acknowledged *)
  o_shards_failed : int;  (** runner errors and lost leases *)
  o_records : int;  (** journal lines streamed (headers included) *)
}

(** The heartbeat's sleep: a wait that a second thread can cut short. *)
module Alarm : sig
  type t

  val create : unit -> t

  val wait : t -> float -> bool
  (** [wait t s] sleeps until [wake] is called or [s] seconds pass;
      [true] if it was woken.  Once woken it stays awake: every later
      [wait] returns [true] at once. *)

  val wake : t -> unit
  val close : t -> unit
end

val run :
  ?name:string ->
  ?poll_s:float ->
  ?batch:int ->
  ?stop:bool ref ->
  ?drain:bool ->
  ?metrics:S4e_obs.Metrics.t ->
  ?log:(string -> unit) ->
  client:Client.t ->
  runner:runner ->
  unit ->
  (outcome, string) result
(** Pulls until [stop] is set — or, with [drain], until the server
    reports itself idle with no running jobs (the mode bench and CI
    smokes use to run a finite fleet).  [poll_s] (default 0.5) is the
    idle backoff; [batch] (default 32) is the lines-per-POST flush
    threshold.  [Error] only for submit-level protocol failures (the
    server unreachable on first contact); per-shard failures are
    counted in the outcome and the loop continues. *)
