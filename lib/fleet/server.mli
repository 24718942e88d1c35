(** The campaign fleet orchestrator behind [s4e serve].

    Jobs — a JSON spec naming a program, a fault model, and a shard
    count — are submitted over a minimal HTTP/1.1 JSON API; workers
    pull shard {e leases} with expiry, stream classified-mutant journal
    lines back in batches, and complete their shards.  The server
    reads, checks and merges the streamed lines live with
    {!S4e_fault.Journal} itself ({!S4e_fault.Journal.parse_line},
    {!S4e_fault.Journal.check}, {!S4e_fault.Journal.merge_record}):
    records are deduplicated by mutant index, and two shards
    disagreeing on a mutant's fault or outcome class fail the job (the
    engine is deterministic per mutant, so a disagreement means the
    workers did not run the same campaign).
    A worker that dies mid-shard costs only its unstreamed tail: the
    lease expires, the shard is re-leased, and the next holder receives
    the already-merged records of that shard to resume from.

    The server never simulates.  Workers produce the lines with
    {!S4e_fault.Journal} via the {!S4e_core.Flows.fault_campaign}
    streaming hook, and the server writes each finished job's journal
    with {!S4e_fault.Journal.create}, so [s4e merge-journals] reads it
    back unchanged.

    {2 API}

    All bodies are JSON; lease ids are opaque strings.

    - [POST /api/jobs] — submit a spec (its [shards] field, default 1,
      sets the shard count); returns [{"job": id}].
    - [GET /api/jobs], [GET /api/jobs/ID] — status.
    - [POST /api/lease] [{"worker": name}] — returns a grant
      [{job, shard, shards, lease, ttl, spec, resume}] (where [resume]
      carries the shard's already-merged journal lines) or
      [{"idle": true, "running": n}].
    - [POST /api/renew] [{"lease": id}] — heartbeat; accepted record
      batches also renew.
    - [POST /api/records] [{"lease": id, "lines": [...]}] — stream
      journal lines (the header line is recognised and checked for
      compatibility; record lines are merged).  A batch is checked
      whole first and nothing of it merges unless every line passes:
      a line that is not a string or does not parse, a header for
      another shard, a record before any header, and a record outside
      [[0, total)] or outside the lease's shard slice are 400s.
      Records are accepted even from a stale lease — they are valid
      work — but the reply's [lease_ok: false] tells the worker to
      stop.
    - [POST /api/complete], [POST /api/release] [{"lease": id}].
    - [GET /metrics] — the attached metrics registry as JSON.
    - [GET /healthz]. *)

type t

val create :
  ?ttl:float ->
  ?journal_dir:string ->
  ?metrics:S4e_obs.Metrics.t ->
  ?clock:(unit -> float) ->
  ?log:(string -> unit) ->
  unit ->
  t
(** [ttl] (default 30 s) is the lease expiry.  With [journal_dir], each
    completed job's merged journal is written to [DIR/ID.jsonl] (and
    {!stop} flushes running jobs to [DIR/ID.partial.jsonl]).  [clock]
    (default [Unix.gettimeofday]) injects time for deterministic lease
    expiry in tests.  [log] receives one line per lifecycle event. *)

val handle : t -> Http.request -> Http.response
(** The transport-independent request handler — tests and simulations
    drive the whole orchestration state machine through this without a
    socket. *)

val start : t -> Http.addr -> (Http.addr, string) result
(** Binds, then serves {!handle} from a background accept thread
    (thread per connection, keep-alive).  Returns the bound address —
    with [Tcp (host, 0)] the kernel-assigned ephemeral port is
    resolved. *)

val stop : t -> unit
(** Stops accepting, flushes partial journals for running jobs, and
    wakes {!wait}.  Idempotent. *)

val wait : t -> unit
(** Blocks until {!stop}. *)

val jobs_running : t -> int
val jobs_total : t -> int
