(** Append-only campaign journals: one JSONL file per campaign run.

    The first line is a header binding the journal to its campaign
    (fault-list seed, mutant count, shard, and an MD5 of the program
    image); every following line records one classified mutant.  The
    writer appends records as the engine classifies them and fsyncs in
    small batches, so after a crash or SIGINT at most a batch of
    classifications needs re-running — {!append_to} reads the survivors
    back, drops a torn final line, and resumes appending in place.

    Journals written by shards of the same campaign ([--shard i/n])
    {!merge} into one record set, which must be conflict-free: the
    engine is deterministic per mutant, so two journals disagreeing on
    an outcome means they were not the same campaign.

    See [docs/CAMPAIGNS.md] for the on-disk format. *)

type header = {
  j_seed : int;  (** fault-list generation seed *)
  j_total : int;  (** mutants in the {e full} campaign, across shards *)
  j_shard : int * int;  (** [(index, count)]; [(0, 1)] = unsharded *)
  j_program : string;  (** MD5 (hex) of the serialized program image *)
}

type record = {
  r_index : int;  (** stable index in the full fault list *)
  r_fault : Fault.t;
  r_outcome : Campaign.outcome;
}

val header_of :
  ?shard:int * int -> seed:int -> total:int -> S4e_asm.Program.t -> header

val expected_count : header -> int
(** Mutants this journal's shard is responsible for. *)

val is_complete : header -> record list -> bool

(** {1 Line format}

    Every journal line is one JSON object printed by {!S4e_obs.Json}.
    A worker streams [record_line]s as the campaign classifies
    mutants, and the fleet orchestrator reads them back here, checks
    them with {!check} and merges them with {!merge_record} — the same
    steps {!read} and {!merge} take — so a journal the orchestrator
    accepts is one [s4e merge-journals] accepts. *)

val header_line : header -> string
(** One line, no trailing newline — exactly what {!create} writes. *)

val record_line : record -> string

val parse_header : string -> (header, string) result
(** Inverse of {!header_line}; rejects lines without the
    [s4e_journal] version field, a negative total, and a shard that is
    not ["i/n"] with [0 <= i < n]. *)

val parse_record : string -> (record, string) result

type line = Header of header | Record of record

val parse_line : string -> (line, string) result
(** A header or a record line, told apart by the version field. *)

val check : header -> record -> (unit, string) result
(** [Error] unless the record's index lies in [[0, total)] and in the
    header's shard slice (index mod n = i). *)

(** {1 Writing} *)

type writer

val create :
  ?sink:S4e_obs.Trace_events.t -> path:string -> header ->
  (writer, string) result
(** Truncates [path] and writes the header (synced immediately). *)

val append_to :
  ?sink:S4e_obs.Trace_events.t -> path:string -> header ->
  (writer * record list, string) result
(** Reopens an existing journal for resume: validates that its header
    matches [header] exactly, returns the records already present
    (deduplicated by index, sorted), and positions the writer after the
    last {e complete} line — a torn final line from the interrupted run
    is overwritten. *)

val write : writer -> record -> unit
(** Appends one record.  Thread-safe; fsyncs every 64 records (each
    flush wrapped in a [journal-flush] trace span when [sink] is
    given). *)

val flush : writer -> unit
(** Flush and fsync now — call from a signal-triggered shutdown path. *)

val close : writer -> unit

(** {1 Reading} *)

val read : string -> (header * record list, string) result
(** Records come back deduplicated by index (last write wins) and
    sorted.  A torn final line is dropped silently; a malformed
    {e terminated} line, or a record that fails {!check} against the
    header, is corruption and an error. *)

(** {1 Merging} *)

val merge_header : header -> header -> (unit, string) result
(** [Ok] when two headers describe the same campaign: seed, total and
    program agree (shards may differ). *)

val merge_record :
  (int, record) Hashtbl.t -> record -> ([ `Fresh | `Dup ], string) result
(** One merge step: adds a record under its index, tolerates the same
    fault and outcome class a second time ([`Dup]; errored messages
    are not compared), and is an [Error] when the index is already
    classified differently — the engine is deterministic per mutant,
    so two journals disagreeing were not the same campaign. *)

val sorted_records : (int, record) Hashtbl.t -> record list
(** A merge table's records, sorted by index. *)

val merge :
  (header * record list) list ->
  (header * record list, string) result
(** Combines shard journals of one campaign into a single unsharded
    record set: {!merge_header} on every header, then {!check} and
    {!merge_record} on every record. *)
