(** Mutant generation and mass fault simulation.

    The fault paper's flow: run the golden binary once, collect its
    coverage (which registers and instructions it actually exercises),
    generate fault lists restricted to those sites ("dedicated sets of
    fault injected hardware models, i.e., mutants"), simulate every
    mutant, and classify:

    - [Masked]: terminates normally with the golden signature;
    - [Sdc]: terminates normally with a different exit code or UART
      output (the paper's "normal termination though executed on a
      faulty hardware model" — silent data corruption);
    - [Crashed]: ends in a fatal trap;
    - [Hung]: exhausts its fuel or sleeps forever;
    - [Errored]: the {e simulator} raised while running the mutant
      (malformed fault, engine defect) — the exception text is kept so
      a campaign is never aborted by a single bad mutant. *)

type outcome = Masked | Sdc | Crashed | Hung | Errored of string

val outcome_name : outcome -> string

type signature = {
  sig_exit : int option;
  sig_uart : string;
  sig_instret : int;
}

type summary = {
  masked : int;
  sdc : int;
  crashed : int;
  hung : int;
  errors : int;
  total : int;
}

type target = [ `Gpr | `Fpr | `Code | `Data ]
type kind_choice = [ `Permanent | `Transient ]

val golden :
  ?config:S4e_cpu.Machine.config -> fuel:int -> S4e_asm.Program.t ->
  signature * S4e_coverage.Report.t
(** Reference run with coverage collection. *)

val generate :
  seed:int ->
  n:int ->
  targets:target list ->
  kinds:kind_choice list ->
  coverage:S4e_coverage.Report.t ->
  golden_instret:int ->
  Fault.t list
(** Coverage-guided fault list: register faults only in accessed
    registers, code faults only at executed pcs, data faults only in
    the touched address window; transient times uniform in
    [1, golden_instret].  Deterministic in [seed]. *)

val generate_blind :
  seed:int ->
  n:int ->
  targets:target list ->
  kinds:kind_choice list ->
  program:S4e_asm.Program.t ->
  golden_instret:int ->
  Fault.t list
(** Ablation baseline: sites drawn from the whole register file / code
    range regardless of what the program exercises. *)

val run_one :
  ?config:S4e_cpu.Machine.config -> fuel:int -> S4e_asm.Program.t ->
  golden:signature -> Fault.t -> outcome
(** Reference semantics: fresh machine, run from reset.  For transient
    faults the run is segmented at the injection instant, which pins
    the instant a code/data flip becomes architecturally visible to
    the next fetch (a flip into the currently-executing translation
    block takes effect at that boundary, not at the block's end) —
    the same contract the forked engine below realises, so the two
    must agree on every workload. *)

(** {1 The campaign engine}

    [run] executes a whole fault list through a tunable engine that is
    fast along three independent axes:

    - {b domain parallelism} ([eng_jobs] / [?jobs]): the fault list is
      split into a fixed number of chunks (a function of the list only,
      never of [jobs]) executed by a {!S4e_par.Par_pool}, each chunk on
      a private machine.  Results are reassembled in input order, so
      any [jobs] value produces bit-identical output.
    - {b snapshot forking} ([eng_fork]): within a chunk, transient
      faults are sorted by injection time; the golden prefix executes
      once per chunk and each mutant is forked off a
      {!S4e_cpu.Machine.snapshot} at [n - 1] retired instructions,
      simulating only the suffix.  The injector's counting hook is
      dropped as soon as the flip lands, so the suffix runs unhooked on
      the translation-block fast path.  Stuck-at faults capture their
      value at arm time and still run from reset.
    - {b early-divergence exit} ([eng_checkpoint]): a golden checkpoint
      trace (instret → state digest, every [eng_checkpoint]
      instructions) lets a faulty run stop as soon as its state digest
      matches the golden trace after the fault is inert — the remainder
      of the run is then provably identical to the golden run.  The
      faulty run executes in checkpoint-sized bursts and compares
      digests at the pauses, so the check costs nothing per
      instruction.  When the golden run never observes time (no
      cycle/time CSR reads, no WFI, no interrupt enables, no CLINT
      access) the comparison ignores the cycle and mtime counters:
      a reconverged run whose only residue is a skewed cycle counter —
      the common case after a perturbed branch — still exits early.

    Caveat: forking, burst pauses, and early exit change where
    interrupts are sampled (translation-block boundaries shift at
    snapshot/checkpoint seams), so they are exact only for programs
    whose outcome does not depend on asynchronous-interrupt timing —
    true of every workload in this repository, and trivially of any
    program that never enables interrupts.  Use {!rerun_engine} for the
    literal re-run-from-reset semantics of {!run_one}. *)

type engine = {
  eng_jobs : int;  (** worker domains; overridden by [?jobs] *)
  eng_fork : bool;  (** fork transients off golden snapshots *)
  eng_checkpoint : int;
      (** golden digest interval in retired instructions; [0] disables
          the trace and with it all early exits *)
  eng_timeout_s : float;
      (** wall-clock budget per mutant, a second hang defense behind the
          fuel budget; a mutant over its deadline is classified like
          fuel exhaustion ([Hung]).  [0.0] (the default) disables it —
          note that a wall-clock cutoff makes borderline outcomes
          machine-dependent, so leave it off when bit-identical results
          across hosts matter. *)
}

val default_engine : engine
(** [jobs = 1], fork on, checkpoint every 1024 instructions, no
    wall-clock timeout. *)

val rerun_engine : engine
(** The naive baseline: every fault re-runs from reset with no trace —
    exactly {!run_one} per fault (modulo machine reuse). *)

val shard : index:int -> count:int -> (int * Fault.t) list -> (int * Fault.t) list
(** Stable round-robin partition of an indexed fault list: keeps the
    elements whose index [i] satisfies [i mod count = index].  A pure
    function of the indices, so [count] cooperating processes cover the
    list exactly once and the union of all shards is the whole list.
    @raise Invalid_argument unless [0 <= index < count]. *)

val run_indexed :
  ?config:S4e_cpu.Machine.config ->
  ?engine:engine ->
  ?jobs:int ->
  ?metrics:S4e_obs.Metrics.t ->
  ?trace:S4e_obs.Trace_events.t ->
  ?on_progress:(int -> int -> unit) ->
  ?on_result:(int -> Fault.t -> outcome -> unit) ->
  ?cancelled:(unit -> bool) ->
  fuel:int ->
  S4e_asm.Program.t ->
  golden:signature ->
  (int * Fault.t) list ->
  (int * Fault.t * outcome) list
(** Core entry point over an {e indexed} fault list — each fault keeps
    its stable position in the full campaign, so a {!shard} or the
    unclassified remainder of an interrupted run (journaled resume)
    classifies exactly the same mutants as the corresponding slice of a
    full run.  Returns only the mutants actually classified, in input
    order; mutants skipped by cancellation are absent, never defaulted.

    - [on_result i fault outcome] fires once per classified mutant,
      serialized under an internal lock (safe to write a journal from),
      before the corresponding [on_progress] tick.
    - [cancelled ()] is polled between mutants on every worker;
      once it returns [true], workers finish their current mutant and
      classify nothing further.  Cooperative, so a SIGINT handler only
      needs to set a flag. *)

val run :
  ?config:S4e_cpu.Machine.config ->
  ?engine:engine ->
  ?jobs:int ->
  ?metrics:S4e_obs.Metrics.t ->
  ?trace:S4e_obs.Trace_events.t ->
  ?on_progress:(int -> int -> unit) ->
  fuel:int ->
  S4e_asm.Program.t ->
  golden:signature ->
  Fault.t list ->
  (Fault.t * outcome) list
(** Simulates every fault and pairs it with its outcome, in input
    order ({!run_indexed} over [List.mapi]).  [?jobs] overrides
    [engine.eng_jobs].

    Telemetry (all optional, none changes outcomes):
    - [metrics] receives the counters [campaign.mutants],
      [campaign.hangs] (hang-budget kills), [campaign.early_exits],
      [campaign.snapshot_forks], [campaign.errors] (mutants classified
      [Errored]), [campaign.retries] (per-mutant second-chance reruns
      after an exception), [campaign.timeouts] (wall-clock deadline
      hits), the [campaign.mutant_insns] histogram (instructions
      simulated per mutant), and — when the pool runs — the [pool.*]
      worker gauges.
    - [trace] receives Chrome trace events: a [golden-trace] span, one
      [chunk] span per worker task (tid = the executing domain, so
      Perfetto shows one lane per domain), and one span per mutant
      named by its outcome.
    - [on_progress done total] fires once per classified mutant, from
      whichever domain classified it. *)

val summarize : (Fault.t * outcome) list -> summary

val pp_summary : Format.formatter -> summary -> unit

val summary_to_json : summary -> S4e_obs.Json.t
(** [{"masked", "sdc", "crashed", "hung", "errored", "total"}], all
    integers: the summary the fleet reports for a job and
    [s4e merge-journals --json] prints. *)

val summary_of_json : S4e_obs.Json.t -> summary option
(** Inverse of {!summary_to_json}; [None] when a count is missing. *)

(** {1 Divergence triage}

    A campaign names {e what} went wrong (sdc / crashed / hung);
    triage names {e where}.  [triage] re-runs a sampled subset of the
    divergent mutants with a {!S4e_obs.Flight_recorder} armed on both a
    golden and a faulty machine, runs the pair in instret-lockstep
    bursts, and locates the first record where the two recordings
    disagree — the first architectural delta.  The burst containing the
    divergence is replayed from its pre-burst snapshots up to that
    record, so the reported register / memory / pending-interrupt diffs
    are taken {e at} the divergence instant, not at the end of the run.

    Triage is a diagnostic pass over an already-classified campaign: it
    re-simulates [2 × sample] runs with recording on, so it costs a few
    golden-run equivalents — cheap next to the campaign itself, but not
    free, hence the sampling. *)

type reg_diff = { rd_name : string; rd_golden : int; rd_mutant : int }
(** One architectural register (ABI name, [f0..f31], or CSR) whose
    value differs between the golden and the faulty machine. *)

type triage_record = {
  tg_index : int;  (** the mutant's stable campaign index *)
  tg_fault : Fault.t;
  tg_outcome : outcome;
  tg_diverged : bool;
      (** [false] when no architectural divergence was located within
          the fuel budget (e.g. a [Hung] mutant that executes the
          golden instruction stream forever) *)
  tg_instret : int;  (** mutant instret at the divergence instant *)
  tg_golden_pc : int;
  tg_mutant_pc : int;
  tg_insn : string;
      (** rendering of the first diverging record — disassembled
          instruction for a retire, marker description otherwise, or
          the differing stop reason when the streams never disagree *)
  tg_reg_diffs : reg_diff list;  (** capped at 12, GPRs first *)
  tg_mem_diff : bool;  (** RAM digests differ at the divergence *)
  tg_mip_golden : int;  (** pending-interrupt (mip) CSRs at divergence *)
  tg_mip_mutant : int;
  tg_tail : string list;
      (** the mutant recorder's last records (up to [tail]), rendered
          with the disassembler — the flight-recorder tail dump *)
}

val triage :
  ?config:S4e_cpu.Machine.config ->
  ?sample:int ->
  ?tail:int ->
  fuel:int ->
  S4e_asm.Program.t ->
  (int * Fault.t * outcome) list ->
  triage_record list
(** Triage of an indexed campaign result.  Candidates are the [Sdc],
    [Crashed], and [Hung] mutants; when there are more than [sample]
    (default 8), a deterministic stride over the candidate list picks
    [sample] of them spread across the campaign.  [tail] (default 16)
    bounds [tg_tail].  One record per sampled mutant, in campaign
    order.  Purely diagnostic: runs fresh machines, never touches the
    campaign's results. *)

val top_sites : triage_record list -> (int * int) list
(** Ranked "top faulty sites": divergence pcs with their counts,
    most frequent first (ties broken by ascending pc). *)

val triage_to_json : triage_record -> string
(** One JSON object on one line (JSONL), schema:
    [{"index":int, "fault":string, "outcome":string, "diverged":bool,
    "instret":int, "golden_pc":"0x…", "mutant_pc":"0x…", "insn":string,
    "reg_diffs":[{"reg":string,"golden":"0x…","mutant":"0x…"}],
    "mem_diff":bool, "mip_golden":int, "mip_mutant":int,
    "tail":[string]}]. *)

val pp_triage : Format.formatter -> triage_record -> unit
(** One-line human summary of a triage record. *)
