(** Profile-guided superblock traces — cross-block µop optimization on
    top of the lowered engine.

    The chained block engine already skips fetch, decode, dispatch, and
    most timing work, but it still re-enters the dispatch loop at every
    block boundary: interrupt poll, chain lookup, per-µop closure calls,
    per-block cycle/retire bookkeeping.  This module recompiles {e hot
    chained paths} — sequences of blocks joined by frequently traversed
    chain links — into single guarded closures ("traces") that:

    - keep the program counter as a translate-time constant along the
      expected path (no [pc] writes until a side exit or completion);
    - fold [lui]/[auipc]+[addi] and [lui]/[auipc]+load/store pairs into
      constant stores / constant-address accesses;
    - fuse an ALU op with a consuming branch terminal into one item,
      whose register kernel runs straight into the guard's branch
      kernel ({!Reg_kernel}, shared with the lowered engine);
    - batch cycle charges into static per-segment constants, synced
      only where time is observable (device-space accesses, block
      boundaries, exits); instret/fuel are credited with a single
      static constant per exit.

    {b Exactness.}  Every side exit (guard failure, deliverable
    interrupt, invalidation, trap) re-establishes the exact
    architectural state — pc, cycle, instret, mip — the per-block
    engine would have at the same point, so the state digest is
    identical whatever mix of engines executed.  Enforced by the
    differential tests in test_lowered.ml.

    {b Promotion.}  Driven by the dispatcher: every
    {!promote_period}-th execution of an unattached block, the driver
    follows the hotter of its two chain links (while hits ≥
    min_edge_hits) to build a path of 2..max_blocks blocks /
    ≤ max_instrs instructions of promotable (integer, non-CSR,
    non-atomic) instructions, and compiles it.  Revisiting a block
    extends the path through it again (bounded loop unrolling).  A
    block that writes the hart's stuck register ({!set_stuck_gpr}) is
    not promotable, so traces stay on while a bit is stuck.

    {b Invalidation.}  Traces die with any constituent block: the cache
    invalidation hooks ({!Tb_cache.set_invalidate_hooks}) mark the
    trace dead and detach surviving members.  A store issued from
    {e inside} a running trace that kills the trace itself is caught at
    the next block boundary via the dead flag. *)

type word = int

(** Trace execution context, bound once per machine — the trace
    analogue of {!Lower.ctx}.  Callbacks keep this module independent
    of [Machine]; see the implementation for the exact contract each
    one must honour. *)
type ctx = {
  sx_state : Arch_state.t;
  sx_bus : S4e_mem.Bus.t;
  sx_timing : Timing_model.t;
  sx_pending : int ref;  (** the machine's batched-cycle counter *)
  sx_exit_dirty : bool ref;  (** exit-request latch (hook/CLI stop) *)
  sx_flush : unit -> unit;
      (** apply [sx_pending] to cycle + CLINT (cycles only; retires are
          credited separately with per-exit constants) *)
  sx_retire : int -> unit;  (** credit n retired instructions + fuel *)
  sx_exit_code : unit -> int option;  (** read the exit latch *)
  sx_raise_exited : int -> unit;  (** raise the machine's stop exn *)
  sx_trap : Trap.exception_cause -> word -> int -> unit;
      (** [sx_trap cause pc pred]: full trap entry for a trace µop at
          [pc] with [pred] already-retired predecessors — flush, credit,
          enter exception (raising on fatal), charge system cycles,
          credit the trapping instruction, re-check the exit latch.
          The trace side-exits after it returns. *)
  sx_irq : unit -> bool;
      (** recompute + store mip from live CLINT state and report
          whether a deliverable interrupt is pending — the dispatch
          loop's between-block check *)
  sx_notify_store : word -> unit;  (** translation-cache invalidation *)
  sx_get_llm : unit -> int;  (** machine's live load-use hazard mask *)
  sx_set_llm : int -> unit;
  sx_dev_limit : word;  (** bus addresses below this may observe time *)
}

type trace = {
  tr_head_pc : word;
  tr_blocks : int;  (** constituent blocks (revisits counted) *)
  tr_instrs : int;  (** guest instructions retired on full completion *)
  tr_dead : bool ref;
  tr_body : unit -> unit;
  tr_members : Tb_cache.entry list;  (** distinct constituent entries *)
}

type Tb_cache.attachment +=
  | Trace_head of trace  (** dispatching this block may run the trace *)
  | Trace_member of trace  (** interior block; blocks re-promotion *)

type t

val create :
  ?promote_period:int ->
  ?min_edge_hits:int ->
  ?max_blocks:int ->
  ?max_instrs:int ->
  ctx ->
  Tb_cache.t ->
  t
(** Installs the cache invalidation hooks.  [promote_period] (default
    64) must be a power of two; [min_edge_hits] defaults to 16,
    [max_blocks] to 16, [max_instrs] to 96. *)

val promote_period : t -> int

val set_stuck_gpr : t -> int -> unit
(** [set_stuck_gpr t r] refuses promotion to every block that writes
    GPR [r] ([0]: none).  A trace forwards register results through
    locals, so it would read past a stuck bit's force; one that never
    writes the stuck register only ever reads the held value.  The
    caller kills the blocks (and so the traces) that write [r] when it
    sets it. *)

val maybe_promote : t -> Tb_cache.entry -> unit
(** Attempt promotion of an unattached block (no-op on attached ones).
    The dispatcher calls this every {!promote_period}-th execution of a
    block. *)

val exec : t -> trace -> unit
(** Run a trace body.  The caller must have checked [tr_dead], the
    fuel budget (≥ [tr_instrs]), and the exit latch. *)

type stats = {
  sb_live : int;  (** traces currently runnable *)
  sb_promotions : int;
  sb_invalidations : int;
  sb_execs : int;  (** trace dispatches (completions + bails) *)
  sb_completions : int;  (** runs that reached the final terminal *)
  sb_instrs : int;  (** guest instructions retired inside traces *)
  sb_bail_guard : int;  (** side exits: edge guard failed *)
  sb_bail_irq : int;  (** side exits: deliverable interrupt *)
  sb_bail_dead : int;  (** side exits: trace invalidated mid-run *)
  sb_bail_trap : int;  (** side exits: µop trapped *)
}

val stats : t -> stats
