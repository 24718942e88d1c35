(** The virtual prototype: one or more RV32 harts, bus, and platform
    devices.

    A machine bundles per-hart architectural state and translation
    machinery, the system bus with the default
    {!S4e_soc.Memory_map} devices (UART, CLINT, GPIO, syscon, and the
    event-driven DMA/vnet/PLIC device plane), the instrumentation
    {!Hooks}, a configurable decoder, and the timing model.  [run]
    executes until software exits through the syscon, a fatal trap
    occurs, fuel runs out, or every hart would sleep forever in WFI.

    One run loop, handed the hart it runs, drives three execution
    engines; with the chaining, memory-TLB and superblock knobs they
    make the six engine configurations of the differential suites,
    which share one observable semantics (identical {!state_digest}
    traces and flight-recorder contents):

    - {b lowered} (default): translation blocks compiled to µop closure
      arrays ([Lower]) with block chaining, batched cycle/CLINT ticking,
      and hook dispatch specialized away.  Selected per block while no
      hooks are installed.  Hot chained paths are further promoted to
      superblock traces ({!Superblock}) unless a profiler, a recorder
      or a stuck register bit ({!set_stuck}) is attached.
    - {b generic TB}: the decoded-array interpreter; used whenever hooks
      are present or [lower_blocks] is off.
    - {b single-step} ([use_tb_cache:false]): decode-dispatch per
      instruction, with interrupt sampling gated to the same block
      boundaries the TB path produces, so it is cycle-identical to the
      cached engines.

    A stuck register bit ({!set_stuck}) runs on all of them without a
    hook: the lowered engine compiles it into the instructions that
    write the register, and the generic interpreter re-forces it after
    every instruction. *)

type word = S4e_bits.Bits.word

type decoder_kind = Hand_decoder | Decodetree_decoder

type config = {
  isa : S4e_isa.Isa_module.t list;
  timing : Timing_model.t;
  use_tb_cache : bool;
  decoder : decoder_kind;
  lower_blocks : bool;
      (** compile hook-free blocks to µop closures (requires
          [use_tb_cache]) *)
  chain_blocks : bool;
      (** patch direct successor links between blocks ({!Tb_cache.next}) *)
  mem_tlb : bool;
      (** enable the bus's software TLB of direct page pointers
          ({!S4e_mem.Bus}); off forces every access through the full
          device-routing path.  Observable behavior is identical either
          way (enforced by differential tests) — the knob exists as an
          escape hatch and for benchmarking the fast path. *)
  superblocks : bool;
      (** promote hot chained paths into cross-block guarded traces
          ({!Superblock}); only effective on the lowered engine.
          Observable behavior is identical either way (enforced by
          differential tests). *)
  device_plane : bool;
      (** attach the event-driven device plane — the DMA engine and the
          vnet device at {!S4e_soc.Memory_map.dma_base}/[vnet_base],
          with the CLINT deadline routed through the
          {!S4e_soc.Event_wheel} and device interrupts delivered as
          [mip.MEIP] (through the {!S4e_soc.Plic} once the guest
          enables a source; OR-ed into hart 0's MEIP until then).  Off
          reverts to the four-device platform with direct timer polling
          (the E17 compute-guard baseline). *)
  harts : int;
      (** number of harts (default 1).  A one-hart machine executes on
          the exact pre-SMP path; more harts run under the
          deterministic round-robin scheduler of {!run}. *)
  hart_slice : int;
      (** round-robin fuel quantum per hart (default 1024).  Part of
          the machine's deterministic semantics: the same slice yields
          the same interleaving on every engine.  Data-race-free guests
          reach the same architectural state under any slice (enforced
          by the SMP differential tests). *)
}

val default_config : config
(** RV32IMFC + Zicsr + B, default timing, TB cache on, DecodeTree,
    lowering, chaining, the memory TLB, superblock traces on, and one
    hart. *)

type reg_file = Lower.reg_file = Gpr | Fpr

(** A register bit held at a fixed value: the permanent stuck-at
    register fault of {!S4e_fault.Injector}. *)
type stuck = Lower.stuck = {
  sk_file : reg_file;
  sk_reg : int;  (** 0..31; a stuck bit in x0 is never forced *)
  sk_bit : int;  (** 0..31 *)
  sk_value : bool;  (** the held value *)
}

type stop_reason =
  | Exited of int  (** software wrote the syscon EXIT register *)
  | Fatal_trap of Trap.exception_cause * word
      (** trap taken with no handler installed ([mtvec] = 0); the word
          is the faulting pc *)
  | Out_of_fuel
  | Wfi_halt  (** WFI with no interrupt source able to wake the hart *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit

(** One hart's private execution context.  Lowered µop closures capture
    the {!Arch_state.t} they were translated against, so translated
    code is hart-bound: each hart owns a TB cache, lowering context,
    and superblock engine over the shared bus. *)
type hart = {
  hx_id : int;
  hx_clint_hart : int option;
      (** [Some hx_id]: the CLINT accessors' [?hart] argument, built once
          so that interrupt sampling allocates nothing *)
  hx_state : Arch_state.t;
  hx_tb : Tb_cache.t;
  hx_lower : Lower.ctx;
  mutable hx_sb : Superblock.t option;
      (** the hart's superblock trace engine; [None] when
          [config.superblocks] is off (or the lowered engine is
          unavailable) *)
  mutable hx_llm : int;
      (** load-use hazard window of the hart's previous retired
          instruction as an {!S4e_isa.Instr.source_mask}-encoded
          destination bitmask (0 = none); persists across [run] calls so
          resumed executions charge the same stalls as uninterrupted
          ones *)
  mutable hx_parked : bool;
      (** parked in WFI (pc already past it); the scheduler wakes the
          hart when an enabled interrupt becomes pending *)
}

type t = {
  bus : S4e_mem.Bus.t;
  uart : S4e_soc.Uart.t;
  clint : S4e_soc.Clint.t;
  gpio : S4e_soc.Gpio.t;
  syscon : S4e_soc.Syscon.t;
  wheel : S4e_soc.Event_wheel.t;
      (** the device event scheduler; always constructed, only consulted
          at interrupt-sampling points when [config.device_plane] *)
  dma : S4e_soc.Dma.t;
  vnet : S4e_soc.Vnet.t;
  plic : S4e_soc.Plic.t;
      (** external-interrupt router; transparent (legacy hart-0 MEIP
          wiring) until the guest enables a source *)
  hooks : Hooks.t;
  config : config;
  decode32 : word -> S4e_isa.Instr.t option;
  pending_ticks : int ref;
      (** cycles batched by the lowered engine, not yet applied to the
          running hart's cycle counter / the CLINT; always 0 outside
          [run] *)
  seg_idx : int ref;
      (** lowered engine: µop index within the running block segment *)
  seg_base : int ref;
      (** lowered engine: µop index up to which instret/fuel are
          credited; equals [seg_idx] outside [run] *)
  fuel_left : int ref;
      (** the running [run] call's remaining fuel (drained lazily by the
          lowered engine); meaningless outside [run] *)
  exit_dirty : bool ref;
      (** set by the syscon write notifier; [run] polls the device's
          exit code only when this is set *)
  harts : hart array;
  mutable cur : int;
      (** index of the hart [run] last scheduled (0 after {!reset});
          the hart {!state} reads *)
  mutable rr : int;
      (** round-robin scheduling pointer (next hart to consider);
          persists across [run] calls so staged-fuel runs interleave
          exactly like uninterrupted ones *)
  mutable profiler : S4e_obs.Profile.t option;
      (** per-block hot-spot attribution; prefer {!set_profiler} *)
  mutable recorder : S4e_obs.Flight_recorder.t option;
      (** retired-instruction flight recorder; prefer {!set_recorder} *)
}

val create : ?config:config -> unit -> t

val state : t -> Arch_state.t
(** The architectural state of hart [cur]: the only hart of a one-hart
    machine; on SMP the hart running (inside [run], e.g. from a bus
    watcher) or last scheduled. *)

val set_profiler : t -> S4e_obs.Profile.t option -> unit
(** Attaches (or detaches) a hot-spot profiler.  [run] then feeds it
    one {!S4e_obs.Profile.note} per dispatched translation block with
    the block's instret/cycle deltas.  Unlike hooks, a profiler keeps
    the lowered fast path: attribution reads the counters the engines
    already drain at block exits, so it does not perturb execution
    (state digests are identical with and without — enforced by
    differential tests).  Only TB dispatch is attributed; single-step
    runs ([use_tb_cache = false]) record nothing. *)

val profiler : t -> S4e_obs.Profile.t option

val set_recorder : t -> S4e_obs.Flight_recorder.t option -> unit
(** Attaches (or detaches) a flight recorder.  [run] then appends one
    {!S4e_obs.Flight_recorder.retire} record per retired instruction
    (pc, opcode word, register writeback, effective address / width /
    value for memory accesses) plus trap / interrupt / device-event
    markers.  An unarmed run pays a test of the hoisted recorder
    pointer per lowered µop; an armed run leaves the superblock path
    (the same µop loop captures per instruction) but never perturbs
    execution — state digests, stop reasons, and cycle counts are
    identical armed vs. unarmed, and the records themselves identical
    across engine configs (enforced by differential tests).
    {!snapshot} captures the recorder's position and {!restore} rewinds
    to it, so sequence numbers stay continuous across campaign forks. *)

val recorder : t -> S4e_obs.Flight_recorder.t option

val tb_stats : t -> Tb_cache.stats
(** Translation-block cache counters summed over every hart. *)

val hot_edges : t -> (word * word * int) list
(** Every hart's live chain edges ({!Tb_cache.hot_edges}), traversals
    summed per edge, hottest first. *)

val trace_stats : t -> Superblock.stats option
(** Superblock trace engine counters summed over every hart; [None]
    when disabled. *)

val register_metrics : ?prefix:string -> t -> S4e_obs.Metrics.t -> unit
(** Registers gauges over the machine's existing counters —
    [<prefix>instret], [cycles], [tb.blocks], [tb.hits], [tb.misses],
    [tb.chain_hits], [tb.invalidations], [mem.tlb_hits],
    [mem.tlb_misses], [mem.tlb_flushes], [wheel.fired],
    [wheel.idle_skips], [wheel.live], [dma.bursts], [dma.bytes],
    [vnet.rx_delivered], [vnet.rx_dropped], [vnet.tx_sent], and (when
    superblocks are on) [sb.traces], [sb.promotions],
    [sb.invalidations], [sb.execs], [sb.completions], [sb.instrs]
    (prefix default ["machine."]).  Per-hart counters ([instret],
    [cycles], [tb.*], [sb.*]) sum over every hart.  Gauges are
    read-on-demand probes: the hot path is untouched. *)

val observe_devices :
  ?metrics:S4e_obs.Metrics.t -> ?trace:S4e_obs.Trace_events.t -> t -> unit
(** Wires telemetry observers into the device plane: a [dma.burst_bytes]
    histogram per completed DMA burst, a [vnet.rx_queue_depth] histogram
    per rx delivery/drop, and one Chrome-trace instant per device event
    (cat ["device"]).  Calling with neither argument detaches the
    observers.  Purely observational — digests are unchanged. *)

val set_uart_sink : t -> (string -> unit) option -> unit
(** Installs a batched host sink for UART output ({!S4e_soc.Uart.set_sink});
    [run] flushes it at every stop. *)

val set_stuck : t -> stuck option -> unit
(** [Some s] holds a bit of the current hart's register file: it forces
    the bit at once, records [s] on the hart's lowering context and
    flushes the hart's translations.  From then on every instruction
    that writes the register re-forces the bit straight after its write
    (compiled into the lowered µop; the generic interpreter re-forces
    after every instruction), so every read — and the flight recorder's
    writeback record — sees the held value.  {!reset} and {!restore}
    force it again after rewriting the registers.  Superblock traces
    are neither promoted nor entered on a hart with a stuck bit.  A
    stuck bit in x0 is recorded but never forced.

    [None] clears the setting on every hart that has one and flushes
    their translations.  Only legal between [run] calls.

    @raise Invalid_argument when the register or bit is outside 0..31. *)

val reset : t -> pc:word -> unit
(** Architectural reset (registers, CSRs, CLINT, PLIC, syscon) of every
    hart; all harts restart at [pc] (SMP guests branch on [mhartid]).
    Memory, the TB caches, hooks and stuck bits are preserved (a stuck
    bit is forced again on the reset registers). *)

val run : t -> fuel:int -> stop_reason
(** Executes at most [fuel] instructions.  Interrupts are sampled at
    translation-block boundaries (as in QEMU) on every engine —
    including single-step mode, which reconstructs the boundaries.

    On a multi-hart machine, fuel is dealt to the harts round-robin in
    [config.hart_slice]-sized quanta; a hart that executes WFI with no
    enabled pending interrupt parks until one arrives (e.g. a
    cross-hart MSIP IPI), virtual time fast-forwards only when every
    hart is parked, and [Wfi_halt] means no hart can ever wake.  The
    interleaving is a pure function of (program, fuel, slice) —
    identical on every engine. *)

val hart_count : t -> int

val instret : t -> int
(** Sum over all harts (the hart's own counter on a 1-hart machine). *)

val cycles : t -> int

val uart_output : t -> string

val load_word : t -> word -> word -> unit
(** [load_word t addr w] pokes one word directly into RAM (bypassing
    devices and hooks) and invalidates affected translation blocks. *)

val load_string : t -> word -> string -> unit

(** {1 Snapshot / restore}

    A snapshot captures everything a resumed [run] depends on:
    architectural state, RAM (page copies), UART/CLINT/GPIO/syscon
    device state, and the microarchitectural hazard window.  Hooks and
    the TB cache are deliberately excluded: hooks belong to the
    instrumentation layer, and the TB cache is flushed on restore
    because restored memory may hold different code.

    The fault campaign uses this to fork faulty runs off a golden
    prefix instead of re-executing every mutant from reset. *)

type snapshot

val snapshot : t -> snapshot
(** O(touched pages + registers); the snapshot is fully detached from
    the machine and can be restored any number of times. *)

val restore : t -> snapshot -> unit
(** Rewinds the machine to the captured instant and flushes the TB
    cache.  [run] can then resume as if execution had never left the
    snapshot point.  Stuck bits ({!set_stuck}) are not part of a
    snapshot: they stay set and are forced again on the restored
    registers. *)

val state_digest : ?include_time:bool -> ?include_instret:bool -> t -> string
(** Digest of the complete snapshot-visible state (registers, CSRs,
    cycle/instret, RAM, UART output, CLINT, GPIO) of every hart.  Two
    machines with equal digests behave identically from this point on
    (absent hook interference) — the fault campaign's early-convergence
    check.  A one-hart machine with an untouched PLIC hashes exactly
    the pre-SMP byte stream.

    [~include_time:false] omits the cycle counters and the CLINT mtime
    register.  Two machines with equal relaxed digests then execute the
    same instruction stream from this point on {e provided} neither run
    ever observes time (reads a cycle/time CSR, sleeps on WFI, takes a
    timer interrupt or loads from the CLINT window) — the caller is
    responsible for establishing that.  Defaults to [true].

    [~include_instret:false] additionally omits the retired-instruction
    counters — the comparison the SMP slice-invariance tests use, since
    spin-loop iteration counts legitimately vary with the scheduling
    quantum while the architectural outcome must not. *)
