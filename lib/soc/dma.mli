(** Descriptor-ring DMA engine.

    A burst copy engine driven through a ring of 16-byte descriptors
    [{src; dst; len; flags}] in RAM.  Software programs the ring base
    and count, then rings the tail doorbell; the engine consumes
    descriptors in order and schedules one completion event per
    descriptor on the {!Event_wheel}, [setup + len/8 + DELAY] cycles
    out.  The copy happens at completion time via direct
    [Sparse_mem] page blits (bypassing the bus TLB, which stays
    coherent because the blit mutates the pages the TLB points at),
    and written ranges are reported through the notify callback so
    translation blocks are invalidated exactly as for CPU stores.

    Register file (32-bit, byte offsets):
    {v
      0x00 RING        descriptor ring base address
      0x04 COUNT       descriptors in ring
      0x08 TAIL        producer index (write = doorbell)
      0x0C HEAD        consumer index (RO)
      0x10 IRQ_STATUS  bit0 = completion (write 1 to clear)
      0x14 IRQ_ENABLE  bit0
      0x18 STATUS      bit0 = busy (RO)
      0x1C DELAY       extra cycles charged per descriptor
      0x20 BURSTS      descriptors completed (RO)
      0x24 BYTES       bytes copied (RO)
    v}

    Descriptor flags: bit0 = raise IRQ on completion; the engine ORs
    in bit31 (done) when the copy retires. *)

type t

val create :
  mem:S4e_mem.Sparse_mem.t ->
  wheel:Event_wheel.t ->
  now:(unit -> int) ->
  notify:(int -> int -> unit) ->
  unit ->
  t
(** [now] supplies the current MTIME cycle (used to timestamp
    doorbell-triggered completions); [notify addr len] reports a
    DMA-written range for translation-block invalidation. *)

val device : t -> base:int -> S4e_mem.Bus.device

val irq_line : int
(** Wheel interrupt line this engine asserts (0). *)

val cost : ?delay:int -> int -> int
(** [cost ?delay len] — cycles charged for one descriptor. *)

val max_burst_len : int
(** Per-descriptor length ceiling (1 MiB): larger descriptor lengths
    are clamped, bounding the host-side work of one completion event
    (a bit-flipped length word in a fault campaign must not trigger a
    gigabyte copy). *)

val desc_size : int

val flag_irq : int

val flag_done : int

(** {1 Shared burst-copy helpers}

    Page-at-a-time blits over direct [Sparse_mem] buffers, also used
    by {!Vnet}.  Absent source pages read as zeros without being
    materialised; destinations allocate like any store. *)

val blit_ram : S4e_mem.Sparse_mem.t -> src:int -> dst:int -> len:int -> unit

val blit_in :
  S4e_mem.Sparse_mem.t -> src:bytes -> src_off:int -> dst:int -> len:int -> unit

val fnv_fold : S4e_mem.Sparse_mem.t -> src:int -> len:int -> int -> int
(** FNV-1a fold of a RAM range into a 32-bit accumulator. *)

(** {1 Introspection} *)

type stats = { dma_bursts : int; dma_bytes : int }

val stats : t -> stats

val busy : t -> bool

val head : t -> int

val irq_status : t -> int

val set_observer : t -> (bytes:int -> depth:int -> unit) option -> unit
(** Called at each completed burst with its size and the remaining
    queue depth (telemetry hook; [None] disables). *)

(** {1 Reset / snapshot} *)

val reset : t -> unit
(** Cancels any in-flight burst and returns every register, the
    [BURSTS]/[BYTES] counters included, to its power-on value. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Re-arms the in-flight completion event on the wheel; the caller
    must have cleared the wheel first. *)

val digest : include_time:bool -> t -> string
(** Register-file state for {!S4e_cpu.Machine.state_digest}; the
    in-flight completion deadline is included only when
    [include_time]. *)
