(** Translation-block cache — the QEMU TCG analogue.

    Fetch-and-decode is the dominant cost of a switch interpreter; this
    cache decodes a straight-line run of instructions (a translation
    block) once and replays it on subsequent visits.  Blocks end at
    control-flow instructions, at {!max_block_len}, or just before an
    undecodable word.

    Two accelerations sit on top of the decoded arrays:

    - {b Lowering}: the machine compiles a block's instructions into an
      array of closures ({!uop}) with dispatch, timing, and hazard
      metadata resolved at translate time (see [Lower]); the compiled
      form is cached on the entry.
    - {b Chaining}: each entry carries up to two direct links to
      successor entries, patched on first successor lookup ({!next}),
      so straight-line and loop code bypasses the lookup entirely.

    Every lookup first probes a direct-mapped jump cache of
    {!jump_slots} slots (QEMU's [tb_jmp_cache]); only its misses hash
    into the table behind it.

    A translation lives exactly as long as the guest bytes it was
    decoded from (its [span]).  Stores into cached code invalidate
    at page granularity: only blocks overlapping the written word die,
    and every chain link pointing at a dead block is severed.
    {!notify_range} does the same for a written range — DMA bursts and
    the ranges a snapshot restore changes — so blocks, links, the jump
    cache and superblock traces over unchanged bytes carry over.
    [fence.i] and {!flush} invalidate everything.  Ablated in
    experiments E9 and E13. *)

type word = S4e_bits.Bits.word

(** One lowered micro-op: the architectural step as a closure returning
    its cycle charge, with the hazard source/destination bitmasks and
    the block-control flags it needs hoisted next to it.  Built by
    [Lower.lower_entry]. *)
type uop = {
  u_pc : word;
  u_size : int;
  u_src_mask : int;
  u_load_dest_mask : int;
  u_wfi : bool;
  u_fence_i : bool;
  u_exec : unit -> int;
}

type attachment = ..
(** Open slot for a higher layer (the superblock trace engine) to hang
    per-entry data off the cache without a dependency cycle.  The
    dispatcher reads it with one tag match per block. *)

type attachment += No_attachment

type entry = {
  block_pc : word;
  instrs : (word * int * S4e_isa.Instr.t) array;
      (** (pc, size-in-bytes, instruction) triples *)
  total_size : int;  (** bytes covered by [instrs] *)
  span : int;
      (** bytes from [block_pc] whose contents the translation read:
          [total_size], plus the undecodable word that ended the block
          if one did, and at least 4.  A write into them kills the
          entry. *)
  mutable lowered : uop array option;
      (** lazily compiled µop form (hook-free fast path) *)
  mutable dead : bool;  (** invalidated; never executed or linked again *)
  mutable link_a : entry;  (** {!no_entry} when empty *)
  mutable link_a_pc : word;  (** [-1] when empty *)
  mutable link_b : entry;
  mutable link_b_pc : word;
  mutable link_a_hits : int;  (** traversals of link a ({!next} chain hits) *)
  mutable link_b_hits : int;  (** traversals of link b *)
  mutable incoming : entry list;
  mutable exec_count : int;
      (** dispatches of this block; the superblock promotion driver's
          heat counter *)
  mutable attach : attachment;  (** reset to {!No_attachment} on kill *)
}

val no_entry : entry
(** The dead sentinel: the value of an empty link, and the [prev] of a
    dispatch that follows no block.  It is never returned by a lookup
    and never mutated. *)

type t

val max_block_len : int

val jump_slots : int
(** Size of the per-cache jump cache (a power of two). *)

val create :
  decode32:(word -> S4e_isa.Instr.t option) ->
  decode16:(int -> S4e_isa.Instr.t option) option ->
  fetch32:(word -> word) ->
  fetch16:(word -> int) ->
  unit ->
  t
(** [decode16 = None] disables the compressed instruction set. *)

val lookup : t -> word -> entry
(** [lookup t pc] returns the cached block at [pc], translating it on a
    miss.  An entry with an empty [instrs] array means the very first
    word at [pc] does not decode (the machine raises an illegal
    instruction trap). *)

val next : t -> entry -> word -> entry
(** [next t prev pc] is [lookup t pc] accelerated by block chaining:
    if [prev] (the block just executed) already links to [pc] the
    lookup is bypassed; otherwise the link is patched after the
    lookup.  Passing {!no_entry} — or a [prev] invalidated
    mid-execution — degrades to a plain lookup. *)

val notify_store : t -> word -> unit
(** Invalidate the blocks overlapping the (at most 4-byte) store at
    [addr], severing chain links into them.  Blocks elsewhere stay
    cached. *)

val notify_range : t -> word -> int -> unit
(** [notify_range t addr len] — {!notify_store} for an arbitrary-length
    written range (DMA bursts, the ranges a snapshot restore changes):
    invalidates exactly the blocks whose span overlaps
    [\[addr, addr+len)]. *)

val covers : t -> word -> int -> bool
(** [covers t addr len]: [\[addr, addr+len)] overlaps the address range
    cached blocks were decoded from (a superset of their spans, reset
    only by {!flush}).  A write outside it cannot touch a translation. *)

val kill_if : t -> (entry -> bool) -> unit
(** Invalidates every cached block the predicate selects, exactly as a
    store into it would (links severed, traces told). *)

val flush : t -> unit

val set_invalidate_hooks :
  t -> on_kill:(entry -> unit) -> on_flush:(unit -> unit) -> unit
(** Invalidation callbacks for attached trace state.  [on_kill] fires
    once per individually killed entry, before its links and
    [attach] field are cleared (so the attachment is still readable);
    [on_flush] fires once at the start of a full {!flush}. *)

val hot_edges : ?min_hits:int -> t -> (word * word * int) list
(** Live chain edges as [(src_pc, dst_pc, traversals)], hottest first
    (ties ordered by pc for determinism).  Edges colder than
    [min_hits] (default 1) are dropped. *)

type stats = {
  st_blocks : int;  (** blocks currently cached *)
  st_hits : int;
      (** lookups answered from the cache (jump cache or table) *)
  st_misses : int;  (** lookups that translated a new block *)
  st_chain_hits : int;
      (** successor lookups answered by a direct link — these bypass
          the lookup entirely and are {e not} included in
          [st_hits] *)
  st_invalidations : int;
      (** blocks individually killed by {!notify_store},
          {!notify_range} or {!kill_if} (flushes not counted) *)
}

val stats : t -> stats
