(** Flight recorder: a fixed-size ring of retired-instruction records.

    The last [capacity] architectural events of a run — retired
    instructions with their pc, opcode word, register writeback, and
    effective address / width / value for memory accesses, interleaved
    with trap, interrupt, and device-event markers.  The emulator feeds
    it from the dispatch loop behind the same
    one-pointer-test-when-unattached discipline as {!Profile}:
    recording only {e reads} architectural state, so an armed recorder
    never perturbs execution (state digests are identical armed vs.
    unarmed — enforced by differential tests).

    The module is ISA-agnostic: every field is a plain integer supplied
    by the caller (the machine encodes the opcode word, computes
    effective addresses, and numbers FPR destinations as [32 + f]).
    Ring slots are preallocated and mutated in place, so steady-state
    recording allocates nothing.

    Sequence numbers are monotonic over the whole recording, and
    {!mark} / {!rewind} make them snapshot/restore-aware: a campaign
    fork that restores a machine snapshot rewinds the recorder to the
    mark captured with it, so the sequence numbering of the resumed run
    continues the recording that led up to the snapshot instead of
    restarting or double-counting. *)

type kind =
  | Retire  (** an instruction retired *)
  | Trap  (** exception entered; [info] = mcause *)
  | Irq  (** interrupt taken; [info] = mcause (with the high bit) *)
  | Dev  (** device events fired at this boundary; [info] = IRQ mask *)

val kind_name : kind -> string

(** One ring slot.  Mutable and reused in place; {!records} returns
    copies.  Field conventions: [r_rd] is [-1] (none), [0..31] (GPR) or
    [32 + f] (FPR); [r_addr] is [-1] when the record has no memory
    access, otherwise the effective address with [r_width] bytes,
    [r_value] the datum (post-extension load value, or the stored
    bytes) and [r_store] its direction. *)
type record = {
  mutable r_seq : int;
  mutable r_kind : kind;
  mutable r_pc : int;
  mutable r_op : int;
      (** opcode word for [Retire]; the marker's [info] otherwise *)
  mutable r_rd : int;
  mutable r_rd_val : int;
  mutable r_addr : int;
  mutable r_width : int;
  mutable r_value : int;
  mutable r_store : bool;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] slots (default 256, clamped to at least 2),
    preallocated up front. *)

val capacity : t -> int

val seq : t -> int
(** Sequence number of the next record; equals the total number of
    records ever written (modulo {!rewind}). *)

val length : t -> int
(** Records currently retained (at most [capacity]). *)

val clear : t -> unit
(** Empties the ring and resets the sequence numbering to 0. *)

val retire :
  t ->
  pc:int -> op:int -> rd:int -> rd_val:int ->
  addr:int -> width:int -> value:int -> store:bool ->
  unit
(** Appends a [Retire] record.  Allocation-free. *)

val event : t -> kind -> pc:int -> info:int -> unit
(** Appends a marker record ([Trap] / [Irq] / [Dev]) with no register
    or memory fields. *)

(** {1 Snapshot / restore}

    A {!mark} captures the recorder's position; {!rewind} returns to
    it, discarding every record written after the mark.  Records from
    before the mark that the ring has since overwritten are gone — the
    rewound recording keeps the newest survivors — but the sequence
    numbering is restored exactly, so instruction indices stay
    comparable across campaign forks of the same machine. *)

type mark

val mark : t -> mark

val rewind : t -> mark -> unit
(** Only meaningful with a mark taken from the same recorder.

    A mark is cheap (two integers), never invalidated, and can be
    rewound to any number of times. *)

val records : t -> record list
(** Retained records, oldest first, as fresh copies (safe to hold
    across further recording). *)

val pp_record : Format.formatter -> record -> unit
(** One-line rendering: sequence number, kind, pc, and whichever of
    the writeback / memory fields are present.  The opcode word is
    printed raw — callers with a disassembler can render [r_op]
    themselves. *)
