(** Sparse byte-addressable memory.

    Backing store is a hash table of fixed-size pages allocated on first
    touch, so a 4 GiB address space costs only what the program uses.
    All multi-byte accesses are little-endian, matching RISC-V. *)

type t

val page_size : int
(** Bytes per page (a power of two). *)

val page_bits : int
(** [log2 page_size]; an address's page number is [addr lsr page_bits]. *)

val page_mask : int
(** [page_size - 1]; an address's in-page offset is [addr land page_mask]. *)

val create : unit -> t

val find_page : t -> int -> Bytes.t option
(** [find_page m pn] is the backing buffer of page number [pn], or
    [None] if that page was never touched.  Never allocates: absent
    pages must stay absent so {!digest} (which distinguishes absent from
    all-zero pages) is unaffected by read traffic. *)

val get_page : t -> int -> Bytes.t
(** [get_page m pn] is the backing buffer of page number [pn],
    allocating a zero-filled page on first touch (same semantics as a
    write to that page). *)

val set_change_hook : t -> (unit -> unit) -> unit
(** [set_change_hook m f] installs [f] to be called after every
    operation that may change the page-number → buffer mapping
    ({!clear}, {!restore}, {!load_bytes}).  Page buffers obtained from
    {!find_page}/{!get_page} before the hook fires must be considered
    stale afterwards.  A single hook; installing replaces the previous
    one ({!Bus.create} owns it for TLB invalidation). *)

val read8 : t -> int -> int
(** [read8 m addr] reads one byte; untouched memory reads as zero. *)

val write8 : t -> int -> int -> unit
(** [write8 m addr v] stores [v land 0xff]. *)

val read16 : t -> int -> int
val write16 : t -> int -> int -> unit
val read32 : t -> int -> S4e_bits.Bits.word
val write32 : t -> int -> S4e_bits.Bits.word -> unit

val load_bytes : t -> int -> string -> unit
(** [load_bytes m addr s] copies [s] into memory starting at [addr]. *)

val dump_bytes : t -> int -> int -> string
(** [dump_bytes m addr len] reads [len] bytes starting at [addr]. *)

val clear : t -> unit
(** Drops every page. *)

val copy : t -> t
(** Deep copy; used to snapshot the golden state for fault campaigns.
    The copy starts with no change hook installed. *)

type snapshot
(** A detached page-copy image of the memory at one instant. *)

val snapshot : t -> snapshot
(** [snapshot m] captures the current contents.  O(touched pages). *)

val restore :
  t -> snapshot -> watch:(int -> bool) -> changed:(int -> int -> unit) -> unit
(** [restore m s ~watch ~changed] rewinds [m] to the captured contents.
    A snapshot can be restored any number of times; page buffers still
    live in [m] are reused in place, so repeated restores do not churn
    the heap.

    [changed addr len] is called for every range of bytes the restore
    changes, on the pages whose base address satisfies [watch].  Ranges
    are maximal runs of 8-byte-aligned words that differ; a watched
    page that the restore drops or adds is reported whole.  Unwatched
    pages are copied without being compared.  The machine watches the
    pages that hold translated code, so it can invalidate exactly the
    translations whose bytes a restore changes. *)

val digest : t -> string
(** Order-independent digest of every allocated page (page base + MD5
    of its bytes).  Two memories with identical allocated pages and
    contents digest equally; an all-zero page digests differently from
    an absent one, which is safe for the fault campaign's convergence
    check (a spurious mismatch only costs the early exit). *)

val fingerprint : t -> int
(** A fast, non-cryptographic hash of the allocated pages (numbers and
    contents): about 2 µs a page, four times cheaper than {!digest}.
    Equal memories fingerprint equally, so a mismatch proves the
    memories differ; a match proves nothing, and {!digest} must
    decide. *)

val touched_pages : t -> int
(** Number of pages allocated so far. *)

val iter_touched : t -> (int -> unit) -> unit
(** [iter_touched m f] calls [f] with the base address of every
    allocated page (order unspecified). *)
