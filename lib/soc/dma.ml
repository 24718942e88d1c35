(* Descriptor-ring DMA engine.

   Software builds a ring of 16-byte descriptors {src, dst, len, flags}
   in RAM, programs RING/COUNT, and rings the TAIL doorbell.  The engine
   consumes descriptors in order, one timestamped completion event per
   descriptor on the {!Event_wheel}: the copy itself happens at
   completion time, page-at-a-time over direct [Sparse_mem] buffers
   (bypassing the bus TLB — safe, because the blit mutates the very
   page buffers the TLB points at), and costs
   [setup + len/bytes_per_cycle + delay] cycles.  Translation blocks
   overlapping a written range are invalidated through the machine's
   notify callback, exactly like CPU stores.

   The DMA engine is a RAM bus master: descriptor and data addresses
   always refer to RAM (device windows are not reachable), and its
   traffic is not reported to the IO watcher — only its MMIO register
   file is.  Reads of untouched pages supply zeros without materialising
   the page, matching the bus's read semantics. *)

module Mem = S4e_mem.Sparse_mem

let irq_line = 0

(* register offsets *)
let reg_ring = 0x00
let reg_count = 0x04
let reg_tail = 0x08
let reg_head = 0x0C
let reg_irq_status = 0x10
let reg_irq_enable = 0x14
let reg_status = 0x18
let reg_delay = 0x1C
let reg_bursts = 0x20
let reg_bytes = 0x24

let desc_size = 16
let flag_irq = 1
let flag_done = 0x8000_0000

(* burst timing: fixed setup latency, then 8 bytes per cycle *)
let setup_cycles = 64
let bytes_per_cycle = 8

(* Hard per-descriptor ceiling, like a real engine's burst-size limit.
   This is load-bearing for fault campaigns: a single flipped bit in a
   descriptor's length word must not turn one completion event into a
   gigabyte host-side copy. *)
let max_burst_len = 1 lsl 20

let cost ?(delay = 0) len =
  setup_cycles + ((len + bytes_per_cycle - 1) / bytes_per_cycle) + delay

type t = {
  mem : Mem.t;
  wheel : Event_wheel.t;
  now : unit -> int;
  notify : int -> int -> unit;  (* [notify addr len]: TB invalidation *)
  mutable ring : int;
  mutable count : int;
  mutable tail : int;
  mutable head : int;
  mutable irq_status : int;
  mutable irq_enable : int;
  mutable delay : int;
  mutable busy : bool;
  mutable pending_at : int;  (* completion deadline when busy *)
  mutable ev : int;  (* wheel event id when busy *)
  mutable bursts : int;
  mutable bytes : int;
  mutable observer : (bytes:int -> depth:int -> unit) option;
}

let create ~mem ~wheel ~now ~notify () =
  { mem; wheel; now; notify;
    ring = 0; count = 0; tail = 0; head = 0;
    irq_status = 0; irq_enable = 0; delay = 0;
    busy = false; pending_at = max_int; ev = -1;
    bursts = 0; bytes = 0; observer = None }

let set_observer t o = t.observer <- o

(* ---------------- burst copy helpers (shared with Vnet) ---------------- *)

let mask32 a = a land 0xFFFF_FFFF

(* RAM -> RAM, page-at-a-time.  Absent source pages read as zeros; the
   destination allocates on first touch, as any store would.  Overlap
   within one page behaves like memmove; transfers overlapping across
   page boundaries are unspecified (as on real engines). *)
let blit_ram mem ~src ~dst ~len =
  let remaining = ref len and s = ref (mask32 src) and d = ref (mask32 dst) in
  while !remaining > 0 do
    let soff = !s land Mem.page_mask and doff = !d land Mem.page_mask in
    let n =
      min (min (Mem.page_size - soff) (Mem.page_size - doff)) !remaining
    in
    let dpage = Mem.get_page mem (!d lsr Mem.page_bits) in
    (match Mem.find_page mem (!s lsr Mem.page_bits) with
    | Some spage -> Bytes.blit spage soff dpage doff n
    | None -> Bytes.fill dpage doff n '\000');
    s := mask32 (!s + n);
    d := mask32 (!d + n);
    remaining := !remaining - n
  done

(* host buffer -> RAM (device-to-memory direction, used by Vnet rx) *)
let blit_in mem ~src ~src_off ~dst ~len =
  let remaining = ref len and o = ref src_off and d = ref (mask32 dst) in
  while !remaining > 0 do
    let doff = !d land Mem.page_mask in
    let n = min (Mem.page_size - doff) !remaining in
    let dpage = Mem.get_page mem (!d lsr Mem.page_bits) in
    Bytes.blit src !o dpage doff n;
    o := !o + n;
    d := mask32 (!d + n);
    remaining := !remaining - n
  done

(* Fold a RAM range byte-by-byte into an FNV-1a accumulator,
   page-at-a-time (memory-to-device direction, used by Vnet tx). *)
let fnv_fold mem ~src ~len acc0 =
  let acc = ref acc0 and s = ref (mask32 src) and remaining = ref len in
  while !remaining > 0 do
    let soff = !s land Mem.page_mask in
    let n = min (Mem.page_size - soff) !remaining in
    (match Mem.find_page mem (!s lsr Mem.page_bits) with
    | Some page ->
        for i = soff to soff + n - 1 do
          acc := mask32 ((!acc lxor Char.code (Bytes.get page i)) * 0x0100_0193)
        done
    | None ->
        for _ = 1 to n do
          acc := mask32 (!acc * 0x0100_0193)
        done);
    s := mask32 (!s + n);
    remaining := !remaining - n
  done;
  !acc

(* ---------------- engine ---------------- *)

let update_line t =
  if t.irq_status land t.irq_enable <> 0 then
    Event_wheel.set_irq t.wheel irq_line
  else Event_wheel.clear_irq t.wheel irq_line

let desc_addr t i = mask32 (t.ring + (i mod max 1 t.count) * desc_size)

let queue_depth t = t.tail - t.head

(* Arm the completion event for the head descriptor.  Only the length is
   read now (for the cost); the full descriptor is re-read at completion
   time, when the copy happens. *)
let rec arm t ~now =
  let da = desc_addr t t.head in
  let len = min (Mem.read32 t.mem (da + 8)) max_burst_len in
  t.busy <- true;
  t.pending_at <- now + cost ~delay:t.delay len;
  t.ev <- Event_wheel.schedule t.wheel ~at:t.pending_at (complete t)

and complete t fire_now =
  let da = desc_addr t t.head in
  let src = Mem.read32 t.mem da in
  let dst = Mem.read32 t.mem (da + 4) in
  let len = min (Mem.read32 t.mem (da + 8)) max_burst_len in
  let flags = Mem.read32 t.mem (da + 12) in
  if len > 0 then begin
    blit_ram t.mem ~src ~dst ~len;
    t.notify dst len
  end;
  Mem.write32 t.mem (da + 12) (flags lor flag_done);
  t.notify (da + 12) 4;
  t.head <- t.head + 1;
  t.bursts <- t.bursts + 1;
  t.bytes <- t.bytes + len;
  t.irq_status <- t.irq_status lor (flags land flag_irq);
  update_line t;
  (match t.observer with
  | Some f -> f ~bytes:len ~depth:(queue_depth t)
  | None -> ());
  if t.head <> t.tail then arm t ~now:fire_now
  else begin
    t.busy <- false;
    t.pending_at <- max_int;
    t.ev <- -1
  end

let read t offset _size =
  match offset with
  | o when o = reg_ring -> t.ring
  | o when o = reg_count -> t.count
  | o when o = reg_tail -> t.tail land 0xFFFF_FFFF
  | o when o = reg_head -> t.head land 0xFFFF_FFFF
  | o when o = reg_irq_status -> t.irq_status
  | o when o = reg_irq_enable -> t.irq_enable
  | o when o = reg_status -> if t.busy then 1 else 0
  | o when o = reg_delay -> t.delay
  | o when o = reg_bursts -> t.bursts land 0xFFFF_FFFF
  | o when o = reg_bytes -> t.bytes land 0xFFFF_FFFF
  | _ -> 0

let write t offset _size v =
  match offset with
  | o when o = reg_ring -> t.ring <- mask32 v
  | o when o = reg_count -> t.count <- v land 0xFFFF
  | o when o = reg_tail ->
      t.tail <- mask32 v;
      if (not t.busy) && t.count > 0 && t.head <> t.tail then
        arm t ~now:(t.now ())
  | o when o = reg_irq_status ->
      (* write-1-to-clear *)
      t.irq_status <- t.irq_status land lnot v;
      update_line t
  | o when o = reg_irq_enable ->
      t.irq_enable <- v land 1;
      update_line t
  | o when o = reg_delay -> t.delay <- v land 0xFF_FFFF
  | _ -> ()

let device t ~base =
  { S4e_mem.Bus.dev_name = "dma"; dev_base = base; dev_len = 0x100;
    dev_read = read t; dev_write = write t }

type stats = { dma_bursts : int; dma_bytes : int }

let stats t = { dma_bursts = t.bursts; dma_bytes = t.bytes }
let busy t = t.busy
let head t = t.head
let irq_status t = t.irq_status

let reset t =
  if t.ev >= 0 then Event_wheel.cancel t.wheel t.ev;
  t.ring <- 0;
  t.count <- 0;
  t.tail <- 0;
  t.head <- 0;
  t.irq_status <- 0;
  t.irq_enable <- 0;
  t.delay <- 0;
  t.busy <- false;
  t.pending_at <- max_int;
  t.ev <- -1;
  (* software reads these counters, so a re-run after reset must see 0 *)
  t.bursts <- 0;
  t.bytes <- 0;
  update_line t

(* Everything a resumed run depends on, including the in-flight
   transfer's absolute completion time.  [restore] re-arms the wheel
   (the caller clears it first — closures cannot be snapshotted). *)
type snapshot = {
  snap_ring : int;
  snap_count : int;
  snap_tail : int;
  snap_head : int;
  snap_irq_status : int;
  snap_irq_enable : int;
  snap_delay : int;
  snap_busy : bool;
  snap_pending_at : int;
  snap_bursts : int;
  snap_bytes : int;
}

let snapshot t =
  { snap_ring = t.ring; snap_count = t.count; snap_tail = t.tail;
    snap_head = t.head; snap_irq_status = t.irq_status;
    snap_irq_enable = t.irq_enable; snap_delay = t.delay;
    snap_busy = t.busy; snap_pending_at = t.pending_at;
    snap_bursts = t.bursts; snap_bytes = t.bytes }

let restore t s =
  t.ring <- s.snap_ring;
  t.count <- s.snap_count;
  t.tail <- s.snap_tail;
  t.head <- s.snap_head;
  t.irq_status <- s.snap_irq_status;
  t.irq_enable <- s.snap_irq_enable;
  t.delay <- s.snap_delay;
  t.busy <- s.snap_busy;
  t.pending_at <- s.snap_pending_at;
  t.bursts <- s.snap_bursts;
  t.bytes <- s.snap_bytes;
  t.ev <-
    (if s.snap_busy then
       Event_wheel.schedule t.wheel ~at:s.snap_pending_at (complete t)
     else -1);
  update_line t

(* Digest-visible state: everything software can observe through the
   register file plus, when time is included, the in-flight completion
   deadline (it determines when the next write lands). *)
let digest ~include_time t =
  Printf.sprintf "%d;%d;%d;%d;%d;%d;%d;%b;%d;%d;%s"
    t.ring t.count t.tail t.head t.irq_status t.irq_enable t.delay t.busy
    t.bursts t.bytes
    (if include_time then string_of_int t.pending_at else "_")
