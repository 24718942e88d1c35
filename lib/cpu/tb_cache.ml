type word = int

(* A lowered micro-op: one decoded instruction compiled (by [Lower])
   into a closure with every per-instruction decision hoisted to
   translate time.  [u_exec] performs the architectural step and
   returns the cycle charge (branch closures pick the taken /
   not-taken cost themselves); hazard stalls are added by the machine
   from the precomputed masks. *)
type uop = {
  u_pc : word;
  u_size : int;
  u_src_mask : int;  (** {!S4e_isa.Instr.source_mask} *)
  u_load_dest_mask : int;  (** {!S4e_isa.Instr.load_dest_mask} *)
  u_wfi : bool;
  u_fence_i : bool;
  u_exec : unit -> int;
}

(* Open slot for a higher layer (the superblock trace engine) to hang
   per-entry data off the cache without this module depending on it.
   An extensible variant keeps the hot-path test a single tag match. *)
type attachment = ..
type attachment += No_attachment

type entry = {
  block_pc : word;
  instrs : (word * int * S4e_isa.Instr.t) array;
  total_size : int;
  span : int;
      (* bytes from [block_pc] whose contents the translation read: the
         instructions, plus the undecodable word that ended the block if
         one did; at least 4, so a block whose first word failed to
         decode still dies when that word is rewritten *)
  mutable lowered : uop array option;
  mutable dead : bool;
  (* QEMU-style direct block chaining: up to two successor links,
     patched on first successor lookup.  [link_*_pc] is the successor's
     entry pc (-1 when empty); [incoming] records entries whose links
     may point here so invalidation can sever them.  [link_*_hits]
     count traversals of each link so trace promotion can follow real
     edge heat rather than the global chain-hit total.  An empty link
     holds [no_entry]. *)
  mutable link_a : entry;
  mutable link_a_pc : word;
  mutable link_b : entry;
  mutable link_b_pc : word;
  mutable link_a_hits : int;
  mutable link_b_hits : int;
  mutable incoming : entry list;
  mutable exec_count : int;  (* dispatches; drives trace promotion *)
  mutable attach : attachment;
}

(* The dead sentinel: an empty chain link, and the "no previous block"
   argument of [next].  It is born dead, so nothing ever links to it,
   executes it or mutates it, and its pc (-1) matches no fetch. *)
let rec no_entry =
  { block_pc = -1; instrs = [||]; total_size = 0; span = 0; lowered = None;
    dead = true; link_a = no_entry; link_a_pc = -1; link_b = no_entry;
    link_b_pc = -1; link_a_hits = 0; link_b_hits = 0; incoming = [];
    exec_count = 0; attach = No_attachment }

type t = {
  table : (word, entry) Hashtbl.t;
  jump : entry array;
      (* direct-mapped jump cache in front of [table] (QEMU's
         tb_jmp_cache): slot [jump_slot pc] holds the last entry looked
         up there, or [no_entry]; a slot answers only for a live entry
         of the same pc *)
  pages : (int, entry list ref) Hashtbl.t;
      (* page index (addr lsr page_shift) -> blocks overlapping it *)
  decode32 : word -> S4e_isa.Instr.t option;
  decode16 : (int -> S4e_isa.Instr.t option) option;
  fetch32 : word -> word;
  fetch16 : word -> int;
  mutable code_lo : word;  (* inclusive range covered by cached blocks *)
  mutable code_hi : word;  (* exclusive *)
  mutable hits : int;
  mutable misses : int;
  mutable chain_hits : int;
  mutable invalidations : int;
  (* invalidation callbacks for attached trace state: [on_kill] fires
     once per individually killed entry (before its links are cut, so
     the attachment is still readable), [on_flush] once per full
     flush. *)
  mutable on_kill : entry -> unit;
  mutable on_flush : unit -> unit;
}

let max_block_len = 64

let jump_slots = 1024
let jump_mask = jump_slots - 1

(* pcs are at least 2-byte aligned *)
let jump_slot pc = (pc lsr 1) land jump_mask

(* Invalidation granularity.  256-byte pages keep the per-store lookup
   cheap while bounding collateral invalidation to a few blocks (a
   block spans at most [4 * max_block_len] bytes = 2 pages, plus one
   for misalignment). *)
let page_shift = 8

(* The table starts small: the jump cache answers most lookups, and a
   machine that runs briefly should not pay for both arrays. *)
let create ~decode32 ~decode16 ~fetch32 ~fetch16 () =
  { table = Hashtbl.create 256; jump = Array.make jump_slots no_entry;
    pages = Hashtbl.create 256; decode32;
    decode16; fetch32; fetch16; code_lo = max_int; code_hi = 0; hits = 0;
    misses = 0; chain_hits = 0; invalidations = 0;
    on_kill = (fun _ -> ()); on_flush = (fun () -> ()) }

let set_invalidate_hooks t ~on_kill ~on_flush =
  t.on_kill <- on_kill;
  t.on_flush <- on_flush

(* Decode one instruction at [pc]: compressed halfwords expand via
   decode16; otherwise a full word via decode32. *)
let decode_at t pc =
  let half = t.fetch16 pc in
  if half land 0x3 <> 0x3 then
    match t.decode16 with
    | Some d16 -> (
        match d16 half with Some i -> Some (2, i) | None -> None)
    | None -> None
  else
    match t.decode32 (t.fetch32 pc) with
    | Some i -> Some (4, i)
    | None -> None

(* A block ends at control flow, at [max_block_len], or just before a
   word that does not decode; [undecodable] tells the last case apart,
   since only there did translation read bytes past the block. *)
let translate t pc =
  let rec go acc cur count =
    if count >= max_block_len then (List.rev acc, false)
    else
      match decode_at t cur with
      | None -> (List.rev acc, true)
      | Some (size, instr) ->
          let acc = (cur, size, instr) :: acc in
          (* fence.i ends a block so freshly written code is re-decoded *)
          if S4e_isa.Instr.is_control_flow instr
             || instr = S4e_isa.Instr.Wfi
             || instr = S4e_isa.Instr.Fence_i
          then (List.rev acc, false)
          else go acc (cur + size) (count + 1)
  in
  let instrs, undecodable = go [] pc 0 in
  let instrs = Array.of_list instrs in
  let total_size =
    Array.fold_left (fun acc (_, size, _) -> acc + size) 0 instrs
  in
  let span = max 4 (if undecodable then total_size + 4 else total_size) in
  { block_pc = pc; instrs; total_size; span; lowered = None; dead = false;
    link_a = no_entry; link_a_pc = -1; link_b = no_entry; link_b_pc = -1;
    link_a_hits = 0; link_b_hits = 0; incoming = []; exec_count = 0;
    attach = No_attachment }

let register_pages t e =
  let lo = e.block_pc lsr page_shift
  and hi = (e.block_pc + e.span - 1) lsr page_shift in
  for p = lo to hi do
    match Hashtbl.find_opt t.pages p with
    | Some l -> l := e :: !l
    | None -> Hashtbl.replace t.pages p (ref [ e ])
  done

let unregister_pages t e =
  let lo = e.block_pc lsr page_shift
  and hi = (e.block_pc + e.span - 1) lsr page_shift in
  for p = lo to hi do
    match Hashtbl.find_opt t.pages p with
    | Some l -> l := List.filter (fun x -> not (x == e)) !l
    | None -> ()
  done

let sever_incoming e =
  List.iter
    (fun src ->
      if src.link_a == e then begin
        src.link_a <- no_entry;
        src.link_a_pc <- -1
      end;
      if src.link_b == e then begin
        src.link_b <- no_entry;
        src.link_b_pc <- -1
      end)
    e.incoming;
  e.incoming <- []

(* Kill one block: drop it from the table and page index, cut its
   outgoing links, and sever every chain link pointing at it so the
   dispatch loop can never reach the stale code by chaining. *)
let kill t e =
  if not e.dead then begin
    e.dead <- true;
    t.invalidations <- t.invalidations + 1;
    t.on_kill e;
    e.attach <- No_attachment;
    (match Hashtbl.find_opt t.table e.block_pc with
    | Some cur when cur == e -> Hashtbl.remove t.table e.block_pc
    | Some _ | None -> ());
    unregister_pages t e;
    e.link_a <- no_entry;
    e.link_a_pc <- -1;
    e.link_b <- no_entry;
    e.link_b_pc <- -1;
    sever_incoming e
  end

(* The jump cache answers every hit it can without hashing; the table
   behind it counts hits and misses exactly as a table-only lookup
   would, since a slot only ever holds an entry the table also holds
   (every entry leaves the table by dying). *)
let lookup_table t pc slot =
  let e =
    match Hashtbl.find_opt t.table pc with
    | Some e ->
        t.hits <- t.hits + 1;
        e
    | None ->
        t.misses <- t.misses + 1;
        let e = translate t pc in
        Hashtbl.replace t.table pc e;
        register_pages t e;
        if pc < t.code_lo then t.code_lo <- pc;
        if pc + e.span > t.code_hi then t.code_hi <- pc + e.span;
        e
  in
  Array.unsafe_set t.jump slot e;
  e

let lookup t pc =
  let slot = jump_slot pc in
  let e = Array.unsafe_get t.jump slot in
  if e.block_pc = pc && not e.dead then begin
    t.hits <- t.hits + 1;
    e
  end
  else lookup_table t pc slot

(* Chained successor lookup: follow [prev]'s direct links before
   touching the cache; patch the link on a miss.  Links are only
   followed from (and patched on) live entries, so an invalidation
   during [prev]'s execution — or the [no_entry] sentinel — safely
   degrades to a plain lookup.  An empty link's pc (-1) never matches. *)
let next t prev pc =
  if prev.dead then lookup t pc
  else if prev.link_a_pc = pc then begin
    t.chain_hits <- t.chain_hits + 1;
    prev.link_a_hits <- prev.link_a_hits + 1;
    prev.link_a
  end
  else if prev.link_b_pc = pc then begin
    t.chain_hits <- t.chain_hits + 1;
    prev.link_b_hits <- prev.link_b_hits + 1;
    prev.link_b
  end
  else begin
    let e = lookup t pc in
    (if not e.dead then
       if prev.link_a_pc < 0 then begin
         prev.link_a <- e;
         prev.link_a_pc <- pc;
         prev.link_a_hits <- 0;
         e.incoming <- prev :: e.incoming
       end
       else begin
         (* keep slot a (typically the loop back-edge seen first),
            recycle slot b *)
         prev.link_b <- e;
         prev.link_b_pc <- pc;
         prev.link_b_hits <- 0;
         e.incoming <- prev :: e.incoming
       end);
    e
  end

let flush t =
  t.on_flush ();
  Hashtbl.iter
    (fun _ e ->
      e.dead <- true;
      e.attach <- No_attachment)
    t.table;
  Hashtbl.reset t.table;
  Array.fill t.jump 0 (Array.length t.jump) no_entry;
  Hashtbl.reset t.pages;
  t.code_lo <- max_int;
  t.code_hi <- 0

(* Whether [\[addr, addr+len)] meets the range cached blocks were
   decoded from: outside it, a write cannot touch any translation. *)
let covers t addr len = addr + len > t.code_lo && addr < t.code_hi

(* Page-granular store invalidation: only blocks overlapping the
   written word die (a store writes at most 4 bytes).  The common case
   — a store outside the cached code range — is two compares. *)
let notify_store t addr =
  if covers t addr 4 then begin
    let lo = addr lsr page_shift and hi = (addr + 3) lsr page_shift in
    for p = lo to hi do
      match Hashtbl.find_opt t.pages p with
      | Some l ->
          List.iter
            (fun e ->
              if e.block_pc < addr + 4 && addr < e.block_pc + e.span then
                kill t e)
            !l
      | None -> ()
    done
  end

(* Same as [notify_store] for an arbitrary-length written range (DMA
   bursts, the ranges a restore changes): one pass over the overlapped
   pages, not one call per word. *)
let notify_range t addr len =
  if len > 0 && covers t addr len then begin
    let lo = addr lsr page_shift and hi = (addr + len - 1) lsr page_shift in
    for p = lo to hi do
      match Hashtbl.find_opt t.pages p with
      | Some l ->
          List.iter
            (fun e ->
              if e.block_pc < addr + len && addr < e.block_pc + e.span then
                kill t e)
            !l
      | None -> ()
    done
  end

(* Kill every live block [p] selects (collected first: killing edits
   the table). *)
let kill_if t p =
  List.iter (kill t)
    (Hashtbl.fold (fun _ e acc -> if p e then e :: acc else acc) t.table [])

type stats = {
  st_blocks : int;
  st_hits : int;
  st_misses : int;
  st_chain_hits : int;
  st_invalidations : int;
}

let stats t =
  { st_blocks = Hashtbl.length t.table;
    st_hits = t.hits;
    st_misses = t.misses;
    st_chain_hits = t.chain_hits;
    st_invalidations = t.invalidations }

(* Live chain edges ranked by traversal count — promotion input and
   the [--cache-stats] edge listing. *)
let hot_edges ?(min_hits = 1) t =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ e ->
      if e.link_a_pc >= 0 && e.link_a_hits >= min_hits then
        acc := (e.block_pc, e.link_a_pc, e.link_a_hits) :: !acc;
      if e.link_b_pc >= 0 && e.link_b_hits >= min_hits then
        acc := (e.block_pc, e.link_b_pc, e.link_b_hits) :: !acc)
    t.table;
  List.sort
    (fun (sa, da, ha) (sb, db, hb) ->
      match compare hb ha with
      | 0 -> compare (sa, da) (sb, db)
      | c -> c)
    !acc
