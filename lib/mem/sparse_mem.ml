let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  (* Fired whenever the page-number -> buffer mapping itself changes
     (clear/restore/bulk load), i.e. whenever a raw page pointer handed
     out earlier may no longer be the backing store.  The bus hangs its
     TLB flush here so every structural mutation invalidates cached
     page pointers without the mutator knowing a TLB exists. *)
  mutable on_change : unit -> unit;
}

let create () = { pages = Hashtbl.create 64; on_change = (fun () -> ()) }

let set_change_hook m f = m.on_change <- f

let find_page m key = Hashtbl.find_opt m.pages key

let get_page m key =
  match Hashtbl.find_opt m.pages key with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace m.pages key p;
      p

let page_for m addr = get_page m (addr lsr page_bits)

let read8 m addr =
  let addr = addr land 0xFFFF_FFFF in
  match Hashtbl.find_opt m.pages (addr lsr page_bits) with
  | None -> 0
  | Some p -> Char.code (Bytes.unsafe_get p (addr land page_mask))

let write8 m addr v =
  let addr = addr land 0xFFFF_FFFF in
  let p = page_for m addr in
  Bytes.unsafe_set p (addr land page_mask) (Char.chr (v land 0xFF))

(* Halfword/word accesses are frequent and nearly always fall within one
   page; the fast path reads directly from the page buffer. *)

let read16 m addr =
  let addr = addr land 0xFFFF_FFFF in
  let off = addr land page_mask in
  if off <= page_size - 2 then
    match Hashtbl.find_opt m.pages (addr lsr page_bits) with
    | None -> 0
    | Some p -> Char.code (Bytes.unsafe_get p off)
                lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
  else read8 m addr lor (read8 m (addr + 1) lsl 8)

let write16 m addr v =
  let addr = addr land 0xFFFF_FFFF in
  let off = addr land page_mask in
  if off <= page_size - 2 then begin
    let p = page_for m addr in
    Bytes.unsafe_set p off (Char.chr (v land 0xFF));
    Bytes.unsafe_set p (off + 1) (Char.chr ((v lsr 8) land 0xFF))
  end
  else begin
    write8 m addr v;
    write8 m (addr + 1) (v lsr 8)
  end

let read32 m addr =
  let addr = addr land 0xFFFF_FFFF in
  let off = addr land page_mask in
  if off <= page_size - 4 then
    match Hashtbl.find_opt m.pages (addr lsr page_bits) with
    | None -> 0
    | Some p ->
        Char.code (Bytes.unsafe_get p off)
        lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
        lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 16)
        lor (Char.code (Bytes.unsafe_get p (off + 3)) lsl 24)
  else read16 m addr lor (read16 m (addr + 2) lsl 16)

let write32 m addr v =
  let addr = addr land 0xFFFF_FFFF in
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let p = page_for m addr in
    Bytes.unsafe_set p off (Char.chr (v land 0xFF));
    Bytes.unsafe_set p (off + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set p (off + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set p (off + 3) (Char.chr ((v lsr 24) land 0xFF))
  end
  else begin
    write16 m addr v;
    write16 m (addr + 2) (v lsr 16)
  end

let load_bytes m addr s =
  String.iteri (fun i c -> write8 m (addr + i) (Char.code c)) s;
  (* byte writes keep existing buffers, but a bulk load is a natural
     world-changed boundary (new image, new pages) — re-fill lazily *)
  m.on_change ()

let dump_bytes m addr len =
  String.init len (fun i -> Char.chr (read8 m (addr + i)))

let clear m =
  Hashtbl.reset m.pages;
  m.on_change ()

let copy m =
  let pages = Hashtbl.create (Hashtbl.length m.pages) in
  Hashtbl.iter (fun k p -> Hashtbl.replace pages k (Bytes.copy p)) m.pages;
  (* the copy is detached: nobody holds page pointers into it yet *)
  { pages; on_change = (fun () -> ()) }

type snapshot = (int, Bytes.t) Hashtbl.t

let snapshot m =
  let s = Hashtbl.create (max 16 (Hashtbl.length m.pages)) in
  Hashtbl.iter (fun k p -> Hashtbl.replace s k (Bytes.copy p)) m.pages;
  s

(* Report where the live page [cur] differs from its saved copy, as
   maximal runs of differing 8-byte words.  Equal pages (the common
   case) cost one memcmp. *)
let diff_page base cur saved changed =
  if not (Bytes.equal cur saved) then begin
    let run = ref (-1) in
    let off = ref 0 in
    while !off < page_size do
      if (Bytes.get_int64_ne cur !off : int64) <> Bytes.get_int64_ne saved !off
      then begin
        if !run < 0 then run := !off
      end
      else if !run >= 0 then begin
        changed (base + !run) (!off - !run);
        run := -1
      end;
      off := !off + 8
    done;
    if !run >= 0 then changed (base + !run) (page_size - !run)
  end

let restore m s ~watch ~changed =
  (* Drop pages born after the snapshot, then blit the saved contents
     into the surviving page buffers (reuse avoids reallocation when the
     same snapshot is restored many times, as fault campaigns do).  A
     watched page that is dropped or added changes as a whole. *)
  let stale =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem s k then acc else k :: acc)
      m.pages []
  in
  List.iter
    (fun k ->
      Hashtbl.remove m.pages k;
      let base = k lsl page_bits in
      if watch base then changed base page_size)
    stale;
  Hashtbl.iter
    (fun k p ->
      let base = k lsl page_bits in
      match Hashtbl.find_opt m.pages k with
      | Some dst ->
          if watch base then diff_page base dst p changed;
          Bytes.blit p 0 dst 0 page_size
      | None ->
          Hashtbl.replace m.pages k (Bytes.copy p);
          if watch base then changed base page_size)
    s;
  m.on_change ()

let digest m =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) m.pages [] in
  let keys = List.sort compare keys in
  let b = Buffer.create (24 * (List.length keys + 1)) in
  List.iter
    (fun k ->
      Buffer.add_string b (string_of_int k);
      Buffer.add_char b ':';
      Buffer.add_string b (Digest.bytes (Hashtbl.find m.pages k)))
    keys;
  Digest.string (Buffer.contents b)

(* A page's 8-byte words, hashed as a polynomial seeded by its number
   (a word's high half is added in again: [Int64.to_int] drops bit
   63); the sum over pages does not depend on table order. *)
let page_fingerprint k p =
  let h = ref k in
  let off = ref 0 in
  while !off < page_size do
    let w = Bytes.get_int64_ne p !off in
    h :=
      (!h * 0x100000001b3) + Int64.to_int w
      + Int64.to_int (Int64.shift_right_logical w 32);
    off := !off + 8
  done;
  !h

let fingerprint m =
  Hashtbl.fold (fun k p acc -> acc + page_fingerprint k p) m.pages 0

let touched_pages m = Hashtbl.length m.pages

let iter_touched m f = Hashtbl.iter (fun k _ -> f (k lsl page_bits)) m.pages
