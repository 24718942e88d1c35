(* Sparse memory and bus tests. *)

module Mem = S4e_mem.Sparse_mem
module Bus = S4e_mem.Bus

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 gen f)

let addr_gen = QCheck.map (fun i -> i land 0xFFFF_FFFF) QCheck.int

let test_rw_basic () =
  let m = Mem.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Mem.read32 m 0x8000_0000);
  Mem.write32 m 0x8000_0000 0xDEADBEEF;
  Alcotest.(check int) "read32" 0xDEADBEEF (Mem.read32 m 0x8000_0000);
  Alcotest.(check int) "read16 low" 0xBEEF (Mem.read16 m 0x8000_0000);
  Alcotest.(check int) "read16 high" 0xDEAD (Mem.read16 m 0x8000_0002);
  Alcotest.(check int) "read8" 0xEF (Mem.read8 m 0x8000_0000);
  Alcotest.(check int) "read8 top" 0xDE (Mem.read8 m 0x8000_0003)

let test_page_crossing () =
  let m = Mem.create () in
  let edge = 0x8000_0000 + Mem.page_size - 2 in
  Mem.write32 m edge 0x11223344;
  Alcotest.(check int) "cross-page read32" 0x11223344 (Mem.read32 m edge);
  Alcotest.(check int) "upper half next page" 0x1122 (Mem.read16 m (edge + 2));
  Mem.write16 m (0x8000_0000 + Mem.page_size - 1) 0xAABB;
  Alcotest.(check int) "cross-page read16" 0xAABB
    (Mem.read16 m (0x8000_0000 + Mem.page_size - 1))

let test_bulk () =
  let m = Mem.create () in
  Mem.load_bytes m 0x1000 "hello world";
  Alcotest.(check string) "dump" "hello world" (Mem.dump_bytes m 0x1000 11);
  Alcotest.(check int) "byte of string" (Char.code 'w') (Mem.read8 m 0x1006)

let test_copy_isolation () =
  let m = Mem.create () in
  Mem.write32 m 0x100 42;
  let c = Mem.copy m in
  Mem.write32 m 0x100 7;
  Alcotest.(check int) "copy unaffected" 42 (Mem.read32 c 0x100);
  Alcotest.(check int) "original updated" 7 (Mem.read32 m 0x100)

let test_clear () =
  let m = Mem.create () in
  Mem.write32 m 0x100 1;
  Alcotest.(check bool) "touched" true (Mem.touched_pages m > 0);
  Mem.clear m;
  Alcotest.(check int) "cleared" 0 (Mem.touched_pages m);
  Alcotest.(check int) "reads zero" 0 (Mem.read32 m 0x100)

(* ---------------- bus ---------------- *)

let dummy_device name base =
  let stored = ref 0 in
  ( { Bus.dev_name = name; dev_base = base; dev_len = 0x10;
      dev_read = (fun _ _ -> !stored);
      dev_write = (fun _ _ v -> stored := v) },
    stored )

let test_bus_routing () =
  let bus = Bus.create () in
  let dev, stored = dummy_device "dev" 0x4000 in
  Bus.attach bus dev;
  Bus.write32 bus 0x4000 99;
  Alcotest.(check int) "device write" 99 !stored;
  Alcotest.(check int) "device read" 99 (Bus.read32 bus 0x4004);
  Bus.write32 bus 0x8000 123;
  Alcotest.(check int) "ram fallthrough" 123 (Bus.read32 bus 0x8000);
  Alcotest.(check int) "ram direct" 123 (Mem.read32 (Bus.ram bus) 0x8000)

let test_bus_overlap_rejected () =
  let bus = Bus.create () in
  let d1, _ = dummy_device "one" 0x4000 in
  let d2, _ = dummy_device "two" 0x4008 in
  Bus.attach bus d1;
  Alcotest.check_raises "overlap"
    (Invalid_argument "Bus.attach: two overlaps one") (fun () ->
      Bus.attach bus d2)

let test_bus_watcher () =
  let bus = Bus.create () in
  let dev, _ = dummy_device "dev" 0x4000 in
  Bus.attach bus dev;
  let seen = ref [] in
  Bus.set_io_watcher bus (Some (fun a -> seen := a :: !seen));
  Bus.write8 bus 0x4002 0xAB;
  let _ = Bus.read16 bus 0x4000 in
  (* RAM traffic must not reach the IO watcher *)
  Bus.write32 bus 0x9000 1;
  Alcotest.(check int) "two device events" 2 (List.length !seen);
  (match !seen with
  | [ rd; wr ] ->
      Alcotest.(check bool) "write flag" true wr.Bus.io_is_write;
      Alcotest.(check bool) "read flag" false rd.Bus.io_is_write;
      Alcotest.(check string) "device name" "dev" wr.Bus.io_device;
      Alcotest.(check int) "address" 0x4002 wr.Bus.io_addr
  | _ -> Alcotest.fail "expected exactly two accesses");
  Bus.set_io_watcher bus None;
  Bus.write8 bus 0x4002 1;
  Alcotest.(check int) "watcher removed" 2 (List.length !seen)

let test_fetch_bypasses_devices () =
  let bus = Bus.create () in
  let dev, _ = dummy_device "dev" 0x4000 in
  Bus.attach bus dev;
  Bus.write32 bus 0x4000 77;
  (* fetch reads RAM underneath the device, which is still zero *)
  Alcotest.(check int) "fetch32 bypass" 0 (Bus.fetch32 bus 0x4000)

let test_invalid_size () =
  let bus = Bus.create () in
  Alcotest.check_raises "read size"
    (Invalid_argument "Bus.read: size must be 1, 2 or 4") (fun () ->
      ignore (Bus.read bus 0 3));
  Alcotest.check_raises "write size"
    (Invalid_argument "Bus.write: size must be 1, 2 or 4") (fun () ->
      Bus.write bus 0 3 0)

let test_find_device_sorted () =
  (* Attach in unsorted base order; the binary search must route every
     boundary of every device correctly. *)
  let bus = Bus.create () in
  let bases = [ 0x9000; 0x2000; 0x6000; 0x4000; 0x8000 ] in
  let devs = List.map (fun b -> (b, dummy_device (Printf.sprintf "d%x" b) b)) bases in
  List.iter (fun (_, (d, _)) -> Bus.attach bus d) devs;
  List.iter
    (fun (base, (_, stored)) ->
      stored := base lor 1;
      Alcotest.(check int) "first byte routes" (base lor 1) (Bus.read32 bus base);
      Alcotest.(check int) "last byte routes" (base lor 1)
        (Bus.read8 bus (base + 0xF));
      (* one past the end is RAM, reads as zero *)
      Alcotest.(check int) "past end is ram" 0 (Bus.read8 bus (base + 0x10));
      Alcotest.(check int) "before start is ram" 0 (Bus.read8 bus (base - 1)))
    devs

(* ---------------- software TLB ---------------- *)

let test_tlb_hit_miss_counting () =
  let bus = Bus.create () in
  Bus.write32 bus 0x8000_0000 7;
  let s1 = Bus.tlb_stats bus in
  Alcotest.(check int) "first write misses" 0 s1.Bus.tlb_hits;
  Bus.write32 bus 0x8000_0004 8;
  ignore (Bus.read32 bus 0x8000_0000);
  let s2 = Bus.tlb_stats bus in
  Alcotest.(check bool) "warm accesses hit" true (s2.Bus.tlb_hits >= 2);
  Bus.tlb_flush bus;
  let f = (Bus.tlb_stats bus).Bus.tlb_flushes in
  ignore (Bus.read32 bus 0x8000_0000);
  let s3 = Bus.tlb_stats bus in
  Alcotest.(check int) "flush counted" f s3.Bus.tlb_flushes;
  Alcotest.(check bool) "post-flush access misses" true
    (s3.Bus.tlb_misses > s2.Bus.tlb_misses)

let test_tlb_disabled_never_hits () =
  let bus = Bus.create () in
  Bus.set_tlb_enabled bus false;
  Alcotest.(check bool) "reports disabled" false (Bus.tlb_enabled bus);
  Bus.write32 bus 0x8000_0000 7;
  ignore (Bus.read32 bus 0x8000_0000);
  ignore (Bus.read32 bus 0x8000_0000);
  Alcotest.(check int) "no hits" 0 (Bus.tlb_stats bus).Bus.tlb_hits

let test_tlb_read_never_allocates () =
  (* Read traffic must not materialise pages: [Sparse_mem.digest]
     distinguishes absent from all-zero pages, and campaign convergence
     checks compare digests of machines with different read histories. *)
  let bus = Bus.create () in
  let d0 = Mem.digest (Bus.ram bus) in
  for i = 0 to 99 do
    ignore (Bus.read32 bus (0x8000_0000 + (i * 4)));
    ignore (Bus.read32 bus (0x8000_0000 + (i * 4)))
  done;
  Alcotest.(check int) "no pages allocated" 0 (Mem.touched_pages (Bus.ram bus));
  Alcotest.(check string) "digest unchanged" d0 (Mem.digest (Bus.ram bus))

let test_tlb_attach_invalidates () =
  (* Warm the TLB on a page, then attach a device covering it: cached
     page pointers must not let accesses bypass the new device. *)
  let bus = Bus.create () in
  Bus.write32 bus 0x4000 123;
  Alcotest.(check int) "warm read" 123 (Bus.read32 bus 0x4000);
  let dev, stored = dummy_device "late" 0x4000 in
  Bus.attach bus dev;
  stored := 777;
  Alcotest.(check int) "read routes to late device" 777 (Bus.read32 bus 0x4000);
  Bus.write32 bus 0x4000 555;
  Alcotest.(check int) "write routes to late device" 555 !stored;
  Alcotest.(check int) "ram under device untouched" 123
    (Mem.read32 (Bus.ram bus) 0x4000)

let test_tlb_watcher_blocks_caching () =
  (* While an IO watcher is installed nothing may be cached; installing
     one must also drop existing entries. *)
  let bus = Bus.create () in
  Bus.write32 bus 0x8000_0000 1;
  ignore (Bus.read32 bus 0x8000_0000);
  Bus.set_io_watcher bus (Some (fun _ -> ()));
  let s1 = Bus.tlb_stats bus in
  ignore (Bus.read32 bus 0x8000_0000);
  ignore (Bus.read32 bus 0x8000_0000);
  let s2 = Bus.tlb_stats bus in
  Alcotest.(check int) "no hits while watched" s1.Bus.tlb_hits s2.Bus.tlb_hits;
  Bus.set_io_watcher bus None;
  ignore (Bus.read32 bus 0x8000_0000);
  ignore (Bus.read32 bus 0x8000_0000);
  let s3 = Bus.tlb_stats bus in
  Alcotest.(check bool) "hits resume after detach" true
    (s3.Bus.tlb_hits > s2.Bus.tlb_hits)

let test_tlb_restore_invalidates () =
  (* Snapshot restore swaps page contents (and possibly buffers) behind
     the bus; the change hook must flush cached pointers. *)
  let bus = Bus.create () in
  Bus.write32 bus 0x8000_0000 1;
  let snap = Mem.snapshot (Bus.ram bus) in
  Bus.write32 bus 0x8000_0000 2;
  Bus.write32 bus 0x9000_0000 3;
  ignore (Bus.read32 bus 0x9000_0000);
  Mem.restore (Bus.ram bus) snap ~watch:(fun _ -> false)
    ~changed:(fun _ _ -> ());
  Alcotest.(check int) "restored value visible" 1 (Bus.read32 bus 0x8000_0000);
  Alcotest.(check int) "post-snapshot page gone" 0 (Bus.read32 bus 0x9000_0000);
  Alcotest.(check int) "page count rewound" 1 (Mem.touched_pages (Bus.ram bus))

(* [restore ~changed] reports what it changes, per watched page:
   maximal runs of differing 8-byte words, and whole pages for the ones
   it drops or adds.  Unwatched pages are restored but not reported. *)
let test_restore_reports_changes () =
  let m = Mem.create () in
  let a = 0x8000_0000 and b = 0x8000_1000 and c = 0x8000_2000 in
  Mem.write32 m a 1;
  Mem.write32 m b 2;
  let snap = Mem.snapshot m in
  let restore ~watch =
    let got = ref [] in
    Mem.restore m snap ~watch ~changed:(fun addr len ->
        got := (addr, len) :: !got);
    List.sort compare !got
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "nothing changed" [] (restore ~watch:(fun _ -> true));
  Mem.write8 m (a + 10) 0xff;
  Mem.write32 m (a + 300) 7;
  Mem.write32 m (a + 308) 7;
  Mem.write8 m (a + 4095) 1;
  Mem.write8 m (b + 0) 9;
  Mem.write8 m c 1;
  Alcotest.check pairs "8-byte runs, dropped page whole"
    [ (a + 8, 8); (a + 296, 16); (a + 4088, 8); (b, 8); (c, 4096) ]
    (restore ~watch:(fun _ -> true));
  Alcotest.(check int) "contents restored" 0 (Mem.read8 m (a + 10));
  Mem.write8 m (a + 10) 0xff;
  Mem.write8 m (b + 0) 9;
  Alcotest.check pairs "only watched pages" [ (a + 8, 8) ]
    (restore ~watch:(fun base -> base = a));
  Alcotest.(check int) "unwatched page restored" 2 (Mem.read32 m b);
  Mem.clear m;
  Alcotest.check pairs "added pages whole" [ (a, 4096); (b, 4096) ]
    (restore ~watch:(fun _ -> true));
  Alcotest.(check int) "added page contents" 1 (Mem.read32 m a)

(* [fingerprint] is a function of the allocated pages alone: equal
   memories agree whatever their history, and a one-bit change or an
   extra all-zero page changes it. *)
let test_fingerprint () =
  let a = Mem.create () and b = Mem.create () in
  Mem.write32 a 0x8000_0000 5;
  Mem.write32 a 0x8000_2000 7;
  Mem.write32 b 0x8000_2000 7;
  Mem.write32 b 0x8000_0000 9;
  Mem.write32 b 0x8000_0000 5;
  let fp = Mem.fingerprint in
  Alcotest.(check int) "equal memories" (fp a) (fp b);
  Alcotest.(check bool) "equal digests" true (Mem.digest a = Mem.digest b);
  Mem.write8 b 0x8000_2fff 0x80;
  Alcotest.(check bool) "one bit differs" true (fp a <> fp b);
  Mem.write8 b 0x8000_2fff 0;
  Alcotest.(check int) "bit restored" (fp a) (fp b);
  Mem.write8 b 0x8000_5000 0;
  Alcotest.(check bool) "an all-zero page counts" true (fp a <> fp b)

(* Differential: a TLB-on bus and a TLB-off bus fed the same operation
   stream must return the same values and end with digest-identical RAM.
   Addresses mix page boundaries, the device window, its surrounding
   page, and the 32-bit wrap. *)
let tlb_ops_gen =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (2, oneofl
             [ 0x0; 0xFFE; 0xFFF; 0x3FFC; 0x4000; 0x4008; 0x400F; 0x4010;
               0x4FFF; 0x8000_0FFE; 0x8000_0FFF; 0xFFFF_FFFE; 0xFFFF_FFFF ]);
        (4, map (fun i -> 0x8000_0000 lor (i land 0x3FFF)) int);
        (1, map (fun i -> i land 0xFFFF_FFFF) int) ]
  in
  let op = triple (int_bound 5) addr (map (fun i -> i land 0xFFFF_FFFF) int) in
  list_size (int_range 1 120) op

let tlb_ops_print ops =
  String.concat ";"
    (List.map (fun (k, a, v) -> Printf.sprintf "(%d,0x%x,0x%x)" k a v) ops)

let size_of_kind k = match k mod 3 with 0 -> 1 | 1 -> 2 | _ -> 4

let run_ops bus ops =
  List.map
    (fun (k, a, v) ->
      let size = size_of_kind k in
      if k < 3 then Bus.read bus a size
      else begin
        Bus.write bus a size v;
        0
      end)
    ops

let tlb_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bus: TLB on/off differential" ~count:300
       (QCheck.make ~print:tlb_ops_print tlb_ops_gen)
       (fun ops ->
         let mk on =
           let bus = Bus.create () in
           Bus.set_tlb_enabled bus on;
           let dev, stored = dummy_device "dev" 0x4000 in
           Bus.attach bus dev;
           (bus, stored)
         in
         let bus_on, st_on = mk true in
         let bus_off, st_off = mk false in
         let r_on = run_ops bus_on ops in
         let r_off = run_ops bus_off ops in
         r_on = r_off && !st_on = !st_off
         && Mem.digest (Bus.ram bus_on) = Mem.digest (Bus.ram bus_off)))

(* ---------------- sparse memory vs. byte-at-a-time model ---------------- *)

(* Reference model: a plain [addr -> byte] table.  Every multi-byte
   access of the real memory must equal composing byte accesses at
   [(addr + i) land 0xFFFF_FFFF] — including across page boundaries and
   the 32-bit wrap at 0xFFFF_FFFE. *)
let ref_read8 tbl a =
  match Hashtbl.find_opt tbl (a land 0xFFFF_FFFF) with
  | Some b -> b
  | None -> 0

let ref_write8 tbl a v = Hashtbl.replace tbl (a land 0xFFFF_FFFF) (v land 0xFF)

let ref_read tbl a size =
  let r = ref 0 in
  for i = size - 1 downto 0 do
    r := (!r lsl 8) lor ref_read8 tbl (a + i)
  done;
  !r

let ref_write tbl a size v =
  for i = 0 to size - 1 do
    ref_write8 tbl (a + i) ((v lsr (8 * i)) land 0xFF)
  done

let sparse_model_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sparse: matches byte-at-a-time model" ~count:300
       (QCheck.make ~print:tlb_ops_print tlb_ops_gen)
       (fun ops ->
         let m = Mem.create () in
         let tbl = Hashtbl.create 64 in
         List.for_all
           (fun (k, a, v) ->
             let size = size_of_kind k in
             if k < 3 then begin
               let got =
                 match size with
                 | 1 -> Mem.read8 m a
                 | 2 -> Mem.read16 m a
                 | _ -> Mem.read32 m a
               in
               got = ref_read tbl a size
             end
             else begin
               (match size with
               | 1 -> Mem.write8 m a v
               | 2 -> Mem.write16 m a v
               | _ -> Mem.write32 m a v);
               ref_write tbl a size v;
               true
             end)
           ops))

let props =
  [ prop "read32 after write32 roundtrips"
      (QCheck.pair addr_gen Gen.word32)
      (fun (a, v) ->
        let m = Mem.create () in
        Mem.write32 m a v;
        Mem.read32 m a = v);
    prop "byte decomposition of words" (QCheck.pair addr_gen Gen.word32)
      (fun (a, v) ->
        let m = Mem.create () in
        Mem.write32 m a v;
        Mem.read8 m a = v land 0xFF
        && Mem.read8 m (a + 1) = (v lsr 8) land 0xFF
        && Mem.read8 m (a + 2) = (v lsr 16) land 0xFF
        && Mem.read8 m (a + 3) = (v lsr 24) land 0xFF);
    prop "little-endian halves" (QCheck.pair addr_gen Gen.word32)
      (fun (a, v) ->
        let m = Mem.create () in
        Mem.write32 m a v;
        Mem.read16 m a lor (Mem.read16 m (a + 2) lsl 16) = v);
    prop "load/dump roundtrip" (QCheck.pair addr_gen QCheck.string)
      (fun (a, s) ->
        QCheck.assume (a + String.length s < 0xFFFF_FFFF);
        let m = Mem.create () in
        Mem.load_bytes m a s;
        Mem.dump_bytes m a (String.length s) = s) ]

let () =
  Alcotest.run "mem"
    [ ( "sparse",
        [ Alcotest.test_case "rw basic" `Quick test_rw_basic;
          Alcotest.test_case "page crossing" `Quick test_page_crossing;
          Alcotest.test_case "bulk" `Quick test_bulk;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "restore reports changes" `Quick
            test_restore_reports_changes;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint ] );
      ( "bus",
        [ Alcotest.test_case "routing" `Quick test_bus_routing;
          Alcotest.test_case "overlap rejected" `Quick test_bus_overlap_rejected;
          Alcotest.test_case "watcher" `Quick test_bus_watcher;
          Alcotest.test_case "fetch bypasses devices" `Quick
            test_fetch_bypasses_devices;
          Alcotest.test_case "invalid size" `Quick test_invalid_size;
          Alcotest.test_case "find_device binary search" `Quick
            test_find_device_sorted ] );
      ( "tlb",
        [ Alcotest.test_case "hit/miss/flush counting" `Quick
            test_tlb_hit_miss_counting;
          Alcotest.test_case "disabled never hits" `Quick
            test_tlb_disabled_never_hits;
          Alcotest.test_case "reads never allocate pages" `Quick
            test_tlb_read_never_allocates;
          Alcotest.test_case "device attach invalidates" `Quick
            test_tlb_attach_invalidates;
          Alcotest.test_case "io watcher blocks caching" `Quick
            test_tlb_watcher_blocks_caching;
          Alcotest.test_case "snapshot restore invalidates" `Quick
            test_tlb_restore_invalidates;
          tlb_differential ] );
      ("properties", sparse_model_differential :: props) ]
