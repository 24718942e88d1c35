(* Seeded guest programs and the exit status each must produce.

   Every generator returns assembly text together with its expected
   exit status, computed here in OCaml by evaluating the program's
   semantics directly (or, for device programs, from the devices' pure
   stream functions) — never by running the engine under test.  A
   simulation bug therefore shows up as a failed operation, not as a
   silently different number.

   The program shapes are derived from bench/workloads.ml and
   lib/torture/smp.ml but copied here on purpose: a change to those
   files must not silently change the benchmark's inputs.  The seed
   chooses data, constants and code layout; loop trip counts are fixed,
   so the amount of work barely moves from seed to seed. *)

type prog = {
  name : string;
  src : string;
  harts : int;
  fuel : int;
  expect : int;  (** exit status, as an unsigned 32-bit value *)
  cls : string;  (** "exec", "device" or "smp" *)
}

let m32 = 0xFFFF_FFFF
let s32 x = if x land 0x8000_0000 <> 0 then (x land m32) - 0x1_0000_0000 else x land m32
let rng seed salt = Random.State.make [| seed; salt |]
let u32 st = (Random.State.bits st lsl 2) lxor Random.State.bits st land m32

let exit_with reg =
  Printf.sprintf "  li   t6, 0x00100000\n  sw   %s, 0(t6)\n  ebreak\n" reg

let words l = String.concat ", " (List.map string_of_int l)

let prog ?(harts = 1) ?(cls = "exec") ~fuel name src expect =
  { name; src; harts; fuel; expect = expect land m32; cls }

(* ------------------------------------------------------------------ *)
(* exec_hot kernels.  [scale] divides the trip counts (1 = full size,
   about 2 M retired instructions each). *)

(* ALU/memory mix: xorshift steps through a 64-word ring of slots. *)
let mix ~seed ~scale =
  let st = rng seed 1 in
  let iters = 132_000 / scale and init = u32 st in
  let src =
    Printf.sprintf
      {|
_start:
  li   s0, 0
  li   s1, %d
  li   a0, 0x%08x
  la   s2, scratch
loop:
  andi a1, s0, 63
  slli a2, a1, 2
  add  a3, s2, a2
  xor  a0, a0, s0
  slli a4, a0, 13
  xor  a0, a0, a4
  srli a4, a0, 17
  xor  a0, a0, a4
  lw   a5, 0(a3)
  sw   a0, 0(a3)
  add  a0, a0, a5
  andi a6, s0, 7
  bnez a6, skip
  addi a0, a0, 100
skip:
  addi s0, s0, 1
  blt  s0, s1, loop
%s
  .data
scratch:
  .space 256
|}
      iters init (exit_with "a0")
  in
  let slots = Array.make 64 0 and a0 = ref init in
  for s0 = 0 to iters - 1 do
    let a = !a0 lxor s0 in
    let a = a lxor ((a lsl 13) land m32) in
    let a = a lxor (a lsr 17) in
    let old = slots.(s0 land 63) in
    slots.(s0 land 63) <- a;
    let a = (a + old) land m32 in
    a0 := if s0 land 7 = 0 then (a + 100) land m32 else a
  done;
  prog ~fuel:(20 * iters + 1000) "mix" src !a0

(* Dhrystone-flavoured: leaf calls copying and comparing 16-byte
   strings, an integer mix, and array updates.  Also the campaign and
   fleet target (at about 115 iterations: ~30 k instructions). *)
let dhry_iters ~seed ~iters =
  let st = rng seed 2 in
  let printable () = 32 + Random.State.int st 95 in
  let src0 = Array.init 16 (fun _ -> printable ()) in
  let ref0 = Array.init 16 (fun i -> if i mod 3 = 0 then printable () else src0.(i)) in
  let arr0 = Array.init 16 (fun _ -> Random.State.bits st) in
  let k = Random.State.int st 256 in
  let src =
    Printf.sprintf
      {|
_start:
  li   s0, 0
  li   s1, %d
  li   s5, 0
loop:
  la   a0, src_str
  la   a1, dst_str
  li   a2, 16
  call str_copy
  la   a0, dst_str
  la   a1, ref_str
  li   a2, 16
  call str_cmp
  add  s5, s5, a0
  mv   a0, s0
  call int_mix
  add  s5, s5, a0
  la   a3, arr
  andi a4, s0, 15
  slli a4, a4, 2
  add  a3, a3, a4
  lw   a5, 0(a3)
  add  a5, a5, s5
  sw   a5, 0(a3)
  la   a3, src_str
  andi a4, s0, 15
  add  a3, a3, a4
  andi a5, s5, 127
  sb   a5, 0(a3)
  addi s0, s0, 1
  blt  s0, s1, loop
  la   a3, arr
  li   a4, 0
  li   a6, 16
fold:
  lw   a5, 0(a3)
  xor  s5, s5, a5
  addi a3, a3, 4
  addi a4, a4, 1
  blt  a4, a6, fold
%s
str_copy:
  li   t0, 0
sc_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  sb   t2, 0(t3)
  addi t0, t0, 1
  blt  t0, a2, sc_loop
  ret
str_cmp:
  li   t0, 0
  li   t4, 0
scm_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  lbu  t5, 0(t3)
  bne  t2, t5, scm_next
  addi t4, t4, 1
scm_next:
  addi t0, t0, 1
  blt  t0, a2, scm_loop
  mv   a0, t4
  ret
int_mix:
  slli t0, a0, 2
  add  t0, t0, a0
  li   t5, %d
  xor  t0, t0, t5
  andi a0, t0, 255
  ret
  .data
src_str:
  .byte %s
dst_str:
  .space 16
ref_str:
  .byte %s
arr:
  .word %s
|}
      iters (exit_with "s5") k
      (words (Array.to_list src0))
      (words (Array.to_list ref0))
      (words (Array.to_list arr0))
  in
  let s = Array.copy src0 and arr = Array.copy arr0 and s5 = ref 0 in
  for s0 = 0 to iters - 1 do
    let eq = ref 0 in
    Array.iteri (fun i c -> if c = ref0.(i) then incr eq) s;
    s5 := (!s5 + !eq) land m32;
    s5 := (!s5 + ((5 * s0) lxor k) land 255) land m32;
    let i = s0 land 15 in
    arr.(i) <- (arr.(i) + !s5) land m32;
    s.(i) <- !s5 land 127
  done;
  Array.iter (fun v -> s5 := !s5 lxor v) arr;
  prog ~fuel:(400 * iters + 1000) "dhry" src !s5

let dhry ~seed ~scale = dhry_iters ~seed ~iters:(7_600 / scale)

(* Branch-dense ladder of biased conditions with a rare store-reload
   through a pc-relative address: the shape superblock traces target. *)
let branchy ~seed ~scale =
  let st = rng seed 3 in
  let n = 144_000 / scale in
  let s0_init = Random.State.int st 1000 in
  let thresh = 50_000 + Random.State.int st 100_000 in
  let xk = Random.State.int st 2048 in
  let src =
    Printf.sprintf
      {|
_start:
  li   s0, %d
  li   s1, 0
  li   s2, %d
  li   t0, %d
loop:
  andi t1, t0, 7
  beqz t1, rare
  addi s0, s0, 3
  j    join
rare:
  addi s1, s1, 5
join:
  andi t2, t0, 1
  bnez t2, odd
  xori s0, s0, %d
odd:
  andi t3, t0, 15
  bnez t3, nostore
  la   t4, slot
  sw   s0, 0(t4)
  lw   t5, 0(t4)
  add  s1, s1, t5
nostore:
  slt  t4, s0, s2
  bnez t4, next
  srai s0, s0, 1
next:
  addi t0, t0, -1
  bnez t0, loop
  add  a0, s0, s1
%s
  .data
slot:
  .word 0
|}
      s0_init thresh n xk (exit_with "a0")
  in
  let s0 = ref s0_init and s1 = ref 0 in
  for t0 = n downto 1 do
    if t0 land 7 = 0 then s1 := (!s1 + 5) land m32 else s0 := !s0 + 3;
    if t0 land 1 = 0 then s0 := !s0 lxor xk;
    if t0 land 15 = 0 then s1 := (!s1 + !s0) land m32;
    if !s0 >= thresh then s0 := !s0 asr 1
  done;
  prog ~fuel:(20 * n + 1000) "branchy" src (!s0 + !s1)

(* Bit-serial CRC-32 over a seeded 64-byte message, many passes. *)
let crc ~seed ~scale =
  let st = rng seed 4 in
  let passes = 530 / scale and msg = List.init 64 (fun _ -> Random.State.int st 256) in
  let src =
    Printf.sprintf
      {|
_start:
  li   s4, %d
  li   a0, -1
  li   s3, 0xedb88320
  li   a4, 8
  li   s1, 64
pass:
  li   s0, 0
crc_byte:
  la   a1, msg
  add  a1, a1, s0
  lbu  a2, 0(a1)
  xor  a0, a0, a2
  li   s2, 0
crc_bit:
  andi a3, a0, 1
  srli a0, a0, 1
  beqz a3, crc_noxor
  xor  a0, a0, s3
crc_noxor:
  addi s2, s2, 1
  blt  s2, a4, crc_bit
  addi s0, s0, 1
  blt  s0, s1, crc_byte
  addi s4, s4, -1
  bnez s4, pass
  not  a0, a0
%s
  .data
msg:
  .byte %s
|}
      passes (exit_with "a0") (words msg)
  in
  let c = ref m32 in
  for _ = 1 to passes do
    List.iter
      (fun b ->
        c := !c lxor b;
        for _ = 1 to 8 do
          let lsb = !c land 1 in
          c := !c lsr 1;
          if lsb = 1 then c := !c lxor 0xedb88320
        done)
      msg
  done;
  prog ~fuel:(5_000 * passes + 1000) "crc" src (lnot !c)

(* STREAM-style copy + checksum over 1 KiB filled by a guest LCG. *)
let stream ~seed ~scale =
  let st = rng seed 5 in
  let passes = 1_560 / scale and v0 = Random.State.bits st in
  let src =
    Printf.sprintf
      {|
_start:
  la   a0, src
  li   s2, 0
  li   s3, 256
  li   a2, %d
  li   a3, 1664525
  li   a4, 1013904223
fill:
  mul  a2, a2, a3
  add  a2, a2, a4
  sw   a2, 0(a0)
  addi a0, a0, 4
  addi s2, s2, 1
  blt  s2, s3, fill
  li   s0, 0
  li   s1, %d
  li   s5, 0
pass:
  la   a0, src
  la   a1, dst
  li   s2, 0
  li   s3, 256
copy:
  lw   a2, 0(a0)
  sw   a2, 0(a1)
  add  s5, s5, a2
  lw   a3, 4(a0)
  sw   a3, 4(a1)
  add  s5, s5, a3
  addi a0, a0, 8
  addi a1, a1, 8
  addi s2, s2, 2
  blt  s2, s3, copy
  addi s0, s0, 1
  blt  s0, s1, pass
  mv   a0, s5
%s
  .data
src:
  .space 1024
dst:
  .space 1024
|}
      v0 passes (exit_with "a0")
  in
  let v = ref v0 and sum = ref 0 in
  for _ = 1 to 256 do
    v := ((!v * 1664525) + 1013904223) land m32;
    sum := !sum + !v
  done;
  prog ~fuel:(1_400 * passes + 10_000) "stream" src (passes * !sum)

(* Pointer chase around a 64-node ring linked in a seeded order. *)
let pchase ~seed ~scale =
  let st = rng seed 6 in
  let perm = Array.init 64 Fun.id in
  for i = 63 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let steps = (1_320_000 / scale / 64 * 64) + 36 in
  let src =
    Printf.sprintf
      {|
_start:
  la   a0, ring
  la   a5, perm
  li   s2, 0
  li   s3, 64
init:
  slli a1, s2, 2
  add  a1, a1, a5
  lw   a2, 0(a1)
  addi a3, s2, 1
  andi a3, a3, 63
  slli a3, a3, 2
  add  a3, a3, a5
  lw   a3, 0(a3)
  slli a2, a2, 4
  add  a2, a2, a0
  slli a3, a3, 4
  add  a3, a3, a0
  sw   a3, 0(a2)
  addi s2, s2, 1
  blt  s2, s3, init
  lw   s4, 0(a5)
  slli s4, s4, 4
  add  s4, s4, a0
  li   s2, 0
  li   s3, %d
chase:
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  addi s2, s2, 4
  blt  s2, s3, chase
  sub  a0, s4, a0
  srli a0, a0, 4
%s
  .data
perm:
  .word %s
ring:
  .space 1024
|}
      steps (exit_with "a0") (words (Array.to_list perm))
  in
  prog ~fuel:(2 * steps + 10_000) "pchase" src perm.(steps mod 64)

let exec_hot ~seed ~scale =
  [ mix ~seed ~scale; dhry ~seed ~scale; branchy ~seed ~scale;
    crc ~seed ~scale; stream ~seed ~scale; pchase ~seed ~scale ]

(* ------------------------------------------------------------------ *)
(* exec_cold: one-shot programs of 2-8 KiB of random straight-line ALU,
   memory and forward-branch code, looped 1-4 times.  The generator
   evaluates every instruction as it emits it. *)

let regs = [| "a0"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7";
              "t0"; "t1"; "t2"; "t3"; "t4"; "t5" |]

type op =
  | Rop of string * int * int * int
  | Iop of string * int * int * int
  | Lui of int * int
  | Lw of int * int
  | Sw of int * int
  | Skip of string * int * int * int  (** branch over the next n ops *)

let eval_r name a b =
  match name with
  | "add" -> a + b
  | "sub" -> a - b
  | "xor" -> a lxor b
  | "or" -> a lor b
  | "and" -> a land b
  | "sll" -> a lsl (b land 31)
  | "srl" -> a lsr (b land 31)
  | "sra" -> s32 a asr (b land 31)
  | "slt" -> if s32 a < s32 b then 1 else 0
  | "sltu" -> if a < b then 1 else 0
  | "mul" -> a * b
  | _ -> invalid_arg name

let eval_i name a imm =
  match name with
  | "addi" -> a + imm
  | "xori" -> a lxor (imm land m32)
  | "ori" -> a lor (imm land m32)
  | "andi" -> a land (imm land m32)
  | "slti" -> if s32 a < imm then 1 else 0
  | "sltiu" -> if a < imm land m32 then 1 else 0
  | "slli" -> a lsl imm
  | "srli" -> a lsr imm
  | "srai" -> s32 a asr imm
  | _ -> invalid_arg name

let taken name a b =
  match name with
  | "beq" -> a = b
  | "bne" -> a <> b
  | "blt" -> s32 a < s32 b
  | "bge" -> s32 a >= s32 b
  | "bltu" -> a < b
  | "bgeu" -> a >= b
  | _ -> invalid_arg name

let pick st a = a.(Random.State.int st (Array.length a))
let r_ops = [| "add"; "sub"; "xor"; "or"; "and"; "sll"; "srl"; "sra"; "slt"; "sltu"; "mul" |]
let i_ops = [| "addi"; "xori"; "ori"; "andi"; "slti"; "sltiu" |]
let sh_ops = [| "slli"; "srli"; "srai" |]
let br_ops = [| "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" |]

let gen_op st =
  let r () = Random.State.int st (Array.length regs) in
  match Random.State.int st 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> Rop (pick st r_ops, r (), r (), r ())
  | 7 | 8 | 9 | 10 -> Iop (pick st i_ops, r (), r (), Random.State.int st 4096 - 2048)
  | 11 | 12 -> Iop (pick st sh_ops, r (), r (), Random.State.int st 32)
  | 13 -> Lui (r (), Random.State.int st 0x100000)
  | 14 | 15 -> Lw (r (), Random.State.int st 64)
  | 16 | 17 -> Sw (r (), Random.State.int st 64)
  | _ -> Skip (pick st br_ops, r (), r (), 1 + Random.State.int st 3)

(* Sizes and trip counts are a function of the index, not the seed, so
   every seed runs the same amount of code: 100 programs cover 2-8 KiB
   evenly, each size class looped 1-4 times. *)
let cold ~seed index =
  let st = rng seed (1000 + index) in
  let body_len = 480 + (1540 * (index * 37 mod 100) / 100) in
  let trips = 1 + (index mod 4) in
  let init = Array.init (Array.length regs) (fun _ -> u32 st) in
  let body = Array.init body_len (fun _ -> gen_op st) in
  let b = Buffer.create (body_len * 24) in
  let add fmt = Printf.bprintf b fmt in
  add "_start:\n  la   s0, scratch\n  li   s1, %d\n  li   s2, 0\n" trips;
  Array.iteri (fun i v -> add "  li   %s, 0x%08x\n" regs.(i) v) init;
  add "loop:\n";
  (* a skip's target is a label after the op it lands on; skips never
     leave the body, they stop at its end *)
  let labels = Array.make (body_len + 1) [] in
  Array.iteri
    (fun i op ->
      List.iter (fun l -> add "%s:\n" l) labels.(i);
      match op with
      | Rop (n, d, a, c) -> add "  %s %s, %s, %s\n" n regs.(d) regs.(a) regs.(c)
      | Iop (n, d, a, imm) -> add "  %s %s, %s, %d\n" n regs.(d) regs.(a) imm
      | Lui (d, imm) -> add "  lui  %s, 0x%x\n" regs.(d) imm
      | Lw (d, w) -> add "  lw   %s, %d(s0)\n" regs.(d) (4 * w)
      | Sw (s, w) -> add "  sw   %s, %d(s0)\n" regs.(s) (4 * w)
      | Skip (n, a, c, k) ->
          let l = Printf.sprintf "L%d" i in
          let tgt = min body_len (i + 1 + k) in
          labels.(tgt) <- l :: labels.(tgt);
          add "  %s %s, %s, %s\n" n regs.(a) regs.(c) l)
    body;
  List.iter (fun l -> add "%s:\n" l) labels.(body_len);
  (* the body is longer than a branch reaches: loop back with a jump *)
  add "  addi s2, s2, 1\n  bge  s2, s1, done\n  j    loop\ndone:\n";
  for i = 1 to Array.length regs - 1 do
    add "  xor  a0, a0, %s\n" regs.(i)
  done;
  add "%s  .data\nscratch:\n  .space 256\n" (exit_with "a0");
  (* evaluation *)
  let rv = Array.copy init and mem = Array.make 64 0 in
  let executed = ref 0 in
  for _ = 1 to trips do
    let pc = ref 0 in
    while !pc < body_len do
      incr executed;
      (match body.(!pc) with
      | Rop (n, d, a, c) -> rv.(d) <- eval_r n rv.(a) rv.(c) land m32
      | Iop (n, d, a, imm) -> rv.(d) <- eval_i n rv.(a) imm land m32
      | Lui (d, imm) -> rv.(d) <- imm lsl 12
      | Lw (d, w) -> rv.(d) <- mem.(w)
      | Sw (s, w) -> mem.(w) <- rv.(s)
      | Skip (n, a, c, k) -> if taken n rv.(a) rv.(c) then pc := !pc + k);
      incr pc
    done
  done;
  let sum = Array.fold_left ( lxor ) 0 rv in
  prog ~fuel:(!executed + 1000) (Printf.sprintf "cold-%d" index) (Buffer.contents b) sum

(* ------------------------------------------------------------------ *)
(* platform: SMP synchronisation, interrupt-driven devices, and MMIO. *)

let spinlock ~harts ~rounds =
  prog ~harts ~cls:"smp" ~fuel:(200_000 + (harts * rounds * 20_000))
    "smp-spinlock"
    (Printf.sprintf
       {|
_start:
  csrr t0, mhartid
  la   s0, lock
  la   s1, counter
  la   s2, done_ctr
  li   s3, %d
loop:
  li   t1, 1
acquire:
  amoswap.w t2, t1, (s0)
  bne  t2, x0, acquire
  lw   t3, 0(s1)
  addi t3, t3, 1
  sw   t3, 0(s1)
  sw   x0, 0(s0)
  addi s3, s3, -1
  bne  s3, x0, loop
  li   t1, 1
  bne  t0, x0, finish_other
  amoadd.w x0, t1, (s2)
wait_done:
  lw   t4, 0(s2)
  li   t5, %d
  bne  t4, t5, wait_done
  lw   a0, 0(s1)
  li   a1, %d
  sub  a0, a0, a1
  li   t1, 0x00100000
  sw   a0, 0(t1)
halt0:
  j halt0
finish_other:
  amoadd.w x0, t1, (s2)
halt:
  j halt
  .data
lock:
  .word 0
counter:
  .word 0
done_ctr:
  .word 0
|}
       rounds harts (harts * rounds))
    0

let ipi_ring ~harts ~rounds =
  prog ~harts ~cls:"smp" ~fuel:(200_000 + (harts * rounds * 20_000))
    "smp-ipi-ring"
    (Printf.sprintf
       {|
_start:
  csrr t0, mhartid
  li   s0, 0x02000000
  la   s1, hops
  li   s2, %d
  slli t1, t0, 2
  add  s3, s0, t1
  addi t2, t0, 1
  li   t3, %d
  blt  t2, t3, nowrap
  li   t2, 0
nowrap:
  slli t1, t2, 2
  add  s4, s0, t1
  li   t1, 8
  csrw mie, t1
  bne  t0, x0, wait
  li   t1, 1
  sw   t1, 0(s3)
wait:
  lw   t4, 0(s3)
  bne  t4, x0, got
  wfi
  j    wait
got:
  sw   x0, 0(s3)
  lw   t5, 0(s1)
  addi t5, t5, 1
  sw   t5, 0(s1)
  beq  t5, s2, finish
  li   t1, 1
  sw   t1, 0(s4)
  j    wait
finish:
  sub  a0, t5, s2
  li   t1, 0x00100000
  sw   a0, 0(t1)
halt:
  j halt
  .data
hops:
  .word 0
|}
       (harts * rounds) harts)
    0

(* IRQ-driven DMA: each iteration refills a 4 KiB source, posts 8
   bursts of 4 KiB through the descriptor ring, sleeps in WFI until
   they complete, and folds the last word of every destination. *)
let dma_driver ~seed ~scale =
  let iters = (480 / scale) + 1 and p0 = Random.State.bits (rng seed 7) land 0xFFFFF in
  let src =
    Printf.sprintf
      {|
  .equ DMA, 0x10020000
_start:
  la   t0, handler
  csrw mtvec, t0
  li   t0, 0x800
  csrw mie, t0
  csrrsi zero, mstatus, 8
  la   a0, ring
  la   a1, src
  li   a2, 0x80040000
  li   t1, 0
  li   t2, 8
mkdesc:
  sw   a1, 0(a0)
  sw   a2, 4(a0)
  li   t3, 4096
  sw   t3, 8(a0)
  li   t3, 1
  sw   t3, 12(a0)
  addi a0, a0, 16
  li   t3, 4096
  add  a2, a2, t3
  addi t1, t1, 1
  blt  t1, t2, mkdesc
  li   s0, DMA
  la   t0, ring
  sw   t0, 0x00(s0)
  li   t0, 8
  sw   t0, 0x04(s0)
  li   t0, 1
  sw   t0, 0x14(s0)
  li   s1, 0
  li   s2, %d
  li   s3, %d
  li   s6, 0
iter:
  la   a0, src
  li   t1, 0
  li   t2, 1024
fill:
  add  t3, s3, t1
  sw   t3, 0(a0)
  addi a0, a0, 4
  addi t1, t1, 1
  blt  t1, t2, fill
  addi s1, s1, 1
  slli t0, s1, 3
  sw   t0, 0x08(s0)
wait:
  lw   t0, 0x20(s0)
  slli t1, s1, 3
  bge  t0, t1, copied
  wfi
  j    wait
copied:
  li   a1, 0x80040ffc
  li   t1, 0
  li   t3, 8
  li   a4, 4096
check:
  lw   a3, 0(a1)
  add  s6, s6, a3
  add  a1, a1, a4
  addi t1, t1, 1
  blt  t1, t3, check
  addi s3, s3, 7
  blt  s1, s2, iter
  mv   a0, s6
%s
handler:
  li   t5, DMA
  lw   t4, 0x10(t5)
  sw   t4, 0x10(t5)
  mret
  .data
ring:
  .space 128
src:
  .space 4096
|}
      iters p0 (exit_with "a0")
  in
  let sum = ref 0 in
  for it = 0 to iters - 1 do
    sum := !sum + (8 * (p0 + (7 * it) + 1023))
  done;
  prog ~cls:"device" ~fuel:(6_000 * iters + 100_000) "dma-irq" src !sum

(* Interrupt-driven vnet rx: 16 posted 256-byte buffers, a seeded
   generator burst, and a handler that re-posts the full window.
   Exits with the delivered count (zero on any drop) plus the first
   payload byte left in slot 0. *)
let vnet_rx ~seed ~scale =
  let pkts = 16 * ((32_000 / scale / 16) + 1) in
  let gseed = 1 + Random.State.int (rng seed 8) 1_000_000 in
  let len = 192 in
  let src =
    Printf.sprintf
      {|
  .equ VNET, 0x10030000
_start:
  la   t0, rx_handler
  csrw mtvec, t0
  li   t0, 0x800
  csrw mie, t0
  csrrsi zero, mstatus, 8
  la   a0, ring
  la   a1, bufs
  li   t1, 0
  li   t2, 16
mk:
  sw   a1, 0(a0)
  li   t3, 256
  sw   t3, 8(a0)
  sw   zero, 12(a0)
  addi a0, a0, 16
  addi a1, a1, 256
  addi t1, t1, 1
  blt  t1, t2, mk
  li   s0, VNET
  li   t0, 1
  sw   t0, 0x00(s0)
  la   t0, ring
  sw   t0, 0x0C(s0)
  li   t0, 16
  sw   t0, 0x10(s0)
  sw   t0, 0x14(s0)
  li   t0, 1
  sw   t0, 0x08(s0)
  li   t0, %d
  sw   t0, 0x2C(s0)
  li   t0, 96
  sw   t0, 0x30(s0)
  li   t0, 2
  sw   t0, 0x34(s0)
  li   t0, %d
  sw   t0, 0x38(s0)
  li   t0, %d
  sw   t0, 0x3C(s0)
wait:
  lw   t0, 0x3C(s0)
  beqz t0, drain
  wfi
  j    wait
drain:
  lw   a0, 0x40(s0)
  lw   t0, 0x44(s0)
  beqz t0, nodrop
  li   a0, 0
nodrop:
  la   a1, bufs
  lbu  t1, 0(a1)
  slli t1, t1, 8
  add  a0, a0, t1
%s
rx_handler:
  li   t5, VNET
  lw   t4, 0x04(t5)
  sw   t4, 0x04(t5)
  lw   t4, 0x18(t5)
  addi t4, t4, 16
  sw   t4, 0x14(t5)
  mret
  .data
ring:
  .space 256
bufs:
  .space 4096
|}
      gseed len pkts (exit_with "a0")
  in
  (* packets land round-robin in 16 slots: the last one in slot 0 is
     number [pkts - 16]; its payload byte j is stream index
     [(k lsl 16) lor j] *)
  let expect = pkts + (S4e_soc.Vnet.stream_byte gseed ((pkts - 16) lsl 16) lsl 8) in
  prog ~cls:"device" ~fuel:(400 * pkts + 100_000) "vnet-rx" src expect

(* Per-byte programmed I/O: drain the vnet stream through the RXDATA
   tap, one full MMIO device read per byte. *)
let pio ~seed ~scale =
  let n = 340_000 / scale and gseed = 1 + Random.State.int (rng seed 9) 1_000_000 in
  let src =
    Printf.sprintf
      {|
_start:
  li   s0, 0x10030000
  li   t0, %d
  sw   t0, 0x2C(s0)
  la   s1, buf
  li   s2, 0
  li   s3, %d
  li   s4, 0xffff
  li   s5, 0
copy:
  lw   a0, 0x50(s0)
  and  t1, s2, s4
  add  t1, t1, s1
  sb   a0, 0(t1)
  add  s5, s5, a0
  addi s2, s2, 1
  blt  s2, s3, copy
  mv   a0, s5
%s
  .data
buf:
  .space 65536
|}
      gseed n (exit_with "a0")
  in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + S4e_soc.Vnet.stream_byte gseed i
  done;
  prog ~cls:"device" ~fuel:(10 * n + 1000) "pio" src !sum

let platform ~seed ~scale =
  [ spinlock ~harts:4 ~rounds:((13_200 / scale) + (seed land 7));
    ipi_ring ~harts:4 ~rounds:((14_400 / scale) + (seed land 7));
    dma_driver ~seed ~scale; vnet_rx ~seed ~scale; pio ~seed ~scale ]

(* ------------------------------------------------------------------ *)
(* The fault-campaign target: dhry at ~30 k golden instructions. *)
let campaign_target ~seed = dhry_iters ~seed ~iters:115
