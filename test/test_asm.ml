(* Assembler tests: expression parsing, directives, pseudo expansion,
   error reporting, and the disassembler roundtrip. *)

open S4e_isa
module Asm = S4e_asm.Assembler
module Program = S4e_asm.Program
module Disasm = S4e_asm.Disasm

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 gen f)

let assemble src =
  match Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Asm.pp_error e

let expect_error src line message =
  match Asm.assemble src with
  | Ok _ -> Alcotest.failf "expected an assembly error (line %d: %s)" line message
  | Error e ->
      let label = if String.length src > 60 then String.sub src 0 60 ^ "..." else src in
      Alcotest.(check (pair int string)) label (line, message) (e.Asm.line, e.Asm.message)

let first_instrs p n =
  let mem = S4e_mem.Sparse_mem.create () in
  Program.load p mem;
  List.init n (fun i ->
      match Decode.decode (S4e_mem.Sparse_mem.read32 mem (p.Program.entry + (4 * i))) with
      | Some ins -> ins
      | None -> Alcotest.failf "instruction %d undecodable" i)

let test_simple_program () =
  let p = assemble "_start:\n  addi a0, zero, 5\n  add a1, a0, a0\n" in
  match first_instrs p 2 with
  | [ Instr.Op_imm (ADDI, 10, 0, 5); Instr.Op (ADD, 11, 10, 10) ] -> ()
  | _ -> Alcotest.fail "unexpected encoding"

let test_expressions () =
  let p =
    assemble
      {|
_start:
  li a0, 0x100 + 8
  li a1, 0x100 - 8
  li a2, -4
  li a3, 'A'
  li a4, (0x100 + 8) - 8
|}
  in
  match first_instrs p 5 with
  | [ Instr.Op_imm (ADDI, 10, 0, 0x108);
      Instr.Op_imm (ADDI, 11, 0, 0xF8);
      Instr.Op_imm (ADDI, 12, 0, -4);
      Instr.Op_imm (ADDI, 13, 0, 65);
      Instr.Op_imm (ADDI, 14, 0, 0x100) ] -> ()
  | l ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Instr.to_string l))

let test_hi_lo () =
  let p =
    assemble {|
_start:
  lui a0, %hi(0x80001234)
  addi a0, a0, %lo(0x80001234)
|}
  in
  (* executing the pair must reconstruct the constant *)
  match first_instrs p 2 with
  | [ Instr.Lui (10, hi); Instr.Op_imm (ADDI, 10, 10, lo) ] ->
      Alcotest.(check int) "hi/lo reconstruct" 0x80001234
        (S4e_bits.Bits.add (hi lsl 12) (S4e_bits.Bits.of_signed lo))
  | _ -> Alcotest.fail "unexpected shape"

let test_pseudo_expansions () =
  let p =
    assemble
      {|
_start:
  nop
  mv   a0, a1
  not  a2, a3
  neg  a4, a5
  seqz t0, t1
  snez t2, t3
  j    next
next:
  ret
|}
  in
  match first_instrs p 8 with
  | [ Instr.Op_imm (ADDI, 0, 0, 0);
      Instr.Op_imm (ADDI, 10, 11, 0);
      Instr.Op_imm (XORI, 12, 13, -1);
      Instr.Op (SUB, 14, 0, 15);
      Instr.Op_imm (SLTIU, 5, 6, 1);
      Instr.Op (SLTU, 7, 0, 28);
      Instr.Jal (0, 4);
      Instr.Jalr (0, 1, 0) ] -> ()
  | l ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Instr.to_string l))

let test_li_selection () =
  let p = assemble "_start:\n  li a0, 100\n  li a1, 0x12345678\n" in
  match first_instrs p 3 with
  | [ Instr.Op_imm (ADDI, 10, 0, 100); Instr.Lui (11, _);
      Instr.Op_imm (ADDI, 11, 11, _) ] -> ()
  | _ -> Alcotest.fail "li selection wrong"

let test_branch_pseudos () =
  let p =
    assemble
      {|
_start:
  beqz a0, l
  bnez a0, l
  blez a0, l
  bgez a0, l
  bltz a0, l
  bgtz a0, l
  bgt  a0, a1, l
  ble  a0, a1, l
l:
  nop
|}
  in
  match first_instrs p 8 with
  | [ Instr.Branch (BEQ, 10, 0, _); Instr.Branch (BNE, 10, 0, _);
      Instr.Branch (BGE, 0, 10, _); Instr.Branch (BGE, 10, 0, _);
      Instr.Branch (BLT, 10, 0, _); Instr.Branch (BLT, 0, 10, _);
      Instr.Branch (BLT, 11, 10, _); Instr.Branch (BGE, 11, 10, _) ] -> ()
  | l ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Instr.to_string l))

let test_data_directives () =
  let p =
    assemble
      {|
_start:
  nop
  .data
d1:
  .word 0x11223344
d2:
  .half 0x5566
d3:
  .byte 0x77, 0x88
d4:
  .asciz "ok"
  .align 2
d5:
  .space 4
d7:
|}
  in
  let mem = S4e_mem.Sparse_mem.create () in
  Program.load p mem;
  let sym name =
    match Program.symbol p name with
    | Some a -> a
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check int) "word" 0x11223344 (S4e_mem.Sparse_mem.read32 mem (sym "d1"));
  Alcotest.(check int) "half" 0x5566 (S4e_mem.Sparse_mem.read16 mem (sym "d2"));
  Alcotest.(check int) "byte" 0x77 (S4e_mem.Sparse_mem.read8 mem (sym "d3"));
  Alcotest.(check int) "byte2" 0x88 (S4e_mem.Sparse_mem.read8 mem (sym "d3" + 1));
  Alcotest.(check string) "asciz" "ok\000"
    (S4e_mem.Sparse_mem.dump_bytes mem (sym "d4") 3);
  Alcotest.(check int) "align" 0 (sym "d5" land 3);
  Alcotest.(check int) "space" 4 (sym "d7" - sym "d5")

let test_org_and_sections () =
  let p =
    assemble
      {|
  .org 0x80000100
_start:
  nop
  .data
  .org 0x80020000
v:
  .word 1
|}
  in
  Alcotest.(check int) "entry honors org" 0x80000100 p.Program.entry;
  Alcotest.(check (option int)) "data org" (Some 0x80020000)
    (Program.symbol p "v");
  Alcotest.(check (option (pair int int))) "code range"
    (Some (0x80000100, 0x80000104))
    (Program.code_range p)

let test_errors () =
  expect_error "_start:\n  frobnicate a0\n" 2 {|unknown mnemonic "frobnicate"|};
  expect_error "_start:\n  li a0, missing\n" 2 {|undefined symbol "missing"|};
  expect_error "a:\na:\n  nop\n" 2 {|duplicate label "a"|};
  expect_error "_start:\n  addi a0, a0, 5000\n" 2
    "immediate 5000 does not fit in 12 signed bits";
  expect_error "_start:\n  add a0, a1\n" 2 {|bad operands for "add" (2 operands)|};
  expect_error "_start:\n  slli a0, a0, 32\n" 2 "shift amount 32 out of range";
  expect_error "_start:\n  beq a0, a1, far\n  .org 0x80008000\nfar:\n  nop\n" 2
    "branch offset 32768 does not fit in 13 signed bits";
  expect_error "_start:\n  lw a0, (((\n" 2 "unbalanced parentheses"

let test_comments_and_whitespace () =
  let p =
    assemble
      "_start: # label comment\n\taddi a0, zero, 1 // c++ style\n  # whole line\n\n  addi a0, a0, 1\n"
  in
  Alcotest.(check int) "two instructions" 8 (Program.size p)

let test_line_numbers_in_errors () =
  expect_error "_start:\n  nop\n  bogus\n" 3 {|unknown mnemonic "bogus"|}

(* disassembler *)

let test_disasm_roundtrip_directed () =
  let src = {|
_start:
  addi a0, zero, 42
  lw   a1, 8(sp)
  beq  a0, a1, _start
|} in
  let p = assemble src in
  let lines = Disasm.disassemble_program p in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  match lines with
  | [ l1; l2; l3 ] ->
      Alcotest.(check string) "addi" "addi a0, zero, 42" l1.Disasm.text;
      Alcotest.(check string) "lw" "lw a1, 8(sp)" l2.Disasm.text;
      Alcotest.(check string) "beq" "beq a0, a1, -8" l3.Disasm.text
  | _ -> Alcotest.fail "unexpected"

let test_image_roundtrip () =
  let p =
    assemble {|
_start:
  li a0, 1
  call f
  ebreak
f:
  ret
  .data
v:
  .word 0xdeadbeef
  .asciz "payload"
|}
  in
  match Program.of_bytes (Program.to_bytes p) with
  | Ok p' ->
      Alcotest.(check bool) "identical" true (p = p')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let test_image_rejects_garbage () =
  let bad s what =
    match Program.of_bytes s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject %s" what
  in
  bad "" "empty";
  bad "ELF\x7f" "wrong magic";
  bad "S4EP" "truncated header";
  let p = assemble "_start:\n  nop\n" in
  let good = Program.to_bytes p in
  bad (String.sub good 0 (String.length good - 2)) "truncated body";
  bad (good ^ "x") "trailing bytes";
  (* corrupt the version field *)
  let bytes = Bytes.of_string good in
  Bytes.set bytes 4 '\x63';
  bad (Bytes.to_string bytes) "bad version"

(* ---------------- golden images ----------------

   The assembler's output is pinned byte for byte: the MD5 of every
   corpus program's image, recorded from a known-good build.  A change
   to the assembler must keep all of them. *)

module Builder = S4e_asm.Builder

type kind =
  | R | F | Imm | Shamt | U20 | Mem | Mem0 | Abs | Label | Csr | Uimm5
  | Li | Addr | Str

(* Every operand shape of every mnemonic the assembler knows. *)
let shape_table =
  let names = String.split_on_char ' ' in
  [ ( names
        "add sub sll slt sltu xor srl sra or and mul mulh mulhsu mulhu div \
         divu rem remu andn orn xnor rol ror min max minu maxu bset bclr \
         binv bext",
      [ [ R; R; R ] ] );
    (names "addi slti sltiu xori ori andi", [ [ R; R; Imm ] ]);
    (names "slli srli srai rori bseti bclri binvi bexti", [ [ R; R; Shamt ] ]);
    ( names
        "clz ctz cpop sext.b sext.h zext.h rev8 orc.b mv not neg seqz snez \
         sltz sgtz",
      [ [ R; R ] ] );
    (names "lb lh lw lbu lhu sb sh sw", [ [ R; Mem ]; [ R; Abs ] ]);
    (names "beq bne blt bge bltu bgeu bgt ble bgtu bleu", [ [ R; R; Label ] ]);
    (names "beqz bnez bltz bgez blez bgtz", [ [ R; Label ] ]);
    (names "csrrw csrrs csrrc", [ [ R; Csr; R ] ]);
    (names "csrrwi csrrsi csrrci", [ [ R; Csr; Uimm5 ] ]);
    (names "csrr", [ [ R; Csr ] ]);
    (names "csrw csrs csrc", [ [ Csr; R ] ]);
    ( names "fadd.s fsub.s fmul.s fdiv.s fmin.s fmax.s fsgnj.s fsgnjn.s fsgnjx.s",
      [ [ F; F; F ] ] );
    (names "feq.s flt.s fle.s", [ [ R; F; F ] ]);
    (names "fsqrt.s fmv.s fabs.s fneg.s", [ [ F; F ] ]);
    (names "fcvt.w.s fcvt.wu.s fmv.x.w", [ [ R; F ] ]);
    (names "fcvt.s.w fcvt.s.wu fmv.w.x", [ [ F; R ] ]);
    (names "flw fsw", [ [ F; Mem ]; [ F; Abs ] ]);
    ( names
        "amoswap.w amoadd.w amoxor.w amoand.w amoor.w amomin.w amomax.w \
         amominu.w amomaxu.w sc.w",
      [ [ R; R; Mem0 ] ] );
    (names "lr.w", [ [ R; Mem0 ] ]);
    (names "fence fence.i ecall ebreak mret wfi nop ret", [ [] ]);
    (names "lui auipc", [ [ R; U20 ] ]);
    (names "jal", [ [ Label ]; [ R; Label ] ]);
    (names "j call", [ [ Label ] ]);
    (names "jr", [ [ R ] ]);
    (names "jalr", [ [ R ]; [ R; Mem ]; [ R; R; Imm ] ]);
    (names "li", [ [ R; Li ] ]);
    (names "la", [ [ R; Addr ] ]) ]

let all_shapes =
  List.sort_uniq compare
    ([ Str ] :: [ R; R; R; R ] :: List.concat_map snd shape_table)

let text_labels = [| "L0"; "L1"; "L2"; "L3"; "L4"; "L5" |]

let csr_operands =
  [| "mstatus"; "mscratch"; "mtvec"; "mepc"; "mcause"; "mie"; "mip"; "misa";
     "mcycle"; "fcsr"; "0x340"; "0x300"; "832"; "0xC00" |]

(* One operand of [kind], rendered in one of the spellings the dialect
   accepts. *)
let render_operand st kind =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let num v =
    match Random.State.int st 4 with
    | 0 when v >= 0 -> Printf.sprintf "0x%x" v
    | 1 when v >= 0 -> Printf.sprintf "0X%X" v
    | 2 ->
        let a = int (-100) 100 in
        Printf.sprintf "%d + %d" a (v - a)
    | _ -> string_of_int v
  in
  let gpr () =
    let r = int 0 31 in
    pick
      (Array.concat
         [ [| Reg.abi_name r; "x" ^ string_of_int r |];
           (if r < 10 then [| Printf.sprintf "x0%d" r |] else [||]);
           (if r = 8 then [| "fp" |] else [||]) ])
  in
  match kind with
  | R -> gpr ()
  | F ->
      let r = int 0 31 in
      pick
        (Array.append
           [| Reg.f_name r; "f" ^ string_of_int r |]
           (if r < 10 then [| Printf.sprintf "f0%d" r |] else [||]))
  | Imm -> (
      match Random.State.int st 6 with
      | 0 -> "%lo(dstart + 12)"
      | 1 -> Printf.sprintf "-(%d)" (int 0 2048)
      | _ -> num (int (-2048) 2047))
  | Shamt -> num (int 0 31)
  | U20 -> if Random.State.bool st then "%hi(dstart)" else num (int 0 0xFFFFF)
  | Mem -> (
      match Random.State.int st 4 with
      | 0 -> Printf.sprintf "(%s)" (gpr ())
      | 1 -> Printf.sprintf "%d ( %s )" (int (-2048) 2047) (gpr ())
      | _ -> Printf.sprintf "%s(%s)" (num (int (-2048) 2047)) (gpr ()))
  | Mem0 -> Printf.sprintf (if Random.State.bool st then "(%s)" else "0(%s)") (gpr ())
  | Abs -> num (int (-2048) 2047)
  | Label -> pick text_labels
  | Csr -> pick csr_operands
  | Uimm5 -> num (int 0 31)
  | Li -> (
      match Random.State.int st 8 with
      | 0 -> "dstart"
      | 1 -> "dstart + 4"
      | 2 -> "'A'"
      | 3 -> "0b1011"
      | 4 -> "0o17"
      | 5 -> num (int (-2048) 2047)
      | 6 -> Printf.sprintf "0x%x" (Random.State.bits st land 0xFFFF_FFFF)
      | _ -> Int32.to_string (Random.State.bits32 st))
  | Addr -> pick [| "dstart"; "dstart + 8"; "L0"; "dend - 4" |]
  | Str -> "\"str\""

let render_instr st m shape =
  let m =
    if Random.State.int st 8 = 0 then String.uppercase_ascii m else m
  in
  let sep = [| " "; "\t"; "   " |] and comma = [| ", "; ","; " , " |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  match shape with
  | [] -> m
  | _ ->
      m ^ pick sep
      ^ String.concat (pick comma) (List.map (render_operand st) shape)

(* A seeded program: every (mnemonic, shape) once in random order with
   random operands and layout, plus every directive. *)
let golden_source seed =
  let st = Random.State.make [| seed |] in
  let items =
    List.concat_map
      (fun (ms, shapes) ->
        List.concat_map (fun m -> List.map (fun s -> (m, s)) shapes) ms)
      shape_table
    |> List.map (fun i -> (Random.State.bits st, i))
    |> List.sort compare |> List.map snd
  in
  let n = List.length items in
  let eol = if seed mod 3 = 0 then "\r\n" else "\n" in
  let b = Buffer.create 8192 in
  let line s = Buffer.add_string b s; Buffer.add_string b eol in
  let indent () = [| "  "; "\t"; ""; " \t " |].(Random.State.int st 4) in
  let comment () =
    match Random.State.int st 6 with
    | 0 -> "  # note, with (parens)"
    | 1 -> " // c++ style"
    | 2 -> "\t#"
    | _ -> ""
  in
  line "  .globl _start";
  if seed mod 2 = 0 then line "  .org 0x80000040";
  line "_start:";
  List.iteri
    (fun k (m, shape) ->
      (* labels spread through the text; some share a line *)
      Array.iteri
        (fun i l ->
          if k = i * n / Array.length text_labels then
            if Random.State.bool st then Buffer.add_string b (l ^ ": ")
            else line (l ^ ":"))
        text_labels;
      if k = n / 2 then begin
        (* a data block between the two halves of the text *)
        line "  .data";
        line "dstart:";
        line
          (Printf.sprintf "  .word 0x%x, -1, dstart, %%hi(dstart), %%lo(dstart), 'Z'"
             (Random.State.bits st));
        line (Printf.sprintf "  .half 0x%x, -2" (Random.State.int st 0x10000));
        line "  .byte 1, 0xff, '\\n', '\\'', '\\\\'";
        line "  .ascii \"a#b//c\\t\\\"q\\\"\\\\\"";
        line "  .asciz \"z\\0y\\r\"  # trailing";
        line "  .string \"s, (t)\"";
        line (Printf.sprintf "  .align %d" (Random.State.int st 4));
        line (Printf.sprintf "  .space %d" (Random.State.int st 9));
        line (Printf.sprintf "  .zero %d" (Random.State.int st 9));
        line "  .align 3";
        line (Printf.sprintf "  .equ K1, %d" (Random.State.int st 100));
        line "  .set K2, K1 + 4 - (2)";
        line "  .word K1, K2, -K1";
        line "  .global dstart";
        line "  .text"
      end;
      line (indent () ^ render_instr st m shape ^ comment ()))
    items;
  line "  .data";
  line "  .org dstart + 0x400";
  line "dend: .word dend, _start";
  line "";
  Buffer.contents b

let golden_seeds = [ 1; 2; 3; 4; 5; 6 ]

(* The image, or the exact error, of one program. *)
let outcome_of src =
  match Asm.assemble src with
  | Ok p -> Digest.to_hex (Digest.string (Program.to_bytes p))
  | Error e -> Printf.sprintf "error line %d: %s" e.Asm.line e.Asm.message

(* Every mnemonic in every shape, valid or not, one program each: pins
   which shapes are accepted and the exact error for the rest. *)
let shape_matrix_outcomes () =
  let st = Random.State.make [| 0 |] in
  let mnemonics = "frobnicate" :: List.concat_map fst shape_table in
  List.concat_map
    (fun m ->
      List.map
        (fun shape ->
          outcome_of
            (Printf.sprintf
               "_start:\n  %s\nL0: L1: L2: L3: L4: L5: nop\n  .data\ndstart:\ndend: .word 0\n"
               (render_instr st m shape)))
        all_shapes)
    mnemonics

let corpus_images () =
  let open S4e_bmi in
  List.concat_map
    (fun k ->
      List.map
        (fun (v, tag) -> (k.Kernels.k_name ^ tag, Kernels.program k v ~n:24 ~seed:5))
        [ (Kernels.Base, "/base"); (Kernels.Bmi, "/bmi") ])
    Kernels.all
  @ List.concat_map
      (fun harts -> S4e_torture.Smp.suite ~harts ~rounds:3)
      [ 1; 2; 4 ]
  @ S4e_torture.Suites.arch_suite ~isa:Isa_module.all
  @ S4e_torture.Suites.unit_suite ~isa:Isa_module.all

let golden_expected =
  [ ("rothash/base", "d28d1fa9a8dafdd23a83285202059225");
    ("rothash/bmi", "cf0b6eae89edf7b7a5c2e7e481a1ac10");
    ("popcount/base", "d1f2432c0f5c6d53259509ac4ff797ab");
    ("popcount/bmi", "89219c92204327f7280a36c9644333d0");
    ("normalize/base", "7a0b6e990fe67778b6ebd0c2096623c4");
    ("normalize/bmi", "f64df3f875308a9cb6ade0ad8ab9a7f3");
    ("masking/base", "856a426c8b745566328de699c84842a8");
    ("masking/bmi", "91c4b7dda15f4731c411b88abb618d33");
    ("clamp/base", "82396dec2a37a93bf11e50413be6d4ea");
    ("clamp/bmi", "a8e77a75999952a461fb78fa39c805c7");
    ("bytes/base", "f29664397550fc3db127f06e97265c0e");
    ("bytes/bmi", "17066547ed725397bccb8c6db2457160");
    ("bitfield/base", "6b544491aa19a445cb4ac84cd454d094");
    ("bitfield/bmi", "ad31008faf5b8cba91886dfdd457e947");
    ("smp-spinlock-1x3", "e1d2d9ded6382399decf6ef584238d6d");
    ("smp-ipi-ring-1x3", "674efdefe20b6b11d6065d0459c0cb6e");
    ("smp-spinlock-2x3", "99cca8736c57a560c8744d8ac708e8dc");
    ("smp-ipi-ring-2x3", "b8c876ae8c40be4001a2564b9ffefa5f");
    ("smp-spinlock-4x3", "09afa8fdb9991ac4c877663af7825c17");
    ("smp-ipi-ring-4x3", "b1faa6a0f6f5c57abac4dfac704d384f");
    ("arch-I", "c0f9f05136759f25052c1f432b121d45");
    ("arch-M", "e62fae2bcef40389946d5def0be7a170");
    ("arch-A", "bbc857c3b3c3a862d84181511700a1b6");
    ("arch-F", "438e9e9243650b0841534d4ca51af7fc");
    ("arch-Zicsr", "abde01bf6cb79278362fa12efb0aae6a");
    ("arch-B", "e64fd06b9be3c15f8338c5476806ae9c");
    ("unit-gpr-walk", "c2d1085d2a536f8c294f6da5f9095270");
    ("unit-fpr-walk", "68726ae2d7d4a5f7645a0197b5333a4c");
    ("unit-csr-walk", "52ee6e1162c7bf36fa727ca7b996aa45");
    ("generated/1", "5a3ca759dfc6f8aa362c55f9314cc69c");
    ("generated/2", "2292d8b92c09c209f7062c7dece888b1");
    ("generated/3", "3779f3b1514fff4a83465c65cec768ee");
    ("generated/4", "6bfa9f80fd09829d5864bdac9dfe1993");
    ("generated/5", "2badda7dd893f5086f03debdcd700ee2");
    ("generated/6", "7d82464e499d0c6014fba7178fa302f3");
    ("shape-matrix", "640e324fd7818ffd7ca873329cc1a23e") ]

let golden_actual () =
  List.map
    (fun (name, p) -> (name, Digest.to_hex (Digest.string (Program.to_bytes p))))
    (corpus_images ())
  @ List.map
      (fun seed ->
        (Printf.sprintf "generated/%d" seed, outcome_of (golden_source seed)))
      golden_seeds
  @ [ ( "shape-matrix",
        Digest.to_hex (Digest.string (String.concat "\n" (shape_matrix_outcomes ())))
      ) ]

let test_golden_images () =
  let actual = golden_actual () in
  if actual <> golden_expected then
    Alcotest.failf "golden images differ; this build gives:\n%s"
      (String.concat "\n"
         (List.map (fun (n, d) -> Printf.sprintf "    (%S, %S);" n d) actual))

let test_golden_covers_every_mnemonic () =
  let covered = List.concat_map fst shape_table in
  List.iter
    (fun m ->
      if not (List.mem m covered) then
        Alcotest.failf "mnemonic %S has no shape in the golden corpus" m)
    (Builder.known_mnemonics ());
  List.iter
    (fun seed ->
      match Asm.assemble (golden_source seed) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed %d: %a" seed Asm.pp_error e)
    golden_seeds

(* ---------------- bounded host cost ---------------- *)

let bound = Asm.max_image_bytes

let test_image_bound () =
  let over = Printf.sprintf "image grows past the %d-byte image bound" bound in
  expect_error "_start:\n  nop\n  .space 1000000000000\n" 3 over;
  expect_error "  .data\n  .zero 4611686018427387903\n" 2 over;
  (* exactly at the bound is fine, one byte more is not *)
  (match Asm.assemble (Printf.sprintf "_start:\n  nop\n  .space %d\n" (bound - 4)) with
  | Ok p -> Alcotest.(check int) "image size" bound (Program.size p)
  | Error e -> Alcotest.failf "at the bound: %a" Asm.pp_error e);
  expect_error (Printf.sprintf "_start:\n  nop\n  .space %d\n  .byte 1\n" (bound - 4)) 4 over;
  (* padding counts: each misaligned .align 15 pads almost 32 KiB *)
  let pads = String.concat "" (List.init 600 (fun _ -> "  .byte 1\n  .align 15\n")) in
  expect_error pads 1025 over;
  (* .org may not jump further than the bound, either way *)
  let org = ".org moves the cursor past the 16777216-byte image bound" in
  expect_error "_start:\n  .org 0x90000000\n" 2 org;
  expect_error "  .data\n  .org 0\n" 2 org;
  match Asm.assemble (Printf.sprintf "  .org 0x80000000 + %d\n_start:\n  nop\n" bound) with
  | Ok p -> Alcotest.(check int) "org at the bound" (0x80000000 + bound) p.Program.entry
  | Error e -> Alcotest.failf ".org at the bound: %a" Asm.pp_error e

let test_expression_depth () =
  let deep = "expression nested too deeply (over 256 levels)" in
  let nest n = String.make n '(' ^ "1" ^ String.make n ')' in
  (match Asm.assemble ("_start:\n  li a0, " ^ nest 200 ^ "\n") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "200 levels: %a" Asm.pp_error e);
  expect_error ("_start:\n  li a0, " ^ nest 300 ^ "\n") 2 deep;
  expect_error ("_start:\n  li a0, " ^ nest 1_000_000 ^ "\n") 2 deep;
  expect_error ("_start:\n  .word " ^ String.make 1_000_000 '-' ^ "1\n") 2 deep;
  expect_error
    ("_start:\n  li a0, " ^ String.concat " + " (List.init 100_000 (fun _ -> "1")) ^ "\n")
    2 deep;
  expect_error
    ("_start:\n  lui a0, " ^ String.concat "" (List.init 1_000 (fun _ -> "%hi("))
     ^ "1" ^ String.make 1_000 ')' ^ "\n")
    2 deep

(* Mutation fuzz over valid programs: assembly returns [Ok] or a typed
   [Error], never raises, and its cost stays bounded whatever the bytes
   say. *)
let fuzz_corpus =
  lazy
    (Array.of_list
       (List.map golden_source golden_seeds
       @ List.map
           (fun k -> k.S4e_bmi.Kernels.k_source S4e_bmi.Kernels.Bmi ~n:8 ~seed:2)
           S4e_bmi.Kernels.all))

let hostile =
  [| ".space 99999999999999"; ".zero 16777217"; ".align 15"; ".org 0"; ".org 0xFFFFFFFFFF";
     String.make 5000 '('; String.make 5000 '-' ^ "1"; "%hi(%lo(%hi(1)))"; "\"";
     ".word 1, , 2"; "li a0, 0x"; ".equ X, X"; "l:l:l:"; "\r\x0c\t"; "#"; "//" |]

let mutate st src =
  let n = String.length src in
  let pos () = Random.State.int st (n + 1) in
  match Random.State.int st 4 with
  | 0 ->
      let b = Bytes.of_string src in
      for _ = 0 to Random.State.int st 8 do
        if n > 0 then Bytes.set b (Random.State.int st n) (Char.chr (Random.State.int st 256))
      done;
      Bytes.to_string b
  | 1 -> String.sub src 0 (pos ())
  | 2 ->
      (* splice a slice of another corpus program in *)
      let c = Lazy.force fuzz_corpus in
      let other = c.(Random.State.int st (Array.length c)) in
      let a = Random.State.int st (String.length other + 1) in
      let len = Random.State.int st (String.length other - a + 1) in
      let p = pos () in
      String.sub src 0 p ^ String.sub other a len ^ String.sub src p (n - p)
  | _ ->
      let p = pos () in
      String.sub src 0 p ^ "\n  " ^ hostile.(Random.State.int st (Array.length hostile))
      ^ "\n" ^ String.sub src p (n - p)

let fuzz_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"assemble never raises on mutated programs" ~count:500
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let c = Lazy.force fuzz_corpus in
         let src = ref c.(Random.State.int st (Array.length c)) in
         for _ = 0 to Random.State.int st 3 do
           src := mutate st !src
         done;
         match Asm.assemble !src with Ok _ | Error _ -> true))

let props =
  [ fuzz_prop;
    prop "disassemble_word never raises" Gen.word32 (fun w ->
        ignore (Disasm.disassemble_word w);
        true);
    prop "of_bytes never raises on fuzz" QCheck.string (fun s ->
        (match Program.of_bytes s with Ok _ | Error _ -> ());
        (match Program.of_bytes ("S4EP" ^ s) with Ok _ | Error _ -> ());
        true);
    prop "image format roundtrips torture programs"
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5000))
      (fun seed ->
        let p =
          S4e_torture.Torture.generate
            { S4e_torture.Torture.default_config with seed; segments = 6 }
        in
        match Program.of_bytes (Program.to_bytes p) with
        | Ok p' -> p = p'
        | Error _ -> false);
    prop "assembler output decodes" Gen.instr (fun i ->
        (* render with the pretty printer, reparse, re-encode *)
        match i with
        | Instr.Jal _ | Instr.Jalr _ | Instr.Branch _ | Instr.Csr _ ->
            true (* pc-relative / csr-name rendering handled in directed tests *)
        | _ -> (
            let src = "_start:\n  " ^ Instr.to_string i ^ "\n" in
            match Asm.assemble src with
            | Ok p -> (
                let mem = S4e_mem.Sparse_mem.create () in
                Program.load p mem;
                match
                  Decode.decode (S4e_mem.Sparse_mem.read32 mem p.Program.entry)
                with
                | Some i' -> Instr.equal i i'
                | None -> false)
            | Error _ -> false)) ]

let () =
  Alcotest.run "asm"
    [ ( "assembler",
        [ Alcotest.test_case "simple program" `Quick test_simple_program;
          Alcotest.test_case "expressions" `Quick test_expressions;
          Alcotest.test_case "hi/lo" `Quick test_hi_lo;
          Alcotest.test_case "pseudo expansion" `Quick test_pseudo_expansions;
          Alcotest.test_case "li selection" `Quick test_li_selection;
          Alcotest.test_case "branch pseudos" `Quick test_branch_pseudos;
          Alcotest.test_case "data directives" `Quick test_data_directives;
          Alcotest.test_case "org and sections" `Quick test_org_and_sections;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "comments/whitespace" `Quick
            test_comments_and_whitespace;
          Alcotest.test_case "error line numbers" `Quick
            test_line_numbers_in_errors ] );
      ( "bounds",
        [ Alcotest.test_case "image bound" `Quick test_image_bound;
          Alcotest.test_case "expression depth" `Quick test_expression_depth ] );
      ( "golden",
        [ Alcotest.test_case "corpus covers every mnemonic" `Quick
            test_golden_covers_every_mnemonic;
          Alcotest.test_case "image digests" `Quick test_golden_images ] );
      ( "disassembler",
        [ Alcotest.test_case "directed roundtrip" `Quick
            test_disasm_roundtrip_directed ] );
      ( "image-format",
        [ Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_image_rejects_garbage ] );
      ("properties", props) ]
