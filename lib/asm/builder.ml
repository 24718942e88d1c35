open S4e_isa
open S4e_isa.Instr
open Source

exception Build_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Build_error s)) fmt

(* ---------------- operand shape helpers ---------------- *)

let reg = function
  | Oreg r -> r
  | o ->
      fail "expected a register, got %s"
        (match o with
        | Ofreg _ -> "an FP register"
        | Oimm _ -> "an immediate"
        | Omem _ -> "a memory operand"
        | Ostr _ -> "a string"
        | Oreg _ -> assert false)

let freg = function
  | Ofreg r -> r
  | Oreg _ -> fail "expected an FP register, got an integer register"
  | _ -> fail "expected an FP register"

let imm = function
  | Oimm e -> e
  | Oreg r -> fail "expected an immediate, got register %s" (Reg.abi_name r)
  | _ -> fail "expected an immediate"

let mem = function
  | Omem (off, base) -> (off, base)
  | Oimm e -> (e, Reg.zero)  (* bare address: offset from x0 *)
  | _ -> fail "expected a memory operand offset(base)"

let check_signed ~bits what v =
  if v < -(1 lsl (bits - 1)) || v >= 1 lsl (bits - 1) then
    fail "%s %d does not fit in %d signed bits" what v bits;
  v

let check_branch_off v =
  if v land 1 <> 0 then fail "branch target is not 2-byte aligned";
  ignore (check_signed ~bits:13 "branch offset" v);
  v

let check_jal_off v =
  if v land 1 <> 0 then fail "jump target is not 2-byte aligned";
  ignore (check_signed ~bits:21 "jump offset" v);
  v

let check_shamt v =
  if v < 0 || v > 31 then fail "shift amount %d out of range" v;
  v

let check_u20 what v =
  if v < 0 || v >= 1 lsl 20 then fail "%s %d does not fit in 20 bits" what v;
  v

(* A CSR operand is a name ("mstatus") or a numeric expression. *)
let csr_of ~eval e =
  match e with
  | Sym s -> (
      match Csr.of_name s with
      | Some a -> a
      | None ->
          let v = eval e in
          if Csr.valid v then v else fail "bad CSR %s" s)
  | _ ->
      let v = eval e in
      if Csr.valid v then v else fail "bad CSR address 0x%x" v

let fits12 v = v >= -2048 && v < 2048

(* Constant folding over symbol-free expressions; used to pick the li
   expansion without consulting the (pass-dependent) symbol table, so
   pass 1 and pass 2 always agree. *)
let rec try_eval_const = function
  | Num n -> Some n
  | Sym _ -> None
  | Neg e -> Option.map (fun v -> -v) (try_eval_const e)
  | Add (a, b) -> (
      match (try_eval_const a, try_eval_const b) with
      | Some x, Some y -> Some (x + y)
      | _, _ -> None)
  | Sub (a, b) -> (
      match (try_eval_const a, try_eval_const b) with
      | Some x, Some y -> Some (x - y)
      | _, _ -> None)
  | Hi _ | Lo _ -> None

let li_size e =
  match try_eval_const e with Some n when fits12 n -> 4 | Some _ | None -> 8

let hi20 v = ((v + 0x800) lsr 12) land 0xFFFFF
let lo12 v = S4e_bits.Bits.(to_signed (sext ~width:12 v))

(* ---------------- the mnemonic table ----------------

   One entry per mnemonic: its size rule (pass 1) and its build
   function (pass 2).  A size rule raises for shapes whose size it
   cannot know; a build function raises for every shape it does not
   accept.  Real instructions and most pseudos are one word whatever
   their operands, so a bad shape surfaces in pass 2 as "bad operands". *)

type spec = {
  size : operand list -> int;
  build : operand list -> pc:int -> eval:(expr -> int) -> Instr.t list;
}

let bad m ops = fail "bad operands for %S (%d operands)" m (List.length ops)
let word build = { size = (fun _ -> 4); build }

(* [family ops f]: one one-word entry per (mnemonic, opcode) pair. *)
let family ops f = List.map (fun (m, op) -> (m, word (f m op))) ops

let specs =
  List.concat
    [ family
        [ ("add", ADD); ("sub", SUB); ("sll", SLL); ("slt", SLT); ("sltu", SLTU);
          ("xor", XOR); ("srl", SRL); ("sra", SRA); ("or", OR); ("and", AND);
          ("mul", MUL); ("mulh", MULH); ("mulhsu", MULHSU); ("mulhu", MULHU);
          ("div", DIV); ("divu", DIVU); ("rem", REM); ("remu", REMU);
          ("andn", ANDN); ("orn", ORN); ("xnor", XNOR); ("rol", ROL); ("ror", ROR);
          ("min", MIN); ("max", MAX); ("minu", MINU); ("maxu", MAXU);
          ("bset", BSET); ("bclr", BCLR); ("binv", BINV); ("bext", BEXT) ]
        (fun m op ops ~pc:_ ~eval:_ ->
          match ops with
          | [ rd; rs1; rs2 ] -> [ Op (op, reg rd, reg rs1, reg rs2) ]
          | _ -> bad m ops);
      family
        [ ("addi", ADDI); ("slti", SLTI); ("sltiu", SLTIU); ("xori", XORI);
          ("ori", ORI); ("andi", ANDI) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ rd; rs1; i ] ->
              [ Op_imm (op, reg rd, reg rs1,
                        check_signed ~bits:12 "immediate" (eval (imm i))) ]
          | _ -> bad m ops);
      family
        [ ("slli", SLLI); ("srli", SRLI); ("srai", SRAI); ("rori", RORI);
          ("bseti", BSETI); ("bclri", BCLRI); ("binvi", BINVI); ("bexti", BEXTI) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ rd; rs1; i ] ->
              [ Shift_imm (op, reg rd, reg rs1, check_shamt (eval (imm i))) ]
          | _ -> bad m ops);
      family
        [ ("clz", CLZ); ("ctz", CTZ); ("cpop", CPOP); ("sext.b", SEXT_B);
          ("sext.h", SEXT_H); ("zext.h", ZEXT_H); ("rev8", REV8); ("orc.b", ORC_B) ]
        (fun m op ops ~pc:_ ~eval:_ ->
          match ops with
          | [ rd; rs1 ] -> [ Unary (op, reg rd, reg rs1) ]
          | _ -> bad m ops);
      family
        [ ("lb", LB); ("lh", LH); ("lw", LW); ("lbu", LBU); ("lhu", LHU) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ rd; addr ] ->
              let off, base = mem addr in
              [ Load (op, reg rd, base, check_signed ~bits:12 "load offset" (eval off)) ]
          | _ -> bad m ops);
      family
        [ ("sb", SB); ("sh", SH); ("sw", SW) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ src; addr ] ->
              let off, base = mem addr in
              [ Store (op, reg src, base, check_signed ~bits:12 "store offset" (eval off)) ]
          | _ -> bad m ops);
      (* branches, including the pseudos that swap their operands *)
      List.map
        (fun (m, op, swap) ->
          ( m,
            word (fun ops ~pc ~eval ->
                match ops with
                | [ rs1; rs2; t ] ->
                    let rs1, rs2 = if swap then (rs2, rs1) else (rs1, rs2) in
                    [ Branch (op, reg rs1, reg rs2,
                              check_branch_off (eval (imm t) - pc)) ]
                | _ -> bad m ops) ))
        [ ("beq", BEQ, false); ("bne", BNE, false); ("blt", BLT, false);
          ("bge", BGE, false); ("bltu", BLTU, false); ("bgeu", BGEU, false);
          ("bgt", BLT, true); ("ble", BGE, true); ("bgtu", BLTU, true);
          ("bleu", BGEU, true) ];
      (* branches against zero: (pseudo, real, zero first) *)
      List.map
        (fun (m, op, zero_first) ->
          ( m,
            word (fun ops ~pc ~eval ->
                match ops with
                | [ rs1; t ] ->
                    let off = check_branch_off (eval (imm t) - pc) in
                    if zero_first then [ Branch (op, Reg.zero, reg rs1, off) ]
                    else [ Branch (op, reg rs1, Reg.zero, off) ]
                | _ -> bad m ops) ))
        [ ("beqz", BEQ, false); ("bnez", BNE, false); ("bltz", BLT, false);
          ("bgez", BGE, false); ("blez", BGE, true); ("bgtz", BLT, true) ];
      family
        [ ("csrrw", CSRRW); ("csrrs", CSRRS); ("csrrc", CSRRC);
          ("csrrwi", CSRRWI); ("csrrsi", CSRRSI); ("csrrci", CSRRCI) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ rd; c; s ] ->
              let addr = csr_of ~eval (imm c) in
              let src =
                match op with
                | CSRRW | CSRRS | CSRRC -> reg s
                | CSRRWI | CSRRSI | CSRRCI ->
                    let v = eval (imm s) in
                    if v < 0 || v > 31 then fail "CSR immediate %d out of range" v;
                    v
              in
              [ Csr (op, reg rd, addr, src) ]
          | _ -> bad m ops);
      family
        [ ("fadd.s", FADD); ("fsub.s", FSUB); ("fmul.s", FMUL); ("fdiv.s", FDIV);
          ("fmin.s", FMIN); ("fmax.s", FMAX); ("fsgnj.s", FSGNJ);
          ("fsgnjn.s", FSGNJN); ("fsgnjx.s", FSGNJX) ]
        (fun m op ops ~pc:_ ~eval:_ ->
          match ops with
          | [ rd; rs1; rs2 ] -> [ Fp_op (op, freg rd, freg rs1, freg rs2) ]
          | _ -> bad m ops);
      family
        [ ("feq.s", FEQ); ("flt.s", FLT); ("fle.s", FLE) ]
        (fun m op ops ~pc:_ ~eval:_ ->
          match ops with
          | [ rd; rs1; rs2 ] -> [ Fp_cmp (op, reg rd, freg rs1, freg rs2) ]
          | _ -> bad m ops);
      (* atomics: the address operand is (reg) or offset-0 memory syntax *)
      family
        [ ("amoswap.w", AMOSWAP); ("amoadd.w", AMOADD); ("amoxor.w", AMOXOR);
          ("amoand.w", AMOAND); ("amoor.w", AMOOR); ("amomin.w", AMOMIN);
          ("amomax.w", AMOMAX); ("amominu.w", AMOMINU); ("amomaxu.w", AMOMAXU) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ rd; src; addr ] ->
              let off, base = mem addr in
              if eval off <> 0 then fail "%s takes a plain (reg) address" m;
              [ Amo (op, reg rd, reg src, base) ]
          | _ -> bad m ops);
      family
        [ ("fence", Fence); ("fence.i", Fence_i); ("ecall", Ecall);
          ("ebreak", Ebreak); ("mret", Mret); ("wfi", Wfi);
          ("nop", Op_imm (ADDI, Reg.zero, Reg.zero, 0));
          ("ret", Jalr (Reg.zero, Reg.ra, 0)) ]
        (fun m i ops ~pc:_ ~eval:_ -> match ops with [] -> [ i ] | _ -> bad m ops);
      (* two-register pseudos and FP moves/conversions *)
      family
        [ ("mv", fun rd rs -> Op_imm (ADDI, reg rd, reg rs, 0));
          ("not", fun rd rs -> Op_imm (XORI, reg rd, reg rs, -1));
          ("neg", fun rd rs -> Op (SUB, reg rd, Reg.zero, reg rs));
          ("seqz", fun rd rs -> Op_imm (SLTIU, reg rd, reg rs, 1));
          ("snez", fun rd rs -> Op (SLTU, reg rd, Reg.zero, reg rs));
          ("sltz", fun rd rs -> Op (SLT, reg rd, reg rs, Reg.zero));
          ("sgtz", fun rd rs -> Op (SLT, reg rd, Reg.zero, reg rs));
          ("fsqrt.s", fun rd rs1 -> Fsqrt (freg rd, freg rs1));
          ("fcvt.w.s", fun rd rs1 -> Fcvt_w_s (reg rd, freg rs1, false));
          ("fcvt.wu.s", fun rd rs1 -> Fcvt_w_s (reg rd, freg rs1, true));
          ("fcvt.s.w", fun rd rs1 -> Fcvt_s_w (freg rd, reg rs1, false));
          ("fcvt.s.wu", fun rd rs1 -> Fcvt_s_w (freg rd, reg rs1, true));
          ("fmv.x.w", fun rd rs1 -> Fmv_x_w (reg rd, freg rs1));
          ("fmv.w.x", fun rd rs1 -> Fmv_w_x (freg rd, reg rs1));
          ("fmv.s", fun rd rs1 -> let s = freg rs1 in Fp_op (FSGNJ, freg rd, s, s));
          ("fabs.s", fun rd rs1 -> let s = freg rs1 in Fp_op (FSGNJX, freg rd, s, s));
          ("fneg.s", fun rd rs1 -> let s = freg rs1 in Fp_op (FSGNJN, freg rd, s, s)) ]
        (fun m f ops ~pc:_ ~eval:_ ->
          match ops with [ rd; rs ] -> [ f rd rs ] | _ -> bad m ops);
      (* FP loads and stores *)
      family
        [ ("flw", fun rd base off -> Flw (freg rd, base, check_signed ~bits:12 "load offset" off));
          ("fsw", fun src base off -> Fsw (freg src, base, check_signed ~bits:12 "store offset" off)) ]
        (fun m f ops ~pc:_ ~eval ->
          match ops with
          | [ r; addr ] ->
              let off, base = mem addr in
              [ f r base (eval off) ]
          | _ -> bad m ops);
      (* CSR aliases *)
      [ ("csrr",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rd; c ] -> [ Csr (CSRRS, reg rd, csr_of ~eval (imm c), Reg.zero) ]
             | _ -> bad "csrr" ops)) ];
      family
        [ ("csrw", CSRRW); ("csrs", CSRRS); ("csrc", CSRRC) ]
        (fun m op ops ~pc:_ ~eval ->
          match ops with
          | [ c; s ] -> [ Csr (op, Reg.zero, csr_of ~eval (imm c), reg s) ]
          | _ -> bad m ops);
      (* jumps *)
      family
        [ ("j", Reg.zero); ("call", Reg.ra) ]
        (fun m rd ops ~pc ~eval ->
          match ops with
          | [ t ] -> [ Jal (rd, check_jal_off (eval (imm t) - pc)) ]
          | _ -> bad m ops);
      [ ("jal",
         word (fun ops ~pc ~eval ->
             match ops with
             | [ t ] -> [ Jal (Reg.ra, check_jal_off (eval (imm t) - pc)) ]
             | [ rd; t ] -> [ Jal (reg rd, check_jal_off (eval (imm t) - pc)) ]
             | _ -> bad "jal" ops));
        ("jalr",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rs1 ] -> [ Jalr (Reg.ra, reg rs1, 0) ]
             | [ rd; Omem (off, base) ] ->
                 [ Jalr (reg rd, base, check_signed ~bits:12 "jalr offset" (eval off)) ]
             | [ rd; rs1; i ] ->
                 [ Jalr (reg rd, reg rs1,
                         check_signed ~bits:12 "jalr offset" (eval (imm i))) ]
             | _ -> bad "jalr" ops));
        ("jr",
         word (fun ops ~pc:_ ~eval:_ ->
             match ops with
             | [ rs1 ] -> [ Jalr (Reg.zero, reg rs1, 0) ]
             | _ -> bad "jr" ops));
        (* upper immediates *)
        ("lui",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rd; i ] -> [ Lui (reg rd, check_u20 "lui immediate" (eval (imm i))) ]
             | _ -> bad "lui" ops));
        ("auipc",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rd; i ] -> [ Auipc (reg rd, check_u20 "auipc immediate" (eval (imm i))) ]
             | _ -> bad "auipc" ops));
        ("lr.w",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rd; addr ] ->
                 let off, base = mem addr in
                 if eval off <> 0 then fail "lr.w takes a plain (reg) address";
                 [ Lr (reg rd, base) ]
             | _ -> bad "lr.w" ops));
        ("sc.w",
         word (fun ops ~pc:_ ~eval ->
             match ops with
             | [ rd; src; addr ] ->
                 let off, base = mem addr in
                 if eval off <> 0 then fail "sc.w takes a plain (reg) address";
                 [ Sc (reg rd, reg src, base) ]
             | _ -> bad "sc.w" ops));
        (* li / la: the only multi-word pseudos; a shape whose size is
           unknown is rejected as an unknown mnemonic in pass 1 *)
        ("li",
         { size =
             (function [ _; Oimm e ] -> li_size e | _ -> fail "unknown mnemonic %S" "li");
           build =
             (fun ops ~pc:_ ~eval ->
               match ops with
               | [ rd; Oimm e ] ->
                   let v = eval e land 0xFFFF_FFFF in
                   if li_size e = 4 then [ Op_imm (ADDI, reg rd, Reg.zero, eval e) ]
                   else
                     let hi = hi20 v and lo = lo12 v in
                     let rd = reg rd in
                     [ Lui (rd, hi); Op_imm (ADDI, rd, rd, lo) ]
               | _ -> bad "li" ops) });
        ("la",
         { size = (function [ _; _ ] -> 8 | _ -> fail "unknown mnemonic %S" "la");
           build =
             (fun ops ~pc:_ ~eval ->
               match ops with
               | [ rd; a ] ->
                   let v = eval (imm a) land 0xFFFF_FFFF in
                   let hi = hi20 v and lo = lo12 v in
                   let rd = reg rd in
                   [ Lui (rd, hi); Op_imm (ADDI, rd, rd, lo) ]
               | _ -> bad "la" ops) }) ] ]

module Mnemonics = Hashtbl.Make (String)

let table =
  let t = Mnemonics.create 256 in
  List.iter (fun (m, spec) -> Mnemonics.replace t m spec) specs;
  t

let size_of mnemonic operands =
  match Mnemonics.find_opt table mnemonic with
  | Some spec -> spec.size operands
  | None -> fail "unknown mnemonic %S" mnemonic

let build mnemonic operands ~pc ~eval =
  match Mnemonics.find_opt table mnemonic with
  | Some spec -> spec.build operands ~pc ~eval
  | None -> bad mnemonic operands

let known_mnemonics () = List.map fst specs
