open Instr

type word = int

type spec = {
  name : string;
  mask : word;
  value : word;
  operands : word -> Instr.t;
}

type node =
  | Leaf of spec array
  | Switch of {
      bit_mask : word;  (* the field bits this node switches on *)
      positions : int array;  (* their positions, ascending *)
      table : node array;  (* indexed by the extracted field value *)
    }

type t = node

(* Extract the bits selected by [positions] (ascending) into a dense
   integer: position.(0) becomes bit 0 of the result. *)
let extract positions w =
  let r = ref 0 in
  for i = Array.length positions - 1 downto 0 do
    r := (!r lsl 1) lor ((w lsr positions.(i)) land 1)
  done;
  !r

let positions_of_mask m =
  let rec go i acc = if i > 31 then List.rev acc
    else go (i + 1) (if (m lsr i) land 1 = 1 then i :: acc else acc)
  in
  Array.of_list (go 0 [])

let check_overlap rows =
  let overlaps a b =
    let common = a.mask land b.mask in
    a.value land common = b.value land common
  in
  let rec go = function
    | [] -> None
    | r :: rest -> (
        match List.find_opt (overlaps r) rest with
        | Some other -> Some (r.name, other.name)
        | None -> go rest)
  in
  go rows

(* Maximum field width switched on by one node; wider common masks are
   split across nested nodes to bound table sizes at 256 entries. *)
let max_switch_bits = 8

let compile rows =
  List.iter
    (fun r ->
      if r.value land r.mask <> r.value then
        invalid_arg
          (Printf.sprintf "Decodetree.compile: row %s has value bits outside \
                           its mask" r.name))
    rows;
  (match check_overlap rows with
  | Some (a, b) ->
      invalid_arg
        (Printf.sprintf "Decodetree.compile: rows %s and %s overlap" a b)
  | None -> ());
  (* [remaining] maps each row to the mask bits not yet consumed by
     enclosing switch nodes. *)
  let rec build (pairs : (spec * word) list) =
    match pairs with
    | [] -> Leaf [||]
    | _ when List.length pairs <= 2 ->
        Leaf (Array.of_list (List.map fst pairs))
    | _ ->
        let common =
          List.fold_left (fun acc (_, rem) -> acc land rem) 0xFFFF_FFFF pairs
        in
        if common = 0 then Leaf (Array.of_list (List.map fst pairs))
        else
          let all_positions = positions_of_mask common in
          let take = min max_switch_bits (Array.length all_positions) in
          let positions = Array.sub all_positions 0 take in
          let bit_mask =
            Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 positions
          in
          let buckets = Hashtbl.create 16 in
          List.iter
            (fun (row, rem) ->
              let key = extract positions row.value in
              let prev =
                Option.value (Hashtbl.find_opt buckets key) ~default:[]
              in
              Hashtbl.replace buckets key
                ((row, rem land lnot bit_mask) :: prev))
            pairs;
          let table = Array.make (1 lsl take) (Leaf [||]) in
          Hashtbl.iter
            (fun key sub -> table.(key) <- build (List.rev sub))
            buckets;
          Switch { bit_mask; positions; table }
  in
  build (List.map (fun r -> (r, r.mask)) rows)

let decode tree w =
  if w land 0x3 <> 0x3 then None
  else
    let rec go = function
      | Leaf rows ->
          let n = Array.length rows in
          let rec scan i =
            if i >= n then None
            else
              let r = Array.unsafe_get rows i in
              if w land r.mask = r.value then Some (r.operands w)
              else scan (i + 1)
          in
          scan 0
      | Switch { positions; table; _ } -> go table.(extract positions w)
    in
    go tree

type stats = { rows : int; switch_nodes : int; leaves : int; max_depth : int;
               max_leaf_width : int }

let stats tree =
  let switch_nodes = ref 0 and leaves = ref 0 in
  let max_depth = ref 0 and max_leaf_width = ref 0 and rows = ref 0 in
  let rec go depth = function
    | Leaf rs ->
        incr leaves;
        rows := !rows + Array.length rs;
        if depth > !max_depth then max_depth := depth;
        if Array.length rs > !max_leaf_width then
          max_leaf_width := Array.length rs
    | Switch { table; _ } ->
        incr switch_nodes;
        Array.iter (go (depth + 1)) table
  in
  go 0 tree;
  { rows = !rows; switch_nodes = !switch_nodes; leaves = !leaves;
    max_depth = !max_depth; max_leaf_width = !max_leaf_width }

(* ------------------------------------------------------------------ *)
(* The RV32 row table.  Masks follow the encoding formats:
   - opcode only                       0x0000007F
   - opcode + funct3                   0x0000707F
   - opcode + funct3 + funct7          0xFE00707F
   - opcode + funct3 + imm12/funct12   0xFFF0707F
   - exact word                        0xFFFFFFFF *)

let m_op = 0x0000_007F
let m_f3 = 0x0000_707F
let m_f7 = 0xFE00_707F
let m_i12 = 0xFFF0_707F
let m_exact = 0xFFFF_FFFF

let v ~opcode ?(funct3 = 0) ?(funct7 = 0) ?(rs2 = 0) () =
  (funct7 lsl 25) lor (rs2 lsl 20) lor (funct3 lsl 12) lor opcode

let row name mask value operands = { name; mask; value; operands }

let r_ops f w = f (Fields.rd w) (Fields.rs1 w) (Fields.rs2 w)

let rv32_rows =
  let op_rows =
    List.map
      (fun (name, f3, f7, op) ->
        row name m_f7
          (v ~opcode:0x33 ~funct3:f3 ~funct7:f7 ())
          (r_ops (fun rd rs1 rs2 -> Op (op, rd, rs1, rs2))))
      [ ("add", 0, 0x00, ADD); ("sub", 0, 0x20, SUB); ("sll", 1, 0x00, SLL);
        ("slt", 2, 0x00, SLT); ("sltu", 3, 0x00, SLTU); ("xor", 4, 0x00, XOR);
        ("srl", 5, 0x00, SRL); ("sra", 5, 0x20, SRA); ("or", 6, 0x00, OR);
        ("and", 7, 0x00, AND); ("mul", 0, 0x01, MUL); ("mulh", 1, 0x01, MULH);
        ("mulhsu", 2, 0x01, MULHSU); ("mulhu", 3, 0x01, MULHU);
        ("div", 4, 0x01, DIV); ("divu", 5, 0x01, DIVU); ("rem", 6, 0x01, REM);
        ("remu", 7, 0x01, REMU); ("andn", 7, 0x20, ANDN);
        ("orn", 6, 0x20, ORN); ("xnor", 4, 0x20, XNOR); ("rol", 1, 0x30, ROL);
        ("ror", 5, 0x30, ROR); ("min", 4, 0x05, MIN); ("minu", 5, 0x05, MINU);
        ("max", 6, 0x05, MAX); ("maxu", 7, 0x05, MAXU);
        ("bset", 1, 0x14, BSET); ("bclr", 1, 0x24, BCLR);
        ("binv", 1, 0x34, BINV); ("bext", 5, 0x24, BEXT) ]
  in
  let op_imm_rows =
    List.map
      (fun (name, f3, op) ->
        row name m_f3
          (v ~opcode:0x13 ~funct3:f3 ())
          (fun w -> Op_imm (op, Fields.rd w, Fields.rs1 w, Fields.i_imm w)))
      [ ("addi", 0, ADDI); ("slti", 2, SLTI); ("sltiu", 3, SLTIU);
        ("xori", 4, XORI); ("ori", 6, ORI); ("andi", 7, ANDI) ]
  in
  let shift_rows =
    List.map
      (fun (name, f3, f7, op) ->
        row name m_f7
          (v ~opcode:0x13 ~funct3:f3 ~funct7:f7 ())
          (fun w -> Shift_imm (op, Fields.rd w, Fields.rs1 w, Fields.shamt w)))
      [ ("slli", 1, 0x00, SLLI); ("srli", 5, 0x00, SRLI);
        ("srai", 5, 0x20, SRAI); ("rori", 5, 0x30, RORI);
        ("bseti", 1, 0x14, BSETI); ("bclri", 1, 0x24, BCLRI);
        ("binvi", 1, 0x34, BINVI); ("bexti", 5, 0x24, BEXTI) ]
  in
  let unary_rows =
    List.map
      (fun (name, f3, f7, rs2, op) ->
        row name m_i12
          (v ~opcode:0x13 ~funct3:f3 ~funct7:f7 ~rs2 ())
          (fun w -> Unary (op, Fields.rd w, Fields.rs1 w)))
      [ ("clz", 1, 0x30, 0, CLZ); ("ctz", 1, 0x30, 1, CTZ);
        ("cpop", 1, 0x30, 2, CPOP); ("sext.b", 1, 0x30, 4, SEXT_B);
        ("sext.h", 1, 0x30, 5, SEXT_H); ("rev8", 5, 0x34, 0x18, REV8);
        ("orc.b", 5, 0x14, 0x07, ORC_B) ]
  in
  let load_rows =
    List.map
      (fun (name, f3, op) ->
        row name m_f3
          (v ~opcode:0x03 ~funct3:f3 ())
          (fun w -> Load (op, Fields.rd w, Fields.rs1 w, Fields.i_imm w)))
      [ ("lb", 0, LB); ("lh", 1, LH); ("lw", 2, LW); ("lbu", 4, LBU);
        ("lhu", 5, LHU) ]
  in
  let store_rows =
    List.map
      (fun (name, f3, op) ->
        row name m_f3
          (v ~opcode:0x23 ~funct3:f3 ())
          (fun w -> Store (op, Fields.rs2 w, Fields.rs1 w, Fields.s_imm w)))
      [ ("sb", 0, SB); ("sh", 1, SH); ("sw", 2, SW) ]
  in
  let branch_rows =
    List.map
      (fun (name, f3, op) ->
        row name m_f3
          (v ~opcode:0x63 ~funct3:f3 ())
          (fun w -> Branch (op, Fields.rs1 w, Fields.rs2 w, Fields.b_imm w)))
      [ ("beq", 0, BEQ); ("bne", 1, BNE); ("blt", 4, BLT); ("bge", 5, BGE);
        ("bltu", 6, BLTU); ("bgeu", 7, BGEU) ]
  in
  let csr_rows =
    List.map
      (fun (name, f3, op) ->
        row name m_f3
          (v ~opcode:0x73 ~funct3:f3 ())
          (fun w -> Csr (op, Fields.rd w, Fields.csr w, Fields.rs1 w)))
      [ ("csrrw", 1, CSRRW); ("csrrs", 2, CSRRS); ("csrrc", 3, CSRRC);
        ("csrrwi", 5, CSRRWI); ("csrrsi", 6, CSRRSI); ("csrrci", 7, CSRRCI) ]
  in
  let fp_arith_rows =
    (* funct3 is the rounding mode and is ignored by our FP model, so
       the mask excludes it, as the hand decoder does. *)
    List.map
      (fun (name, f7, op) ->
        row name 0xFE00_007F
          (v ~opcode:0x53 ~funct7:f7 ())
          (r_ops (fun rd rs1 rs2 -> Fp_op (op, rd, rs1, rs2))))
      [ ("fadd.s", 0x00, FADD); ("fsub.s", 0x04, FSUB);
        ("fmul.s", 0x08, FMUL); ("fdiv.s", 0x0C, FDIV) ]
  in
  let fp_f3_rows =
    List.map
      (fun (name, f3, f7, build) -> row name m_f7 (v ~opcode:0x53 ~funct3:f3 ~funct7:f7 ()) build)
      [ ("fsgnj.s", 0, 0x10, r_ops (fun rd rs1 rs2 -> Fp_op (FSGNJ, rd, rs1, rs2)));
        ("fsgnjn.s", 1, 0x10, r_ops (fun rd rs1 rs2 -> Fp_op (FSGNJN, rd, rs1, rs2)));
        ("fsgnjx.s", 2, 0x10, r_ops (fun rd rs1 rs2 -> Fp_op (FSGNJX, rd, rs1, rs2)));
        ("fmin.s", 0, 0x14, r_ops (fun rd rs1 rs2 -> Fp_op (FMIN, rd, rs1, rs2)));
        ("fmax.s", 1, 0x14, r_ops (fun rd rs1 rs2 -> Fp_op (FMAX, rd, rs1, rs2)));
        ("feq.s", 2, 0x50, r_ops (fun rd rs1 rs2 -> Fp_cmp (FEQ, rd, rs1, rs2)));
        ("flt.s", 1, 0x50, r_ops (fun rd rs1 rs2 -> Fp_cmp (FLT, rd, rs1, rs2)));
        ("fle.s", 0, 0x50, r_ops (fun rd rs1 rs2 -> Fp_cmp (FLE, rd, rs1, rs2))) ]
  in
  let amo_rows =
    (* funct5 (bits 31:27) discriminates; aq/rl (bits 26:25) are free *)
    let m_amo = 0xF800_707F in
    row "lr.w" 0xF9F0_707F
      (v ~opcode:0x2F ~funct3:2 ~funct7:(0x02 lsl 2) ())
      (fun w -> Lr (Fields.rd w, Fields.rs1 w))
    :: row "sc.w" m_amo
         (v ~opcode:0x2F ~funct3:2 ~funct7:(0x03 lsl 2) ())
         (fun w -> Sc (Fields.rd w, Fields.rs2 w, Fields.rs1 w))
    :: List.map
         (fun (name, funct5, op) ->
           row name m_amo
             (v ~opcode:0x2F ~funct3:2 ~funct7:(funct5 lsl 2) ())
             (r_ops (fun rd rs1 rs2 -> Amo (op, rd, rs2, rs1))))
         [ ("amoadd.w", 0x00, AMOADD); ("amoswap.w", 0x01, AMOSWAP);
           ("amoxor.w", 0x04, AMOXOR); ("amoor.w", 0x08, AMOOR);
           ("amoand.w", 0x0C, AMOAND); ("amomin.w", 0x10, AMOMIN);
           ("amomax.w", 0x14, AMOMAX); ("amominu.w", 0x18, AMOMINU);
           ("amomaxu.w", 0x1C, AMOMAXU) ]
  in
  let fp_unary_rows =
    List.map
      (fun (name, f7, rs2, build) ->
        row name m_i12 (v ~opcode:0x53 ~funct7:f7 ~rs2 ()) build)
      [ ("fsqrt.s", 0x2C, 0, fun w -> Fsqrt (Fields.rd w, Fields.rs1 w));
        ("fcvt.w.s", 0x60, 0, fun w -> Fcvt_w_s (Fields.rd w, Fields.rs1 w, false));
        ("fcvt.wu.s", 0x60, 1, fun w -> Fcvt_w_s (Fields.rd w, Fields.rs1 w, true));
        ("fcvt.s.w", 0x68, 0, fun w -> Fcvt_s_w (Fields.rd w, Fields.rs1 w, false));
        ("fcvt.s.wu", 0x68, 1, fun w -> Fcvt_s_w (Fields.rd w, Fields.rs1 w, true));
        ("fmv.x.w", 0x70, 0, fun w -> Fmv_x_w (Fields.rd w, Fields.rs1 w));
        ("fmv.w.x", 0x78, 0, fun w -> Fmv_w_x (Fields.rd w, Fields.rs1 w)) ]
  in
  [ row "lui" m_op 0x37 (fun w -> Lui (Fields.rd w, Fields.u_imm w));
    row "auipc" m_op 0x17 (fun w -> Auipc (Fields.rd w, Fields.u_imm w));
    row "jal" m_op 0x6F (fun w -> Jal (Fields.rd w, Fields.j_imm w));
    row "jalr" m_f3
      (v ~opcode:0x67 ())
      (fun w -> Jalr (Fields.rd w, Fields.rs1 w, Fields.i_imm w));
    row "fence" m_f3 (v ~opcode:0x0F ()) (fun _ -> Fence);
    row "fence.i" m_f3 (v ~opcode:0x0F ~funct3:1 ()) (fun _ -> Fence_i);
    row "ecall" m_exact 0x0000_0073 (fun _ -> Ecall);
    row "ebreak" m_exact 0x0010_0073 (fun _ -> Ebreak);
    row "mret" m_exact 0x3020_0073 (fun _ -> Mret);
    row "wfi" m_exact 0x1050_0073 (fun _ -> Wfi);
    row "zext.h" m_i12
      (v ~opcode:0x33 ~funct3:4 ~funct7:0x04 ())
      (fun w -> Unary (ZEXT_H, Fields.rd w, Fields.rs1 w));
    row "flw" m_f3
      (v ~opcode:0x07 ~funct3:2 ())
      (fun w -> Flw (Fields.rd w, Fields.rs1 w, Fields.i_imm w));
    row "fsw" m_f3
      (v ~opcode:0x27 ~funct3:2 ())
      (fun w -> Fsw (Fields.rs2 w, Fields.rs1 w, Fields.s_imm w)) ]
  @ op_rows @ op_imm_rows @ shift_rows @ unary_rows @ load_rows @ store_rows
  @ branch_rows @ csr_rows @ fp_arith_rows @ fp_f3_rows @ fp_unary_rows
  @ amo_rows

(* Built eagerly, at module initialisation (about 0.1 ms): a lazy value
   forced by two domains at once raises [CamlinternalLazy.Undefined]. *)
let compiled = compile rv32_rows
let rv32 () = compiled
