type line = { pc : int; raw : int; size : int; text : string }

let disassemble_word w =
  match S4e_isa.Decode.decode w with
  | Some i -> S4e_isa.Instr.to_string i
  | None -> Printf.sprintf ".word 0x%08x" w

let disassemble_range ~mem ?(compressed = true) ~start ~len () =
  let stop = start + len in
  let rec go pc acc =
    if pc >= stop then List.rev acc
    else
      let half = S4e_mem.Sparse_mem.read16 mem pc in
      if half land 0x3 <> 0x3 && compressed then
        let text =
          match S4e_isa.Compressed.decode16 half with
          | Some i -> "c." ^ S4e_isa.Instr.to_string i
          | None -> Printf.sprintf ".half 0x%04x" half
        in
        go (pc + 2) ({ pc; raw = half; size = 2; text } :: acc)
      else
        let w = S4e_mem.Sparse_mem.read32 mem pc in
        go (pc + 4) ({ pc; raw = w; size = 4; text = disassemble_word w } :: acc)
  in
  go start []

let disassemble_program p =
  let mem = S4e_mem.Sparse_mem.create () in
  Program.load p mem;
  List.concat_map
    (fun c ->
      if c.Program.is_code then
        disassemble_range ~mem ~start:c.Program.addr
          ~len:(String.length c.Program.bytes) ()
      else [])
    p.Program.chunks

let pp_line fmt l =
  if l.size = 2 then Format.fprintf fmt "%08x:     %04x  %s" l.pc l.raw l.text
  else Format.fprintf fmt "%08x: %08x  %s" l.pc l.raw l.text

module Fr = S4e_obs.Flight_recorder

let record_line (rc : Fr.record) =
  let base = Format.asprintf "%a" Fr.pp_record rc in
  match rc.Fr.r_kind with
  | Fr.Retire -> base ^ "  " ^ disassemble_word rc.Fr.r_op
  | Fr.Trap | Fr.Irq | Fr.Dev -> base

type flow = { branches : int; taken : int; calls : int; returns : int }

(* A branch's outcome is read off the record after it: every record
   carries the pc at its boundary, so the successor's pc is where
   control went, whether it retired there or trapped or took an
   interrupt first. *)
let flow records =
  let open S4e_isa.Instr in
  let rec go acc = function
    | [] -> acc
    | (rc : Fr.record) :: rest -> (
        let acc =
          match rc.Fr.r_kind with
          | Fr.Trap | Fr.Irq | Fr.Dev -> acc
          | Fr.Retire -> (
              match S4e_isa.Decode.decode rc.Fr.r_op with
              | Some (Branch (_, _, _, off)) ->
                  let target =
                    S4e_bits.Bits.add rc.Fr.r_pc (S4e_bits.Bits.of_signed off)
                  in
                  let taken =
                    match rest with
                    | next :: _ when next.Fr.r_pc = target -> acc.taken + 1
                    | _ -> acc.taken
                  in
                  { acc with branches = acc.branches + 1; taken }
              | Some (Jalr (0, rs1, 0)) when rs1 = S4e_isa.Reg.ra ->
                  { acc with returns = acc.returns + 1 }
              | Some (Jal (rd, _) | Jalr (rd, _, _)) when rd <> 0 ->
                  { acc with calls = acc.calls + 1 }
              | _ -> acc)
        in
        go acc rest)
  in
  go { branches = 0; taken = 0; calls = 0; returns = 0 } records
