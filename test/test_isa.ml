(* ISA model tests: encoders, the two decoders, their equivalence
   (experiment E7's correctness half), and the compressed extension. *)

open S4e_isa

let prop ?(count = 1000) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* ---------------- registers ---------------- *)

let test_reg_names () =
  Alcotest.(check string) "abi sp" "sp" (Reg.abi_name 2);
  Alcotest.(check string) "abi a0" "a0" (Reg.abi_name 10);
  Alcotest.(check string) "x name" "x17" (Reg.x_name 17);
  Alcotest.(check (option int)) "parse x9" (Some 9) (Reg.of_name "x9");
  Alcotest.(check (option int)) "parse abi" (Some 2) (Reg.of_name "sp");
  Alcotest.(check (option int)) "parse fp alias" (Some 8) (Reg.of_name "fp");
  Alcotest.(check (option int)) "parse s0" (Some 8) (Reg.of_name "s0");
  Alcotest.(check (option int)) "reject x32" None (Reg.of_name "x32");
  Alcotest.(check (option int)) "reject junk" None (Reg.of_name "bogus");
  Alcotest.(check (option int)) "parse fa0" (Some 10) (Reg.f_of_name "fa0");
  Alcotest.(check (option int)) "parse f31" (Some 31) (Reg.f_of_name "f31");
  Alcotest.(check string) "f name" "ft0" (Reg.f_name 0)

(* The name tables accept exactly what the original parser did: a
   prefix plus a one- or two-character suffix that [int_of_string] reads
   as 0..31, or an ABI name.  Every such suffix is enumerated, over all
   256 byte values, for both files and a few non-prefixes. *)
let test_reg_name_spellings () =
  let reference prefix abi s =
    let n = String.length prefix in
    let indexed =
      if String.length s > n && String.length s <= n + 2 && String.sub s 0 n = prefix
      then
        match int_of_string_opt (String.sub s n (String.length s - n)) with
        | Some i when Reg.valid i -> Some i
        | Some _ | None -> None
      else None
    in
    match indexed with
    | Some i -> Some i
    | None ->
        let rec find i =
          if i >= Array.length abi then None
          else if abi.(i) = s then Some i
          else find (i + 1)
        in
        find 0
  in
  let x_abi = Array.init 32 Reg.abi_name and f_abi = Array.init 32 Reg.f_name in
  let x_ref s = if s = "fp" then Some Reg.fp else reference "x" x_abi s in
  let f_ref = reference "f" f_abi in
  let accepted = Hashtbl.create 256 in
  let check s =
    let x = Reg.of_name s and f = Reg.f_of_name s in
    if x <> x_ref s then Alcotest.failf "of_name %S" s;
    if f <> f_ref s then Alcotest.failf "f_of_name %S" s;
    if x <> None || f <> None then Hashtbl.replace accepted s ()
  in
  let byte c = String.make 1 (Char.chr c) in
  List.iter
    (fun prefix ->
      check prefix;
      for a = 0 to 255 do
        check (prefix ^ byte a);
        for b = 0 to 255 do
          check (prefix ^ byte a ^ byte b)
        done
      done)
    [ "x"; "f"; "X"; "" ];
  Array.iter (fun n -> check n; check (n ^ "0"); check (String.uppercase_ascii n)) x_abi;
  Array.iter (fun n -> check n; check (n ^ "0"); check (String.uppercase_ascii n)) f_abi;
  (* the assembler only looks up 2-4 character names that start with a
     lowercase letter *)
  Hashtbl.iter
    (fun s () ->
      if String.length s < 2 || String.length s > 4 || s.[0] < 'a' || s.[0] > 'z' then
        Alcotest.failf "register name %S is outside the shape the assembler looks up" s)
    accepted;
  (* 63 numeric spellings per file, 32 ABI names each, plus "fp" *)
  Alcotest.(check int) "accepted spellings" ((2 * (63 + 32)) + 1)
    (Hashtbl.length accepted)

let test_csr_names () =
  Alcotest.(check (option int)) "mstatus" (Some 0x300) (Csr.of_name "mstatus");
  Alcotest.(check string) "name roundtrip" "mepc" (Csr.name Csr.mepc);
  Alcotest.(check string) "unknown name" "csr0x123" (Csr.name 0x123);
  Alcotest.(check bool) "cycle read-only" true (Csr.is_read_only Csr.cycle);
  Alcotest.(check bool) "mstatus writable" false (Csr.is_read_only Csr.mstatus);
  Alcotest.(check bool) "implemented sorted" true
    (let l = Csr.implemented in
     List.sort compare l = l)

(* ---------------- encode/decode ---------------- *)

let roundtrip i =
  match Decode.decode (Encode.encode i) with
  | Some i' -> Instr.equal i i'
  | None -> false

let test_directed_encodings () =
  (* spot-check against known RISC-V encodings *)
  let expect word instr =
    Alcotest.(check int) (Instr.to_string instr) word (Encode.encode instr)
  in
  expect 0x00000013 (Instr.Op_imm (ADDI, 0, 0, 0));  (* canonical nop *)
  expect 0x00100093 (Instr.Op_imm (ADDI, 1, 0, 1));
  expect 0x00a02223 (Instr.Store (SW, 10, 0, 4));
  expect 0x00002503 (Instr.Load (LW, 10, 0, 0));
  expect 0x00000073 Instr.Ecall;
  expect 0x00100073 Instr.Ebreak;
  expect 0x30200073 Instr.Mret;
  expect 0x10500073 Instr.Wfi;
  expect 0x40a58633 (Instr.Op (SUB, 12, 11, 10));
  expect 0x02a5d5b3 (Instr.Op (DIVU, 11, 11, 10));
  expect 0x800005b7 (Instr.Lui (11, 0x80000));
  expect 0x0040006f (Instr.Jal (0, 4));
  expect 0x00008067 (Instr.Jalr (0, 1, 0))  (* ret *)

let test_decode_rejects () =
  let reject w =
    Alcotest.(check bool) (Printf.sprintf "0x%08x" w) true
      (Decode.decode w = None)
  in
  reject 0x0;  (* all zeros: compressed space *)
  reject 0xFFFF_FFFF;  (* all ones *)
  reject 0x00000057;  (* unused opcode *)
  reject 0x00001067;  (* jalr with funct3 = 1 *)
  reject 0x00002063;  (* branch funct3 = 2 *)
  (* op with reserved funct7 *)
  reject (Fields.r_type ~opcode:0x33 ~funct3:0 ~funct7:0x11 ~rd:1 ~rs1:2 ~rs2:3);
  (* shift with reserved funct7 *)
  reject (Fields.r_type ~opcode:0x13 ~funct3:1 ~funct7:0x11 ~rd:1 ~rs1:2 ~rs2:3);
  (* fp with reserved funct7 *)
  reject (Fields.r_type ~opcode:0x53 ~funct3:0 ~funct7:0x01 ~rd:1 ~rs1:2 ~rs2:3)

let test_decodetree_compiles () =
  let tree = Decodetree.rv32 () in
  let stats = Decodetree.stats tree in
  Alcotest.(check bool) "has rows" true (stats.Decodetree.rows >= 90);
  Alcotest.(check bool) "has switch nodes" true (stats.Decodetree.switch_nodes > 0);
  Alcotest.(check bool) "bounded leaf width" true
    (stats.Decodetree.max_leaf_width <= 8);
  Alcotest.(check (option (pair string string))) "no overlap" None
    (Decodetree.check_overlap Decodetree.rv32_rows)

let test_decodetree_rejects_bad_rows () =
  let bad_value =
    [ { Decodetree.name = "bad"; mask = 0x7F; value = 0x80;
        operands = (fun _ -> Instr.Ecall) } ]
  in
  Alcotest.check_raises "value outside mask"
    (Invalid_argument
       "Decodetree.compile: row bad has value bits outside its mask")
    (fun () -> ignore (Decodetree.compile bad_value));
  let overlapping =
    [ { Decodetree.name = "a"; mask = 0x7F; value = 0x37;
        operands = (fun _ -> Instr.Ecall) };
      { Decodetree.name = "b"; mask = 0x3F; value = 0x37;
        operands = (fun _ -> Instr.Ecall) } ]
  in
  Alcotest.check_raises "overlapping rows"
    (Invalid_argument "Decodetree.compile: rows a and b overlap")
    (fun () -> ignore (Decodetree.compile overlapping))

(* ---------------- compressed ---------------- *)

let test_compressed_directed () =
  let expand h expected =
    match Compressed.decode16 h with
    | Some i ->
        Alcotest.(check string) (Printf.sprintf "0x%04x" h) expected
          (Instr.to_string i)
    | None -> Alcotest.failf "0x%04x did not decode" h
  in
  expand 0x0001 "addi zero, zero, 0";  (* c.nop *)
  expand 0x4501 "addi a0, zero, 0";  (* c.li a0, 0 *)
  expand 0x852e "add a0, zero, a1";  (* c.mv a0, a1 *)
  expand 0x952e "add a0, a0, a1";  (* c.add a0, a1 *)
  expand 0x8082 "jalr zero, 0(ra)";  (* c.ret *)
  expand 0x9002 "ebreak";
  Alcotest.(check bool) "all zeros illegal" true (Compressed.decode16 0 = None);
  Alcotest.(check bool) "quadrant 3 rejected" true
    (Compressed.decode16 0xFFFF = None)

let exec_equal_via_encode i =
  (* a compressed instruction must expand to something the 32-bit
     encoder can also express *)
  match Compressed.compress i with
  | None -> true
  | Some h -> (
      match Compressed.decode16 h with
      | Some i' -> Instr.equal i i'
      | None -> false)

(* ---------------- properties ---------------- *)

let props =
  [ prop "decode . encode = id" Gen.instr roundtrip;
    prop ~count:5000 "decodetree = hand decoder on random words"
      Gen.encoding_word
      (let tree = Decodetree.rv32 () in
       fun w ->
         match (Decode.decode w, Decodetree.decode tree w) with
         | None, None -> true
         | Some a, Some b -> Instr.equal a b
         | Some _, None | None, Some _ -> false);
    prop "decodetree agrees on valid encodings" Gen.instr
      (let tree = Decodetree.rv32 () in
       fun i ->
         match Decodetree.decode tree (Encode.encode i) with
         | Some i' -> Instr.equal i i'
         | None -> false);
    prop "compress roundtrips" Gen.instr exec_equal_via_encode;
    prop ~count:5000 "decode16 total (never crashes)" Gen.halfword (fun h ->
        ignore (Compressed.decode16 h);
        true);
    prop "compressed halfwords stay compressed" Gen.instr (fun i ->
        match Compressed.compress i with
        | None -> true
        | Some h -> h land 0x3 <> 0x3 && h >= 0 && h <= 0xFFFF);
    prop "mnemonic is stable under roundtrip" Gen.instr (fun i ->
        match Decode.decode (Encode.encode i) with
        | Some i' -> String.equal (Instr.mnemonic i) (Instr.mnemonic i')
        | None -> false);
    prop "sources/destination within register file" Gen.instr (fun i ->
        List.for_all (fun r -> r >= 0 && r < 32) (Instr.sources i)
        && (match Instr.destination i with
           | Some d -> d >= 0 && d < 32
           | None -> true));
    prop "every mnemonic belongs to a module" Gen.instr (fun i ->
        List.mem (Instr.mnemonic i)
          (Isa_module.universe
             [ Isa_module.I; M; A; F; C; Zicsr; B ])) ]

let test_universe_consistency () =
  (* the decodetree row names must match the module universe *)
  let universe =
    Isa_module.universe [ Isa_module.I; M; A; F; Zicsr; B ]
  in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        ("row in universe: " ^ row.Decodetree.name)
        true
        (List.mem row.Decodetree.name universe))
    Decodetree.rv32_rows;
  (* and every universe mnemonic except wfi-style system special cases
     must have a row *)
  let row_names = List.map (fun r -> r.Decodetree.name) Decodetree.rv32_rows in
  List.iter
    (fun m ->
      Alcotest.(check bool) ("universe has row: " ^ m) true
        (List.mem m row_names))
    universe

let test_isa_strings () =
  Alcotest.(check string) "full" "RV32IMFC_Zicsr_B"
    (Isa_module.isa_string [ Isa_module.I; M; F; C; Zicsr; B ]);
  Alcotest.(check string) "base" "RV32I" (Isa_module.isa_string [ Isa_module.I ]);
  Alcotest.(check (option string)) "of_name roundtrip"
    (Some "Zicsr")
    (Option.map Isa_module.name (Isa_module.of_name "Zicsr"))

let () =
  Alcotest.run "isa"
    [ ( "unit",
        [ Alcotest.test_case "register names" `Quick test_reg_names;
          Alcotest.test_case "register name spellings" `Quick
            test_reg_name_spellings;
          Alcotest.test_case "csr names" `Quick test_csr_names;
          Alcotest.test_case "directed encodings" `Quick test_directed_encodings;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
          Alcotest.test_case "decodetree compiles" `Quick test_decodetree_compiles;
          Alcotest.test_case "decodetree bad rows" `Quick
            test_decodetree_rejects_bad_rows;
          Alcotest.test_case "compressed directed" `Quick test_compressed_directed;
          Alcotest.test_case "universe consistency" `Quick
            test_universe_consistency;
          Alcotest.test_case "isa strings" `Quick test_isa_strings ] );
      ("properties", props) ]
