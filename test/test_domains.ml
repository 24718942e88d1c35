(* Fresh domains racing on the first decode of a process.  The shared
   RV32 decode table must be ready for all of them: a table built lazily
   raised CamlinternalLazy.Undefined in every domain but the one that
   forced it first.  This is its own executable so that nothing in the
   process has decoded an instruction before the race starts. *)

open S4e_isa

let test_first_decode_race () =
  let word = Encode.encode (Instr.Op_imm (ADDI, Reg.a0, Reg.zero, 5)) in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            let m = S4e_cpu.Machine.create () in
            ignore (Sys.opaque_identity m);
            Decodetree.decode (Decodetree.rv32 ()) word))
  in
  Atomic.set go true;
  List.iter
    (fun d ->
      match Domain.join d with
      | Some i ->
          Alcotest.(check string) "decoded" "addi a0, zero, 5" (Instr.to_string i)
      | None -> Alcotest.fail "undecodable")
    domains

let () =
  Alcotest.run "domains"
    [ ("decodetree", [ Alcotest.test_case "first decode races" `Quick test_first_decode_race ]) ]
