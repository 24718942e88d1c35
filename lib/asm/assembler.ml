open Source

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

exception Error of error

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Error { line; message = s })) fmt

type section = Text | Data

(* The most bytes one image may hold, summed over both sections, and the
   farthest one [.org] may move the cursor.  Source text is untrusted
   input: without a bound, [.space 1000000000000] would try to allocate
   a terabyte. *)
let max_image_bytes = 16 lsl 20

(* ---------------- expression evaluation ---------------- *)

let rec eval_expr symbols e =
  match e with
  | Num n -> n
  | Sym s -> (
      match Hashtbl.find_opt symbols s with
      | Some v -> v
      | None -> raise (Builder.Build_error (Printf.sprintf "undefined symbol %S" s)))
  | Neg e -> -eval_expr symbols e
  | Add (a, b) -> eval_expr symbols a + eval_expr symbols b
  | Sub (a, b) -> eval_expr symbols a - eval_expr symbols b
  | Hi e -> Builder.hi20 (eval_expr symbols e)
  | Lo e -> Builder.lo12 (eval_expr symbols e)

(* ---------------- directive sizes ---------------- *)

let ascii_content line ops =
  match ops with
  | [ Ostr s ] -> s
  | _ -> fail line "expected one string operand"

let directive_size line name ops ~cursor =
  match name with
  | ".word" -> 4 * List.length ops
  | ".half" -> 2 * List.length ops
  | ".byte" -> List.length ops
  | ".ascii" -> String.length (ascii_content line ops)
  | ".asciz" | ".string" -> String.length (ascii_content line ops) + 1
  | ".space" | ".zero" -> (
      match ops with
      | [ Oimm (Num n) ] when n >= 0 -> n
      | _ -> fail line "%s expects a nonnegative literal count" name)
  | ".align" -> (
      match ops with
      | [ Oimm (Num n) ] when n >= 0 && n < 16 ->
          let a = 1 lsl n in
          let rem = cursor land (a - 1) in
          if rem = 0 then 0 else a - rem
      | _ -> fail line ".align expects a small literal power")
  | _ -> fail line "unknown directive %s" name

(* ---------------- the assembler ---------------- *)

type chunk_builder = {
  mutable chunk_addr : int;
  buf : Buffer.t;
  mutable done_chunks : Program.chunk list;
  is_code : bool;
}

let new_builder ~is_code addr =
  { chunk_addr = addr; buf = Buffer.create 256; done_chunks = []; is_code }

let builder_cursor cb = cb.chunk_addr + Buffer.length cb.buf

let builder_seal cb =
  if Buffer.length cb.buf > 0 then begin
    cb.done_chunks <-
      { Program.addr = cb.chunk_addr; bytes = Buffer.contents cb.buf;
        is_code = cb.is_code }
      :: cb.done_chunks;
    Buffer.clear cb.buf
  end

let builder_set_cursor cb addr =
  if addr <> builder_cursor cb then begin
    builder_seal cb;
    cb.chunk_addr <- addr
  end

let add_zeros buf n = Buffer.add_string buf (String.make n '\000')

let assemble ?(text_base = S4e_soc.Memory_map.ram_base)
    ?(data_base = S4e_soc.Memory_map.ram_base + 0x10000) src =
  try
    let stmts = try parse_string src with
      | Parse_error (line, message) -> raise (Error { line; message })
    in
    let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
    (* -------- pass 1: layout; instruction sizes are kept for pass 2 -------- *)
    let sizes = Array.make (Array.length stmts) 0 in
    let image = ref 0 in
    let grow line n =
      if n > max_image_bytes - !image then
        fail line "image grows past the %d-byte image bound" max_image_bytes;
      image := !image + n
    in
    let text_cursor = ref text_base and data_cursor = ref data_base in
    let section = ref Text in
    let cursor () = match !section with Text -> text_cursor | Data -> data_cursor in
    Array.iteri
      (fun i (line, stmt) ->
        let cur = cursor () in
        match stmt with
        | Slabel name ->
            if Hashtbl.mem symbols name then
              fail line "duplicate label %S" name;
            Hashtbl.replace symbols name !cur
        | Sdirective (".text", []) -> section := Text
        | Sdirective (".data", []) -> section := Data
        | Sdirective (".globl", _) | Sdirective (".global", _) -> ()
        | Sdirective (".equ", [ Oimm (Sym name); Oimm e ])
        | Sdirective (".set", [ Oimm (Sym name); Oimm e ]) -> (
            try Hashtbl.replace symbols name (eval_expr symbols e)
            with Builder.Build_error m -> fail line "%s" m)
        | Sdirective (".equ", _) | Sdirective (".set", _) ->
            fail line ".equ expects a name and a value"
        | Sdirective (".org", [ Oimm e ]) ->
            let target =
              try eval_expr symbols e
              with Builder.Build_error m -> fail line "%s" m
            in
            if target > !cur + max_image_bytes || target < !cur - max_image_bytes then
              fail line ".org moves the cursor past the %d-byte image bound"
                max_image_bytes;
            cur := target
        | Sdirective (".org", _) -> fail line ".org expects one expression"
        | Sdirective (name, ops) ->
            let n = directive_size line name ops ~cursor:!cur in
            grow line n;
            cur := !cur + n
        | Sinstr (m, ops) ->
            let n =
              try Builder.size_of m ops
              with Builder.Build_error msg -> fail line "%s" msg
            in
            grow line n;
            sizes.(i) <- n;
            cur := !cur + n)
      stmts;
    (* -------- pass 2: encode -------- *)
    let text_cb = new_builder ~is_code:true text_base in
    let data_cb = new_builder ~is_code:false data_base in
    let section = ref Text in
    let cb () = match !section with Text -> text_cb | Data -> data_cb in
    let eval e = eval_expr symbols e in
    let data line what ops emit =
      List.iter
        (fun o ->
          match o with
          | Oimm e -> (
              match eval e with
              | v -> emit v
              | exception Builder.Build_error m -> fail line "%s" m)
          | _ -> fail line "%s expects expressions" what)
        ops
    in
    Array.iteri
      (fun i (line, stmt) ->
        let b = cb () in
        match stmt with
        | Slabel name ->
            (* Sanity: the pass-1 address must match the pass-2 cursor. *)
            let expected = Hashtbl.find symbols name in
            if expected <> builder_cursor b then
              fail line
                "internal layout divergence at %S (pass1 0x%x, pass2 0x%x)"
                name expected (builder_cursor b)
        | Sdirective (".text", []) -> section := Text
        | Sdirective (".data", []) -> section := Data
        | Sdirective (".globl", _) | Sdirective (".global", _)
        | Sdirective (".equ", _) | Sdirective (".set", _) -> ()
        | Sdirective (".org", [ Oimm e ]) ->
            builder_set_cursor b (eval e)
        | Sdirective (".org", _) -> assert false
        | Sdirective (".word", ops) ->
            data line ".word" ops (fun v -> Buffer.add_int32_le b.buf (Int32.of_int v))
        | Sdirective (".half", ops) ->
            data line ".half" ops (fun v -> Buffer.add_uint16_le b.buf (v land 0xFFFF))
        | Sdirective (".byte", ops) ->
            data line ".byte" ops (fun v -> Buffer.add_uint8 b.buf (v land 0xFF))
        | Sdirective (".ascii", ops) ->
            Buffer.add_string b.buf (ascii_content line ops)
        | Sdirective ((".asciz" | ".string"), ops) ->
            Buffer.add_string b.buf (ascii_content line ops);
            Buffer.add_char b.buf '\000'
        | Sdirective ((".space" | ".zero"), [ Oimm (Num n) ]) -> add_zeros b.buf n
        | Sdirective ((".space" | ".zero"), _) -> assert false
        | Sdirective (".align", ops) ->
            add_zeros b.buf (directive_size line ".align" ops ~cursor:(builder_cursor b))
        | Sdirective (name, _) -> fail line "unknown directive %s" name
        | Sinstr (m, ops) -> (
            match Builder.build m ops ~pc:(builder_cursor b) ~eval with
            | instrs ->
                if 4 * List.length instrs <> sizes.(i) then
                  fail line "internal size divergence for %S" m;
                List.iter
                  (fun i ->
                    Buffer.add_int32_le b.buf (Int32.of_int (S4e_isa.Encode.encode i)))
                  instrs
            | exception Builder.Build_error msg -> fail line "%s" msg))
      stmts;
    builder_seal text_cb;
    builder_seal data_cb;
    let chunks = List.rev text_cb.done_chunks @ List.rev data_cb.done_chunks in
    let entry =
      match Hashtbl.find_opt symbols "_start" with
      | Some a -> a
      | None -> text_base
    in
    let symbol_list =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols []
      |> List.sort compare
    in
    Ok { Program.chunks; entry; symbols = symbol_list }
  with Error e -> Result.Error e

let assemble_exn ?text_base ?data_base src =
  match assemble ?text_base ?data_base src with
  | Ok p -> p
  | Result.Error e ->
      failwith (Format.asprintf "assembly failed: %a" pp_error e)
