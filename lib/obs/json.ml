type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        Buffer.add_string b
          (if Float.is_finite f then float_repr f else "null")
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          l;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

let max_depth = 256

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad (Printf.sprintf "json: %s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> bad (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else bad ("bad literal (wanted " ^ word ^ ")")
  in
  (* exactly four hex digits; [int_of_string] would also take '_' *)
  let hex4 () =
    if !pos + 4 > n then bad "truncated \\u escape";
    let v = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!pos + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> bad "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
            advance ();
            if !pos >= n then bad "unterminated escape"
            else begin
              (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'; advance ()
              | '\\' -> Buffer.add_char b '\\'; advance ()
              | '/' -> Buffer.add_char b '/'; advance ()
              | 'n' -> Buffer.add_char b '\n'; advance ()
              | 'r' -> Buffer.add_char b '\r'; advance ()
              | 't' -> Buffer.add_char b '\t'; advance ()
              | 'b' -> Buffer.add_char b '\b'; advance ()
              | 'f' -> Buffer.add_char b '\012'; advance ()
              | 'u' ->
                  advance ();
                  let c = hex4 () in
                  let c =
                    if c >= 0xDC00 && c <= 0xDFFF then bad "lone surrogate"
                    else if c < 0xD800 || c > 0xDBFF then c
                    else if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo < 0xDC00 || lo > 0xDFFF then bad "lone surrogate";
                      0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)
                    end
                    else bad "lone surrogate"
                  in
                  Buffer.add_utf_8_uchar b (Uchar.of_int c)
              | _ -> bad "unknown escape");
              go ()
            end
        | c when Char.code c < 0x20 -> bad "raw control character in string"
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then bad "expected digit"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth ->
        bad (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> bad "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> bad "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> bad (Printf.sprintf "unexpected character '%c'" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error "json: trailing garbage after value"
    else Ok v
  with
  | Bad msg -> Error msg
  | Failure _ -> Error "json: bad number"

(* ---------------- accessors ---------------- *)

let mem key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function String s -> Some s | _ -> None

let int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let num = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let list = function List l -> Some l | _ -> None

let bind o f = Option.bind o f
let mem_str key v = bind (mem key v) str
let mem_int key v = bind (mem key v) int
let mem_bool key v = bind (mem key v) bool
let mem_list key v = bind (mem key v) list
