type expr =
  | Num of int
  | Sym of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Hi of expr
  | Lo of expr

type operand =
  | Oreg of S4e_isa.Reg.t
  | Ofreg of S4e_isa.Reg.t
  | Oimm of expr
  | Omem of expr * S4e_isa.Reg.t
  | Ostr of string

type stmt =
  | Slabel of string
  | Sdirective of string * operand list
  | Sinstr of string * operand list

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let rec pp_expr fmt = function
  | Num n -> Format.fprintf fmt "%d" n
  | Sym s -> Format.pp_print_string fmt s
  | Neg e -> Format.fprintf fmt "-%a" pp_expr e
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_expr a pp_expr b
  | Hi e -> Format.fprintf fmt "%%hi(%a)" pp_expr e
  | Lo e -> Format.fprintf fmt "%%lo(%a)" pp_expr e

(* The parser walks the source string by index: a line, a label, an
   operand or an expression is a [start, stop) range of [src], and a
   substring is only cut for what a statement keeps (names, mnemonics)
   or for an error message. *)

(* ---------------- character classes ---------------- *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* what [String.trim] strips *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space src i stop =
  if i < stop && is_space (String.unsafe_get src i) then skip_space src (i + 1) stop
  else i

let rec trim_end src start stop =
  if stop > start && is_space (String.unsafe_get src (stop - 1)) then
    trim_end src start (stop - 1)
  else stop

(* Register names are 2-4 characters and start with a lowercase letter
   (see [S4e_isa.Reg]); anything else is rejected without cutting a
   substring. *)
let lookup_reg find src start stop =
  let len = stop - start in
  if len < 2 || len > 4 then None
  else
    let c = String.unsafe_get src start in
    if c < 'a' || c > 'z' then None else find (String.sub src start len)

(* ---------------- expression parser ---------------- *)

(* Deeper expressions are rejected: evaluation recurses on the tree,
   and a source line must not be able to exhaust the stack. *)
let max_expr_depth = 256

type scanner = { src : string; mutable pos : int; stop : int; line : int }

let at_end sc = sc.pos >= sc.stop
let cur sc = String.unsafe_get sc.src sc.pos
let advance sc = sc.pos <- sc.pos + 1
let looking_at sc c = sc.pos < sc.stop && cur sc = c

let skip_ws sc =
  while sc.pos < sc.stop && (cur sc = ' ' || cur sc = '\t') do
    advance sc
  done

let scan_ident sc =
  let start = sc.pos in
  while sc.pos < sc.stop && is_ident_char (cur sc) do
    advance sc
  done;
  String.sub sc.src start (sc.pos - start)

let is_number_char c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  || c = 'x' || c = 'X' || c = 'o' || c = 'b'

(* Decimal literals short enough not to overflow are converted in
   place; everything else goes through [int_of_string]. *)
let scan_number sc =
  let start = sc.pos in
  let decimal = ref 0 and is_decimal = ref true in
  while sc.pos < sc.stop && is_number_char (cur sc) do
    let c = cur sc in
    if c >= '0' && c <= '9' then decimal := (!decimal * 10) + (Char.code c - 48)
    else is_decimal := false;
    advance sc
  done;
  if !is_decimal && sc.pos - start <= 18 then !decimal
  else
    let text = String.sub sc.src start (sc.pos - start) in
    match int_of_string_opt text with
    | Some v -> v
    | None -> fail sc.line "bad numeric literal %S" text

(* [depth] counts the levels above the node being parsed; each [+]/[-]
   of a chain adds one, as the tree it builds leans left. *)
let rec parse_sum sc depth = sum_tail sc (parse_term sc (depth + 1)) depth

and sum_tail sc lhs depth =
  skip_ws sc;
  if at_end sc then lhs
  else
    match cur sc with
    | ('+' | '-') as op ->
        if depth >= max_expr_depth then
          fail sc.line "expression nested too deeply (over %d levels)" max_expr_depth;
        advance sc;
        skip_ws sc;
        let rhs = parse_term sc (depth + 1) in
        sum_tail sc (if op = '+' then Add (lhs, rhs) else Sub (lhs, rhs)) (depth + 1)
    | _ -> lhs

and parse_term sc depth =
  if depth > max_expr_depth then
    fail sc.line "expression nested too deeply (over %d levels)" max_expr_depth;
  skip_ws sc;
  if at_end sc then fail sc.line "unexpected end of expression";
  match cur sc with
  | '%' ->
      advance sc;
      let kind = scan_ident sc in
      skip_ws sc;
      if looking_at sc '(' then advance sc
      else fail sc.line "expected '(' after %%%s" kind;
      let inner = parse_sum sc depth in
      skip_ws sc;
      if looking_at sc ')' then advance sc else fail sc.line "expected ')'";
      (match kind with
      | "hi" -> Hi inner
      | "lo" -> Lo inner
      | _ -> fail sc.line "unknown relocation operator %%%s" kind)
  | '(' ->
      advance sc;
      let inner = parse_sum sc depth in
      skip_ws sc;
      if looking_at sc ')' then advance sc else fail sc.line "expected ')'";
      inner
  | '-' ->
      advance sc;
      Neg (parse_term sc (depth + 1))
  | '\'' ->
      advance sc;
      if at_end sc then fail sc.line "unterminated character literal";
      let c =
        match cur sc with
        | '\\' -> (
            advance sc;
            if at_end sc then fail sc.line "unterminated character literal";
            match cur sc with
            | 'n' -> '\n'
            | 't' -> '\t'
            | '0' -> '\000'
            | c -> c)
        | c -> c
      in
      advance sc;
      if looking_at sc '\'' then advance sc
      else fail sc.line "unterminated character literal";
      Num (Char.code c)
  | c when c >= '0' && c <= '9' -> Num (scan_number sc)
  | c when is_ident_start c -> Sym (scan_ident sc)
  | c -> fail sc.line "unexpected character %C in expression" c

(* The expression spanning [start, stop), which must hold nothing else. *)
let parse_expr line src start stop =
  let sc = { src; pos = start; stop; line } in
  let e = parse_sum sc 0 in
  skip_ws sc;
  if sc.pos <> stop then
    fail line "trailing characters in expression %S"
      (String.sub src start (stop - start));
  e

(* ---------------- operand parsing ---------------- *)

let parse_string_literal line s =
  (* s includes the surrounding quotes *)
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then
    fail line "malformed string literal";
  let buf = Buffer.create (n - 2) in
  let rec go i =
    if i >= n - 1 then Buffer.contents buf
    else
      match s.[i] with
      | '\\' when i + 1 < n - 1 ->
          let c =
            match s.[i + 1] with
            | 'n' -> '\n'
            | 't' -> '\t'
            | '0' -> '\000'
            | 'r' -> '\r'
            | c -> c
          in
          Buffer.add_char buf c;
          go (i + 2)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 1

(* The first [c] in [i, stop), or [stop]. *)
let rec index_in src c i stop =
  if i >= stop || String.unsafe_get src i = c then i else index_in src c (i + 1) stop

let gprs = Array.init S4e_isa.Reg.count (fun r -> Oreg r)
let fprs = Array.init S4e_isa.Reg.count (fun r -> Ofreg r)

(* The operand spanning [start, stop), already trimmed. *)
let parse_operand line src start stop =
  if start = stop then fail line "empty operand"
  else if src.[start] = '"' then
    Ostr (parse_string_literal line (String.sub src start (stop - start)))
  else
    match lookup_reg S4e_isa.Reg.of_name src start stop with
    | Some r -> gprs.(r)
    | None -> (
        match lookup_reg S4e_isa.Reg.f_of_name src start stop with
        | Some r -> fprs.(r)
        | None ->
            (* offset(base) ? *)
            let i =
              if src.[stop - 1] = ')' && not (stop - start > 1 && src.[start] = '%')
              then index_in src '(' start stop
              else stop
            in
            if i < stop then
              let reg_start = skip_space src (i + 1) (stop - 1) in
              let reg_stop = trim_end src reg_start (stop - 1) in
              match lookup_reg S4e_isa.Reg.of_name src reg_start reg_stop with
              | Some base ->
                  let off_stop = trim_end src start i in
                  let off =
                    if off_stop = start then Num 0
                    else parse_expr line src start off_stop
                  in
                  Omem (off, base)
              | None -> Oimm (parse_expr line src start stop)
            else Oimm (parse_expr line src start stop))

(* Where the operand starting at [i] ends: the next ',' outside
   parentheses and string quotes, or [stop]. *)
let rec operand_end src i stop depth in_str =
  if i >= stop then stop
  else
    match String.unsafe_get src i with
    | '"' -> operand_end src (i + 1) stop depth (not in_str)
    | '(' when not in_str -> operand_end src (i + 1) stop (depth + 1) in_str
    | ')' when not in_str -> operand_end src (i + 1) stop (depth - 1) in_str
    | ',' when (not in_str) && depth = 0 -> i
    | _ -> operand_end src (i + 1) stop depth in_str

let rec operands_from line src a stop =
  let b = operand_end src a stop 0 false in
  let a = skip_space src a b in
  let op = parse_operand line src a (trim_end src a b) in
  if b < stop then op :: operands_from line src (b + 1) stop else [ op ]

(* The comma-separated operands in [start, stop) (trimmed at the end).
   Brackets and quotes are checked over the whole list before any
   operand is parsed, so such an error wins over one inside an
   operand; operands are then parsed left to right. *)
let parse_operands line src start stop =
  let depth = ref 0 and in_str = ref false in
  for i = start to stop - 1 do
    match String.unsafe_get src i with
    | '"' -> in_str := not !in_str
    | '(' when not !in_str -> incr depth
    | ')' when not !in_str ->
        decr depth;
        if !depth < 0 then fail line "unbalanced parentheses"
    | _ -> ()
  done;
  if !in_str then fail line "unterminated string";
  if !depth <> 0 then fail line "unbalanced parentheses";
  operands_from line src start stop

(* ---------------- line parsing ---------------- *)

(* Where the line [start, stop) ends once a [#] or [//] comment outside
   a string is cut off. *)
let rec comment_start src i stop in_str =
  if i >= stop then stop
  else
    match String.unsafe_get src i with
    | '"' -> comment_start src (i + 1) stop (not in_str)
    | '#' when not in_str -> i
    | '/' when (not in_str) && i + 1 < stop && src.[i + 1] = '/' -> i
    | _ -> comment_start src (i + 1) stop in_str

let rec has_upper src i stop =
  i < stop
  && (let c = String.unsafe_get src i in
      (c >= 'A' && c <= 'Z') || has_upper src (i + 1) stop)

let rec blank src i stop =
  if i >= stop then stop
  else match String.unsafe_get src i with ' ' | '\t' -> i | _ -> blank src (i + 1) stop

let rec ident_end src i stop =
  if i < stop && is_ident_char (String.unsafe_get src i) then ident_end src (i + 1) stop
  else i

(* The statements parsed so far, in a growable array.  The array is
   filled in place from a static filler: [Array.of_list] or [Array.init]
   would seed a large array with a young statement, and that forces a
   minor collection which promotes the whole parse. *)
type acc = { mutable stmts : (int * stmt) array; mutable len : int }

let filler = (0, Slabel "")

let push acc s =
  if acc.len = Array.length acc.stmts then begin
    let bigger = Array.make ((2 * acc.len) + 16) filler in
    Array.blit acc.stmts 0 bigger 0 acc.len;
    acc.stmts <- bigger
  end;
  acc.stmts.(acc.len) <- s;
  acc.len <- acc.len + 1

(* Leading labels, an identifier directly followed by ':', go to [acc];
   the result is where the rest of the line starts. *)
let rec strip_labels src lineno start stop acc =
  let start = skip_space src start stop in
  if start < stop && is_ident_start (String.unsafe_get src start) then
    let j = ident_end src start stop in
    if j < stop && String.unsafe_get src j = ':' then begin
      push acc (lineno, Slabel (String.sub src start (j - start)));
      strip_labels src lineno (j + 1) stop acc
    end
    else start
  else start

let parse_line src lineno start stop acc =
  let stop = trim_end src start (comment_start src start stop false) in
  let start = strip_labels src lineno start stop acc in
  if start < stop then begin
    (* the mnemonic ends at the first blank *)
    let ws = blank src start stop in
    let m_stop = trim_end src start ws in
    let mnemonic = String.sub src start (m_stop - start) in
    let mnemonic =
      if has_upper src start m_stop then String.lowercase_ascii mnemonic else mnemonic
    in
    let rest = if ws >= stop then stop else skip_space src (ws + 1) stop in
    let operands = if rest >= stop then [] else parse_operands lineno src rest stop in
    let stmt =
      if mnemonic.[0] = '.' then Sdirective (mnemonic, operands)
      else Sinstr (mnemonic, operands)
    in
    push acc (lineno, stmt)
  end

let rec line_end src i n =
  if i >= n || String.unsafe_get src i = '\n' then i else line_end src (i + 1) n

let parse_string src =
  let n = String.length src in
  (* room for one statement per line; labels sharing a line may grow it *)
  let lines = String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 1 src in
  let acc = { stmts = Array.make lines filler; len = 0 } in
  let rec go start lineno =
    let stop = line_end src start n in
    parse_line src lineno start stop acc;
    if stop < n then go (stop + 1) (lineno + 1)
  in
  go 0 1;
  Array.sub acc.stmts 0 acc.len
