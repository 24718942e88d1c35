(** Assembly source representation and parsing.

    The surface syntax is the GNU-as RISC-V dialect restricted to what
    the ecosystem needs: labels, a directive set ([.text], [.data],
    [.org], [.align], [.word], [.half], [.byte], [.ascii],
    [.asciz]/[.string], [.space]/[.zero], [.equ]/[.set],
    [.globl]/[.global]), instructions with register / immediate /
    [offset(base)] operands, [%hi]/[%lo] relocation operators, and
    [#]-or-[//] comments.

    The parser makes one pass over the source string, by index. *)

type expr =
  | Num of int
  | Sym of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Hi of expr  (** [%hi(e)]: upper 20 bits, rounding-compensated *)
  | Lo of expr  (** [%lo(e)]: signed low 12 bits *)

type operand =
  | Oreg of S4e_isa.Reg.t
  | Ofreg of S4e_isa.Reg.t
  | Oimm of expr
  | Omem of expr * S4e_isa.Reg.t  (** [offset(base)] *)
  | Ostr of string

type stmt =
  | Slabel of string
  | Sdirective of string * operand list
  | Sinstr of string * operand list

exception Parse_error of int * string
(** (line number, message). *)

val max_expr_depth : int
(** 256: the deepest expression tree accepted, counting parentheses,
    unary minus, [%hi]/[%lo] and each [+]/[-] of a chain. *)

val parse_string : string -> (int * stmt) array
(** Parses a whole source file into (line, statement) pairs, in source
    order.
    @raise Parse_error on malformed input. *)

val pp_expr : Format.formatter -> expr -> unit
