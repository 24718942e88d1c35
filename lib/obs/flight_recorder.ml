type kind = Retire | Trap | Irq | Dev

let kind_name = function
  | Retire -> "retire"
  | Trap -> "trap"
  | Irq -> "irq"
  | Dev -> "dev"

type record = {
  mutable r_seq : int;
  mutable r_kind : kind;
  mutable r_pc : int;
  mutable r_op : int;
  mutable r_rd : int;
  mutable r_rd_val : int;
  mutable r_addr : int;
  mutable r_width : int;
  mutable r_value : int;
  mutable r_store : bool;
}

(* Valid records occupy the sequence window [lo, seq); slot s lives at
   index [s mod capacity].  The representation makes [rewind] a pair of
   integer stores: writes past a mark overwrite the *oldest* pre-mark
   slots, so rewinding just moves [seq] back and clamps [lo] up to the
   oldest slot that survived. *)
type t = {
  slots : record array;
  cap : int;
  mutable seq : int;
  mutable lo : int;
}

let fresh_record () =
  { r_seq = 0; r_kind = Retire; r_pc = 0; r_op = 0; r_rd = -1; r_rd_val = 0;
    r_addr = -1; r_width = 0; r_value = 0; r_store = false }

let create ?(capacity = 256) () =
  let cap = max 2 capacity in
  { slots = Array.init cap (fun _ -> fresh_record ()); cap; seq = 0; lo = 0 }

let capacity t = t.cap
let seq t = t.seq
let length t = t.seq - t.lo

let clear t =
  t.seq <- 0;
  t.lo <- 0

(* Claim the next slot and advance the window. *)
let next_slot t =
  let r = Array.unsafe_get t.slots (t.seq mod t.cap) in
  r.r_seq <- t.seq;
  t.seq <- t.seq + 1;
  if t.seq - t.lo > t.cap then t.lo <- t.seq - t.cap;
  r

let retire t ~pc ~op ~rd ~rd_val ~addr ~width ~value ~store =
  let r = next_slot t in
  r.r_kind <- Retire;
  r.r_pc <- pc;
  r.r_op <- op;
  r.r_rd <- rd;
  r.r_rd_val <- rd_val;
  r.r_addr <- addr;
  r.r_width <- width;
  r.r_value <- value;
  r.r_store <- store

let event t kind ~pc ~info =
  let r = next_slot t in
  r.r_kind <- kind;
  r.r_pc <- pc;
  r.r_op <- info;
  r.r_rd <- -1;
  r.r_rd_val <- 0;
  r.r_addr <- -1;
  r.r_width <- 0;
  r.r_value <- 0;
  r.r_store <- false

type mark = { m_seq : int; m_lo : int }

let mark t = { m_seq = t.seq; m_lo = t.lo }

let rewind t m =
  (* Slots written since the mark overwrote the oldest pre-mark
     records; [t.seq - t.cap] is the oldest sequence number whose slot
     still holds its own record. *)
  let surviving_lo = max m.m_lo (t.seq - t.cap) in
  t.lo <- min m.m_seq surviving_lo;
  t.seq <- m.m_seq

let copy_record r =
  { r_seq = r.r_seq; r_kind = r.r_kind; r_pc = r.r_pc; r_op = r.r_op;
    r_rd = r.r_rd; r_rd_val = r.r_rd_val; r_addr = r.r_addr;
    r_width = r.r_width; r_value = r.r_value; r_store = r.r_store }

let records t =
  let out = ref [] in
  for s = t.seq - 1 downto t.lo do
    out := copy_record t.slots.(s mod t.cap) :: !out
  done;
  !out

let pp_record fmt r =
  Format.fprintf fmt "%8d %-6s pc=0x%08x" r.r_seq (kind_name r.r_kind) r.r_pc;
  (match r.r_kind with
  | Retire -> Format.fprintf fmt " op=0x%08x" r.r_op
  | Trap | Irq | Dev -> Format.fprintf fmt " info=0x%x" r.r_op);
  if r.r_rd >= 32 then Format.fprintf fmt " f%d=0x%08x" (r.r_rd - 32) r.r_rd_val
  else if r.r_rd >= 0 then Format.fprintf fmt " x%d=0x%08x" r.r_rd r.r_rd_val;
  if r.r_addr >= 0 then
    Format.fprintf fmt " %s[0x%08x]%d=0x%x"
      (if r.r_store then "st" else "ld")
      r.r_addr r.r_width r.r_value
