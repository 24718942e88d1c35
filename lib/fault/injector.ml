module Bits = S4e_bits.Bits
module Machine = S4e_cpu.Machine
module Hooks = S4e_cpu.Hooks

(* What [disarm] has to undo: nothing for a memory flip (it persists),
   the counting hook of a transient, the stuck bit of a permanent
   register fault. *)
type armed = Flipped | Hooked of Hooks.id | Stuck

let flip_code m addr bit =
  (* bit within the 32-bit word at the (aligned) address; [load_word]
     invalidates the word's translations on every hart *)
  let base = addr land lnot 3 in
  let w = S4e_mem.Sparse_mem.read32 (S4e_mem.Bus.ram m.Machine.bus) base in
  Machine.load_word m base (Bits.flip_bit bit w);
  (* Writing through [Sparse_mem] mutates page buffers in place, so the
     bus TLB stays content-coherent — but an injector write is exactly
     the kind of behind-the-bus mutation the TLB contract does not
     cover, so flush rather than rely on that implementation detail. *)
  S4e_mem.Bus.tlb_flush m.Machine.bus

let flip_data m addr bit =
  let ram = S4e_mem.Bus.ram m.Machine.bus in
  let b = S4e_mem.Sparse_mem.read8 ram addr in
  S4e_mem.Sparse_mem.write8 ram addr (b lxor (1 lsl (bit land 7)));
  S4e_mem.Bus.tlb_flush m.Machine.bus

let flip_gpr st r bit =
  let v = S4e_cpu.Arch_state.get_reg st r in
  S4e_cpu.Arch_state.set_reg st r (Bits.flip_bit bit v)

let flip_fpr st r bit =
  let v = S4e_cpu.Arch_state.get_freg st r in
  S4e_cpu.Arch_state.set_freg st r (Bits.flip_bit bit v)

(* Reject malformed faults up front; the campaign engine catches this
   (and any other per-mutant exception) and classifies the mutant
   [Errored]. *)
let validate f =
  match Fault.validate f with
  | Ok () -> ()
  | Error e -> invalid_arg ("Injector.arm: " ^ e)

(* Stuck-at: the bit is held at the flip of its value at arm time. *)
let hold m file r bit v =
  Machine.set_stuck m
    (Some
       { Machine.sk_file = file; sk_reg = r; sk_bit = bit;
         sk_value = Bits.bit bit v = 0 });
  Stuck

(* Transient: a counting hook applies [flip] just before the [n]th
   instruction executes. *)
let after m n flip =
  let count = ref 0 in
  Hooked
    (Hooks.on_insn m.Machine.hooks (fun _ _ ->
         incr count;
         if !count = n then flip ()))

let arm (m : Machine.t) (f : Fault.t) =
  validate f;
  let st = Machine.state m in
  match (f.Fault.loc, f.Fault.kind) with
  | Fault.Code (addr, bit), Fault.Permanent ->
      flip_code m addr bit;
      Flipped
  | Fault.Code (addr, bit), Fault.Transient n ->
      after m n (fun () -> flip_code m addr bit)
  | Fault.Data (addr, bit), Fault.Permanent ->
      flip_data m addr bit;
      Flipped
  | Fault.Data (addr, bit), Fault.Transient n ->
      after m n (fun () -> flip_data m addr bit)
  | Fault.Gpr (r, bit), Fault.Permanent ->
      hold m Machine.Gpr r bit (S4e_cpu.Arch_state.get_reg st r)
  | Fault.Gpr (r, bit), Fault.Transient n ->
      after m n (fun () -> flip_gpr st r bit)
  | Fault.Fpr (r, bit), Fault.Permanent ->
      hold m Machine.Fpr r bit (S4e_cpu.Arch_state.get_freg st r)
  | Fault.Fpr (r, bit), Fault.Transient n ->
      after m n (fun () -> flip_fpr st r bit)

let disarm (m : Machine.t) = function
  | Flipped -> ()
  | Hooked id -> Hooks.unregister m.Machine.hooks id
  | Stuck -> Machine.set_stuck m None
