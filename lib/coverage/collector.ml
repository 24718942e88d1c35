open S4e_isa

(* Int-keyed tables: pcs and data word indices hash by arithmetic, not
   through the polymorphic hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x lsr 1) lxor (x lsr 13)
end)

(* One static instruction: what a pc last retired.  Its static facts
   (pc, registers read and written, CSR) went into the report when the
   site was recorded; a retire only bumps [pending], which [report]
   folds into the per-mnemonic counts. *)
type site = {
  mutable instr : Instr.t;
  mutable mnemonic : string;
  mutable pending : int;
}

type cell = { mutable bytes : int }  (* bitmask of a word's touched bytes *)

type t = {
  rep : Report.t;
  sites : site Itbl.t;
  words : cell Itbl.t;  (* data word index (addr lsr 2) -> touched bytes *)
  mutable touched : int;  (* distinct touched bytes, for the cap test *)
  mutable hook_ids : S4e_cpu.Hooks.id list;
}

let add_executed (r : Report.t) m n =
  if n > 0 then
    let prev =
      Option.value (Hashtbl.find_opt r.Report.executed m) ~default:0
    in
    Hashtbl.replace r.Report.executed m (prev + n)

let record_static (r : Report.t) pc instr =
  Hashtbl.replace r.Report.executed_pcs pc ();
  List.iter (fun s -> r.Report.gpr_read.(s) <- true) (Instr.sources instr);
  (match Instr.destination instr with
  | Some d -> r.Report.gpr_written.(d) <- true
  | None -> ());
  List.iter (fun s -> r.Report.fpr_read.(s) <- true) (Instr.fp_sources instr);
  (match Instr.fp_destination instr with
  | Some d -> r.Report.fpr_written.(d) <- true
  | None -> ());
  match instr with
  | Instr.Csr (_, _, csr, _) -> Hashtbl.replace r.Report.csr_accessed csr ()
  | _ -> ()

(* Translated code hands the same decoded value to every retire of a
   pc, so the physical test almost always answers.  A different
   instruction at the same pc (self-modifying code) settles the old
   one's count and records the new one's facts. *)
let on_insn t pc instr =
  match Itbl.find t.sites pc with
  | s when s.instr == instr -> s.pending <- s.pending + 1
  | s when s.instr = instr ->
      s.instr <- instr;
      s.pending <- s.pending + 1
  | s ->
      add_executed t.rep s.mnemonic s.pending;
      record_static t.rep pc instr;
      s.instr <- instr;
      s.mnemonic <- Instr.mnemonic instr;
      s.pending <- 1
  | exception Not_found ->
      record_static t.rep pc instr;
      Itbl.replace t.sites pc
        { instr; mnemonic = Instr.mnemonic instr; pending = 1 }

let touch t a =
  let bit = 1 lsl (a land 3) in
  match Itbl.find t.words (a lsr 2) with
  | c ->
      if c.bytes land bit = 0 then begin
        c.bytes <- c.bytes lor bit;
        t.touched <- t.touched + 1
      end
  | exception Not_found ->
      Itbl.replace t.words (a lsr 2) { bytes = bit };
      t.touched <- t.touched + 1

let on_mem t (ev : S4e_cpu.Hooks.mem_event) =
  let r = t.rep in
  let addr = ev.S4e_cpu.Hooks.mem_addr and size = ev.S4e_cpu.Hooks.mem_size in
  r.Report.mem_accesses <- r.Report.mem_accesses + 1;
  if t.touched < Report.touched_data_cap then
    for i = 0 to size - 1 do
      touch t (addr + i)
    done;
  if addr < r.Report.mem_lo then r.Report.mem_lo <- addr;
  if addr + size > r.Report.mem_hi then r.Report.mem_hi <- addr + size

let attach (m : S4e_cpu.Machine.t) ?isa () =
  let isa =
    match isa with
    | Some l -> l
    | None -> m.S4e_cpu.Machine.config.S4e_cpu.Machine.isa
  in
  let t =
    { rep = Report.create ~isa; sites = Itbl.create 1024;
      words = Itbl.create 256; touched = 0; hook_ids = [] }
  in
  let hooks = m.S4e_cpu.Machine.hooks in
  t.hook_ids <-
    [ S4e_cpu.Hooks.on_insn hooks (fun pc i -> on_insn t pc i);
      S4e_cpu.Hooks.on_mem hooks (fun ev -> on_mem t ev) ];
  t

let detach (m : S4e_cpu.Machine.t) t =
  List.iter (S4e_cpu.Hooks.unregister m.S4e_cpu.Machine.hooks) t.hook_ids

let report t =
  let r = t.rep in
  Itbl.iter
    (fun _ s ->
      add_executed r s.mnemonic s.pending;
      s.pending <- 0)
    t.sites;
  Itbl.iter
    (fun w c ->
      for b = 0 to 3 do
        if c.bytes land (1 lsl b) <> 0 then
          Hashtbl.replace r.Report.touched_data ((w lsl 2) + b) ()
      done)
    t.words;
  r
