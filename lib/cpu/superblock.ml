open S4e_isa.Instr
module Bits = S4e_bits.Bits
module Bus = S4e_mem.Bus
module Timing = Timing_model

type word = int

(* Everything a compiled trace may touch, bound once per machine (the
   trace analogue of [Lower.ctx]).  The callbacks keep this module free
   of a dependency on [Machine]:

   - [sx_flush] applies the batched cycles in [sx_pending] to the cycle
     counter and the CLINT (cycles only — unlike the block engine's
     flush, retire crediting is separate because traces credit
     instret/fuel with per-exit constants);
   - [sx_retire n] credits n retired instructions (instret and fuel);
   - [sx_trap cause pc pred] performs full trap entry for a trace µop:
     flush, credit [pred] predecessor retires, enter the exception at
     [pc] (raising the machine's stop exception when fatal), charge
     system cycles, credit the trapping instruction, and re-check the
     exit latch.  After it returns the trace must side-exit.
   - [sx_irq] recomputes mip from the live CLINT state plus the
     batched-but-unapplied cycles, stores it (mip is digest-visible),
     and reports whether a deliverable interrupt is pending — the exact
     check the dispatch loop performs between blocks. *)
type ctx = {
  sx_state : Arch_state.t;
  sx_bus : Bus.t;
  sx_timing : Timing.t;
  sx_pending : int ref;
  sx_exit_dirty : bool ref;
  sx_flush : unit -> unit;
  sx_retire : int -> unit;
  sx_exit_code : unit -> int option;
  sx_raise_exited : int -> unit;
  sx_trap : Trap.exception_cause -> word -> int -> unit;
  sx_irq : unit -> bool;
  sx_notify_store : word -> unit;
  sx_get_llm : unit -> int;
  sx_set_llm : int -> unit;
  sx_dev_limit : word;
}

type trace = {
  tr_head_pc : word;
  tr_blocks : int;
  tr_instrs : int;  (* guest instructions retired on full completion *)
  tr_dead : bool ref;
  tr_body : unit -> unit;
  tr_members : Tb_cache.entry list;
}

type Tb_cache.attachment += Trace_head of trace | Trace_member of trace

type t = {
  sx : ctx;
  tb : Tb_cache.t;
  mutable traces : trace list;
  mutable promotions : int;
  mutable invalidations : int;
  mutable completions : int;
  mutable bails_guard : int;
  mutable bails_irq : int;
  mutable bails_dead : int;
  mutable bails_trap : int;
  mutable execs : int;
  mutable instrs_in_traces : int;
  mutable stuck_gpr : int;
      (* the hart's stuck GPR, 0 for none: blocks that write it are
         never promoted (see [promotable_block]) *)
  promote_period : int;  (* power of two *)
  min_edge_hits : int;
  max_blocks : int;
  max_instrs : int;
}

(* ---------------- invalidation ---------------- *)

let invalidate t tr =
  if not !(tr.tr_dead) then begin
    tr.tr_dead := true;
    t.invalidations <- t.invalidations + 1;
    t.traces <- List.filter (fun x -> not (x == tr)) t.traces;
    (* detach surviving members so they can join future traces; the
       entry being killed has its attach field reset by [Tb_cache.kill]
       itself *)
    List.iter
      (fun (e : Tb_cache.entry) ->
        match e.Tb_cache.attach with
        | Trace_head x when x == tr -> e.Tb_cache.attach <- Tb_cache.No_attachment
        | Trace_member x when x == tr ->
            e.Tb_cache.attach <- Tb_cache.No_attachment
        | _ -> ())
      tr.tr_members
  end

let on_kill t (e : Tb_cache.entry) =
  match e.Tb_cache.attach with
  | Trace_head tr | Trace_member tr -> invalidate t tr
  | _ -> ()

let on_flush t =
  List.iter (fun tr -> tr.tr_dead := true) t.traces;
  t.invalidations <- t.invalidations + List.length t.traces;
  t.traces <- []

let create ?(promote_period = 64) ?(min_edge_hits = 16) ?(max_blocks = 16)
    ?(max_instrs = 96) sx tb =
  let t =
    { sx; tb; traces = []; promotions = 0; invalidations = 0;
      completions = 0; bails_guard = 0; bails_irq = 0; bails_dead = 0;
      bails_trap = 0; execs = 0; instrs_in_traces = 0; stuck_gpr = 0;
      promote_period; min_edge_hits; max_blocks; max_instrs }
  in
  Tb_cache.set_invalidate_hooks tb ~on_kill:(on_kill t)
    ~on_flush:(fun () -> on_flush t);
  t

(* ---------------- promotion path selection ---------------- *)

(* Instruction classes a trace can carry.  Everything else (CSR, system,
   atomics, FP, wfi, fences) either observes time mid-block, ends the
   run, or is rare enough that promotion is not worth the compile
   complexity — blocks containing them simply stay on the per-block
   engine.  Nor can a trace carry a write to a stuck register: it
   passes results through OCaml locals, which would read past the
   force, while the block engine re-forces after the write.  A trace
   that never writes the register only reads it, and reads the held
   value. *)
let promotable_instr ~stuck = function
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Load (_, rd, _, _) | Op_imm (_, rd, _, _) | Shift_imm (_, rd, _, _)
  | Op (_, rd, _, _) | Unary (_, rd, _) ->
      stuck = 0 || rd <> stuck
  | Branch _ | Store _ -> true
  | _ -> false

(* A loop, not [Array.for_all]: promotion tests blocks on every
   attempt, and [for_all]'s local loop closure would allocate. *)
let promotable_block t (e : Tb_cache.entry) =
  let instrs = e.Tb_cache.instrs in
  let n = Array.length instrs in
  let stuck = t.stuck_gpr in
  let i = ref 0 in
  while
    !i < n
    &&
    let _, _, instr = Array.unsafe_get instrs !i in
    promotable_instr ~stuck instr
  do
    incr i
  done;
  n > 0 && !i = n

(* How control leaves a constituent block for the next one. *)
type edge_k =
  | Uncond of word  (* jal or straight-line fallthrough: next block pc *)
  | Jalr_to of word  (* guard: computed target must equal this pc *)
  | Br_to of bool * word  (* expected taken?, other-direction target *)
  | Final  (* last block: terminal keeps full per-block semantics *)

(* The edge [cur -> dst] implied by [cur]'s terminal instruction, or
   None when the transition cannot be guarded (e.g. a branch whose two
   targets coincide, where the direction is unobservable from the pc). *)
let edge_to (cur : Tb_cache.entry) (dst_pc : word) =
  let n = Array.length cur.Tb_cache.instrs in
  let tpc, tsize, tin = cur.Tb_cache.instrs.(n - 1) in
  match tin with
  | Jal (_, off) ->
      if Bits.add tpc (Bits.of_signed off) = dst_pc then Some (Uncond dst_pc)
      else None
  | Jalr _ -> Some (Jalr_to dst_pc)
  | Branch (_, _, _, off) ->
      let taken = Bits.add tpc (Bits.of_signed off) in
      let fallthrough = Bits.mask32 (tpc + tsize) in
      if taken = fallthrough then None
      else if dst_pc = taken then Some (Br_to (true, fallthrough))
      else if dst_pc = fallthrough then Some (Br_to (false, taken))
      else None
  | _ ->
      (* block cut at max length / before an undecodable word *)
      if Bits.mask32 (tpc + tsize) = dst_pc then Some (Uncond dst_pc) else None

(* The hotter of the two chain links, if hot enough; [Tb_cache.no_entry]
   when neither is (an empty link holds it too, and it is dead). *)
let hot_successor t (e : Tb_cache.entry) =
  let a = e.Tb_cache.link_a and ah = e.Tb_cache.link_a_hits in
  let b = e.Tb_cache.link_b and bh = e.Tb_cache.link_b_hits in
  let hot_a = ah >= t.min_edge_hits && not a.Tb_cache.dead in
  let hot_b = bh >= t.min_edge_hits && not b.Tb_cache.dead in
  if ah >= bh then
    if hot_a then a else if hot_b then b else Tb_cache.no_entry
  else if hot_b then b
  else if hot_a then a
  else Tb_cache.no_entry

(* ---------------- trace compilation ---------------- *)

(* One decoded guest instruction inside the trace, tagged with its role.
   [uterm = Some _] marks the last instruction of a constituent block. *)
type unit_u = {
  upc : word;
  usize : int;
  uin : S4e_isa.Instr.t;
  uterm : edge_k option;
}

let dest_of = function
  | Lui (rd, _) | Auipc (rd, _) -> rd
  | Op_imm (_, rd, _, _) | Shift_imm (_, rd, _, _) | Op (_, rd, _, _)
  | Unary (_, rd, _) ->
      rd
  | _ -> -1

(* Compile-time constant value of a lone lui/auipc, if any. *)
let const_of ~pc = function
  | Lui (_, imm20) -> Some (Bits.mask32 (imm20 lsl 12))
  | Auipc (_, imm20) -> Some (Bits.add pc (imm20 lsl 12))
  | _ -> None

let align_mask_load = function LB | LBU -> 0 | LH | LHU -> 1 | LW -> 3
let align_mask_store = function SB -> 0 | SH -> 1 | SW -> 3

let raw_load bus = function
  | LB -> fun addr -> Bits.sext ~width:8 (Bus.read8 bus addr)
  | LBU -> Bus.read8 bus
  | LH -> fun addr -> Bits.sext ~width:16 (Bus.read16 bus addr)
  | LHU -> Bus.read16 bus
  | LW -> Bus.read32 bus

let raw_store bus = function
  | SB -> Bus.write8 bus
  | SH -> Bus.write16 bus
  | SW -> Bus.write32 bus

let compile t (path : Tb_cache.entry array) =
  let sx = t.sx in
  let st = sx.sx_state in
  let bus = sx.sx_bus in
  let pending = sx.sx_pending in
  let dev_limit = sx.sx_dev_limit in
  let hazard = sx.sx_timing.Timing.load_use_hazard in
  let get r = Arch_state.get_reg st r in
  let set r v = Arch_state.set_reg st r v in
  let dead = ref false in
  let nb = Array.length path in
  (* -- flatten the block path into one instruction stream -- *)
  let units =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun bi (e : Tb_cache.entry) ->
              let n = Array.length e.Tb_cache.instrs in
              Array.mapi
                (fun ui (pc, size, instr) ->
                  let uterm =
                    if ui < n - 1 then None
                    else if bi = nb - 1 then Some Final
                    else edge_to e path.(bi + 1).Tb_cache.block_pc
                  in
                  { upc = pc; usize = size; uin = instr; uterm })
                e.Tb_cache.instrs)
            path))
  in
  let m = Array.length units in
  (* -- fusion pass: mark unit i as consuming unit i+1.  Constant
     folds only swallow straight-line seconds (a terminal needs its
     boundary checks); guard fusion swallows a non-final branch
     terminal, whose boundary the fused closure re-emits. -- *)
  let paired = Array.make m false in
  let consumed = Array.make m false in
  let straight u = match u.uterm with None -> true | Some _ -> false in
  let guardable u =
    match u.uterm with
    | Some (Uncond _ | Jalr_to _ | Br_to _) -> true
    | Some Final | None -> false
  in
  let i = ref 0 in
  while !i < m - 1 do
    let a = units.(!i) and b = units.(!i + 1) in
    let fuse =
      (not consumed.(!i))
      && straight a  (* the first of a pair is never a terminal *)
      &&
      match (const_of ~pc:a.upc a.uin, dest_of a.uin, b.uin) with
      (* lui/auipc rd, hi ; addi rd2, rd, lo  ->  constant store(s) *)
      | Some _, rd, Op_imm (ADDI, _, rs1, _)
        when rd > 0 && rs1 = rd && straight b ->
          true
      (* lui/auipc rd, hi ; load/store off(rd)  ->  constant address *)
      | Some v, rd, Load (op, _, base, imm)
        when rd > 0 && base = rd && straight b
             && Bits.add v (Bits.of_signed imm) land align_mask_load op = 0 ->
          true
      | Some v, rd, Store (op, _, base, imm)
        when rd > 0 && base = rd && straight b
             && Bits.add v (Bits.of_signed imm) land align_mask_store op = 0 ->
          true
      (* alu ; beq/bne/…  ->  compute, compare and guard in one item *)
      | _, rd, Branch _ when rd >= 0 && guardable b -> true
      | _ -> false
    in
    if fuse then begin
      paired.(!i) <- true;
      consumed.(!i + 1) <- true;
      i := !i + 2
    end
    else incr i
  done;
  (* -- forward static accounting --
     [stall.(i)]: load-use stall charged when unit i (or the first half
     of pair i) issues, 0 for i = 0 where the window crosses the trace
     entry and is resolved dynamically against the machine's mask.
     [cost.(i)]: cycles of unit i on the trace ("expected") path.
     A "sync point" consumes the accumulated unsynced cycles into a
     static [pending] add so the batched clock is exact wherever it can
     be observed: before any load/store body (device reads of mtime),
     at every block boundary (interrupt sampling), and before the final
     terminal. *)
  let is_mem u = match u.uin with Load _ | Store _ -> true | _ -> false in
  let cost = Array.make m 0 in
  let stall = Array.make m 0 in
  for k = 0 to m - 1 do
    let u = units.(k) in
    let cn, ct = Timing.costs sx.sx_timing u.uin in
    cost.(k) <-
      (match u.uterm with
      | Some (Br_to (expected, _)) -> if expected then ct else cn
      | Some Final -> 0  (* charged dynamically by the final body *)
      | _ -> cn);
    if k > 0 && hazard > 0 && not consumed.(k) then begin
      (* find the previous retired unit (last of the previous item) *)
      let p = k - 1 in
      let prev = units.(p) in
      if
        S4e_isa.Instr.load_dest_mask prev.uin
        land S4e_isa.Instr.source_mask u.uin
        <> 0
      then stall.(k) <- hazard
    end
  done;
  (* retired-before, unsynced-cycles-before for each unit *)
  let r_before = Array.make (m + 1) 0 in
  let csync_before = Array.make (m + 1) 0 in
  let racc = ref 0 and cacc = ref 0 in
  for k = 0 to m - 1 do
    let u = units.(k) in
    let first_of_item = not consumed.(k) in
    (* a pair syncs like its second (memory) half; treat the item's
       sync point as occurring at the memory unit itself *)
    if (is_mem u || u.uterm = Some Final) && first_of_item && not paired.(k)
    then begin
      r_before.(k) <- !racc;
      csync_before.(k) <- !cacc;
      cacc := 0
    end
    else if consumed.(k) && is_mem u then begin
      (* memory second-half of a pair: sync before the pair's access,
         with the first half's cost already accumulated *)
      r_before.(k) <- !racc;
      csync_before.(k) <- !cacc;
      cacc := 0
    end
    else begin
      r_before.(k) <- !racc;
      csync_before.(k) <- !cacc
    end;
    racc := !racc + 1;
    cacc := !cacc + cost.(k) + stall.(k);
    (* a guarded boundary syncs everything accumulated so far
       (interrupt sampling needs the batched clock exact), so the next
       block starts a fresh accumulation *)
    (match u.uterm with
    | Some (Uncond _ | Jalr_to _ | Br_to _) -> cacc := 0
    | Some Final | None -> ())
  done;
  r_before.(m) <- !racc;
  csync_before.(m) <- !cacc;
  let total_instrs = m in
  (* -- closure construction, back to front -- *)
  let llm_of u = if hazard > 0 then S4e_isa.Instr.load_dest_mask u.uin else 0 in
  (* Side exit: sync [add] leftover cycles, apply the batch, credit
     [retire] guest instructions, restore the hazard window, land on
     [pc] (when [Some]), and record the partial execution. *)
  let exit_state ~add ~retire ~llm ~pc () =
    if add <> 0 then pending := !pending + add;
    sx.sx_flush ();
    sx.sx_retire retire;
    sx.sx_set_llm llm;
    (match pc with Some target -> st.pc <- target | None -> ());
    t.instrs_in_traces <- t.instrs_in_traces + retire
  in
  (* Boundary between constituent blocks: the batched clock is already
     exact here (terminal cost synced by the caller); check trace
     liveness, then sample interrupts exactly as the dispatch loop
     would (writing mip), bailing with architecturally complete state
     if one is deliverable. *)
  let boundary ~retire ~llm ~next_pc k_next =
    let bail_dead = exit_state ~add:0 ~retire ~llm ~pc:(Some next_pc) in
    let bail_irq = exit_state ~add:0 ~retire ~llm ~pc:(Some next_pc) in
    fun () ->
      if !dead then begin
        t.bails_dead <- t.bails_dead + 1;
        bail_dead ()
      end
      else if sx.sx_irq () then begin
        t.bails_irq <- t.bails_irq + 1;
        bail_irq ()
      end
      else k_next ()
  in
  let trap_exit ~pc ~pred cause =
    t.bails_trap <- t.bails_trap + 1;
    t.instrs_in_traces <- t.instrs_in_traces + pred + 1;
    sx.sx_trap cause pc pred
  in
  (* Store-side exit latch: after any store the syscon may have latched
     an exit code.  Mirrors the block engine's per-µop [check_exit];
     [add] is the store's own cycle charge, which the block engine
     batches before its exit check fires. *)
  let store_exit_check ~add ~retire ~llm ~next_pc k_next () =
    if !(sx.sx_exit_dirty) then begin
      match sx.sx_exit_code () with
      | Some code ->
          exit_state ~add ~retire ~llm ~pc:(Some next_pc) ();
          sx.sx_raise_exited code
      | None ->
          sx.sx_exit_dirty := false;
          k_next ()
    end
    else k_next ()
  in
  (* Compile one item (unit k, possibly consuming k+1) given the
     continuation for the next item.  [build] is memoized: a fused
     compare+branch builds the suffix both as its fallthrough
     continuation and via the pair dispatcher's eager argument, so an
     uncached build would go exponential in the number of fused guards
     (unrolled loop traces hit milliseconds of compile time). *)
  let memo : (unit -> unit) option array = Array.make (m + 1) None in
  let rec build k : unit -> unit =
    match memo.(k) with
    | Some f -> f
    | None ->
        let f = build_uncached k in
        memo.(k) <- Some f;
        f
  and build_uncached k : unit -> unit =
    if k >= m then begin
      (* full completion: everything is credited by the final terminal.
         The hazard window reopens from the final unit (a cut block can
         end in a load). *)
      let retire = total_instrs in
      let final_llm = llm_of units.(m - 1) in
      fun () ->
        sx.sx_flush ();
        sx.sx_retire retire;
        sx.sx_set_llm final_llm;
        t.completions <- t.completions + 1;
        t.instrs_in_traces <- t.instrs_in_traces + retire
    end
    else begin
      let u = units.(k) in
      let is_pair = paired.(k) in
      let k' = if is_pair then k + 2 else k + 1 in
      match u.uterm with
      | Some Final -> build_final k
      | Some edge when not is_pair -> build_terminal k u edge
      | _ ->
          if is_pair then build_pair k (build k')
          else build_straight k u (build k')
    end
  (* ---- straight-line single instructions ---- *)
  and build_straight k u next =
    let retire_here = r_before.(k) in
    match u.uin with
    | Lui _ | Auipc _ | Op_imm _ | Shift_imm _ | Op _ | Unary _ ->
        Reg_kernel.value (Reg_kernel.Next next) st ~pc:u.upc u.uin
    | Load (op, rd, base, imm) ->
        let b = Bits.of_signed imm in
        let amask = align_mask_load op in
        let read = raw_load bus op in
        let pre = csync_before.(k) in
        let trap = trap_exit ~pc:u.upc ~pred:retire_here in
        let smask = S4e_isa.Instr.source_mask u.uin in
        if k = 0 && hazard > 0 && smask <> 0 then
          (* the load-use window crossing the trace entry resolves
             against the machine's live mask; the stall joins the batch
             after the access (and never on the trap path), exactly as
             the block engine orders it *)
          fun () ->
            let stl = if sx.sx_get_llm () land smask <> 0 then hazard else 0 in
            let addr = Bits.add (get base) b in
            if addr < dev_limit then sx.sx_flush ();
            if amask <> 0 && addr land amask <> 0 then
              trap (Trap.Misaligned_load addr)
            else begin
              set rd (read addr);
              if stl <> 0 then pending := !pending + stl;
              next ()
            end
        else fun () ->
          if pre <> 0 then pending := !pending + pre;
          let addr = Bits.add (get base) b in
          if addr < dev_limit then sx.sx_flush ();
          if amask <> 0 && addr land amask <> 0 then
            trap (Trap.Misaligned_load addr)
          else begin
            set rd (read addr);
            next ()
          end
    | Store (op, src, base, imm) ->
        let b = Bits.of_signed imm in
        let amask = align_mask_store op in
        let write = raw_store bus op in
        let pre = csync_before.(k) in
        let trap = trap_exit ~pc:u.upc ~pred:retire_here in
        let next_pc = Bits.mask32 (u.upc + u.usize) in
        let checked =
          store_exit_check
            ~add:(cost.(k) + stall.(k))
            ~retire:(retire_here + 1) ~llm:0 ~next_pc next
        in
        let smask = S4e_isa.Instr.source_mask u.uin in
        if k = 0 && hazard > 0 && smask <> 0 then
          fun () ->
            let stl = if sx.sx_get_llm () land smask <> 0 then hazard else 0 in
            let addr = Bits.add (get base) b in
            if addr < dev_limit then sx.sx_flush ();
            if amask <> 0 && addr land amask <> 0 then
              trap (Trap.Misaligned_store addr)
            else begin
              write addr (get src);
              sx.sx_notify_store addr;
              if stl <> 0 then pending := !pending + stl;
              checked ()
            end
        else fun () ->
          if pre <> 0 then pending := !pending + pre;
          let addr = Bits.add (get base) b in
          if addr < dev_limit then sx.sx_flush ();
          if amask <> 0 && addr land amask <> 0 then
            trap (Trap.Misaligned_store addr)
          else begin
            write addr (get src);
            sx.sx_notify_store addr;
            checked ()
          end
    | _ -> assert false
  (* ---- fused pairs ---- *)
  and build_pair k next =
    let a = units.(k) and b = units.(k + 1) in
    let retire_here = r_before.(k) in
    let rd = dest_of a.uin in
    match (const_of ~pc:a.upc a.uin, b.uin) with
    | Some v1, Op_imm (ADDI, rd2, _, imm) ->
        (* li / la: both destinations become constant stores *)
        let v2 = Bits.add v1 (Bits.of_signed imm) in
        if rd2 = rd then fun () ->
          set rd2 v2;
          next ()
        else fun () ->
          set rd v1;
          set rd2 v2;
          next ()
    | Some v1, Load (op, rd2, _, imm) ->
        let addr = Bits.add v1 (Bits.of_signed imm) in
        let read = raw_load bus op in
        let pre = csync_before.(k + 1) in
        if addr < dev_limit then
          fun () ->
            if pre <> 0 then pending := !pending + pre;
            set rd v1;
            sx.sx_flush ();
            set rd2 (read addr);
            next ()
        else fun () ->
          if pre <> 0 then pending := !pending + pre;
          set rd v1;
          set rd2 (read addr);
          next ()
    | Some v1, Store (op, src, _, imm) ->
        let addr = Bits.add v1 (Bits.of_signed imm) in
        let write = raw_store bus op in
        let pre = csync_before.(k + 1) in
        let sval () = if src = rd then v1 else get src in
        let next_pc = Bits.mask32 (b.upc + b.usize) in
        let checked =
          store_exit_check ~add:cost.(k + 1) ~retire:(retire_here + 2) ~llm:0
            ~next_pc next
        in
        let flush_dev = addr < dev_limit in
        fun () ->
          if pre <> 0 then pending := !pending + pre;
          set rd v1;
          if flush_dev then sx.sx_flush ();
          write addr (sval ());
          sx.sx_notify_store addr;
          checked ()
    | _, Branch (op, brs1, brs2, _) -> (
        (* alu + conditional terminal: the ALU kernel runs straight
           into the guard's branch kernel *)
        match b.uterm with
        | Some (Br_to (expected, other)) ->
            let guard =
              guard_branch op ~rs1:brs1 ~rs2:brs2 ~expected
                ~cont:(build_guard_cont (k + 1) b)
                ~bail:
                  (guard_bail (k + 1) b ~other ~llm:0
                     ~retire:(r_before.(k) + 2))
            in
            Reg_kernel.value (Reg_kernel.Next guard) st ~pc:a.upc a.uin
        | _ -> assert false)
    | _ -> assert false
  (* continue past a guarded terminal at unit j: sync the boundary
     cycles and run the boundary checks, then the next block *)
  and build_guard_cont j u =
    (* a memory-op terminal (cut block) already synced
       [csync_before.(j)] inside its own body; only its cost remains *)
    let bsync =
      if is_mem u then cost.(j) + stall.(j)
      else csync_before.(j) + cost.(j) + stall.(j)
    in
    let retire = r_before.(j) + 1 in
    let llm = llm_of u in
    let next_pc =
      match u.uterm with
      | Some (Uncond pc) -> pc
      | Some (Jalr_to pc) -> pc
      | Some (Br_to (expected, _other)) ->
          let tpc = u.upc and tsize = u.usize in
          let taken, ft =
            match u.uin with
            | Branch (_, _, _, off) ->
                (Bits.add tpc (Bits.of_signed off), Bits.mask32 (tpc + tsize))
            | _ -> assert false
          in
          if expected then taken else ft
      | _ -> assert false
    in
    let k_next = build (j + 1) in
    let bnd = boundary ~retire ~llm ~next_pc k_next in
    if bsync <> 0 then fun () ->
      pending := !pending + bsync;
      bnd ()
    else bnd
  (* a guarded branch terminal: continue the trace in the expected
     direction, bail in the other *)
  and guard_branch op ~rs1 ~rs2 ~expected ~cont ~bail =
    let fk =
      if expected then Reg_kernel.Either (cont, bail)
      else Reg_kernel.Either (bail, cont)
    in
    Reg_kernel.branch fk st op ~rs1 ~rs2
  (* bail when a guarded terminal goes the unexpected way: charge the
     other-direction cost instead of the expected one *)
  and guard_bail j u ~other ~llm ~retire =
    let cn, ct = Timing.costs sx.sx_timing u.uin in
    let bail_cost =
      match u.uterm with
      | Some (Br_to (expected, _)) -> if expected then cn else ct
      | _ -> cn
    in
    let add = csync_before.(j) + bail_cost + stall.(j) in
    let ex = exit_state ~add ~retire ~llm ~pc:(Some other) in
    fun () ->
      t.bails_guard <- t.bails_guard + 1;
      ex ()
  (* ---- guarded (non-final) terminals, unfused ---- *)
  and build_terminal k u edge =
    match (edge, u.uin) with
    | Uncond _, Jal (rd, _) ->
        let link = Bits.mask32 (u.upc + u.usize) in
        let cont = build_guard_cont k u in
        fun () ->
          set rd link;
          cont ()
    | Uncond _, _ ->
        (* straight-line fallthrough into the next block: the terminal
           behaves like any other unit, then the boundary runs *)
        let cont = build_guard_cont k u in
        build_straight k u cont
    | Jalr_to expected, Jalr (rd, rs1, imm) ->
        let b = Bits.of_signed imm in
        let link = Bits.mask32 (u.upc + u.usize) in
        let cont = build_guard_cont k u in
        let retire = r_before.(k) + 1 in
        let add = csync_before.(k) + cost.(k) + stall.(k) in
        let ex = exit_state ~add ~retire ~llm:0 ~pc:None in
        fun () ->
          let target = Bits.add (get rs1) b land lnot 1 in
          set rd link;
          if target = expected then cont ()
          else begin
            t.bails_guard <- t.bails_guard + 1;
            st.pc <- target;
            ex ()
          end
    | Br_to (expected, other), Branch (op, rs1, rs2, _) ->
        guard_branch op ~rs1 ~rs2 ~expected ~cont:(build_guard_cont k u)
          ~bail:(guard_bail k u ~other ~llm:0 ~retire:(r_before.(k) + 1))
    | _ -> assert false
  (* ---- the final block's terminal: full per-block semantics ---- *)
  and build_final k =
    let u = units.(k) in
    let pre = csync_before.(k) in
    let cn, ct = Timing.costs sx.sx_timing u.uin in
    let stall_k = stall.(k) in
    let retire_here = r_before.(k) in
    let done_ = build m in
    let charge c =
      pending := !pending + c + stall_k
    in
    match u.uin with
    | Jal (rd, off) ->
        let target = Bits.add u.upc (Bits.of_signed off) in
        let link = Bits.mask32 (u.upc + u.usize) in
        fun () ->
          if pre <> 0 then pending := !pending + pre;
          set rd link;
          st.pc <- target;
          charge cn;
          done_ ()
    | Jalr (rd, rs1, imm) ->
        let b = Bits.of_signed imm in
        let link = Bits.mask32 (u.upc + u.usize) in
        fun () ->
          if pre <> 0 then pending := !pending + pre;
          let target = Bits.add (get rs1) b land lnot 1 in
          set rd link;
          st.pc <- target;
          charge cn;
          done_ ()
    | Branch (op, rs1, rs2, off) ->
        (* the compare observes no time, so [pre] joins each direction's
           charge *)
        let leave pc c () =
          pending := !pending + pre + c + stall_k;
          st.pc <- pc;
          done_ ()
        in
        let taken = leave (Bits.add u.upc (Bits.of_signed off)) ct in
        let ft = leave (Bits.mask32 (u.upc + u.usize)) cn in
        Reg_kernel.branch (Reg_kernel.Either (taken, ft)) st op ~rs1 ~rs2
    | Lui _ | Auipc _ | Op_imm _ | Shift_imm _ | Op _ | Unary _ ->
        let next_pc = Bits.mask32 (u.upc + u.usize) in
        let leave () =
          pending := !pending + pre + cn + stall_k;
          st.pc <- next_pc;
          done_ ()
        in
        Reg_kernel.value (Reg_kernel.Next leave) st ~pc:u.upc u.uin
    | Load (op, rd, base, imm) ->
        let b = Bits.of_signed imm in
        let amask = align_mask_load op in
        let read = raw_load bus op in
        let trap = trap_exit ~pc:u.upc ~pred:retire_here in
        let next_pc = Bits.mask32 (u.upc + u.usize) in
        fun () ->
          if pre <> 0 then pending := !pending + pre;
          let addr = Bits.add (get base) b in
          if addr < dev_limit then sx.sx_flush ();
          if amask <> 0 && addr land amask <> 0 then
            trap (Trap.Misaligned_load addr)
          else begin
            set rd (read addr);
            st.pc <- next_pc;
            charge cn;
            done_ ()
          end
    | Store (op, src, base, imm) ->
        let b = Bits.of_signed imm in
        let amask = align_mask_store op in
        let write = raw_store bus op in
        let trap = trap_exit ~pc:u.upc ~pred:retire_here in
        let next_pc = Bits.mask32 (u.upc + u.usize) in
        let checked =
          store_exit_check ~add:(cn + stall_k) ~retire:(retire_here + 1)
            ~llm:0 ~next_pc
            (fun () ->
              charge cn;
              done_ ())
        in
        fun () ->
          if pre <> 0 then pending := !pending + pre;
          let addr = Bits.add (get base) b in
          if addr < dev_limit then sx.sx_flush ();
          if amask <> 0 && addr land amask <> 0 then
            trap (Trap.Misaligned_store addr)
          else begin
            write addr (get src);
            sx.sx_notify_store addr;
            st.pc <- next_pc;
            checked ()
          end
    | _ -> assert false
  in
  let first = build 0 in
  (* Trace entry: resolve the load-use window that crosses the trace
     entry against the machine's live mask.  A leading memory op
     charges its stall inside its own body (after the access, like the
     block engine); anything else joins the batch up front — the first
     possible observation point is later, so the order is inert. *)
  let s0 = S4e_isa.Instr.source_mask units.(0).uin in
  let body =
    if hazard > 0 && s0 <> 0 && not (is_mem units.(0)) then fun () ->
      if sx.sx_get_llm () land s0 <> 0 then pending := !pending + hazard;
      first ()
    else first
  in
  (dead, body, total_instrs)

(* ---------------- promotion driver ---------------- *)

let unattached (e : Tb_cache.entry) =
  (* attachments hold closures — never compare them structurally *)
  match e.Tb_cache.attach with
  | Tb_cache.No_attachment -> true
  | _ -> false

(* Can [dst] follow [cur] on a path of [instrs] instructions?
   [revisit]: [dst] is already on the path. *)
let can_extend t (cur : Tb_cache.entry) (dst : Tb_cache.entry) ~instrs
    ~revisit =
  instrs + Array.length dst.Tb_cache.instrs <= t.max_instrs
  && promotable_block t dst
  && (revisit || unattached dst)
  && Option.is_some (edge_to cur dst.Tb_cache.block_pc)

(* A block whose first step cannot extend (say, its hot successor
   already heads a trace) fails here on every attempt, so that test
   comes before anything is allocated. *)
let promote t (head : Tb_cache.entry) =
  let n0 = Array.length head.Tb_cache.instrs in
  if
    n0 > 0 && n0 <= t.max_instrs
    && promotable_block t head
    && unattached head
    &&
    let first = hot_successor t head in
    can_extend t head first ~instrs:n0 ~revisit:(first == head)
  then begin
    let rec extend rev_path members instrs blocks cur =
      let dst = hot_successor t cur in
      let revisit = List.memq dst members in
      if blocks < t.max_blocks && can_extend t cur dst ~instrs ~revisit then
        extend (dst :: rev_path)
          (if revisit then members else dst :: members)
          (instrs + Array.length dst.Tb_cache.instrs)
          (blocks + 1) dst
      else List.rev rev_path
    in
    let path = extend [ head ] [ head ] n0 1 head in
    if List.length path >= 2 then begin
      let parr = Array.of_list path in
      let dead, body, total = compile t parr in
      let members =
        List.fold_left
          (fun acc e -> if List.memq e acc then acc else e :: acc)
          [] path
      in
      let tr =
        { tr_head_pc = head.Tb_cache.block_pc;
          tr_blocks = Array.length parr; tr_instrs = total; tr_dead = dead;
          tr_body = body; tr_members = members }
      in
      head.Tb_cache.attach <- Trace_head tr;
      List.iter
        (fun (e : Tb_cache.entry) ->
          if not (e == head) then e.Tb_cache.attach <- Trace_member tr)
        members;
      t.traces <- tr :: t.traces;
      t.promotions <- t.promotions + 1
    end
  end

let promote_period t = t.promote_period

let set_stuck_gpr t r = t.stuck_gpr <- r

let maybe_promote t entry =
  match entry.Tb_cache.attach with
  | Tb_cache.No_attachment -> promote t entry
  | _ -> ()

(* ---------------- execution ---------------- *)

let exec t tr =
  t.execs <- t.execs + 1;
  tr.tr_body ()

(* ---------------- stats ---------------- *)

type stats = {
  sb_live : int;
  sb_promotions : int;
  sb_invalidations : int;
  sb_execs : int;
  sb_completions : int;
  sb_instrs : int;
  sb_bail_guard : int;
  sb_bail_irq : int;
  sb_bail_dead : int;
  sb_bail_trap : int;
}

let stats t =
  { sb_live = List.length t.traces;
    sb_promotions = t.promotions;
    sb_invalidations = t.invalidations;
    sb_execs = t.execs;
    sb_completions = t.completions;
    sb_instrs = t.instrs_in_traces;
    sb_bail_guard = t.bails_guard;
    sb_bail_irq = t.bails_irq;
    sb_bail_dead = t.bails_dead;
    sb_bail_trap = t.bails_trap }
