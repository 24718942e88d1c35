open S4e_isa
module Bus = S4e_mem.Bus
module Soc = S4e_soc

type word = int

type decoder_kind = Hand_decoder | Decodetree_decoder

type config = {
  isa : Isa_module.t list;
  timing : Timing_model.t;
  use_tb_cache : bool;
  decoder : decoder_kind;
  lower_blocks : bool;
  chain_blocks : bool;
  mem_tlb : bool;
  superblocks : bool;
      (* promote hot chained paths into cross-block traces; requires
         the lowered+chained engine to do anything *)
  device_plane : bool;
      (* attach the event-driven devices (DMA engine, vnet) and route
         the CLINT deadline through the event wheel; off reverts to the
         four-device platform with direct timer polling *)
  harts : int;
      (* number of harts; 1 keeps the exact pre-SMP execution path *)
  hart_slice : int;
      (* round-robin fuel quantum per hart (SMP only).  Part of the
         machine's deterministic semantics: the same slice yields the
         same interleaving on every engine. *)
}

let default_config =
  { isa = [ Isa_module.I; M; A; F; C; Zicsr; B ];
    timing = Timing_model.default; use_tb_cache = true;
    decoder = Decodetree_decoder; lower_blocks = true; chain_blocks = true;
    mem_tlb = true; superblocks = true; device_plane = true;
    harts = 1; hart_slice = 1024 }

type reg_file = Lower.reg_file = Gpr | Fpr

type stuck = Lower.stuck = {
  sk_file : reg_file;
  sk_reg : int;
  sk_bit : int;
  sk_value : bool;
}

type stop_reason =
  | Exited of int
  | Fatal_trap of Trap.exception_cause * word
  | Out_of_fuel
  | Wfi_halt

let pp_stop_reason fmt = function
  | Exited code -> Format.fprintf fmt "exited with code %d" code
  | Fatal_trap (cause, pc) ->
      Format.fprintf fmt "fatal trap at 0x%08x: %s" pc (Trap.describe cause)
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"
  | Wfi_halt -> Format.pp_print_string fmt "halted in wfi"

(* One hart's private execution context: architectural state plus the
   translation machinery bound to it.  Lowered µop closures capture
   their [Arch_state.t] at translate time, so translated code is
   hart-bound — each hart gets its own TB cache, lowering context, and
   superblock engine over the shared bus. *)
type hart = {
  hx_id : int;
  hx_clint_hart : int option;
      (* [Some hx_id], built once: the CLINT accessors take the hart as
         an optional argument, and interrupt sampling allocates nothing *)
  hx_state : Arch_state.t;
  hx_tb : Tb_cache.t;
  hx_lower : Lower.ctx;
  mutable hx_sb : Superblock.t option;
  mutable hx_llm : int;
      (* load-use hazard window: the destination of the hart's previous
         instruction when it was a load, as a {!Instr.source_mask}-encoded
         bitmask (0 = no hazard window).  Persists across [run] calls so
         a run split by snapshot/resume or by the scheduler charges the
         same stalls as one uninterrupted run. *)
  mutable hx_parked : bool;
      (* parked in WFI (pc already past it); the scheduler wakes the
         hart when an enabled interrupt becomes pending *)
}

type t = {
  bus : Bus.t;
  uart : Soc.Uart.t;
  clint : Soc.Clint.t;
  gpio : Soc.Gpio.t;
  syscon : Soc.Syscon.t;
  wheel : Soc.Event_wheel.t;
  dma : Soc.Dma.t;
  vnet : Soc.Vnet.t;
  plic : Soc.Plic.t;
  hooks : Hooks.t;
  config : config;
  decode32 : word -> Instr.t option;
  pending_ticks : int ref;
  seg_idx : int ref;
  seg_base : int ref;
  fuel_left : int ref;
  exit_dirty : bool ref;
  harts : hart array;
  mutable cur : int;
      (* index of the hart [run] last scheduled (the one [state] reads) *)
  mutable rr : int;
      (* round-robin scheduling pointer: next hart to consider.
         Persists across [run] calls so staged-fuel runs interleave
         exactly like uninterrupted ones. *)
  mutable profiler : S4e_obs.Profile.t option;
  mutable recorder : S4e_obs.Flight_recorder.t option;
}

exception Stop of stop_reason

module Sset = Set.Make (String)

let full_isa = [ Isa_module.I; M; A; F; C; Zicsr; B ]

let make_decoder config =
  let is_full =
    List.for_all (fun m -> List.mem m config.isa) full_isa
  in
  let base =
    match config.decoder with
    | Hand_decoder -> Decode.decode
    | Decodetree_decoder ->
        if is_full then Decodetree.decode (Decodetree.rv32 ())
        else
          let allowed = Sset.of_list (Isa_module.universe config.isa) in
          let rows =
            List.filter
              (fun r -> Sset.mem r.Decodetree.name allowed)
              Decodetree.rv32_rows
          in
          Decodetree.decode (Decodetree.compile rows)
  in
  match config.decoder with
  | Decodetree_decoder -> base
  | Hand_decoder ->
      if is_full then base
      else
        let allowed = Sset.of_list (Isa_module.universe config.isa) in
        fun w ->
          match base w with
          | Some i when Sset.mem (Instr.mnemonic i) allowed -> Some i
          | Some _ | None -> None

(* Interrupt pending bits in mip. *)
let msip_bit = 1 lsl 3
let mtip_bit = 1 lsl 7
let meip_bit = 1 lsl 11

(* External-interrupt pending for one hart.  While the guest leaves the
   PLIC unconfigured the wheel's lines feed hart 0's MEIP directly (the
   pre-SMP wiring, preserving single-hart digests); once any source is
   enabled the PLIC owns the routing for every hart. *)
let meip_now t hid =
  t.config.device_plane
  &&
  if Soc.Plic.routed t.plic then Soc.Plic.meip t.plic hid
  else hid = 0 && Soc.Event_wheel.irq_pending t.wheel <> 0

(* Level-sampled mip for an arbitrary hart, valid at block boundaries
   (batched cycles drained). *)
let mip_bits t h =
  let hart = h.hx_clint_hart in
  let mip = ref 0 in
  if Soc.Clint.timer_pending ?hart t.clint then mip := !mip lor mtip_bit;
  if Soc.Clint.software_pending ?hart t.clint then mip := !mip lor msip_bit;
  if meip_now t h.hx_id then mip := !mip lor meip_bit;
  !mip

(* Level-sampled mip from the interrupt sources: the CLINT compares
   (recomputed eagerly — mtimecmp may move in either direction) and the
   wheel's aggregated device lines as MEIP. *)
let compute_mip t h = h.hx_state.Arch_state.mip <- mip_bits t h

(* Interrupt sampling point (block boundaries, wfi): consult the
   wheel's single [next_deadline] word, run any due device events —
   after draining batched cycles, so devices observe exact time — then
   recompute the hart's mip.  An idle device plane costs one compare
   here, so the whole sample is one pass over the already-loaded CLINT
   fields (batched cycles are always drained before a boundary, making
   [now] the exact mtime).  Returns whether device events fired. *)
let update_mip t h =
  let clint = t.clint and hid = h.hx_id in
  let now = Soc.Clint.time clint + !(t.pending_ticks) in
  let mip = ref 0 in
  let fired =
    t.config.device_plane
    &&
    let w = t.wheel in
    let due = now >= Soc.Event_wheel.next_deadline w in
    if due then begin
      h.hx_lower.Lower.lx_flush_time ();
      Soc.Event_wheel.run_due w ~now;
      match t.recorder with
      | Some r ->
          S4e_obs.Flight_recorder.event r S4e_obs.Flight_recorder.Dev
            ~pc:h.hx_state.Arch_state.pc ~info:(Soc.Event_wheel.irq_pending w)
      | None -> ()
    end
    else Soc.Event_wheel.note_idle_skip w;
    if meip_now t hid then mip := !mip lor meip_bit;
    due
  in
  let hart = h.hx_clint_hart in
  if now >= Soc.Clint.timecmp ?hart clint then mip := !mip lor mtip_bit;
  if Soc.Clint.software_pending ?hart clint then mip := !mip lor msip_bit;
  h.hx_state.Arch_state.mip <- !mip;
  fired

(* Trap entry.  Returns [Some stop] when the trap is fatal (no handler
   installed). *)
let enter_exception t h cause pc =
  Hooks.fire_trap t.hooks cause pc;
  (match t.recorder with
  | Some r ->
      S4e_obs.Flight_recorder.event r S4e_obs.Flight_recorder.Trap ~pc
        ~info:(Trap.mcause_of_exception cause)
  | None -> ());
  let st = h.hx_state in
  if st.mtvec = 0 then Some (Fatal_trap (cause, pc))
  else begin
    st.mepc <- pc;
    st.mcause <- Trap.mcause_of_exception cause;
    st.mtval <- Trap.tval_of cause;
    Arch_state.set_mpie_bit st (Arch_state.mie_bit st);
    Arch_state.set_mie_bit st false;
    (* trap entry invalidates any LR reservation: the handler's stores
       must not let a later SC pair with a pre-trap LR *)
    st.reservation <- None;
    st.pc <- st.mtvec;
    None
  end

(* ISA letter bits for misa: accurate for restricted configurations
   (the B extension rides as nonstandard, like the pre-SMP constant). *)
let misa_of_isa isa =
  let bit m b = if List.mem m isa then 1 lsl b else 0 in
  0x4000_0000 lor (1 lsl 8) (* RV32I *)
  lor bit Isa_module.M 12 lor bit Isa_module.A 0 lor bit Isa_module.F 5
  lor bit Isa_module.C 2

let create ?(config = default_config) () =
  let nharts = max 1 config.harts in
  let bus = Bus.create () in
  let uart = Soc.Uart.create () in
  let clint = Soc.Clint.create ~harts:nharts () in
  let gpio = Soc.Gpio.create () in
  let syscon = Soc.Syscon.create () in
  let wheel = Soc.Event_wheel.create () in
  let plic = Soc.Plic.create ~harts:nharts () in
  Soc.Plic.set_line_source plic (fun () -> Soc.Event_wheel.irq_pending wheel);
  Bus.attach bus (Soc.Uart.device uart ~base:Soc.Memory_map.uart_base);
  Bus.attach bus (Soc.Clint.device clint ~base:Soc.Memory_map.clint_base);
  Bus.attach bus (Soc.Gpio.device gpio ~base:Soc.Memory_map.gpio_base);
  Bus.attach bus (Soc.Syscon.device syscon ~base:Soc.Memory_map.syscon_base);
  if not config.mem_tlb then Bus.set_tlb_enabled bus false;
  let misa = misa_of_isa config.isa in
  let decode32 = make_decoder config in
  let decode16 =
    if List.mem Isa_module.C config.isa then Some Compressed.decode16
    else None
  in
  let pending_ticks = ref 0 in
  (* Cross-hart store coherence, shared by every store notification
     path (µop closures, generic interpreter, superblocks, DMA): any
     hart's store invalidates translated code on every hart and breaks
     other harts' LR reservations on the written word.  The writing
     hart's own reservation is left to the architectural SC/trap rules,
     which also keeps single-hart behavior bit-identical. *)
  let harts_cell = ref [||] in
  let notify_store_from hid addr =
    let hs = !harts_cell in
    for j = 0 to Array.length hs - 1 do
      let h = Array.unsafe_get hs j in
      Tb_cache.notify_store h.hx_tb addr;
      if j <> hid then
        match h.hx_state.Arch_state.reservation with
        | Some r when r land lnot 3 = addr land lnot 3 ->
            h.hx_state.Arch_state.reservation <- None
        | _ -> ()
    done
  in
  (* DMA masters see virtual time with the lowered engine's batched
     cycles folded in, and invalidate translated code over the exact
     written ranges, so device activity is engine-invisible.  On SMP a
     device write also breaks every hart's reservation in the range (a
     single-hart machine keeps the pre-SMP semantics). *)
  let dev_now () = Soc.Clint.time clint + !pending_ticks in
  let dev_notify addr len =
    let hs = !harts_cell in
    for j = 0 to Array.length hs - 1 do
      let h = Array.unsafe_get hs j in
      Tb_cache.notify_range h.hx_tb addr len;
      if nharts > 1 then
        match h.hx_state.Arch_state.reservation with
        | Some r when r land lnot 3 >= addr land lnot 3 && r < addr + len ->
            h.hx_state.Arch_state.reservation <- None
        | _ -> ()
    done
  in
  let dma =
    Soc.Dma.create ~mem:(Bus.ram bus) ~wheel ~now:dev_now ~notify:dev_notify ()
  in
  let vnet =
    Soc.Vnet.create ~mem:(Bus.ram bus) ~wheel ~now:dev_now ~notify:dev_notify ()
  in
  if config.device_plane then begin
    Bus.attach bus (Soc.Dma.device dma ~base:Soc.Memory_map.dma_base);
    Bus.attach bus (Soc.Vnet.device vnet ~base:Soc.Memory_map.vnet_base);
    Bus.attach bus (Soc.Plic.device plic ~base:Soc.Memory_map.plic_base);
    (* CLINT as a wheel client: a no-op event advertises the MTIMECMP
       deadline so [next_deadline] is the platform's single
       next-interesting-time word (MTIP itself stays level-sampled in
       [compute_mip]).  Re-armed on every MTIMECMP change, including
       reset/restore. *)
    let clint_ev = ref (-1) in
    Soc.Clint.set_on_timecmp clint (fun cmp ->
        if !clint_ev >= 0 then Soc.Event_wheel.cancel wheel !clint_ev;
        clint_ev :=
          (if cmp = max_int then -1
           else Soc.Event_wheel.schedule wheel ~at:cmp (fun _ -> ())))
  end;
  (* Per-block retire accounting for the lowered engine: [seg_idx] is
     the µop index of the running block segment, [seg_base] the index
     up to which instret/fuel have been credited.  Draining both in the
     flush keeps [minstret] exact at every observation point while the
     hot loop carries no per-µop bookkeeping. *)
  let seg_idx = ref 0 in
  let seg_base = ref 0 in
  let fuel_left = ref 0 in
  let exit_dirty = ref false in
  Soc.Syscon.set_notify syscon (fun () -> exit_dirty := true);
  (* One execution context per hart: private Arch_state, TB cache, and
     lowering context (µop closures capture the state they were
     translated against).  The batching refs stay shared — only one
     hart runs at a time and they are drained at every boundary, where
     hart switches happen. *)
  let mk_hart i =
    let state = Arch_state.create ~pc:Soc.Memory_map.ram_base ~hartid:i () in
    state.Arch_state.misa <- misa;
    state.Arch_state.time_source <- (fun () -> Soc.Clint.time clint);
    let tb =
      Tb_cache.create ~decode32 ~decode16 ~fetch32:(Bus.fetch32 bus)
        ~fetch16:(Bus.fetch16 bus) ()
    in
    let notify_store =
      if nharts = 1 then fun addr -> Tb_cache.notify_store tb addr
      else notify_store_from i
    in
    let lower_ctx =
      { Lower.lx_state = state; lx_bus = bus; lx_timing = config.timing;
        lx_flush_time =
          (fun () ->
            let p = !pending_ticks in
            if p <> 0 then begin
              state.Arch_state.cycle <- state.Arch_state.cycle + p;
              Soc.Clint.tick clint p;
              pending_ticks := 0
            end;
            let d = !seg_idx - !seg_base in
            if d > 0 then begin
              state.Arch_state.instret <- state.Arch_state.instret + d;
              fuel_left := !fuel_left - d;
              seg_base := !seg_idx
            end);
        lx_notify_store = notify_store;
        lx_dev_limit = Soc.Memory_map.ram_base; lx_stuck = None }
    in
    { hx_id = i; hx_clint_hart = Some i; hx_state = state; hx_tb = tb;
      hx_lower = lower_ctx;
      hx_sb = None; hx_llm = 0; hx_parked = false }
  in
  let harts = Array.init nharts mk_hart in
  harts_cell := harts;
  let m =
    { bus; uart; clint; gpio; syscon; wheel; dma; vnet; plic;
      hooks = Hooks.create (); config; decode32; pending_ticks; seg_idx;
      seg_base; fuel_left; exit_dirty; harts; cur = 0; rr = 0;
      profiler = None; recorder = None }
  in
  (* The superblock engine only runs where the lowered+chained engine
     runs (chain-edge heat drives promotion), so don't even install the
     invalidation hooks elsewhere.  Each hart gets its own trace engine
     over its own TB cache, bound to the hart's hazard window. *)
  if config.superblocks && config.use_tb_cache && config.lower_blocks then begin
    let timing = config.timing in
    Array.iter
      (fun h ->
        let state = h.hx_state in
        let flush_cycles () =
          let p = !pending_ticks in
          if p <> 0 then begin
            state.Arch_state.cycle <- state.Arch_state.cycle + p;
            Soc.Clint.tick clint p;
            pending_ticks := 0
          end
        in
        let sx =
          { Superblock.sx_state = state; sx_bus = bus; sx_timing = timing;
            sx_pending = pending_ticks; sx_exit_dirty = exit_dirty;
            sx_flush = flush_cycles;
            sx_retire =
              (fun n ->
                state.Arch_state.instret <- state.Arch_state.instret + n;
                fuel_left := !fuel_left - n);
            sx_exit_code = (fun () -> Soc.Syscon.exit_code syscon);
            sx_raise_exited = (fun code -> raise (Stop (Exited code)));
            sx_trap =
              (fun cause pc pred ->
                (* mirror [exec_lowered]'s trap path: flush, credit the
                   already-executed predecessors, enter the exception
                   (fatal traps stop before the trapping instruction
                   retires), charge system cycles, retire it, re-check
                   the exit latch *)
                flush_cycles ();
                h.hx_llm <- 0;
                state.Arch_state.instret <- state.Arch_state.instret + pred;
                fuel_left := !fuel_left - pred;
                (match enter_exception m h cause pc with
                | Some stop -> raise (Stop stop)
                | None ->
                    state.Arch_state.cycle <-
                      state.Arch_state.cycle + timing.Timing_model.system;
                    Soc.Clint.tick clint timing.Timing_model.system);
                state.Arch_state.instret <- state.Arch_state.instret + 1;
                fuel_left := !fuel_left - 1;
                if !exit_dirty then begin
                  match Soc.Syscon.exit_code syscon with
                  | Some code -> raise (Stop (Exited code))
                  | None -> exit_dirty := false
                end);
            sx_irq =
              (fun () ->
                (* the dispatch loop's between-block sample and
                   deliverability test.  When device events fire the
                   trace bails even without a deliverable interrupt: an
                   event may have invalidated a member of the very trace
                   being executed (DMA into code), and only a bail
                   re-establishes exact state and retranslates. *)
                update_mip m h
                || Arch_state.mie_bit state
                   && state.Arch_state.mie land state.Arch_state.mip <> 0);
            sx_notify_store = h.hx_lower.Lower.lx_notify_store;
            sx_get_llm = (fun () -> h.hx_llm);
            sx_set_llm = (fun v -> h.hx_llm <- v);
            sx_dev_limit = Soc.Memory_map.ram_base }
        in
        h.hx_sb <- Some (Superblock.create sx h.hx_tb))
      harts
  end;
  m

let set_profiler t p = t.profiler <- p
let profiler t = t.profiler
let set_recorder t r = t.recorder <- r
let recorder t = t.recorder
let state t = t.harts.(t.cur).hx_state

(* Counters and engine telemetry sum over every hart (a one-hart
   machine reports its hart's own counters). *)
let sum_harts t f = Array.fold_left (fun a h -> a + f h) 0 t.harts
let instret t = sum_harts t (fun h -> h.hx_state.Arch_state.instret)
let cycles t = sum_harts t (fun h -> h.hx_state.Arch_state.cycle)

let tb_stats t =
  let sum f = sum_harts t (fun h -> f (Tb_cache.stats h.hx_tb)) in
  { Tb_cache.st_blocks = sum (fun s -> s.Tb_cache.st_blocks);
    st_hits = sum (fun s -> s.Tb_cache.st_hits);
    st_misses = sum (fun s -> s.Tb_cache.st_misses);
    st_chain_hits = sum (fun s -> s.Tb_cache.st_chain_hits);
    st_invalidations = sum (fun s -> s.Tb_cache.st_invalidations) }

let trace_stats t =
  if Option.is_none t.harts.(0).hx_sb then None
  else
    let sum f =
      sum_harts t (fun h ->
          match h.hx_sb with Some s -> f (Superblock.stats s) | None -> 0)
    in
    Some
      { Superblock.sb_live = sum (fun s -> s.Superblock.sb_live);
        sb_promotions = sum (fun s -> s.Superblock.sb_promotions);
        sb_invalidations = sum (fun s -> s.Superblock.sb_invalidations);
        sb_execs = sum (fun s -> s.Superblock.sb_execs);
        sb_completions = sum (fun s -> s.Superblock.sb_completions);
        sb_instrs = sum (fun s -> s.Superblock.sb_instrs);
        sb_bail_guard = sum (fun s -> s.Superblock.sb_bail_guard);
        sb_bail_irq = sum (fun s -> s.Superblock.sb_bail_irq);
        sb_bail_dead = sum (fun s -> s.Superblock.sb_bail_dead);
        sb_bail_trap = sum (fun s -> s.Superblock.sb_bail_trap) }

(* Every hart's chain edges, traversals summed per edge, in
   [Tb_cache.hot_edges] order. *)
let hot_edges t =
  let acc = Hashtbl.create 64 in
  Array.iter
    (fun h ->
      List.iter
        (fun (src, dst, n) ->
          let prev = Option.value (Hashtbl.find_opt acc (src, dst)) ~default:0 in
          Hashtbl.replace acc (src, dst) (prev + n))
        (Tb_cache.hot_edges h.hx_tb))
    t.harts;
  Hashtbl.fold (fun (src, dst) n l -> (src, dst, n) :: l) acc []
  |> List.sort (fun (sa, da, ha) (sb, db, hb) ->
         match compare hb ha with 0 -> compare (sa, da) (sb, db) | c -> c)

let register_metrics ?(prefix = "machine.") t reg =
  let g name f = S4e_obs.Metrics.gauge_int reg (prefix ^ name) f in
  g "instret" (fun () -> instret t);
  g "cycles" (fun () -> cycles t);
  let tb f () = f (tb_stats t) in
  g "tb.blocks" (tb (fun s -> s.Tb_cache.st_blocks));
  g "tb.hits" (tb (fun s -> s.Tb_cache.st_hits));
  g "tb.misses" (tb (fun s -> s.Tb_cache.st_misses));
  g "tb.chain_hits" (tb (fun s -> s.Tb_cache.st_chain_hits));
  g "tb.invalidations" (tb (fun s -> s.Tb_cache.st_invalidations));
  g "mem.tlb_hits" (fun () -> (Bus.tlb_stats t.bus).Bus.tlb_hits);
  g "mem.tlb_misses" (fun () -> (Bus.tlb_stats t.bus).Bus.tlb_misses);
  g "mem.tlb_flushes" (fun () -> (Bus.tlb_stats t.bus).Bus.tlb_flushes);
  g "wheel.fired" (fun () ->
      (Soc.Event_wheel.stats t.wheel).Soc.Event_wheel.ws_fired);
  g "wheel.idle_skips" (fun () ->
      (Soc.Event_wheel.stats t.wheel).Soc.Event_wheel.ws_idle_skips);
  g "wheel.live" (fun () ->
      (Soc.Event_wheel.stats t.wheel).Soc.Event_wheel.ws_live);
  g "dma.bursts" (fun () -> (Soc.Dma.stats t.dma).Soc.Dma.dma_bursts);
  g "dma.bytes" (fun () -> (Soc.Dma.stats t.dma).Soc.Dma.dma_bytes);
  g "vnet.rx_delivered" (fun () ->
      (Soc.Vnet.stats t.vnet).Soc.Vnet.vn_rx_delivered);
  g "vnet.rx_dropped" (fun () ->
      (Soc.Vnet.stats t.vnet).Soc.Vnet.vn_rx_dropped);
  g "vnet.tx_sent" (fun () -> (Soc.Vnet.stats t.vnet).Soc.Vnet.vn_tx_sent);
  if Option.is_some t.harts.(0).hx_sb then begin
    let sb f () = Option.fold (trace_stats t) ~none:0 ~some:f in
    g "sb.traces" (sb (fun s -> s.Superblock.sb_live));
    g "sb.promotions" (sb (fun s -> s.Superblock.sb_promotions));
    g "sb.invalidations" (sb (fun s -> s.Superblock.sb_invalidations));
    g "sb.execs" (sb (fun s -> s.Superblock.sb_execs));
    g "sb.completions" (sb (fun s -> s.Superblock.sb_completions));
    g "sb.instrs" (sb (fun s -> s.Superblock.sb_instrs))
  end

(* Wire telemetry observers into the device plane: queue-depth and
   burst-size histograms plus per-event trace instants.  Single-slot
   closures on the devices — the hot path without observers pays one
   [None] test per completed event, and nothing per guest instruction. *)
let observe_devices ?metrics ?trace t =
  let dma_h, rx_h =
    match metrics with
    | Some reg ->
        ( Some
            (S4e_obs.Metrics.histogram reg "dma.burst_bytes"
               ~bounds:[| 64; 256; 1024; 4096; 16384 |]),
          Some
            (S4e_obs.Metrics.histogram reg "vnet.rx_queue_depth"
               ~bounds:[| 0; 1; 2; 4; 8; 16; 32; 64 |]) )
    | None -> (None, None)
  in
  let emit name bytes depth =
    match trace with
    | Some tr ->
        S4e_obs.Trace_events.instant tr
          ~args:
            [ ("bytes", string_of_int bytes); ("depth", string_of_int depth) ]
          ~name ~cat:"device" ~tid:0 ()
    | None -> ()
  in
  if metrics = None && trace = None then begin
    Soc.Dma.set_observer t.dma None;
    Soc.Vnet.set_observer t.vnet None
  end
  else begin
    Soc.Dma.set_observer t.dma
      (Some
         (fun ~bytes ~depth ->
           (match dma_h with
           | Some h -> S4e_obs.Metrics.observe h bytes
           | None -> ());
           emit "dma.burst" bytes depth));
    Soc.Vnet.set_observer t.vnet
      (Some
         (fun ~kind ~bytes ~depth ->
           (match rx_h with
           | Some h when kind <> "tx" -> S4e_obs.Metrics.observe h depth
           | _ -> ());
           emit ("vnet." ^ kind) bytes depth))
  end

let set_uart_sink t sink = Soc.Uart.set_sink t.uart sink

(* A stuck bit lives on the hart's lowering context, where [Lower]
   compiles it into the instructions that write the register; both
   changes flush the hart's translations so no block lowered under the
   other setting survives. *)
let set_stuck t s =
  match s with
  | Some sk ->
      (* the register accessors index without bounds checks *)
      if sk.sk_reg < 0 || sk.sk_reg > 31 || sk.sk_bit < 0 || sk.sk_bit > 31
      then invalid_arg "Machine.set_stuck: register or bit out of range";
      let h = t.harts.(t.cur) in
      h.hx_lower.Lower.lx_stuck <- s;
      Lower.force h.hx_state sk;
      Tb_cache.flush h.hx_tb
  | None ->
      Array.iter
        (fun h ->
          if h.hx_lower.Lower.lx_stuck <> None then begin
            h.hx_lower.Lower.lx_stuck <- None;
            Tb_cache.flush h.hx_tb
          end)
        t.harts

(* [reset] and [restore] rewrite the register files behind the
   translated code's back: hold the stuck bits again. *)
let reforce_stuck t =
  Array.iter
    (fun h ->
      match h.hx_lower.Lower.lx_stuck with
      | Some sk -> Lower.force h.hx_state sk
      | None -> ())
    t.harts

let reset t ~pc =
  (* every hart restarts at the entry point; SMP guests branch on
     mhartid (there is no boot hand-off protocol in this platform) *)
  Array.iter
    (fun h ->
      Arch_state.reset h.hx_state ~pc;
      h.hx_llm <- 0;
      h.hx_parked <- false)
    t.harts;
  t.cur <- 0;
  t.rr <- 0;
  (* wheel first: device resets cancel into an already-empty wheel, and
     the CLINT reset re-arms its deadline client through its hook *)
  Soc.Event_wheel.clear t.wheel;
  Soc.Dma.reset t.dma;
  Soc.Vnet.reset t.vnet;
  Soc.Clint.reset t.clint;
  Soc.Plic.reset t.plic;
  Soc.Syscon.reset t.syscon;
  Soc.Uart.clear_output t.uart;
  t.pending_ticks := 0;
  t.seg_idx := 0;
  t.seg_base := 0;
  t.exit_dirty := false;
  reforce_stuck t

let enter_interrupt t h irq =
  let st = h.hx_state in
  (match t.recorder with
  | Some r ->
      S4e_obs.Flight_recorder.event r S4e_obs.Flight_recorder.Irq
        ~pc:st.pc ~info:(Trap.mcause_of_interrupt irq)
  | None -> ());
  st.mepc <- st.pc;
  st.mcause <- Trap.mcause_of_interrupt irq;
  st.mtval <- 0;
  Arch_state.set_mpie_bit st (Arch_state.mie_bit st);
  Arch_state.set_mie_bit st false;
  (* interrupt entry invalidates any LR reservation, like a trap *)
  st.reservation <- None;
  st.pc <- st.mtvec

(* Priority order per the privileged spec: external, software, timer. *)
let pending_interrupt h =
  let st = h.hx_state in
  if not (Arch_state.mie_bit st) then None
  else
    let active = st.mie land st.mip in
    if active = 0 then None
    else if active land meip_bit <> 0 then Some Trap.External
    else if active land msip_bit <> 0 then Some Trap.Software
    else Some Trap.Timer

(* Deterministic cap on WFI event fast-forwarding: a device plane that
   keeps generating non-waking events (e.g. a traffic generator with
   interrupts masked) must not spin here forever. *)
let wfi_event_budget = 65536

(* WFI: wake if an interrupt can arrive; fast-forward virtual time to
   the next event-wheel deadline (which includes the CLINT MTIMECMP via
   its wheel client) until an enabled interrupt becomes pending.  With
   the device plane off this degrades to the classic timer skip.

   On an SMP machine time must NOT be fast-forwarded while other harts
   can still run — the hart parks instead (pc already past the wfi) and
   the scheduler wakes it when an enabled interrupt (e.g. a cross-hart
   MSIP IPI) becomes pending, fast-forwarding only once every hart is
   parked. *)
let wfi_resume t h =
  let st = h.hx_state in
  let (_ : bool) = update_mip t h in
  if st.mie land st.mip <> 0 then true
  else if Array.length t.harts > 1 then false
  else if not t.config.device_plane then
    if st.mie land mtip_bit <> 0 then begin
      let now = Soc.Clint.time t.clint in
      let cmp = Soc.Clint.timecmp t.clint in
      if cmp = max_int then false
      else begin
        if cmp > now then Soc.Clint.tick t.clint (cmp - now);
        let (_ : bool) = update_mip t h in
        true
      end
    end
    else false
  else begin
    let budget = ref wfi_event_budget in
    let woken = ref false and give_up = ref false in
    while (not !woken) && not !give_up do
      let next = Soc.Event_wheel.next_deadline t.wheel in
      if next = max_int || !budget <= 0 then give_up := true
      else begin
        decr budget;
        let now = Soc.Clint.time t.clint in
        if next > now then Soc.Clint.tick t.clint (next - now);
        Soc.Event_wheel.run_due t.wheel ~now:(Soc.Clint.time t.clint);
        compute_mip t h;
        if st.mie land st.mip <> 0 then woken := true
      end
    done;
    !woken
  end

let hart_count t = Array.length t.harts

let uart_output t = Soc.Uart.output t.uart

let load_word t addr w =
  S4e_mem.Sparse_mem.write32 (Bus.ram t.bus) addr w;
  Array.iter (fun h -> Tb_cache.notify_store h.hx_tb addr) t.harts

let load_string t addr s =
  S4e_mem.Sparse_mem.load_bytes (Bus.ram t.bus) addr s;
  Array.iter (fun h -> Tb_cache.flush h.hx_tb) t.harts

(* Execute at most [fuel] instructions on hart [h].  A single-hart
   machine calls it directly with the full fuel; the SMP scheduler
   below feeds it one slice at a time. *)
let run_slice t h ~fuel =
  let state = h.hx_state and tb = h.hx_tb and lower_ctx = h.hx_lower in
  let timing = t.config.timing in
  let compressed = List.mem Isa_module.C t.config.isa in
  (* instruction alignment: 2 bytes with C, 4 without *)
  let pc_align = if compressed then 1 else 3 in
  let remaining = t.fuel_left in
  remaining := fuel;
  let exit_dirty = t.exit_dirty in
  let pending = t.pending_ticks in
  (* drains batched cycles AND the segment's uncredited instret/fuel *)
  let flush_time = lower_ctx.Lower.lx_flush_time in
  (* per-hart closure: invalidates every hart's translated code and
     breaks other harts' reservations (plain single-TB notify on a
     one-hart machine) *)
  let notify_store = lower_ctx.Lower.lx_notify_store in
  let on_mem ev =
    if ev.Hooks.mem_is_store then notify_store ev.Hooks.mem_addr;
    if Hooks.has_mem t.hooks then Hooks.fire_mem t.hooks ev
  in
  (* built once: passing [~on_mem] per instruction would allocate *)
  let on_mem = Some on_mem in
  (* load-use stall, charged against the hart's [hx_llm] window *)
  let hazard = timing.Timing_model.load_use_hazard in
  (* Stop on a pending syscon exit code; the dirty flag is set by the
     device write itself, so the hot path never polls the device. *)
  let check_exit () =
    if !exit_dirty then begin
      match Soc.Syscon.exit_code t.syscon with
      | Some code -> raise (Stop (Exited code))
      | None -> exit_dirty := false
    end
  in
  (* Hoisted like the profiler: an unrecorded run pays a pointer test
     per executed instruction (none at all on the superblock path). *)
  let rcd = t.recorder in
  (* Recorder scratch for the pre-execution capture of a memory access:
     [Exec] and the µop closures compute effective addresses
     internally, and a load can clobber its own base register, so the
     address is recomputed from pre-exec register state.  Plain refs —
     recording is single-threaded with execution. *)
  let rec_addr = ref (-1) and rec_width = ref 0 in
  let rec_value = ref 0 and rec_store = ref false in
  let pre_mem instr =
    let regs = state.Arch_state.regs in
    let ea base imm = S4e_bits.Bits.mask32 (regs.(base) + imm) in
    match instr with
    | Instr.Load (op, _, base, imm) ->
        rec_addr := ea base imm;
        rec_width := (match op with LB | LBU -> 1 | LH | LHU -> 2 | LW -> 4);
        rec_store := false;
        rec_value := 0
    | Instr.Store (op, src, base, imm) ->
        let w = match op with Instr.SB -> 1 | SH -> 2 | SW -> 4 in
        rec_addr := ea base imm;
        rec_width := w;
        rec_store := true;
        rec_value :=
          (if w = 4 then regs.(src) else regs.(src) land ((1 lsl (w * 8)) - 1))
    | Instr.Flw (_, base, imm) ->
        rec_addr := ea base imm;
        rec_width := 4;
        rec_store := false;
        rec_value := 0
    | Instr.Fsw (fsrc, base, imm) ->
        rec_addr := ea base imm;
        rec_width := 4;
        rec_store := true;
        rec_value := state.Arch_state.fregs.(fsrc)
    | Instr.Lr (_, rs1) ->
        rec_addr := regs.(rs1);
        rec_width := 4;
        rec_store := false;
        rec_value := 0
    | Instr.Sc (_, src, rs1) | Instr.Amo (_, _, src, rs1) ->
        rec_addr := regs.(rs1);
        rec_width := 4;
        rec_store := true;
        rec_value := regs.(src)
    | _ ->
        rec_addr := -1;
        rec_width := 0;
        rec_store := false;
        rec_value := 0
  in
  (* The recorded opcode word re-encodes the AST (compressed forms
     expand to their 32-bit equivalent); never allowed to throw on the
     recording path. *)
  let encode_word instr =
    match Encode.encode instr with w -> w | exception _ -> 0
  in
  let note_retire r pc instr =
    let op = encode_word instr in
    let rd, rd_val =
      match Instr.destination instr with
      | Some d -> (d, state.Arch_state.regs.(d))
      | None -> (
          match Instr.fp_destination instr with
          | Some f -> (32 + f, state.Arch_state.fregs.(f))
          | None -> (-1, 0))
    in
    let addr = !rec_addr and width = !rec_width and store = !rec_store in
    (* the datum of a load is its post-extension writeback *)
    let value = if addr >= 0 && (not store) && rd >= 0 then rd_val
                else !rec_value in
    S4e_obs.Flight_recorder.retire r ~pc ~op ~rd ~rd_val ~addr ~width ~value
      ~store
  in
  (* Execute one decoded instruction (generic interpreter); raises Stop
     on exit conditions. *)
  let exec_one ipc size instr =
    if Hooks.has_insn t.hooks then Hooks.fire_insn t.hooks ipc instr;
    (match instr with
    | Instr.Fence_i -> Tb_cache.flush tb
    | _ -> ());
    (try
       let stall =
         if hazard > 0 && h.hx_llm land Instr.source_mask instr <> 0 then
           hazard
         else 0
       in
       (match rcd with Some _ -> pre_mem instr | None -> ());
       let taken = Exec.execute ?on_mem state t.bus ~size instr in
       (match lower_ctx.Lower.lx_stuck with
       | Some sk -> Lower.force state sk
       | None -> ());
       if hazard > 0 then h.hx_llm <- Instr.load_dest_mask instr;
       let c = Timing_model.cost timing instr ~taken + stall in
       state.cycle <- state.cycle + c;
       Soc.Clint.tick t.clint c;
       (match rcd with Some r -> note_retire r ipc instr | None -> ())
     with Trap.Exn cause -> (
       h.hx_llm <- 0;
       match enter_exception t h cause ipc with
       | Some stop -> raise (Stop stop)
       | None ->
           state.cycle <- state.cycle + timing.Timing_model.system;
           Soc.Clint.tick t.clint timing.Timing_model.system));
    state.instret <- state.instret + 1;
    decr remaining;
    check_exit ();
    match instr with
    | Instr.Wfi ->
        if not (wfi_resume t h) then raise (Stop Wfi_halt)
    | _ -> ()
  in
  (* Execute a lowered (µop) block: no hook dispatch, no AST
     re-interpretation, cycle/CLINT updates batched until the block
     boundary (or until a µop that observes time flushes them).  The
     batch never crosses an interrupt-sampling point — blocks are where
     interrupts are sampled — so it can never defer a timer past the
     latency the generic path already has.  With a recorder armed the
     same loop captures each µop's memory access before it executes and
     appends its retire record after: [entry.instrs] is index-parallel
     to the µop array, so the capture reads the decoded AST without
     touching memory. *)
  let exec_lowered (entry : Tb_cache.entry) n =
    let uops =
      match entry.Tb_cache.lowered with
      | Some u -> u
      | None ->
          let u = Lower.lower_entry lower_ctx entry in
          entry.Tb_cache.lowered <- Some u;
          u
    in
    let instrs = entry.Tb_cache.instrs in
    let i = t.seg_idx and base = t.seg_base in
    i := 0;
    base := 0;
    (* [lim] caps the block at the remaining fuel.  Invariant: the
       credited position plus remaining fuel ([!base + !remaining]) is
       constant across flushes and trap credits, so [lim] never needs
       recomputation. *)
    let lim = if n <= !remaining then n else !remaining in
    let quit = ref false in
    (* the exception frame is per resumed segment, not per µop — the
       inner loop is the trap-free hot path and carries no per-µop
       instret/fuel bookkeeping (credited by [flush_time]) *)
    try
      while (not !quit) && !i < lim do
        (try
           while !i < lim do
             let u = Array.unsafe_get uops !i in
             if u.Tb_cache.u_fence_i then Tb_cache.flush tb;
             let stall =
               if hazard > 0 && h.hx_llm land u.Tb_cache.u_src_mask <> 0
               then hazard
               else 0
             in
             let c =
               match rcd with
               | None -> u.Tb_cache.u_exec ()
               | Some r ->
                   let ipc, _, instr = Array.unsafe_get instrs !i in
                   pre_mem instr;
                   let c = u.Tb_cache.u_exec () in
                   note_retire r ipc instr;
                   c
             in
             if hazard > 0 then h.hx_llm <- u.Tb_cache.u_load_dest_mask;
             pending := !pending + c + stall;
             incr i;
             check_exit ();
             if u.Tb_cache.u_wfi then begin
               flush_time ();
               if not (wfi_resume t h) then raise (Stop Wfi_halt)
             end
           done
         with Trap.Exn cause ->
           let u = Array.unsafe_get uops !i in
           flush_time ();
           h.hx_llm <- 0;
           (match enter_exception t h cause u.Tb_cache.u_pc with
           | Some stop -> raise (Stop stop)
           | None ->
               state.cycle <- state.cycle + timing.Timing_model.system;
               Soc.Clint.tick t.clint timing.Timing_model.system);
           (* the trapping µop retires (manually credited: the flush
              above only covered its predecessors) *)
           state.instret <- state.instret + 1;
           incr i;
           base := !i;
           decr remaining;
           check_exit ();
           (* the generic path only continues a block when the trap
              handler happens to be the next instruction *)
           if
             not
               (!i < lim
               && state.pc = (Array.unsafe_get uops !i).Tb_cache.u_pc)
           then quit := true)
      done;
      flush_time ()
    with e ->
      flush_time ();
      raise e
  in
  let decode_single pc =
    let half = Bus.fetch16 t.bus pc in
    if half land 0x3 <> 0x3 then
      if compressed then
        match Compressed.decode16 half with
        | Some i -> Some (2, i)
        | None -> None
      else None
    else
      match t.decode32 (Bus.fetch32 t.bus pc) with
      | Some i -> Some (4, i)
      | None -> None
  in
  (* Generic (decoded-array) block execution; stops early if a trap
     redirected the pc or fuel ran out. *)
  let exec_generic (entry : Tb_cache.entry) n =
    if Hooks.has_block t.hooks then
      Hooks.fire_block t.hooks entry.Tb_cache.block_pc n;
    let i = ref 0 in
    let continue = ref true in
    while !continue && !i < n do
      let ipc, size, instr = Array.unsafe_get entry.Tb_cache.instrs !i in
      if state.pc <> ipc then continue := false
      else begin
        exec_one ipc size instr;
        incr i;
        if !remaining <= 0 then continue := false
      end
    done
  in
  let use_tb = t.config.use_tb_cache in
  (* Hoisted per [run] call: hooks cannot appear mid-run when none are
     installed (no user code executes), and a hook that unregisters
     itself mid-run only makes this conservative (we stay on the
     generic path until the next [run]). *)
  let lowered_ok =
    use_tb && t.config.lower_blocks && Hooks.is_empty t.hooks
  in
  (* Hoisted likewise; an unprofiled run pays one pointer test per
     block dispatch and keeps the lowered fast path. *)
  let prof = t.profiler in
  let chained = t.config.chain_blocks in
  (* Superblock traces ride on the unprofiled, unrecorded lowered
     engine only: a profiler needs per-block attribution, a recorder
     per-instruction capture, and hooks (lowered_ok) per-instruction
     visibility.  A stuck register bit also keeps them off: fused
     traces pass register values through OCaml locals, which would
     read past the force.  All fall back transparently. *)
  let sb =
    match (h.hx_sb, prof, rcd, lower_ctx.Lower.lx_stuck) with
    | Some s, None, None, None when lowered_ok -> Some s
    | _ -> None
  in
  (* Block execution for the non-superblock paths: the lowered engine
     or the generic interpreter. *)
  let exec_entry entry n =
    if lowered_ok then exec_lowered entry n else exec_generic entry n
  in
  let promote_mask =
    match sb with Some s -> Superblock.promote_period s - 1 | None -> 0
  in
  (* Single-step mode replays the TB path's block-boundary semantics:
     interrupts are sampled only where a translation block would start
     (after control flow / wfi / fence.i / a trap / max_block_len
     instructions / an undecodable word), so runs with
     [use_tb_cache:false] are cycle-identical to cached runs.  A fresh
     [run] call always starts at a boundary, exactly like the TB
     dispatch loop. *)
  let at_boundary = ref true in
  let block_len = ref 0 in
  let prev = ref Tb_cache.no_entry in
  (* Traps raised at dispatch (misaligned pc, undecodable word) consume
     fuel like any attempted instruction even though nothing retires: a
     corrupted mtvec pointing at untranslatable memory re-traps
     immediately, and without the charge that loop would never
     terminate.  Shared by every engine config, so fuel consumption
     stays engine-identical. *)
  let fetch_trap_or_stop cause pc =
    decr remaining;
    match enter_exception t h cause pc with
    | Some stop -> raise (Stop stop)
    | None -> ()
  in
  try
    while !remaining > 0 do
      if use_tb || !at_boundary then begin
        let (_ : bool) = update_mip t h in
        (match pending_interrupt h with
        | Some irq ->
            enter_interrupt t h irq;
            h.hx_llm <- 0
        | None -> ());
        at_boundary := false;
        block_len := 0
      end;
      let pc = state.pc in
      if pc land pc_align <> 0 then begin
        at_boundary := true;
        fetch_trap_or_stop Trap.Misaligned_fetch pc
      end
      else if use_tb then begin
        let entry =
          if chained then Tb_cache.next tb !prev pc
          else Tb_cache.lookup tb pc
        in
        prev := entry;
        let n = Array.length entry.Tb_cache.instrs in
        if n = 0 then begin
          let word = Bus.fetch32 t.bus pc in
          fetch_trap_or_stop (Trap.Illegal_instruction word) pc
        end
        else begin
          match prof with
          | None -> (
              match sb with
              | Some s when lowered_ok -> (
                  let c = entry.Tb_cache.exec_count + 1 in
                  entry.Tb_cache.exec_count <- c;
                  match entry.Tb_cache.attach with
                  | Superblock.Trace_head tr
                    when (not !(tr.Superblock.tr_dead))
                         && tr.Superblock.tr_instrs <= !remaining
                         && not !exit_dirty ->
                      Superblock.exec s tr;
                      (* the trace left the chain path; don't patch a
                         bogus head -> exit-target link *)
                      prev := Tb_cache.no_entry
                  | Tb_cache.No_attachment ->
                      if c land promote_mask = 0 then
                        Superblock.maybe_promote s entry;
                      exec_lowered entry n
                  | _ -> exec_lowered entry n)
              | _ -> exec_entry entry n)
          | Some p ->
              (* Block-granular attribution.  The instret/cycle deltas
                 are exact at every exit from either engine: the lowered
                 path drains its batched counters ([flush_time]) on all
                 paths out of [exec_lowered], including exceptions. *)
              let i0 = state.instret and c0 = state.cycle in
              let note () =
                S4e_obs.Profile.note p ~pc ~bytes:entry.Tb_cache.total_size
                  ~instrs:(state.instret - i0) ~cycles:(state.cycle - c0)
              in
              (try exec_entry entry n
               with e ->
                 note ();
                 raise e);
              note ()
        end
      end
      else begin
        match decode_single pc with
        | None ->
            if !block_len > 0 then
              (* the TB path ends a block just before an undecodable
                 word and re-samples interrupts before trapping *)
              at_boundary := true
            else begin
              let word = Bus.fetch32 t.bus pc in
              at_boundary := true;
              fetch_trap_or_stop (Trap.Illegal_instruction word) pc
            end
        | Some (size, instr) ->
            if Hooks.has_block t.hooks then Hooks.fire_block t.hooks pc 1;
            exec_one pc size instr;
            incr block_len;
            if
              Instr.is_control_flow instr
              || instr = Instr.Wfi || instr = Instr.Fence_i
              || !block_len >= Tb_cache.max_block_len
              || state.pc <> S4e_bits.Bits.mask32 (pc + size)
            then at_boundary := true
      end
    done;
    Soc.Uart.flush_host t.uart;
    Out_of_fuel
  with Stop reason ->
    Soc.Uart.flush_host t.uart;
    reason

(* ---------------- SMP hart scheduler ---------------- *)

(* Is the hart schedulable?  A parked hart re-samples its interrupt
   lines (cheap pure reads — the batching refs are drained between
   slices) and wakes when an enabled interrupt is pending, exactly the
   WFI wake condition.  This is what lets a WFI-parked hart wake on a
   cross-hart MSIP IPI instead of halting. *)
let hart_runnable t h =
  (not h.hx_parked)
  ||
  let bits = mip_bits t h in
  h.hx_state.Arch_state.mip <- bits;
  if h.hx_state.Arch_state.mie land bits <> 0 then begin
    h.hx_parked <- false;
    true
  end
  else false

(* Every hart is parked in WFI: fast-forward virtual time — to the
   next event-wheel deadline (device plane), or to the next strictly
   future MTIMECMP — until some hart's wake condition holds.  Bounded
   by the same deterministic budget as the single-hart WFI skip. *)
let advance_all_parked t =
  let budget = ref wfi_event_budget in
  let woken = ref false and give_up = ref false in
  let any_wakeable () =
    let w = ref false in
    Array.iter (fun h -> if hart_runnable t h then w := true) t.harts;
    !w
  in
  while (not !woken) && not !give_up do
    let now = Soc.Clint.time t.clint in
    let next =
      if t.config.device_plane then Soc.Event_wheel.next_deadline t.wheel
      else begin
        let acc = ref max_int in
        for hid = 0 to Array.length t.harts - 1 do
          let c = Soc.Clint.timecmp ~hart:hid t.clint in
          if c > now && c < !acc then acc := c
        done;
        !acc
      end
    in
    if next = max_int || !budget <= 0 then give_up := true
    else begin
      decr budget;
      if next > now then Soc.Clint.tick t.clint (next - now);
      if t.config.device_plane then
        Soc.Event_wheel.run_due t.wheel ~now:(Soc.Clint.time t.clint);
      if any_wakeable () then woken := true
    end
  done;
  !woken

(* Deterministic round-robin over the harts in fuel quanta of
   [config.hart_slice].  Fuel is the unit every engine accounts
   identically (enforced by the differential tests), so the
   interleaving — hence the observable semantics — is a pure function
   of (program, total fuel, slice), independent of the engine. *)
let smp_run t ~fuel =
  let n = Array.length t.harts in
  let slice = max 1 t.config.hart_slice in
  let total = ref fuel in
  let result = ref None in
  while !result = None && !total > 0 do
    let found = ref (-1) in
    let i = ref 0 in
    while !found < 0 && !i < n do
      let idx = (t.rr + !i) mod n in
      if hart_runnable t t.harts.(idx) then found := idx;
      incr i
    done;
    if !found < 0 then begin
      if not (advance_all_parked t) then result := Some Wfi_halt
    end
    else begin
      let idx = !found in
      t.cur <- idx;
      let f = if slice < !total then slice else !total in
      (match run_slice t t.harts.(idx) ~fuel:f with
      | Out_of_fuel -> ()
      | Wfi_halt -> t.harts.(idx).hx_parked <- true
      | (Exited _ | Fatal_trap _) as r -> result := Some r);
      let left = !(t.fuel_left) in
      let consumed = f - (if left > 0 then left else 0) in
      total := !total - (if consumed > 0 then consumed else 1);
      t.rr <- (idx + 1) mod n
    end
  done;
  match !result with Some r -> r | None -> Out_of_fuel

let run t ~fuel =
  if Array.length t.harts = 1 then run_slice t t.harts.(0) ~fuel
  else smp_run t ~fuel

(* ---------------- snapshot / restore ---------------- *)

type snapshot = {
  snap_states : Arch_state.t array; (* one per hart *)
  snap_llm : int array;
  snap_parked : bool array;
  snap_cur : int;
  snap_rr : int;
  snap_mem : S4e_mem.Sparse_mem.snapshot;
  snap_uart : Soc.Uart.snapshot;
  snap_clint : Soc.Clint.snapshot;
  snap_gpio : Soc.Gpio.snapshot;
  snap_syscon : Soc.Syscon.snapshot;
  snap_dma : Soc.Dma.snapshot;
  snap_vnet : Soc.Vnet.snapshot;
  snap_plic : Soc.Plic.snapshot;
  snap_rec : S4e_obs.Flight_recorder.mark option;
      (* recorder position at capture time; [restore] rewinds an
         attached recorder to it so sequence numbers stay continuous
         across campaign forks *)
}

let snapshot t =
  { snap_states = Array.map (fun h -> Arch_state.copy h.hx_state) t.harts;
    snap_llm = Array.map (fun h -> h.hx_llm) t.harts;
    snap_parked = Array.map (fun h -> h.hx_parked) t.harts;
    snap_cur = t.cur;
    snap_rr = t.rr;
    snap_mem = S4e_mem.Sparse_mem.snapshot (Bus.ram t.bus);
    snap_uart = Soc.Uart.snapshot t.uart;
    snap_clint = Soc.Clint.snapshot t.clint;
    snap_gpio = Soc.Gpio.snapshot t.gpio;
    snap_syscon = Soc.Syscon.snapshot t.syscon;
    snap_dma = Soc.Dma.snapshot t.dma;
    snap_vnet = Soc.Vnet.snapshot t.vnet;
    snap_plic = Soc.Plic.snapshot t.plic;
    snap_rec = Option.map S4e_obs.Flight_recorder.mark t.recorder }

let restore t s =
  Array.iteri
    (fun i h ->
      Arch_state.restore h.hx_state s.snap_states.(i);
      h.hx_llm <- s.snap_llm.(i);
      h.hx_parked <- s.snap_parked.(i))
    t.harts;
  t.cur <- s.snap_cur;
  t.rr <- s.snap_rr;
  S4e_mem.Sparse_mem.restore (Bus.ram t.bus) s.snap_mem;
  Soc.Uart.restore t.uart s.snap_uart;
  (* the wheel holds closures, which a snapshot cannot capture: clear
     it, then let each client re-arm from its restored register state
     (the CLINT through its MTIMECMP hook, DMA/vnet in [restore]) *)
  Soc.Event_wheel.clear t.wheel;
  Soc.Clint.restore t.clint s.snap_clint;
  Soc.Gpio.restore t.gpio s.snap_gpio;
  Soc.Syscon.restore t.syscon s.snap_syscon;
  Soc.Dma.restore t.dma s.snap_dma;
  Soc.Vnet.restore t.vnet s.snap_vnet;
  Soc.Plic.restore t.plic s.snap_plic;
  (match (t.recorder, s.snap_rec) with
  | Some r, Some m -> S4e_obs.Flight_recorder.rewind r m
  | _ -> ());
  t.pending_ticks := 0;
  t.seg_idx := 0;
  t.seg_base := 0;
  t.exit_dirty := Soc.Syscon.exit_code t.syscon <> None;
  (* Restored memory may hold different code than what was translated.
     The bus TLB is already flushed by this point: [Sparse_mem.restore]
     fires the change hook that [Bus.create] installed. *)
  Array.iter (fun h -> Tb_cache.flush h.hx_tb) t.harts;
  reforce_stuck t

let state_digest ?(include_time = true) ?(include_instret = true) t =
  let b = Buffer.create 1024 in
  let add v =
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ';'
  in
  (* Hart 0 first (then the others in index order, below): the byte
     stream for a one-hart machine with an untouched PLIC is exactly
     the pre-SMP serialization, keeping historical digests stable. *)
  let add_hart (st : Arch_state.t) =
    Array.iter add st.Arch_state.regs;
    Array.iter add st.Arch_state.fregs;
    add st.Arch_state.pc;
    add st.Arch_state.mstatus;
    add st.Arch_state.mie;
    add st.Arch_state.mip;
    add st.Arch_state.mtvec;
    add st.Arch_state.mscratch;
    add st.Arch_state.mepc;
    add st.Arch_state.mcause;
    add st.Arch_state.mtval;
    add st.Arch_state.fcsr;
    if include_time then add st.Arch_state.cycle;
    if include_instret then add st.Arch_state.instret;
    match st.Arch_state.reservation with None -> add (-1) | Some a -> add a
  in
  add_hart t.harts.(0).hx_state;
  if include_time then add (Soc.Clint.time t.clint);
  add (Soc.Clint.timecmp t.clint);
  add (if Soc.Clint.software_pending t.clint then 1 else 0);
  for i = 1 to Array.length t.harts - 1 do
    add_hart t.harts.(i).hx_state;
    add (Soc.Clint.timecmp ~hart:i t.clint);
    add (if Soc.Clint.software_pending ~hart:i t.clint then 1 else 0)
  done;
  if Soc.Plic.active t.plic then Buffer.add_string b (Soc.Plic.digest t.plic);
  add (Soc.Gpio.output t.gpio);
  Buffer.add_string b (Soc.Dma.digest ~include_time t.dma);
  Buffer.add_char b ';';
  Buffer.add_string b (Soc.Vnet.digest ~include_time t.vnet);
  Buffer.add_char b ';';
  Buffer.add_string b (Soc.Uart.output t.uart);
  Buffer.add_char b ';';
  Buffer.add_string b (S4e_mem.Sparse_mem.digest (Bus.ram t.bus));
  Digest.string (Buffer.contents b)
