(** Translation-block lowering — compiles decoded instructions into
    µop closures.

    Where the generic interpreter re-dispatches on the {!S4e_isa.Instr.t}
    AST, re-matches the timing model, and re-derives hazard sources on
    every execution, [lower_entry] does all of it once per translation:

    - the executor dispatch (including sub-opcode selection, immediate
      sign-extension, and branch/jump target arithmetic) is resolved
      into a closure per instruction; integer register instructions
      and branches are {!Reg_kernel} kernels;
    - the {!Timing_model} cost is precomputed for both branch outcomes;
    - the load-use hazard source set is baked into an int bitmask
      ({!S4e_isa.Instr.source_mask});
    - hook dispatch is specialized away entirely — the machine only
      runs lowered blocks while {!Hooks.is_empty} holds, falling back
      to the generic path the moment a coverage / cache-model /
      fault-monitor client registers.

    Cycle charges are returned by each µop and batched by the machine;
    µops that can observe time (CSR accesses and device-space bus
    accesses) call [lx_flush_time] first, which keeps batched ticking
    observationally identical to per-instruction ticking.

    A stuck-at register bit ([lx_stuck]) is resolved at translate time
    too: only an instruction whose destination is the stuck register
    gets one extra step, re-forcing the bit after its write.

    The lowered engine must stay byte-identical to {!Exec.execute} on
    every instruction — enforced by the differential property tests. *)

type word = int

type reg_file = Gpr | Fpr

(** A register bit held at a fixed value (a permanent stuck-at fault). *)
type stuck = {
  sk_file : reg_file;
  sk_reg : int;  (** 0..31; a stuck bit in x0 is never forced *)
  sk_bit : int;  (** 0..31 *)
  sk_value : bool;  (** the held value *)
}

type ctx = {
  lx_state : Arch_state.t;
  lx_bus : S4e_mem.Bus.t;
  lx_timing : Timing_model.t;
  lx_flush_time : unit -> unit;
      (** apply batched cycles to [cycle]/CLINT before time-observing ops *)
  lx_notify_store : word -> unit;
      (** translation-cache invalidation on stores *)
  lx_dev_limit : word;
      (** bus addresses below this may reach a device (and hence observe
          or mutate time): flush batched cycles first *)
  mutable lx_stuck : stuck option;
      (** read at translate time: changing it requires killing the
          translations lowered against this context that write the old
          or the new stuck register ({!writes_stuck}) *)
}

val force : Arch_state.t -> stuck -> unit
(** Sets the stuck bit to its held value (no-op for x0). *)

val writes_stuck : stuck -> S4e_isa.Instr.t -> bool
(** The instruction writes the stuck register (never for x0): the only
    instructions whose lowering depends on [lx_stuck]. *)

val load_fn : S4e_mem.Bus.t -> S4e_isa.Instr.op_load -> word -> word
(** Width/sign-dispatched load with the architectural misalignment
    check baked in; shared with the superblock trace compiler. *)

val store_fn : S4e_mem.Bus.t -> S4e_isa.Instr.op_store -> word -> word -> unit
(** Width-dispatched store with the misalignment check baked in. *)

val lower_instr :
  ctx -> pc:word -> size:int -> S4e_isa.Instr.t -> Tb_cache.uop

val lower_entry : ctx -> Tb_cache.entry -> Tb_cache.uop array
