(** Coverage collection as a plugin over the hook API.

    Non-invasive, like the published tool: the binary under analysis is
    unmodified; the collector subscribes to instruction and memory
    events and fills a {!Report.t}.

    Retires are cheap: the static facts of an instruction (its pc, the
    registers it reads and writes, its CSR) are recorded the first time
    its pc retires it, and later retires only bump a per-pc count.
    Touched data bytes are kept as per-word bitmasks under the same
    per-access cap as {!Report.touched_data}. *)

type t

val attach :
  S4e_cpu.Machine.t -> ?isa:S4e_isa.Isa_module.t list -> unit -> t
(** [isa] defaults to the machine's configured modules. *)

val detach : S4e_cpu.Machine.t -> t -> unit

val report : t -> Report.t
(** Folds the per-pc counts and touched bytes recorded so far into the
    collector's report and returns it.  Every call returns the same
    value, up to date. *)
