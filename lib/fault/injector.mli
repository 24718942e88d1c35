(** Applying a fault to a live machine.

    Code and data flips touch memory directly (a flipped code bit is a
    binary mutation, XEMU-style).  A transient fault flips its bit once,
    from a counting hook, just before the Nth instruction executes.  A
    permanent register fault installs no hook: it holds the bit at its
    flipped ("stuck") value through {!S4e_cpu.Machine.set_stuck}, which
    compiles the force into the translated code, so the mutant keeps
    the lowered engine.  Arm after loading the program and before
    running. *)

type armed

val arm : S4e_cpu.Machine.t -> Fault.t -> armed
(** @raise Invalid_argument on a fault {!Fault.validate} rejects
    (register or bit out of range, negative address, non-positive
    transient time).  The register paths use unchecked indexing, and
    {!Fault.of_string} already refuses such faults, so this guards
    fault lists built in code. *)

val disarm : S4e_cpu.Machine.t -> armed -> unit
(** Removes the transient's hook or clears the stuck bit; memory flips
    are not undone (discard the machine). *)
