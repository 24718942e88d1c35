type word = int

type restriction = Restrict_all | Restrict_writes

type policy = {
  p_device : string;
  p_allowed : (word * word) list;
  p_restrict : restriction;
}

type violation = {
  v_pc : word;
  v_device : string;
  v_addr : word;
  v_is_write : bool;
  v_instret : int;
}

type t = {
  policies : (string * ((word * word) list * restriction)) list;
  mutable violation_list : violation list;  (* reverse order *)
  mutable access_count : int;
  (* the watcher this guard installed (for identity on detach) and the
     one it displaced (restored on detach, forwarded to while attached
     so stacked guards all keep observing) *)
  mutable self_watcher : (S4e_mem.Bus.io_access -> unit) option;
  mutable prev_watcher : (S4e_mem.Bus.io_access -> unit) option;
}

let attach (m : S4e_cpu.Machine.t) policies =
  let t =
    { policies =
        List.map (fun p -> (p.p_device, (p.p_allowed, p.p_restrict))) policies;
      violation_list = [];
      access_count = 0;
      self_watcher = None;
      prev_watcher = S4e_mem.Bus.io_watcher m.S4e_cpu.Machine.bus }
  in
  let watcher (a : S4e_mem.Bus.io_access) =
    t.access_count <- t.access_count + 1;
    match List.assoc_opt a.S4e_mem.Bus.io_device t.policies with
    | None -> ()
    | Some (allowed, restriction) ->
        let restricted =
          match restriction with
          | Restrict_all -> true
          | Restrict_writes -> a.S4e_mem.Bus.io_is_write
        in
        let pc = (S4e_cpu.Machine.state m).S4e_cpu.Arch_state.pc in
        let ok =
          (not restricted)
          || List.exists (fun (lo, hi) -> pc >= lo && pc < hi) allowed
        in
        if not ok then
          t.violation_list <-
            { v_pc = pc;
              v_device = a.S4e_mem.Bus.io_device;
              v_addr = a.S4e_mem.Bus.io_addr;
              v_is_write = a.S4e_mem.Bus.io_is_write;
              v_instret = S4e_cpu.Machine.instret m }
            :: t.violation_list
  in
  (* chain to the displaced watcher so a guard stacked on top of
     another (or on any foreign observer) doesn't silence it *)
  let watcher a =
    watcher a;
    match t.prev_watcher with Some f -> f a | None -> ()
  in
  t.self_watcher <- Some watcher;
  S4e_mem.Bus.set_io_watcher m.S4e_cpu.Machine.bus (Some watcher);
  t

let detach (m : S4e_cpu.Machine.t) t =
  (* Only unhook if our watcher is still the installed one: blindly
     clearing would destroy a watcher installed after this guard.  A
     guard that is no longer on top stays chained until the watcher
     above it is detached. *)
  match (S4e_mem.Bus.io_watcher m.S4e_cpu.Machine.bus, t.self_watcher) with
  | Some cur, Some self when cur == self ->
      S4e_mem.Bus.set_io_watcher m.S4e_cpu.Machine.bus t.prev_watcher
  | _ -> ()

let violations t = List.rev t.violation_list
let accesses t = t.access_count

let pp_violation fmt v =
  Format.fprintf fmt "unauthorized %s of %s at 0x%08x from pc 0x%08x (instr %d)"
    (if v.v_is_write then "write" else "read")
    v.v_device v.v_addr v.v_pc v.v_instret
