type word = int

type mem_event = {
  mem_pc : word;
  mem_addr : word;
  mem_size : int;
  mem_value : word;
  mem_is_store : bool;
}

type id = int

type t = {
  mutable next_id : int;
  mutable insn : (id * (word -> S4e_isa.Instr.t -> unit)) list;
  mutable mem : (id * (mem_event -> unit)) list;
  mutable block : (id * (word -> int -> unit)) list;
  mutable trap : (id * (Trap.exception_cause -> word -> unit)) list;
}

let create () = { next_id = 0; insn = []; mem = []; block = []; trap = [] }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let on_insn t f =
  let id = fresh t in
  t.insn <- t.insn @ [ (id, f) ];
  id

let on_mem t f =
  let id = fresh t in
  t.mem <- t.mem @ [ (id, f) ];
  id

let on_block t f =
  let id = fresh t in
  t.block <- t.block @ [ (id, f) ];
  id

let on_trap t f =
  let id = fresh t in
  t.trap <- t.trap @ [ (id, f) ];
  id

let unregister t id =
  let drop l = List.filter (fun (i, _) -> i <> id) l in
  t.insn <- drop t.insn;
  t.mem <- drop t.mem;
  t.block <- drop t.block;
  t.trap <- drop t.trap

let clear t =
  t.insn <- [];
  t.mem <- [];
  t.block <- [];
  t.trap <- []

let has_insn t = t.insn != []
let has_mem t = t.mem != []
let has_block t = t.block != []

let is_empty t =
  t.insn == [] && t.mem == [] && t.block == [] && t.trap == []

let fire_insn t pc i = List.iter (fun (_, f) -> f pc i) t.insn
let fire_mem t e = List.iter (fun (_, f) -> f e) t.mem
let fire_block t pc n = List.iter (fun (_, f) -> f pc n) t.block
let fire_trap t c pc = List.iter (fun (_, f) -> f c pc) t.trap
