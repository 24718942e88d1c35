(** Disassembler for loaded images, raw words, and flight-recorder
    records. *)

type line = {
  pc : int;
  raw : int;  (** encoded bits (16 or 32 wide) *)
  size : int;
  text : string;  (** rendering, or [".word 0x...."] when undecodable *)
}

val disassemble_word : int -> string
(** One 32-bit word, or [".word ..."] if it does not decode. *)

val disassemble_range :
  mem:S4e_mem.Sparse_mem.t -> ?compressed:bool -> start:int -> len:int ->
  unit -> line list
(** Walk [len] bytes from [start], decoding compressed halfwords when
    [compressed] (default true). *)

val disassemble_program : Program.t -> line list
(** All code chunks of a program. *)

val pp_line : Format.formatter -> line -> unit

(** {1 Flight-recorder windows} *)

val record_line : S4e_obs.Flight_recorder.record -> string
(** One recorder record as {!S4e_obs.Flight_recorder.pp_record} prints
    it, followed for a [Retire] record by its disassembled opcode word.
    The one renderer of recorder tails, for [s4e run --record] and
    campaign triage alike. *)

type flow = {
  branches : int;  (** conditional branches retired *)
  taken : int;  (** of those, the ones whose successor is the target *)
  calls : int;  (** [jal]/[jalr] with a link register *)
  returns : int;  (** [jalr zero, 0(ra)] *)
}

val flow : S4e_obs.Flight_recorder.record list -> flow
(** Control-flow counts over a recorded window (oldest first), decoded
    from the [Retire] records' opcode words.  A branch is taken when the
    next record's pc is its target; a branch whose successor lies
    outside the window counts as not taken. *)
