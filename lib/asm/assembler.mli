(** Two-pass assembler: source text -> {!Program.t}.

    Pass 1 lays out sections and binds labels; pass 2 resolves
    expressions and encodes.  The entry point is the [_start] symbol if
    defined, otherwise the beginning of the text section.

    Sections: [.text] starts at [text_base] (default: RAM base) and
    [.data] at [data_base] (default: RAM base + 64 KiB); [.org] moves
    the cursor within the current section. *)

val max_image_bytes : int
(** 16 MiB: the most bytes an image may hold, summed over both
    sections ([.space]/[.zero] and [.align] padding included), and the
    farthest a single [.org] may move the cursor.  A source that goes
    past it is an [Error] at the line that does, so hostile input cannot
    make the assembler allocate more than that. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val assemble :
  ?text_base:int -> ?data_base:int -> string -> (Program.t, error) result

val assemble_exn : ?text_base:int -> ?data_base:int -> string -> Program.t
(** @raise Failure with a formatted message on error. *)
