type word = int

type location =
  | Gpr of S4e_isa.Reg.t * int
  | Fpr of S4e_isa.Reg.t * int
  | Code of word * int
  | Data of word * int

type kind = Permanent | Transient of int

type t = { loc : location; kind : kind }

(* A register outside 0..31 (a fault built in code) has no ABI name:
   it prints by index, so the per-mutant trace span can always name a
   fault the injector will reject. *)
let describe t =
  let reg abi prefix r =
    if S4e_isa.Reg.valid r then abi r else prefix ^ string_of_int r
  in
  let loc =
    match t.loc with
    | Gpr (r, b) ->
        Printf.sprintf "GPR %s bit %d" (reg S4e_isa.Reg.abi_name "x" r) b
    | Fpr (r, b) ->
        Printf.sprintf "FPR %s bit %d" (reg S4e_isa.Reg.f_name "f" r) b
    | Code (a, b) -> Printf.sprintf "code 0x%08x bit %d" a b
    | Data (a, b) -> Printf.sprintf "data 0x%08x bit %d" a b
  in
  match t.kind with
  | Permanent -> loc ^ " (permanent)"
  | Transient n -> Printf.sprintf "%s (transient @ instr %d)" loc n

let pp fmt t = Format.pp_print_string fmt (describe t)

let compare = Stdlib.compare

(* Stable textual form used by campaign journals: colon-separated, one
   token per field, addresses in hex.  [of_string] must accept exactly
   what [to_string] emits — journals written by one build are resumed
   by another. *)
let to_string t =
  let loc =
    match t.loc with
    | Gpr (r, b) -> Printf.sprintf "gpr:%d:%d" r b
    | Fpr (r, b) -> Printf.sprintf "fpr:%d:%d" r b
    | Code (a, b) -> Printf.sprintf "code:0x%x:%d" a b
    | Data (a, b) -> Printf.sprintf "data:0x%x:%d" a b
  in
  match t.kind with
  | Permanent -> loc ^ ":perm"
  | Transient n -> Printf.sprintf "%s:trans:%d" loc n

(* The ranges the injector can arm.  Register accessors use unchecked
   array indexing on the hot path, so an out-of-range register must be
   refused before it reaches a machine. *)
let validate t =
  let bad what = Error (what ^ " out of range in " ^ to_string t) in
  let bit b = if b < 0 || b > 31 then bad "bit" else Ok () in
  let loc =
    match t.loc with
    | Gpr (r, b) | Fpr (r, b) ->
        if r < 0 || r > 31 then bad "register" else bit b
    | Code (a, b) | Data (a, b) -> if a < 0 then bad "address" else bit b
  in
  match (loc, t.kind) with
  | Ok (), Transient n when n <= 0 -> bad "transient time"
  | r, _ -> r

let of_string s =
  let int v = int_of_string_opt v in
  let loc tag a b =
    match (int a, int b) with
    | Some a, Some b -> (
        match tag with
        | "gpr" -> Some (Gpr (a, b))
        | "fpr" -> Some (Fpr (a, b))
        | "code" -> Some (Code (a, b))
        | "data" -> Some (Data (a, b))
        | _ -> None)
    | _ -> None
  in
  let parsed =
    match String.split_on_char ':' s with
    | [ tag; a; b; "perm" ] ->
        Option.map (fun loc -> { loc; kind = Permanent }) (loc tag a b)
    | [ tag; a; b; "trans"; n ] -> (
        match (loc tag a b, int n) with
        | Some loc, Some n -> Some { loc; kind = Transient n }
        | _ -> None)
    | _ -> None
  in
  (* [int_of_string] also reads "0x7", "+3", "07" and "1_0": accept
     only the one spelling [to_string] prints *)
  match parsed with
  | Some t when String.equal (to_string t) s -> (
      match validate t with
      | Ok () -> Ok t
      | Error e -> Error ("bad fault: " ^ e))
  | _ -> Error ("bad fault: " ^ s)
