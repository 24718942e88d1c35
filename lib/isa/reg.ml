type t = int

let count = 32
let zero = 0
let ra = 1
let sp = 2
let gp = 3
let tp = 4
let fp = 8
let t0 = 5
let t1 = 6
let t2 = 7
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17
let s0 = 8
let s1 = 9
let s2 = 18
let s3 = 19

let valid r = r >= 0 && r <= 31

let abi_names =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2";
     "s0"; "s1"; "a0"; "a1"; "a2"; "a3"; "a4"; "a5";
     "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
     "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6" |]

let f_abi_names =
  [| "ft0"; "ft1"; "ft2"; "ft3"; "ft4"; "ft5"; "ft6"; "ft7";
     "fs0"; "fs1"; "fa0"; "fa1"; "fa2"; "fa3"; "fa4"; "fa5";
     "fa6"; "fa7"; "fs2"; "fs3"; "fs4"; "fs5"; "fs6"; "fs7";
     "fs8"; "fs9"; "fs10"; "fs11"; "ft8"; "ft9"; "ft10"; "ft11" |]

let abi_name r =
  assert (valid r);
  abi_names.(r)

let x_name r =
  assert (valid r);
  "x" ^ string_of_int r

let f_name r =
  assert (valid r);
  f_abi_names.(r)

(* Every spelling of index [i] after the "x"/"f" prefix: the one- and
   two-character strings [int_of_string] reads as [i], so "x5" but also
   "x05", "x+5", "x5_" and "x-0" (test_isa enumerates them all). *)
let index_spellings i =
  let d = string_of_int i in
  (d :: (if i < 10 then [ "0" ^ d; "+" ^ d; d ^ "_" ] else []))
  @ if i = 0 then [ "-0" ] else []

module Names = Hashtbl.Make (String)

let name_table prefix abi aliases =
  let t = Names.create 256 in
  Array.iteri (fun i n -> Names.replace t n i) abi;
  List.iter (fun (n, i) -> Names.replace t n i) aliases;
  for i = 0 to count - 1 do
    List.iter (fun s -> Names.replace t (prefix ^ s) i) (index_spellings i)
  done;
  t

let x_table = name_table "x" abi_names [ ("fp", fp) ]
let f_table = name_table "f" f_abi_names []
let of_name s = Names.find_opt x_table s
let f_of_name s = Names.find_opt f_table s
