type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

type ty = Tint | Tfloat | Tstr

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr

let tag_rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare (x : int) y
  | Float x, Float y -> Stdlib.compare (x : float) y
  | Str x, Str y -> Stdlib.compare (x : string) y
  | _, _ -> Stdlib.compare (tag_rank a) (tag_rank b)

let equal a b = compare a b = 0

(* FNV-1a over a canonical byte rendering; stable across runs and domains,
   which hash partitioning requires for deterministic tests. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L land max_int
let fnv_prime = 0x100000001b3

let[@inline] fnv_step h byte = (h lxor byte) * fnv_prime land max_int

let hash_bytes h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_step !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* The eight steps over [x]'s bytes, low byte first, unrolled: a hash
   is taken per routed, probed or grouped record. *)
let hash_int h x =
  let h = fnv_step h (x land 0xff) in
  let h = fnv_step h ((x lsr 8) land 0xff) in
  let h = fnv_step h ((x lsr 16) land 0xff) in
  let h = fnv_step h ((x lsr 24) land 0xff) in
  let h = fnv_step h ((x lsr 32) land 0xff) in
  let h = fnv_step h ((x lsr 40) land 0xff) in
  let h = fnv_step h ((x lsr 48) land 0xff) in
  fnv_step h ((x lsr 56) land 0xff)

(* Each kind's tag is hashed first; these are the states after it. *)
let seed_int = hash_int fnv_offset 1
let seed_float = hash_int fnv_offset 2
let seed_str = hash_int fnv_offset 3
let hash_null = hash_int fnv_offset 0x6e756c6c

let hash = function
  | Null -> hash_null
  | Int x -> hash_int seed_int x
  | Float x -> hash_int seed_float (Int64.to_int (Int64.bits_of_float x))
  | Str s -> hash_bytes seed_str s

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v

let int_exn = function
  | Int x -> x
  | v -> invalid_arg ("Value.int_exn: " ^ to_string v)

let float_exn = function
  | Float x -> x
  | Int x -> float_of_int x
  | v -> invalid_arg ("Value.float_exn: " ^ to_string v)

let str_exn = function
  | Str s -> s
  | v -> invalid_arg ("Value.str_exn: " ^ to_string v)

let ty_to_string = function Tint -> "int" | Tfloat -> "float" | Tstr -> "string"
