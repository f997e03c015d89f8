(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field: storing an [int64] into a record boxes it, so every step would
   allocate.  Read and written through the bytes primitives, the state
   stays unboxed, and a step that [int], [float] or [bool] inlines
   allocates nothing. *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64 step: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)
let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = create (next_raw t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit int as a positive. *)
  let mask = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  mask mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_raw t) 1L = 1L

(* An in-place Fisher-Yates shuffle over an [int array]: reads and
   writes that need no tag test and no write barrier. *)
let permutation t n =
  let a : int array = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done;
  a
