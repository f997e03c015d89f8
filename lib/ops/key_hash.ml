module Value = Volcano_tuple.Value

(* Ints get a one-multiply mix (an odd multiplier, so it permutes the low
   bits the bucket index reads); everything else falls back to
   [Value.hash]. *)
let int_mix x = x * 0x2545F4914F6CDD1D land max_int

let slot_hash = function Value.Int x -> int_mix x | v -> Value.hash v

let slot_equal a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | _ -> Value.equal a b

let key_hash key =
  let h = ref 17 in
  for i = 0 to Array.length key - 1 do
    h := (!h * 31) + slot_hash (Array.unsafe_get key i)
  done;
  !h

(* A top-level recursion, not a local closure over the two keys: this
   runs once per probed bucket entry. *)
let rec matches_from gkey key i =
  i >= Array.length key
  || slot_equal (Array.unsafe_get gkey i) (Array.unsafe_get key i)
     && matches_from gkey key (i + 1)

let key_matches gkey key = matches_from gkey key 0

let cols_hash cols tuple =
  let h = ref 17 in
  for i = 0 to Array.length cols - 1 do
    h := (!h * 31) + slot_hash tuple.(Array.unsafe_get cols i)
  done;
  !h
