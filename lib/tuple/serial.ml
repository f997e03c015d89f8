let tag_null = 0
let tag_int = 1
let tag_float = 2
let tag_str = 3

(* The encoder's failures, built once, as the decoder's are below. *)
let too_long = Invalid_argument "Serial: string too long"
let too_small = Invalid_argument "Serial.encode_into: buffer too small"

(* Both encoder loops are call-free: one match per field, no fold
   closure, no per-field size call. *)
let encoded_size t =
  let size = ref 2 in
  for i = 0 to Array.length t - 1 do
    match Array.unsafe_get t i with
    | Value.Null -> size := !size + 1
    | Value.Int _ | Value.Float _ -> size := !size + 9
    | Value.Str s ->
        let n = String.length s in
        if n > 0xffff then raise too_long;
        size := !size + 3 + n
  done;
  !size

(* One pass: each field is bounds-checked as it is written, so the
   record is never sized first. *)
let encode_into t buf ~pos =
  let limit = Bytes.length buf in
  if pos < 0 || pos + 2 > limit then raise too_small;
  Bytes.set_uint16_le buf pos (Array.length t);
  let at = ref (pos + 2) in
  for i = 0 to Array.length t - 1 do
    let p = !at in
    match Array.unsafe_get t i with
    | Value.Null ->
        if p >= limit then raise too_small;
        Bytes.unsafe_set buf p (Char.unsafe_chr tag_null);
        at := p + 1
    | Value.Int x ->
        if p + 9 > limit then raise too_small;
        Bytes.unsafe_set buf p (Char.unsafe_chr tag_int);
        Bytes.set_int64_le buf (p + 1) (Int64.of_int x);
        at := p + 9
    | Value.Float x ->
        if p + 9 > limit then raise too_small;
        Bytes.unsafe_set buf p (Char.unsafe_chr tag_float);
        Bytes.set_int64_le buf (p + 1) (Int64.bits_of_float x);
        at := p + 9
    | Value.Str s ->
        let n = String.length s in
        if n > 0xffff then raise too_long;
        if p + 3 + n > limit then raise too_small;
        Bytes.unsafe_set buf p (Char.unsafe_chr tag_str);
        Bytes.set_uint16_le buf (p + 1) n;
        Bytes.unsafe_blit_string s 0 buf (p + 3) n;
        at := p + 3 + n
  done;
  !at - pos

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let _ = encode_into t buf ~pos:0 in
  buf

let encode_string t = Bytes.unsafe_to_string (encode t)

(* Every decode is one walk of the record's fields.  [limit] bounds the
   record — the end of its slot, not of the buffer it sits in — so a
   record decodes only from its own bytes, and every field is checked
   against [limit] before it is read. *)
let malformed what = invalid_arg ("Serial.decode: " ^ what)

(* The walk's own failures, built once: raising them is a jump, not a
   call, so the per-field path holds no call at all. *)
let truncated = Invalid_argument "Serial.decode: truncated field"
let bad_tag = Invalid_argument "Serial.decode: bad tag"

(* The field count at [pos]; every field takes at least one byte, so a
   count the bytes up to [limit] cannot hold is rejected before anything
   is allocated for it. *)
let field_count buf pos limit =
  if pos < 0 || pos + 2 > limit then malformed "truncated header";
  let n = Bytes.get_uint16_le buf pos in
  if n > limit - pos - 2 then malformed "truncated field";
  n

(* [slot_of.(i)] is the output position of stored field [i], or -1 when
   the field is stepped over; [width < 0] keeps every field in stored
   order ([full]). *)
type projection = { slot_of : int array; width : int }

let full = { slot_of = [||]; width = -1 }

let projection cols =
  let width = List.length cols in
  let top = List.fold_left max (-1) cols in
  let slot_of = Array.make (top + 1) (-1) in
  List.iteri
    (fun k c ->
      if c < 0 then invalid_arg "Serial.projection: negative column";
      if slot_of.(c) >= 0 then invalid_arg "Serial.projection: duplicate column";
      slot_of.(c) <- k)
    cols;
  { slot_of; width }

(* The end of the field at [p], validated: it starts below [limit],
   carries a known tag, and ends at or before [limit].  Inlined into the
   walk, whose caller has proved [limit <= Bytes.length buf] and
   [0 <= p], so the tag and a string's length are read unchecked. *)
let[@inline] field_stop buf p limit =
  if p >= limit then raise truncated;
  let tag = Char.code (Bytes.unsafe_get buf p) in
  let stop =
    if tag = tag_int || tag = tag_float then p + 9
    else if tag = tag_null then p + 1
    else if tag = tag_str && p + 3 <= limit then
      p + 3
      + Char.code (Bytes.unsafe_get buf (p + 1))
      + (Char.code (Bytes.unsafe_get buf (p + 2)) lsl 8)
    else if tag = tag_str then raise truncated
    else raise bad_tag
  in
  if stop > limit then raise truncated;
  stop

(* The value of a field [field_stop] has already validated. *)
let field_value buf pos =
  let tag = Bytes.get_uint8 buf pos in
  if tag = tag_null then Value.Null
  else if tag = tag_int then
    Value.Int (Int64.to_int (Bytes.get_int64_le buf (pos + 1)))
  else if tag = tag_float then
    Value.Float (Int64.float_of_bits (Bytes.get_int64_le buf (pos + 1)))
  else Value.Str (Bytes.sub_string buf (pos + 3) (Bytes.get_uint16_le buf (pos + 1)))

(* The one field walker: fill [t] from the [n] fields that start at
   [pos], keeping the fields [proj] keeps, and return where the record
   ends.  The caller proves [limit <= Bytes.length buf] and [0 <= pos].
   Every field, kept or dropped, is validated by [field_stop]; the
   fields past the last kept one are only stepped over, by a loop that
   holds no call.  Inlined into both decoders, so neither pays a call
   for it. *)
let[@inline] walk proj buf t n ~pos ~limit =
  let all = proj.width < 0 in
  let last = if all then n else Array.length proj.slot_of in
  let at = ref pos in
  for i = 0 to last - 1 do
    let p = !at in
    at := field_stop buf p limit;
    let k = if all then i else Array.unsafe_get proj.slot_of i in
    if k >= 0 then Array.unsafe_set t k (field_value buf p)
  done;
  for _ = last to n - 1 do
    at := field_stop buf !at limit
  done;
  !at

(* The output tuple for a record of [n] stored fields. *)
let[@inline] output proj n =
  if proj.width < 0 then Array.make n Value.Null
  else if Array.length proj.slot_of > n then
    malformed "projected column out of range"
  else Array.make proj.width Value.Null

let decode buf ~pos ~limit =
  if limit > Bytes.length buf then malformed "limit past the buffer";
  let p = !pos in
  let n = field_count buf p limit in
  let t = Array.make n Value.Null in
  pos := walk full buf t n ~pos:(p + 2) ~limit;
  t

let decode_bytes buf = decode buf ~pos:(ref 0) ~limit:(Bytes.length buf)

let check_slice buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    malformed "slice out of bounds"

(* A stored record fills its slot exactly. *)
let decode_exact proj buf ~off ~len =
  check_slice buf ~off ~len;
  let limit = off + len in
  let n = field_count buf off limit in
  let t = output proj n in
  if walk proj buf t n ~pos:(off + 2) ~limit <> limit then
    malformed "trailing bytes";
  t

let decode_slice buf ~off ~len = decode_exact full buf ~off ~len
let decode_projected = decode_exact
