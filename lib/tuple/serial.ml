let tag_null = 0
let tag_int = 1
let tag_float = 2
let tag_str = 3

let field_size = function
  | Value.Null -> 1
  | Value.Int _ -> 9
  | Value.Float _ -> 9
  | Value.Str s ->
      if String.length s > 0xffff then invalid_arg "Serial: string too long";
      3 + String.length s

let encoded_size t = Array.fold_left (fun acc v -> acc + field_size v) 2 t

let encode_into t buf ~pos =
  let size = encoded_size t in
  if pos + size > Bytes.length buf then invalid_arg "Serial.encode_into: buffer too small";
  Bytes.set_uint16_le buf pos (Array.length t);
  let cursor = ref (pos + 2) in
  let put_field v =
    match v with
    | Value.Null ->
        Bytes.set_uint8 buf !cursor tag_null;
        cursor := !cursor + 1
    | Value.Int x ->
        Bytes.set_uint8 buf !cursor tag_int;
        Bytes.set_int64_le buf (!cursor + 1) (Int64.of_int x);
        cursor := !cursor + 9
    | Value.Float x ->
        Bytes.set_uint8 buf !cursor tag_float;
        Bytes.set_int64_le buf (!cursor + 1) (Int64.bits_of_float x);
        cursor := !cursor + 9
    | Value.Str s ->
        Bytes.set_uint8 buf !cursor tag_str;
        Bytes.set_uint16_le buf (!cursor + 1) (String.length s);
        Bytes.blit_string s 0 buf (!cursor + 3) (String.length s);
        cursor := !cursor + 3 + String.length s
  in
  Array.iter put_field t;
  size

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let _ = encode_into t buf ~pos:0 in
  buf

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

(* The one field walker: decode the record at [pos], keeping the fields
   [proj] keeps; [exact]: the record must end exactly at [limit].  The
   caller proves [limit <= Bytes.length buf], and [field_count] proves
   [0 <= pos].  Every field, kept or dropped, is validated by
   [field_stop]; the fields past the last kept one are only stepped
   over, by a loop that holds no call. *)
let decode_fields proj buf ~pos ~limit ~exact =
  let n = field_count buf pos limit in
  let all = proj.width < 0 in
  let last = if all then n else Array.length proj.slot_of in
  if last > n then malformed "projected column out of range";
  let t = Array.make (if all then n else proj.width) Value.Null in
  let at = ref (pos + 2) in
  for i = 0 to last - 1 do
    let p = !at in
    at := field_stop buf p limit;
    let k = if all then i else Array.unsafe_get proj.slot_of i in
    if k >= 0 then Array.unsafe_set t k (field_value buf p)
  done;
  for _ = last to n - 1 do
    at := field_stop buf !at limit
  done;
  if exact && !at <> limit then malformed "trailing bytes";
  t

let decode buf ~pos =
  decode_fields full buf ~pos ~limit:(Bytes.length buf) ~exact:false

let decode_bytes buf = decode buf ~pos:0

let check_slice buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    malformed "slice out of bounds"

let decode_slice buf ~off ~len =
  check_slice buf ~off ~len;
  decode_fields full buf ~pos:off ~limit:(off + len) ~exact:true

let decode_projected proj buf ~off ~len =
  check_slice buf ~off ~len;
  decode_fields proj buf ~pos:off ~limit:(off + len) ~exact:true
