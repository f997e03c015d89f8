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

(* Every decode shares one field walker.  [limit] bounds the record — the
   end of its slot, not of the buffer it sits in — so a record decodes
   only from its own bytes, and every field is checked against [limit]
   before it is read. *)
let malformed what = invalid_arg ("Serial.decode: " ^ what)

(* The end of the field starting at [pos]. *)
let field_end buf pos limit =
  if pos >= limit then malformed "truncated field";
  let tag = Bytes.get_uint8 buf pos in
  let stop =
    if tag = tag_null then pos + 1
    else if tag = tag_int || tag = tag_float then pos + 9
    else if tag = tag_str then
      if pos + 3 > limit then malformed "truncated field"
      else pos + 3 + Bytes.get_uint16_le buf (pos + 1)
    else malformed "bad tag"
  in
  if stop > limit then malformed "truncated field";
  stop

(* The value of a field [field_end] has already validated. *)
let field_value buf pos =
  let tag = Bytes.get_uint8 buf pos in
  if tag = tag_null then Value.Null
  else if tag = tag_int then
    Value.Int (Int64.to_int (Bytes.get_int64_le buf (pos + 1)))
  else if tag = tag_float then
    Value.Float (Int64.float_of_bits (Bytes.get_int64_le buf (pos + 1)))
  else Value.Str (Bytes.sub_string buf (pos + 3) (Bytes.get_uint16_le buf (pos + 1)))

(* The field count at [pos]; every field takes at least one byte, so a
   count the bytes up to [limit] cannot hold is rejected before anything
   is allocated for it. *)
let field_count buf pos limit =
  if pos < 0 || pos + 2 > limit then malformed "truncated header";
  let n = Bytes.get_uint16_le buf pos in
  if n > limit - pos - 2 then malformed "truncated field";
  n

(* [slot_of.(i)] is the output position of stored field [i], or -1 when
   the field is stepped over. *)
type projection = { slot_of : int array; width : int }

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

(* Decode the record at [pos], every field ([proj = None]) or the
   projected ones; [exact]: the record must end exactly at [limit]. *)
let decode_fields ?proj buf ~pos ~limit ~exact =
  let n = field_count buf pos limit in
  let width =
    match proj with
    | None -> n
    | Some p ->
        if Array.length p.slot_of > n then
          malformed "projected column out of range";
        p.width
  in
  let t = Array.make width Value.Null in
  let cursor = ref (pos + 2) in
  for i = 0 to n - 1 do
    let stop = field_end buf !cursor limit in
    let k =
      match proj with
      | None -> i
      | Some p -> if i < Array.length p.slot_of then p.slot_of.(i) else -1
    in
    if k >= 0 then t.(k) <- field_value buf !cursor;
    cursor := stop
  done;
  if exact && !cursor <> limit then malformed "trailing bytes";
  t

let decode buf ~pos =
  decode_fields buf ~pos ~limit:(Bytes.length buf) ~exact:false

let decode_bytes buf = decode buf ~pos:0

let check_slice buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    malformed "slice out of bounds"

let decode_slice buf ~off ~len =
  check_slice buf ~off ~len;
  decode_fields buf ~pos:off ~limit:(off + len) ~exact:true

let decode_projected proj buf ~off ~len =
  check_slice buf ~off ~len;
  decode_fields ~proj buf ~pos:off ~limit:(off + len) ~exact:true
