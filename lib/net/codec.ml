module Packet = Volcano.Packet
module Serial = Volcano_tuple.Serial

(* The packet codec: a [Data] frame's payload is

       u16 LE record count | count × Serial-encoded tuples

   reusing the storage layer's tuple serialization, so the wire format
   has exactly one tuple encoding in the whole system.  Packet shells are
   the serialization buffers on both sides: the worker encodes out of the
   shell it just filled (and resets it for the next batch), the consumer
   decodes into a shell from the port lane's recycling pool. *)

let encode ?(off = 0) packet =
  let n = Packet.length packet in
  let size = ref (off + 2) in
  for i = 0 to n - 1 do
    size := !size + Serial.encoded_size (Packet.get packet i)
  done;
  let buf = Bytes.create !size in
  Bytes.set_uint16_le buf off n;
  let pos = ref (off + 2) in
  for i = 0 to n - 1 do
    pos := !pos + Serial.encode_into (Packet.get packet i) buf ~pos:!pos
  done;
  buf

let decode_into ?(off = 0) buf packet =
  if Bytes.length buf < off + 2 then raise (Wire.Corrupt "data frame: no count");
  let n = Bytes.get_uint16_le buf off in
  if n > Packet.capacity packet then
    raise
      (Wire.Corrupt
         (Printf.sprintf "data frame: %d records exceed packet capacity %d" n
            (Packet.capacity packet)));
  let pos = ref (off + 2) in
  (try
     for _ = 1 to n do
       let tuple = Serial.decode buf ~pos:!pos in
       pos := !pos + Serial.encoded_size tuple;
       Packet.add packet tuple
     done
   with Invalid_argument msg ->
     raise (Wire.Corrupt ("data frame: " ^ msg)));
  if !pos <> Bytes.length buf then
    raise (Wire.Corrupt "data frame: trailing bytes")

(* Row-list payloads for the serve plane: u32 LE count, then the rows. *)

let encode_rows rows =
  let b = Buffer.create 256 in
  Buffer.add_int32_le b (Int32.of_int (List.length rows));
  List.iter (fun row -> Buffer.add_bytes b (Serial.encode row)) rows;
  Buffer.to_bytes b

let decode_rows buf =
  if Bytes.length buf < 4 then raise (Wire.Corrupt "rows: no count");
  let n = Int32.to_int (Bytes.get_int32_le buf 0) in
  if n < 0 then raise (Wire.Corrupt "rows: negative count");
  let pos = ref 4 in
  let rows =
    try
      List.init n (fun _ ->
          let row = Serial.decode buf ~pos:!pos in
          pos := !pos + Serial.encoded_size row;
          row)
    with Invalid_argument msg -> raise (Wire.Corrupt ("rows: " ^ msg))
  in
  if !pos <> Bytes.length buf then raise (Wire.Corrupt "rows: trailing bytes");
  rows
