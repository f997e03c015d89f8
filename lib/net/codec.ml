module Packet = Volcano.Packet
module Serial = Volcano_tuple.Serial

(* The packet codec: a [Data] frame's payload is

       u16 LE record count | count × Serial-encoded tuples

   reusing the storage layer's tuple serialization, so the wire format
   has exactly one tuple encoding in the whole system.  Packet shells are
   the serialization buffers on both sides: the worker encodes out of the
   shell it just filled (and resets it for the next batch), the consumer
   decodes into a shell from the port lane's recycling pool.

   Every encoder below writes through [reserve need], which returns a
   buffer of at least [need] bytes holding everything written so far —
   a connection's output frame, or a standalone buffer.  A record is
   written in one pass; only a record that overruns the buffer is sized,
   to grow it, and written again. *)

let put reserve pos t =
  match Serial.encode_into t (reserve pos) ~pos with
  | n -> pos + n
  | exception Invalid_argument _ ->
      (* Too small — or a string too long, which [encoded_size] re-raises. *)
      let size = Serial.encoded_size t in
      pos + Serial.encode_into t (reserve (pos + size)) ~pos

let put_packet reserve ~pos packet =
  let n = Packet.length packet in
  Bytes.set_uint16_le (reserve (pos + 2)) pos n;
  let at = ref (pos + 2) in
  for i = 0 to n - 1 do
    at := put reserve !at (Packet.get packet i)
  done;
  !at

(* Row-list payloads for the serve plane: u32 LE count, then the rows. *)
let put_rows reserve ~pos rows =
  Bytes.set_int32_le (reserve (pos + 4)) pos (Int32.of_int (List.length rows));
  List.fold_left (put reserve) (pos + 4) rows

(* An encoding in a buffer of its own, exactly as long as the encoding. *)
let standalone encode =
  let buf = ref (Bytes.create 256) in
  let stop =
    encode (fun need ->
        buf := Wire.grow !buf need;
        !buf)
  in
  Bytes.sub !buf 0 stop

let encode ?(off = 0) packet =
  standalone (fun reserve -> put_packet reserve ~pos:off packet)

let encode_rows rows = standalone (fun reserve -> put_rows reserve ~pos:0 rows)

(* Frames are encoded in place, behind the header in the connection's
   output buffer, and sent with one write. *)
let send conn ?dest packet =
  let reserve = Wire.reserve conn and pos = Wire.header_size in
  match dest with
  | None ->
      let stop = put_packet reserve ~pos packet in
      Wire.send conn Wire.Data ~len:(stop - pos)
  | Some dest ->
      Bytes.set_uint16_le (reserve (pos + 2)) pos dest;
      let stop = put_packet reserve ~pos:(pos + 2) packet in
      Wire.send conn Wire.Repartition ~len:(stop - pos)

let send_rows conn rows =
  let pos = Wire.header_size in
  let stop = put_rows (Wire.reserve conn) ~pos rows in
  Wire.send conn Wire.Resp_ok ~len:(stop - pos)

(* The payload is bytes [0, len) of [buf]: in a connection's reused
   input buffer, the bytes past [len] are stale. *)
let payload_len buf = function
  | None -> Bytes.length buf
  | Some len ->
      if len < 0 || len > Bytes.length buf then
        invalid_arg "Codec: payload length outside the buffer";
      len

let decode_into ?(off = 0) ?len buf packet =
  let len = payload_len buf len in
  if len < off + 2 then raise (Wire.Corrupt "data frame: no count");
  let n = Bytes.get_uint16_le buf off in
  if n > Packet.capacity packet then
    raise
      (Wire.Corrupt
         (Printf.sprintf "data frame: %d records exceed packet capacity %d" n
            (Packet.capacity packet)));
  let pos = ref (off + 2) in
  (try
     for _ = 1 to n do
       Packet.add packet (Serial.decode buf ~pos ~limit:len)
     done
   with Invalid_argument msg ->
     raise (Wire.Corrupt ("data frame: " ^ msg)));
  if !pos <> len then raise (Wire.Corrupt "data frame: trailing bytes")

let decode_rows ?len buf =
  let len = payload_len buf len in
  if len < 4 then raise (Wire.Corrupt "rows: no count");
  let n = Int32.to_int (Bytes.get_int32_le buf 0) in
  if n < 0 then raise (Wire.Corrupt "rows: negative count");
  let pos = ref 4 in
  let rows =
    try List.init n (fun _ -> Serial.decode buf ~pos ~limit:len)
    with Invalid_argument msg -> raise (Wire.Corrupt ("rows: " ^ msg))
  in
  if !pos <> len then raise (Wire.Corrupt "rows: trailing bytes");
  rows
