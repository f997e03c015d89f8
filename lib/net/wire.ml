module Injector = Volcano_fault.Injector
module Sched = Volcano_sched.Sched

(* The framing layer shared by the remote-exchange data plane and the
   serve control plane: every message is one length-prefixed frame,

       u32 LE payload length | u8 kind | payload

   so a reader always knows how many bytes the current message still
   needs, and a connection dropped mid-frame is detected as a short read
   rather than a silent truncation.  The payload of a [Data] frame is a
   whole packet of records (see {!Codec}): the wire unit is the batch,
   never the single record. *)

type kind =
  | Hello
  | Data
  | Eos
  | Err
  | Cancel
  | Request
  | Resp_ok
  | Resp_err
  | Shutdown
  | Repartition
      (* Both halves of exchange-boundary repartitioning share this kind:
         parent -> worker, the frame after a flagged Hello carries the
         partition function ({!repartition} payload); worker -> parent,
         each data frame is a routed packet ([u16 dest | packet bytes])
         instead of a mergeable [Data] frame. *)
  | Narrow
      (* parent -> worker: the columns the consumer reads, sent once after
         Hello (and Repartition) on every remote edge *)

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Wire.Corrupt(%s)" msg)
    | _ -> None)

(* Any process that frames over sockets must see a torn peer as EPIPE
   from the write, not die of SIGPIPE before the exception can be
   raised.  Called by every endpoint (worker, launcher, server, client)
   before its first write. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let kind_code = function
  | Hello -> 1
  | Data -> 2
  | Eos -> 3
  | Err -> 4
  | Cancel -> 5
  | Request -> 6
  | Resp_ok -> 7
  | Resp_err -> 8
  | Shutdown -> 9
  | Repartition -> 10
  | Narrow -> 11

let kind_of_code = function
  | 1 -> Hello
  | 2 -> Data
  | 3 -> Eos
  | 4 -> Err
  | 5 -> Cancel
  | 6 -> Request
  | 7 -> Resp_ok
  | 8 -> Resp_err
  | 9 -> Shutdown
  | 10 -> Repartition
  | 11 -> Narrow
  | code -> raise (Corrupt (Printf.sprintf "unknown frame kind %d" code))

(* A frame larger than this is corruption, not data: the largest legal
   payload is one packet of 255 maximal tuples, far below 16 MiB. *)
let max_frame = 1 lsl 24

(* A connection read or written by a pool fiber is non-blocking (the
   launcher sets it after the handshake, a server at accept): a call that
   would block waits in [Sched.wait_fd] and retries, so the fiber
   suspends mid-frame with its stack intact and gives its pool worker
   back.  A blocking descriptor (a worker process, a serve client) never
   sees [EAGAIN], and its calls block as before, off the pool. *)
let rec write_exact fd buf pos len =
  if len > 0 then
    (* conclint: allow CL003 -- non-blocking on the pool (see above). *)
    match Unix.write fd buf pos len with
    | n -> write_exact fd buf (pos + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Sched.wait_fd `Write fd;
        write_exact fd buf pos len

let rec read_exact fd buf pos len =
  if len > 0 then
    (* conclint: allow CL003 -- non-blocking on the pool (see above). *)
    match Unix.read fd buf pos len with
    | 0 -> raise End_of_file
    | n -> read_exact fd buf (pos + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Sched.wait_fd `Read fd;
        read_exact fd buf pos len

(* Frame buffers.  A connection owns one input and one output buffer,
   each grown by doubling and never shrunk, so a steady stream of frames
   allocates nothing per frame: a data frame's payload (a whole packet,
   ~12 KB at the default packet size) is past the minor heap's object
   limit, so a fresh one per frame would be a major-heap allocation
   every time.  The price is the ownership rule: a read's payload is a
   view of the input buffer, valid until the next read.

   A read takes whatever the socket holds, up to [ahead]'s size, so a
   small frame (a request, a reply, a narrow data packet) costs one
   system call, not one for its header and one for its payload.  Bytes
   past the frame wait in [ahead] for the next read; a payload larger
   than what arrived is read straight into the input buffer. *)
type conn = {
  fd : Unix.file_descr;
  faults : Injector.t;
  mutable input : bytes;
  mutable output : bytes;
  ahead : bytes;
  mutable a_pos : int; (* [ahead]'s unread bytes are [a_pos, a_end) *)
  mutable a_end : int;
}

let header_size = 5

let grow buf n =
  if n <= Bytes.length buf then buf
  else begin
    let bigger = Bytes.create (max n (2 * Bytes.length buf)) in
    Bytes.blit buf 0 bigger 0 (Bytes.length buf);
    bigger
  end

let conn ?(faults = Injector.none) fd =
  {
    fd;
    faults;
    input = Bytes.create 256;
    output = Bytes.create 256;
    ahead = Bytes.create 4096;
    a_pos = 0;
    a_end = 0;
  }

let fd c = c.fd

(* Until [ahead] holds [need] unread bytes; [need] fits in it. *)
let rec fill c need =
  if c.a_end - c.a_pos < need then begin
    if c.a_pos > 0 then begin
      Bytes.blit c.ahead c.a_pos c.ahead 0 (c.a_end - c.a_pos);
      c.a_end <- c.a_end - c.a_pos;
      c.a_pos <- 0
    end;
    (* conclint: allow CL003 -- non-blocking on the pool (see above). *)
    match Unix.read c.fd c.ahead c.a_end (Bytes.length c.ahead - c.a_end) with
    | 0 -> raise End_of_file
    | n ->
        c.a_end <- c.a_end + n;
        fill c need
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Sched.wait_fd `Read c.fd;
        fill c need
  end

let read c =
  Injector.hit c.faults Volcano_fault.Net_read;
  fill c header_size;
  let len = Int32.to_int (Bytes.get_int32_le c.ahead c.a_pos) in
  if len < 0 || len > max_frame then
    raise (Corrupt (Printf.sprintf "bad frame length %d" len));
  let kind = kind_of_code (Bytes.get_uint8 c.ahead (c.a_pos + 4)) in
  c.a_pos <- c.a_pos + header_size;
  (* The frame-truncation site fires between header and payload — the
     reader has committed to a length it will never receive, exercising
     the same teardown a connection dropped mid-frame takes. *)
  Injector.hit c.faults Volcano_fault.Net_frame;
  if len > Bytes.length c.input then
    c.input <- Bytes.create (max len (2 * Bytes.length c.input));
  let buffered = min len (c.a_end - c.a_pos) in
  Bytes.blit c.ahead c.a_pos c.input 0 buffered;
  c.a_pos <- c.a_pos + buffered;
  read_exact c.fd c.input buffered (len - buffered);
  (kind, len)

let payload c = c.input

let reserve c n =
  c.output <- grow c.output n;
  c.output

let send c kind ~len =
  Injector.hit c.faults Volcano_fault.Net_write;
  if len < 0 || len > max_frame then raise (Corrupt "frame too large");
  let buf = reserve c (header_size + len) in
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.set_uint8 buf 4 (kind_code kind);
  write_exact c.fd buf 0 (header_size + len)

let write c kind payload =
  let len = Bytes.length payload in
  Bytes.blit payload 0 (reserve c (header_size + len)) header_size len;
  send c kind ~len

let frame_ready c = c.a_pos < c.a_end || Sched.fd_ready `Read c.fd

(* ------------------------------------------------------------------ *)
(* Payload constructors and parsers                                    *)

let check_room what buf pos need =
  if pos + need > Bytes.length buf then
    raise (Corrupt (Printf.sprintf "%s: truncated payload" what))

let get_str what buf pos =
  check_room what buf !pos 2;
  let len = Bytes.get_uint16_le buf !pos in
  check_room what buf (!pos + 2) len;
  let s = Bytes.sub_string buf (!pos + 2) len in
  pos := !pos + 2 + len;
  s

let add_str b s =
  if String.length s > 0xffff then raise (Corrupt "string field too long");
  Buffer.add_uint16_le b (String.length s);
  Buffer.add_string b s

type hello = {
  task : string;
  shard : int;
  shards : int;
  packet_size : int;
  repartition : bool;
      (* a Repartition frame carrying the partition function follows the
         Hello, and the worker must answer with routed packets *)
}

let flag_repartition = 1

let hello ?(repartition = false) ~task ~shard ~shards ~packet_size () =
  let b = Buffer.create (9 + String.length task) in
  Buffer.add_uint16_le b shard;
  Buffer.add_uint16_le b shards;
  Buffer.add_uint16_le b packet_size;
  Buffer.add_uint8 b (if repartition then flag_repartition else 0);
  add_str b task;
  Buffer.to_bytes b

(* A control payload is exactly its fields: bytes past them are
   corruption, not padding. *)
let check_end what buf pos =
  if pos <> Bytes.length buf then
    raise (Corrupt (Printf.sprintf "%s: trailing bytes" what))

let parse_hello buf =
  check_room "hello" buf 0 7;
  let shard = Bytes.get_uint16_le buf 0 in
  let shards = Bytes.get_uint16_le buf 2 in
  let packet_size = Bytes.get_uint16_le buf 4 in
  let flags = Bytes.get_uint8 buf 6 in
  let pos = ref 7 in
  let task = get_str "hello" buf pos in
  check_end "hello" buf !pos;
  if shard >= shards then
    raise (Corrupt (Printf.sprintf "hello: shard %d of %d" shard shards));
  {
    task;
    shard;
    shards;
    packet_size;
    repartition = flags land flag_repartition <> 0;
  }

let err ~site ~message =
  let b = Buffer.create (4 + String.length site + String.length message) in
  add_str b site;
  (* Rendered messages can exceed a u16; truncate rather than refuse to
     report the failure at all. *)
  add_str b
    (if String.length message > 0xffff then String.sub message 0 0xffff
     else message);
  Buffer.to_bytes b

let parse_err buf =
  let pos = ref 0 in
  let site = get_str "err" buf pos in
  let message = get_str "err" buf pos in
  (site, message)

(* The partition function a repartitioning edge ships to its workers:
   destination count plus the catalog's wire-safe spec (columns, or a
   column with Serial-encoded bounds).  Custom partition closures cannot
   cross the process boundary — planlint VL704 rejects them before a
   launcher would ever be asked to encode one. *)
type repartition = { dests : int; spec : Volcano_storage.Shard.spec }

let repartition { dests; spec } =
  let b = Buffer.create 16 in
  Buffer.add_uint16_le b dests;
  (match spec with
  | Volcano_storage.Shard.Hash cols ->
      Buffer.add_uint8 b 1;
      Buffer.add_uint16_le b (List.length cols);
      List.iter (Buffer.add_uint16_le b) cols
  | Volcano_storage.Shard.Range (col, bounds) ->
      Buffer.add_uint8 b 2;
      Buffer.add_uint16_le b col;
      Buffer.add_uint16_le b (Array.length bounds);
      Array.iter (fun bound -> add_str b bound) bounds);
  Buffer.to_bytes b

(* What a worker needs to build its router is checked here, so an
   accepted spec routes every record wide enough for its columns: a hash
   on at least one column, and a range with one bound between each pair
   of destinations, each bound exactly one Serial-encoded value.  The
   record width is the site's to know; a column past it fails the first
   route, as an [Err] frame. *)
let parse_repartition buf =
  check_room "repartition" buf 0 3;
  let dests = Bytes.get_uint16_le buf 0 in
  if dests < 1 then raise (Corrupt "repartition: no destinations");
  let pos = ref 3 in
  let u16 () =
    check_room "repartition" buf !pos 2;
    let v = Bytes.get_uint16_le buf !pos in
    pos := !pos + 2;
    v
  in
  let bound () =
    let b = get_str "repartition" buf pos in
    match
      Volcano_tuple.Serial.decode_slice (Bytes.unsafe_of_string b) ~off:0
        ~len:(String.length b)
    with
    | [| _ |] -> b
    | _ -> raise (Corrupt "repartition: a bound is not one value")
    | exception Invalid_argument _ ->
        raise (Corrupt "repartition: a bound does not decode")
  in
  let spec =
    match Bytes.get_uint8 buf 2 with
    | 1 ->
        let n = u16 () in
        if n < 1 then raise (Corrupt "repartition: hash on no columns");
        Volcano_storage.Shard.Hash (List.init n (fun _ -> u16 ()))
    | 2 ->
        let col = u16 () in
        let n = u16 () in
        if n <> dests - 1 then
          raise
            (Corrupt
               (Printf.sprintf "repartition: %d range bounds for %d destinations"
                  n dests));
        Volcano_storage.Shard.Range (col, Array.init n (fun _ -> bound ()))
    | tag -> raise (Corrupt (Printf.sprintf "repartition: unknown spec %d" tag))
  in
  check_end "repartition" buf !pos;
  { dests; spec }

(* The read set a remote edge ships: [u8 tag | ...], tag 0 alone for
   every column, tag 1 followed by [u16 count | count x u16 column].  A
   zero-column list is legal — a consumer that counts rows reads no
   column — so "every column" needs its own tag. *)
let narrow cols =
  match cols with
  | None -> Bytes.make 1 '\000'
  | Some cols ->
      let n = List.length cols in
      if n > 0xffff then invalid_arg "Wire.narrow: too many columns";
      let b = Bytes.create (3 + (2 * n)) in
      Bytes.set_uint8 b 0 1;
      Bytes.set_uint16_le b 1 n;
      List.iteri
        (fun i c ->
          if c < 0 || c > 0xffff then invalid_arg "Wire.narrow: bad column";
          Bytes.set_uint16_le b (3 + (2 * i)) c)
        cols;
      b

let parse_narrow buf =
  check_room "narrow" buf 0 1;
  let exact need =
    if Bytes.length buf <> need then
      raise (Corrupt "narrow: trailing bytes")
  in
  match Bytes.get_uint8 buf 0 with
  | 0 ->
      exact 1;
      None
  | 1 ->
      check_room "narrow" buf 1 2;
      let n = Bytes.get_uint16_le buf 1 in
      check_room "narrow" buf 3 (2 * n);
      exact (3 + (2 * n));
      Some (List.init n (fun i -> Bytes.get_uint16_le buf (3 + (2 * i))))
  | tag -> raise (Corrupt (Printf.sprintf "narrow: unknown tag %d" tag))
