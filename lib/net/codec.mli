(** Packet ↔ frame-payload codec.

    One tuple encoding for the whole system: {!Volcano_tuple.Serial}, the
    storage layer's format.  A [Data] payload is a 2-byte little-endian
    record count followed by the serialized tuples; a row-list payload
    (serve responses) is the same with a 4-byte count.

    Each record costs one pass over its bytes both ways: it is encoded
    straight into the connection's output frame ({!send}), and decoded by
    the advancing {!Volcano_tuple.Serial.decode}, which reports where the
    record ended.  Decoders take the payload's length explicitly
    ([?len], default the whole buffer), because a connection's input
    buffer is reused: its payload is valid until the next
    {!Wire.read}, and the bytes past [len] are stale. *)

val send : Wire.conn -> ?dest:int -> Volcano.Packet.t -> unit
(** Encode a packet's records into [conn]'s output frame and send it: a
    [Data] frame, or with [dest] a routed [Repartition] frame
    ([u16 dest | packet bytes]).  The end-of-stream tag does not cross
    the wire: it is its own frame kind. *)

val send_rows : Wire.conn -> Volcano_tuple.Tuple.t list -> unit
(** Encode a row list into [conn]'s output frame and send it as
    [Resp_ok]. *)

val encode : ?off:int -> Volcano.Packet.t -> bytes
(** {!send}'s payload in a buffer of its own, starting at byte [off]
    (default 0); the bytes before it are left for a header, such as a
    routed frame's destination. *)

val decode_into : ?off:int -> ?len:int -> bytes -> Volcano.Packet.t -> unit
(** Decode the [Data] payload in bytes [\[0, len)] whose packet starts at
    byte [off] (default 0) into an empty packet shell (from the port
    lane's recycling pool).
    @raise Wire.Corrupt on truncated input, a bad tag, trailing bytes, or
    a count exceeding the shell's capacity
    @raise Invalid_argument on a [len] outside the buffer *)

val encode_rows : Volcano_tuple.Tuple.t list -> bytes
(** {!send_rows}'s payload in a buffer of its own. *)

val decode_rows : ?len:int -> bytes -> Volcano_tuple.Tuple.t list
(** Decode the row-list payload in bytes [\[0, len)].
    @raise Wire.Corrupt as {!decode_into} *)
