(** Packet ↔ frame-payload codec.

    One tuple encoding for the whole system: {!Volcano_tuple.Serial}, the
    storage layer's format.  A [Data] payload is a 2-byte little-endian
    record count followed by the serialized tuples; a row-list payload
    (serve responses) is the same with a 4-byte count. *)

val encode : ?off:int -> Volcano.Packet.t -> bytes
(** Serialize a packet's records (the end-of-stream tag does not cross
    the wire: it is its own frame kind).  The payload starts at byte
    [off] (default 0); the bytes before it are left for the caller's
    header, such as a routed frame's destination. *)

val decode_into : ?off:int -> bytes -> Volcano.Packet.t -> unit
(** Decode a [Data] payload that starts at byte [off] (default 0) into
    an empty packet shell (from the port lane's recycling pool).
    @raise Wire.Corrupt on truncated input, a bad tag, trailing bytes, or
    a count exceeding the shell's capacity. *)

val encode_rows : Volcano_tuple.Tuple.t list -> bytes
val decode_rows : bytes -> Volcano_tuple.Tuple.t list
