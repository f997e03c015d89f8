(** Binary serialization of tuples for storage in slotted pages.

    Layout: a 2-byte field count, then per field a 1-byte tag followed by the
    payload (ints and floats as 8 bytes little-endian, strings as a 2-byte
    length plus bytes, nulls as the tag alone).

    Every decoder below is one field walker.  It bounds-checks the
    record's range once, then validates each stored field in order — it
    must start inside the range, carry a known tag and end inside the
    range — whether the field is kept or dropped.  Cost model: a dropped
    field costs one tag dispatch, plus its 2-byte length for a string;
    it is never materialized.  A kept field costs its tag dispatch plus
    its value (an [Int] or [Float] box, or a string copy), and the
    output tuple is the only other allocation.

    The encoder is one pass too.  {!encode_into} writes each field as it
    checks it against the end of the buffer — the record is never sized
    first — and neither it nor {!encoded_size} makes a call per field:
    each is one loop with one match per field.  Into a preallocated
    buffer, encoding allocates nothing.  {!encode} and {!encode_string}
    size the record (a walk of its fields, not of its bytes) to make
    their one exact allocation. *)

val encoded_size : Tuple.t -> int
(** @raise Invalid_argument on a string longer than 65535 bytes. *)

val encode : Tuple.t -> bytes

val encode_string : Tuple.t -> string
(** The stored form of a record — a heap-file record, an index key, a
    range bound — in one allocation: {!encode}'s buffer, never copied. *)

val encode_into : Tuple.t -> bytes -> pos:int -> int
(** [encode_into t buf ~pos] writes at [pos] and returns the bytes
    written.  The bytes of a record that did not fit may be partly
    written.
    @raise Invalid_argument if the buffer is too small, or on a string
    longer than 65535 bytes. *)

val decode : bytes -> pos:int ref -> limit:int -> Tuple.t
(** The advancing decoder: decode the record at [!pos], reading nothing
    at or past [limit], and leave [pos] where the record ends — the
    start of the next record of a packed run — so a caller never sizes
    a decoded record to step over it.  Bytes past the record up to
    [limit] are not looked at.
    @raise Invalid_argument on malformed or truncated input, or a
    [limit] past the end of the buffer ([pos] is then unchanged). *)

val decode_bytes : bytes -> Tuple.t
(** Decode a buffer produced by {!encode}. *)

val decode_slice : bytes -> off:int -> len:int -> Tuple.t
(** Decode the one record stored in [\[off, off + len)] of a larger
    buffer — a slot of a pinned page frame — without copying it out
    first.  Nothing outside the range is read, and the record must fill
    the range exactly.
    @raise Invalid_argument on a range outside the buffer or a
    malformed, truncated or over-long record. *)

type projection
(** A column list compiled for {!decode_projected}. *)

val projection : int list -> projection
(** Output field [k] is stored field [List.nth cols k].
    @raise Invalid_argument on a negative or duplicated column. *)

val decode_projected : projection -> bytes -> off:int -> len:int -> Tuple.t
(** [decode_slice] followed by {!Tuple.project}, without allocating the
    fields the projection drops: they are stepped over, but still
    validated, so exactly the records {!decode_slice} rejects are
    rejected here, plus those too narrow for the projection.
    @raise Invalid_argument as {!decode_slice}. *)
