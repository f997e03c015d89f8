(** Slotted pages.

    Layout of a page of [size] bytes:

    {v
    0..1    number of slots (including dead slots)
    2..3    free-space offset (records grow upward from byte 16)
    4..7    next-page link (-1 if none)
    8..11   auxiliary link (module-specific)
    12..13  page kind / flags (module-specific)
    14..15  dead slots + 1 (0 on a page formatted before the count
            was kept: see {!dead_slots})
    16..    record area, growing up
    ...     slot directory, growing down from the end;
            slot i occupies the 4 bytes at size - 4*(i+1):
            record offset (2 bytes) and length (2 bytes);
            length 0 marks a dead slot
    v}

    All functions operate on a caller-supplied [Bytes.t] (a buffer-pool
    frame); the module holds no state. *)

val header_size : int
val slot_size : int

val init : bytes -> kind:int -> unit
(** Format a fresh page in place.  Writes the header only: an empty page
    reads nothing past it, so the rest need not be zeroed.
    @raise Invalid_argument if [kind] is outside [\[0, 0xffff\]]. *)

val n_slots : bytes -> int
val kind : bytes -> int
val set_kind : bytes -> int -> unit
(** Kinds are 16 bits (bytes 12..13).
    @raise Invalid_argument if the kind is outside [\[0, 0xffff\]]. *)

val dead_slots : bytes -> int
(** The number of dead slots, as the header keeps it.  A page formatted
    before the header kept it has 0 in bytes 14..15: its count is taken
    from the slot directory, and its next insert or delete records it. *)

val next_page : bytes -> int
val set_next_page : bytes -> int -> unit
val aux : bytes -> int
val set_aux : bytes -> int -> unit

val free_space : bytes -> int
(** Contiguous free bytes available for one more record plus its slot. *)

val total_free_space : bytes -> int
(** Every byte {!compact} would free: the record area up to the slot
    directory, less the live records — the contiguous free bytes plus
    every dead record and every gap a reused slot left. *)

val insert : bytes -> string -> int
(** [insert page record] places [record] and returns its slot, compacting
    the page first if fragmentation demands it; [-1] if it cannot fit.
    Allocates nothing. *)

val insert_sub : bytes -> bytes -> off:int -> len:int -> int
(** [insert_sub page src ~off ~len] is {!insert} of the record in
    [\[off, off + len)] of [src] — a scratch buffer, or another page's
    frame — copied straight into the page. *)

val slot_off : bytes -> int -> int
val slot_len : bytes -> int -> int
(** The record range of slot [i < n_slots]: the record occupies
    [\[slot_off, slot_off + slot_len)] of the page; length 0 marks a dead
    slot.  Lets a reader decode in place instead of copying with
    {!read}. *)

val read : bytes -> int -> string option
(** [read page slot] is the record at [slot], or [None] if the slot is dead
    or out of range. *)

val delete : bytes -> int -> bool
(** Mark a slot dead.  Returns [false] if it was already dead or invalid. *)

val replace : bytes -> int -> string -> bool
(** [replace page slot record] swaps the record stored at a live slot,
    keeping the slot number (and therefore the RID) stable; compacts if
    needed.  Returns [false] — leaving the original intact — when the slot
    is dead or the new record cannot fit. *)

val live_records : bytes -> (int * string) list
(** All live [(slot, record)] pairs in slot order. *)

val compact : bytes -> unit
(** Squeeze out dead-record space.  Slot numbers are preserved. *)
