(** The key hash shared by the hash aggregate and the hash match.

    Both tables are private to one build and never expose hash order
    (output follows first-seen key order), so any hash will do as long as
    equal keys agree on it.  Ints — the overwhelmingly common key — get a
    one-multiply mix instead of [Value.hash]'s byte-serial FNV, which
    costs more than the rest of a probe put together.  Equality is
    [Value.equal]'s, with a direct compare for two ints. *)

val int_mix : int -> int
(** The hash of one [Value.Int x] slot; non-negative. *)

val slot_hash : Volcano_tuple.Value.t -> int
(** The hash of one slot: [int_mix] for an [Int], [Value.hash] else. *)

val slot_equal : Volcano_tuple.Value.t -> Volcano_tuple.Value.t -> bool
(** [Value.equal], with a direct compare for two ints. *)

val key_hash : Volcano_tuple.Value.t array -> int
(** Combines the slot hashes of a key, [17 * 31 + ...] like [Tuple.hash]. *)

val key_matches : Volcano_tuple.Value.t array -> Volcano_tuple.Value.t array -> bool
(** [key_matches stored probe]: slot-wise equality over [probe]'s
    length. *)

val cols_hash : int array -> Volcano_tuple.Tuple.t -> int
(** [cols_hash cols t = key_hash (Tuple.project t cols)] without building
    the key: a probe reads its key columns in place. *)
