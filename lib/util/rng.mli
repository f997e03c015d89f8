(** Deterministic pseudo-random number generation (splitmix64).

    All workload generation in the repository is seeded so that experiments
    and property tests are reproducible.  Each domain can [split] its own
    stream so that parallel runs stay deterministic. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val split : t -> t
(** [split t] derives an independent stream, advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val permutation : t -> int -> int array
(** [permutation t n] is a random permutation of [0 .. n-1], by an
    in-place Fisher-Yates shuffle. *)
