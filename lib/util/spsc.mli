(** Bounded single-producer/single-consumer ring buffer.

    The fast path is mutex-free: one atomic load and one atomic store
    per operation, plus a plain array access.  Exactly one domain may
    push and exactly one domain may pop; the two may differ and may run
    concurrently.  Blocking, parking, and shutdown wakeups are the
    caller's concern ({!Volcano.Port} parks a blocked side through
    [Sched.suspend]) — the ring itself only offers non-blocking transfer.

    Capacity is enforced exactly as given (Port folds flow-control slack
    into it); only the backing array is rounded up to a power of two so
    indexing is a mask. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [dummy] fills empty slots so popped elements are not retained by the
    ring (GC hygiene).  @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
(** The logical bound, as passed to {!create}. *)

val length : 'a t -> int
(** Current occupancy.  Exact from the owning side; a sampler on a third
    domain sees a possibly-stale but well-formed value in
    [0, capacity]. *)

val is_empty : 'a t -> bool

val try_push : 'a t -> 'a -> bool
(** Producer only.  [false] when the ring holds [capacity] elements. *)

val try_pop : 'a t -> 'a option
(** Consumer only.  [None] when the ring is empty. *)
