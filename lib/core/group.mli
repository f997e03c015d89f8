(** Process groups.

    "If an operator or an operator subtree is executed in parallel by a
    group of processes, one of them is designated the master" (paper,
    section 4.2).  A [Group.t] is one process's view of its group: its rank,
    the group size, and shared state through which the group master
    publishes ports for the other members — the paper's "address known only
    to the BC processes" with its double synchronization around port
    creation.  Each port key is one write-once cell ({!Volcano_sched.Sched.Ivar}):
    the master's publish fills it, and a member's lookup reads it, so a
    publish wakes only the lookups for its own key. *)

type t

exception Cancelled
(** Raised by {!lookup_port} when the group was cancelled before the
    awaited port was published. *)

val solo : unit -> t
(** The size-1 group of the query root process. *)

type shared

val make_shared : size:int -> shared
(** Shared state for a new producer group of [size] processes. *)

val attach : shared -> rank:int -> t
(** The view of member [rank] (0 is the master). *)

val rank : t -> int
val size : t -> int
val is_master : t -> bool

val publish_port : t -> key:int -> Port.t -> unit
(** Master only: make a port visible to the whole group under an exchange
    instance key.  Publishing a key again (an exchange re-opened under a
    rescanning parent) replaces its port for later lookups. *)

val lookup_port : t -> key:int -> Port.t
(** Block until the master has published the port for [key].  Raises
    {!Cancelled} if the group is cancelled while waiting — a member that
    dies may never publish, so waiting on would deadlock the joiner. *)

val cancel : t -> unit
(** Mark the group dead: a {!lookup_port} of a key not yet published,
    blocked or later, raises {!Cancelled}.  Called by the
    failure path when a member dies: a sibling waiting for a port the dead
    member would have published must not wait forever. *)
