(** Devices.

    A {e real} device is a file of fixed-size pages accessed with seek/read/
    write under the paper's two exclusive locks: the {e device busy} lock
    around the seek-and-transfer pair (two processes must not race between
    seek and transfer) and the {e map busy} lock around the free-space
    bitmap (section 4.5).

    A {e virtual} device has no backing store.  In the paper its pages
    "exist only in the buffer, and are discarded when unfixed" (section 3)
    and hold intermediate results only.  Ours holds every page in memory,
    one block per page in an array indexed by page number, and holds base
    tables too: the buffer pool's frames {e map} these blocks instead of
    copying them (see DESIGN.md "Frame ownership"), so a virtual read
    takes no lock and copies nothing. *)

type t

val create_real : path:string -> page_size:int -> capacity:int -> t
(** Create (truncating) a file-backed device of [capacity] pages.  Page 0 is
    reserved for the superblock. *)

val open_real : path:string -> t
(** Open an existing real device, restoring its bitmap and VTOC from the
    superblock written by {!close}. *)

val create_virtual : ?name:string -> page_size:int -> capacity:int -> unit -> t

val id : t -> int
(** Process-unique device number (the RID device component). *)

val name : t -> string
val page_size : t -> int
val capacity : t -> int
val is_virtual : t -> bool
val vtoc : t -> Vtoc.t

val read : t -> page:int -> bytes -> unit
(** Copy a page into a buffer.  Unwritten real pages read as zeros; reading
    a virtual page that was never written raises [Invalid_argument]. *)

val map : t -> page:int -> bytes
(** A virtual page's own block, for a frame to map instead of a copy.  It
    is a read: the [Device_read] fault site fires and {!reads} counts it.
    Whoever holds the block writes the page through it.
    @raise Invalid_argument on a real device, or for a virtual page that
    was never written *)

val map_new : t -> page:int -> bytes
(** A freshly allocated virtual page's block, zeroed.  The device owns it
    from now on, so a later {!write} of it copies nothing.  Not a read: no
    fault site fires and no counter moves.
    @raise Invalid_argument on a real device *)

val write : t -> page:int -> bytes -> unit
(** Write a page.  On a virtual device, writing the page's own block (a
    frame that maps it) copies and allocates nothing; any other buffer is
    copied into the page's block, or into a fresh one if the page has
    none. *)

val allocate : t -> int
(** Allocate a free page.  @raise Failure when the device is full. *)

val free : t -> int -> unit
(** Return a page to the free map.  On a virtual device the page's block
    is dropped: a frame that still maps it keeps the bytes, which are
    then no longer the device's (a later write-back copies them). *)

val allocated_pages : t -> int

val reads : t -> int
val writes : t -> int
(** I/O counters (tests and benchmarks). *)

val set_faults : t -> Volcano_fault.Injector.t -> unit
(** Install a fault injector consulted at the [Device_read] and
    [Device_write] sites (before each transfer).  Injected failures model
    media errors; injected delays model slow I/O.  Pass
    {!Volcano_fault.Injector.none} to clear. *)

val sync : t -> unit
(** Persist superblock (bitmap + VTOC) of a real device; no-op on virtual. *)

val close : t -> unit
(** Sync and release the backing file descriptor. *)
