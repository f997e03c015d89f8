(** The buffer manager.

    Pages are {e fixed} (pinned) in the pool and later {e unfixed}; each
    fixed frame is owned by the fixing code until it unfixes or hands the
    frame on — the paper's record-ownership protocol (section 3).

    Concurrency follows section 4.5's two-level scheme: one {e pool} lock
    protects the hash table and the LRU chain and "is never held while doing
    I/O"; each descriptor has its own lock, taken with an atomic
    test-and-lock.  If the test fails the whole operation — including the
    hash-table lookup — is released, delayed, and restarted, because the
    lock holder may be reading or replacing the very cluster requested.
    This restart scheme has no hold-and-wait and therefore cannot deadlock.

    For the locking ablation (DESIGN.md A4) a [`Single_global] mode
    serializes every fix and unfix, I/O included, under one lock around
    the same path — the alternative the paper rejected for "decreased
    concurrency". *)

type t
type frame

type mode = Two_level | Single_global

exception Buffer_exhausted
(** Raised when every frame is fixed and a new page is requested. *)

val create : ?mode:mode -> frames:int -> page_size:int -> unit -> t

val fix : t -> Device.t -> int -> frame
(** Pin a page, loading it on a miss: a virtual page's frame maps the
    device's own block ({!Device.map}), a real page is read into the
    frame's private block.  A clean victim is remapped in the same
    pool-lock section that claimed it. *)

val fix_new : t -> Device.t -> int -> frame
(** Pin a freshly-allocated page without reading; the frame arrives dirty,
    and zeroed on a miss.  On a hit (a page number freed and allocated
    again while still resident) it keeps the resident bytes: a caller
    formats or overwrites the page ({!Page.init}, a B-tree node). *)

val unfix : t -> frame -> unit
(** Release one pin.  @raise Invalid_argument if the frame is not fixed. *)

(** {2 Page runs}

    A sequential reader fixes a run of pages with one pool-lock section
    and unfixes it with one; {!fix} is the run of one page.  A run is at
    most {!run_length} pages, so a reader holds at most 1/32 of the
    pool. *)

val run_length_for : frames:int -> int
(** The run length of a pool of [frames] frames: [max 1 (min 8 (frames /
    32))].  planlint's buffer estimate counts a heap scan at this many
    fixed pages. *)

val run_length : t -> int
(** [run_length_for] of the pool's frame count. *)

val run_buffer : t -> frame array
(** An array of {!run_length} slots for {!fix_run} to fill. *)

val fix_run : t -> Device.t -> int array -> pos:int -> len:int -> frame array -> unit
(** [fix_run t dev pages ~pos ~len run] pins [pages.(pos .. pos + len - 1)]
    into [run.(0 .. len - 1)].  Each page is fixed as {!fix} fixes it, and
    the [Bufpool_fix] and [Device_read] fault sites fire per page; a page
    the first section cannot finish (a busy descriptor, a dirty victim)
    goes the general way and the next section starts after it.  If any
    page fails, the pages before it are unpinned and the failure is
    raised once.
    @raise Invalid_argument unless [0 <= len <= run_length t] and the
    ranges lie inside the arrays *)

val unfix_run : t -> frame array -> len:int -> unit
(** Release one pin on each of [run.(0 .. len - 1)], in one pool-lock
    section.  @raise Invalid_argument, unpinning nothing, if one is not
    fixed. *)

val mark_dirty : frame -> unit

val bytes : frame -> bytes
(** The page contents, writable (call {!mark_dirty}).  Valid only while
    the frame is fixed.  For a virtual page these are the device's own
    block, mapped (DESIGN.md "Frame ownership"). *)

val frame_device : frame -> Device.t
val frame_page : frame -> int
val fix_count : frame -> int

val contains : t -> Device.t -> int -> bool
(** Whether the page is currently resident (instrumentation). *)

val flush_page : t -> Device.t -> int -> bool
(** Write the page back if resident and dirty; returns whether a write
    happened. *)

val flush_all : t -> unit
(** Write back every dirty frame. *)

val purge_device : t -> Device.t -> unit
(** Drop all resident pages of a device without write-back (used when
    dropping virtual devices).  Pages must be unfixed.  A virtual page's
    frame lets go of the device's block, which already holds every change
    made through it. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  restarts : int;  (** descriptor-lock restarts (contention metric) *)
}

val stats : t -> stats
val frames_total : t -> int
val mode : t -> mode

val set_faults : t -> Volcano_fault.Injector.t -> unit
(** Install a fault injector consulted at the [Bufpool_fix] site, before
    any pool state changes — an injected failure is a clean fix denial.
    Pass {!Volcano_fault.Injector.none} to clear. *)

(** {2 Leak detection} *)

val leaked_fixes : t -> int
(** Total outstanding fix counts across all frames.  Zero whenever no
    query is running: every operator must balance its fixes even when it
    fails or is cancelled. *)

val leak_report : t -> string
(** Human-readable listing of still-fixed frames (empty when quiescent). *)

val assert_quiescent : ?what:string -> t -> unit
(** @raise Failure with {!leak_report} if any frame is still fixed.
    Called from test teardowns: a failed or cancelled query must leave
    the pool quiescent. *)
