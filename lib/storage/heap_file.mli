(** Heap files: unordered record files stored as a chain of slotted pages on
    a device, reached through the buffer pool.  Every record has a RID;
    scans return records in page order.  Files on virtual devices hold
    intermediate results (sort runs, hash partitions) and behave exactly
    like disk files, as the paper requires (section 3). *)

type t

val create : buffer:Bufpool.t -> device:Device.t -> name:string -> t
(** Create an empty file and register it in the device's VTOC.
    @raise Invalid_argument if the name is taken. *)

val open_existing : buffer:Bufpool.t -> device:Device.t -> name:string -> t
(** @raise Not_found if no such file. *)

val name : t -> string
val device : t -> Device.t

val insert : t -> string -> Rid.t
(** Append a record, allocating pages as needed: the one-record case of
    an {!appender}, which fixes the last page and lets it go again. *)

(** {2 Bulk append}

    The one append path.  An appender keeps the file's last page fixed
    across records, so a run of appends fixes each page once, and copies
    each record straight into the page from the caller's bytes — a
    reused scratch buffer an encoder wrote, or a record in another
    file's pinned frame.  The file's lock is held for each append, never
    between two. *)

type appender

val appender : t -> appender
(** An append stream onto the end of the file.  It holds a fixed page
    until {!close_appender}. *)

val append : appender -> bytes -> off:int -> len:int -> unit
(** Append the record in [\[off, off + len)] of the buffer, adding a page
    when the last one is full.
    @raise Invalid_argument on an empty record, a range outside the
    buffer, or a record larger than a page holds *)

val close_appender : appender -> unit
(** Let the fixed page go.  Safe to call twice; a closed appender may
    append again (it fixes the last page anew). *)

val get : t -> Rid.t -> string option
(** Fetch by RID ([None] if deleted or never existed). *)

val delete : t -> Rid.t -> bool

val update : t -> Rid.t -> string -> bool
(** Replace the record in place, keeping its RID.  Returns [false] — with
    the original record untouched — if the RID is dead or the new record
    does not fit in the page (callers then delete + reinsert). *)

val page_chain : t -> int list
(** The file's pages in scan order (used by read-ahead), read from the
    in-memory page directory: no page is fixed. *)

val record_count : t -> int
val page_count : t -> int

type cursor
(** A cursor walks a range of the file's page directory, snapshotted when
    it opens: pages appended later are not visited. *)

val scan : t -> cursor
(** Every page. *)

val slice : t -> rank:int -> ranks:int -> cursor
(** The pages rank [rank] of [ranks] owns: directory entries
    [\[rank·P/ranks, (rank+1)·P/ranks)] of the file's [P] pages.  The
    [ranks] slices of one file are disjoint and together cover it.
    @raise Invalid_argument unless [0 <= rank < ranks]. *)

val next : cursor -> (Rid.t * string) option
(** Records in page order, copied out of the page; [None] at the end. *)

(** {2 Stepping in the frame}

    The cursor's one in-frame step.  [advance] moves to the next live
    record, fixing the next run of pages ({!Bufpool.fix_run}, up to
    {!Bufpool.run_length} contiguous directory entries in one pool-lock
    section) when the current run is spent, and
    leaves the record where it lies: it is the range
    [\[off c, off c + len c)] of [data c], the bytes of the still-pinned
    frame.  Nothing is copied and nothing is allocated per record.  The
    range is valid until the cursor moves again — by [advance], {!next},
    {!next_in_frame} or {!close_cursor} — because the bytes belong to the
    buffer pool once the cursor moves: a reader decodes the record, or
    copies it, before the next step, and keeps nothing that aliases
    [data c]. *)

val advance : cursor -> bool
(** Step to the next live record; [false] at the end of the cursor's
    pages, with no page left pinned.  If fixing a run fails, the
    failure is raised once and the cursor holds no page. *)

val data : cursor -> bytes
(** The pinned frame's bytes; [Bytes.empty] when no page is pinned. *)

val off : cursor -> int
(** The current record's offset in {!data}. *)

val len : cursor -> int
(** The current record's length. *)

val next_in_frame :
  cursor -> (bytes -> off:int -> len:int -> 'a) -> 'a option
(** [advance], then the record handed to [decode] as
    [data c ~off:(off c) ~len:(len c)]; [None] at the end.  For the
    record-at-a-time paths; [decode] must not keep the bytes. *)

val close_cursor : cursor -> unit
(** Release the cursor's pinned run, if any.  Safe to call twice. *)

val iter : t -> (Rid.t -> string -> unit) -> unit

val drop : t -> unit
(** Free every page of the file and remove its VTOC entry.  Resident pages
    are purged from the pool without write-back on virtual devices. *)

val sync_vtoc : t -> unit
(** Push the in-memory file header (page chain, counts) into the VTOC. *)
