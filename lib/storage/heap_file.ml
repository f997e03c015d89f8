type t = {
  name : string;
  device : Device.t;
  buffer : Bufpool.t;
  lock : Mutex.t; (* serializes structural changes (append, delete) *)
  mutable first_page : int;
  mutable last_page : int;
  mutable pages : int;
  mutable records : int;
  mutable directory : int array;
      (* the page directory: entries [\[0, pages)] are the file's pages
         in chain order.  Append-only — a full array is replaced by a
         larger copy, never rewritten — so a cursor that snapshots
         (directory, pages) under [lock] reads its prefix without
         further locking. *)
  single : appender;
      (* [insert]'s appender, used only under [lock], which keeps no page
         fixed between calls *)
}

(* An append stream: the file's last page, fixed once and kept fixed
   across appends until the page fills or the stream closes. *)
and appender = {
  file : t;
  mutable page : int;  (* the fixed page's number; -1 with none fixed *)
  mutable tail : Bufpool.frame option;
      (* the fixed page's frame while [page <> -1]; afterwards the last
         one held, kept so that fixing a resident page again reuses this
         block instead of allocating another *)
}

let page_kind_heap = 1

let create ~buffer ~device ~name =
  let entry =
    { Vtoc.name; first_page = -1; last_page = -1; pages = 0; records = 0 }
  in
  Vtoc.add (Device.vtoc device) entry;
  let rec t =
    {
      name;
      device;
      buffer;
      lock = Mutex.create ();
      first_page = -1;
      last_page = -1;
      pages = 0;
      records = 0;
      directory = [||];
      single = { file = t; page = -1; tail = None };
    }
  in
  t

(* Rebuild the directory once, from the on-disk chain. *)
let chain_directory buffer device first_page =
  let rec walk page acc =
    if page = -1 then Array.of_list (List.rev acc)
    else begin
      let frame = Bufpool.fix buffer device page in
      let next = Page.next_page (Bufpool.bytes frame) in
      Bufpool.unfix buffer frame;
      walk next (page :: acc)
    end
  in
  walk first_page []

let open_existing ~buffer ~device ~name =
  match Vtoc.find (Device.vtoc device) name with
  | None -> raise Not_found
  | Some e ->
      let directory = chain_directory buffer device e.first_page in
      let rec t =
        {
          name;
          device;
          buffer;
          lock = Mutex.create ();
          first_page = e.first_page;
          last_page = e.last_page;
          pages = Array.length directory;
          records = e.records;
          directory;
          single = { file = t; page = -1; tail = None };
        }
      in
      t

let name t = t.name
let device t = t.device
let record_count t = t.records
let page_count t = t.pages

let sync_vtoc t =
  match Vtoc.find (Device.vtoc t.device) t.name with
  | None -> ()
  | Some e ->
      e.first_page <- t.first_page;
      e.last_page <- t.last_page;
      e.pages <- t.pages;
      e.records <- t.records

(* Add a page after the tail [prev] — the frame the appender holds fixed
   ([None] on an empty file) — linking it through that frame. *)
let add_page t prev =
  let page_no = Device.allocate t.device in
  let frame =
    try Bufpool.fix_new t.buffer t.device page_no
    with exn ->
      Device.free t.device page_no;
      raise exn
  in
  (* The frame arrives dirty; [init] writes the header, which is all an
     empty page reads. *)
  Page.init (Bufpool.bytes frame) ~kind:page_kind_heap;
  (match prev with
  | Some prev ->
      Page.set_next_page (Bufpool.bytes prev) page_no;
      Bufpool.mark_dirty prev
  | None -> t.first_page <- page_no);
  t.last_page <- page_no;
  if t.pages = Array.length t.directory then begin
    let grown = Array.make (max 8 (2 * t.pages)) (-1) in
    Array.blit t.directory 0 grown 0 t.pages;
    t.directory <- grown
  end;
  t.directory.(t.pages) <- page_no;
  t.pages <- t.pages + 1;
  (page_no, frame)

(* The one append path.  [append_locked a src ~off ~len] copies the
   record in [\[off, off + len)] of [src] onto the file's last page,
   which [a] fixes once and keeps fixed, or onto a new page when it does
   not fit; it returns the slot, and [a.page] is the record's page.
   Caller holds [lock], for one record: nothing else may change the page
   under the copy.  A tail another appender moved past is let go first,
   and a new page is linked through the tail [a] holds.  Nothing
   allocates per record but a page change. *)
let release a =
  match a.tail with
  | Some frame when a.page <> -1 ->
      a.page <- -1;
      Bufpool.unfix a.file.buffer frame
  | _ -> ()

let hold a ~page frame =
  (match a.tail with
  | Some held when held == frame -> ()
  | _ -> a.tail <- Some frame);
  a.page <- page

let place t frame src ~off ~len =
  let slot = Page.insert_sub (Bufpool.bytes frame) src ~off ~len in
  if slot >= 0 then begin
    Bufpool.mark_dirty frame;
    t.records <- t.records + 1
  end;
  slot

let append_locked a src ~off ~len =
  let t = a.file in
  if a.page <> t.last_page then begin
    release a;
    if t.last_page <> -1 then
      hold a ~page:t.last_page (Bufpool.fix t.buffer t.device t.last_page)
  end;
  let slot =
    match a.tail with
    | Some frame when a.page <> -1 -> place t frame src ~off ~len
    | _ -> -1
  in
  if slot >= 0 then slot
  else begin
    (* [a] holds the tail fixed whenever the file has one *)
    let page, frame = add_page t (if a.page <> -1 then a.tail else None) in
    release a;
    hold a ~page frame;
    let slot = place t frame src ~off ~len in
    if slot < 0 then
      invalid_arg
        (Printf.sprintf "Heap_file: record of %d bytes exceeds page capacity"
           len);
    slot
  end

let appender t = { file = t; page = -1; tail = None }

let append a src ~off ~len =
  if len <= 0 then invalid_arg "Heap_file.append: empty record";
  if off < 0 || off > Bytes.length src - len then
    invalid_arg "Heap_file.append: range outside the buffer";
  let t = a.file in
  Mutex.lock t.lock;
  match append_locked a src ~off ~len with
  | _ -> Mutex.unlock t.lock
  | exception exn ->
      Mutex.unlock t.lock;
      raise exn

let close_appender a =
  Mutex.lock a.file.lock;
  release a;
  Mutex.unlock a.file.lock

(* One record through [single], which lets its page go before the lock
   does: onto a resident last page nothing allocates but the RID. *)
let insert t record =
  let len = String.length record in
  if len = 0 then invalid_arg "Heap_file.insert: empty record";
  let a = t.single in
  Mutex.lock t.lock;
  match append_locked a (Bytes.unsafe_of_string record) ~off:0 ~len with
  | slot ->
      let rid = Rid.make ~device:(Device.id t.device) ~page:a.page ~slot in
      release a;
      Mutex.unlock t.lock;
      rid
  | exception exn ->
      release a;
      Mutex.unlock t.lock;
      raise exn

let get t rid =
  if rid.Rid.device <> Device.id t.device then None
  else begin
    let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
    let result = Page.read (Bufpool.bytes frame) rid.Rid.slot in
    Bufpool.unfix t.buffer frame;
    result
  end

let delete t rid =
  if rid.Rid.device <> Device.id t.device then false
  else begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
        let deleted = Page.delete (Bufpool.bytes frame) rid.Rid.slot in
        if deleted then begin
          Bufpool.mark_dirty frame;
          t.records <- t.records - 1
        end;
        Bufpool.unfix t.buffer frame;
        deleted)
  end

let update t rid record =
  if rid.Rid.device <> Device.id t.device then false
  else begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
        let updated = Page.replace (Bufpool.bytes frame) rid.Rid.slot record in
        if updated then Bufpool.mark_dirty frame;
        Bufpool.unfix t.buffer frame;
        updated)
  end

(* The directory prefix as of now: (entries, count). *)
let snapshot t =
  Mutex.lock t.lock;
  let snap = (t.directory, t.pages) in
  Mutex.unlock t.lock;
  snap

let page_chain t =
  let directory, pages = snapshot t in
  Array.to_list (Array.sub directory 0 pages)

type cursor = {
  file : t;
  directory : int array;
  mutable index : int;  (* directory entry of the current page *)
  stop : int;  (* one past this cursor's last directory entry *)
  run : Bufpool.frame array;
      (* the fixed run: [held] frames, directory entries
         [\[index - at, index - at + held)] *)
  mutable held : int;
  mutable at : int;  (* the current page's place in [run] *)
  mutable data : bytes;  (* the current page's bytes *)
  mutable slot : int;  (* the next slot to look at *)
  mutable off : int;  (* the current record's range in [data] *)
  mutable len : int;
}

let slice t ~rank ~ranks =
  if ranks < 1 || rank < 0 || rank >= ranks then
    invalid_arg "Heap_file.slice: rank out of range";
  let directory, pages = snapshot t in
  {
    file = t;
    directory;
    index = rank * pages / ranks;
    stop = (rank + 1) * pages / ranks;
    run = Bufpool.run_buffer t.buffer;
    held = 0;
    at = 0;
    data = Bytes.empty;
    slot = 0;
    off = 0;
    len = 0;
  }

let scan t = slice t ~rank:0 ~ranks:1

let release cursor =
  if cursor.held > 0 then begin
    Bufpool.unfix_run cursor.file.buffer cursor.run ~len:cursor.held;
    cursor.held <- 0;
    cursor.data <- Bytes.empty
  end

let close_cursor cursor =
  release cursor;
  cursor.index <- cursor.stop

(* Step to the next live slot, leaving its range in [off, len] of the
   still-pinned frame; [false] at the end of the cursor's pages.  Pages
   are fixed a run at a time — up to {!Bufpool.run_length} contiguous
   directory entries, one pool-lock section — and the run stays fixed
   until the cursor moves past its last page, so a record is decoded where
   it lies: the paper's ownership protocol (section 3) with the cursor as
   the owner. *)
let rec advance cursor =
  if cursor.held = 0 then
    if cursor.index >= cursor.stop then false
    else begin
      let len = min (Array.length cursor.run) (cursor.stop - cursor.index) in
      Bufpool.fix_run cursor.file.buffer cursor.file.device cursor.directory
        ~pos:cursor.index ~len cursor.run;
      cursor.held <- len;
      cursor.at <- 0;
      cursor.data <- Bufpool.bytes cursor.run.(0);
      cursor.slot <- 0;
      advance cursor
    end
  else
    let slot = cursor.slot in
    if slot >= Page.n_slots cursor.data then begin
      cursor.index <- cursor.index + 1;
      if cursor.at + 1 < cursor.held then begin
        cursor.at <- cursor.at + 1;
        cursor.data <- Bufpool.bytes cursor.run.(cursor.at);
        cursor.slot <- 0
      end
      else release cursor;
      advance cursor
    end
    else begin
      cursor.slot <- slot + 1;
      let len = Page.slot_len cursor.data slot in
      if len = 0 then advance cursor
      else begin
        cursor.off <- Page.slot_off cursor.data slot;
        cursor.len <- len;
        true
      end
    end

let next cursor =
  if not (advance cursor) then None
  else
    let rid =
      Rid.make ~device:(Device.id cursor.file.device)
        ~page:cursor.directory.(cursor.index) ~slot:(cursor.slot - 1)
    in
    Some (rid, Bytes.sub_string cursor.data cursor.off cursor.len)

let data cursor = cursor.data
let off cursor = cursor.off
let len cursor = cursor.len

let next_in_frame cursor decode =
  if advance cursor then Some (decode cursor.data ~off:cursor.off ~len:cursor.len)
  else None

let iter t f =
  let cursor = scan t in
  let rec step () =
    match next cursor with
    | None -> ()
    | Some (rid, record) ->
        f rid record;
        step ()
  in
  Fun.protect ~finally:(fun () -> close_cursor cursor) step

let drop t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      for i = 0 to t.pages - 1 do
        let p = t.directory.(i) in
        let _ = Bufpool.flush_page t.buffer t.device p in
        Device.free t.device p
      done;
      t.first_page <- -1;
      t.last_page <- -1;
      t.pages <- 0;
      t.records <- 0;
      t.directory <- [||];
      let _ = Vtoc.remove (Device.vtoc t.device) t.name in
      ())
