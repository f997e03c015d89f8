module Injector = Volcano_fault.Injector

type backing =
  | Real of Unix.file_descr
  | Virtual of Bytes.t array
      (* each page's own block, indexed by page number; [Bytes.empty] for
         a page never written.  Read without a lock: a frame maps the
         block, and the pool's locks order a page's stores before the
         next fix of it. *)

type t = {
  id : int;
  name : string;
  page_size : int;
  capacity : int;
  backing : backing;
  device_busy : Mutex.t; (* held across seek + transfer (real devices) *)
  map_busy : Mutex.t; (* held across bitmap search/update *)
  mutable map : Bitmap.t;
  mutable table : Vtoc.t;
  reads : int Atomic.t;
  writes : int Atomic.t;
  mutable faults : Injector.t; (* chaos harness: I/O fault injection *)
}

let next_id = Atomic.make 0

let superblock_magic = 0x564f4c43 (* "VOLC" *)

let check_page t page =
  if page < 1 || page >= t.capacity then
    invalid_arg
      (Printf.sprintf "Device %s: page %d out of range [1,%d)" t.name page t.capacity)

let make ~name ~page_size ~capacity backing =
  assert (page_size >= 64);
  assert (capacity >= 2);
  let map = Bitmap.create capacity in
  Bitmap.set map 0;
  (* superblock page *)
  {
    id = Atomic.fetch_and_add next_id 1;
    name;
    page_size;
    capacity;
    backing;
    device_busy = Mutex.create ();
    map_busy = Mutex.create ();
    map;
    table = Vtoc.create ();
    reads = Atomic.make 0;
    writes = Atomic.make 0;
    faults = Injector.none;
  }

let set_faults t faults = t.faults <- faults

let create_real ~path ~page_size ~capacity =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  make ~name:path ~page_size ~capacity (Real fd)

let create_virtual ?(name = "<virtual>") ~page_size ~capacity () =
  make ~name ~page_size ~capacity (Virtual (Array.make capacity Bytes.empty))

let id t = t.id
let name t = t.name
let page_size t = t.page_size
let capacity t = t.capacity
let is_virtual t = match t.backing with Virtual _ -> true | Real _ -> false
let vtoc t = t.table
let reads t = Atomic.get t.reads
let writes t = Atomic.get t.writes

(* A virtual page's block; a never-written page has none. *)
let block t blocks page =
  let b = blocks.(page) in
  if b == Bytes.empty then
    invalid_arg
      (Printf.sprintf "Device %s: virtual page %d is not resident" t.name page);
  b

let read_exact fd buf =
  let rec step pos =
    if pos < Bytes.length buf then begin
      (* conclint: allow CL003 -- page-sized read from a regular file:
         select reports a regular file always ready, so Sched.wait_fd has
         nothing to wait on; the read holds its worker for one page of
         disk I/O, which is the device's whole job. *)
      let n = Unix.read fd buf pos (Bytes.length buf - pos) in
      if n = 0 then
        (* Short read past EOF: the page was never written. *)
        Bytes.fill buf pos (Bytes.length buf - pos) '\000'
      else step (pos + n)
    end
  in
  step 0

let write_exact fd buf =
  let rec step pos =
    if pos < Bytes.length buf then
      (* conclint: allow CL003 -- page-sized write to a regular file;
         as for the read, there is no readiness to wait on, and the write
         holds its worker for one page of disk I/O. *)
      let n = Unix.write fd buf pos (Bytes.length buf - pos) in
      step (pos + n)
  in
  step 0

let read t ~page buf =
  check_page t page;
  if Bytes.length buf <> t.page_size then invalid_arg "Device.read: bad frame size";
  Injector.hit t.faults Volcano_fault.Device_read;
  Atomic.incr t.reads;
  match t.backing with
  | Real fd ->
      Mutex.lock t.device_busy;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.device_busy)
        (fun () ->
          let _ = Unix.lseek fd (page * t.page_size) Unix.SEEK_SET in
          read_exact fd buf)
  | Virtual blocks -> Bytes.blit (block t blocks page) 0 buf 0 t.page_size

let map t ~page =
  check_page t page;
  match t.backing with
  | Real _ -> invalid_arg "Device.map: a real device has no blocks to map"
  | Virtual blocks ->
      Injector.hit t.faults Volcano_fault.Device_read;
      Atomic.incr t.reads;
      block t blocks page

let map_new t ~page =
  check_page t page;
  match t.backing with
  | Real _ -> invalid_arg "Device.map_new: a real device has no blocks to map"
  | Virtual blocks ->
      let held = blocks.(page) in
      if held == Bytes.empty then begin
        let fresh = Bytes.make t.page_size '\000' in
        blocks.(page) <- fresh;
        fresh
      end
      else begin
        Bytes.fill held 0 t.page_size '\000';
        held
      end

let write t ~page buf =
  check_page t page;
  if Bytes.length buf <> t.page_size then invalid_arg "Device.write: bad frame size";
  Injector.hit t.faults Volcano_fault.Device_write;
  Atomic.incr t.writes;
  match t.backing with
  | Real fd ->
      Mutex.lock t.device_busy;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.device_busy)
        (fun () ->
          let _ = Unix.lseek fd (page * t.page_size) Unix.SEEK_SET in
          write_exact fd buf)
  | Virtual blocks ->
      (* A frame that maps the page's own block has already written it;
         a foreign buffer is copied, into the page's block if it has one. *)
      let held = blocks.(page) in
      if held == buf then ()
      else if held == Bytes.empty then blocks.(page) <- Bytes.copy buf
      else Bytes.blit buf 0 held 0 t.page_size

let allocate t =
  Mutex.lock t.map_busy;
  let page = Bitmap.allocate t.map in
  Mutex.unlock t.map_busy;
  match page with
  | Some p -> p
  | None -> failwith (Printf.sprintf "Device %s: out of pages (%d)" t.name t.capacity)

let free t page =
  check_page t page;
  Mutex.lock t.map_busy;
  Bitmap.clear t.map page;
  Mutex.unlock t.map_busy;
  match t.backing with
  | Real _ -> ()
  | Virtual blocks -> blocks.(page) <- Bytes.empty

let allocated_pages t =
  Mutex.lock t.map_busy;
  let n = Bitmap.used t.map in
  Mutex.unlock t.map_busy;
  n

(* Superblock layout: magic, page_size, capacity, bitmap length + bytes,
   VTOC encoding.  It must fit in page 0. *)
let encode_superblock t =
  let buffer = Buffer.create t.page_size in
  Buffer.add_int32_le buffer (Int32.of_int superblock_magic);
  Buffer.add_int32_le buffer (Int32.of_int t.page_size);
  Buffer.add_int32_le buffer (Int32.of_int t.capacity);
  let map_bytes = Mutex.lock t.map_busy; let b = Bitmap.to_bytes t.map in Mutex.unlock t.map_busy; b in
  Buffer.add_int32_le buffer (Int32.of_int (Bytes.length map_bytes));
  Buffer.add_bytes buffer map_bytes;
  Buffer.add_bytes buffer (Vtoc.encode t.table);
  let encoded = Buffer.to_bytes buffer in
  if Bytes.length encoded > t.page_size then
    failwith (Printf.sprintf "Device %s: superblock exceeds page size" t.name);
  let page = Bytes.make t.page_size '\000' in
  Bytes.blit encoded 0 page 0 (Bytes.length encoded);
  page

let sync t =
  match t.backing with
  | Virtual _ -> ()
  | Real fd ->
      let page = encode_superblock t in
      Mutex.lock t.device_busy;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.device_busy)
        (fun () ->
          let _ = Unix.lseek fd 0 Unix.SEEK_SET in
          write_exact fd page)

let open_real ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  (* Read a generous prefix to discover the real page size. *)
  let probe = Bytes.make 16 '\000' in
  read_exact fd probe;
  let magic = Int32.to_int (Bytes.get_int32_le probe 0) in
  if magic <> superblock_magic then failwith (path ^ ": not a Volcano device");
  let page_size = Int32.to_int (Bytes.get_int32_le probe 4) in
  let capacity = Int32.to_int (Bytes.get_int32_le probe 8) in
  let page = Bytes.make page_size '\000' in
  let _ = Unix.lseek fd 0 Unix.SEEK_SET in
  read_exact fd page;
  let map_len = Int32.to_int (Bytes.get_int32_le page 12) in
  let map = Bitmap.of_bytes (Bytes.sub page 16 map_len) ~n:capacity in
  let table, _ = Vtoc.decode page ~pos:(16 + map_len) in
  let t = make ~name:path ~page_size ~capacity (Real fd) in
  t.map <- map;
  t.table <- table;
  t

let close t =
  sync t;
  match t.backing with Real fd -> Unix.close fd | Virtual _ -> ()
