(* Tests for the file system: pages, bitmaps, devices, VTOC, buffer pool,
   heap files, and the read-ahead/write-behind daemon. *)

module Page = Volcano_storage.Page
module Bitmap = Volcano_storage.Bitmap
module Device = Volcano_storage.Device
module Vtoc = Volcano_storage.Vtoc
module Bufpool = Volcano_storage.Bufpool
module Heap_file = Volcano_storage.Heap_file
module Rid = Volcano_storage.Rid

let check = Alcotest.check

let with_temp_path f =
  let path = Filename.temp_file "volcano" ".dev" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- slotted pages --- *)

let fresh_page ?(size = 512) () =
  let page = Bytes.create size in
  Page.init page ~kind:7;
  page

let test_page_init () =
  let page = fresh_page () in
  check Alcotest.int "no slots" 0 (Page.n_slots page);
  check Alcotest.int "kind" 7 (Page.kind page);
  check Alcotest.int "next" (-1) (Page.next_page page);
  Page.set_next_page page 42;
  check Alcotest.int "next set" 42 (Page.next_page page)

let test_page_insert_read () =
  let page = fresh_page () in
  let s1 = Page.insert page "hello" in
  let s2 = Page.insert page "world!" in
  check Alcotest.int "slot 0" 0 s1;
  check Alcotest.int "slot 1" 1 s2;
  check (Alcotest.option Alcotest.string) "read 0" (Some "hello") (Page.read page 0);
  check (Alcotest.option Alcotest.string) "read 1" (Some "world!") (Page.read page 1);
  check (Alcotest.option Alcotest.string) "read bad" None (Page.read page 2)

let test_page_delete_reuse () =
  let page = fresh_page () in
  let _ = Page.insert page "aaaa" in
  let _ = Page.insert page "bbbb" in
  check Alcotest.bool "delete" true (Page.delete page 0);
  check Alcotest.bool "double delete" false (Page.delete page 0);
  check (Alcotest.option Alcotest.string) "dead slot" None (Page.read page 0);
  (* The dead slot is reused. *)
  check Alcotest.int "reuse" 0 (Page.insert page "cccc");
  check (Alcotest.option Alcotest.string) "new value" (Some "cccc")
    (Page.read page 0)

(* A reused dead slot keeps the dead record's bytes reclaimable: the
   free count is what a compaction frees, before and after it runs. *)
let test_page_reused_slot_free_space () =
  let page = fresh_page ~size:256 () in
  ignore (Page.insert page (String.make 38 'a'));
  ignore (Page.delete page 0);
  check Alcotest.int "reuse" 0 (Page.insert page (String.make 12 'b'));
  let expected = 256 - Page.header_size - Page.slot_size - 12 in
  check Alcotest.int "free before compaction" expected
    (Page.total_free_space page);
  Page.compact page;
  check Alcotest.int "free after compaction" expected (Page.total_free_space page)

let test_page_fill_and_compact () =
  let page = fresh_page ~size:256 () in
  (* Fill the page with records, then delete every other one and verify the
     reclaimed space is usable after compaction. *)
  let rec fill n =
    if Page.insert page (Printf.sprintf "record-%04d" n) >= 0 then fill (n + 1)
    else n
  in
  let inserted = fill 0 in
  check Alcotest.bool "filled some" true (inserted > 5);
  for i = 0 to inserted - 1 do
    if i mod 2 = 0 then ignore (Page.delete page i)
  done;
  (* This insert is bigger than any single free gap before compaction. *)
  let big = String.make 20 'x' in
  check Alcotest.bool "compaction made room" true
    (Page.insert page big >= 0);
  (* Survivors are intact. *)
  for i = 0 to inserted - 1 do
    if i mod 2 = 1 then
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "survivor %d" i)
        (Some (Printf.sprintf "record-%04d" i))
        (Page.read page i)
  done

type page_op = Insert of int | Delete of int | Replace of int * int | Compact

let page_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Insert n) (int_range 1 40));
        (3, map (fun i -> Delete i) (int_bound 12));
        (2, map2 (fun i n -> Replace (i, n)) (int_bound 12) (int_range 1 40));
        (1, return Compact);
      ])

let print_page_op = function
  | Insert n -> Printf.sprintf "insert %d" n
  | Delete i -> Printf.sprintf "delete %d" i
  | Replace (i, n) -> Printf.sprintf "replace %d %d" i n
  | Compact -> "compact"

(* A record of [n] bytes that names the step that wrote it. *)
let record step n = String.init n (fun k -> Char.chr (97 + ((step + k) mod 26)))

(* The model is the slot directory as a list of [Some record] (live) or
   [None] (dead).  An insert takes the lowest dead slot, else a new one.
   Whether a record fits is counted from the model's live records: the
   page less its header, its directory and those records is what a
   compaction would free.  After every step the records, the dead-slot
   count and its header field (bytes 14..15, the count + 1) agree with
   the model, and [total_free_space] with that count. *)
let prop_page_model =
  QCheck.Test.make ~name:"slotted page behaves like a model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print_page_op ops))
        Gen.(list_size (int_range 1 80) page_op_gen))
    (fun ops ->
      let page = fresh_page ~size:256 () in
      let model = ref [||] in
      let reclaimable () =
        Array.fold_left
          (fun free r ->
            match r with Some r -> free - String.length r | None -> free)
          (256 - Page.header_size - (Page.slot_size * Array.length !model))
          !model
      in
      let dead () =
        Array.fold_left (fun acc r -> if r = None then acc + 1 else acc) 0 !model
      in
      let live i = i < Array.length !model && !model.(i) <> None in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iteri
        (fun step op ->
          (match op with
          | Insert n ->
              let r = record step n in
              let rec lowest i =
                if i >= Array.length !model || !model.(i) = None then i
                else lowest (i + 1)
              in
              let expected = lowest 0 in
              let need =
                if expected < Array.length !model then n else n + Page.slot_size
              in
              let fits = reclaimable () >= need in
              let got = Page.insert page r in
              if fits && got <> expected then
                fail "step %d: insert took slot %d, expected %d" step got expected;
              if (not fits) && got <> -1 then
                fail "step %d: insert of %d bytes fit in %d" step n (reclaimable ());
              if got = Array.length !model then
                model := Array.append !model [| Some r |]
              else if got >= 0 then !model.(got) <- Some r
          | Delete i ->
              let expected = live i in
              if Page.delete page i <> expected then
                fail "step %d: delete %d answered %b" step i (not expected);
              if expected then !model.(i) <- None
          | Replace (i, n) ->
              let r = record step n in
              let expected =
                live i && reclaimable () + String.length (Option.get !model.(i)) >= n
              in
              if Page.replace page i r <> expected then
                fail "step %d: replace %d answered %b" step i (not expected);
              if expected then !model.(i) <- Some r
          | Compact -> Page.compact page);
          if Page.n_slots page <> Array.length !model then
            fail "step %d: %d slots, model %d" step (Page.n_slots page)
              (Array.length !model);
          Array.iteri
            (fun i r ->
              if Page.read page i <> r then fail "step %d: slot %d differs" step i)
            !model;
          if Page.dead_slots page <> dead () then
            fail "step %d: %d dead slots kept, %d in the directory" step
              (Page.dead_slots page) (dead ());
          if Bytes.get_uint16_le page 14 <> dead () + 1 then
            fail "step %d: header field %d for %d dead slots" step
              (Bytes.get_uint16_le page 14) (dead ());
          if Page.total_free_space page <> reclaimable () then
            fail "step %d: %d free, the live records leave %d" step
              (Page.total_free_space page) (reclaimable ()))
        ops;
      true)

(* --- bitmap --- *)

let test_bitmap () =
  let b = Bitmap.create 100 in
  check Alcotest.int "empty" 0 (Bitmap.used b);
  check (Alcotest.option Alcotest.int) "first" (Some 0) (Bitmap.allocate b);
  check (Alcotest.option Alcotest.int) "second" (Some 1) (Bitmap.allocate b);
  Bitmap.clear b 0;
  check (Alcotest.option Alcotest.int) "reuse lowest" (Some 0) (Bitmap.allocate b);
  let rec exhaust n =
    match Bitmap.allocate b with Some _ -> exhaust (n + 1) | None -> n
  in
  check Alcotest.int "capacity" 98 (exhaust 0);
  check Alcotest.int "all used" 100 (Bitmap.used b)

let test_bitmap_roundtrip () =
  let b = Bitmap.create 50 in
  List.iter (fun i -> Bitmap.set b i) [ 1; 7; 13; 49 ];
  let b' = Bitmap.of_bytes (Bitmap.to_bytes b) ~n:50 in
  for i = 0 to 49 do
    check Alcotest.bool
      (Printf.sprintf "bit %d" i)
      (Bitmap.is_set b i) (Bitmap.is_set b' i)
  done

(* --- devices --- *)

let test_real_device_io () =
  with_temp_path (fun path ->
      let dev = Device.create_real ~path ~page_size:256 ~capacity:16 in
      let page = Device.allocate dev in
      let buf = Bytes.make 256 'z' in
      Device.write dev ~page buf;
      let out = Bytes.make 256 '\000' in
      Device.read dev ~page out;
      check Alcotest.bool "roundtrip" true (Bytes.equal buf out);
      (* Unwritten pages read as zeros. *)
      let p2 = Device.allocate dev in
      Device.read dev ~page:p2 out;
      check Alcotest.bool "zeros" true
        (Bytes.for_all (fun c -> c = '\000') out);
      Device.close dev)

let test_device_persistence () =
  with_temp_path (fun path ->
      let dev = Device.create_real ~path ~page_size:256 ~capacity:16 in
      let page = Device.allocate dev in
      Vtoc.add (Device.vtoc dev)
        { Vtoc.name = "t"; first_page = page; last_page = page; pages = 1; records = 5 };
      Device.close dev;
      let dev2 = Device.open_real ~path in
      check Alcotest.int "page size" 256 (Device.page_size dev2);
      check Alcotest.int "capacity" 16 (Device.capacity dev2);
      check Alcotest.bool "page still allocated" true
        (Device.allocate dev2 <> page);
      (match Vtoc.find (Device.vtoc dev2) "t" with
      | Some e ->
          check Alcotest.int "vtoc first page" page e.first_page;
          check Alcotest.int "vtoc records" 5 e.records
      | None -> Alcotest.fail "vtoc entry lost");
      Device.close dev2)

let test_virtual_device () =
  let dev = Device.create_virtual ~page_size:128 ~capacity:8 () in
  let page = Device.allocate dev in
  (* Reading a never-written virtual page is an error: it only exists in
     the buffer. *)
  Alcotest.check_raises "not resident"
    (Invalid_argument
       (Printf.sprintf "Device %s: virtual page %d is not resident" "<virtual>"
          page))
    (fun () -> Device.read dev ~page (Bytes.make 128 '\000'));
  (* A spilled (written) page can be read back. *)
  let buf = Bytes.make 128 'v' in
  Device.write dev ~page buf;
  let out = Bytes.make 128 '\000' in
  Device.read dev ~page out;
  check Alcotest.bool "spill roundtrip" true (Bytes.equal buf out);
  (* Freeing discards the page. *)
  Device.free dev page;
  Alcotest.check_raises "discarded"
    (Invalid_argument
       (Printf.sprintf "Device %s: virtual page %d is not resident" "<virtual>"
          page))
    (fun () -> Device.read dev ~page out)

let test_vtoc_ops () =
  let v = Vtoc.create () in
  Vtoc.add v { Vtoc.name = "a"; first_page = 1; last_page = 2; pages = 2; records = 9 };
  Vtoc.add v { Vtoc.name = "b"; first_page = 3; last_page = 3; pages = 1; records = 1 };
  check Alcotest.int "count" 2 (Vtoc.entry_count v);
  check Alcotest.bool "find" true (Vtoc.find v "a" <> None);
  check Alcotest.bool "remove" true (Vtoc.remove v "a");
  check Alcotest.bool "gone" true (Vtoc.find v "a" = None);
  Alcotest.check_raises "duplicate" (Invalid_argument "Vtoc.add: duplicate file b")
    (fun () ->
      Vtoc.add v { Vtoc.name = "b"; first_page = 0; last_page = 0; pages = 0; records = 0 })

(* --- buffer pool --- *)

let make_pool ?(mode = Bufpool.Two_level) ?(frames = 4) () =
  let pool = Bufpool.create ~mode ~frames ~page_size:128 () in
  let dev = Device.create_virtual ~page_size:128 ~capacity:64 () in
  (pool, dev)

let test_buffer_fix_unfix () =
  let pool, dev = make_pool () in
  let page = Device.allocate dev in
  let f = Bufpool.fix_new pool dev page in
  check Alcotest.int "fixed once" 1 (Bufpool.fix_count f);
  Bytes.set (Bufpool.bytes f) 0 'A';
  Bufpool.mark_dirty f;
  let f2 = Bufpool.fix pool dev page in
  check Alcotest.int "fixed twice" 2 (Bufpool.fix_count f2);
  Bufpool.unfix pool f;
  Bufpool.unfix pool f2;
  check Alcotest.int "unfixed" 0 (Bufpool.fix_count f);
  Alcotest.check_raises "over-unfix"
    (Invalid_argument "Bufpool.unfix: frame is not fixed") (fun () ->
      Bufpool.unfix pool f);
  Bufpool.assert_quiescent ~what:"fix/unfix" pool

let test_buffer_eviction_writeback () =
  let pool, dev = make_pool ~frames:2 () in
  let pages = Array.init 4 (fun _ -> Device.allocate dev) in
  Array.iteri
    (fun i page ->
      let f = Bufpool.fix_new pool dev page in
      Bytes.set (Bufpool.bytes f) 0 (Char.chr (Char.code 'a' + i));
      Bufpool.mark_dirty f;
      Bufpool.unfix pool f)
    pages;
  (* Only 2 frames: earlier pages were evicted and written back; re-fixing
     them must reload the stored contents. *)
  Array.iteri
    (fun i page ->
      let f = Bufpool.fix pool dev page in
      check Alcotest.char
        (Printf.sprintf "page %d content" i)
        (Char.chr (Char.code 'a' + i))
        (Bytes.get (Bufpool.bytes f) 0);
      Bufpool.unfix pool f)
    pages;
  let stats = Bufpool.stats pool in
  check Alcotest.bool "evictions happened" true (stats.Bufpool.evictions >= 2);
  check Alcotest.bool "writebacks happened" true (stats.Bufpool.writebacks >= 2);
  Bufpool.assert_quiescent ~what:"eviction" pool

let test_buffer_exhausted () =
  let pool, dev = make_pool ~frames:2 () in
  let p1 = Device.allocate dev and p2 = Device.allocate dev and p3 = Device.allocate dev in
  let f1 = Bufpool.fix_new pool dev p1 in
  let f2 = Bufpool.fix_new pool dev p2 in
  Alcotest.check_raises "exhausted" Bufpool.Buffer_exhausted (fun () ->
      ignore (Bufpool.fix_new pool dev p3));
  Bufpool.unfix pool f1;
  Bufpool.unfix pool f2;
  Bufpool.assert_quiescent ~what:"exhausted" pool

let test_buffer_lru_order () =
  let pool, dev = make_pool ~frames:2 () in
  let a = Device.allocate dev and b = Device.allocate dev and c = Device.allocate dev in
  List.iter
    (fun p ->
      let f = Bufpool.fix_new pool dev p in
      Bufpool.unfix pool f)
    [ a; b ];
  (* Touch [a] so that [b] is the LRU victim. *)
  let f = Bufpool.fix pool dev a in
  Bufpool.unfix pool f;
  let f = Bufpool.fix_new pool dev c in
  Bufpool.unfix pool f;
  check Alcotest.bool "a stays" true (Bufpool.contains pool dev a);
  check Alcotest.bool "b evicted" false (Bufpool.contains pool dev b);
  check Alcotest.bool "c resident" true (Bufpool.contains pool dev c);
  Bufpool.assert_quiescent ~what:"lru order" pool

let concurrent_hammer mode =
  let pool = Bufpool.create ~mode ~frames:8 ~page_size:128 () in
  let dev = Device.create_virtual ~page_size:128 ~capacity:64 () in
  let pages = Array.init 24 (fun _ -> Device.allocate dev) in
  (* Initialize all pages through the pool. *)
  Array.iter
    (fun p ->
      let f = Bufpool.fix_new pool dev p in
      Bufpool.mark_dirty f;
      Bufpool.unfix pool f)
    pages;
  let errors = Atomic.make 0 in
  let worker seed () =
    let rng = Volcano_util.Rng.create (Int64.of_int seed) in
    for _ = 1 to 2_000 do
      let page = pages.(Volcano_util.Rng.int rng (Array.length pages)) in
      match Bufpool.fix pool dev page with
      | f ->
          if Bufpool.fix_count f < 1 then Atomic.incr errors;
          Bufpool.unfix pool f
      | exception _ -> Atomic.incr errors
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  check Alcotest.int "no errors" 0 (Atomic.get errors);
  (* All fix counts must return to zero. *)
  Array.iter
    (fun p ->
      let f = Bufpool.fix pool dev p in
      check Alcotest.int "quiescent" 1 (Bufpool.fix_count f);
      Bufpool.unfix pool f)
    pages;
  Bufpool.assert_quiescent ~what:"concurrent hammer" pool

let test_buffer_concurrent_two_level () = concurrent_hammer Bufpool.Two_level
let test_buffer_concurrent_global () = concurrent_hammer Bufpool.Single_global

(* --- heap files --- *)

let make_env () =
  let pool = Bufpool.create ~frames:16 ~page_size:256 () in
  let dev = Device.create_virtual ~page_size:256 ~capacity:512 () in
  (pool, dev)

let test_heap_insert_scan () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  let records = List.init 100 (fun i -> Printf.sprintf "record-%03d" i) in
  let rids = List.map (Heap_file.insert file) records in
  check Alcotest.int "count" 100 (Heap_file.record_count file);
  check Alcotest.bool "multi page" true (Heap_file.page_count file > 1);
  (* Scan returns all records in insertion order (page order). *)
  let scanned = ref [] in
  Heap_file.iter file (fun _rid r -> scanned := r :: !scanned);
  check (Alcotest.list Alcotest.string) "scan" records (List.rev !scanned);
  (* Point lookups by RID. *)
  List.iteri
    (fun i rid ->
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "get %d" i)
        (Some (List.nth records i))
        (Heap_file.get file rid))
    rids;
  Bufpool.assert_quiescent ~what:"heap insert/scan" pool

let test_heap_delete () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  let rids = List.init 20 (fun i -> Heap_file.insert file (Printf.sprintf "%05d" i)) in
  List.iteri (fun i rid -> if i mod 2 = 0 then ignore (Heap_file.delete file rid)) rids;
  check Alcotest.int "count after delete" 10 (Heap_file.record_count file);
  let seen = ref 0 in
  Heap_file.iter file (fun _ _ -> incr seen);
  check Alcotest.int "scan skips deleted" 10 !seen;
  check (Alcotest.option Alcotest.string) "deleted gone" None
    (Heap_file.get file (List.nth rids 0));
  check Alcotest.bool "delete twice" false
    (Heap_file.delete file (List.nth rids 0));
  Bufpool.assert_quiescent ~what:"heap delete" pool

let test_heap_drop_frees_pages () =
  let pool, dev = make_env () in
  let before = Device.allocated_pages dev in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  for i = 0 to 199 do
    ignore (Heap_file.insert file (Printf.sprintf "row %d padded out..." i))
  done;
  check Alcotest.bool "allocated" true (Device.allocated_pages dev > before);
  Heap_file.drop file;
  check Alcotest.int "freed" before (Device.allocated_pages dev);
  check Alcotest.bool "vtoc removed" true (Vtoc.find (Device.vtoc dev) "t" = None);
  Bufpool.assert_quiescent ~what:"heap drop" pool

let test_heap_open_existing () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  for i = 0 to 9 do
    ignore (Heap_file.insert file (string_of_int i))
  done;
  Heap_file.sync_vtoc file;
  let reopened = Heap_file.open_existing ~buffer:pool ~device:dev ~name:"t" in
  check Alcotest.int "count" 10 (Heap_file.record_count reopened);
  let seen = ref 0 in
  Heap_file.iter reopened (fun _ _ -> incr seen);
  check Alcotest.int "scannable" 10 !seen;
  Bufpool.assert_quiescent ~what:"heap reopen" pool

let test_heap_concurrent_inserts () =
  let pool = Bufpool.create ~frames:64 ~page_size:256 () in
  let dev = Device.create_virtual ~page_size:256 ~capacity:2048 () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  let per_domain = 500 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              ignore (Heap_file.insert file (Printf.sprintf "%d-%06d" d i))
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "all inserted" (4 * per_domain) (Heap_file.record_count file);
  let seen = ref 0 in
  Heap_file.iter file (fun _ _ -> incr seen);
  check Alcotest.int "all scanned" (4 * per_domain) !seen;
  Bufpool.assert_quiescent ~what:"heap concurrent" pool

(* The bulk path: one appender fixes each last page once and keeps it
   fixed across records, copying each from a reused scratch buffer (here
   at an offset, as from another page's frame); an [insert] between two
   appends lands on the same page; appenders on two domains interleave
   safely; a closed appender leaves the pool quiescent. *)
let test_heap_bulk_append () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  let scratch = Bytes.make 64 '#' in
  let a = Heap_file.appender file in
  let expected = ref [] in
  for i = 0 to 99 do
    let r = Printf.sprintf "bulk-%03d" i in
    Bytes.blit_string r 0 scratch 3 (String.length r);
    Heap_file.append a scratch ~off:3 ~len:(String.length r);
    expected := r :: !expected;
    if i = 50 then begin
      ignore (Heap_file.insert file "inserted");
      expected := "inserted" :: !expected
    end
  done;
  check Alcotest.int "the appender holds one page fixed" 1 (Bufpool.leaked_fixes pool);
  Heap_file.close_appender a;
  Heap_file.close_appender a;
  check Alcotest.int "count" 101 (Heap_file.record_count file);
  check Alcotest.bool "multi page" true (Heap_file.page_count file > 1);
  let scanned = ref [] in
  Heap_file.iter file (fun _rid r -> scanned := r :: !scanned);
  check (Alcotest.list Alcotest.string) "records in append order" (List.rev !expected)
    (List.rev !scanned);
  (match Heap_file.append a scratch ~off:0 ~len:0 with
  | () -> Alcotest.fail "an empty record was appended"
  | exception Invalid_argument _ -> ());
  (match Heap_file.append a scratch ~off:60 ~len:8 with
  | () -> Alcotest.fail "a range past the buffer was appended"
  | exception Invalid_argument _ -> ());
  Bufpool.assert_quiescent ~what:"heap bulk append" pool;
  let other = Heap_file.create ~buffer:pool ~device:dev ~name:"u" in
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            let a = Heap_file.appender other in
            let buf = Bytes.create 16 in
            for i = 0 to 299 do
              let r = Printf.sprintf "%d-%05d" d i in
              Bytes.blit_string r 0 buf 0 (String.length r);
              Heap_file.append a buf ~off:0 ~len:(String.length r)
            done;
            Heap_file.close_appender a))
  in
  List.iter Domain.join domains;
  let seen = ref 0 in
  Heap_file.iter other (fun _ _ -> incr seen);
  check Alcotest.int "two appenders, every record" 600 !seen;
  check Alcotest.int "two appenders, the count" 600 (Heap_file.record_count other);
  Bufpool.assert_quiescent ~what:"heap concurrent append" pool

(* --- page directory and page-range slices --- *)

let fill file n =
  for i = 0 to n - 1 do
    ignore (Heap_file.insert file (Printf.sprintf "record-%05d" i))
  done

let drain_cursor cursor =
  let rec go acc =
    match Heap_file.next cursor with
    | None -> List.rev acc
    | Some hit -> go (hit :: acc)
  in
  Fun.protect ~finally:(fun () -> Heap_file.close_cursor cursor) (fun () -> go [])

let test_page_chain_reads_nothing () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  fill file 1000;
  let pages = Heap_file.page_count file in
  check Alcotest.bool "file larger than the pool" true
    (pages > Bufpool.frames_total pool);
  let before = Device.reads dev in
  let chain = Heap_file.page_chain file in
  check Alcotest.int "no device reads" before (Device.reads dev);
  check Alcotest.int "every page" pages (List.length chain);
  (* the directory agrees with the on-page links *)
  List.iteri
    (fun i page ->
      let frame = Bufpool.fix pool dev page in
      let next = Page.next_page (Bufpool.bytes frame) in
      Bufpool.unfix pool frame;
      let expected = match List.nth_opt chain (i + 1) with Some p -> p | None -> -1 in
      check Alcotest.int "link" expected next)
    chain;
  Bufpool.assert_quiescent ~what:"page chain" pool

(* For every rank count, the slices are pairwise disjoint (by RID) and
   their union is the full scan as a multiset. *)
let check_slices ~what file =
  let full = List.sort compare (drain_cursor (Heap_file.scan file)) in
  check Alcotest.int (what ^ ": full scan") (Heap_file.record_count file)
    (List.length full);
  for ranks = 1 to 5 do
    let parts =
      List.init ranks (fun rank -> drain_cursor (Heap_file.slice file ~rank ~ranks))
    in
    let union = List.concat parts in
    let rids = List.map fst union in
    check Alcotest.int
      (Printf.sprintf "%s: %d slices disjoint" what ranks)
      (List.length rids)
      (List.length (List.sort_uniq Rid.compare rids));
    check Alcotest.bool
      (Printf.sprintf "%s: %d slices cover the file" what ranks)
      true
      (List.sort compare union = full)
  done

let test_slice_coverage () =
  let pool, dev = make_env () in
  let make name n =
    let file = Heap_file.create ~buffer:pool ~device:dev ~name in
    fill file n;
    file
  in
  let cases =
    [ ("empty", make "empty" 0, 0, 0); ("one page", make "one" 5, 1, 1);
      ("fewer pages than ranks", make "few" 40, 2, 4);
      ("many pages", make "many" 600, 17, max_int) ]
  in
  List.iter
    (fun (what, file, lo, hi) ->
      let pages = Heap_file.page_count file in
      check Alcotest.bool
        (Printf.sprintf "%s: %d pages in [%d, %d]" what pages lo hi)
        true
        (pages >= lo && pages <= hi);
      check_slices ~what file)
    cases;
  (* deleted records stay out of every slice *)
  let _, many, _, _ = List.nth cases 3 in
  let victims = ref [] in
  Heap_file.iter many (fun rid _ ->
      if Rid.(rid.slot) mod 3 = 0 then victims := rid :: !victims);
  List.iter (fun rid -> ignore (Heap_file.delete many rid)) !victims;
  check_slices ~what:"after deletes" many;
  (* a reopened file rebuilds its directory from the chain *)
  Heap_file.sync_vtoc many;
  let reopened = Heap_file.open_existing ~buffer:pool ~device:dev ~name:"many" in
  check Alcotest.(list int) "rebuilt directory" (Heap_file.page_chain many)
    (Heap_file.page_chain reopened);
  check_slices ~what:"reopened" reopened;
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Heap_file.slice: rank out of range") (fun () ->
      ignore (Heap_file.slice many ~rank:3 ~ranks:3));
  Bufpool.assert_quiescent ~what:"slices" pool

(* A cursor snapshots the directory when it opens: pages appended later
   belong to the next scan. *)
let test_slice_snapshot () =
  let pool, dev = make_env () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  fill file 100;
  let cursor = Heap_file.slice file ~rank:1 ~ranks:2 in
  let before = Heap_file.page_count file in
  fill file 100;
  check Alcotest.bool "file grew" true (Heap_file.page_count file > before);
  let seen = drain_cursor cursor in
  let expected =
    List.sort compare
      (List.filteri
         (fun i _ -> i >= before / 2 && i < before)
         (Heap_file.page_chain file))
  in
  check Alcotest.(list int) "pages of the snapshot"
    expected
    (List.sort_uniq compare (List.map (fun (rid, _) -> Rid.(rid.page)) seen));
  Bufpool.assert_quiescent ~what:"slice snapshot" pool

(* An unsharded sliced scan under an exchange: each producer reads its
   own page range, so the gathered rows are exactly the table's, whether
   the producers run fused batches or record at a time — with and
   without a projection folded into the decode. *)
let test_sliced_scan_differential () =
  let module Plan = Volcano_plan.Plan in
  let module Env = Volcano_plan.Env in
  let module Tuple = Volcano_tuple.Tuple in
  let rows env plan =
    List.sort Tuple.compare
      (Volcano.Iterator.to_list (Volcano_plan.Compile.compile env plan))
  in
  let gather input =
    Plan.Exchange { cfg = Volcano.Exchange.config ~degree:3 (); input }
  in
  let sliced = Plan.Scan_table_slice "emp" in
  let projected = Plan.Project_cols { cols = [ 4; 0 ]; input = sliced } in
  let whole = Plan.Scan_table "emp" in
  let run batch_size =
    let env = Env.create ~frames:32 ~page_size:1024 ?batch_size () in
    Volcano_wisconsin.Wisconsin.load ~env ~name:"emp" ~n:700 ();
    let full = rows env whole in
    check Alcotest.int "table rows" 700 (List.length full);
    let r = rows env (gather sliced) in
    check Alcotest.bool "sliced = full" true (List.equal Tuple.equal full r);
    let p = rows env (gather projected) in
    check Alcotest.bool "projected slices = projected table" true
      (List.equal Tuple.equal
         (List.sort Tuple.compare
            (List.map (fun t -> Tuple.project t [ 4; 0 ]) full))
         p);
    Bufpool.assert_quiescent ~what:"sliced scan" (Env.buffer env);
    (r, p)
  in
  let batched = run None and records = run (Some 0) in
  check Alcotest.bool "batch_size 0 = default" true (batched = records)

(* --- page runs and mapped frames --- *)

(* A file four times the pool, on a pool whose runs are 8 pages long. *)
let big_file ?(mode = Bufpool.Two_level) () =
  let pool = Bufpool.create ~mode ~frames:256 ~page_size:128 () in
  let dev = Device.create_virtual ~page_size:128 ~capacity:2048 () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"big" in
  let n = ref 0 in
  while Heap_file.page_count file < 4 * Bufpool.frames_total pool do
    ignore (Heap_file.insert file (Printf.sprintf "r%06d" !n));
    incr n
  done;
  (pool, dev, file, !n)

let expected_records n = List.init n (Printf.sprintf "r%06d")

let test_run_scan_out_of_pool mode () =
  let pool, _dev, file, n = big_file ~mode () in
  check Alcotest.int "runs of 8" 8 (Bufpool.run_length pool);
  let records cursor = List.map snd (drain_cursor cursor) in
  let pages = Heap_file.page_count file in
  for round = 1 to 2 do
    let misses = (Bufpool.stats pool).misses in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "round %d: every record once, in order" round)
      (expected_records n)
      (records (Heap_file.scan file));
    check Alcotest.bool
      (Printf.sprintf "round %d: the pages came from the device" round)
      true
      ((Bufpool.stats pool).misses - misses >= pages - Bufpool.frames_total pool);
    Bufpool.assert_quiescent ~what:"out-of-pool scan" pool
  done;
  let sliced =
    List.concat
      (List.init 3 (fun rank -> records (Heap_file.slice file ~rank ~ranks:3)))
  in
  check (Alcotest.list Alcotest.string) "three slices" (expected_records n) sliced;
  Bufpool.assert_quiescent ~what:"out-of-pool slices" pool

(* A [Device_read] failure on the first, a middle or the last page of a
   cold run raises once and unpins the pages fixed before it; the page
   fixes again afterwards, and the next scan reads everything. *)
let test_run_read_fault () =
  let module Fault = Volcano_fault in
  List.iter
    (fun hit ->
      let pool, dev, file, n = big_file () in
      Bufpool.flush_all pool;
      Bufpool.purge_device pool dev;
      let inj =
        Fault.Injector.make
          {
            Fault.seed = 1L;
            rules =
              [ { Fault.site = Fault.Device_read; trigger = Fault.At_hit hit; action = Fault.Fail } ];
          }
      in
      Device.set_faults dev inj;
      let cursor = Heap_file.scan file in
      (match Heap_file.advance cursor with
      | _ -> Alcotest.failf "hit %d: the run did not fail" hit
      | exception Fault.Injected { site = Fault.Device_read; _ } -> ());
      check Alcotest.int (Printf.sprintf "hit %d: fired once" hit) 1
        (Fault.Injector.fired inj);
      check Alcotest.int (Printf.sprintf "hit %d: no leaked fix" hit) 0
        (Bufpool.leaked_fixes pool);
      Heap_file.close_cursor cursor;
      let page = List.nth (Heap_file.page_chain file) (hit - 1) in
      let f = Bufpool.fix pool dev page in
      check Alcotest.bool (Printf.sprintf "hit %d: the page fixes again" hit) true
        (Page.n_slots (Bufpool.bytes f) > 0);
      Bufpool.unfix pool f;
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "hit %d: a later scan reads everything" hit)
        (expected_records n)
        (List.map snd (drain_cursor (Heap_file.scan file)));
      Bufpool.assert_quiescent ~what:"run read fault" pool)
    [ 1; 4; 8 ]

(* A change made through a fixed frame survives the frame's eviction, on
   a virtual device (the frame maps the device's block) and on a real one
   (the write-back copies it out). *)
let test_changed_page_survives_eviction () =
  let run what dev =
    let pool = Bufpool.create ~frames:2 ~page_size:128 () in
    let pages = Array.init 4 (fun _ -> Device.allocate dev) in
    Array.iter
      (fun p ->
        let f = Bufpool.fix_new pool dev p in
        Bytes.set (Bufpool.bytes f) 0 'a';
        Bufpool.unfix pool f)
      pages;
    Array.iteri
      (fun i p ->
        let f = Bufpool.fix pool dev p in
        Bytes.set (Bufpool.bytes f) 1 (Char.chr (Char.code 'k' + i));
        Bufpool.mark_dirty f;
        Bufpool.unfix pool f)
      pages;
    Array.iteri
      (fun i p ->
        check Alcotest.bool (Printf.sprintf "%s: page %d evicted" what i) false
          (Bufpool.contains pool dev p);
        let f = Bufpool.fix pool dev p in
        check Alcotest.string
          (Printf.sprintf "%s: page %d reads back" what i)
          (Printf.sprintf "a%c" (Char.chr (Char.code 'k' + i)))
          (Bytes.sub_string (Bufpool.bytes f) 0 2);
        Bufpool.unfix pool f)
      pages;
    Bufpool.assert_quiescent ~what pool
  in
  run "virtual" (Device.create_virtual ~page_size:128 ~capacity:16 ());
  with_temp_path (fun path ->
      let dev = Device.create_real ~path ~page_size:128 ~capacity:16 in
      run "real" dev;
      Device.close dev)

(* A dirty frame that maps its virtual page's block is written back with
   no copy: evicting it allocates no 4-KB block. *)
let test_mapped_writeback_allocates_no_block () =
  let page_size = 4096 in
  let pool = Bufpool.create ~frames:2 ~page_size () in
  let dev = Device.create_virtual ~page_size ~capacity:16 () in
  let pages = Array.init 3 (fun _ -> Device.allocate dev) in
  let touch p =
    let f = Bufpool.fix pool dev p in
    Bytes.set (Bufpool.bytes f) 0 'w';
    Bufpool.mark_dirty f;
    Bufpool.unfix pool f
  in
  Array.iter (fun p -> Bufpool.unfix pool (Bufpool.fix_new pool dev p)) pages;
  Array.iter touch pages;
  let writes = Device.writes dev in
  let rounds = 100 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for i = 0 to (3 * rounds) - 1 do
    touch pages.(i mod 3)
  done;
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  check Alcotest.bool "every touch evicted a dirty page" true
    (Device.writes dev - writes >= 3 * rounds);
  check Alcotest.bool
    (Printf.sprintf "%.0f major words for %d write-backs: under one block" words
       (3 * rounds))
    true
    (words < float_of_int (page_size / 8));
  Bufpool.assert_quiescent ~what:"mapped write-back" pool

(* Two domains scan while a third appends to the same file and so
   evicts: each scan reads exactly the records there when it opened, in
   order, and after them only later records, still in order (a record
   placed on the tail page during the scan may or may not be seen). *)
let test_scans_beside_an_appender () =
  let pool = Bufpool.create ~frames:128 ~page_size:128 () in
  let dev = Device.create_virtual ~page_size:128 ~capacity:4096 () in
  let file = Heap_file.create ~buffer:pool ~device:dev ~name:"t" in
  let record i = Printf.sprintf "r%06d" i in
  let initial = 1000 and appended = 6000 in
  for i = 0 to initial - 1 do
    ignore (Heap_file.insert file (record i))
  done;
  let done_ = Atomic.make false in
  let appender =
    Domain.spawn (fun () ->
        let a = Heap_file.appender file in
        for i = initial to initial + appended - 1 do
          let r = Bytes.of_string (record i) in
          Heap_file.append a r ~off:0 ~len:(Bytes.length r)
        done;
        Heap_file.close_appender a;
        Atomic.set done_ true)
  in
  let scanner () =
    let failures = ref [] and scans = ref 0 in
    while (not (Atomic.get done_)) || !scans < 2 do
      let at_open = Heap_file.record_count file in
      let seen = List.map snd (drain_cursor (Heap_file.scan file)) in
      incr scans;
      let rec ok i = function
        | [] -> i >= at_open
        | r :: rest when i < at_open -> r = record i && ok (i + 1) rest
        | r :: rest -> (
            match Scanf.sscanf_opt r "r%06d%!" Fun.id with
            | Some j when j >= i && j < initial + appended -> ok (j + 1) rest
            | _ -> false)
      in
      if not (ok 0 seen) then
        failures := Printf.sprintf "scan of %d records (%d at open)" (List.length seen) at_open :: !failures
    done;
    !failures
  in
  let scanners = List.init 2 (fun _ -> Domain.spawn scanner) in
  let failures = List.concat_map Domain.join scanners in
  Domain.join appender;
  check (Alcotest.list Alcotest.string) "every scan matches the model" [] failures;
  check (Alcotest.list Alcotest.string) "the final file"
    (List.init (initial + appended) record)
    (List.map snd (drain_cursor (Heap_file.scan file)));
  Bufpool.assert_quiescent ~what:"scans beside an appender" pool

let test_rid () =
  let a = Rid.make ~device:1 ~page:2 ~slot:3 in
  let b = Rid.make ~device:1 ~page:2 ~slot:4 in
  check Alcotest.bool "order" true (Rid.compare a b < 0);
  check Alcotest.string "print" "1.2.3" (Rid.to_string a)

let suite =
  [
    Alcotest.test_case "page init" `Quick test_page_init;
    Alcotest.test_case "page insert/read" `Quick test_page_insert_read;
    Alcotest.test_case "page delete and slot reuse" `Quick test_page_delete_reuse;
    Alcotest.test_case "page fill and compact" `Quick test_page_fill_and_compact;
    Runner.qcheck prop_page_model;
    Alcotest.test_case "a reused slot's gap stays free" `Quick test_page_reused_slot_free_space;
    Alcotest.test_case "bitmap allocate/free" `Quick test_bitmap;
    Alcotest.test_case "bitmap roundtrip" `Quick test_bitmap_roundtrip;
    Alcotest.test_case "real device io" `Quick test_real_device_io;
    Alcotest.test_case "device persistence" `Quick test_device_persistence;
    Alcotest.test_case "virtual device" `Quick test_virtual_device;
    Alcotest.test_case "vtoc" `Quick test_vtoc_ops;
    Alcotest.test_case "buffer fix/unfix" `Quick test_buffer_fix_unfix;
    Alcotest.test_case "buffer eviction + writeback" `Quick
      test_buffer_eviction_writeback;
    Alcotest.test_case "buffer exhausted" `Quick test_buffer_exhausted;
    Alcotest.test_case "buffer lru order" `Quick test_buffer_lru_order;
    Alcotest.test_case "buffer concurrent (two-level)" `Quick
      test_buffer_concurrent_two_level;
    Alcotest.test_case "buffer concurrent (global)" `Quick
      test_buffer_concurrent_global;
    Alcotest.test_case "heap insert + scan + get" `Quick test_heap_insert_scan;
    Alcotest.test_case "heap delete" `Quick test_heap_delete;
    Alcotest.test_case "heap drop frees pages" `Quick test_heap_drop_frees_pages;
    Alcotest.test_case "heap open existing" `Quick test_heap_open_existing;
    Alcotest.test_case "heap concurrent inserts" `Quick
      test_heap_concurrent_inserts;
    Alcotest.test_case "heap bulk append" `Quick test_heap_bulk_append;
    Alcotest.test_case "page chain reads no page" `Quick
      test_page_chain_reads_nothing;
    Alcotest.test_case "slices partition the file" `Quick test_slice_coverage;
    Alcotest.test_case "slice snapshots the directory" `Quick
      test_slice_snapshot;
    Alcotest.test_case "sliced scan: batched = record path" `Quick
      test_sliced_scan_differential;
    Alcotest.test_case "rid" `Quick test_rid;
    Alcotest.test_case "an out-of-pool scan reads every record once (two-level)"
      `Quick (test_run_scan_out_of_pool Bufpool.Two_level);
    Alcotest.test_case "an out-of-pool scan reads every record once (global)"
      `Quick (test_run_scan_out_of_pool Bufpool.Single_global);
    Alcotest.test_case "a read fault in a run raises once and leaks nothing"
      `Quick test_run_read_fault;
    Alcotest.test_case "a changed page survives its eviction" `Quick
      test_changed_page_survives_eviction;
    Alcotest.test_case "a mapped write-back allocates no block" `Quick
      test_mapped_writeback_allocates_no_block;
    Alcotest.test_case "scans beside an appender match the model" `Quick
      test_scans_beside_an_appender;
  ]
