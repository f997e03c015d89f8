(* Additional storage tests: in-place updates, page chains, cold scans,
   buffer statistics, and encode/decode properties. *)

module Page = Volcano_storage.Page
module Bitmap = Volcano_storage.Bitmap
module Device = Volcano_storage.Device
module Vtoc = Volcano_storage.Vtoc
module Bufpool = Volcano_storage.Bufpool
module Heap_file = Volcano_storage.Heap_file
module Scan = Volcano_ops.Scan
module Iterator = Volcano.Iterator
module Tuple = Volcano_tuple.Tuple

let check = Alcotest.check

let make_store ?(frames = 16) ?(page_size = 256) ?(capacity = 512) () =
  let buffer = Bufpool.create ~frames ~page_size () in
  let device = Device.create_virtual ~page_size ~capacity () in
  (buffer, device)

(* --- heap update --- *)

let test_update_in_place () =
  let buffer, device = make_store () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  let rid = Heap_file.insert file "original value" in
  check Alcotest.bool "same size fits" true (Heap_file.update file rid "replaced value!");
  check (Alcotest.option Alcotest.string) "updated" (Some "replaced value!")
    (Heap_file.get file rid);
  (* Smaller also fits and keeps the RID. *)
  check Alcotest.bool "smaller fits" true (Heap_file.update file rid "tiny");
  check (Alcotest.option Alcotest.string) "shrunk" (Some "tiny")
    (Heap_file.get file rid);
  check Alcotest.int "count unchanged" 1 (Heap_file.record_count file);
  Bufpool.assert_quiescent ~what:"update in place" buffer

let test_update_grows_within_page () =
  let buffer, device = make_store () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  let rid = Heap_file.insert file "ab" in
  check Alcotest.bool "grow fits via free space" true
    (Heap_file.update file rid (String.make 60 'x'));
  check (Alcotest.option Alcotest.string) "grown"
    (Some (String.make 60 'x'))
    (Heap_file.get file rid);
  Bufpool.assert_quiescent ~what:"update grows" buffer

let test_update_too_big_fails_cleanly () =
  let buffer, device = make_store ~page_size:128 () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  let rid = Heap_file.insert file "x" in
  (* Way beyond page capacity. *)
  check Alcotest.bool "does not fit" false
    (Heap_file.update file rid (String.make 120 'y'));
  check (Alcotest.option Alcotest.string) "original survives" (Some "x")
    (Heap_file.get file rid);
  Bufpool.assert_quiescent ~what:"update too big" buffer

let test_update_dead_rid () =
  let buffer, device = make_store () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  let rid = Heap_file.insert file "gone" in
  let _ = Heap_file.delete file rid in
  check Alcotest.bool "dead rid" false (Heap_file.update file rid "new");
  Bufpool.assert_quiescent ~what:"update dead rid" buffer

(* --- page chain + cold scan --- *)

let test_page_chain () =
  let buffer, device = make_store () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  for i = 0 to 99 do
    ignore (Heap_file.insert file (Printf.sprintf "record number %06d" i))
  done;
  let chain = Heap_file.page_chain file in
  check Alcotest.int "chain length" (Heap_file.page_count file)
    (List.length chain);
  (* Chain pages are distinct. *)
  check Alcotest.int "distinct" (List.length chain)
    (List.length (List.sort_uniq compare chain));
  Bufpool.assert_quiescent ~what:"page chain" buffer

let test_cold_scan () =
  let buffer, device = make_store ~frames:64 () in
  let file = Heap_file.create ~buffer ~device ~name:"t" in
  let tuples = List.init 200 (fun i -> Tuple.of_ints [ i ]) in
  let _ = Scan.materialize (Iterator.of_list tuples) ~into:file in
  (* Push everything out of the pool: the scan must read each page back
     from the device. *)
  Bufpool.flush_all buffer;
  Bufpool.purge_device buffer device;
  let chain = Heap_file.page_chain file in
  List.iter
    (fun page ->
      check Alcotest.bool
        (Printf.sprintf "page %d purged" page)
        false
        (Bufpool.contains buffer device page))
    chain;
  let misses_before = (Bufpool.stats buffer).misses in
  let rows = Iterator.to_list (Scan.heap file) in
  check Alcotest.int "all rows" 200 (List.length rows);
  check Alcotest.bool "rows in order" true (List.for_all2 Tuple.equal tuples rows);
  check Alcotest.bool "every page faulted in" true
    ((Bufpool.stats buffer).misses - misses_before >= List.length chain);
  Bufpool.assert_quiescent ~what:"cold scan" buffer

(* --- buffer statistics sanity --- *)

let test_buffer_hit_ratio () =
  let buffer, device = make_store ~frames:8 () in
  let page = Device.allocate device in
  let f = Bufpool.fix_new buffer device page in
  Bufpool.unfix buffer f;
  for _ = 1 to 100 do
    let f = Bufpool.fix buffer device page in
    Bufpool.unfix buffer f
  done;
  let stats = Bufpool.stats buffer in
  check Alcotest.bool "hits >= 100" true (stats.Bufpool.hits >= 100);
  check Alcotest.int "no evictions" 0 stats.Bufpool.evictions;
  Bufpool.assert_quiescent ~what:"hit ratio" buffer

let test_flush_all_persists () =
  let buffer, device = make_store () in
  let page = Device.allocate device in
  let f = Bufpool.fix_new buffer device page in
  Bytes.set (Bufpool.bytes f) 0 'Q';
  Bufpool.mark_dirty f;
  Bufpool.unfix buffer f;
  check Alcotest.int "nothing written yet" 0 (Device.writes device);
  Bufpool.flush_all buffer;
  check Alcotest.int "written once" 1 (Device.writes device);
  (* Purge and reload from the device. *)
  Bufpool.purge_device buffer device;
  let f = Bufpool.fix buffer device page in
  check Alcotest.char "content persisted" 'Q' (Bytes.get (Bufpool.bytes f) 0);
  Bufpool.unfix buffer f;
  Bufpool.assert_quiescent ~what:"flush all" buffer

(* --- vtoc encode/decode property --- *)

let prop_vtoc_roundtrip =
  QCheck.Test.make ~name:"vtoc encode/decode roundtrip" ~count:100
    QCheck.(
      list
        (pair
           (make ~print:Fun.id Gen.(string_size ~gen:printable (int_range 1 12)))
           (quad small_nat small_nat small_nat small_nat)))
    (fun entries ->
      (* Dedup names. *)
      let seen = Hashtbl.create 8 in
      let entries =
        List.filter
          (fun (name, _) ->
            if Hashtbl.mem seen name then false
            else begin
              Hashtbl.add seen name ();
              true
            end)
          entries
      in
      let v = Vtoc.create () in
      List.iter
        (fun (name, (a, b, c, d)) ->
          Vtoc.add v
            { Vtoc.name; first_page = a; last_page = b; pages = c; records = d })
        entries;
      let encoded = Vtoc.encode v in
      let v', consumed = Vtoc.decode encoded ~pos:0 in
      let _ = consumed in
      List.for_all
        (fun (name, (a, b, c, d)) ->
          match Vtoc.find v' name with
          | Some e ->
              e.first_page = a && e.last_page = b && e.pages = c && e.records = d
          | None -> false)
        entries
      && Vtoc.entry_count v' = List.length entries)

(* --- page header fields --- *)

let test_page_headers () =
  let page = Bytes.create 256 in
  Page.init page ~kind:3;
  Page.set_aux page 777;
  check Alcotest.int "aux" 777 (Page.aux page);
  Page.set_kind page 9;
  check Alcotest.int "kind" 9 (Page.kind page);
  check Alcotest.int "free space" (256 - Page.header_size) (Page.free_space page)

(* --- dead-slot bookkeeping --- *)

(* A page formatted before the dead-slot count was kept: its kind filled
   bytes 12..15, so the count's field reads 0.  It is counted from the
   directory, reused from its lowest dead slot, and recorded by its first
   insert or delete. *)
let test_page_old_header () =
  let page = Bytes.make 256 '\000' in
  Page.init page ~kind:1;
  List.iter (fun r -> ignore (Page.insert page r)) [ "aaaa"; "bbbb"; "cccc"; "dddd" ];
  ignore (Page.delete page 1);
  ignore (Page.delete page 3);
  (* the header as it was written before *)
  Bytes.set_int32_le page 12 1l;
  check Alcotest.int "old field" 0 (Bytes.get_uint16_le page 14);
  check Alcotest.int "kind" 1 (Page.kind page);
  check Alcotest.int "counted" 2 (Page.dead_slots page);
  check Alcotest.int "lowest dead slot" 1 (Page.insert page "eeee");
  check Alcotest.int "recorded" 2 (Bytes.get_uint16_le page 14);
  check Alcotest.int "next dead slot" 3 (Page.insert page "ffff");
  check Alcotest.int "a new slot" 4 (Page.insert page "gggg");
  check Alcotest.int "none dead" 0 (Page.dead_slots page);
  (* a delete records the count too *)
  Bytes.set_int32_le page 12 1l;
  check Alcotest.bool "delete" true (Page.delete page 0);
  check Alcotest.int "one dead" 1 (Page.dead_slots page);
  check Alcotest.int "field" 2 (Bytes.get_uint16_le page 14);
  check Alcotest.int "reused" 0 (Page.insert page "hhhh");
  (* a replace on an old page keeps the count *)
  Bytes.set_int32_le page 12 1l;
  check Alcotest.bool "replace" true (Page.replace page 2 "iiiiiiii");
  check Alcotest.int "still none dead" 0 (Page.dead_slots page);
  List.iteri
    (fun i r -> check (Alcotest.option Alcotest.string) "record" (Some r) (Page.read page i))
    [ "hhhh"; "eeee"; "iiiiiiii"; "ffff"; "gggg" ]

let test_page_kind_range () =
  let page = Bytes.make 64 '\000' in
  Page.init page ~kind:0xffff;
  check Alcotest.int "widest kind" 0xffff (Page.kind page);
  Alcotest.check_raises "kind past 16 bits"
    (Invalid_argument "Page.set_kind: kind out of range") (fun () ->
      Page.set_kind page 0x10000);
  Alcotest.check_raises "negative kind"
    (Invalid_argument "Page.set_kind: kind out of range") (fun () ->
      Page.set_kind page (-1))

let suite =
  [
    Alcotest.test_case "update in place" `Quick test_update_in_place;
    Alcotest.test_case "update grows within page" `Quick
      test_update_grows_within_page;
    Alcotest.test_case "oversized update fails cleanly" `Quick
      test_update_too_big_fails_cleanly;
    Alcotest.test_case "update dead rid" `Quick test_update_dead_rid;
    Alcotest.test_case "page chain" `Quick test_page_chain;
    Alcotest.test_case "cold scan after purge" `Quick test_cold_scan;
    Alcotest.test_case "buffer hit ratio" `Quick test_buffer_hit_ratio;
    Alcotest.test_case "flush_all persists dirty pages" `Quick
      test_flush_all_persists;
    Runner.qcheck prop_vtoc_roundtrip;
    Alcotest.test_case "page header fields" `Quick test_page_headers;
    Alcotest.test_case "a page with the old header" `Quick test_page_old_header;
    Alcotest.test_case "page kinds are 16 bits" `Quick test_page_kind_range;
  ]
