(* Bechamel micro-benchmarks: per-call costs underlying the T1 table —
   record creation/consumption, the procedure-call exchange boundary, the
   buffer manager's fix/unfix pair, packet filling, the interpreted vs
   compiled predicate paths, a hash join's build and probe (per 1k-row
   call, and per row of a 40k-row call), the record decode floors a
   scanned row pays, and a cursor's cost per page when every page
   misses. *)

open Bechamel
open Toolkit
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Group = Volcano.Group
module Packet = Volcano.Packet
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Expr = Volcano_tuple.Expr
module Tuple = Volcano_tuple.Tuple
module Serial = Volcano_tuple.Serial
module Heap_file = Volcano_storage.Heap_file
module Wire = Volcano_net.Wire
module Codec = Volcano_net.Codec

let batch = 1_000

let t1a_create_release () =
  ignore
    (Iterator.consume (Iterator.generate ~count:batch ~f:Bench_common.four_int_tuple))

let t1b_interchange () =
  let group = Group.solo () in
  let inner = Iterator.generate ~count:batch ~f:Bench_common.four_int_tuple in
  let wrapped =
    Exchange.interchange (Exchange.config ~degree:1 ()) ~group ~input:inner
  in
  ignore (Iterator.consume wrapped)

let fix_unfix =
  let pool = Bufpool.create ~frames:8 ~page_size:512 () in
  let dev = Device.create_virtual ~page_size:512 ~capacity:16 () in
  let page = Device.allocate dev in
  let f = Bufpool.fix_new pool dev page in
  Bufpool.unfix pool f;
  fun () ->
    for _ = 1 to batch do
      let f = Bufpool.fix pool dev page in
      Bufpool.unfix pool f
    done

let packet_fill =
  let tuple = Bench_common.four_int_tuple 7 in
  fun () ->
    let packet = Packet.create ~capacity:83 ~producer:0 in
    for _ = 1 to 83 do
      Packet.add packet tuple
    done;
    for i = 0 to 82 do
      ignore (Packet.get packet i)
    done

let predicate_paths =
  let open Expr.Infix in
  let pred = Expr.col 0 + Expr.int 3 < Expr.col 1 * Expr.int 2 in
  let tuple = Tuple.of_ints [ 5; 9; 1; 2 ] in
  let interpreted () =
    for _ = 1 to batch do
      ignore (Expr.Interp.pred pred tuple)
    done
  in
  let compiled = Expr.Compiled.pred pred in
  let compiled_fn () =
    for _ = 1 to batch do
      ignore (compiled tuple)
    done
  in
  (interpreted, compiled_fn)

let hash_join probe build =
  ignore
    (Iterator.consume
       (Volcano_ops.Hash_match.iterator ~kind:Volcano_ops.Match_op.Join
          ~left_key:[ 0 ] ~right_key:[ 0 ] ~left_arity:4 ~right_arity:4 probe
          build))

let reversed rows =
  Array.init rows (fun i -> Bench_common.four_int_tuple (rows - 1 - i))

(* One in-memory hash join: build a table of [batch] distinct int keys,
   then probe it with [batch] matching tuples. *)
let hash_join_build_probe =
  let build = Array.init batch Bench_common.four_int_tuple in
  let probe = reversed batch in
  fun () -> hash_join (Iterator.of_array probe) (Iterator.of_array build)

(* The same join over 40k rows, its build rows made in the call, as a
   scan or an exchange hands a build side fresh rows.  A 1k call never
   meets a minor collection; this one meets several, and each promotes
   whatever the table keeps of its young build rows. *)
let join_rows = 40_000

let hash_join_build_probe_40k =
  let probe = reversed join_rows in
  fun () ->
    hash_join (Iterator.of_array probe)
      (Iterator.generate ~count:join_rows ~f:Bench_common.four_int_tuple)

(* One stored 16-field Wisconsin record decoded in place: the projected
   decode of one int column steps over the other 15 fields, the slice
   decode materializes all 16. *)
let decode_paths =
  let record =
    Serial.encode (Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7)
  in
  let len = Bytes.length record in
  let proj = Serial.projection [ 0 ] in
  ( (fun () -> ignore (Serial.decode_projected proj record ~off:0 ~len)),
    fun () -> ignore (Serial.decode_slice record ~off:0 ~len) )

(* One 16-field Wisconsin record (146 bytes) encoded into a preallocated
   buffer. *)
let encode_16 =
  let t = Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7 in
  let buf = Bytes.create (Serial.encoded_size t) in
  fun () -> ignore (Serial.encode_into t buf ~pos:0)

(* An 83-record packet of 16-field records, the default wire unit:
   encoded into a connection's frame and written (to /dev/null, so the
   write is one cheap syscall), then its payload decoded into a shell. *)
let codec_packet_83 =
  let gen = Volcano_wisconsin.Wisconsin.generator ~n:1000 () in
  let packet = Packet.create ~capacity:83 ~producer:0 in
  for i = 0 to 82 do
    Packet.add packet (gen i)
  done;
  let conn = Wire.conn (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0) in
  let payload = Codec.encode packet in
  let len = Bytes.length payload in
  let shell = Packet.create ~capacity:83 ~producer:0 in
  fun () ->
    Codec.send conn packet;
    Packet.reset shell;
    Codec.decode_into ~len payload shell

(* One pre-encoded 146-byte record inserted onto a resident page, and
   deleted again so the page never fills: the insert reuses the dead
   slot, and a compaction of the empty page now and then returns its
   space. *)
let heap_insert =
  let page_size = 8192 in
  let buffer = Bufpool.create ~frames:8 ~page_size () in
  let device = Device.create_virtual ~page_size ~capacity:16 () in
  let file = Heap_file.create ~buffer ~device ~name:"micro" in
  let record =
    Serial.encode_string (Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7)
  in
  fun () -> ignore (Heap_file.delete file (Heap_file.insert file record))

(* A cursor over a virtual-device file four times a 64-frame pool, so
   every page it reaches misses: the per-page-miss floor (fix a run,
   step its records in the frame, unfix the run), reported per page. *)
let scan_pool_frames = 64
let scan_pages = 4 * scan_pool_frames

let buffer_scan_out_of_pool =
  let page_size = 4096 in
  let buffer = Bufpool.create ~frames:scan_pool_frames ~page_size () in
  let device =
    Device.create_virtual ~page_size ~capacity:(scan_pages + 2) ()
  in
  let file = Heap_file.create ~buffer ~device ~name:"scan" in
  let record =
    Serial.encode_string (Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7)
  in
  while Heap_file.page_count file < scan_pages do
    ignore (Heap_file.insert file record)
  done;
  fun () ->
    let cursor = Heap_file.scan file in
    while Heap_file.advance cursor do
      ()
    done

(* Tests whose one call covers many units: the printed figure is per
   unit. *)
let per_unit =
  [
    ("buffer-scan-out-of-pool", (scan_pages, "page"));
    ("hash-join-build-probe-40k", (join_rows, "row"));
  ]

let tests =
  let interpreted, compiled = predicate_paths in
  let projected, slice = decode_paths in
  Test.make_grouped ~name:"volcano"
    [
      Test.make ~name:"t1a-create-release-1k" (Staged.stage t1a_create_release);
      Test.make ~name:"t1b-interchange-1k" (Staged.stage t1b_interchange);
      Test.make ~name:"buffer-fix-unfix-1k" (Staged.stage fix_unfix);
      Test.make ~name:"packet-fill-83" (Staged.stage packet_fill);
      Test.make ~name:"pred-interpreted-1k" (Staged.stage interpreted);
      Test.make ~name:"pred-compiled-1k" (Staged.stage compiled);
      Test.make ~name:"hash-join-build-probe-1k"
        (Staged.stage hash_join_build_probe);
      Test.make ~name:"hash-join-build-probe-40k"
        (Staged.stage hash_join_build_probe_40k);
      Test.make ~name:"decode-projected-1of16" (Staged.stage projected);
      Test.make ~name:"decode-slice-16" (Staged.stage slice);
      Test.make ~name:"encode-16" (Staged.stage encode_16);
      Test.make ~name:"codec-packet-83" (Staged.stage codec_packet_83);
      Test.make ~name:"heap-insert" (Staged.stage heap_insert);
      Test.make ~name:"buffer-scan-out-of-pool"
        (Staged.stage buffer_scan_out_of_pool);
    ]

let run () =
  Bench_common.header "Micro-benchmarks (bechamel, ns per call)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.iter
    (fun name ->
      let result = Hashtbl.find results name in
      let units, unit =
        match
          List.find_opt
            (fun (test, _) -> String.ends_with ~suffix:("/" ^ test) name)
            per_unit
        with
        | Some (_, (n, unit)) -> (float_of_int n, " per " ^ unit)
        | None -> (1.0, "")
      in
      match Analyze.OLS.estimates result with
      | Some (est :: _) ->
          Printf.printf "%-36s %14.1f ns%s\n" name (est /. units) unit
      | _ -> Printf.printf "%-36s %14s\n" name "n/a")
    (List.sort compare names)
