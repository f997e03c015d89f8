(* Sharded storage across worker sites, locked in by distributed
   differential tests.

   A stored table is partitioned into per-site heap files with a catalog
   entry recording the placement ([Volcano_storage.Shard] +
   [Volcano_plan.Partition]); a remote exchange over [Scan_table_slice]
   then scans shard [k] at the site holding partition [k].  The suite
   pins four claims:

   - partition function and catalog behave (every row routes to exactly
     one partition; the union of per-partition scans is the full table;
     the catalog byte image is stable — golden fixture);
   - a remote plan over a partitioned stored table equals the same plan
     run locally, across hash and range specs, identity and non-identity
     placements, the Unix and TCP lanes, and 2-3 real worker processes;
   - exchange-boundary repartitioning routes rows to the consumer the
     partition function names (a Distinct-based differential that fails
     under merge-order delivery);
   - the failure matrix holds at this scale: a site killed mid-shard-scan
     is exactly one [Query_failed], a corrupted TCP frame likewise, and
     walking away from a repartitioning edge tears down cleanly.

   Worker processes are this test binary re-executed in shard-worker
   mode ([worker_main], dispatched from [main.ml]); each rebuilds a
   site-local environment holding only the partitions its site owns. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Remote = Volcano_plan.Remote
module Partition = Volcano_plan.Partition
module Shard = Volcano_storage.Shard
module Heap_file = Volcano_storage.Heap_file
module Exchange = Volcano.Exchange
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Serial = Volcano_tuple.Serial
module Expr = Volcano_tuple.Expr
module Agg = Volcano_ops.Aggregate
module W = Volcano_wisconsin.Wisconsin
module Launcher = Volcano_net.Launcher
module Repart = Volcano_net.Repart
module Obs = Volcano_obs.Obs
module Fault = Volcano_fault
module Injector = Volcano_fault.Injector

let table = "wisc"

(* --- the shared vocabulary: spec, placement, shape ------------------- *)

(* Both sides of a socket derive the identical partitioned table from the
   task string alone; nothing but these few tokens crosses the wire. *)

let spec_of ~rows ~parts = function
  | "hash0" -> Partition.hash_spec [ W.column "unique1" ]
  | "hash4" -> Partition.hash_spec [ W.column "ten" ]
  | "range1" ->
      Partition.range_spec ~col:(W.column "unique2")
        ~bounds:
          (Array.init (parts - 1) (fun k ->
               Value.Int (((k + 1) * rows / parts) - 1)))
  | s -> failwith ("unknown partition spec " ^ s)

let sites_of ~parts = function
  | "id" -> Array.init parts Fun.id
  | "rot" -> Array.init parts (fun p -> (p + 1) mod parts)
  | "pack" ->
      (* two partitions per site: a site-local env serves several
         shards, and some worker sites hold nothing of other tables *)
      Array.init parts (fun p -> p / 2)
  | "away" ->
      (* the catalog's identity placement, but each worker loads the next
         site's partitions ([worker_main]): no site holds its own shard *)
      Array.init parts Fun.id
  | s -> failwith ("unknown placement " ^ s)

let shape_plan shape =
  let slice = Plan.Scan_table_slice table in
  match shape with
  | "scan" | "slow" -> slice
  | "filter" ->
      Plan.Filter
        {
          pred =
            Expr.Cmp (Expr.Lt, Expr.Col (W.column "ten"), Expr.Const (Value.Int 4));
          mode = `Compiled;
          input = slice;
        }
  | "agg" ->
      Plan.Aggregate
        {
          algo = Plan.Hash_based;
          group_by = [ W.column "two" ];
          aggs = [ Agg.Count; Agg.Sum (Expr.Col (W.column "ten")) ];
          input = slice;
        }
  | "distinct" ->
      Plan.Distinct
        {
          algo = Plan.Hash_based;
          on = [ 0 ];
          input = Plan.Project_cols { cols = [ W.column "twenty" ]; input = slice };
        }
  | s -> failwith ("unknown plan shape " ^ s)

let task_of ~rows ~parts ~spec ~placement ~shape =
  Printf.sprintf "stored:%d:%d:%s:%s:%s" rows parts spec placement shape

(* --- worker side ------------------------------------------------------ *)

(* Shard-worker main: [main.ml] dispatches here.  The worker plays site
   [sites.(shard)] — it materializes every partition that site owns (so
   non-identity placements work by construction) and compiles the sliced
   shape against that site-local environment. *)
let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      match String.split_on_char ':' task with
      | [ "stored"; rows; parts; spec_name; placement; shape ] ->
          let rows = int_of_string rows and parts = int_of_string parts in
          if parts <> shards then
            failwith
              (Printf.sprintf "task has %d parts but the edge runs %d shards"
                 parts shards);
          if shape = "fail" then failwith "planted shard failure";
          let env = Env.create ~frames:128 ~page_size:512 () in
          let spec = spec_of ~rows ~parts spec_name in
          let sites = sites_of ~parts placement in
          let site =
            if placement = "away" then (sites.(shard) + 1) mod parts
            else sites.(shard)
          in
          ignore
            (Partition.load_site env ~table ~schema:W.schema ~spec ~parts
               ~sites ~site ~count:rows
               ~gen:(W.generator ~n:rows ()) ());
          let open_ = Remote.shard_pull env ~shard ~shards (shape_plan shape) in
          if shape = "slow" then (fun read_set ->
            let next = open_ read_set in
            fun () ->
              Unix.sleepf 0.002;
              next ())
          else open_
      | _ -> failwith ("unknown shard task " ^ task))

let worker_command ~socket = [| Sys.executable_name; "shard-worker"; socket |]

(* --- parent side ------------------------------------------------------ *)

(* The parent holds the full table AND its partition files (split keeps
   the source registered), so one env serves both the local baseline and
   the catalog the analyzer consults. *)
let make_env ~rows ~parts ~spec ~placement =
  let env = Env.create ~frames:256 ~page_size:512 () in
  let file = Env.create_table env ~name:table ~schema:W.schema in
  let gen = W.generator ~n:rows () in
  for i = 0 to rows - 1 do
    ignore (Heap_file.insert file (Bytes.to_string (Serial.encode (gen i))))
  done;
  let counts =
    Partition.split env ~table
      ~spec:(spec_of ~rows ~parts spec)
      ~parts
      ~sites:(sites_of ~parts placement)
      ()
  in
  (env, counts)

let register ?lane ?obs ?pids ?address env =
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task
                                   ~packet_size ->
      let launched =
        Launcher.launch ~faults ?lane ?obs
          ?repartition:
            (Option.map
               (fun (spec, dests) -> Repart.of_partition_spec spec ~dests)
               repartition)
          ~command:worker_command ~workers ~task ~packet_size ()
      in
      Option.iter (fun r -> r := Array.to_list launched.Launcher.pids) pids;
      Option.iter (fun r -> r := launched.Launcher.address) address;
      launched.Launcher.sources)

let remote ?packet_size:(ps = 7) ?partition ~workers ~task input =
  Plan.Remote
    {
      cfg =
        Exchange.config ~degree:workers ~packet_size:ps ~flow_slack:(Some 4)
          ?partition ();
      workers;
      task;
      input;
    }

let sorted = Test_net.sorted

(* --- partition function and catalog properties ------------------------ *)

let test_partition_properties () =
  List.iter
    (fun (spec_name, parts, placement) ->
      let rows = 311 in
      let env, counts = make_env ~rows ~parts ~spec:spec_name ~placement in
      Alcotest.(check int)
        (Printf.sprintf "%s/%d: every row lands in exactly one partition"
           spec_name parts)
        rows
        (Array.fold_left ( + ) 0 counts);
      (* the union of per-partition scans IS the table *)
      let whole = sorted (Runner.run env (Plan.Scan_table table)) in
      let union =
        List.concat_map
          (fun part ->
            Runner.run env
              (Plan.Scan_table (Shard.partition_name ~table ~part)))
          (List.init parts Fun.id)
      in
      if sorted union <> whole then
        Alcotest.failf "%s/%d/%s: partition union differs from the table"
          spec_name parts placement;
      (* the catalog answers placement questions consistently *)
      let entry = Option.get (Shard.find (Env.catalog env) table) in
      let sites = sites_of ~parts placement in
      for part = 0 to parts - 1 do
        Alcotest.(check (option int))
          "site_of agrees with the placement"
          (Some sites.(part))
          (Shard.site_of (Env.catalog env) ~table ~part)
      done;
      let covered =
        List.concat_map
          (fun site -> Shard.partitions_of_site entry ~site)
          (List.sort_uniq compare (Array.to_list sites))
      in
      Alcotest.(check (list int))
        "sites jointly own every partition exactly once"
        (List.init parts Fun.id)
        (List.sort compare covered);
      (* a second registration of the same table is rejected *)
      (match Shard.add (Env.catalog env) entry with
      | () -> Alcotest.fail "duplicate catalog entry accepted"
      | exception Invalid_argument _ -> ());
      (* routing is total over the table's rows *)
      let route = Partition.route (spec_of ~rows ~parts spec_name) ~parts in
      let gen = W.generator ~n:rows () in
      for i = 0 to rows - 1 do
        let p = route (gen i) in
        if p < 0 || p >= parts then
          Alcotest.failf "row %d routed out of range (%d)" i p
      done)
    [
      ("hash0", 2, "id");
      ("hash0", 3, "rot");
      ("hash4", 3, "id");
      ("range1", 2, "id");
      ("range1", 3, "pack");
    ]

let test_catalog_validation () =
  let catalog = Shard.create () in
  let reject what entry =
    match Shard.add catalog entry with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  reject "zero parts"
    { Shard.table = "t"; parts = 0; spec = Shard.Hash [ 0 ]; sites = [||] };
  reject "sites shorter than parts"
    { Shard.table = "t"; parts = 2; spec = Shard.Hash [ 0 ]; sites = [| 0 |] };
  reject "negative site"
    {
      Shard.table = "t";
      parts = 2;
      spec = Shard.Hash [ 0 ];
      sites = [| 0; -1 |];
    };
  reject "negative hash column"
    { Shard.table = "t"; parts = 1; spec = Shard.Hash [ -3 ]; sites = [| 0 |] };
  reject "bounds not parts - 1"
    {
      Shard.table = "t";
      parts = 3;
      spec = Shard.Range (0, [| "x" |]);
      sites = [| 0; 1; 2 |];
    };
  Alcotest.(check int) "nothing registered" 0 (Shard.entry_count catalog)

(* The golden fixture: the exact byte image of a known catalog, asserted
   in both directions, alongside the Wire golden fixture — placement
   crossing a process (or version) boundary must not silently re-encode. *)
let golden_catalog () =
  let catalog = Shard.create () in
  Shard.add catalog
    {
      Shard.table = "orders";
      parts = 3;
      spec = Shard.Hash [ 0; 2 ];
      sites = [| 0; 1; 2 |];
    };
  Shard.add catalog
    {
      Shard.table = "part";
      parts = 2;
      spec =
        Shard.Range (1, [| Partition.encode_bound (Value.Int 500) |]);
      sites = [| 1; 0 |];
    };
  catalog

(* u16 count, then per entry (sorted by table name):
   u16 len | name | u16 parts | u8 tag | spec | parts x u16 site
   hash spec: u16 n, n x u16 col; range: u16 col, u16 n, n x (u16 len | bytes) *)
let golden_catalog_hex =
  "0200
   0600 6f7264657273 0300 01 0200 0000 0200 0000 0100 0200
   0400 70617274 0200 02 0100 0100 0b00 010001f401000000000000 0100 0000"

let hex_to_bytes hex =
  let compact =
    String.concat ""
      (String.split_on_char '\n' hex
      |> List.concat_map (String.split_on_char ' '))
  in
  let n = String.length compact / 2 in
  Bytes.init n (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub compact (i * 2) 2)))

let bytes_to_hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let test_catalog_golden () =
  let image = Shard.encode (golden_catalog ()) in
  Alcotest.(check string)
    "catalog byte image is pinned"
    (bytes_to_hex (hex_to_bytes golden_catalog_hex))
    (bytes_to_hex image);
  let decoded, consumed = Shard.decode image ~pos:0 in
  Alcotest.(check int) "decode consumes the image" (Bytes.length image) consumed;
  Alcotest.(check int) "both entries decoded" 2 (Shard.entry_count decoded);
  Alcotest.(check (list string))
    "tables survive" [ "orders"; "part" ] (Shard.tables decoded);
  Alcotest.(check string)
    "re-encode is the identity"
    (bytes_to_hex image)
    (bytes_to_hex (Shard.encode decoded));
  (* the range bound round-trips through the opaque encoding *)
  match Shard.find decoded "part" with
  | Some { Shard.spec = Shard.Range (1, [| bound |]); sites = [| 1; 0 |]; _ } ->
      Alcotest.(check bool)
        "bound decodes" true
        (Partition.decode_bound bound = Value.Int 500)
  | _ -> Alcotest.fail "part entry mangled"

let test_catalog_corruption () =
  let image = Shard.encode (golden_catalog ()) in
  (* every strict prefix must be rejected, never mis-decoded *)
  let rejected len =
    match Shard.decode (Bytes.sub image 0 len) ~pos:0 with
    | _ -> false
    | exception Shard.Corrupt_catalog _ -> true
  in
  Alcotest.(check bool)
    "all strict prefixes rejected" true
    (List.for_all rejected (List.init (Bytes.length image) Fun.id));
  let bad_tag = Bytes.copy image in
  (* the first entry's spec tag byte: u16 count, u16 len, 6 name bytes *)
  Bytes.set_uint8 bad_tag 12 9;
  match Shard.decode bad_tag ~pos:0 with
  | _ -> Alcotest.fail "unknown spec tag accepted"
  | exception Shard.Corrupt_catalog _ -> ()

(* --- the distributed differential ------------------------------------- *)

let differential ?lane ~rows ~parts ~spec ~placement ~shape () =
  let env, _ = make_env ~rows ~parts ~spec ~placement in
  register ?lane env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let plan = shape_plan shape in
  let local =
    sorted
      (Runner.run env
         (Plan.Exchange
            {
              cfg = Exchange.config ~degree:parts ~packet_size:7 ();
              input = plan;
            }))
  in
  let task = task_of ~rows ~parts ~spec ~placement ~shape in
  (match
     Test_net.run_with_timeout (fun () ->
         Runner.run env (remote ~workers:parts ~task plan))
   with
  | Test_net.Rows rows ->
      if sorted rows <> local then
        Alcotest.failf "remote diverges from local (%s)" task
  | Test_net.Raised exn ->
      Alcotest.failf "remote run failed (%s): %s" task
        (Printexc.to_string exn)
  | Test_net.Timeout -> Alcotest.failf "remote run hung (%s)" task);
  Test_net.check_quiescent ~what:("shard differential " ^ task) env ~unjoined0
    ~live0

let test_remote_differential () =
  List.iter
    (fun (spec, parts, placement, shape) ->
      differential ~rows:500 ~parts ~spec ~placement ~shape ())
    [
      ("hash0", 2, "id", "scan");
      ("hash0", 3, "rot", "scan");
      ("hash4", 3, "id", "filter");
      ("range1", 3, "pack", "scan");
      ("range1", 2, "id", "agg");
      ("hash0", 3, "id", "distinct");
    ]

let test_tcp_lane_differential () =
  (* the same claim across the TCP lane — plus proof it WAS the TCP
     lane, via the address the launcher handed its workers *)
  let env, _ = make_env ~rows:400 ~parts:3 ~spec:"hash0" ~placement:"id" in
  let address = ref "" in
  register ~lane:`Tcp ~address env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let plan = shape_plan "scan" in
  let local =
    sorted
      (Runner.run env
         (Plan.Exchange
            {
              cfg = Exchange.config ~degree:3 ~packet_size:7 ();
              input = plan;
            }))
  in
  let task =
    task_of ~rows:400 ~parts:3 ~spec:"hash0" ~placement:"id" ~shape:"scan"
  in
  (match
     Test_net.run_with_timeout (fun () ->
         Runner.run env (remote ~workers:3 ~task plan))
   with
  | Test_net.Rows rows ->
      Alcotest.(check bool) "tcp differential holds" true (sorted rows = local)
  | Test_net.Raised exn ->
      Alcotest.failf "tcp remote failed: %s" (Printexc.to_string exn)
  | Test_net.Timeout -> Alcotest.fail "tcp remote hung");
  Alcotest.(check bool)
    "workers dialed the TCP lane" true
    (String.length !address > 4 && String.sub !address 0 4 = "tcp:");
  Test_net.check_quiescent ~what:"tcp lane differential" env ~unjoined0 ~live0

(* --- exchange-boundary repartitioning --------------------------------- *)

(* The routing lock: distinct-per-consumer over a hash-repartitioned
   remote edge equals a serial global distinct ONLY if every duplicate of
   a key reaches the same consumer — merge-order (round-robin) delivery
   scatters duplicates and fails this check.  3 worker sites feed 2
   consumer ranks, so neither count can silently stand in for the
   other. *)
let test_repartition_differential () =
  let rows = 500 and parts = 3 and consumers = 2 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"id" in
  let obs = Obs.create () in
  register ~obs env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let ten = W.column "ten" in
  let serial =
    sorted
      (Runner.run env
         (Plan.Distinct
            {
              algo = Plan.Hash_based;
              on = [ 0 ];
              input =
                Plan.Project_cols
                  { cols = [ ten ]; input = Plan.Scan_table table };
            }))
  in
  let task =
    task_of ~rows ~parts ~spec:"hash0" ~placement:"id" ~shape:"scan"
  in
  let repartitioned =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:consumers ~packet_size:7 ();
        input =
          Plan.Distinct
            {
              algo = Plan.Hash_based;
              on = [ 0 ];
              input =
                Plan.Project_cols
                  {
                    cols = [ ten ];
                    input =
                      remote
                        ~partition:(Exchange.Hash_on [ ten ])
                        ~workers:parts ~task
                        (Plan.Scan_table_slice table);
                  };
            };
      }
  in
  (match Test_net.run_with_timeout (fun () -> Runner.run env repartitioned) with
  | Test_net.Rows rows ->
      Alcotest.(check bool)
        "per-consumer distinct over routed rows equals global distinct" true
        (sorted rows = serial)
  | Test_net.Raised exn ->
      Alcotest.failf "repartitioned run failed: %s" (Printexc.to_string exn)
  | Test_net.Timeout -> Alcotest.fail "repartitioned run hung");
  (* the per-site wire counters saw every site ship something *)
  for site = 0 to parts - 1 do
    let c = Obs.counter obs (Printf.sprintf "net.site%d.rows" site) in
    Alcotest.(check bool)
      (Printf.sprintf "site %d shipped rows" site)
      true
      (Obs.Counter.value c > 0)
  done;
  Test_net.check_quiescent ~what:"repartition differential" env ~unjoined0
    ~live0

(* --- the failure matrix at shard scale -------------------------------- *)

let test_killed_site_mid_scan () =
  let rows = 20000 and parts = 2 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"id" in
  let pids = ref [] in
  register ~pids env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let killer =
    Thread.create
      (fun () ->
        let rec await n =
          if !pids = [] && n > 0 then begin
            Unix.sleepf 0.01;
            await (n - 1)
          end
        in
        await 1000;
        Unix.sleepf 0.05;
        match !pids with
        | pid :: _ -> ( try Unix.kill pid Sys.sigkill with _ -> ())
        | [] -> ())
      ()
  in
  let task =
    task_of ~rows ~parts ~spec:"hash0" ~placement:"id" ~shape:"slow"
  in
  (match
     Test_net.run_with_timeout (fun () ->
         Runner.run env
           (remote ~workers:parts ~task (Plan.Scan_table_slice table)))
   with
  | Test_net.Raised (Exchange.Query_failed { site; _ }) ->
      if not (String.length site >= 10 && String.sub site 0 10 = "net-worker")
      then Alcotest.failf "killed site surfaced at %S" site
  | Test_net.Raised exn ->
      Alcotest.failf "killed site surfaced as %s, not Query_failed"
        (Printexc.to_string exn)
  | Test_net.Rows _ -> Alcotest.fail "query succeeded despite a killed site"
  | Test_net.Timeout -> Alcotest.fail "killed site hung the query");
  Thread.join killer;
  Test_net.check_quiescent ~what:"killed site" env ~unjoined0 ~live0

let test_tcp_frame_corruption () =
  let env, _ = make_env ~rows:2000 ~parts:2 ~spec:"hash0" ~placement:"id" in
  register ~lane:`Tcp env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  Env.set_faults env
    (Injector.make
       {
         Fault.seed = 17L;
         rules =
           [
             {
               Fault.site = Fault.Net_frame;
               trigger = Fault.At_hit 2;
               action = Fault.Fail;
             };
           ];
       });
  let task =
    task_of ~rows:2000 ~parts:2 ~spec:"hash0" ~placement:"id" ~shape:"scan"
  in
  (match
     Test_net.run_with_timeout (fun () ->
         Runner.run env
           (remote ~workers:2 ~task (Plan.Scan_table_slice table)))
   with
  | Test_net.Raised (Exchange.Query_failed { site; _ }) ->
      Alcotest.(check string)
        "truncated TCP frame surfaces at its own site"
        (Fault.site_name Fault.Net_frame)
        site
  | Test_net.Raised exn ->
      Alcotest.failf "frame corruption surfaced as %s" (Printexc.to_string exn)
  | Test_net.Rows _ -> Alcotest.fail "frame corruption never fired"
  | Test_net.Timeout -> Alcotest.fail "frame corruption hung the query");
  Env.clear_faults env;
  Test_net.check_quiescent ~what:"tcp frame corruption" env ~unjoined0 ~live0

let test_repartition_early_close () =
  let rows = 20000 and parts = 2 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"id" in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let task =
    task_of ~rows ~parts ~spec:"hash0" ~placement:"id" ~shape:"slow"
  in
  (match
     Test_net.run_with_timeout (fun () ->
         Runner.run env
           (Plan.Limit
              {
                count = 5;
                input =
                  Plan.Exchange
                    {
                      cfg = Exchange.config ~degree:2 ~packet_size:7 ();
                      input =
                        remote
                          ~partition:(Exchange.Hash_on [ 0 ])
                          ~workers:parts ~task
                          (Plan.Scan_table_slice table);
                    };
              }))
   with
  | Test_net.Rows rows -> Alcotest.(check int) "limit rows" 5 (List.length rows)
  | Test_net.Raised exn ->
      Alcotest.failf "early close failed: %s" (Printexc.to_string exn)
  | Test_net.Timeout ->
      Alcotest.fail "early close of a repartitioning edge hung");
  Test_net.check_quiescent ~what:"repartition early close" env ~unjoined0
    ~live0

(* --- planlint: placement (VL704) and skew (VL705) --------------------- *)

let vl_codes env plan =
  List.filter_map Volcano_plan.Diag.vl_code (Compile.analyze env plan)

let test_planlint_placement () =
  let env, _ = make_env ~rows:100 ~parts:3 ~spec:"hash0" ~placement:"id" in
  let task =
    task_of ~rows:100 ~parts:3 ~spec:"hash0" ~placement:"id" ~shape:"scan"
  in
  let slice = Plan.Scan_table_slice table in
  let under_exchange ?(degree = 2) inner =
    Plan.Exchange
      { cfg = Exchange.config ~degree ~packet_size:7 (); input = inner }
  in
  (* catalog says 3 partitions; a 2-worker edge misplaces shards *)
  Alcotest.(check bool)
    "VL704 on parts/workers disagreement" true
    (List.mem "VL704" (vl_codes env (remote ~workers:2 ~task slice)));
  (* matched counts are clean *)
  let clean = vl_codes env (remote ~workers:3 ~task slice) in
  Alcotest.(check bool)
    "matched parts/workers carry no VL704" false
    (List.mem "VL704" clean);
  (* a custom closure cannot cross a repartitioning edge *)
  Alcotest.(check bool)
    "VL704 on custom partition spec" true
    (List.mem "VL704"
       (vl_codes env
          (under_exchange
             (remote
                ~partition:(Exchange.Custom (fun () _ -> 0))
                ~workers:3 ~task slice))));
  (* broadcast is inexpressible on the wire *)
  Alcotest.(check bool)
    "VL704 on broadcast" true
    (List.mem "VL704"
       (vl_codes env
          (under_exchange
             (remote ~partition:Exchange.Broadcast ~workers:3 ~task slice))));
  (* range bounds must split into exactly the consumer count *)
  Alcotest.(check bool)
    "VL704 on range bounds vs consumers" true
    (List.mem "VL704"
       (vl_codes env
          (under_exchange ~degree:2
             (remote
                ~partition:
                  (Exchange.Range_on
                     (0, [| Value.Int 10; Value.Int 20 |]))
                ~workers:3 ~task slice))));
  (* hash on no columns: everything lands on one consumer *)
  Alcotest.(check bool)
    "VL705 on empty hash columns" true
    (List.mem "VL705"
       (vl_codes env
          (under_exchange
             (remote ~partition:(Exchange.Hash_on []) ~workers:3 ~task slice))));
  (* a duplicated hash column adds no spread *)
  Alcotest.(check bool)
    "VL705 on duplicate hash columns" true
    (List.mem "VL705"
       (vl_codes env
          (under_exchange
             (remote
                ~partition:(Exchange.Hash_on [ 0; 0 ])
                ~workers:3 ~task slice))));
  (* a well-formed repartitioning edge is clean of both *)
  let good =
    vl_codes env
      (under_exchange
         (remote ~partition:(Exchange.Hash_on [ 0 ]) ~workers:3 ~task slice))
  in
  Alcotest.(check bool)
    "good repartitioning plan carries no VL704/VL705" false
    (List.mem "VL704" good || List.mem "VL705" good);
  (* with one consumer every spec degenerates to a merge: no diagnostics *)
  let solo =
    vl_codes env
      (remote ~partition:(Exchange.Hash_on [ 0 ]) ~workers:3 ~task slice)
  in
  Alcotest.(check bool)
    "solo consumer carries no placement diagnostics" false
    (List.mem "VL704" solo || List.mem "VL705" solo)

(* --- ship only what is read ------------------------------------------- *)

(* Compile narrows every remote edge to the columns its consumers read;
   each site opens its stream with that projection.  Each
   case runs a plan with one edge over the stored table against a local
   plan over the whole table, and checks the columns the edge ships and
   the bytes per row that crossed the wire. *)
let narrow_case ~what ~plan ~local ~ships ~bytes_per_row =
  let rows = 600 and parts = 2 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"id" in
  let obs = Obs.create () in
  register ~obs env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let task = task_of ~rows ~parts ~spec:"hash0" ~placement:"id" ~shape:"scan" in
  let plan = plan (fun ?partition () -> remote ?partition ~workers:parts ~task (Plan.Scan_table_slice table)) in
  let rec edge p =
    match p with
    | Plan.Remote { input; _ } -> Some input
    | _ -> List.find_map edge (Plan.children p)
  in
  (match (ships, edge (Plan.narrow env plan)) with
  | None, Some input ->
      Alcotest.(check bool)
        (what ^ ": the edge ships every column") true
        (input = Plan.Scan_table_slice table);
      Alcotest.(check bool) (what ^ ": left as written") true (Plan.narrow env plan == plan)
  | Some cols, Some (Plan.Project_cols { cols = shipped; _ }) ->
      Alcotest.(check (list int)) (what ^ ": shipped columns") cols shipped
  | _ -> Alcotest.failf "%s: unexpected narrowed edge" what);
  let expected = sorted (Runner.run env local) in
  (match Test_net.run_with_timeout (fun () -> Runner.run env plan) with
  | Test_net.Rows got ->
      if sorted got <> expected then Alcotest.failf "%s: remote diverges from local" what
  | Test_net.Raised exn ->
      Alcotest.failf "%s: remote run failed: %s" what (Printexc.to_string exn)
  | Test_net.Timeout -> Alcotest.failf "%s: remote run hung" what);
  let total name =
    List.fold_left ( + ) 0
      (List.init parts (fun site ->
           Obs.Counter.value (Obs.counter obs (Printf.sprintf "net.site%d.%s" site name))))
  in
  Alcotest.(check int) (what ^ ": every row crossed") rows (total "rows");
  let per_row = float_of_int (total "bytes") /. float_of_int rows in
  let lo, hi = bytes_per_row in
  if per_row < lo || per_row >= hi then
    Alcotest.failf "%s: %.2f wire bytes per row, expected [%.0f, %.0f)" what per_row lo hi;
  Test_net.check_quiescent ~what env ~unjoined0 ~live0

let test_narrowed_differentials () =
  let c = W.column in
  let count_sum ~by ~sum input =
    Plan.Aggregate
      { algo = Plan.Hash_based; group_by = [ by ]; aggs = [ Agg.Count; Agg.Sum (Expr.Col sum) ]; input }
  in
  let whole = Plan.Scan_table table in
  (* read whole by the root: nothing narrows, 146-byte records cross *)
  narrow_case ~what:"unprojected edge" ~plan:(fun edge -> edge ()) ~local:whole
    ~ships:None ~bytes_per_row:(140.0, 150.0);
  (* the remote_ship shape: two parent ranks group by ten and sum
     unique1 over an edge routed on ten.  A record of two ints is 20
     bytes (a u16 field count, two tagged 8-byte ints); each frame adds
     its u16 count and u16 destination. *)
  narrow_case ~what:"aggregate over a routed edge"
    ~plan:(fun edge ->
      Plan.Exchange
        {
          cfg = Exchange.config ~degree:2 ();
          input =
            count_sum ~by:(c "ten") ~sum:(c "unique1")
              (edge ~partition:(Exchange.Hash_on [ c "ten" ]) ());
        })
    ~local:(count_sum ~by:(c "ten") ~sum:(c "unique1") whole)
    ~ships:(Some [ c "unique1"; c "ten" ])
    ~bytes_per_row:(20.0, 21.0);
  (* a filter, a sort and a repartitioning exchange between the consumer
     and the edge each add the columns they read *)
  narrow_case ~what:"filter, sort and exchange above the edge"
    ~plan:(fun edge ->
      count_sum ~by:(c "twenty") ~sum:(c "unique2")
        (Plan.Filter
           {
             pred = Expr.Cmp (Expr.Lt, Expr.Col (c "four"), Expr.Const (Value.Int 2));
             mode = `Compiled;
             input =
               Plan.Sort
                 {
                   key = [ (c "unique2", Volcano_tuple.Support.Asc) ];
                   input =
                     Plan.Exchange
                       {
                         cfg = Exchange.config ~degree:2 ~partition:(Exchange.Hash_on [ c "twenty" ]) ();
                         input = edge ();
                       };
                 };
           }))
    ~local:
      (count_sum ~by:(c "twenty") ~sum:(c "unique2")
         (Plan.Filter
            {
              pred = Expr.Cmp (Expr.Lt, Expr.Col (c "four"), Expr.Const (Value.Int 2));
              mode = `Compiled;
              input = whole;
            }))
    ~ships:(Some [ c "unique2"; c "four"; c "twenty" ])
    ~bytes_per_row:(29.0, 30.0);
  (* a range-repartitioned edge routes on a column the consumer does not
     read: it ships too, and the range is remapped onto it *)
  narrow_case ~what:"range-repartitioned edge"
    ~plan:(fun edge ->
      Plan.Exchange
        {
          cfg = Exchange.config ~degree:2 ();
          input =
            Plan.Project_cols
              {
                cols = [ c "twenty"; c "unique1" ];
                input =
                  edge
                    ~partition:(Exchange.Range_on (c "unique2", [| Value.Int 299 |]))
                    ();
              };
        })
    ~local:(Plan.Project_cols { cols = [ c "twenty"; c "unique1" ]; input = whole })
    ~ships:(Some [ c "unique1"; c "unique2"; c "twenty" ])
    ~bytes_per_row:(29.0, 30.0);
  (* counting reads no column: zero-column records, 2 bytes each *)
  narrow_case ~what:"count over the edge"
    ~plan:(fun edge ->
      Plan.Aggregate { algo = Plan.Hash_based; group_by = []; aggs = [ Agg.Count ]; input = edge () })
    ~local:(Plan.Aggregate { algo = Plan.Hash_based; group_by = []; aggs = [ Agg.Count ]; input = whole })
    ~ships:(Some []) ~bytes_per_row:(2.0, 3.0)

(* EXPLAIN ANALYZE renders the plan that ran: the site's projection under
   the remote exchange, whose packets all arrived. *)
let test_narrowed_profile () =
  let rows = 600 and parts = 2 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"id" in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let task = task_of ~rows ~parts ~spec:"hash0" ~placement:"id" ~shape:"scan" in
  let plan =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [ W.column "ten" ];
        aggs = [ Agg.Count ];
        input = remote ~workers:parts ~task (Plan.Scan_table_slice table);
      }
  in
  let report = ref None in
  (match
     Test_net.run_with_timeout (fun () ->
         report := Some (Volcano_plan.Profile.execute env plan);
         [])
   with
  | Test_net.Rows _ -> ()
  | Test_net.Raised exn ->
      Alcotest.failf "profiled remote run failed: %s" (Printexc.to_string exn)
  | Test_net.Timeout -> Alcotest.fail "profiled remote run hung");
  let r = Option.get !report in
  let lines =
    List.map String.trim
      (String.split_on_char '\n' (Volcano_plan.Profile.render r))
  in
  let rec after_remote = function
    | [] -> Alcotest.fail "no remote exchange in the profile"
    | l :: rest when String.starts_with ~prefix:"remote-exchange" l -> rest
    | _ :: rest -> after_remote rest
  in
  (match after_remote lines with
  | packets :: _flow :: _pool :: _group :: project :: _ ->
      Scanf.sscanf packets "packets: %d sent, %d received" (fun sent received ->
          Alcotest.(check int) "packets sent = received" sent received;
          Alcotest.(check bool) "packets crossed" true (sent > 0));
      Alcotest.(check bool)
        "the site's projection renders under the edge" true
        (String.starts_with ~prefix:"project [4]" project)
  | _ -> Alcotest.fail "profile too short");
  Test_net.check_quiescent ~what:"narrowed profile" env ~unjoined0 ~live0

(* --- the read set reaches the site's scan ------------------------------- *)

(* A site opens its stream with the edge's read set: the projection
   compiles into the scan's decode, so a record costs the columns it
   ships.  Opened in-process through the call perfbench's resolver makes,
   it allocates about 10 minor words per record; a whole 16-field decode
   followed by a per-record projection allocates about 69. *)
let test_site_allocates_read_set () =
  let rows = 8000 and shards = 2 in
  let env = Env.create ~frames:256 () in
  let counts =
    Partition.load_site env ~table ~schema:W.schema
      ~spec:(Partition.hash_spec [ W.column "unique1" ])
      ~parts:shards ~site:0 ~count:rows ~gen:(W.generator ~n:rows ()) ()
  in
  let open_ = Remote.shard_pull env ~shard:0 ~shards (Plan.Scan_table_slice table) in
  let next = open_ (Some [ W.column "unique1"; W.column "ten" ]) in
  let before = Gc.minor_words () in
  let rec drain n =
    match next () with
    | Some t ->
        if Array.length t <> 2 then Alcotest.failf "a record of %d columns" (Array.length t);
        drain (n + 1)
    | None -> n
  in
  let n = drain 0 in
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every row of the partition" counts.(0) n;
  if words >= 16.0 then
    Alcotest.failf "%.1f minor words per record; the read set is not decoded at the scan" words

(* Read-set shapes the sites now compile, each against the local plan: a
   hand projection in non-ascending column order, and a filter on a
   column the projection drops.  (A zero-column read set is "count over
   the edge" in [test_narrowed_differentials].) *)
let test_read_set_shapes () =
  let c = W.column in
  let rows = 600 and parts = 3 in
  let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement:"rot" in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let task shape = task_of ~rows ~parts ~spec:"hash0" ~placement:"rot" ~shape in
  let whole = Plan.Scan_table table in
  let project cols input = Plan.Project_cols { cols; input } in
  let filter = shape_plan "filter" in
  let local_filter =
    match filter with Plan.Filter f -> Plan.Filter { f with input = whole } | _ -> assert false
  in
  List.iter
    (fun (what, plan, local) ->
      match Test_net.run_with_timeout (fun () -> Runner.run env plan) with
      | Test_net.Rows got ->
          if sorted got <> sorted (Runner.run env local) then
            Alcotest.failf "%s: remote diverges from local" what
      | Test_net.Raised exn ->
          Alcotest.failf "%s: remote run failed: %s" what (Printexc.to_string exn)
      | Test_net.Timeout -> Alcotest.failf "%s: remote run hung" what)
    [
      ( "non-ascending hand projection",
        remote ~workers:parts ~task:(task "scan")
          (project [ c "ten"; c "unique1"; c "two" ] (Plan.Scan_table_slice table)),
        project [ c "ten"; c "unique1"; c "two" ] whole );
      ( "filter on a dropped column",
        remote ~workers:parts ~task:(task "filter") (project [ c "unique2"; c "four" ] filter),
        project [ c "unique2"; c "four" ] local_filter );
    ];
  Test_net.check_quiescent ~what:"read-set shapes" env ~unjoined0 ~live0

(* A site whose stream fails to open, after it has read the read set, is
   exactly one [Query_failed] carrying the site's planlint rejection, on
   both lanes: one site holds no partition of its shard (VL103), and one
   is asked for a column past its subtree's arity (VL101: the task names
   a 3-column aggregate, while the edge documents the 16-column scan the
   parent narrows). *)
let test_site_open_failures () =
  let c = W.column in
  let rows = 300 and parts = 2 in
  List.iter
    (fun lane ->
      List.iter
        (fun (what, code, placement, shape, input) ->
          let what = Printf.sprintf "%s (%s)" what (if lane = `Tcp then "tcp" else "unix") in
          let env, _ = make_env ~rows ~parts ~spec:"hash0" ~placement in
          register ~lane env;
          let unjoined0 = Exchange.unjoined_tasks () in
          let live0 = Exchange.live_tasks () in
          let task = task_of ~rows ~parts ~spec:"hash0" ~placement ~shape in
          (match
             Test_net.run_with_timeout (fun () ->
                 Runner.run env (remote ~workers:parts ~task input))
           with
          | Test_net.Raised
              (Exchange.Query_failed
                 { origin = Volcano.Port.Transport.Remote_failure { message; _ }; _ }) ->
              if not (Test_obs.contains message code) then
                Alcotest.failf "%s: the site failed with %s" what message
          | Test_net.Raised exn ->
              Alcotest.failf "%s: surfaced as %s" what (Printexc.to_string exn)
          | Test_net.Rows _ -> Alcotest.failf "%s: the query succeeded" what
          | Test_net.Timeout -> Alcotest.failf "%s: hung" what);
          Test_net.check_quiescent ~what env ~unjoined0 ~live0)
        [
          ( "a partition the site does not hold",
            "VL103",
            "away",
            "scan",
            Plan.Scan_table_slice table );
          ( "a read set past the subtree's arity",
            "VL101",
            "id",
            "agg",
            Plan.Project_cols { cols = [ c "twenty" ]; input = Plan.Scan_table_slice table } );
        ])
    [ `Unix; `Tcp ]

let suite =
  [
    Alcotest.test_case "partition function and catalog properties" `Quick
      test_partition_properties;
    Alcotest.test_case "catalog validation rejects malformed entries" `Quick
      test_catalog_validation;
    Alcotest.test_case "golden catalog fixture" `Quick test_catalog_golden;
    Alcotest.test_case "catalog corruption is detected" `Quick
      test_catalog_corruption;
    Alcotest.test_case "remote shard scan matches local over the matrix"
      `Slow test_remote_differential;
    Alcotest.test_case "TCP lane differential" `Slow test_tcp_lane_differential;
    Alcotest.test_case "repartitioning routes keys to their consumer" `Slow
      test_repartition_differential;
    Alcotest.test_case "killed site mid-shard-scan fails once, cleanly" `Slow
      test_killed_site_mid_scan;
    Alcotest.test_case "TCP frame corruption fails at its site" `Slow
      test_tcp_frame_corruption;
    Alcotest.test_case "early close cancels a repartitioning edge" `Slow
      test_repartition_early_close;
    Alcotest.test_case "planlint VL704/VL705 placement and skew" `Quick
      test_planlint_placement;
    Alcotest.test_case "narrowed edges match local" `Slow
      test_narrowed_differentials;
    Alcotest.test_case "the site allocates only the read set" `Quick
      test_site_allocates_read_set;
    Alcotest.test_case "read-set shapes match local" `Slow test_read_set_shapes;
    Alcotest.test_case "a site that fails to open fails once" `Slow
      test_site_open_failures;
    Alcotest.test_case "EXPLAIN ANALYZE shows the site's projection" `Slow
      test_narrowed_profile;
  ]
