(* olap_join: closed loop, one client, one analytical SQL query whose
   optimized plan repartitions, hash-joins, aggregates in two phases and
   merges — the exchange, operator and out-of-cache storage layers do
   nearly all the work; the front end is a rounding error.

   emp is a plain Wisconsin table, hemp the same relation hash-sharded on
   unique1; each is several times the buffer pool. *)

open Common
module Sql = Volcano_sql.Sql
module Optimizer = Volcano_sql.Optimizer
module Partition = Volcano_plan.Partition
module Agg = Volcano_ops.Aggregate
module Expr = Volcano_tuple.Expr

let rows = 40_000
let parts = 3

let query =
  "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h JOIN emp AS e ON \
   (h.unique1 = e.unique1) GROUP BY h.ten ORDER BY h.ten"

(* The serial hand plan: the reference answer, computed before timing. *)
let serial_plan =
  let u1 = W.column "unique1" in
  Plan.Sort
    {
      key = [ (0, Volcano_tuple.Support.Asc) ];
      input =
        Plan.Aggregate
          {
            algo = Plan.Hash_based;
            group_by = [ W.column "ten" ];
            aggs = [ Agg.Count; Agg.Sum (Expr.Col (16 + u1)) ];
            input =
              Plan.Match
                {
                  algo = Plan.Hash_based;
                  kind = Volcano_ops.Match_op.Join;
                  left_key = [ u1 ];
                  right_key = [ u1 ];
                  left = Plan.Scan_table "hemp";
                  right = Plan.Scan_table "emp";
                };
          };
    }

let build p () =
  let session = Session.create ~workers:(Sched.default_workers ()) () in
  let env = Session.env session in
  let seed = seed64 p in
  W.load ~seed ~env ~name:"emp" ~n:rows ();
  W.load ~seed ~env ~name:"hemp" ~n:rows ();
  ignore
    (Partition.split env ~table:"hemp"
       ~spec:(Partition.hash_spec [ W.column "unique1" ])
       ~parts ());
  (* the reference answer, then a warm-up query: pool start and first
     touch are set-up, not query time *)
  let reference = Session.exec session (`Plan serial_plan) in
  ignore (Session.query session query);
  (session, reference)

let pages session name =
  Volcano_storage.Heap_file.page_count
    (fst (Env.table (Session.env session) name))

let check reference rows =
  if rows = reference then M.Ok
  else fail M.Wrong "olap_join: rows differ from the serial hand plan's"

(* One query through the traced stages, as [Session.exec] would run it. *)
let traced_query trace session counters ~op =
  let env = Session.env session in
  Trace.span trace ~parent:(-1) ~op ~layer:"" "op" (fun root ->
      let stage layer name f = Trace.span trace ~parent:root ~op ~layer name (fun _ -> f ()) in
      let ast = stage "sql" "sql.parse" (fun () -> Sql.parse query) in
      let bound = stage "sql" "sql.bind" (fun () -> Sql.bind env ast) in
      let choice =
        stage "sql" "sql.optimize" (fun () -> Optimizer.optimize env bound)
      in
      let plan = choice.Optimizer.plan in
      ignore (stage "analysis" "analysis.analyze" (fun () -> Compile.analyze env plan));
      let iter =
        stage "plan" "plan.compile" (fun () -> Compile.compile ~check:false env plan)
      in
      let before = snapshot session in
      let rows = admit_and_drain trace session ~op ~parent:root iter in
      accumulate counters ~before ~after:(snapshot session);
      (choice, rows))

let run p =
  let setup_s, (session, reference) =
    timed_setup p ~build:(build p) ~teardown:(fun (s, _) -> Session.close s)
  in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  let tally = M.tally () in
  let exec () =
    match Session.query session query with
    | rows -> check reference rows
    | exception exn -> fail M.Error (Printexc.to_string exn)
  in
  let sizes =
    Printf.sprintf "olap_join: %d rows x 2 tables (%d + %d pages, %d frames), hemp in %d shards"
      rows (pages session "emp") (pages session "hemp")
      (Bufpool.frames_total (Env.buffer (Session.env session))) parts
  in
  if not p.traced then begin
    let lat, elapsed = closed_loop ~seconds:p.seconds ~tally exec in
    let qps = float_of_int (List.length lat) /. elapsed in
    {
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "latency_p50_ms" "ms" (ms (median lat));
          metric "qps" "1/s" qps;
          metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        ];
      tally;
      pool_workers = Sched.workers (Session.sched session);
      valid = Ok ();
      notes = sizes :: latency_notes ~p:0.9 lat;
    }
  end
  else begin
    (* untraced reference for the overhead ratio, then the traced loop *)
    let plain, _ = closed_loop ~seconds:(p.seconds /. 3.0) ~tally exec in
    let trace = Trace.create () in
    let counters = counters () in
    let op = ref 0 and last_choice = ref None in
    let traced, _ =
      closed_loop ~seconds:(p.seconds *. 2.0 /. 3.0) ~tally (fun () ->
          incr op;
          match traced_query trace session counters ~op:!op with
          | choice, rows ->
              last_choice := Some choice;
              check reference rows
          | exception exn -> fail M.Error (Printexc.to_string exn))
    in
    let profiled = profile_metrics ~n:2 session (`Sql query) in
    let choice = Option.get !last_choice in
    Trace.write trace ~path:(Filename.concat out_dir "olap_join-spans.json");
    {
      metrics =
        [
          metric "sql.candidates" "count"
            (float_of_int (List.length choice.Optimizer.notes));
          metric "sql.exchange_degree" "count"
            (float_of_int (exchange_degree choice.Optimizer.plan));
          metric "obs.trace_overhead" "ratio" (median traced /. median plain);
        ]
        @ stage_metrics trace
        @ counter_metrics session counters
        @ profiled;
      tally;
      pool_workers = Sched.workers (Session.sched session);
      valid = Ok ();
      notes = sizes :: latency_notes ~p:0.9 traced;
    }
  end
