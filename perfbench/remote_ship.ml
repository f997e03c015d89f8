(* remote_ship: closed loop, one client, a hand-built plan whose leaves
   run in worker processes: a Wisconsin relation hash-sharded across one
   site per core, every site shipping all its rows over a repartitioning
   edge keyed on ten, the parent ranks aggregating and gathering.  This
   is bulk use of the network layer — worker spawn, data frames, codec,
   routing, feeder domains — where serve_point uses it for small
   request/response frames.  (The optimizer does not place Remote, so
   the plan is built by hand.) *)

open Common
module Partition = Volcano_plan.Partition
module Remote = Volcano_plan.Remote
module Launcher = Volcano_net.Launcher
module Repart = Volcano_net.Repart
module Transport = Volcano.Port.Transport
module Agg = Volcano_ops.Aggregate
module Expr = Volcano_tuple.Expr

let rows = 40_000
let table = "wisc"
let sites = nproc
let spec = Partition.hash_spec [ W.column "unique1" ]
let worker_arg = "remote-worker"

(* The worker-side task: row count and seed, so every site derives the
   same relation and keeps only its own partition. *)
let task ~seed = Printf.sprintf "ship:%d:%Ld" rows seed

let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      match String.split_on_char ':' task with
      | [ "ship"; n; seed ] ->
          let n = int_of_string n and seed = Int64.of_string seed in
          let env = Env.create ~frames:256 () in
          ignore
            (Partition.load_site env ~table ~schema:W.schema ~spec ~parts:shards
               ~site:shard ~count:n ~gen:(W.generator ~seed ~n ()) ());
          Remote.shard_pull env ~shard ~shards (Plan.Scan_table_slice table)
      | _ -> failwith ("unknown remote_ship task " ^ task))

let aggregate ~ten ~u1 input =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ ten ];
      aggs = [ Agg.Count; Agg.Sum (Expr.Col u1) ];
      input;
    }

let plan ~seed =
  let ten = W.column "ten" and u1 = W.column "unique1" in
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:sites ();
      input =
        aggregate ~ten ~u1
          (Plan.Remote
             {
               cfg =
                 Exchange.config ~degree:sites
                   ~partition:(Exchange.Hash_on [ ten ])
                   ();
               workers = sites;
               task = task ~seed;
               input = Plan.Scan_table_slice table;
             });
    }

(* The local serial plan: the reference answer. *)
let serial_plan =
  aggregate ~ten:(W.column "ten") ~u1:(W.column "unique1") (Plan.Scan_table table)

(* --- the launcher hook ---------------------------------------------------- *)

(* What the traced run learns from outside the engine: launch time, the
   first data event, time blocked in pulls, and the launcher's per-site
   wire totals. *)
type probe = {
  trace : Trace.t;
  lock : Mutex.t;
  mutable active : bool;  (** a traced query is running *)
  mutable op : int;
  mutable drain : int;  (** span id of the running query's drain *)
  mutable launched_at : float;
  mutable first_data : float;
  mutable pull_s : float;
  mutable launches : Launcher.launched list;
}

let probe () =
  {
    trace = Trace.create ();
    lock = Mutex.create ();
    active = false;
    op = 0;
    drain = -1;
    launched_at = 0.0;
    first_data = 0.0;
    pull_s = 0.0;
    launches = [];
  }

let locked pr f =
  Mutex.lock pr.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pr.lock) f

(* Wrap a source's pull: each call is a net span under the drain. *)
let watch pr (src : Transport.source) =
  let pull ~alloc =
    let lo = now () in
    let ev = src.Transport.pull ~alloc in
    let hi = now () in
    locked pr (fun () ->
        if pr.active then begin
          pr.pull_s <- pr.pull_s +. (hi -. lo);
          (match ev with
          | (Transport.Data _ | Transport.Routed _) when pr.first_data = 0.0 ->
              pr.first_data <- hi
          | _ -> ());
          ignore
            (Trace.record pr.trace ~parent:pr.drain ~op:pr.op ~layer:"net"
               "net.pull" ~lo ~hi)
        end);
    ev
  in
  { src with Transport.pull }

let install pr env =
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task ~packet_size ->
      let lo = now () in
      let launched =
        Launcher.launch ~faults
          ?repartition:
            (Option.map
               (fun (spec, dests) -> Repart.of_partition_spec spec ~dests)
               repartition)
          ~command:(fun ~socket -> [| Sys.executable_name; worker_arg; socket |])
          ~workers ~task ~packet_size ()
      in
      let hi = now () in
      locked pr (fun () ->
          if pr.active then begin
            pr.launched_at <- hi;
            pr.launches <- launched :: pr.launches;
            ignore
              (Trace.record pr.trace ~parent:pr.drain ~op:pr.op ~layer:"net"
                 "net.launch" ~lo ~hi)
          end);
      Array.map (watch pr) launched.Launcher.sources)

(* --- the workload ----------------------------------------------------------- *)

let sorted rows = List.sort Tuple.compare rows
let check reference rows =
  if sorted rows = reference then M.Ok
  else fail M.Wrong "remote_ship: rows differ from the local serial plan's"

let build pr p () =
  let session = Session.create ~workers:(Sched.default_workers ()) () in
  let env = Session.env session in
  W.load ~seed:(seed64 p) ~env ~name:table ~n:rows ();
  ignore (Partition.split env ~table ~spec ~parts:sites ());
  install pr env;
  (* the reference answer, then a warm-up query *)
  let reference = sorted (Session.exec session (`Plan serial_plan)) in
  ignore (Session.exec session (`Plan (plan ~seed:(seed64 p))));
  (session, reference)

let site_totals launches =
  List.fold_left
    (fun (r, b) l ->
      Array.fold_left
        (fun (r, b) s ->
          (r + Atomic.get s.Launcher.rows, b + Atomic.get s.Launcher.bytes))
        (r, b) l.Launcher.stats)
    (0, 0) launches

let traced_query pr session plan ~op =
  let env = Session.env session in
  Trace.span pr.trace ~parent:(-1) ~op ~layer:"" "op" (fun root ->
      let stage layer name f =
        Trace.span pr.trace ~parent:root ~op ~layer name (fun _ -> f ())
      in
      ignore (stage "analysis" "analysis.analyze" (fun () -> Compile.analyze env plan));
      let iter =
        stage "plan" "plan.compile" (fun () -> Compile.compile ~check:false env plan)
      in
      locked pr (fun () ->
          pr.active <- true;
          pr.op <- op;
          pr.first_data <- 0.0);
      Fun.protect
        ~finally:(fun () -> locked pr (fun () -> pr.active <- false))
        (fun () ->
          admit_and_drain pr.trace session ~op ~parent:root iter
            ~on_drain:(fun id -> locked pr (fun () -> pr.drain <- id))))

let run p =
  let pr = probe () in
  let setup_s, (session, reference) =
    timed_setup p ~build:(build pr p) ~teardown:(fun (s, _) -> Session.close s)
  in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  let plan = plan ~seed:(seed64 p) in
  let tally = M.tally () in
  let exec () =
    match Session.exec session (`Plan plan) with
    | rows -> check reference rows
    | exception exn -> fail M.Error (Printexc.to_string exn)
  in
  let sizes =
    Printf.sprintf "remote_ship: %d rows hash-sharded over %d worker sites, repartitioned on ten into %d parent ranks"
      rows sites sites
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
    let plain, _ = closed_loop ~seconds:(p.seconds /. 3.0) ~tally exec in
    let counters = counters () in
    let first_packet = ref [] and pull_wait = ref [] in
    let op = ref 0 in
    let traced, _ =
      closed_loop ~seconds:(p.seconds *. 2.0 /. 3.0) ~tally (fun () ->
          incr op;
          let before = snapshot session in
          match traced_query pr session plan ~op:!op with
          | rows ->
              accumulate counters ~before ~after:(snapshot session);
              locked pr (fun () ->
                  if pr.first_data > 0.0 then
                    first_packet := (pr.first_data -. pr.launched_at) :: !first_packet;
                  pull_wait := pr.pull_s :: !pull_wait;
                  pr.pull_s <- 0.0);
              check reference rows
          | exception exn -> fail M.Error (Printexc.to_string exn))
    in
    let rows_shipped, bytes = locked pr (fun () -> site_totals pr.launches) in
    let queries = max 1 counters.queries in
    let profiled = profile_metrics ~n:2 session (`Plan plan) in
    Trace.write pr.trace ~path:(Filename.concat out_dir "remote_ship-spans.json");
    {
      metrics =
        [
          metric "net.first_packet_ms" "ms" (ms (median !first_packet));
          metric "net.pull_wait_ms" "ms" (ms (median !pull_wait));
          metric "net.wire_bytes_per_query" "bytes" (per_query bytes queries);
          metric "net.rows_per_query" "count" (per_query rows_shipped queries);
          metric "obs.trace_overhead" "ratio" (median traced /. median plain);
        ]
        @ stage_metrics pr.trace
        @ counter_metrics session counters
        @ profiled;
      tally;
      pool_workers = Sched.workers (Session.sched session);
      valid = Ok ();
      notes = sizes :: latency_notes ~p:0.9 traced;
    }
  end
