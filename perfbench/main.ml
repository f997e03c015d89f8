(* The engine's benchmark: one command, three workloads, every answer
   checked.

   Usage (from the repository root, normally through perfbench/run.sh):

     main.exe --workload olap_join|serve_point|remote_ship --seed N
              --seconds S --trace 0|1
     main.exe --smoke

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   runs the workload again with the benchmark performing each layer's
   stages itself, and reports the per-layer metrics.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   metrics (each a value with its unit).  --smoke runs every workload
   briefly in both modes and exits nonzero on any wrong answer. *)

open Common

(* remote_ship re-executes this binary as its worker processes;
   dispatch before argument parsing sees the argv. *)
let () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = Remote_ship.worker_arg then begin
    Remote_ship.worker_main ~socket:Sys.argv.(2);
    exit 0
  end

let workloads =
  [
    ("olap_join", Olap_join.run);
    ("serve_point", Serve_point.run);
    ("remote_ship", Remote_ship.run);
  ]

(* The end-to-end metrics every workload reports with tracing off. *)
let end_to_end = [ "setup_s"; "latency_p50_ms"; "qps"; "peak_rss_mb" ]

(* The per-layer metrics every traced run reports, with units.  A metric
   whose layer a workload never enters (no SQL on remote_ship, no
   launcher on serve_point) reads 0. *)
let per_layer =
  [
    ("sql.parse_us", "us");
    ("sql.bind_us", "us");
    ("sql.optimize_us", "us");
    ("sql.candidates", "count");
    ("sql.exchange_degree", "count");
    ("analysis.analyze_us", "us");
    ("plan.compile_us", "us");
    ("sched.admission_wait_us", "us");
    ("sched.tasks_per_query", "count");
    ("sched.suspensions_per_query", "count");
    ("sched.steals_per_query", "count");
    ("sched.task_start_p50_us", "us");
    ("core.drain_ms", "ms");
    ("core.packets_per_query", "count");
    ("core.flow_waits_per_query", "count");
    ("core.flow_wait_ms", "ms");
    ("core.packet_reuse_ratio", "ratio");
    ("core.group_spawn_us", "us");
    ("core.group_join_us", "us");
    ("ops.scan_self_ms", "ms");
    ("ops.join_self_ms", "ms");
    ("ops.aggregate_self_ms", "ms");
    ("ops.sort_self_ms", "ms");
    ("storage.hit_ratio", "ratio");
    ("storage.misses_per_query", "count");
    ("storage.evictions_per_query", "count");
    ("storage.device_reads_per_query", "count");
    ("net.serve_overhead_us", "us");
    ("net.launch_ms", "ms");
    ("net.first_packet_ms", "ms");
    ("net.pull_wait_ms", "ms");
    ("net.wire_bytes_per_query", "bytes");
    ("net.rows_per_query", "count");
    ("obs.trace_overhead", "ratio");
    ("loadgen.late_p99_ms", "ms");
    ("layers.unattributed_frac", "ratio");
  ]
  @ List.map (fun l -> ("layers." ^ l ^ "_self_ms", "ms")) Common.layers

(* Complete the traced run's metrics to the full per-layer list, in its
   order; a metric the run did not produce reads 0. *)
let complete_per_layer (metrics : metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) metrics with
      | Some m -> m
      | None -> metric name unit 0.0)
    per_layer

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (number m.value) m.unit)
          metrics))

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit code) fmt

(* One workload run: returns whether every answer was right. *)
let run_one ~name p =
  let run =
    match List.assoc_opt name workloads with
    | Some run -> run
    | None -> die 2 "unknown workload %S (expected %s)" name
                (String.concat ", " (List.map fst workloads))
  in
  let r = run p in
  (match r.valid with Ok () -> () | Error why -> die 3 "%s run invalid: %s" name why);
  let metrics =
    if p.traced then complete_per_layer r.metrics
    else
      List.map
        (fun n ->
          match List.find_opt (fun m -> m.name = n) r.metrics with
          | Some m -> m
          | None -> die 4 "%s did not report %s" name n)
        end_to_end
  in
  List.iter print_endline r.notes;
  print_endline
    ("host: "
    ^ Volcano_obs.Jsonx.to_string
        (Host.fingerprint ~pool_workers:r.pool_workers
           ~batch_size:Volcano.Batch.default_size));
  List.iter (fun m -> Printf.printf "%-32s %14s %s\n" m.name (number m.value) m.unit) metrics;
  let attempted = M.attempted r.tally and failed = M.failed r.tally in
  Printf.printf "failed_frac: %g (%d of %d attempted)\n" (M.failed_frac r.tally)
    failed attempted;
  Option.iter (Printf.printf "first failure: %s\n") (Atomic.get first_failure);
  let correct = failed = 0 && attempted > 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  correct

let () =
  if not (Sys.file_exists "perfbench") then
    die 2 "run from the repository root";
  (match Host.validity () with Ok () -> () | Error why -> die 3 "run invalid: %s" why);
  ensure_out_dir ();
  Volcano_sql.Sql.install ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--smoke", Arg.Set smoke, " run every workload briefly, both modes");
    ]
    (fun a -> die 2 "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke then begin
    let ok =
      List.for_all
        (fun (name, _) ->
          List.for_all
            (fun traced ->
              run_one ~name { seed = !seed; seconds = 1.0; traced; smoke = true })
            [ false; true ])
        workloads
    in
    exit (if ok then 0 else 1)
  end;
  if !workload = "" then die 2 "--workload is required";
  if !seconds < 1 then die 2 "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace must be 0 or 1";
  ignore
    (run_one ~name:!workload
       { seed = !seed; seconds = float_of_int !seconds; traced = !trace = 1; smoke = false })
