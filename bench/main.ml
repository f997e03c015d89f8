(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section plus the ablations listed in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- experiment ...] [--json FILE]
           dune exec bench/main.exe -- --check BASELINE [--tolerance T]
           dune exec bench/main.exe -- --check-mq BASELINE [--tolerance T]
           dune exec bench/main.exe -- --check-batch BASELINE [--tolerance T]
           dune exec bench/main.exe -- --check-serve BASELINE [--tolerance T]
           dune exec bench/main.exe -- --check-shard BASELINE [--tolerance T]
           dune exec bench/main.exe -- --check-sql
   Experiments: t1 fig2 mq batch serve shard sql a1 a2 a3 a4 a5 a6 a7 a8
   micro all (default: all)
   --json FILE writes the machine-readable results the experiments
   accumulated (see Bench_common.json_add), e.g. BENCH_fig2.json.
   --check re-measures the fig2 sweep against a committed baseline JSON
   and exits nonzero when any packet size regresses beyond the tolerance
   (default 0.15); --check-mq does the same for the concurrent-query
   bench's pooled makespan against BENCH_mq.json; --check-batch does
   the same for the batch-size sweep against BENCH_batch.json and
   enforces the 2x best-batch-over-record-at-a-time floor; --check-serve
   re-drives the concurrent-client serving burst against BENCH_serve.json
   with a zero-dropped-requests floor; --check-shard re-runs the sharded
   stored-table aggregate against BENCH_shard.json with equal-results and
   fewer-bytes-over-the-wire floors; --check-sql re-plans the SQL
   acceptance query (join + group-by over a sharded table) with
   baseline-free floors: planlint-clean, at least one keyed exchange,
   rows equal to the hand-built plans, and wall clock within 1.3x of
   the hand-built parallel plan; `dune build @bench-smoke` runs all
   six.
   Environment: VOLCANO_RECORDS (default 100000),
                VOLCANO_SWEEP_RECORDS (default 30000),
                VOLCANO_BENCH_REPS (default 6; gated timings are
                min-of-reps),
                VOLCANO_SERVE_CLIENTS / VOLCANO_SERVE_REQUESTS /
                VOLCANO_SERVE_ROWS (default 500 / 4 / 64),
                VOLCANO_SHARD_ROWS (default 40000). *)

(* The shard bench re-executes this binary as its worker processes;
   dispatch before argument parsing ever sees the argv. *)
let () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "shard-worker" then begin
    Bench_shard.worker_main ~socket:Sys.argv.(2);
    exit 0
  end

let experiments =
  [
    ("t1", Bench_t1.run);
    ("fig2", Bench_fig2.run);
    ("mq", Bench_mq.run);
    ("batch", Bench_batch.run);
    ("serve", Bench_serve.run);
    ("shard", Bench_shard.run);
    ("sql", Bench_sql.run);
    ("a1", Bench_ablations.a1_flow_slack);
    ("a2", Bench_ablations.a2_fork_scheme);
    ("a3", Bench_ablations.a3_partition_balance);
    ("a4", Bench_ablations.a4_buffer_locking);
    ("a5", Bench_ablations.a5_division_partitioning);
    ("a6", Bench_ablations.a6_parallel_sort);
    ("a7", Bench_ablations.a7_speedup);
    ("a8", Bench_ablations.a8_broadcast);
    ("micro", Bench_micro.run);
  ]

type opts = {
  names : string list;
  json : string option;
  check : string option;
  check_mq : string option;
  check_batch : string option;
  check_serve : string option;
  check_shard : string option;
  check_sql : bool;
  tolerance : float;
}

let rec split_args opts = function
  | [] -> { opts with names = List.rev opts.names }
  | "--json" :: path :: rest -> split_args { opts with json = Some path } rest
  | "--json" :: [] ->
      prerr_endline "--json requires a FILE argument";
      exit 2
  | "--check" :: path :: rest -> split_args { opts with check = Some path } rest
  | "--check" :: [] ->
      prerr_endline "--check requires a BASELINE argument";
      exit 2
  | "--check-mq" :: path :: rest ->
      split_args { opts with check_mq = Some path } rest
  | "--check-mq" :: [] ->
      prerr_endline "--check-mq requires a BASELINE argument";
      exit 2
  | "--check-batch" :: path :: rest ->
      split_args { opts with check_batch = Some path } rest
  | "--check-batch" :: [] ->
      prerr_endline "--check-batch requires a BASELINE argument";
      exit 2
  | "--check-serve" :: path :: rest ->
      split_args { opts with check_serve = Some path } rest
  | "--check-serve" :: [] ->
      prerr_endline "--check-serve requires a BASELINE argument";
      exit 2
  | "--check-shard" :: path :: rest ->
      split_args { opts with check_shard = Some path } rest
  | "--check-shard" :: [] ->
      prerr_endline "--check-shard requires a BASELINE argument";
      exit 2
  | "--check-sql" :: rest -> split_args { opts with check_sql = true } rest
  | "--tolerance" :: t :: rest -> (
      match float_of_string_opt t with
      | Some tolerance when tolerance >= 0.0 ->
          split_args { opts with tolerance } rest
      | Some _ | None ->
          prerr_endline "--tolerance requires a non-negative number";
          exit 2)
  | "--tolerance" :: [] ->
      prerr_endline "--tolerance requires a number argument";
      exit 2
  | name :: rest -> split_args { opts with names = name :: opts.names } rest

let () =
  let opts =
    split_args
      {
        names = [];
        json = None;
        check = None;
        check_mq = None;
        check_batch = None;
        check_serve = None;
        check_shard = None;
        check_sql = false;
        tolerance = 0.15;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  (match opts.check with
  | Some baseline ->
      exit (if Bench_fig2.check ~baseline ~tolerance:opts.tolerance then 0 else 1)
  | None -> ());
  (match opts.check_mq with
  | Some baseline ->
      exit (if Bench_mq.check ~baseline ~tolerance:opts.tolerance then 0 else 1)
  | None -> ());
  (match opts.check_batch with
  | Some baseline ->
      exit
        (if Bench_batch.check ~baseline ~tolerance:opts.tolerance then 0 else 1)
  | None -> ());
  (match opts.check_serve with
  | Some baseline ->
      exit
        (if Bench_serve.check ~baseline ~tolerance:opts.tolerance then 0 else 1)
  | None -> ());
  (match opts.check_shard with
  | Some baseline ->
      exit
        (if Bench_shard.check ~baseline ~tolerance:opts.tolerance then 0 else 1)
  | None -> ());
  if opts.check_sql then exit (if Bench_sql.check () then 0 else 1);
  let names, json_path = (opts.names, opts.json) in
  let requested =
    match names with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  Printf.printf
    "Volcano reproduction benchmarks — paper: Graefe, \"Encapsulation of\n\
     Parallelism in the Volcano Query Processing System\" (1989/1990)\n\
     host: %d CPU core(s) available to this process\n"
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s all\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested;
  match json_path with
  | None -> ()
  | Some path ->
      Bench_common.write_json path;
      Printf.printf "\nresults written to %s\n" path
