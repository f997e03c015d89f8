(* The volcano command-line interface: run and explain demo queries over a
   generated Wisconsin relation, serially or parallelized with exchange.

   Queries execute through the [Session] facade: a session owns the
   environment, the worker-pool scheduler, and the multi-query runtime;
   [--workers] sizes a private pool for the invocation.

   Examples:
     volcano list
     volcano explain parallel-join --degree 4
     volcano run aggregate --rows 50000
     volcano run parallel-sort --degree 3 --rows 100000 --workers 8
     volcano analyze bad-plan --degree 3
     volcano sim --packet-size 5 *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Session = Volcano_plan.Session
module Parallel = Volcano_plan.Parallel
module Remote = Volcano_plan.Remote
module Partition = Volcano_plan.Partition
module Shard = Volcano_storage.Shard
module Heap_file = Volcano_storage.Heap_file
module Serial = Volcano_tuple.Serial
module Value = Volcano_tuple.Value
module Exchange = Volcano.Exchange
module Expr = Volcano_tuple.Expr
module Tuple = Volcano_tuple.Tuple
module Support = Volcano_tuple.Support
module W = Volcano_wisconsin.Wisconsin
module Sql = Volcano_sql.Sql
module Clock = Volcano_util.Clock
module Serve = Volcano_net.Serve
module Obs = Volcano_obs.Obs

type query = {
  name : string;
  describe : string;
  build : rows:int -> degree:int -> Plan.t;
}

let col = W.column

let filter_pred =
  Expr.Infix.( = ) (Expr.col (col "two")) (Expr.int 0)

let queries =
  [
    {
      name = "selection";
      describe = "50% selection (two = 0), serial scan";
      build =
        (fun ~rows ~degree:_ ->
          Plan.Filter
            { pred = filter_pred; mode = `Compiled; input = W.plan ~n:rows () });
    };
    {
      name = "aggregate";
      describe = "group by ten: count + sum(unique1), hash aggregation";
      build =
        (fun ~rows ~degree:_ ->
          Plan.Aggregate
            {
              algo = Plan.Hash_based;
              group_by = [ col "ten" ];
              aggs =
                [
                  Volcano_ops.Aggregate.Count;
                  Volcano_ops.Aggregate.Sum (Expr.col (col "unique1"));
                ];
              input = W.plan ~n:rows ();
            });
    };
    {
      name = "parallel-aggregate";
      describe = "the same aggregation, hash-partitioned across a process group";
      build =
        (fun ~rows ~degree ->
          Parallel.partitioned_aggregate ~degree ~algo:Plan.Hash_based
            ~group_by:[ col "ten" ]
            ~aggs:
              [
                Volcano_ops.Aggregate.Count;
                Volcano_ops.Aggregate.Sum (Expr.col (col "unique1"));
              ]
            (W.plan_slice ~n:rows ()));
    };
    {
      name = "join";
      describe = "self-equi-join on unique1 (hash), serial";
      build =
        (fun ~rows ~degree:_ ->
          Plan.Match
            {
              algo = Plan.Hash_based;
              kind = Volcano_ops.Match_op.Join;
              left_key = [ col "unique1" ];
              right_key = [ col "unique1" ];
              left = W.plan ~seed:1L ~n:rows ();
              right = W.plan ~seed:2L ~n:(rows / 4) ();
            });
    };
    {
      name = "parallel-join";
      describe = "GAMMA-style repartitioned parallel hash join";
      build =
        (fun ~rows ~degree ->
          Parallel.partitioned_match ~degree ~algo:Plan.Hash_based
            ~kind:Volcano_ops.Match_op.Join
            ~left_key:[ col "unique1" ]
            ~right_key:[ col "unique1" ]
            ~left:(W.plan_slice ~seed:1L ~n:rows ())
            ~right:(W.plan_slice ~seed:2L ~n:(rows / 4) ())
            ());
    };
    {
      name = "sort";
      describe = "external sort on unique1, serial";
      build =
        (fun ~rows ~degree:_ ->
          Plan.Sort { key = [ (col "unique1", Support.Asc) ]; input = W.plan ~n:rows () });
    };
    {
      name = "parallel-sort";
      describe = "merge network: sorted slices merged by producer";
      build =
        (fun ~rows ~degree ->
          Parallel.parallel_sort ~degree
            ~key:[ (col "unique1", Support.Asc) ]
            (W.plan_slice ~n:rows ()));
    };
    {
      name = "two-phase-aggregate";
      describe = "aggregation with local pre-aggregation before repartitioning";
      build =
        (fun ~rows ~degree ->
          Parallel.partitioned_aggregate_two_phase ~degree
            ~group_by:[ col "ten" ]
            ~aggs:
              [
                Volcano_ops.Aggregate.Count;
                Volcano_ops.Aggregate.Avg (Expr.col (col "unique1"));
              ]
            (W.plan_slice ~n:rows ()));
    };
    {
      name = "division";
      describe = "hash-division: students enrolled in every required course";
      build =
        (fun ~rows ~degree:_ ->
          let courses = 20 in
          let gen i = Tuple.of_ints [ i / courses; i mod courses ] in
          Plan.Division
            {
              algo = `Hash;
              quotient = [ 0 ];
              divisor_attrs = [ 1 ];
              divisor_key = [ 0 ];
              dividend =
                Plan.Filter
                  {
                    pred =
                      Expr.Infix.( <> )
                        (Expr.Mod (Expr.Infix.( + ) (Expr.col 0) (Expr.col 1), Expr.int 7))
                        (Expr.int 0);
                    mode = `Compiled;
                    input = Plan.Generate { arity = 2; count = rows; gen };
                  };
              divisor =
                (* the three required courses *)
                Plan.Generate
                  { arity = 1; count = 3; gen = (fun i -> Tuple.of_ints [ i + 1 ]) };
            });
    };
    {
      name = "bad-plan";
      describe =
        "deliberately malformed: bad partition column, unsorted merge, \
         flow-controlled merge network (demo for `analyze`)";
      build =
        (fun ~rows ~degree ->
          (* Three planted defects: the partition column 99 is out of range,
             the merge producers are not sorted on the merge key, and the
             flow-controlled merge network sits inside a parallel consumer
             group (the section 4.4 deadlock hazard). *)
          Plan.Exchange
            {
              cfg = Exchange.config ~degree ();
              input =
                Plan.Exchange_merge
                  {
                    cfg = Exchange.config ~degree ~flow_slack:(Some 2) ();
                    key = [ (col "unique1", Support.Asc) ];
                    input =
                      Plan.Exchange
                        {
                          cfg =
                            Exchange.config ~degree
                              ~partition:(Exchange.Hash_on [ 99 ]) ();
                          input = W.plan_slice ~n:rows ();
                        };
                  };
            });
    };
    {
      name = "pipeline";
      describe = "the section 4.3 eight-process pipeline (exchange x2)";
      build =
        (fun ~rows ~degree:_ ->
          let y =
            Plan.Exchange
              { cfg = Exchange.config ~degree:4 (); input = W.plan_slice ~n:rows () }
          in
          let c =
            Plan.Filter
              {
                pred = Expr.Infix.( = ) (Expr.col (col "ten_percent")) (Expr.int 0);
                mode = `Compiled;
                input = y;
              }
          in
          let b = Plan.Project_cols { cols = [ col "unique1"; col "four" ]; input = c } in
          Plan.Exchange { cfg = Exchange.config ~degree:3 (); input = b });
    };
    {
      name = "remote-scan";
      describe = "Wisconsin scan sharded across worker processes (remote exchange)";
      build =
        (fun ~rows ~degree ->
          Plan.Remote
            {
              cfg = Exchange.config ~degree ~flow_slack:(Some 4) ();
              workers = degree;
              task = Printf.sprintf "wisconsin:%d" rows;
              input = W.plan_slice ~n:rows ();
            });
    };
    {
      name = "remote-aggregate";
      describe = "group by ten over a network-distributed scan";
      build =
        (fun ~rows ~degree ->
          Plan.Aggregate
            {
              algo = Plan.Hash_based;
              group_by = [ col "ten" ];
              aggs =
                [
                  Volcano_ops.Aggregate.Count;
                  Volcano_ops.Aggregate.Sum (Expr.col (col "unique1"));
                ];
              input =
                Plan.Remote
                  {
                    cfg = Exchange.config ~degree ~flow_slack:(Some 4) ();
                    workers = degree;
                    task = Printf.sprintf "wisconsin:%d" rows;
                    input = W.plan_slice ~n:rows ();
                  };
            });
    };
  ]

let find_query name =
  match List.find_opt (fun q -> String.equal q.name name) queries with
  | Some q -> Ok q
  | None ->
      Error
        (Printf.sprintf "unknown query %S; try: %s" name
           (String.concat ", " (List.map (fun q -> q.name) queries)))

(* --- the shared task vocabulary -------------------------------------- *)

(* Tasks name plans by value, so one binary plays all three roles with
   one vocabulary: the serve daemon executes them, remote exchange
   workers rebuild and shard them, and clients (or [Plan.Remote] nodes)
   mint them.

     wisconsin:<rows>[:<seed>]       the sliceable Wisconsin relation
     demo:<name>:<rows>:<degree>     any demo query from `list` *)
let parse_task task =
  let int what s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "task %S: bad %s %S" task what s)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' task with
  | [ "wisconsin"; rows ] ->
      let* n = int "row count" rows in
      Ok (W.plan_slice ~n ())
  | [ "wisconsin"; rows; seed ] ->
      let* n = int "row count" rows in
      let* seed = int "seed" seed in
      Ok (W.plan_slice ~seed:(Int64.of_int seed) ~n ())
  | [ "demo"; name; rows; degree ] ->
      let* q = find_query name in
      let* rows = int "row count" rows in
      let* degree = int "degree" degree in
      Ok (q.build ~rows ~degree)
  | _ ->
      Error
        (Printf.sprintf
           "unresolvable task %S (expected wisconsin:<rows>[:<seed>] or \
            demo:<name>:<rows>:<degree>)"
           task)

(* --- SQL: the canonical request shape -------------------------------- *)

(* The SQL frontend is the one canonical request shape: `query` and the
   serve daemon both accept a statement as text and hand it to the
   optimizer.  Task strings above stay accepted everywhere — the
   net-worker slicing protocol depends on them — but every task that can
   be said in SQL is a thin alias: [sql_of_task] surfaces the equivalent
   statement, which is what actually runs. *)
let () = Sql.install ()

let looks_like_sql text =
  let t = String.trim text in
  String.length t > 6
  && String.lowercase_ascii (String.sub t 0 6) = "select"
  && (* word boundary: don't mistake the demo named "selection" *)
  (match t.[6] with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> false
  | _ -> true)

let sql_of_task task =
  let spf = Printf.sprintf in
  match String.split_on_char ':' task with
  | [ "wisconsin"; rows ] ->
      Option.map (spf "SELECT * FROM wisconsin(%d)") (int_of_string_opt rows)
  | [ "wisconsin"; rows; seed ] -> (
      match (int_of_string_opt rows, int_of_string_opt seed) with
      | Some n, Some s -> Some (spf "SELECT * FROM wisconsin(%d, %d)" n s)
      | _ -> None)
  | [ "demo"; name; rows; _degree ] -> (
      match int_of_string_opt rows with
      | None -> None
      | Some n -> (
          (* The degree is absent on purpose: the optimizer owns the
             parallelism decision for SQL requests. *)
          match name with
          | "selection" ->
              Some (spf "SELECT * FROM wisconsin(%d) WHERE two = 0" n)
          | "aggregate" | "parallel-aggregate" ->
              Some
                (spf
                   "SELECT ten, COUNT(*), SUM(unique1) FROM wisconsin(%d) \
                    GROUP BY ten"
                   n)
          | "two-phase-aggregate" ->
              Some
                (spf
                   "SELECT ten, COUNT(*), AVG(unique1) FROM wisconsin(%d) \
                    GROUP BY ten"
                   n)
          | "join" | "parallel-join" ->
              Some
                (spf
                   "SELECT * FROM wisconsin(%d, 1) AS a JOIN wisconsin(%d, \
                    2) AS b ON a.unique1 = b.unique1"
                   n (n / 4))
          | "sort" | "parallel-sort" ->
              Some (spf "SELECT * FROM wisconsin(%d) ORDER BY unique1" n)
          | "pipeline" ->
              Some
                (spf
                   "SELECT unique1, four FROM wisconsin(%d) WHERE \
                    ten_percent = 0"
                   n)
          | _ -> None))
  | _ -> None

(* --- partitioned stored tables: the [stored:] task vocabulary ------- *)

(* [create-table] partitions a generated Wisconsin relation and (with
   --remote-scan) reads it back through one worker process per site;
   the task string [stored:<rows>:<parts>:<kind>:<column>] lets each
   worker rebuild exactly the partitions its site owns from the same
   deterministic generator, identity placement (partition k at site k). *)

let stored_table = "wisc"

let stored_spec ~rows ~parts ~kind ~column =
  match W.column column with
  | exception Not_found ->
      Error (Printf.sprintf "unknown Wisconsin column %S" column)
  | c -> (
      match kind with
      | "hash" -> Ok (Partition.hash_spec [ c ])
      | "range" ->
          (* even split of the dense [0, rows) key space — meaningful on
             a permutation column like unique1/unique2 *)
          Ok
            (Partition.range_spec ~col:c
               ~bounds:
                 (Array.init (parts - 1) (fun k ->
                      Value.Int (((k + 1) * rows / parts) - 1))))
      | _ ->
          Error
            (Printf.sprintf "unknown partition kind %S (hash or range)" kind))

let parse_stored_task task =
  match String.split_on_char ':' task with
  | [ "stored"; rows; parts; kind; column ] -> (
      match (int_of_string_opt rows, int_of_string_opt parts) with
      | Some rows, Some parts when rows > 0 && parts > 0 ->
          Result.map
            (fun spec -> (rows, parts, spec))
            (stored_spec ~rows ~parts ~kind ~column)
      | _ -> Error (Printf.sprintf "task %S: bad counts" task))
  | _ ->
      Error
        (Printf.sprintf
           "unresolvable stored task %S (expected \
            stored:<rows>:<parts>:<hash|range>:<column>)"
           task)

(* Every session this binary opens can compile [Plan.Remote]: the
   launcher re-invokes this same executable in net-worker mode, so
   parent and workers share the task vocabulary above. *)
let register_launcher ?lane ?obs env =
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task
                                   ~packet_size ->
      (Volcano_net.Launcher.launch ~faults ?lane ?obs
         ?repartition:
           (Option.map
              (fun (spec, dests) ->
                Volcano_net.Repart.of_partition_spec spec ~dests)
              repartition)
         ~command:(fun ~socket -> [| Sys.executable_name; "net-worker"; socket |])
         ~workers ~task ~packet_size ())
        .sources)

(* --- commands --- *)

let list_cmd () =
  List.iter (fun q -> Printf.printf "%-20s %s\n" q.name q.describe) queries;
  0

(* Catalog-only commands need no scheduler; the lazy [Env] never spins
   up the pool when all we do is pretty-print the plan. *)
let strict_gate strict env ?workers ?batch_size plan =
  if not strict then 0
  else
    let diags = Compile.analyze ?workers ?batch_size env plan in
    Format.printf "%a" Volcano_plan.Diag.pp_report diags;
    if diags <> [] then 1 else 0

let explain_cmd name rows degree strict workers batch_size =
  if looks_like_sql name then (
    let env = Env.create ~frames:2048 ?batch_size () in
    match Sql.plan ?workers env name with
    | exception Sql.Error m ->
        prerr_endline m;
        2
    | choice ->
        print_string (Volcano_sql.Optimizer.render env choice);
        (* The optimizer only emits analyzer-clean plans, so --strict
           re-checking is a tautology here by design; it still runs so
           the gate means the same thing for SQL and demo plans. *)
        strict_gate strict env ?workers ?batch_size
          choice.Volcano_sql.Optimizer.plan)
  else
    match find_query name with
    | Error e ->
        prerr_endline e;
        2
    | Ok q ->
        let env = Env.create ~frames:2048 () in
        let plan = q.build ~rows ~degree in
        print_string (Plan.explain env plan);
        strict_gate strict env ?workers ?batch_size plan

let with_sess workers batch_size f =
  Session.with_session ?workers ?batch_size ~frames:2048 (fun s ->
      register_launcher (Session.env s);
      f s)

let analyze_cmd name rows degree strict workers flow_budget batch_size =
  match find_query name with
  | Error e ->
      prerr_endline e;
      2
  | Ok q ->
      let env = Env.create ~frames:2048 () in
      let plan = q.build ~rows ~degree in
      print_string (Plan.explain env plan);
      let diags = Compile.analyze ?workers ?flow_budget ?batch_size env plan in
      Format.printf "%a" Volcano_plan.Diag.pp_report diags;
      if List.exists Volcano_plan.Diag.is_error diags then 1
      else if strict && diags <> [] then 1
      else 0

let run_cmd name rows degree limit workers batch_size =
  match find_query name with
  | Error e ->
      prerr_endline e;
      2
  | Ok q -> (
      with_sess workers batch_size @@ fun s ->
      let plan = q.build ~rows ~degree in
      match Clock.time (fun () -> Session.exec s (`Plan plan)) with
      | exception Compile.Rejected errors ->
          prerr_endline "plan rejected by the static analyzer:";
          List.iter
            (fun d -> prerr_endline ("  " ^ Volcano_plan.Diag.to_string d))
            errors;
          1
      | result, elapsed ->
          Printf.printf "%d rows in %.3f s\n" (List.length result) elapsed;
          List.iteri
            (fun i t -> if i < limit then print_endline (Tuple.to_string t))
            result;
          if List.length result > limit then
            Printf.printf "... (%d more rows; use --limit)\n"
              (List.length result - limit);
          0)

let profile_cmd name rows degree trace json workers batch_size =
  match find_query name with
  | Error e ->
      prerr_endline e;
      2
  | Ok q -> (
      with_sess workers batch_size @@ fun s ->
      let plan = q.build ~rows ~degree in
      match Session.profile s (`Plan plan) with
      | exception Compile.Rejected errors ->
          prerr_endline "plan rejected by the static analyzer:";
          List.iter
            (fun d -> prerr_endline ("  " ^ Volcano_plan.Diag.to_string d))
            errors;
          1
      | report ->
          print_string (Volcano_plan.Profile.render report);
          Option.iter
            (fun path ->
              Volcano_plan.Profile.write_trace report ~path;
              Printf.printf "\ntrace written to %s (load in chrome://tracing \
                             or Perfetto)\n"
                path)
            trace;
          Option.iter
            (fun path ->
              Volcano_plan.Profile.write_json report ~path;
              Printf.printf "report written to %s\n" path)
            json;
          0)

let sim_cmd packet_size records =
  let r = Volcano_sim.Calibration.fig2a ~packet_size ~records () in
  Printf.printf
    "simulated 12-CPU Sequent, %d records, packet size %d:\n\
     elapsed %.2f s, %d packets, peak queue depth %d\n"
    records packet_size r.Volcano_sim.Sim.elapsed
    r.Volcano_sim.Sim.packets_total r.Volcano_sim.Sim.max_queue_depth;
  0

(* --- the network plane: worker mode, serve daemon, client ----------- *)

(* Worker-process main for remote exchange: spawned by the launcher
   registered above, never by a user.  [Worker.run] owns the protocol
   and never raises; a bad task surfaces as an [Err] frame. *)
let net_worker_cmd socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      if String.length task >= 7 && String.sub task 0 7 = "stored:" then (
        (* partitioned stored table: this worker plays site [shard] —
           materialize the partitions that site owns, then pull the
           sliced scan against the site-local catalog *)
        match parse_stored_task task with
        | Error e -> failwith e
        | Ok (rows, parts, spec) ->
            if parts <> shards then
              failwith
                (Printf.sprintf
                   "task has %d partitions but the edge runs %d shards" parts
                   shards);
            let env = Env.create ~frames:2048 () in
            ignore
              (Partition.load_site env ~table:stored_table ~schema:W.schema
                 ~spec ~parts ~site:shard ~count:rows
                 ~gen:(W.generator ~n:rows ()) ());
            Remote.shard_pull env ~shard ~shards
              (Plan.Scan_table_slice stored_table))
      else
        match parse_task task with
        | Error e -> failwith e
        | Ok plan ->
            let env = Env.create ~frames:2048 () in
            register_launcher env;
            Remote.shard_pull env ~shard ~shards plan);
  0

(* Partition a generated relation into per-site heap files, print the
   placement the catalog recorded, and optionally read the table back
   through one real worker process per site. *)
let create_table_cmd rows parts by remote_scan tcp =
  let kind, column =
    match String.index_opt by ':' with
    | Some i ->
        ( String.sub by 0 i,
          String.sub by (i + 1) (String.length by - i - 1) )
    | None -> (by, "unique1")
  in
  match stored_spec ~rows ~parts ~kind ~column with
  | Error e ->
      prerr_endline e;
      2
  | Ok spec -> (
      let env = Env.create ~frames:2048 () in
      let file = Env.create_table env ~name:stored_table ~schema:W.schema in
      let gen = W.generator ~n:rows () in
      for i = 0 to rows - 1 do
        ignore (Heap_file.insert file (Serial.encode_string (gen i)))
      done;
      let counts = Partition.split env ~table:stored_table ~spec ~parts () in
      Printf.printf "table %s: %d rows in %d partitions by %s:%s\n"
        stored_table rows parts kind column;
      Array.iteri
        (fun part n ->
          Printf.printf "  %-12s site %d  %6d rows\n"
            (Shard.partition_name ~table:stored_table ~part)
            (Option.value ~default:(-1)
               (Shard.site_of (Env.catalog env) ~table:stored_table ~part))
            n)
        counts;
      if not remote_scan then 0
      else
        let obs = Obs.create () in
        register_launcher ?lane:(if tcp then Some `Tcp else None) ~obs env;
        let task =
          Printf.sprintf "stored:%d:%d:%s:%s" rows parts kind column
        in
        let plan =
          Plan.Remote
            {
              cfg = Exchange.config ~degree:parts ();
              workers = parts;
              task;
              input = Plan.Scan_table_slice stored_table;
            }
        in
        match
          Clock.time (fun () ->
              Volcano.Iterator.to_list (Compile.compile env plan))
        with
        | exception Exchange.Query_failed { site; origin } ->
            Printf.eprintf "remote scan failed at %s: %s\n" site
              (Printexc.to_string origin);
            1
        | result, elapsed ->
            Printf.printf
              "remote scan over %d %s site(s): %d rows in %.3f s\n" parts
              (if tcp then "TCP" else "Unix-socket")
              (List.length result) elapsed;
            for site = 0 to parts - 1 do
              Printf.printf "  site %d shipped %6d rows, %8d bytes\n" site
                (Obs.Counter.value
                   (Obs.counter obs (Printf.sprintf "net.site%d.rows" site)))
                (Obs.Counter.value
                   (Obs.counter obs (Printf.sprintf "net.site%d.bytes" site)))
            done;
            Printf.printf "  sites: %d spawned, %d reused, %d kept\n"
              (Obs.Counter.value (Obs.counter obs "net.sites_spawned"))
              (Obs.Counter.value (Obs.counter obs "net.sites_reused"))
              (Obs.Counter.value (Obs.counter obs "net.sites_kept"));
            if List.length result = rows then 0
            else (
              Printf.eprintf "row count mismatch: expected %d\n" rows;
              1))

let serve_cmd socket workers batch_size max_concurrent =
  Session.with_session ?workers ?batch_size ?max_concurrent ~frames:2048
  @@ fun s ->
  register_launcher (Session.env s);
  (* A request is SQL text, a task with a SQL spelling (translated, and
     the canonical spelling logged), or a plan-only task. *)
  let handle task =
    let input =
      if looks_like_sql task then Ok (`Sql task)
      else
        match sql_of_task task with
        | Some sql ->
            Printf.printf "task %s == %s\n%!" task sql;
            Ok (`Sql sql)
        | None -> Result.map (fun p -> `Plan p) (parse_task task)
    in
    match input with
    | Error e -> Error ("task", e)
    | Ok input -> (
        match Session.exec s input with
        | rows -> Ok rows
        | exception Sql.Error m -> Error ("sql", m)
        | exception Exchange.Query_failed { site; origin } ->
            Error (site, Printexc.to_string origin)
        | exception Compile.Rejected errors ->
            Error
              ( "planlint",
                String.concat "; "
                  (List.map Volcano_plan.Diag.to_string errors) ))
  in
  let obs = Obs.create () in
  let server = Serve.Server.start ~obs ~socket ~handle () in
  Printf.printf "serving on %s (shut down with `volcano shutdown`)\n%!" socket;
  Serve.Server.wait server;
  Printf.printf "served %d request(s), %d error(s)\n"
    (Serve.Server.requests server)
    (Serve.Server.errors server);
  0

let with_client socket f =
  let c = Serve.Client.connect ~socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let print_rows ?elapsed rows limit =
  (match elapsed with
  | Some t -> Printf.printf "%d rows in %.3f s\n" (List.length rows) t
  | None -> Printf.printf "%d rows\n" (List.length rows));
  List.iteri
    (fun i t -> if i < limit then print_endline (Tuple.to_string t))
    rows;
  if List.length rows > limit then
    Printf.printf "... (%d more rows; use --limit)\n" (List.length rows - limit)

(* One request shape, two transports: by default the statement runs
   in-process through the Session front door; --socket hands the same
   text to a serve daemon.  Task strings that have a SQL spelling are
   translated first (and the spelling printed), so the SQL text is what
   actually executes. *)
let query_cmd socket request limit workers batch_size =
  let translated =
    if looks_like_sql request then Some request
    else
      match sql_of_task request with
      | Some sql ->
          Printf.printf "-- %s is shorthand for:\n--   %s\n" request sql;
          Some sql
      | None -> None
  in
  match socket with
  | Some socket -> (
      (* The daemon performs the same task-to-SQL translation, so send
         the request verbatim. *)
      with_client socket @@ fun c ->
      match Serve.Client.query c request with
      | Ok rows ->
          print_rows rows limit;
          0
      | Error (site, message) ->
          Printf.eprintf "query failed at %s: %s\n" site message;
          1)
  | None -> (
      let input =
        match translated with
        | Some sql -> Ok (`Sql sql)
        | None -> Result.map (fun p -> `Plan p) (parse_task request)
      in
      match input with
      | Error e ->
          prerr_endline e;
          2
      | Ok input -> (
          with_sess workers batch_size @@ fun s ->
          match Clock.time (fun () -> Session.exec s input) with
          | exception Sql.Error m ->
              prerr_endline m;
              2
          | exception Compile.Rejected errors ->
              prerr_endline "plan rejected by the static analyzer:";
              List.iter
                (fun d ->
                  prerr_endline ("  " ^ Volcano_plan.Diag.to_string d))
                errors;
              1
          | exception Exchange.Query_failed { site; origin } ->
              Printf.eprintf "query failed at %s: %s\n" site
                (Printexc.to_string origin);
              1
          | rows, elapsed ->
              print_rows ~elapsed rows limit;
              0))

let shutdown_cmd socket =
  with_client socket @@ fun c ->
  Serve.Client.shutdown_server c;
  0

(* End-to-end smoke for the serving plane: spawn the daemon as a real
   child process, drive it with concurrent clients, verify the row
   counts, shut it down, and insist on a clean exit.  Wired into the
   @serve-smoke alias. *)
let serve_smoke_cmd clients requests rows =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "volcano-smoke-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with _ -> ());
  let argv = [| Sys.executable_name; "serve"; "--socket"; socket |] in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  let finally () =
    (try Unix.kill pid Sys.sigkill with _ -> ());
    (try ignore (Unix.waitpid [] pid) with _ -> ());
    try Unix.unlink socket with _ -> ()
  in
  let rec await_socket tries =
    if tries = 0 then failwith "serve daemon never bound its socket"
    else if not (Sys.file_exists socket) then begin
      Unix.sleepf 0.05;
      await_socket (tries - 1)
    end
  in
  match
    await_socket 200;
    let failures = Atomic.make 0 in
    let client i =
      with_client socket @@ fun c ->
      for r = 0 to requests - 1 do
        let n = rows + ((i + r) mod 7) in
        match Serve.Client.query c (Printf.sprintf "wisconsin:%d" n) with
        | Ok result when List.length result = n -> ()
        | Ok result ->
            Printf.eprintf "client %d: got %d rows, wanted %d\n" i
              (List.length result) n;
            Atomic.incr failures
        | Error (site, message) ->
            Printf.eprintf "client %d: failed at %s: %s\n" i site message;
            Atomic.incr failures
      done
    in
    let threads =
      List.init clients (fun i -> Thread.create (fun () -> client i) ())
    in
    List.iter Thread.join threads;
    (* One deliberately bad task must come back as an error, not a hang
       or a dropped connection. *)
    (with_client socket @@ fun c ->
     match Serve.Client.query c "no-such-task" with
     | Error _ -> ()
     | Ok _ ->
         prerr_endline "bad task unexpectedly succeeded";
         Atomic.incr failures);
    (with_client socket @@ fun c -> Serve.Client.shutdown_server c);
    let _, status = Unix.waitpid [] pid in
    (Atomic.get failures, status)
  with
  | exception exn ->
      finally ();
      prerr_endline ("serve smoke failed: " ^ Printexc.to_string exn);
      1
  | 0, Unix.WEXITED 0 ->
      (try Unix.unlink socket with _ -> ());
      Printf.printf "serve smoke: %d clients x %d requests ok, clean \
                     shutdown\n"
        clients requests;
      0
  | failures, status ->
      finally ();
      Printf.eprintf "serve smoke: %d failed request(s), daemon %s\n" failures
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "exited %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s);
      1

(* --- cmdliner plumbing --- *)

open Cmdliner

let rows_arg =
  Arg.(value & opt int 20_000 & info [ "rows"; "n" ] ~docv:"N" ~doc:"Relation size.")

let degree_arg =
  Arg.(value & opt int 4 & info [ "degree"; "d" ] ~docv:"D" ~doc:"Parallel degree.")

let limit_arg =
  Arg.(value & opt int 10 & info [ "limit" ] ~docv:"K" ~doc:"Rows to print.")

(* Worker and batch counts are checked where they are parsed, so every
   subcommand reports a bad value as a usage error (exit 124). *)
let checked_int check =
  let parse s =
    match int_of_string_opt s with
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
    | Some n -> (
        match check n with None -> Ok n | Some msg -> Error (`Msg msg))
  in
  Arg.conv (parse, Format.pp_print_int)

let workers_conv =
  checked_int (fun n ->
      if n >= 1 then None
      else
        Some (Printf.sprintf "a worker pool needs at least 1 worker, got %d" n))

let batch_size_conv =
  checked_int (fun n ->
      match Volcano.Batch.validate ~batch_size:n with
      | [] -> None
      | (_, msg) :: _ -> Some msg)

let workers_arg =
  Arg.(
    value
    & opt (some workers_conv) None
    & info [ "workers" ] ~docv:"W"
        ~doc:
          "Size of the session's private worker pool, at least 1 (default: \
           the shared process-wide pool of one domain per core, at least \
           2).  A pool larger than the host's cores is slower, not faster: \
           every domain joins each stop-the-world minor GC.  The optimizer \
           prices a pool smaller than a plan's degree into the plan's cost.")

let batch_size_arg =
  Arg.(
    value
    & opt (some batch_size_conv) None
    & info [ "batch-size" ] ~docv:"B"
        ~doc:
          "Records per fused batch on the vectorized execution path: fusible \
           scan chains compile to one tight loop yielding batches of this \
           many records, 1 to 255.  0 compiles everything \
           record-at-a-time.  Default: 64.")

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")

let list_term = Term.(const list_cmd $ const ())

let explain_term =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "After printing the plan, run the static analyzer and exit \
             non-zero when $(i,any) diagnostic is emitted, warnings \
             included.  For lint gates in CI.")
  in
  Term.(
    const explain_cmd $ name_arg $ rows_arg $ degree_arg $ strict
    $ workers_arg $ batch_size_arg)

let analyze_term =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero when $(i,any) diagnostic is emitted, warnings \
             included (the default exits non-zero only on errors).  For \
             lint gates in CI.")
  in
  let workers =
    Arg.(
      value
      & opt (some workers_conv) None
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Assume a worker pool of this size, at least 1, for the \
             scheduler-placement advisory (VL501).  Default: the pool this \
             process would run the query on.")
  in
  let flow_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "flow-budget" ] ~docv:"RECORDS"
          ~doc:
            "Budget, in records, for the flow-control memory bound (VL502). \
             Default 1048576.")
  in
  Term.(
    const analyze_cmd $ name_arg $ rows_arg $ degree_arg $ strict $ workers
    $ flow_budget $ batch_size_arg)

let run_term =
  Term.(
    const run_cmd $ name_arg $ rows_arg $ degree_arg $ limit_arg $ workers_arg
    $ batch_size_arg)

let profile_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON of the operator spans.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable profile report.")
  in
  Term.(
    const profile_cmd $ name_arg $ rows_arg $ degree_arg $ trace $ json
    $ workers_arg $ batch_size_arg)

let sim_term =
  let packet =
    Arg.(value & opt int 83 & info [ "packet-size" ] ~docv:"P" ~doc:"Records per packet.")
  in
  let records =
    Arg.(value & opt int 100_000 & info [ "records" ] ~docv:"N" ~doc:"Records.")
  in
  Term.(const sim_cmd $ packet $ records)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/volcano.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the serving daemon.")

let net_worker_term =
  let socket =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET")
  in
  Term.(const net_worker_cmd $ socket)

let create_table_term =
  let partitions =
    Arg.(
      value & opt int 3
      & info [ "partitions"; "p" ] ~docv:"P"
          ~doc:"Partition count — one worker site per partition.")
  in
  let by =
    Arg.(
      value
      & opt string "hash:unique1"
      & info [ "by" ] ~docv:"KIND:COLUMN"
          ~doc:
            "Partition function: $(b,hash:<column>) or $(b,range:<column>).  \
             Range bounds split the dense [0, N) key space evenly, so range \
             partitioning is meaningful on a permutation column \
             (unique1, unique2).")
  in
  let remote_scan =
    Arg.(
      value & flag
      & info [ "remote-scan" ]
          ~doc:
            "After partitioning, scan the table back through one worker \
             process per site (each site rebuilds only the partitions it \
             owns), verify the row count, and print per-site wire \
             statistics.")
  in
  let tcp =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:
            "Use the TCP lane (127.0.0.1, ephemeral port) instead of a \
             Unix-domain socket for $(b,--remote-scan).")
  in
  Term.(
    const create_table_cmd $ rows_arg $ partitions $ by $ remote_scan $ tcp)

let serve_term =
  let max_concurrent =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-concurrent" ] ~docv:"Q"
          ~doc:
            "Admission bound: plans executing concurrently; further \
             requests queue.  Default: the runtime's own.")
  in
  Term.(
    const serve_cmd $ socket_arg $ workers_arg $ batch_size_arg
    $ max_concurrent)

let query_term =
  let request =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL|TASK")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Send the request to a running serve daemon at this socket \
             instead of executing it in-process.")
  in
  Term.(
    const query_cmd $ socket $ request $ limit_arg $ workers_arg
    $ batch_size_arg)

let shutdown_term = Term.(const shutdown_cmd $ socket_arg)

let serve_smoke_term =
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"R" ~doc:"Queries per client.")
  in
  let rows =
    Arg.(
      value & opt int 200
      & info [ "rows" ] ~docv:"N" ~doc:"Base relation size per query.")
  in
  Term.(const serve_smoke_cmd $ clients $ requests $ rows)

let cmds =
  [
    Cmd.v (Cmd.info "list" ~doc:"List the demo queries.") list_term;
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Print a query's operator tree.  Takes a SQL statement (the \
            optimizer's chosen plan plus its candidate notes) or a demo \
            name from `list`; --strict additionally runs the static \
            analyzer and exits non-zero on any diagnostic.")
      explain_term;
    Cmd.v
      (Cmd.info "analyze"
         ~doc:
           "Static analysis: print the analyzer's diagnostics for a query's \
            plan (exit 1 if it would be rejected; with --strict, exit 1 on \
            any diagnostic at all).")
      analyze_term;
    Cmd.v (Cmd.info "run" ~doc:"Execute a demo query.") run_term;
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Execute a demo query with observability on and print the plan \
            tree annotated with per-node rows, calls, time, and exchange \
            packet/flow statistics (EXPLAIN ANALYZE).")
      profile_term;
    Cmd.v
      (Cmd.info "sim" ~doc:"Run the Figure-2a topology on the simulated Sequent.")
      sim_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Start the query-serving daemon: a Session wrapped behind a \
            framed request/response protocol on a Unix-domain socket.  \
            Runs until a client sends shutdown.")
      serve_term;
    Cmd.v
      (Cmd.info "query"
         ~doc:
           "Execute one request and print the result rows.  The request \
            is a SQL statement (planned by the optimizer) or a task — \
            wisconsin:<rows>[:<seed>], or demo:<name>:<rows>:<degree> \
            for any query from `list`; tasks with a SQL spelling print \
            it and run as SQL.  Default is in-process; --socket routes \
            the same request to a running serve daemon.")
      query_term;
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Stop a running serve daemon.")
      shutdown_term;
    Cmd.v
      (Cmd.info "serve-smoke"
         ~doc:
           "End-to-end smoke test of the serving plane: spawn a daemon, \
            drive it with concurrent clients, verify results, shut it \
            down cleanly.")
      serve_smoke_term;
    Cmd.v
      (Cmd.info "create-table"
         ~doc:
           "Partition a generated Wisconsin relation into per-site heap \
            files (table#0, table#1, ...) with a catalog entry recording \
            the placement; with --remote-scan, read it back through one \
            worker process per site over the chosen transport lane.")
      create_table_term;
    Cmd.v
      (Cmd.info "net-worker"
         ~doc:
           "Worker-process mode for remote exchange (spawned by the \
            launcher; not for interactive use).")
      net_worker_term;
  ]

(* SIGPIPE is ignored for the sockets' sake ([Wire.ignore_sigpipe]), so
   a reader that closed stdout early (`run ... | head`) surfaces as a
   broken-pipe [Sys_error] on the next flush, at the latest the one
   below, before [exit].  The reader has what it wanted: point stdout at
   /dev/null, so the at_exit flush of what is still buffered cannot
   raise again, and end quietly.  Any other exception is reported as
   cmdliner reports one (exit 125). *)
let () =
  let info =
    Cmd.info "volcano" ~version:"1.0.0"
      ~doc:"Volcano query processing system — exchange-operator reproduction"
  in
  exit
    (match
       let code = Cmd.eval' ~catch:false (Cmd.group info cmds) in
       Format.print_flush ();
       code
     with
    | code -> code
    | exception Sys_error message when message = Unix.error_message Unix.EPIPE
      ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 null Unix.stdout;
        Unix.close null;
        Cmd.Exit.ok
    | exception exn ->
        Printf.eprintf "volcano: internal error, uncaught exception:\n  %s\n%!"
          (Printexc.to_string exn);
        Cmd.Exit.internal_error)
