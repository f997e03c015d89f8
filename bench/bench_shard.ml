(* Sharded stored-table aggregation: does pushing the aggregate to the
   data beat shipping the data to the aggregate?

   The same Wisconsin relation, the same group-by-ten aggregate, two
   physical plans over real worker processes:

   - distributed: the table lives hash-partitioned across 3 worker
     sites; each site pre-aggregates its own partition and ships only
     the partial groups (at most [groups] rows per site), the parent
     combines;
   - scan-and-ship: one site holds the whole table and ships every raw
     row; the parent aggregates alone.

   The hard gate is bytes over the wire, read from the launcher's
   per-site obs counters: the distributed plan must ship strictly fewer
   bytes than the baseline — that is the whole point of partitioned
   storage, and it holds by construction (partials vs. the relation)
   whatever the host's timing noise.  Elapsed time is gated loosely
   against the committed baseline JSON. *)

open Bench_common
module Remote = Volcano_plan.Remote
module Partition = Volcano_plan.Partition
module Exchange = Volcano.Exchange
module Expr = Volcano_tuple.Expr
module Serial = Volcano_tuple.Serial
module Heap_file = Volcano_storage.Heap_file
module Agg = Volcano_ops.Aggregate
module W = Volcano_wisconsin.Wisconsin
module Launcher = Volcano_net.Launcher
module Obs = Volcano_obs.Obs

let shard_rows =
  match Sys.getenv_opt "VOLCANO_SHARD_ROWS" with
  | Some s -> int_of_string s
  | None -> 40_000

let parts = 3

let table = "wisc"

let spec = Partition.hash_spec [ W.column "unique1" ]

(* Site-side partial aggregate; also the parent's baseline shape. *)
let aggregate input =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ W.column "ten" ];
      aggs = [ Agg.Count; Agg.Sum (Expr.Col (W.column "unique1")) ];
      input;
    }

(* --- worker side ------------------------------------------------------ *)

(* The bench binary re-executes itself in shard-worker mode (dispatched
   from [main.ml]).  Each site materializes only its own partitions from
   the shared deterministic generator. *)
let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      let build ~rows ~parts plan =
        let env = fresh_env () in
        ignore
          (Partition.load_site env ~table ~schema:W.schema ~spec ~parts
             ~site:shard ~count:rows
             ~gen:(W.generator ~n:rows ()) ());
        Remote.shard_pull env ~shard ~shards plan
      in
      match String.split_on_char ':' task with
      | [ "agg"; rows; parts ] ->
          build ~rows:(int_of_string rows) ~parts:(int_of_string parts)
            (aggregate (Plan.Scan_table_slice table))
      | [ "ship"; rows ] ->
          build ~rows:(int_of_string rows) ~parts:1
            (Plan.Scan_table_slice table)
      | _ -> failwith ("unknown shard bench task " ^ task))

(* --- parent side ------------------------------------------------------ *)

let make_env ~rows ~parts =
  let env = fresh_env () in
  let file = Env.create_table env ~name:table ~schema:W.schema in
  let gen = W.generator ~n:rows () in
  for i = 0 to rows - 1 do
    ignore (Heap_file.insert file (Serial.encode_string (gen i)))
  done;
  ignore (Partition.split env ~table ~spec ~parts ());
  env

let register ~obs env =
  Env.set_remote_launcher env (fun ~faults ~repartition:_ ~workers ~task
                                   ~packet_size ->
      (Launcher.launch ~faults ~obs
         ~command:(fun ~socket ->
           [| Sys.executable_name; "shard-worker"; socket |])
         ~workers ~task ~packet_size ())
        .Launcher.sources)

let remote ~workers ~task input =
  Plan.Remote
    { cfg = Exchange.config ~degree:workers (); workers; task; input }

let wire_bytes obs ~sites =
  let total = ref 0 in
  for site = 0 to sites - 1 do
    total :=
      !total
      + Obs.Counter.value
          (Obs.counter obs (Printf.sprintf "net.site%d.bytes" site))
  done;
  !total

type measured = {
  dist_s : float;
  ship_s : float;
  dist_bytes : int;
  ship_bytes : int;
  groups : int;
  results_equal : bool;
}

let measure () =
  let sorted rows = List.sort Tuple.compare rows in
  (* distributed: 3 sites pre-aggregate, parent combines the partials *)
  let dist_obs = Obs.create () in
  let dist_env = make_env ~rows:shard_rows ~parts in
  register ~obs:dist_obs dist_env;
  let dist_plan =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [ 0 ];
        aggs = [ Agg.Sum (Expr.Col 1); Agg.Sum (Expr.Col 2) ];
        input =
          remote ~workers:parts
            ~task:(Printf.sprintf "agg:%d:%d" shard_rows parts)
            (aggregate (Plan.Scan_table_slice table));
      }
  in
  (* one counted run for rows and wire traffic, then timed reps (the
     counters keep accumulating during reps; read before) *)
  let dist_rows = run_plan dist_env dist_plan in
  let dist_bytes = wire_bytes dist_obs ~sites:parts in
  let dist_s =
    min_of_reps (fun () ->
        snd (Clock.time (fun () -> ignore (run_plan dist_env dist_plan))))
  in
  (* scan-and-ship: one site ships the raw relation, parent aggregates *)
  let ship_obs = Obs.create () in
  let ship_env = make_env ~rows:shard_rows ~parts:1 in
  register ~obs:ship_obs ship_env;
  let ship_plan =
    aggregate
      (remote ~workers:1
         ~task:(Printf.sprintf "ship:%d" shard_rows)
         (Plan.Scan_table_slice table))
  in
  let ship_rows = run_plan ship_env ship_plan in
  let ship_bytes = wire_bytes ship_obs ~sites:1 in
  let ship_s =
    min_of_reps (fun () ->
        snd (Clock.time (fun () -> ignore (run_plan ship_env ship_plan))))
  in
  {
    dist_s;
    ship_s;
    dist_bytes;
    ship_bytes;
    groups = List.length dist_rows;
    results_equal = sorted dist_rows = sorted ship_rows;
  }

let print_measured m =
  row "%-28s %10s %14s\n" "" "elapsed(s)" "wire bytes";
  hline 56;
  row "%-28s %10.3f %14d\n"
    (Printf.sprintf "distributed (%d sites)" parts)
    m.dist_s m.dist_bytes;
  row "%-28s %10.3f %14d\n" "scan-and-ship (1 site)" m.ship_s m.ship_bytes;
  row "\nbytes ratio %.4fx, speedup %.2fx, %d groups%s\n"
    (float_of_int m.dist_bytes /. float_of_int m.ship_bytes)
    (m.ship_s /. m.dist_s) m.groups
    (if m.results_equal then "" else "  RESULTS DIVERGE")

let run () =
  header
    (Printf.sprintf
       "Sharded storage: pre-aggregated %d-site scan vs scan-and-ship, %d \
        rows"
       parts shard_rows);
  let m = measure () in
  print_measured m;
  json_add "shard"
    (Jsonx.Obj
       [
         ("rows", Jsonx.Int shard_rows);
         ("parts", Jsonx.Int parts);
         ("dist_s", Jsonx.Float m.dist_s);
         ("ship_s", Jsonx.Float m.ship_s);
         ("dist_bytes", Jsonx.Int m.dist_bytes);
         ("ship_bytes", Jsonx.Int m.ship_bytes);
         ("groups", Jsonx.Int m.groups);
       ])

(* ------------------------------------------------------------------ *)
(* Regression gate: --check-shard BASELINE [--tolerance T]              *)

(* Two hard floors independent of timing noise — the two plans must
   agree on the answer, and the distributed plan must ship strictly
   fewer bytes than scan-and-ship — plus a loose elapsed-time check
   against the committed baseline. *)
let check ~baseline ~tolerance =
  let doc =
    try Jsonx.read_file baseline
    with
    | Sys_error msg ->
        Printf.eprintf "cannot read baseline: %s\n" msg;
        exit 2
    | Jsonx.Parse_error msg ->
        Printf.eprintf "cannot parse baseline %s: %s\n" baseline msg;
        exit 2
  in
  let ( let* ) o f =
    match o with
    | Some v -> f v
    | None ->
        Printf.eprintf "baseline %s has no shard entry\n" baseline;
        exit 2
  in
  let* shard =
    Option.bind (Jsonx.member "experiments" doc) (Jsonx.member "shard")
  in
  let* base_rows = Option.bind (Jsonx.member "rows" shard) Jsonx.to_int_opt in
  if base_rows <> shard_rows then begin
    Printf.eprintf
      "baseline ran %d rows but this run uses %d; set VOLCANO_SHARD_ROWS to \
       compare\n"
      base_rows shard_rows;
    exit 2
  end;
  let* base_dist_s =
    Option.bind (Jsonx.member "dist_s" shard) Jsonx.to_float_opt
  in
  header
    (Printf.sprintf "Shard check vs %s (tolerance %+.0f%%)" baseline
       (tolerance *. 100.0));
  let m = measure () in
  print_measured m;
  let shipped_more = m.dist_bytes >= m.ship_bytes in
  let regressed = m.dist_s > base_dist_s *. (1.0 +. tolerance) in
  row "\nresults: %s\n" (if m.results_equal then "equal" else "DIVERGED");
  row "wire floor: %d < %d  %s\n" m.dist_bytes m.ship_bytes
    (if shipped_more then "VIOLATED (distributed shipped no fewer bytes)"
     else "ok");
  row "dist elapsed vs baseline: %.3f -> %.3f (%.2f)  %s\n" base_dist_s
    m.dist_s
    (m.dist_s /. base_dist_s)
    (if regressed then "REGRESSED" else "ok");
  m.results_equal && (not shipped_more) && not regressed
