(* Shared pieces of the three workloads: metric records, set-up timing,
   the closed-loop driver, plan inspection, and the per-query deltas the
   traced runs read from the engine's public counters. *)

module M = Perfbench_metrics.Metrics
module Session = Volcano_plan.Session
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Profile = Volcano_plan.Profile
module Sched = Volcano_sched.Sched
module Runtime = Volcano_sched.Runtime
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Obs = Volcano_obs.Obs
module Tuple = Volcano_tuple.Tuple
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module W = Volcano_wisconsin.Wisconsin

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* What one workload run hands back to [Main]. *)
type result = {
  metrics : metric list;
  tally : M.tally;
  pool_workers : int;  (** the session's worker-pool size *)
  valid : (unit, string) Stdlib.result;
      (** [Error why] when the run measured the harness, not the engine *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let now = Unix.gettimeofday

(* The run's first failure, printed above the result so a failed run
   says what went wrong. *)
let first_failure : string option Atomic.t = Atomic.make None

let fail outcome what =
  ignore (Atomic.compare_and_set first_failure None (Some what));
  outcome

(* --- run parameters ---------------------------------------------------- *)

type params = { seed : int; seconds : float; traced : bool; smoke : bool }

let seed64 p = Int64.of_int (0x5eed + p.seed)

(* Client threads and connections never exceed the core count. *)
let nproc = max 1 (Domain.recommended_domain_count ())

(* Scratch space for sockets and span files, inside the checkout.  A
   relative path keeps Unix-socket addresses short whatever the checkout
   path; worker processes inherit the working directory. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.set_temp_dir_name out_dir

(* --- statistics -------------------------------------------------------- *)

let median = function
  | [] -> 0.0
  | xs -> M.percentile (M.sorted xs) 0.5

let per_query total n = if n = 0 then 0.0 else float_of_int total /. float_of_int n

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Set the workload up several times and report the median: a build
   covers everything before the first timed operation (tables, shards,
   session and pool, server, reference answer, warm-up).  The earlier
   builds are torn down; the last one is kept for the run. *)
let timed_setup p ~build ~teardown =
  let reps = if p.smoke then 1 else 5 in
  let rec go k times =
    let t0 = now () in
    let v = build () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (median times, v)
    else begin
      teardown v;
      (* collect the torn-down build, so it does not count toward the
         next one's time or the run's peak memory *)
      Gc.full_major ();
      go (k - 1) times
    end
  in
  go reps []

(* Closed loop, one client: issue [op] back to back for [seconds];
   [op ()] returns the outcome, and only successes are timed.  Returns
   the latencies (seconds) and the elapsed wall time. *)
let closed_loop ~seconds ~tally op =
  let t_end = now () +. seconds in
  let lat = ref [] in
  let start = now () in
  while now () < t_end do
    let t0 = now () in
    let outcome = op () in
    let t1 = now () in
    M.record tally outcome;
    if outcome = M.Ok then lat := (t1 -. t0) :: !lat
  done;
  (!lat, now () -. start)

(* --- end-to-end metric set --------------------------------------------- *)

let ms s = s *. 1e3

(* The latency tail a run prints: percentile [p] when at least ten
   samples lie beyond it, else the highest percentile that qualifies. *)
let tail ~p lat =
  let a = M.sorted lat in
  List.find_map
    (fun q -> Option.map (fun v -> (q, v)) (M.tail a q))
    (p :: List.filter (fun q -> q < p) [ 0.99; 0.95; 0.9; 0.8; 0.75; 0.5 ])

let latency_notes ~p lat =
  let a = M.sorted lat in
  [
    Printf.sprintf "latency: %d samples, p50 %.3f ms, tail %s" (Array.length a)
      (if Array.length a = 0 then 0.0 else ms (M.percentile a 0.5))
      (match tail ~p lat with
      | Some (q, v) when q = p -> Printf.sprintf "p%g %.3f ms" (q *. 100.0) (ms v)
      | Some (q, v) ->
          Printf.sprintf "p%g %.3f ms (too few samples for p%g)" (q *. 100.0)
            (ms v) (p *. 100.0)
      | None -> "not reportable");
    "latency percentiles (ms):"
    ^ String.concat ""
        (List.filter_map
           (fun q ->
             Option.map
               (fun v -> Printf.sprintf " p%g %.3f" (q *. 100.0) (ms v))
               (M.tail a q))
           [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]);
  ]

(* --- plan inspection ---------------------------------------------------- *)

let rec plan_nodes p = p :: List.concat_map plan_nodes (Plan.children p)

(* Degree of the topmost exchange (in pre-order), 0 for a serial plan. *)
let exchange_degree plan =
  let rec first = function
    | [] -> 0
    | ( Plan.Exchange { cfg; _ }
      | Plan.Exchange_merge { cfg; _ }
      | Plan.Interchange { cfg; _ }
      | Plan.Remote { cfg; _ } )
      :: _ ->
        cfg.Exchange.degree
    | _ :: rest -> first rest
  in
  first (plan_nodes plan)

type op_class = Scan | Join | Aggregate | Sort | Other

let classify = function
  | Plan.Scan_table _ | Plan.Scan_table_slice _ | Plan.Scan_index _
  | Plan.Scan_list _ | Plan.Generate _ | Plan.Generate_slice _
  | Plan.Generate_range _ ->
      Scan
  | Plan.Match _ | Plan.Cross _ | Plan.Theta_join _ | Plan.Division _ -> Join
  | Plan.Aggregate _ | Plan.Distinct _ -> Aggregate
  | Plan.Sort _ | Plan.Exchange_merge _ -> Sort
  | _ -> Other

(* --- per-query engine counters ------------------------------------------ *)

(* Counter deltas the traced runs accumulate over their queries. *)
type counters = {
  mutable queries : int;
  mutable tasks : int;
  mutable suspensions : int;
  mutable steals : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable device_reads : int;
}

let counters () =
  {
    queries = 0;
    tasks = 0;
    suspensions = 0;
    steals = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    device_reads = 0;
  }

type snapshot = { s : Sched.stats; b : Bufpool.stats; reads : int }

let snapshot session =
  let env = Session.env session in
  {
    s = Sched.stats (Session.sched session);
    b = Bufpool.stats (Env.buffer env);
    reads = Device.reads (Env.workspace env);
  }

(* Add the deltas between two snapshots, taken around [queries] queries
   (a whole phase when clients run concurrently). *)
let accumulate ?(queries = 1) c ~before ~after =
  c.queries <- c.queries + queries;
  c.tasks <- c.tasks + (after.s.Sched.submitted - before.s.Sched.submitted);
  c.suspensions <-
    c.suspensions + (after.s.Sched.suspensions - before.s.Sched.suspensions);
  c.steals <- c.steals + (after.s.Sched.stolen - before.s.Sched.stolen);
  c.hits <- c.hits + (after.b.Bufpool.hits - before.b.Bufpool.hits);
  c.misses <- c.misses + (after.b.Bufpool.misses - before.b.Bufpool.misses);
  c.evictions <-
    c.evictions + (after.b.Bufpool.evictions - before.b.Bufpool.evictions);
  c.device_reads <- c.device_reads + (after.reads - before.reads)

let counter_metrics session c =
  let q = c.queries in
  let accesses = c.hits + c.misses in
  [
    metric "sched.tasks_per_query" "count" (per_query c.tasks q);
    metric "sched.suspensions_per_query" "count" (per_query c.suspensions q);
    metric "sched.steals_per_query" "count" (per_query c.steals q);
    metric "sched.task_start_p50_us" "us"
      (Sched.task_latency_percentile (Session.sched session) 0.5 *. 1e6);
    metric "storage.hit_ratio" "ratio"
      (if accesses = 0 then 1.0
       else float_of_int c.hits /. float_of_int accesses);
    metric "storage.misses_per_query" "count" (per_query c.misses q);
    metric "storage.evictions_per_query" "count" (per_query c.evictions q);
    metric "storage.device_reads_per_query" "count" (per_query c.device_reads q);
  ]

(* --- profiled sample ----------------------------------------------------- *)

(* Run [n] queries through [Session.profile] and read, per query, the
   exchange samples (packets, flow control, packet reuse, group spawn and
   join) and each operator class's self time: node busy time minus the
   busy time of the node's children, summed over nodes of the class. *)
let profile_metrics ~n session input =
  let packets = ref 0 and flow_waits = ref 0 and flow_wait_s = ref 0.0 in
  let allocated = ref 0 and reused = ref 0 in
  let spawn_s = ref 0.0 and join_s = ref 0.0 in
  let self = Hashtbl.create 4 in
  let add_self cls v =
    Hashtbl.replace self cls
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt self cls))
  in
  for _ = 1 to n do
    let r = Session.profile session input in
    let busy p =
      match r.Profile.obs.Compile.node_of p with
      | Some node -> Obs.Node.busy_s node
      | None -> 0.0
    in
    List.iter
      (fun p ->
        let children = List.fold_left (fun a c -> a +. busy c) 0.0 (Plan.children p) in
        add_self (classify p) (Float.max 0.0 (busy p -. children));
        match r.Profile.obs.Compile.node_of p with
        | None -> ()
        | Some node -> (
            match Obs.exchange_sample r.Profile.sink ~node with
            | None -> ()
            | Some x ->
                packets := !packets + x.Obs.packets_sent;
                flow_waits := !flow_waits + x.Obs.flow_waits;
                flow_wait_s := !flow_wait_s +. x.Obs.flow_wait_s;
                allocated := !allocated + x.Obs.pool_allocated;
                reused := !reused + x.Obs.pool_reused;
                spawn_s := !spawn_s +. x.Obs.spawn_s;
                join_s := !join_s +. x.Obs.join_s))
      (plan_nodes r.Profile.plan)
  done;
  let per v = v /. float_of_int n in
  let self_ms cls =
    ms (per (Option.value ~default:0.0 (Hashtbl.find_opt self cls)))
  in
  [
    metric "core.packets_per_query" "count" (per_query !packets n);
    metric "core.flow_waits_per_query" "count" (per_query !flow_waits n);
    metric "core.flow_wait_ms" "ms" (ms (per !flow_wait_s));
    metric "core.packet_reuse_ratio" "ratio"
      (if !allocated + !reused = 0 then 0.0
       else float_of_int !reused /. float_of_int (!allocated + !reused));
    metric "core.group_spawn_us" "us" (per !spawn_s *. 1e6);
    metric "core.group_join_us" "us" (per !join_s *. 1e6);
    metric "ops.scan_self_ms" "ms" (self_ms Scan);
    metric "ops.join_self_ms" "ms" (self_ms Join);
    metric "ops.aggregate_self_ms" "ms" (self_ms Aggregate);
    metric "ops.sort_self_ms" "ms" (self_ms Sort);
  ]

(* --- staged execution ----------------------------------------------------- *)

(* Submit a compiled iterator through the session's runtime and drain
   it, tracing admission (submit to closure start) and drain (open to
   close) as spans of [op] under [parent]. *)
let admit_and_drain ?(on_drain = ignore) trace session ~op ~parent iter =
  let submitted = now () in
  let job =
    Runtime.submit (Session.runtime session) (fun () ->
        ignore
          (Trace.record trace ~parent ~op ~layer:"sched" "sched.admission"
             ~lo:submitted ~hi:(now ()));
        Trace.span trace ~parent ~op ~layer:"core" "core.drain" (fun id ->
            on_drain id;
            Iterator.to_list iter))
  in
  match Runtime.await job with Ok rows -> rows | Error exn -> raise exn

(* --- span-derived metrics -------------------------------------------------- *)

let layers = [ "sql"; "analysis"; "plan"; "sched"; "core"; "net" ]

(* Per-operation medians of the stage spans a traced run recorded, each
   layer's self time per operation, the unattributed share of wall time,
   and, for served requests, the round trip not spent in the handler.
   A stage the workload never entered yields no metric. *)
let stage_metrics trace =
  let spans = Trace.spans trace in
  let stage (name, span_name, unit, scale) =
    match Trace.durations trace span_name with
    | [] -> None
    | d -> Some (metric name unit (median d *. scale))
  in
  let roots = List.filter (fun (s : M.span) -> s.parent < 0) spans in
  let ops = float_of_int (max 1 (List.length roots)) in
  let selfs = M.layer_self_times spans in
  let overhead =
    let handler = Hashtbl.create 256 in
    List.iter
      (fun (s : M.span) ->
        if s.name = "handler" then Hashtbl.replace handler s.parent (s.hi -. s.lo))
      spans;
    List.filter_map
      (fun (s : M.span) ->
        match Hashtbl.find_opt handler s.id with
        | Some h when s.name = "net.rpc" -> Some (s.hi -. s.lo -. h)
        | _ -> None)
      roots
  in
  List.filter_map stage
    [
      ("sql.parse_us", "sql.parse", "us", 1e6);
      ("sql.bind_us", "sql.bind", "us", 1e6);
      ("sql.optimize_us", "sql.optimize", "us", 1e6);
      ("analysis.analyze_us", "analysis.analyze", "us", 1e6);
      ("plan.compile_us", "plan.compile", "us", 1e6);
      ("sched.admission_wait_us", "sched.admission", "us", 1e6);
      ("core.drain_ms", "core.drain", "ms", 1e3);
      ("net.launch_ms", "net.launch", "ms", 1e3);
    ]
  @ (match overhead with
    | [] -> []
    | o -> [ metric "net.serve_overhead_us" "us" (median o *. 1e6) ])
  @ List.map
      (fun l ->
        metric
          ("layers." ^ l ^ "_self_ms")
          "ms"
          (ms (Option.value ~default:0.0 (List.assoc_opt l selfs)) /. ops))
      layers
  @ [ metric "layers.unattributed_frac" "ratio" (M.unattributed_frac spans) ]
