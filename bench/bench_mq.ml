(* Concurrent-query throughput: N plans in flight on one scheduler.

   The workload is deliberately many-and-small: each query is a
   3-producer exchange over a few thousand generated records, so the
   per-producer fork and join cost is a large share of the work.  All
   producer tasks run on the process-wide worker pool (steady-state
   reuse).  The gated statistic is the makespan of a burst of [plans]
   queries in flight, against the committed baseline. *)

open Bench_common
module Exchange = Volcano.Exchange
module Session = Volcano_plan.Session
module Sched = Volcano_sched.Sched

let plans = 16

(* Small per-query record count: big enough that a query does real
   exchange work (packets, flow control), small enough that fork and
   join cost is a large term of what is measured. *)
let mq_records =
  match Sys.getenv_opt "VOLCANO_MQ_RECORDS" with
  | Some s -> int_of_string s
  | None -> 2_000

let query () =
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:3 ~packet_size:83 ();
      input = generate_slice mq_records;
    }

(* One burst: submit [plans] queries, then await them all.  Elapsed is
   first-submit to last-await — the makespan of the whole burst. *)
let burst session =
  let _, elapsed =
    Clock.time (fun () ->
        let jobs =
          List.init plans (fun i ->
              Session.submit_count ~label:(Printf.sprintf "mq-%d" i) session
                (`Plan (query ())))
        in
        List.iter
          (fun job ->
            match Session.await job with
            | Ok count -> assert (count = mq_records)
            | Error exn -> raise exn)
          jobs)
  in
  elapsed

(* The process-wide default pool: queries after the first reuse warm
   workers, which is exactly the steady state the scheduler exists to
   provide. *)
let measure () =
  min_of_reps (fun () ->
      Session.with_session ~sched:(Sched.default ()) ~frames:256
        ~page_size:4096 ~max_concurrent:plans burst)

let throughput elapsed = float_of_int plans /. elapsed

let print_pooled pooled =
  row "%-28s %12s %14s\n" "scheduler" "makespan (s)" "queries/s";
  hline 56;
  row "%-28s %12.4f %14.1f\n"
    (Printf.sprintf "pool (%d workers)" (Sched.workers (Sched.default ())))
    pooled (throughput pooled)

let run () =
  header
    (Printf.sprintf
       "Concurrent queries: %d plans in flight, %d records each (min of %d \
        bursts)"
       plans mq_records bench_reps);
  let pooled = measure () in
  print_pooled pooled;
  json_add "mq"
    (Jsonx.Obj
       [
         ("plans", Jsonx.Int plans);
         ("mq_records", Jsonx.Int mq_records);
         ("reps", Jsonx.Int bench_reps);
         ("pool_workers", Jsonx.Int (Sched.workers (Sched.default ())));
         ("pooled_s", Jsonx.Float pooled);
         ("pooled_qps", Jsonx.Float (throughput pooled));
       ])

(* ------------------------------------------------------------------ *)
(* Regression gate: --check-mq BASELINE [--tolerance T]                 *)

(* Pooled makespan must stay within tolerance of the committed
   baseline's [pooled_s]. *)
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
        Printf.eprintf "baseline %s has no mq entry\n" baseline;
        exit 2
  in
  let* mq = Option.bind (Jsonx.member "experiments" doc) (Jsonx.member "mq") in
  let* base_plans = Option.bind (Jsonx.member "plans" mq) Jsonx.to_int_opt in
  let* base_records =
    Option.bind (Jsonx.member "mq_records" mq) Jsonx.to_int_opt
  in
  if base_plans <> plans || base_records <> mq_records then begin
    Printf.eprintf
      "baseline ran %d plans of %d records but this run uses %d of %d; set \
       VOLCANO_MQ_RECORDS to compare\n"
      base_plans base_records plans mq_records;
    exit 2
  end;
  let* base_pooled =
    Option.bind (Jsonx.member "pooled_s" mq) Jsonx.to_float_opt
  in
  header
    (Printf.sprintf
       "Concurrent-query check vs %s (min of %d bursts, tolerance %+.0f%%)"
       baseline bench_reps (tolerance *. 100.0));
  let pooled = measure () in
  print_pooled pooled;
  let regressed = pooled > base_pooled *. (1.0 +. tolerance) in
  row "\npooled makespan vs baseline: %.4f s -> %.4f s (%.2f)  %s\n"
    base_pooled pooled (pooled /. base_pooled)
    (if regressed then "REGRESSED"
     else if pooled < base_pooled then "improved"
     else "ok");
  not regressed
