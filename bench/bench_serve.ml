(* Serving-plane load: hundreds of concurrent clients against one
   query-serving daemon over the framed Unix-socket protocol.

   The server runs in-process (the transport and per-connection fiber
   costs are identical to the CLI daemon's; only process isolation is
   elided) with its handler wired to a [Session], so every request pays
   real admission control and query execution.  Clients all connect
   first, then are released together; the gated statistics are aggregate
   QPS over the burst and client-observed p50/p99 latency — both read
   back out of the obs histogram registry the server and clients share. *)

open Bench_common
module Session = Volcano_plan.Session
module Serve = Volcano_net.Serve
module Obs = Volcano_obs.Obs

let clients =
  match Sys.getenv_opt "VOLCANO_SERVE_CLIENTS" with
  | Some s -> int_of_string s
  | None -> 500

let requests_per_client =
  match Sys.getenv_opt "VOLCANO_SERVE_REQUESTS" with
  | Some s -> int_of_string s
  | None -> 4

(* Small per-request row count: the serving plane (framing, connection
   fibers, admission) is the thing under load, not the executor. *)
let serve_rows =
  match Sys.getenv_opt "VOLCANO_SERVE_ROWS" with
  | Some s -> int_of_string s
  | None -> 64

let total_requests = clients * requests_per_client

type measured = {
  elapsed : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  client_failures : int;
  server_errors : int;
}

let measure () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "volcano-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let obs = Obs.create () in
  let latency = Obs.histogram obs "serve.client_latency_s" in
  Session.with_session ~frames:256 ~page_size:4096 ~max_concurrent:16
    (fun session ->
      let handle task =
        match int_of_string_opt task with
        | None -> Error ("serve", "bad task " ^ task)
        | Some n -> (
            match Session.exec session (`Plan (generate_slice n)) with
            | rows -> Ok rows
            | exception exn -> Error ("serve", Printexc.to_string exn))
      in
      let server = Serve.Server.start ~obs ~socket ~handle () in
      let failures = Atomic.make 0 in
      let released = Atomic.make false in
      let client conn =
        while not (Atomic.get released) do
          Thread.yield ()
        done;
        for _ = 1 to requests_per_client do
          let t0 = Obs.now () in
          (match Serve.Client.query conn (string_of_int serve_rows) with
          | Ok rows when List.length rows = serve_rows -> ()
          | Ok _ | Error _ -> Atomic.incr failures
          | exception _ -> Atomic.incr failures);
          Obs.Histogram.observe latency (Obs.now () -. t0)
        done;
        Serve.Client.close conn
      in
      (* Everyone connects before anyone sends: the daemon holds
         [clients] live connections for the whole burst. *)
      let conns = List.init clients (fun _ -> Serve.Client.connect ~socket) in
      let threads = List.map (fun c -> Thread.create client c) conns in
      let (), elapsed =
        Clock.time (fun () ->
            Atomic.set released true;
            List.iter Thread.join threads)
      in
      let server_errors = Serve.Server.errors server in
      Serve.Server.stop server;
      (try Sys.remove socket with _ -> ());
      {
        elapsed;
        qps = float_of_int total_requests /. elapsed;
        p50_ms = Obs.Histogram.percentile latency 0.5 *. 1e3;
        p99_ms = Obs.Histogram.percentile latency 0.99 *. 1e3;
        client_failures = Atomic.get failures;
        server_errors;
      })

let print_measured m =
  row "%-26s %10s %10s %10s %10s\n" "" "elapsed(s)" "qps" "p50(ms)" "p99(ms)";
  hline 70;
  row "%-26s %10.3f %10.1f %10.3f %10.3f\n"
    (Printf.sprintf "%d clients x %d reqs" clients requests_per_client)
    m.elapsed m.qps m.p50_ms m.p99_ms;
  if m.client_failures > 0 || m.server_errors > 0 then
    row "FAILURES: %d client, %d server\n" m.client_failures m.server_errors

let run () =
  header
    (Printf.sprintf
       "Query serving: %d concurrent clients, %d requests each, %d rows per \
        query"
       clients requests_per_client serve_rows);
  let m = measure () in
  print_measured m;
  json_add "serve"
    (Jsonx.Obj
       [
         ("clients", Jsonx.Int clients);
         ("requests_per_client", Jsonx.Int requests_per_client);
         ("serve_rows", Jsonx.Int serve_rows);
         ("total_requests", Jsonx.Int total_requests);
         ("elapsed_s", Jsonx.Float m.elapsed);
         ("qps", Jsonx.Float m.qps);
         ("p50_ms", Jsonx.Float m.p50_ms);
         ("p99_ms", Jsonx.Float m.p99_ms);
         ("client_failures", Jsonx.Int m.client_failures);
         ("server_errors", Jsonx.Int m.server_errors);
       ])

(* ------------------------------------------------------------------ *)
(* Regression gate: --check-serve BASELINE [--tolerance T]              *)

(* Three conditions: every request of the burst must succeed (the hard
   correctness floor — a daemon that sheds load under [clients]
   connections fails the gate outright), and throughput and median
   latency must stay within tolerance of the committed baseline. *)
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
        Printf.eprintf "baseline %s has no serve entry\n" baseline;
        exit 2
  in
  let* serve =
    Option.bind (Jsonx.member "experiments" doc) (Jsonx.member "serve")
  in
  let* base_clients =
    Option.bind (Jsonx.member "clients" serve) Jsonx.to_int_opt
  in
  let* base_requests =
    Option.bind (Jsonx.member "requests_per_client" serve) Jsonx.to_int_opt
  in
  if base_clients <> clients || base_requests <> requests_per_client then begin
    Printf.eprintf
      "baseline drove %d clients x %d requests but this run uses %d x %d; set \
       VOLCANO_SERVE_CLIENTS / VOLCANO_SERVE_REQUESTS to compare\n"
      base_clients base_requests clients requests_per_client;
    exit 2
  end;
  let* base_qps = Option.bind (Jsonx.member "qps" serve) Jsonx.to_float_opt in
  let* base_p50 =
    Option.bind (Jsonx.member "p50_ms" serve) Jsonx.to_float_opt
  in
  header
    (Printf.sprintf "Serving check vs %s (tolerance %+.0f%%)" baseline
       (tolerance *. 100.0));
  let m = measure () in
  print_measured m;
  let dropped = m.client_failures > 0 || m.server_errors > 0 in
  let qps_regressed = m.qps < base_qps /. (1.0 +. tolerance) in
  let p50_regressed = m.p50_ms > base_p50 *. (1.0 +. tolerance) in
  row "\nrequests: %d/%d ok  %s\n"
    (total_requests - m.client_failures)
    total_requests
    (if dropped then "DROPPED LOAD" else "ok");
  row "qps vs baseline: %.1f -> %.1f (%.2f)  %s\n" base_qps m.qps
    (m.qps /. base_qps)
    (if qps_regressed then "REGRESSED"
     else if m.qps > base_qps then "improved"
     else "ok");
  row "p50 vs baseline: %.3f ms -> %.3f ms (%.2f)  %s\n" base_p50 m.p50_ms
    (m.p50_ms /. base_p50)
    (if p50_regressed then "REGRESSED" else "ok");
  (not dropped) && (not qps_regressed) && not p50_regressed
