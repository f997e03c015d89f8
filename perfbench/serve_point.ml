(* serve_point: open loop of point queries over persistent connections to
   an in-process server whose handler is [Session.exec (`Sql _)], as in
   the CLI daemon.  Per request the front end, planlint, compilation,
   admission, scheduler forks and request framing are most of the cost;
   operators and storage do little (the table fits the pool).  Keys are
   Zipf-skewed over a bounded key set, so query texts repeat. *)

open Common
module Sql = Volcano_sql.Sql
module Optimizer = Volcano_sql.Optimizer
module Serve = Volcano_net.Serve
module Rng = Volcano_util.Rng
module Zipf = Volcano_util.Zipf

let rows = 500
let key_set = 100
let theta = 0.99

(* The fixed offered rate the latency metrics are measured at, and the
   ladder [max_rate_qps] climbs; it reports the rate completed at the
   highest passing rung.  A rung passes when at most 1% of its
   requests (failures included) exceed [limit_s] from their due time —
   its p99 is within the limit — and the backlog does not grow: the
   median latency of its last quarter of requests is within the limit
   too.  A failed rung is run once more before the climb stops, so one
   stall of the host does not end it. *)
let rate = 500.0
let ladder = [ 360.0; 720.0; 1440.0; 2880.0; 5760.0 ]
let limit_s = 0.025

(* The generator, not the server, fell behind when a request left this
   much later than due on an idle connection, at the 99th percentile. *)
let late_limit_s = 0.005

let query k = Printf.sprintf "SELECT unique2, stringu1 FROM small WHERE unique1 = %d" k

type world = {
  session : Session.t;
  server : Serve.Server.t;
  socket : string;
  keys : int array;  (** the bounded key set *)
  expected : (int, Tuple.t) Hashtbl.t;  (** the generator's row per key *)
}

let socket_seq = Atomic.make 0

(* The pool is sized to the cores: the default floor of 4 workers
   oversubscribes a 2-core host, and per-request forks then make the
   latency of one process differ from the next by more than any bound
   worth setting. *)
let pool_workers = nproc

let build ~handle p () =
  let session = Session.create ~workers:pool_workers () in
  let env = Session.env session in
  let seed = seed64 p in
  W.load ~seed ~env ~name:"small" ~n:rows ();
  let gen = W.generator ~seed ~n:rows () in
  let expected = Hashtbl.create rows in
  let u1 = W.column "unique1" in
  for i = 0 to rows - 1 do
    let t = gen i in
    Hashtbl.replace expected (Tuple.int_exn t u1)
      (Tuple.project t [ W.column "unique2"; W.column "stringu1" ])
  done;
  let perm = Rng.permutation (Rng.create seed) rows in
  let keys = Array.init key_set (fun i -> Tuple.int_exn (gen perm.(i)) u1) in
  let socket =
    Filename.concat out_dir
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add socket_seq 1))
  in
  let server = Serve.Server.start ~socket ~handle:(handle session) () in
  (* warm-up: the first requests start the pool and touch the pages *)
  let c = Serve.Client.connect ~socket in
  Array.iter (fun k -> ignore (Serve.Client.query c (query k))) (Array.sub keys 0 8);
  Serve.Client.close c;
  { session; server; socket; keys; expected }

let teardown w =
  Serve.Server.stop w.server;
  (try Sys.remove w.socket with Sys_error _ -> ());
  Session.close w.session

(* The daemon's handler: SQL in, rows out, failures as error replies. *)
let plain_handler session text =
  match Session.exec session (`Sql text) with
  | rows -> Ok rows
  | exception exn -> Error ("serve", Printexc.to_string exn)

(* --- the open-loop generator ------------------------------------------ *)

type sample = {
  due : float;
  recv : float;
  late : float;  (** send time past max (due, connection free) *)
  outcome : M.outcome;
}

(* A seeded schedule: Poisson arrivals at [rate] over [seconds], each
   with a Zipf-drawn key. *)
let schedule ~rng ~zipf ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1.0 -. Rng.float rng 1.0) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc)
    else go t ((t, Zipf.draw zipf rng) :: acc)
  in
  go 0.0 []

(* Drive [plan] over one connection per client thread; any free client
   takes the next request and sends it at its due time.  [roundtrip] is
   the call (the traced run wraps it to record the request's span). *)
let drive w ~tally ~clients ~roundtrip plan =
  let conns = Array.init clients (fun _ -> Serve.Client.connect ~socket:w.socket) in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.005 in
  let client c =
    let out = ref [] in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length plan then begin
        let offset, key_ix = plan.(i) in
        let due = t0 +. offset in
        let free = now () in
        if due > free then Thread.delay (due -. free);
        let key = w.keys.(key_ix) in
        let sent = now () in
        let outcome =
          match roundtrip conns.(c) (query key) with
          | Ok [ row ] when Tuple.equal row (Hashtbl.find w.expected key) -> M.Ok
          | Ok rows ->
              fail M.Wrong
                (Printf.sprintf "serve_point: wrong answer for key %d (%d rows)" key
                   (List.length rows))
          | Error (site, msg) -> fail M.Error (site ^ ": " ^ msg)
          | exception exn -> fail M.Error (Printexc.to_string exn)
        in
        let recv = now () in
        M.record tally outcome;
        out := { due; recv; late = sent -. Float.max due free; outcome } :: !out;
        loop ()
      end
    in
    loop ();
    !out
  in
  let results = Array.make clients [] in
  let threads =
    Array.init clients (fun c -> Thread.create (fun () -> results.(c) <- client c) ())
  in
  Array.iter Thread.join threads;
  Array.iter Serve.Client.close conns;
  List.concat (Array.to_list results)

let ok_latencies samples =
  List.filter_map
    (fun s -> if s.outcome = M.Ok then Some (s.recv -. s.due) else None)
    samples

(* Correct answers per second, from the first due time to the last
   response. *)
let completed_rate samples =
  let first = List.fold_left (fun a s -> Float.min a s.due) infinity samples in
  let last = List.fold_left (fun a s -> Float.max a s.recv) 0.0 samples in
  float_of_int (List.length (ok_latencies samples)) /. (last -. first)

(* One ladder rung: does the server keep up at [rate]?  Also returns the
   rate it completed and a note line with the rung's figures. *)
let rung w ~tally ~rng ~zipf ~clients ~seconds rate =
  let plan = schedule ~rng ~zipf ~rate ~seconds in
  let samples = drive w ~tally ~clients ~roundtrip:Serve.Client.query plan in
  let n = List.length samples in
  let over =
    List.length
      (List.filter (fun s -> s.outcome <> M.Ok || s.recv -. s.due > limit_s) samples)
  in
  let by_due = List.sort (fun a b -> Float.compare a.due b.due) samples in
  let last_quarter =
    List.filteri (fun i _ -> i >= n - (n / 4)) by_due
    |> List.map (fun s -> s.recv -. s.due)
  in
  let backlog = median last_quarter in
  let passes = n > 0 && over * 100 <= n && backlog <= limit_s in
  let lat = M.sorted (List.map (fun s -> s.recv -. s.due) samples) in
  ( passes,
    completed_rate samples,
    Printf.sprintf
      "rung %5.0f/s: %5d requests, p50 %7.3f ms, over limit %5.2f%%, last \
       quarter p50 %7.3f ms -> %s"
      rate n
      (if n = 0 then 0.0 else ms (M.percentile lat 0.5))
      (100.0 *. float_of_int over /. float_of_int (max 1 n))
      (ms backlog)
      (if passes then "pass" else "fail") )

(* Climb the ladder until a rung fails twice; the rungs run back to back
   and share the run's tally, so their answers are checked too.  The
   time per rung assumes the usual climb: every rung but the last two
   passes at once, and the first failing rung runs twice. *)
let max_rate w ~tally ~rng ~zipf ~clients ~seconds =
  let per_rung = seconds /. float_of_int (List.length ladder) in
  let attempt r = rung w ~tally ~rng ~zipf ~clients ~seconds:per_rung r in
  let rec climb best notes = function
    | [] -> (best, List.rev notes)
    | r :: rest -> (
        match attempt r with
        | true, done_, note -> climb done_ (note :: notes) rest
        | false, _, note -> (
            match attempt r with
            | true, done_, again -> climb done_ (again :: note :: notes) rest
            | false, _, again -> (best, List.rev (again :: note :: notes))))
  in
  climb 0.0 [] ladder

let late_p99 samples =
  let a = M.sorted (List.map (fun s -> s.late) samples) in
  if Array.length a = 0 then 0.0 else M.percentile a 0.99

let generator_validity samples =
  let late = late_p99 samples in
  if late > late_limit_s then
    Error
      (Printf.sprintf "load generator ran late: p99 %.2f ms > %.2f ms"
         (ms late) (ms late_limit_s))
  else Ok ()

(* --- traced run --------------------------------------------------------- *)

(* The traced handler performs Session.exec's stages itself.  The client
   registers each request's span id under its text before sending; the
   handler adopts the oldest id waiting on that text as its parent. *)
type traced = {
  trace : Trace.t;
  on : bool Atomic.t;  (** staged handler in use (the traced phase) *)
  pending : (string, (int * int) Queue.t) Hashtbl.t;  (** text -> (op, span) *)
  lock : Mutex.t;
  choice : Optimizer.choice option Atomic.t;
}

let claim t text =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.pending text with
    | Some q when not (Queue.is_empty q) -> Queue.pop q
    | _ -> (-1, -1)
  in
  Mutex.unlock t.lock;
  r

let register t text ids =
  Mutex.lock t.lock;
  let q =
    match Hashtbl.find_opt t.pending text with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.pending text q;
        q
  in
  Queue.push ids q;
  Mutex.unlock t.lock

let staged_handler t session text =
  let env = Session.env session in
  let op, parent = claim t text in
  Trace.span t.trace ~parent ~op ~layer:"" "handler" (fun h ->
      let stage layer name f =
        Trace.span t.trace ~parent:h ~op ~layer name (fun _ -> f ())
      in
      match
        let ast = stage "sql" "sql.parse" (fun () -> Sql.parse text) in
        let bound = stage "sql" "sql.bind" (fun () -> Sql.bind env ast) in
        let choice =
          stage "sql" "sql.optimize" (fun () -> Optimizer.optimize env bound)
        in
        Atomic.set t.choice (Some choice);
        let plan = choice.Optimizer.plan in
        ignore
          (stage "analysis" "analysis.analyze" (fun () -> Compile.analyze env plan));
        let iter =
          stage "plan" "plan.compile" (fun () -> Compile.compile ~check:false env plan)
        in
        admit_and_drain t.trace session ~op ~parent:h iter
      with
      | rows -> Ok rows
      | exception exn -> Error ("serve", Printexc.to_string exn))

let run p =
  let clients = min 2 nproc in
  let rng = Rng.create (Int64.add (seed64 p) 1L) in
  let zipf = Zipf.create ~n:key_set ~theta in
  let t =
    {
      trace = Trace.create ();
      on = Atomic.make false;
      pending = Hashtbl.create 64;
      lock = Mutex.create ();
      choice = Atomic.make None;
    }
  in
  let handle session text =
    if Atomic.get t.on then staged_handler t session text
    else plain_handler session text
  in
  let setup_s, w = timed_setup p ~build:(build ~handle p) ~teardown in
  Fun.protect ~finally:(fun () -> teardown w) @@ fun () ->
  let tally = M.tally () in
  let sizes =
    Printf.sprintf
      "serve_point: %d rows (%d pages, %d frames), %d keys zipf %.2f, %d \
       connections, rate %.0f/s, ladder [%s]/s, limit %.0f ms"
      rows
      (Volcano_storage.Heap_file.page_count
         (fst (Env.table (Session.env w.session) "small")))
      (Bufpool.frames_total (Env.buffer (Session.env w.session)))
      key_set theta clients rate
      (String.concat " " (List.map (Printf.sprintf "%.0f") ladder))
      (ms limit_s)
  in
  let fixed seconds roundtrip =
    drive w ~tally ~clients ~roundtrip (schedule ~rng ~zipf ~rate ~seconds)
  in
  if not p.traced then begin
    let samples = fixed (p.seconds /. 2.0) Serve.Client.query in
    let lat = ok_latencies samples in
    let best, rungs = max_rate w ~tally ~rng ~zipf ~clients ~seconds:(p.seconds /. 2.0) in
    {
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "latency_p50_ms" "ms" (ms (median lat));
          metric "qps" "1/s" (completed_rate samples);
          metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        ];
      tally;
      pool_workers;
      valid = generator_validity samples;
      notes =
        sizes
        :: Printf.sprintf "loadgen: late p99 %.3f ms" (ms (late_p99 samples))
        :: latency_notes ~p:0.9 lat
        @ rungs
        @ [ Printf.sprintf "max_rate_qps: %.1f/s" best ];
    }
  end
  else begin
    (* untraced reference for the overhead ratio, then the traced phase:
       the client's round trip is the root span, the handler its child *)
    let plain = ok_latencies (fixed (p.seconds /. 3.0) Serve.Client.query) in
    let op = Atomic.make 0 in
    let roundtrip conn text =
      let id = Atomic.fetch_and_add op 1 in
      let span = Trace.fresh_id t.trace in
      register t text (id, span);
      let lo = now () in
      let r = Serve.Client.query conn text in
      ignore
        (Trace.record t.trace ~id:span ~parent:(-1) ~op:id ~layer:"net" "net.rpc"
           ~lo ~hi:(now ()));
      r
    in
    let counters = counters () in
    let before = snapshot w.session in
    Atomic.set t.on true;
    let samples = fixed (p.seconds *. 2.0 /. 3.0) roundtrip in
    Atomic.set t.on false;
    accumulate counters ~queries:(List.length samples) ~before
      ~after:(snapshot w.session);
    let traced = ok_latencies samples in
    let profiled = profile_metrics ~n:5 w.session (`Sql (query w.keys.(0))) in
    Trace.write t.trace ~path:(Filename.concat out_dir "serve_point-spans.json");
    {
      metrics =
        (match Atomic.get t.choice with
        | None -> []
        | Some c ->
            [
              metric "sql.candidates" "count"
                (float_of_int (List.length c.Optimizer.notes));
              metric "sql.exchange_degree" "count"
                (float_of_int (exchange_degree c.Optimizer.plan));
            ])
        @ stage_metrics t.trace
        @ counter_metrics w.session counters
        @ profiled
        @ [
            metric "loadgen.late_p99_ms" "ms" (ms (late_p99 samples));
            metric "obs.trace_overhead" "ratio" (median traced /. median plain);
          ];
      tally;
      pool_workers;
      valid = generator_validity samples;
      notes = sizes :: latency_notes ~p:0.9 traced;
    }
  end
