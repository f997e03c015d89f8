(* In-memory span recorder for the traced run.  Spans are recorded from
   the benchmark's own code around calls into each layer's public
   functions; nothing inside the engine is instrumented.  They stay in
   memory and are written once, when the run ends. *)

module M = Perfbench_metrics.Metrics

type t = { lock : Mutex.t; mutable spans : M.span list; next_id : int Atomic.t }

let create () = { lock = Mutex.create (); spans = []; next_id = Atomic.make 0 }
let now = Unix.gettimeofday
let fresh_id t = Atomic.fetch_and_add t.next_id 1

let add t span =
  Mutex.lock t.lock;
  t.spans <- span :: t.spans;
  Mutex.unlock t.lock

(* Record an interval measured elsewhere (e.g. one whose end lies in
   another thread); returns its id. *)
let record t ?id ~parent ~op ~layer name ~lo ~hi =
  let id = match id with Some id -> id | None -> fresh_id t in
  add t { M.id; parent; op; layer; name; lo; hi };
  id

(* Run [f id] inside a span; [id] parents any nested spans. *)
let span t ~parent ~op ~layer name f =
  let id = fresh_id t in
  let lo = now () in
  Fun.protect
    ~finally:(fun () -> add t { M.id; parent; op; layer; name; lo; hi = now () })
    (fun () -> f id)

let spans t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

(* Durations of the spans named [name], in seconds. *)
let durations t name =
  List.filter_map
    (fun (s : M.span) -> if s.name = name then Some (s.hi -. s.lo) else None)
    (spans t)

(* Times are microseconds from the first span's start, so the file's
   nine significant digits keep sub-microsecond resolution. *)
let json_of_span ~t0 (s : M.span) =
  Volcano_obs.Jsonx.(
    Obj
      [
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("op", Int s.op);
        ("layer", String s.layer);
        ("name", String s.name);
        ("start_us", Float ((s.lo -. t0) *. 1e6));
        ("end_us", Float ((s.hi -. t0) *. 1e6));
      ])

let write t ~path =
  let spans = spans t in
  let t0 = List.fold_left (fun a (s : M.span) -> Float.min a s.lo) infinity spans in
  Volcano_obs.Jsonx.write_file path
    (Volcano_obs.Jsonx.List (List.map (json_of_span ~t0) spans))
