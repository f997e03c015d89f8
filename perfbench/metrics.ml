(* The benchmark's metric math, kept free of any workload so the test
   suite pins it directly: percentiles under the ten-beyond rule, span
   self time over possibly overlapping children, the share of wall time
   no layer span covers, and outcome counting. *)

(* --- percentiles ------------------------------------------------------- *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the 1-based position of the smallest sample with at
   least a [p] share of the samples at or below it.  The epsilon keeps
   0.99 *. 1000. from rounding up to rank 991. *)
let rank ~n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Metrics.rank: p outside [0, 1]";
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let beyond ~n p = n - rank ~n p

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Metrics.percentile: no samples";
  a.(rank ~n p - 1)

(* A tail percentile is only worth reporting when at least ten samples
   lie beyond it; below that it is one or two outliers, not a tail. *)
let min_beyond = 10

let tail a p =
  if beyond ~n:(Array.length a) p >= min_beyond then Some (percentile a p)
  else None

(* --- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; negative for a root *)
  op : int;  (** the operation the span belongs to *)
  layer : string;  (** the layer it is charged to; "" for harness glue *)
  name : string;
  lo : float;
  hi : float;
}

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, current) (a, b) ->
        match current with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's duration minus the part of it its children cover.  Children
   may overlap each other (remote pulls run on several feeder domains at
   once); overlap is counted once. *)
let self_time span children =
  span.hi -. span.lo
  -. covered ~lo:span.lo ~hi:span.hi
       (List.map (fun c -> (c.lo, c.hi)) children)

let children_index spans =
  let table = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add table s.parent s) spans;
  fun s -> Hashtbl.find_all table s.id

(* Self time summed per layer, in first-seen order. *)
let layer_self_times spans =
  let kids = children_index spans in
  let order = ref [] and totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.layer <> "" then begin
        if not (Hashtbl.mem totals s.layer) then order := s.layer :: !order;
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals s.layer) in
        Hashtbl.replace totals s.layer (prev +. self_time s (kids s))
      end)
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find totals l)) !order

(* The share of root wall time that no layer span accounts for: the self
   time of every unlayered span (roots and harness glue), over the total
   duration of the roots. *)
let unattributed_frac spans =
  let kids = children_index spans in
  let wall, loose =
    List.fold_left
      (fun (wall, loose) s ->
        let wall = if s.parent < 0 then wall +. (s.hi -. s.lo) else wall in
        let loose =
          if s.layer = "" then loose +. self_time s (kids s) else loose
        in
        (wall, loose))
      (0.0, 0.0) spans
  in
  if wall <= 0.0 then 0.0 else loose /. wall

(* --- outcomes ---------------------------------------------------------- *)

(* Every attempted operation ends in exactly one outcome; an error and a
   wrong answer both count as failed, and neither is timed as a success.
   Atomic, so concurrent clients share one tally. *)
type tally = { attempted : int Atomic.t; errors : int Atomic.t; wrong : int Atomic.t }

type outcome = Ok | Error | Wrong

let tally () =
  { attempted = Atomic.make 0; errors = Atomic.make 0; wrong = Atomic.make 0 }

let record t outcome =
  Atomic.incr t.attempted;
  match outcome with
  | Ok -> ()
  | Error -> Atomic.incr t.errors
  | Wrong -> Atomic.incr t.wrong

let attempted t = Atomic.get t.attempted
let failed t = Atomic.get t.errors + Atomic.get t.wrong

let failed_frac t =
  let n = attempted t in
  if n = 0 then 0.0 else float_of_int (failed t) /. float_of_int n
