type predicate = Tuple.t -> bool
type comparator = Tuple.t -> Tuple.t -> int
type hash_fn = Tuple.t -> int
type key_fn = Tuple.t -> Tuple.t

type direction = Asc | Desc
type sort_key = (int * direction) list

(* The column walks below are top-level recursions rather than local
   closures or [List] lambdas: they run once per compared, probed or
   routed record, and a closure capturing the tuples would be a heap
   block on every call. *)
let rec compare_on key a b =
  match key with
  | [] -> 0
  | (i, dir) :: rest ->
      let c = Value.compare a.(i) b.(i) in
      let c = match dir with Asc -> c | Desc -> -c in
      if c <> 0 then c else compare_on rest a b

let compare_cols cols = compare_on (List.map (fun i -> (i, Asc)) cols)

let rec equal_on cols a b =
  match cols with
  | [] -> true
  | i :: rest -> Value.equal a.(i) b.(i) && equal_on rest a b

let rec hash_from acc cols tuple =
  match cols with
  | [] -> acc
  | i :: rest -> hash_from ((acc * 31) + Value.hash tuple.(i)) rest tuple

(* The 31x mixing step can overflow into the sign bit; partitioning needs
   a non-negative result. *)
let hash_on cols tuple = hash_from 17 cols tuple land max_int

let key_on cols tuple = Tuple.project tuple cols

let of_pred p = Expr.Compiled.pred p
let of_pred_interpreted p tuple = Expr.Interp.pred p tuple

(* Emit-style batch stages: a stage takes the downstream emit function and
   returns its own.  Composing a chain yields ONE function applied per
   record inside a batch fill loop — no per-stage iterator protocol, no
   option allocation per hop. *)
module Stage = struct
  type emit = Tuple.t -> unit
  type t = emit -> emit

  let filter pred k tuple = if pred tuple then k tuple
  let map f k tuple = k (f tuple)
  let project_cols cols = map (fun tuple -> Tuple.project tuple cols)

  let project_exprs es =
    let compiled = Array.of_list (List.map Expr.Compiled.num es) in
    map (fun tuple -> Array.map (fun f -> f tuple) compiled)

  let tap f k tuple =
    f tuple;
    k tuple

  let compose stages emit = List.fold_right (fun stage k -> stage k) stages emit
end

module Partition = struct
  type t = unit -> Tuple.t -> int

  let round_robin ~consumers () =
    assert (consumers > 0);
    let next = ref 0 in
    fun _tuple ->
      let c = !next in
      (* wrap by compare, not [mod]: this runs once per record *)
      next := (if c + 1 = consumers then 0 else c + 1);
      c

  let hash ~consumers ~on () =
    assert (consumers > 0);
    let h = hash_on on in
    fun tuple -> h tuple mod consumers

  let range ~consumers ~on ~bounds () =
    assert (Array.length bounds = consumers - 1);
    fun tuple ->
      let key = tuple.(on) in
      let rec search i =
        if i >= Array.length bounds then consumers - 1
        else if Value.compare key bounds.(i) <= 0 then i
        else search (i + 1)
      in
      search 0

  let constant c () _tuple = c
end
