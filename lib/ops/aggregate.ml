module Iterator = Volcano.Iterator
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support

type agg =
  | Count
  | Sum of Expr.num
  | Min of Expr.num
  | Max of Expr.num
  | Avg of Expr.num

(* Accumulator state per aggregate per group. *)
type acc =
  | Acc_count of int ref
  | Acc_sum of Value.t ref * (Tuple.t -> Value.t)
  | Acc_min of Value.t ref * (Tuple.t -> Value.t)
  | Acc_max of Value.t ref * (Tuple.t -> Value.t)
  | Acc_avg of float ref * int ref * (Tuple.t -> Value.t)

let value_add a b =
  match (a, b) with
  | Value.Null, x | x, Value.Null -> x
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | x, y -> Value.Float (Value.float_exn x +. Value.float_exn y)

let fresh_acc agg =
  match agg with
  | Count -> Acc_count (ref 0)
  | Sum e -> Acc_sum (ref Value.Null, Expr.Compiled.num e)
  | Min e -> Acc_min (ref Value.Null, Expr.Compiled.num e)
  | Max e -> Acc_max (ref Value.Null, Expr.Compiled.num e)
  | Avg e -> Acc_avg (ref 0.0, ref 0, Expr.Compiled.num e)

let feed acc tuple =
  match acc with
  | Acc_count n -> incr n
  | Acc_sum (v, f) -> v := value_add !v (f tuple)
  | Acc_min (v, f) ->
      let x = f tuple in
      if x <> Value.Null && (!v = Value.Null || Value.compare x !v < 0) then v := x
  | Acc_max (v, f) ->
      let x = f tuple in
      if x <> Value.Null && (!v = Value.Null || Value.compare x !v > 0) then v := x
  | Acc_avg (sum, n, f) -> (
      match f tuple with
      | Value.Null -> ()
      | x ->
          sum := !sum +. Value.float_exn x;
          incr n)

let finish acc =
  match acc with
  | Acc_count n -> Value.Int !n
  | Acc_sum (v, _) -> !v
  | Acc_min (v, _) -> !v
  | Acc_max (v, _) -> !v
  | Acc_avg (sum, n, _) ->
      if !n = 0 then Value.Null else Value.Float (!sum /. float_of_int !n)

let output_tuple key accs =
  Tuple.concat key (Array.of_list (List.map finish accs))

module Key_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* The shared hash-build machinery: [drain] consumes the whole input —
   record iterator or fused cursor — through the [build] feeder on
   open, then the grouped results stream out of a queue in first-seen
   order (deterministic output). *)
let hash_build ~key_of ~aggs ~drain =
  let results = Queue.create () in
  let opened = ref false in
  Iterator.make
    ~open_:(fun () ->
      let table = Key_table.create 1024 in
      (* Preserve first-seen group order for deterministic output. *)
      let order = ref [] in
      drain (fun tuple ->
          let key = key_of tuple in
          let accs =
            match Key_table.find_opt table key with
            | Some accs -> accs
            | None ->
                let accs = List.map fresh_acc aggs in
                Key_table.add table key accs;
                order := key :: !order;
                accs
          in
          List.iter (fun acc -> feed acc tuple) accs);
      List.iter
        (fun key ->
          let accs = Key_table.find table key in
          Queue.push (output_tuple key accs) results)
        (List.rev !order);
      opened := true)
    ~next:(fun () ->
      if not !opened then invalid_arg "Aggregate.hash: not open";
      Queue.take_opt results)
    ~close:(fun () -> opened := false)

(* ------------------------------------------------------------------ *)
(* The specialized batch build.

   For the common batched shape — every aggregate [Count] or [Sum] of an
   integer-only expression — the build loop allocates nothing per record
   (with int keys; test/test_ops.ml bounds it): group keys are hashed and
   compared straight out of a scratch buffer (the key tuple is
   materialized once per GROUP, not per record), the bucket walks are
   defined once per open, and accumulators are native ints.  A record that defeats an
   int kernel (a non-int field, division by zero) demotes its group to
   the generic accumulators, at most once per group, so results are
   identical to [hash_build]'s.  This is where batching pays beyond
   saved [next] calls: the record-at-a-time operator cannot justify a
   second code path per plan shape, the batch operator amortizes the
   choice over every packet.

   Keys are expressions, not column positions: the compiler pushes
   projections under an aggregate into the aggregate itself
   ([Expr.subst]), so the fused loop evaluates keys and accumulator
   inputs straight off the scan tuple.  A plain column list is the
   special case [keys = List.map Expr.col group_by]. *)

type group = {
  gkey : Tuple.t;
  ghash : int;
  fast : int array; (* one slot per aggregate: count, or running sum *)
  seen : bool array; (* Sum slots: fed at least once while fast *)
  mutable generic : acc list; (* non-empty once the group is demoted *)
}

(* [None] per slot = Count; [Some kernel] = Sum of an int expression.
   The whole plan is [None] when any aggregate needs the generic build. *)
let fast_agg_plan aggs =
  let rec go = function
    | [] -> Some []
    | Count :: rest -> Option.map (fun l -> None :: l) (go rest)
    | Sum e :: rest -> (
        match Expr.Compiled.num_int e with
        | Some kernel -> Option.map (fun l -> Some kernel :: l) (go rest)
        | None -> None)
    | (Min _ | Max _ | Avg _) :: _ -> None
  in
  Option.map Array.of_list (go aggs)

let demote aggs g =
  g.generic <-
    List.mapi
      (fun i agg ->
        match agg with
        | Count -> Acc_count (ref g.fast.(i))
        | Sum e ->
            Acc_sum
              ( ref (if g.seen.(i) then Value.Int g.fast.(i) else Value.Null),
                Expr.Compiled.num e )
        | Min _ | Max _ | Avg _ -> assert false)
      aggs

let fast_output aggs g =
  match g.generic with
  | _ :: _ as accs -> output_tuple g.gkey accs
  | [] ->
      Tuple.concat g.gkey
        (Array.of_list
           (List.mapi
              (fun i agg ->
                match agg with
                | Count -> Value.Int g.fast.(i)
                | Sum _ ->
                    if g.seen.(i) then Value.Int g.fast.(i) else Value.Null
                | Min _ | Max _ | Avg _ -> assert false)
              aggs))

let fast_hash_build ~key_evals ~key_kernels ~aggs ~kernels ~drain =
  let naggs = Array.length kernels in
  let nkeys = Array.length key_evals in
  let results = Queue.create () in
  let opened = ref false in
  Iterator.make
    ~open_:(fun () ->
      let buckets = ref (Array.make 1024 []) in
      let size = ref 0 in
      let order = ref [] in
      let tmp = Array.make (max 1 naggs) 0 in
      (* Scratch for the current record's key values; a group that the
         probe misses copies it into a fresh [gkey]. *)
      let kbuf = Array.make nkeys Value.Null in
      let ibuf = Array.make nkeys 0 in
      let rehash () =
        let old = !buckets in
        let grown = Array.make (2 * Array.length old) [] in
        let mask = Array.length grown - 1 in
        Array.iter
          (fun bucket ->
            List.iter
              (fun g ->
                let i = g.ghash land mask in
                grown.(i) <- g :: grown.(i))
              bucket)
          old;
        buckets := grown
      in
      let add_group gkey h =
        let g =
          {
            gkey;
            ghash = h;
            fast = Array.make (max 1 naggs) 0;
            seen = Array.make (max 1 naggs) false;
            generic = [];
          }
        in
        let bs = !buckets in
        let idx = h land (Array.length bs - 1) in
        bs.(idx) <- g :: bs.(idx);
        order := g :: !order;
        incr size;
        if !size > 2 * Array.length bs then rehash ();
        g
      in
      (* The bucket walks are defined here, once per open, and take the
         hash as an argument: a walk defined inside the per-record probe
         would be a fresh closure on every record. *)
      let rec scan_boxed h = function
        | [] -> add_group (Array.copy kbuf) h
        | g :: rest ->
            if g.ghash = h && Key_hash.key_matches g.gkey kbuf then g
            else scan_boxed h rest
      in
      let find_boxed tuple =
        for i = 0 to nkeys - 1 do
          Array.unsafe_set kbuf i ((Array.unsafe_get key_evals i) tuple)
        done;
        let h = Key_hash.key_hash kbuf in
        let bs = !buckets in
        scan_boxed h bs.(h land (Array.length bs - 1))
      in
      (* [gkey] holds exactly [ibuf]'s ints from slot [i] on. *)
      let rec matches_ints gkey i =
        i >= nkeys
        ||
        match Array.unsafe_get gkey i with
        | Value.Int y -> y = Array.unsafe_get ibuf i && matches_ints gkey (i + 1)
        | _ -> false
      in
      let rec scan_ints h = function
        | [] -> add_group (Array.init nkeys (fun i -> Value.Int ibuf.(i))) h
        | g :: rest ->
            if g.ghash = h && matches_ints g.gkey 0 then g else scan_ints h rest
      in
      (* When every key has an int kernel, keys hash and compare as
         native ints with no [Value] boxing at all, and the probe
         allocates nothing per record (a new group pays for its key).
         The first record whose keys defeat the kernels turns the probe
         off for the rest of the build (a non-int-keyed plan fails on
         record one); both probes share the table, and [Key_hash] hashes
         and compares [Int] values exactly as the int path does, so
         mixing them is sound. *)
      let find_or_add =
        match key_kernels with
        | None -> find_boxed
        | Some kk ->
            let int_keys = ref true in
            fun tuple ->
              if not !int_keys then find_boxed tuple
              else if
                try
                  for i = 0 to nkeys - 1 do
                    Array.unsafe_set ibuf i ((Array.unsafe_get kk i) tuple)
                  done;
                  false
                with Expr.Compiled.Fallback -> true
              then begin
                int_keys := false;
                find_boxed tuple
              end
              else begin
                let h = ref 17 in
                for i = 0 to nkeys - 1 do
                  h :=
                    (!h * 31)
                    + Key_hash.int_mix (Array.unsafe_get ibuf i)
                done;
                let h = !h in
                let bs = !buckets in
                scan_ints h bs.(h land (Array.length bs - 1))
              end
      in
      let feed_group g tuple =
        match g.generic with
        | _ :: _ as accs -> List.iter (fun acc -> feed acc tuple) accs
        | [] -> (
            try
              (* Evaluate every kernel before touching the state, so a
                 fallback mid-record leaves the group consistent. *)
              for i = 0 to naggs - 1 do
                match Array.unsafe_get kernels i with
                | None -> ()
                | Some kernel -> Array.unsafe_set tmp i (kernel tuple)
              done;
              for i = 0 to naggs - 1 do
                match Array.unsafe_get kernels i with
                | None -> g.fast.(i) <- g.fast.(i) + 1
                | Some _ ->
                    g.fast.(i) <- g.fast.(i) + Array.unsafe_get tmp i;
                    g.seen.(i) <- true
              done
            with Expr.Compiled.Fallback ->
              demote aggs g;
              List.iter (fun acc -> feed acc tuple) g.generic)
      in
      drain (fun tuple -> feed_group (find_or_add tuple) tuple);
      List.iter
        (fun g -> Queue.push (fast_output aggs g) results)
        (List.rev !order);
      opened := true)
    ~next:(fun () ->
      if not !opened then invalid_arg "Aggregate.hash: not open";
      Queue.take_opt results)
    ~close:(fun () -> opened := false)

(* The batched entry point: the compiler hands the build a drain of its
   own making — the fused-sink drain, where the scan chain's emit path
   calls [feed] directly with no packet shell in between — and key
   expressions carrying pushed-down projections. *)
let hash_feed_exprs ~keys ~aggs ~drain =
  let key_evals = Array.of_list (List.map Expr.Compiled.num keys) in
  match fast_agg_plan aggs with
  | Some kernels ->
      let key_kernels =
        let ks = List.map Expr.Compiled.num_int keys in
        if List.for_all Option.is_some ks then
          Some (Array.of_list (List.map Option.get ks))
        else None
      in
      fast_hash_build ~key_evals ~key_kernels ~aggs ~kernels ~drain
  | None ->
      let key_of tuple = Array.map (fun f -> f tuple) key_evals in
      hash_build ~key_of ~aggs ~drain

(* The record path takes the same build as the fused one: a column list
   is the key expressions [List.map Expr.col group_by]. *)
let hash_iterator ~group_by ~aggs input =
  hash_feed_exprs ~keys:(List.map Expr.col group_by) ~aggs
    ~drain:(fun feed_tuple -> Iterator.iter feed_tuple input)

let sorted_iterator ~group_by ~aggs input =
  let key_of = Support.key_on group_by in
  let lookahead = ref None in
  let finished = ref false in
  Iterator.make
    ~open_:(fun () ->
      Iterator.open_ input;
      (* Self-clean on failure: a dying first [next] (e.g. a sorted input
         hitting an injected fault) must not leave the input open — the
         caller never sees a state to close. *)
      (try lookahead := Iterator.next input
       with exn ->
         (try Iterator.close input with _ -> ());
         raise exn);
      finished := false)
    ~next:(fun () ->
      if !finished then None
      else
        match !lookahead with
        | None ->
            finished := true;
            None
        | Some first ->
            let key = key_of first in
            let accs = List.map fresh_acc aggs in
            List.iter (fun acc -> feed acc first) accs;
            let rec gather () =
              match Iterator.next input with
              | None -> lookahead := None
              | Some tuple ->
                  if Tuple.equal (key_of tuple) key then begin
                    List.iter (fun acc -> feed acc tuple) accs;
                    gather ()
                  end
                  else lookahead := Some tuple
            in
            gather ();
            Some (output_tuple key accs))
    ~close:(fun () -> Iterator.close input)

(* A fresh stateful duplicate predicate for the fused batch path: true on
   the first tuple of each key group.  One instance per open. *)
let distinct_filter ~on () =
  let key_of = Support.key_on on in
  let seen = Key_table.create 1024 in
  fun tuple ->
    let key = key_of tuple in
    if Key_table.mem seen key then false
    else begin
      Key_table.add seen key ();
      true
    end

(* Duplicate elimination keeps the whole first tuple of each group rather
   than just the key columns. *)
let distinct_hash ~on input =
  let key_of = Support.key_on on in
  let seen = Key_table.create 1024 in
  Iterator.make
    ~open_:(fun () ->
      Key_table.reset seen;
      Iterator.open_ input)
    ~next:(fun () ->
      let rec step () =
        match Iterator.next input with
        | None -> None
        | Some tuple ->
            let key = key_of tuple in
            if Key_table.mem seen key then step ()
            else begin
              Key_table.add seen key ();
              Some tuple
            end
      in
      step ())
    ~close:(fun () -> Iterator.close input)

let distinct_sorted ~on input =
  let key_of = Support.key_on on in
  let previous = ref None in
  Iterator.make
    ~open_:(fun () ->
      previous := None;
      Iterator.open_ input)
    ~next:(fun () ->
      let rec step () =
        match Iterator.next input with
        | None -> None
        | Some tuple ->
            let key = key_of tuple in
            let duplicate =
              match !previous with
              | Some prev -> Tuple.equal prev key
              | None -> false
            in
            if duplicate then step ()
            else begin
              previous := Some key;
              Some tuple
            end
      in
      step ())
    ~close:(fun () -> Iterator.close input)
