(* Operator tests: each algorithm is checked against a straightforward
   list-based model, including qcheck property tests that run both the
   sort-based and the hash-based implementation of the match family against
   the model on random multisets. *)

module Iterator = Volcano.Iterator
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Support = Volcano_tuple.Support
module Ops = Volcano_ops
module Device = Volcano_storage.Device
module Bufpool = Volcano_storage.Bufpool
module Heap_file = Volcano_storage.Heap_file

let check = Alcotest.check

let make_spill ?(pages = 4096) () =
  {
    Ops.Sort.device = Device.create_virtual ~page_size:256 ~capacity:pages ();
    buffer = Bufpool.create ~frames:32 ~page_size:256 ();
  }

let ints_of it = List.map (fun t -> Tuple.int_exn t 0) (Iterator.to_list it)

let tuple_list = Alcotest.testable (Fmt.Dump.list (Fmt.of_to_string Tuple.to_string))
    (List.equal Tuple.equal)

(* --- scan --- *)

let test_heap_scan_roundtrip () =
  let spill = make_spill () in
  let file =
    Heap_file.create ~buffer:spill.Ops.Sort.buffer ~device:spill.Ops.Sort.device
      ~name:"t"
  in
  let tuples = List.init 50 (fun i -> Tuple.of_ints [ i; i * i ]) in
  let n = Ops.Scan.materialize (Iterator.of_list tuples) ~into:file in
  check Alcotest.int "materialized" 50 n;
  check tuple_list "scan" tuples (Iterator.to_list (Ops.Scan.heap file))

let test_heap_scan_filtered () =
  let spill = make_spill () in
  let file =
    Heap_file.create ~buffer:spill.Ops.Sort.buffer ~device:spill.Ops.Sort.device
      ~name:"t"
  in
  let tuples = List.init 50 (fun i -> Tuple.of_ints [ i ]) in
  let _ = Ops.Scan.materialize (Iterator.of_list tuples) ~into:file in
  let even t = Tuple.int_exn t 0 mod 2 = 0 in
  check Alcotest.int "filtered in scan" 25
    (Iterator.consume (Ops.Scan.heap_filtered ~pred:even file))

let test_btree_scan () =
  let spill = make_spill () in
  let tree =
    Volcano_btree.Btree.create ~buffer:spill.Ops.Sort.buffer
      ~device:spill.Ops.Sort.device ~name:"idx" ~cmp:String.compare
  in
  for i = 0 to 49 do
    let t = Tuple.of_ints [ i ] in
    Volcano_btree.Btree.insert tree
      ~key:(Printf.sprintf "%04d" i)
      ~value:(Bytes.to_string (Volcano_tuple.Serial.encode t))
  done;
  let it =
    Ops.Scan.btree tree
      ~lo:(Volcano_btree.Btree.Inclusive "0010")
      ~hi:(Volcano_btree.Btree.Exclusive "0015")
  in
  check (Alcotest.list Alcotest.int) "index range" [ 10; 11; 12; 13; 14 ]
    (ints_of it)

(* --- filter / project --- *)

let test_filter () =
  let input = Iterator.generate ~count:100 ~f:(fun i -> Tuple.of_ints [ i ]) in
  let it = Ops.Filter.iterator ~pred:(fun t -> Tuple.int_exn t 0 < 10) input in
  check (Alcotest.list Alcotest.int) "filter" (List.init 10 Fun.id) (ints_of it)

let test_project () =
  let input = Iterator.of_list [ Tuple.of_ints [ 1; 2; 3 ] ] in
  let it = Ops.Project.columns [ 2; 0 ] input in
  check tuple_list "columns" [ Tuple.of_ints [ 3; 1 ] ] (Iterator.to_list it);
  let open Volcano_tuple.Expr.Infix in
  let input = Iterator.of_list [ Tuple.of_ints [ 5; 7 ] ] in
  let it =
    Ops.Project.exprs
      [ Volcano_tuple.Expr.col 0 + Volcano_tuple.Expr.col 1 ]
      input
  in
  check tuple_list "exprs" [ Tuple.of_ints [ 12 ] ] (Iterator.to_list it)

(* --- sort --- *)

let cmp0 = Support.compare_cols [ 0 ]

let test_sort_in_memory () =
  let input =
    Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 5; 2; 9; 1; 7 ])
  in
  let it = Ops.Sort.iterator ~cmp:cmp0 input in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 5; 7; 9 ] (ints_of it)

let test_sort_with_spill () =
  let spill = make_spill () in
  let rng = Volcano_util.Rng.create 99L in
  let values = Array.init 2000 (fun _ -> Volcano_util.Rng.int rng 10_000) in
  let input =
    Iterator.generate ~count:2000 ~f:(fun i -> Tuple.of_ints [ values.(i) ])
  in
  (* Tiny runs and fan-in force spilling and a cascaded merge. *)
  let before = Ops.Sort.runs_spilled () in
  let it = Ops.Sort.iterator ~run_capacity:100 ~fan_in:3 ~spill ~cmp:cmp0 input in
  let got = ints_of it in
  check Alcotest.bool "spilled runs" true (Ops.Sort.runs_spilled () > before);
  check
    (Alcotest.list Alcotest.int)
    "external sort"
    (List.sort compare (Array.to_list values))
    got;
  (* All run files are dropped after the sort closes. *)
  check Alcotest.int "spill space reclaimed" 1
    (Device.allocated_pages spill.Ops.Sort.device)

let test_sort_desc () =
  let input =
    Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 3; 1; 2 ])
  in
  let it =
    Ops.Sort.iterator ~cmp:(Support.compare_on [ (0, Support.Desc) ]) input
  in
  check (Alcotest.list Alcotest.int) "descending" [ 3; 2; 1 ] (ints_of it)

let prop_sort_random =
  QCheck.Test.make ~name:"external sort equals list sort" ~count:50
    QCheck.(pair (list small_int) (int_range 1 50))
    (fun (xs, run_capacity) ->
      (* The generator can draw thousands of values against a run capacity
         of 1: every record is then its own spilled run (a page each)
         before any merge, so the device grows with the list. *)
      let spill = make_spill ~pages:(4096 + (4 * List.length xs)) () in
      let input = Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) xs) in
      let it = Ops.Sort.iterator ~run_capacity ~fan_in:2 ~spill ~cmp:cmp0 input in
      ints_of it = List.sort compare xs)

(* The other side of that sizing: a device too small for the runs fails
   the sort with the device's declared error, and the failed open leaves
   no page fixed. *)
let test_sort_device_full () =
  let spill = make_spill ~pages:16 () in
  let input = Iterator.generate ~count:100 ~f:(fun i -> Tuple.of_ints [ i ]) in
  let it = Ops.Sort.iterator ~run_capacity:1 ~fan_in:2 ~spill ~cmp:cmp0 input in
  (match Iterator.to_list it with
  | _ -> Alcotest.fail "100 one-record runs fit a 16-page device"
  | exception Failure msg ->
      check Alcotest.bool "out of pages" true
        (Str.string_match (Str.regexp ".*out of pages") msg 0));
  Bufpool.assert_quiescent ~what:"sort on a full device" spill.Ops.Sort.buffer

(* --- merge --- *)

let test_merge_sorted_streams () =
  let a = Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 1; 4; 7 ]) in
  let b = Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 2; 5; 8 ]) in
  let c = Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 3; 6; 9 ]) in
  let it = Ops.Merge.of_iterators ~cmp:cmp0 [| a; b; c |] in
  check (Alcotest.list Alcotest.int) "merged" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (ints_of it)

let test_merge_network () =
  (* producers emit sorted slices; exchange_merge must deliver a globally
     sorted stream. *)
  let cfg = Volcano.Exchange.config ~degree:3 ~packet_size:7 () in
  let it =
    Ops.Merge.exchange_merge cfg ~cmp:cmp0 ~group:(Volcano.Group.solo ())
      ~input:(fun group ->
        let rank = Volcano.Group.rank group in
        Iterator.generate ~count:100 ~f:(fun i -> Tuple.of_ints [ (i * 3) + rank ]))
  in
  check (Alcotest.list Alcotest.int) "merge network" (List.init 300 Fun.id)
    (ints_of it)

(* --- the match family --- *)

let kinds =
  [
    Ops.Match_op.Join; Ops.Match_op.Left_outer; Ops.Match_op.Right_outer;
    Ops.Match_op.Full_outer; Ops.Match_op.Semi; Ops.Match_op.Anti;
    Ops.Match_op.Union; Ops.Match_op.Intersection; Ops.Match_op.Difference;
    Ops.Match_op.Anti_difference;
  ]

(* List model: group by key value, apply the shared group semantics. *)
let model_match kind left right =
  let keys =
    List.sort_uniq compare (List.map (fun t -> Tuple.int_exn t 0) (left @ right))
  in
  List.concat_map
    (fun k ->
      let lgroup = List.filter (fun t -> Tuple.int_exn t 0 = k) left in
      let rgroup = List.filter (fun t -> Tuple.int_exn t 0 = k) right in
      Ops.Match_op.emit_group kind ~left_arity:2 ~right_arity:2 ~left:lgroup
        ~right:rgroup)
    keys

let sorted_tuples ts = List.sort Tuple.compare ts

(* One-to-one set operations choose WHICH duplicate survives arbitrarily
   (the choice among tuples agreeing on the key is implementation-defined),
   so their outputs are compared on the key column only. *)
let canonical kind ts =
  match kind with
  | Ops.Match_op.Union | Ops.Match_op.Intersection | Ops.Match_op.Difference
  | Ops.Match_op.Anti_difference ->
      List.sort Tuple.compare (List.map (fun t -> Tuple.project t [ 0 ]) ts)
  | Ops.Match_op.Join | Ops.Match_op.Left_outer | Ops.Match_op.Right_outer
  | Ops.Match_op.Full_outer | Ops.Match_op.Semi | Ops.Match_op.Anti ->
      sorted_tuples ts

let run_match algo kind left right =
  let left_it = Iterator.of_list left and right_it = Iterator.of_list right in
  let it =
    match algo with
    | `Merge ->
        Ops.Merge_match.iterator ~kind ~left_key:[ 0 ] ~right_key:[ 0 ]
          ~left_arity:2 ~right_arity:2
          ~left:(Ops.Sort.iterator ~cmp:cmp0 left_it)
          ~right:(Ops.Sort.iterator ~cmp:cmp0 right_it)
    | `Hash ->
        Ops.Hash_match.iterator ~kind ~left_key:[ 0 ] ~right_key:[ 0 ]
          ~left_arity:2 ~right_arity:2 left_it right_it
  in
  Iterator.to_list it

let input_of_ints side xs =
  List.mapi (fun i k -> Tuple.of_ints [ k; (side * 1000) + i ]) xs

let test_match_fixed () =
  let left = input_of_ints 1 [ 1; 2; 2; 3; 5 ] in
  let right = input_of_ints 2 [ 2; 3; 3; 4 ] in
  List.iter
    (fun kind ->
      let expected = canonical kind (model_match kind left right) in
      List.iter
        (fun algo ->
          let got = canonical kind (run_match algo kind left right) in
          let name =
            Printf.sprintf "%s (%s)"
              (Ops.Match_op.to_string kind)
              (match algo with `Merge -> "merge" | `Hash -> "hash")
          in
          check tuple_list name expected got)
        [ `Merge; `Hash ])
    kinds

(* Over 9 keys a join's output grows with the product of its input
   lengths, and QCheck's unbounded [list] reaches thousands of rows: on
   seed 1 that run takes about 30 s.  Tier-1 bounds each side to 100
   rows; the unbounded generator runs in the opt-in [@long] alias
   ([long_suite]). *)
let match_model_property ~name sides =
  QCheck.Test.make ~name ~count:100
    QCheck.(pair sides sides)
    (fun (ls, rs) ->
      let left = input_of_ints 1 ls and right = input_of_ints 2 rs in
      List.for_all
        (fun kind ->
          let expected = canonical kind (model_match kind left right) in
          canonical kind (run_match `Merge kind left right) = expected
          && canonical kind (run_match `Hash kind left right) = expected)
        kinds)

let prop_match_all_kinds =
  match_model_property ~name:"merge and hash match agree with the model"
    QCheck.(list_of_size Gen.(int_bound 100) (int_bound 8))

let prop_match_all_kinds_unbounded =
  match_model_property
    ~name:"merge and hash match agree with the model, unbounded"
    QCheck.(list (int_bound 8))

let test_hash_match_grace_partitioning () =
  (* Force the Grace path with a small build capacity and verify the result
     matches the in-memory path, for every kind. *)
  let left = input_of_ints 1 (List.init 300 (fun i -> i mod 40)) in
  let right = input_of_ints 2 (List.init 200 (fun i -> i mod 50)) in
  List.iter
    (fun kind ->
      let in_memory = canonical kind (run_match `Hash kind left right) in
      let partitioned =
        Ops.Hash_match.iterator ~build_capacity:32 ~partitions:4
          ~spill:(make_spill ()) ~kind ~left_key:[ 0 ] ~right_key:[ 0 ]
          ~left_arity:2 ~right_arity:2 (Iterator.of_list left)
          (Iterator.of_list right)
      in
      check tuple_list
        (Ops.Match_op.to_string kind ^ ": grace = in-memory")
        in_memory
        (canonical kind (Iterator.to_list partitioned)))
    kinds

(* The documented output order of [Hash_match], as a list model: each
   probe tuple's matches in build insertion order, then the leftovers in
   first-seen build-key order.  Keys compare with [Value.equal], slot by
   slot, so [Int 1] and [Float 1.0] differ and [Null] matches [Null]. *)
let model_hash_order kind ~left_key ~right_key ~left_arity ~right_arity left
    right =
  let lkey t = Tuple.project t left_key and rkey t = Tuple.project t right_key in
  let same a b = Array.for_all2 Value.equal a b in
  let right_nulls = Array.make right_arity Value.Null in
  let left_nulls = Array.make left_arity Value.Null in
  let probed =
    List.concat
      (List.mapi
         (fun i t ->
           let ms = List.filter (fun r -> same (lkey t) (rkey r)) right in
           let hit = ms <> [] in
           (* This probe is the [p]-th left tuple with its key. *)
           let p =
             List.length
               (List.filteri (fun j l -> j <= i && same (lkey l) (lkey t)) left)
           in
           match kind with
           | Ops.Match_op.Join | Ops.Match_op.Left_outer
           | Ops.Match_op.Right_outer | Ops.Match_op.Full_outer ->
               if hit then List.map (Tuple.concat t) ms
               else if
                 kind = Ops.Match_op.Left_outer || kind = Ops.Match_op.Full_outer
               then [ Tuple.concat t right_nulls ]
               else []
           | Ops.Match_op.Semi -> if hit then [ t ] else []
           | Ops.Match_op.Anti -> if hit then [] else [ t ]
           | Ops.Match_op.Intersection ->
               if hit && p <= List.length ms then [ t ] else []
           | Ops.Match_op.Difference ->
               if hit && p <= List.length ms then [] else [ t ]
           | Ops.Match_op.Union -> [ t ]
           | Ops.Match_op.Anti_difference -> [])
         left)
  in
  let first_seen =
    List.rev
      (List.fold_left
         (fun keys r ->
           if List.exists (same (rkey r)) keys then keys else rkey r :: keys)
         [] right)
  in
  let leftovers =
    List.concat_map
      (fun k ->
        let group = List.filter (fun r -> same k (rkey r)) right in
        let probes =
          List.length (List.filter (fun l -> same (lkey l) k) left)
        in
        match kind with
        | Ops.Match_op.Right_outer | Ops.Match_op.Full_outer ->
            if probes = 0 then List.map (Tuple.concat left_nulls) group else []
        | Ops.Match_op.Union | Ops.Match_op.Anti_difference ->
            List.filteri (fun i _ -> i < List.length group - probes) group
        | Ops.Match_op.Join | Ops.Match_op.Left_outer | Ops.Match_op.Semi
        | Ops.Match_op.Anti | Ops.Match_op.Intersection
        | Ops.Match_op.Difference ->
            [])
      first_seen
  in
  probed @ leftovers

(* Both feeds of [Hash_match] against the model, in exact order: the
   record iterator, and the cursor stepped 3 records at a time (so
   duplicate matches and leftovers park across steps). *)
let hash_exact_order kind ~left_key ~right_key ~left_arity ~right_arity left
    right =
  let expected =
    model_hash_order kind ~left_key ~right_key ~left_arity ~right_arity left
      right
  in
  let via_iterator =
    Iterator.to_list
      (Ops.Hash_match.iterator ~kind ~left_key ~right_key ~left_arity
         ~right_arity (Iterator.of_list left) (Iterator.of_list right))
  in
  let via_cursor =
    let c =
      Ops.Hash_match.cursor ~kind ~left_key ~right_key ~left_arity ~right_arity
        (Volcano.Batch.array_cursor (Array.of_list left))
        (Iterator.of_list right)
    in
    let out = ref [] in
    c.Volcano.Batch.reset ();
    while c.Volcano.Batch.step ~emit:(fun t -> out := t :: !out) ~max:3 > 0 do
      ()
    done;
    c.Volcano.Batch.stop ();
    List.rev !out
  in
  (expected, via_iterator, via_cursor)

(* Keys of every type, including values that look alike across types. *)
let key_pool =
  [|
    Value.Int 0; Value.Int 1; Value.Int 2; Value.Float 1.0; Value.Float 0.5;
    Value.Str "a"; Value.Str "1"; Value.Null;
  |]

(* Left rows are (key, id); right rows (id, key): the key columns differ. *)
let mixed_sides ls rs =
  ( List.mapi (fun i k -> [| key_pool.(k); Value.Int (1000 + i) |]) ls,
    List.mapi (fun i k -> [| Value.Int (2000 + i); key_pool.(k) |]) rs )

let test_hash_match_exact_order () =
  (* Duplicate build keys on both sides, keys only on one side, and every
     type in the key column. *)
  let left, right =
    mixed_sides [ 1; 3; 1; 7; 5; 0; 1; 2 ] [ 7; 1; 3; 1; 4; 6; 1; 7; 2; 2 ]
  in
  List.iter
    (fun kind ->
      let expected, via_iterator, via_cursor =
        hash_exact_order kind ~left_key:[ 0 ] ~right_key:[ 1 ] ~left_arity:2
          ~right_arity:2 left right
      in
      let name = Ops.Match_op.to_string kind in
      check tuple_list (name ^ " iterator") expected via_iterator;
      check tuple_list (name ^ " cursor") expected via_cursor)
    kinds

let prop_hash_match_exact_order =
  QCheck.Test.make ~name:"hash match emits the documented order" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 12) (int_bound 7))
        (list_of_size Gen.(0 -- 12) (pair (int_bound 7) (int_bound 2))))
    (fun (ls, rs) ->
      (* One-column keys over [key_pool], and two-column keys (pool value,
         small int) read from different positions on each side. *)
      let left, right = mixed_sides ls (List.map fst rs) in
      let left2 =
        List.mapi (fun i t -> Array.append t [| Value.Int (i mod 3) |]) left
      in
      let right2 =
        List.map2 (fun t (_, j) -> Array.append [| Value.Int j |] t) right rs
      in
      List.for_all
        (fun kind ->
          let agree (expected, a, b) =
            List.equal Tuple.equal expected a && List.equal Tuple.equal expected b
          in
          agree
            (hash_exact_order kind ~left_key:[ 0 ] ~right_key:[ 1 ]
               ~left_arity:2 ~right_arity:2 left right)
          && agree
               (hash_exact_order kind ~left_key:[ 0; 2 ] ~right_key:[ 2; 0 ]
                  ~left_arity:3 ~right_arity:3 left2 right2))
        kinds)

(* Minor words per item around [f], which runs [n] items. *)
let words_per ~n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

(* The key table holds no heap block per build row: building 40k
   distinct int keys allocates, per row, little beyond the build input's
   own [Some] cell.  A table of per-key records, key copies and list
   cells measures well above the bound. *)
let test_hash_match_build_allocation () =
  let n = 40_000 and bound = 8.0 in
  let build = Array.init n (fun i -> Tuple.of_ints [ i; i ]) in
  let it =
    Ops.Hash_match.iterator ~kind:Ops.Match_op.Join ~left_key:[ 0 ]
      ~right_key:[ 0 ] ~left_arity:2 ~right_arity:2 (Iterator.of_list [])
      (Iterator.of_array build)
  in
  let per_row = words_per ~n (fun () -> Iterator.open_ it) in
  Iterator.close it;
  if per_row >= bound then
    Alcotest.failf "%.1f minor words per build row, bound %.1f" per_row bound

(* The int-keyed aggregate probe allocates nothing per row: a bucket
   walk or key comparison defined inside the per-row probe would be a
   closure on every row. *)
let test_hash_aggregate_build_allocation () =
  let n = 40_000 and bound = 1.0 in
  let rows = Array.init n (fun i -> Tuple.of_ints [ i; i mod 10 ]) in
  let it =
    Ops.Aggregate.hash_feed_exprs ~keys:[ Volcano_tuple.Expr.Col 1 ]
      ~aggs:[ Ops.Aggregate.Count; Ops.Aggregate.Sum (Volcano_tuple.Expr.Col 0) ]
      ~drain:(fun feed -> Array.iter feed rows)
  in
  let per_row = words_per ~n (fun () -> Iterator.open_ it) in
  let rec groups k =
    match Iterator.next it with None -> k | Some _ -> groups (k + 1)
  in
  check Alcotest.int "groups" 10 (groups 0);
  Iterator.close it;
  if per_row >= bound then
    Alcotest.failf "%.2f minor words per aggregated row, bound %.1f" per_row
      bound

(* A record input takes the same int-key build as a fused one: 16-column
   rows grouped on one column, counted and summed, allocate per row the
   input's own [Some] cell (2 words) and nothing in the build.  The
   generic build, a key tuple and boxed accumulators per row, measured
   25 words. *)
let test_record_aggregate_allocation () =
  let n = 40_000 and bound = 3.0 in
  let rows =
    Array.init n (fun i ->
        Tuple.of_ints (List.init 16 (fun c -> if c = 4 then i mod 10 else i + c)))
  in
  let it =
    Ops.Aggregate.hash_iterator ~group_by:[ 4 ]
      ~aggs:[ Ops.Aggregate.Count; Ops.Aggregate.Sum (Volcano_tuple.Expr.Col 0) ]
      (Iterator.of_array rows)
  in
  let per_row = words_per ~n (fun () -> Iterator.open_ it) in
  let rec groups k =
    match Iterator.next it with None -> k | Some _ -> groups (k + 1)
  in
  check Alcotest.int "groups" 10 (groups 0);
  Iterator.close it;
  if per_row >= bound then
    Alcotest.failf "%.2f minor words per aggregated record, bound %.1f" per_row
      bound

(* A fused scan with a one-column projected decode allocates the row it
   emits — a 1-field tuple and its [Int], 4 words — and little else: no
   option per record, no projection box per decode.  The table is
   resident in the pool, so the bound reads the row path, not the
   per-page cost of a miss. *)
let test_fused_scan_allocation () =
  let n = 40_000 and bound = 5.0 in
  let env = Volcano_plan.Env.create ~frames:2048 () in
  Volcano_wisconsin.Wisconsin.load ~env ~name:"w" ~n ();
  let file, _ = Volcano_plan.Env.table env "w" in
  let cursor = Ops.Scan.heap_cursor ~cols:[ 0 ] file in
  let rows = ref 0 and sum = ref 0 in
  let emit t =
    incr rows;
    sum := !sum + Tuple.int_exn t 0
  in
  let drain () =
    cursor.Volcano.Batch.reset ();
    while cursor.step ~emit ~max:1000 > 0 do
      ()
    done;
    cursor.stop ()
  in
  drain ();
  rows := 0;
  sum := 0;
  let per_row = words_per ~n drain in
  check Alcotest.int "rows" n !rows;
  check Alcotest.int "unique1 sum" (n * (n - 1) / 2) !sum;
  if per_row >= bound then
    Alcotest.failf "%.2f minor words per scanned row, bound %.1f" per_row
      bound

(* The per-record support functions — the exchange's hash partitioner,
   sort comparisons, equality and the boxed-key probe — walk their
   columns without allocating. *)
let test_support_allocation () =
  let a = Tuple.of_ints [ 1; 2; 3 ] and b = Tuple.of_ints [ 1; 2; 4 ] in
  let ka = [| Value.Int 1; Value.Str "x" |]
  and kb = [| Value.Int 1; Value.Str "x" |] in
  let hash = Support.hash_on [ 0; 2 ]
  and equal = Support.equal_on [ 0; 1 ]
  and compare = Support.compare_on [ (0, Support.Asc); (2, Support.Desc) ] in
  let calls = 10_000 in
  List.iter
    (fun (name, f) ->
      f ();
      let per_call =
        words_per ~n:calls (fun () ->
            for _ = 1 to calls do
              f ()
            done)
      in
      if per_call >= 0.01 then
        Alcotest.failf "%s: %.2f minor words per call" name per_call)
    [
      ("hash_on", fun () -> ignore (Sys.opaque_identity (hash a)));
      ("equal_on", fun () -> ignore (Sys.opaque_identity (equal a b)));
      ("compare_on", fun () -> ignore (Sys.opaque_identity (compare a b)));
      ( "key_matches",
        fun () -> ignore (Sys.opaque_identity (Ops.Key_hash.key_matches ka kb))
      );
    ]

(* Encoding a record into a preallocated buffer allocates nothing: one
   call-free pass over the fields, no size walk, no closure per record.
   The record is a 16-field Wisconsin row, strings included. *)
let test_encode_into_allocation () =
  let t = Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7 in
  let buf = Bytes.create (Volcano_tuple.Serial.encoded_size t) in
  let calls = 10_000 in
  let encode () =
    for _ = 1 to calls do
      ignore
        (Sys.opaque_identity (Volcano_tuple.Serial.encode_into t buf ~pos:0))
    done
  in
  encode ();
  let per_record = words_per ~n:calls encode in
  if per_record >= 0.01 then
    Alcotest.failf "Serial.encode_into: %.3f minor words per record"
      per_record

(* A pre-encoded record inserted onto a resident page allocates its RID
   (4 words) and nothing else: no [Fun.protect] closures, no fix-path
   closure or boxed frame-table key, no pair per slot examined and no
   option for the slot.  The page is large enough that every measured
   insert lands on it. *)
let test_heap_insert_allocation () =
  let page_size = 32768 and n = 150 and bound = 4.5 in
  let buffer = Bufpool.create ~frames:8 ~page_size () in
  let device = Device.create_virtual ~page_size ~capacity:16 () in
  let file = Heap_file.create ~buffer ~device ~name:"alloc" in
  let record =
    Volcano_tuple.Serial.encode_string
      (Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7)
  in
  ignore (Heap_file.insert file record);
  let per_insert =
    words_per ~n (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Heap_file.insert file record))
        done)
  in
  check Alcotest.int "every insert on the resident page" 1
    (Heap_file.page_count file);
  if per_insert >= bound then
    Alcotest.failf "%.2f minor words per insert, bound %.1f" per_insert bound

(* The bulk path appends onto a fixed page from a scratch buffer: nothing
   allocates per record (no RID, no string, no fix). *)
let test_heap_append_allocation () =
  let page_size = 32768 and n = 150 and bound = 0.5 in
  let buffer = Bufpool.create ~frames:8 ~page_size () in
  let device = Device.create_virtual ~page_size ~capacity:16 () in
  let file = Heap_file.create ~buffer ~device ~name:"alloc" in
  let scratch = Bytes.create 512 in
  let len =
    Volcano_tuple.Serial.encode_into
      (Volcano_wisconsin.Wisconsin.generator ~n:1000 () 7)
      scratch ~pos:0
  in
  let a = Heap_file.appender file in
  Heap_file.append a scratch ~off:0 ~len;
  let per_append =
    words_per ~n (fun () ->
        for _ = 1 to n do
          Heap_file.append a scratch ~off:0 ~len
        done)
  in
  Heap_file.close_appender a;
  check Alcotest.int "every append on the fixed page" 1
    (Heap_file.page_count file);
  if per_append >= bound then
    Alcotest.failf "%.2f minor words per append, bound %.1f" per_append bound

let test_cartesian_product () =
  let left = input_of_ints 1 [ 1; 2 ] in
  let right = input_of_ints 2 [ 7; 8; 9 ] in
  let it =
    Ops.Nested_loops.cross ~left:(Iterator.of_list left)
      ~right:(Iterator.of_list right)
  in
  let got = Iterator.to_list it in
  check Alcotest.int "cardinality" 6 (List.length got);
  check Alcotest.int "arity" 4 (Tuple.arity (List.hd got))

let test_theta_join () =
  let left = List.init 10 (fun i -> Tuple.of_ints [ i ]) in
  let right = List.init 10 (fun i -> Tuple.of_ints [ i ]) in
  let pred t = Tuple.int_exn t 0 < Tuple.int_exn t 1 in
  let it =
    Ops.Nested_loops.join ~pred ~left:(Iterator.of_list left)
      ~right:(Iterator.of_list right)
  in
  check Alcotest.int "i<j pairs" 45 (Iterator.consume it)

(* --- aggregation --- *)

let agg_input =
  (* (group, value) pairs *)
  List.map
    (fun (g, v) -> Tuple.of_ints [ g; v ])
    [ (1, 10); (2, 20); (1, 30); (3, 5); (2, 2); (1, 2) ]

let expected_aggregates =
  (* group, count, sum, min, max *)
  [ (1, 3, 42, 2, 30); (2, 2, 22, 2, 20); (3, 1, 5, 5, 5) ]

let check_aggregate name it =
  let rows =
    List.map
      (fun t ->
        ( Tuple.int_exn t 0, Tuple.int_exn t 1, Tuple.int_exn t 2,
          Tuple.int_exn t 3, Tuple.int_exn t 4 ))
      (Iterator.to_list it)
  in
  check
    (Alcotest.list (Alcotest.testable (fun ppf _ -> Fmt.string ppf "<row>") ( = )))
    name expected_aggregates
    (List.sort compare rows)

let aggs =
  [
    Ops.Aggregate.Count;
    Ops.Aggregate.Sum (Volcano_tuple.Expr.col 1);
    Ops.Aggregate.Min (Volcano_tuple.Expr.col 1);
    Ops.Aggregate.Max (Volcano_tuple.Expr.col 1);
  ]

let test_hash_aggregate () =
  check_aggregate "hash agg"
    (Ops.Aggregate.hash_iterator ~group_by:[ 0 ] ~aggs
       (Iterator.of_list agg_input))

let test_sorted_aggregate () =
  check_aggregate "sort agg"
    (Ops.Aggregate.sorted_iterator ~group_by:[ 0 ] ~aggs
       (Ops.Sort.iterator ~cmp:cmp0 (Iterator.of_list agg_input)))

let test_avg () =
  let it =
    Ops.Aggregate.hash_iterator ~group_by:[]
      ~aggs:[ Ops.Aggregate.Avg (Volcano_tuple.Expr.col 0) ]
      (Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 1; 2; 3; 4 ]))
  in
  match Iterator.to_list it with
  | [ t ] -> check (Alcotest.float 1e-9) "avg" 2.5 (Value.float_exn (Tuple.get t 0))
  | _ -> Alcotest.fail "expected one row"

let prop_distinct =
  QCheck.Test.make ~name:"distinct (both algorithms) = sort_uniq" ~count:200
    QCheck.(list (int_bound 20))
    (fun xs ->
      let tuples = List.map (fun i -> Tuple.of_ints [ i ]) xs in
      let expected = List.sort_uniq compare xs in
      let hash =
        ints_of (Ops.Aggregate.distinct_hash ~on:[ 0 ] (Iterator.of_list tuples))
      in
      let sorted =
        ints_of
          (Ops.Aggregate.distinct_sorted ~on:[ 0 ]
             (Ops.Sort.iterator ~cmp:cmp0 (Iterator.of_list tuples)))
      in
      List.sort compare hash = expected && sorted = expected)

(* --- division --- *)

(* dividend: (student, course); divisor: (course).  Result: students
   enrolled in every course. *)
let division_algorithms =
  [
    ("hash", fun ~dividend ~divisor ->
        Ops.Division.hash_division ~quotient:[ 0 ] ~divisor_attrs:[ 1 ]
          ~divisor_key:[ 0 ] ~dividend ~divisor);
    ("count", fun ~dividend ~divisor ->
        Ops.Division.count_division ~quotient:[ 0 ] ~divisor_attrs:[ 1 ]
          ~divisor_key:[ 0 ] ~dividend ~divisor);
    ("sort", fun ~dividend ~divisor ->
        Ops.Division.sort_division ~quotient:[ 0 ] ~divisor_attrs:[ 1 ]
          ~divisor_key:[ 0 ]
          ~dividend:(Ops.Sort.iterator ~cmp:(Support.compare_cols [ 0; 1 ]) dividend)
          ~divisor:(Ops.Sort.iterator ~cmp:cmp0 divisor));
  ]

let model_division pairs courses =
  let courses = List.sort_uniq compare courses in
  let students = List.sort_uniq compare (List.map fst pairs) in
  List.filter
    (fun s ->
      List.for_all (fun c -> List.mem (s, c) pairs) courses)
    students

let test_division_fixed () =
  let pairs =
    [ (1, 10); (1, 11); (1, 12); (2, 10); (2, 12); (3, 10); (3, 11); (3, 12); (3, 13) ]
  in
  let courses = [ 10; 11; 12 ] in
  let expected = model_division pairs courses in
  List.iter
    (fun (name, alg) ->
      let dividend =
        Iterator.of_list (List.map (fun (s, c) -> Tuple.of_ints [ s; c ]) pairs)
      in
      let divisor = Iterator.of_list (List.map (fun c -> Tuple.of_ints [ c ]) courses) in
      let got = List.sort compare (ints_of (alg ~dividend ~divisor)) in
      check (Alcotest.list Alcotest.int) name expected got)
    division_algorithms

let prop_division =
  QCheck.Test.make ~name:"three division algorithms match the model" ~count:100
    QCheck.(pair (list (pair (int_bound 6) (int_bound 6))) (list (int_bound 6)))
    (fun (pairs, courses) ->
      QCheck.assume (courses <> []);
      let pairs = List.sort_uniq compare pairs in
      let expected = model_division pairs courses in
      List.for_all
        (fun (_, alg) ->
          let dividend =
            Iterator.of_list (List.map (fun (s, c) -> Tuple.of_ints [ s; c ]) pairs)
          in
          let divisor =
            Iterator.of_list (List.map (fun c -> Tuple.of_ints [ c ]) courses)
          in
          List.sort compare (ints_of (alg ~dividend ~divisor)) = expected)
        division_algorithms)

let test_division_empty_divisor () =
  (* x / {} is conventionally everything, but all three of our algorithms
     define it as empty (n = 0 guard); they must agree. *)
  List.iter
    (fun (name, alg) ->
      let dividend = Iterator.of_list [ Tuple.of_ints [ 1; 2 ] ] in
      let divisor = Iterator.of_list [] in
      check (Alcotest.list Alcotest.int) name [] (ints_of (alg ~dividend ~divisor)))
    division_algorithms

let suite =
  [
    Alcotest.test_case "heap scan roundtrip" `Quick test_heap_scan_roundtrip;
    Alcotest.test_case "heap scan with predicate" `Quick test_heap_scan_filtered;
    Alcotest.test_case "btree scan" `Quick test_btree_scan;
    Alcotest.test_case "filter" `Quick test_filter;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "sort in memory" `Quick test_sort_in_memory;
    Alcotest.test_case "sort with spill" `Quick test_sort_with_spill;
    Alcotest.test_case "sort descending" `Quick test_sort_desc;
    Runner.qcheck prop_sort_random;
    Alcotest.test_case "sort on a full device" `Quick test_sort_device_full;
    Alcotest.test_case "merge sorted streams" `Quick test_merge_sorted_streams;
    Alcotest.test_case "merge network via exchange" `Quick test_merge_network;
    Alcotest.test_case "match family fixed case" `Quick test_match_fixed;
    Runner.qcheck prop_match_all_kinds;
    Alcotest.test_case "hash match grace partitioning" `Quick
      test_hash_match_grace_partitioning;
    Alcotest.test_case "cartesian product" `Quick test_cartesian_product;
    Alcotest.test_case "theta join" `Quick test_theta_join;
    Alcotest.test_case "hash aggregate" `Quick test_hash_aggregate;
    Alcotest.test_case "sorted aggregate" `Quick test_sorted_aggregate;
    Alcotest.test_case "average" `Quick test_avg;
    Runner.qcheck prop_distinct;
    Alcotest.test_case "division fixed case" `Quick test_division_fixed;
    Runner.qcheck prop_division;
    Alcotest.test_case "division empty divisor" `Quick test_division_empty_divisor;
    Alcotest.test_case "hash match exact order" `Quick test_hash_match_exact_order;
    Runner.qcheck prop_hash_match_exact_order;
    Alcotest.test_case "hash match build allocation" `Quick
      test_hash_match_build_allocation;
    Alcotest.test_case "hash aggregate build allocation" `Quick
      test_hash_aggregate_build_allocation;
    Alcotest.test_case "record aggregate build allocation" `Quick
      test_record_aggregate_allocation;
    Alcotest.test_case "fused scan allocation" `Quick test_fused_scan_allocation;
    Alcotest.test_case "support function allocation" `Quick
      test_support_allocation;
    Alcotest.test_case "encode_into allocation" `Quick
      test_encode_into_allocation;
    Alcotest.test_case "heap insert allocation" `Quick
      test_heap_insert_allocation;
    Alcotest.test_case "heap append allocation" `Quick
      test_heap_append_allocation;
  ]

(* Properties whose unbounded generators are too slow for tier-1, which
   runs them bounded: [dune build @long]. *)
let long_suite = [ Runner.qcheck ~long:true prop_match_all_kinds_unbounded ]
