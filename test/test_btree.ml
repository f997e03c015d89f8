(* B+-tree tests: ordering, duplicates, splits, deletes with rebalancing,
   range scans, and a property test against a sorted-list model. *)

module Btree = Volcano_btree.Btree
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device

let check = Alcotest.check

(* Keys are textual; pad numbers so the string order matches numeric. *)
let key i = Printf.sprintf "%08d" i
let value i = Printf.sprintf "v%d" i

let make_tree ?(page_size = 256) () =
  let pool = Bufpool.create ~frames:128 ~page_size () in
  let dev = Device.create_virtual ~page_size ~capacity:4096 () in
  Btree.create ~buffer:pool ~device:dev ~name:"idx" ~cmp:String.compare

let test_insert_lookup () =
  let t = make_tree () in
  for i = 0 to 99 do
    Btree.insert t ~key:(key i) ~value:(value i)
  done;
  check Alcotest.int "count" 100 (Btree.entry_count t);
  Btree.check_invariants t;
  for i = 0 to 99 do
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "lookup %d" i)
      [ value i ]
      (Btree.lookup t (key i))
  done;
  check (Alcotest.list Alcotest.string) "missing" [] (Btree.lookup t (key 1000))

let test_splits_build_height () =
  let t = make_tree () in
  for i = 0 to 999 do
    Btree.insert t ~key:(key i) ~value:(value i)
  done;
  Btree.check_invariants t;
  check Alcotest.bool "grew levels" true (Btree.height t >= 3);
  (* Full scan in order. *)
  let keys = List.map fst (Btree.to_list t) in
  check (Alcotest.list Alcotest.string) "sorted scan"
    (List.init 1000 key) keys

let test_reverse_and_random_insert_orders () =
  List.iter
    (fun seed ->
      let t = make_tree () in
      let order = Volcano_util.Rng.permutation (Volcano_util.Rng.create seed) 500 in
      Array.iter (fun i -> Btree.insert t ~key:(key i) ~value:(value i)) order;
      Btree.check_invariants t;
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "sorted after random insert (seed %Ld)" seed)
        (List.init 500 key)
        (List.map fst (Btree.to_list t)))
    [ 1L; 2L; 3L ]

let test_duplicates () =
  let t = make_tree () in
  for i = 0 to 9 do
    for copy = 0 to 4 do
      Btree.insert t ~key:(key i) ~value:(Printf.sprintf "c%d" copy)
    done
  done;
  Btree.check_invariants t;
  check Alcotest.int "entries" 50 (Btree.entry_count t);
  check
    (Alcotest.list Alcotest.string)
    "all copies in value order"
    [ "c0"; "c1"; "c2"; "c3"; "c4" ]
    (Btree.lookup t (key 3));
  (* Delete a specific duplicate. *)
  check Alcotest.bool "delete c2" true
    (Btree.delete t ~key:(key 3) ~value:"c2" ());
  check
    (Alcotest.list Alcotest.string)
    "c2 removed"
    [ "c0"; "c1"; "c3"; "c4" ]
    (Btree.lookup t (key 3))

let test_duplicates_spanning_leaves () =
  let t = make_tree () in
  (* Enough identical keys to span multiple leaves. *)
  for copy = 0 to 199 do
    Btree.insert t ~key:"same-key" ~value:(Printf.sprintf "%06d" copy)
  done;
  Btree.check_invariants t;
  check Alcotest.int "all found" 200 (List.length (Btree.lookup t "same-key"))

let test_delete_rebalances () =
  let t = make_tree () in
  for i = 0 to 499 do
    Btree.insert t ~key:(key i) ~value:(value i)
  done;
  (* Delete most entries and verify structure remains valid throughout. *)
  for i = 0 to 449 do
    check Alcotest.bool (Printf.sprintf "delete %d" i) true
      (Btree.delete t ~key:(key i) ())
  done;
  Btree.check_invariants t;
  check Alcotest.int "remaining" 50 (Btree.entry_count t);
  for i = 450 to 499 do
    check (Alcotest.list Alcotest.string) "survivor" [ value i ]
      (Btree.lookup t (key i))
  done;
  check Alcotest.bool "delete missing" false (Btree.delete t ~key:(key 0) ())

let test_delete_everything () =
  let t = make_tree () in
  for i = 0 to 299 do
    Btree.insert t ~key:(key i) ~value:(value i)
  done;
  for i = 299 downto 0 do
    ignore (Btree.delete t ~key:(key i) ())
  done;
  Btree.check_invariants t;
  check Alcotest.int "empty" 0 (Btree.entry_count t);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "scan empty"
    [] (Btree.to_list t);
  (* The tree remains usable. *)
  Btree.insert t ~key:(key 1) ~value:"again";
  check (Alcotest.list Alcotest.string) "reusable" [ "again" ]
    (Btree.lookup t (key 1))

let test_range_scans () =
  let t = make_tree () in
  for i = 0 to 99 do
    Btree.insert t ~key:(key (i * 2)) ~value:(value i)
  done;
  let collect lo hi =
    let c = Btree.range t ~lo ~hi in
    let rec drain acc =
      match Btree.next c with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
    in
    drain []
  in
  check (Alcotest.list Alcotest.string) "inclusive bounds"
    [ key 10; key 12; key 14 ]
    (collect (Btree.Inclusive (key 10)) (Btree.Inclusive (key 14)));
  check (Alcotest.list Alcotest.string) "exclusive bounds"
    [ key 12 ]
    (collect (Btree.Exclusive (key 10)) (Btree.Exclusive (key 14)));
  check (Alcotest.list Alcotest.string) "between stored keys"
    [ key 10; key 12 ]
    (collect (Btree.Inclusive (key 9)) (Btree.Inclusive (key 13)));
  check Alcotest.int "unbounded" 100
    (List.length (collect Btree.Unbounded Btree.Unbounded));
  check (Alcotest.list Alcotest.string) "empty range" []
    (collect (Btree.Inclusive (key 11)) (Btree.Inclusive (key 11)))

(* Property: a random sequence of inserts and deletes matches a sorted
   association list model. *)
let prop_btree_model =
  QCheck.Test.make ~name:"btree matches a multiset model" ~count:30
    QCheck.(list (pair bool (int_bound 60)))
    (fun ops ->
      let t = make_tree () in
      let model = ref [] in
      List.iter
        (fun (insert, k) ->
          if insert then begin
            Btree.insert t ~key:(key k) ~value:(value k);
            model := (key k, value k) :: !model
          end
          else if List.mem_assoc (key k) !model then begin
            let _ = Btree.delete t ~key:(key k) () in
            (* Remove one matching entry from the model. *)
            let removed = ref false in
            model :=
              List.filter
                (fun (mk, _) ->
                  if (not !removed) && String.equal mk (key k) then begin
                    removed := true;
                    false
                  end
                  else true)
                !model
          end)
        ops;
      Btree.check_invariants t;
      let expected =
        List.sort compare !model
      in
      List.sort compare (Btree.to_list t) = expected)

let test_open_existing () =
  let page_size = 256 in
  let pool = Bufpool.create ~frames:128 ~page_size () in
  let dev = Device.create_virtual ~page_size ~capacity:4096 () in
  let t = Btree.create ~buffer:pool ~device:dev ~name:"idx" ~cmp:String.compare in
  for i = 0 to 99 do
    Btree.insert t ~key:(key i) ~value:(value i)
  done;
  let t2 = Btree.open_existing ~buffer:pool ~device:dev ~name:"idx" ~cmp:String.compare in
  check Alcotest.int "entries persisted" 100 (Btree.entry_count t2);
  check (Alcotest.list Alcotest.string) "lookup via reopened" [ value 42 ]
    (Btree.lookup t2 (key 42))

let suite =
  [
    Alcotest.test_case "insert + lookup" `Quick test_insert_lookup;
    Alcotest.test_case "splits build height" `Quick test_splits_build_height;
    Alcotest.test_case "random insert orders" `Quick
      test_reverse_and_random_insert_orders;
    Alcotest.test_case "duplicate keys" `Quick test_duplicates;
    Alcotest.test_case "duplicates spanning leaves" `Quick
      test_duplicates_spanning_leaves;
    Alcotest.test_case "delete rebalances" `Quick test_delete_rebalances;
    Alcotest.test_case "delete everything" `Quick test_delete_everything;
    Alcotest.test_case "range scans" `Quick test_range_scans;
    Runner.qcheck prop_btree_model;
    Alcotest.test_case "open existing" `Quick test_open_existing;
  ]
