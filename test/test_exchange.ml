(* Tests for the exchange operator: all parallelism modes, end-of-stream
   protocol, flow control, broadcast, merge streams, no-fork interchange,
   early close, and the section 4.3 three-group pipeline example. *)

module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Group = Volcano.Group
module Port = Volcano.Port
module Packet = Volcano.Packet

let check = Alcotest.check
let tuple_of_int i = Tuple.of_ints [ i; i * 2; i * 3; i * 4 ]

let ints_of_iterator iterator =
  List.map (fun t -> Tuple.int_exn t 0) (Iterator.to_list iterator)

let sorted_ints iterator = List.sort compare (ints_of_iterator iterator)

let range n = List.init n (fun i -> i)

(* A single-producer vertical pipeline: records cross one process boundary
   unchanged and in order. *)
let test_vertical_pipeline () =
  let cfg = Exchange.config ~degree:1 () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun _ ->
        Iterator.generate ~count:1000 ~f:tuple_of_int)
  in
  check (Alcotest.list Alcotest.int) "in order" (range 1000)
    (ints_of_iterator iterator)

let test_degree_n_multiset degree =
  let cfg = Exchange.config ~degree ~packet_size:7 () in
  (* Each producer generates a distinct slice. *)
  let per_producer = 500 in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        Iterator.generate ~count:per_producer ~f:(fun i ->
            tuple_of_int ((rank * per_producer) + i)))
  in
  check (Alcotest.list Alcotest.int) "multiset preserved"
    (range (degree * per_producer))
    (sorted_ints iterator)

let test_three_producers () = test_degree_n_multiset 3
let test_eight_producers () = test_degree_n_multiset 8

let test_packet_size_one () =
  let cfg = Exchange.config ~degree:2 ~packet_size:1 () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        Iterator.generate ~count:50 ~f:(fun i -> tuple_of_int ((rank * 50) + i)))
  in
  check (Alcotest.list Alcotest.int) "packet size 1" (range 100)
    (sorted_ints iterator)

let test_flow_control_disabled () =
  let cfg = Exchange.config ~degree:2 ~flow_slack:None () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        Iterator.generate ~count:300 ~f:(fun i -> tuple_of_int ((rank * 300) + i)))
  in
  check (Alcotest.list Alcotest.int) "no flow control" (range 600)
    (sorted_ints iterator)

let test_central_fork () =
  let cfg = Exchange.config ~degree:4 ~fork_mode:Exchange.Fork_central () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        Iterator.generate ~count:100 ~f:(fun i -> tuple_of_int ((rank * 100) + i)))
  in
  check (Alcotest.list Alcotest.int) "central fork" (range 400)
    (sorted_ints iterator)

(* Early close: take 10 records from an effectively unbounded producer and
   close; producers must be cancelled and joined without hanging. *)
let test_early_close () =
  let cfg = Exchange.config ~degree:2 ~flow_slack:(Some 2) ~packet_size:5 () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun _ ->
        Iterator.generate ~count:10_000_000 ~f:tuple_of_int)
  in
  Iterator.open_ iterator;
  let taken = ref 0 in
  for _ = 1 to 10 do
    match Iterator.next iterator with
    | Some _ -> incr taken
    | None -> ()
  done;
  Iterator.close iterator;
  check Alcotest.int "took 10" 10 !taken

(* Broadcast: every consumer sees the whole stream.  With a solo consumer
   group this means the consumer sees each record exactly once per...
   producer; use 2 producers and verify duplication count. *)
let test_broadcast_solo () =
  let cfg = Exchange.config ~degree:2 ~partition:Exchange.Broadcast () in
  let iterator =
    Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun _ ->
        Iterator.generate ~count:100 ~f:tuple_of_int)
  in
  (* Each of the 2 producers sends all 100 records to the single consumer. *)
  let values = sorted_ints iterator in
  check Alcotest.int "record count" 200 (List.length values);
  let expected = List.sort compare (range 100 @ range 100) in
  check (Alcotest.list Alcotest.int) "each record twice" expected values

(* Hash partitioning with two consumer processes: build a nested pipeline
   where an outer exchange creates a 2-member consumer group for an inner
   exchange.  Verifies partition disjointness via a marker column. *)
let test_hash_partition_two_consumers () =
  let inner_id = Exchange.fresh_id () in
  let outer_cfg = Exchange.config ~degree:2 ~flow_slack:(Some 4) () in
  let inner_cfg = Exchange.config ~degree:3 ~partition:(Exchange.Hash_on [ 0 ]) () in
  (* Outer producers: 2 processes, each consuming its partition of the inner
     exchange (3 generator producers, hash-partitioned) and tagging records
     with the consumer rank in a fresh column. *)
  let outer =
    Exchange.iterator outer_cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        let inner =
          Exchange.iterator ~id:inner_id inner_cfg ~group ~input:(fun igroup ->
              let irank = Group.rank igroup in
              Iterator.generate ~count:200 ~f:(fun i ->
                  tuple_of_int ((irank * 200) + i)))
        in
        let tag tuple = Array.append tuple [| Value.Int rank |] in
        Iterator.make
          ~open_:(fun () -> Iterator.open_ inner)
          ~next:(fun () -> Option.map tag (Iterator.next inner))
          ~close:(fun () -> Iterator.close inner))
  in
  let tuples = Iterator.to_list outer in
  check Alcotest.int "total records" 600 (List.length tuples);
  (* Hash partitioning must be disjoint and exhaustive: a key goes to
     exactly one consumer rank. *)
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let key = Tuple.int_exn t 0 in
      let consumer = Tuple.int_exn t 4 in
      match Hashtbl.find_opt by_key key with
      | None -> Hashtbl.add by_key key consumer
      | Some c ->
          check Alcotest.int (Printf.sprintf "key %d same consumer" key) c consumer)
    tuples;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_key [] in
  check Alcotest.int "distinct keys" 600 (List.length keys)

(* Round-robin across two consumers balances exactly. *)
let test_round_robin_balance () =
  let inner_id = Exchange.fresh_id () in
  let outer_cfg = Exchange.config ~degree:2 () in
  let inner_cfg = Exchange.config ~degree:1 ~partition:Exchange.Round_robin () in
  let outer =
    Exchange.iterator outer_cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        let inner =
          Exchange.iterator ~id:inner_id inner_cfg ~group ~input:(fun _ ->
              Iterator.generate ~count:1000 ~f:tuple_of_int)
        in
        let count = ref 0 in
        Iterator.make
          ~open_:(fun () -> Iterator.open_ inner)
          ~next:(fun () ->
            match Iterator.next inner with
            | Some _ ->
                incr count;
                Some (Tuple.of_ints [ rank ])
            | None -> None)
          ~close:(fun () -> Iterator.close inner))
  in
  let per_consumer = Array.make 2 0 in
  Iterator.iter
    (fun t ->
      let rank = Tuple.int_exn t 0 in
      per_consumer.(rank) <- per_consumer.(rank) + 1)
    outer;
  check Alcotest.int "consumer 0" 500 per_consumer.(0);
  check Alcotest.int "consumer 1" 500 per_consumer.(1)

(* Merge streams: producers generate sorted runs; the per-producer streams
   must deliver each producer's records separately and in order. *)
let test_producer_streams () =
  let cfg = Exchange.config ~degree:3 ~packet_size:10 () in
  let streams =
    Exchange.producer_streams cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        Iterator.generate ~count:100 ~f:(fun i ->
            Tuple.of_ints [ (i * 3) + rank; rank ]))
  in
  check Alcotest.int "three streams" 3 (Array.length streams);
  Array.iter Iterator.open_ streams;
  let drain stream =
    let rec step acc =
      match Iterator.next stream with
      | None -> List.rev acc
      | Some t -> step (Tuple.int_exn t 0 :: acc)
    in
    step []
  in
  let all = Array.map drain streams in
  Array.iter Iterator.close streams;
  Array.iteri
    (fun producer values ->
      check Alcotest.int
        (Printf.sprintf "producer %d count" producer)
        100 (List.length values);
      let sorted = List.sort compare values in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "producer %d in order" producer)
        sorted values;
      List.iter
        (fun v ->
          check Alcotest.int
            (Printf.sprintf "producer %d congruence" producer)
            producer (v mod 3))
        values)
    all

(* No-fork interchange in a two-member group driven by an outer exchange:
   each member scans a half of the data and repartitions by hash so that
   each member ends up with its hash partition. *)
let test_interchange () =
  let inner_id = Exchange.fresh_id () in
  let outer_cfg = Exchange.config ~degree:2 () in
  let inner_cfg =
    Exchange.config ~degree:2 ~packet_size:5
      ~partition:(Exchange.Hash_on [ 0 ]) ()
  in
  let outer =
    Exchange.iterator outer_cfg ~group:(Group.solo ()) ~input:(fun group ->
        let rank = Group.rank group in
        let own_scan =
          Iterator.generate ~count:500 ~f:(fun i -> tuple_of_int ((rank * 500) + i))
        in
        let exchanged =
          Exchange.interchange ~id:inner_id inner_cfg ~group ~input:own_scan
        in
        let tag tuple = Array.append tuple [| Value.Int rank |] in
        Iterator.make
          ~open_:(fun () -> Iterator.open_ exchanged)
          ~next:(fun () -> Option.map tag (Iterator.next exchanged))
          ~close:(fun () -> Iterator.close exchanged))
  in
  let tuples = Iterator.to_list outer in
  check Alcotest.int "total" 1000 (List.length tuples);
  let hash_of key =
    let f = Volcano_tuple.Support.Partition.hash ~consumers:2 ~on:[ 0 ] () in
    f (Tuple.of_ints [ key ])
  in
  List.iter
    (fun t ->
      let key = Tuple.int_exn t 0 in
      let owner = Tuple.int_exn t 4 in
      check Alcotest.int
        (Printf.sprintf "key %d owner" key)
        (hash_of key) owner)
    tuples;
  let keys = List.sort compare (List.map (fun t -> Tuple.int_exn t 0) tuples) in
  check (Alcotest.list Alcotest.int) "all keys" (range 1000) keys

(* The section 4.3 example: groups A (1 process), BC (3), D (4) — eight
   processes, two exchanges, with operators B/C passing records within the
   BC processes. *)
let test_section_4_3_example () =
  let y_id = Exchange.fresh_id () in
  let x_cfg = Exchange.config ~degree:3 ~packet_size:83 () in
  let y_cfg = Exchange.config ~degree:4 ~packet_size:83 () in
  let total = 4 * 250 in
  let x =
    Exchange.iterator x_cfg ~group:(Group.solo ()) ~input:(fun bc_group ->
        (* operators B and C: simple per-process pass-through maps *)
        let y =
          Exchange.iterator ~id:y_id y_cfg ~group:bc_group ~input:(fun d_group ->
              let d_rank = Group.rank d_group in
              (* operator D: each D process generates a slice *)
              Iterator.generate ~count:250 ~f:(fun i ->
                  tuple_of_int ((d_rank * 250) + i)))
        in
        let c =
          Iterator.make
            ~open_:(fun () -> Iterator.open_ y)
            ~next:(fun () -> Iterator.next y)
            ~close:(fun () -> Iterator.close y)
        in
        let b =
          Iterator.make
            ~open_:(fun () -> Iterator.open_ c)
            ~next:(fun () -> Iterator.next c)
            ~close:(fun () -> Iterator.close c)
        in
        b)
  in
  check (Alcotest.list Alcotest.int) "eight-process pipeline" (range total)
    (sorted_ints x)

(* Flow control bounds the number of packets in flight. *)
let test_flow_control_bounds_depth () =
  let slack = 3 in
  let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:slack () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to 99 do
          let packet = Packet.create ~capacity:1 ~producer:0 in
          Packet.add packet (tuple_of_int i);
          if i = 99 then Packet.tag_end_of_stream packet;
          Port.send port ~producer:0 ~consumer:0 packet
        done)
  in
  let received = ref 0 in
  let rec drain () =
    match Port.receive port ~consumer:0 with
    | None -> ()
    | Some packet ->
        received := !received + Packet.length packet;
        if not (Packet.end_of_stream packet) then drain ()
  in
  drain ();
  Domain.join producer;
  check Alcotest.int "all records" 100 !received;
  check Alcotest.bool
    (Printf.sprintf "depth %d within slack %d" (Port.max_depth port) slack)
    true
    (Port.max_depth port <= slack)

let test_propagation_tree_children () =
  (* Round k: ranks < 2^k fork rank + 2^k; the union must cover 1..n-1
     exactly once. *)
  List.iter
    (fun size ->
      let spawned = Hashtbl.create 16 in
      for rank = 0 to size - 1 do
        List.iter
          (fun child ->
            Alcotest.(check bool)
              (Printf.sprintf "child %d of %d unique (n=%d)" child rank size)
              false (Hashtbl.mem spawned child);
            Hashtbl.add spawned child rank)
          (Volcano.Exchange.For_testing.children_of rank size)
      done;
      for rank = 1 to size - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d spawned (n=%d)" rank size)
          true (Hashtbl.mem spawned rank)
      done)
    [ 1; 2; 3; 5; 8; 13; 16 ]

(* A cancellation scope's rules: the first fire takes the ports
   registered so far; a port registered on a fired scope is shut on
   arrival, or poisoned if the scope was poisoned; and a poisoning after
   a cancel poisons the ports registered after it.  Then registrations
   from two domains race a cancel, and every port ends shut. *)
let test_scope_rules () =
  let port () = Port.create ~producers:1 ~consumers:1 ~flow_slack:1 () in
  let failure p = Option.map Printexc.to_string (Port.failure p) in
  let scope = Exchange.Scope.create () in
  let before = port () in
  Exchange.Scope.register scope before;
  check Alcotest.bool "an open scope leaves a port open" false
    (Port.is_shut_down before);
  Exchange.Scope.cancel scope;
  check Alcotest.bool "cancel shuts a registered port" true
    (Port.is_shut_down before);
  let late = port () in
  Exchange.Scope.register scope late;
  check Alcotest.bool "a port registered after a cancel is shut" true
    (Port.is_shut_down late);
  check Alcotest.(option string) "and not poisoned" None (failure late);
  Exchange.Scope.poison scope (Failure "late");
  check Alcotest.(option string) "a poison after the cancel spares the taken"
    None (failure before);
  let poisoned = port () in
  Exchange.Scope.register scope poisoned;
  check Alcotest.(option string) "and poisons later ports"
    (Some (Printexc.to_string (Failure "late")))
    (failure poisoned);
  let scope = Exchange.Scope.create () in
  Exchange.Scope.poison scope (Failure "first");
  Exchange.Scope.poison scope (Failure "second");
  Exchange.Scope.cancel scope;
  let p = port () in
  Exchange.Scope.register scope p;
  check Alcotest.(option string) "the first poisoning's reason stays"
    (Some (Printexc.to_string (Failure "first")))
    (failure p);
  for _ = 1 to 200 do
    let scope = Exchange.Scope.create () in
    let ports = Array.init 2 (fun _ -> Array.init 50 (fun _ -> port ())) in
    let registrars =
      Array.map
        (fun mine ->
          Domain.spawn (fun () -> Array.iter (Exchange.Scope.register scope) mine))
        ports
    in
    Exchange.Scope.cancel scope;
    Array.iter Domain.join registrars;
    Array.iter
      (Array.iter (fun p ->
           if not (Port.is_shut_down p) then
             Alcotest.fail "a port registered around a cancel stayed open"))
      ports
  done

let suite =
  [
    Alcotest.test_case "vertical pipeline preserves order" `Quick
      test_vertical_pipeline;
    Alcotest.test_case "three producers" `Quick test_three_producers;
    Alcotest.test_case "eight producers" `Quick test_eight_producers;
    Alcotest.test_case "packet size 1" `Quick test_packet_size_one;
    Alcotest.test_case "flow control disabled" `Quick test_flow_control_disabled;
    Alcotest.test_case "central fork" `Quick test_central_fork;
    Alcotest.test_case "early close cancels producers" `Quick test_early_close;
    Alcotest.test_case "broadcast replicates stream" `Quick test_broadcast_solo;
    Alcotest.test_case "hash partition two consumers" `Quick
      test_hash_partition_two_consumers;
    Alcotest.test_case "round robin balances" `Quick test_round_robin_balance;
    Alcotest.test_case "producer streams stay separate" `Quick
      test_producer_streams;
    Alcotest.test_case "no-fork interchange" `Quick test_interchange;
    Alcotest.test_case "section 4.3 eight-process example" `Quick
      test_section_4_3_example;
    Alcotest.test_case "flow control bounds depth" `Quick
      test_flow_control_bounds_depth;
    Alcotest.test_case "propagation tree covers all ranks" `Quick
      test_propagation_tree_children;
    Alcotest.test_case "a scope shuts what it holds and what comes late"
      `Quick test_scope_rules;
  ]
