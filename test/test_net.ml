(* The network plane: tuple/packet codec properties, a golden wire
   fixture, the remote exchange against real worker processes (the
   differential behind the encapsulation claim crossing a socket), its
   failure semantics (killed worker, injected faults at every net site),
   and the serving plane.

   The worker side of these tests is this very test binary re-executed
   in net-worker mode ([worker_main], dispatched from [main.ml] before
   Alcotest sees argv), so parent and workers share one task
   vocabulary — exactly the arrangement the CLI uses. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Remote = Volcano_plan.Remote
module Exchange = Volcano.Exchange
module Packet = Volcano.Packet
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Rng = Volcano_util.Rng
module Fault = Volcano_fault
module Injector = Volcano_fault.Injector
module Wire = Volcano_net.Wire
module Codec = Volcano_net.Codec
module Launcher = Volcano_net.Launcher
module Repart = Volcano_net.Repart
module Serve = Volcano_net.Serve
module Sched = Volcano_sched.Sched
module Session = Volcano_plan.Session
module Bufpool = Volcano_storage.Bufpool
module Shard = Volcano_storage.Shard
module Serial = Volcano_tuple.Serial

(* --- the test task vocabulary ---------------------------------------- *)

let gen_plan n =
  Plan.Generate_slice
    { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ i; i * i mod 97 ]) }

(* A stream that is deliberately slow to produce, so a query over it is
   reliably mid-stream when a test kills a worker or walks away. *)
let slow_plan n ms =
  Plan.Generate_slice
    {
      arity = 2;
      count = n;
      gen =
        (fun i ->
          if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.);
          Tuple.of_ints [ i; i * 2 ]);
    }

(* The sockets this process holds, stdio aside. *)
let open_sockets () =
  Array.fold_left
    (fun n name ->
      match int_of_string_opt name with
      | Some fd when fd > 2 -> (
          match Unix.readlink ("/proc/self/fd/" ^ name) with
          | target when String.starts_with ~prefix:"socket:" target -> n + 1
          | _ -> n
          | exception Unix.Unix_error _ -> n)
      | _ -> n)
    0
    (Sys.readdir "/proc/self/fd")

let parse_task task =
  match String.split_on_char ':' task with
  | [ "corpus"; seed; depth ] ->
      Test_random_plans.random_plan
        (Rng.create (Int64.of_string seed))
        (int_of_string depth)
  | [ "gen"; n ] -> gen_plan (int_of_string n)
  | [ "slow"; n; ms ] -> slow_plan (int_of_string n) (int_of_string ms)
  | _ -> failwith ("unknown test task " ^ task)

(* Worker-process main: [main.ml] dispatches here when argv says
   net-worker, before Alcotest parses anything. *)
let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      match String.split_on_char ':' task with
      | [ "fail"; msg ] -> failwith msg
      | [ "die" ] ->
          (* gone before it reads the parent's read set *)
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          assert false
      | [ "fds" ] ->
          (* one row: how many sockets this worker inherited or made *)
          let row = ref (Some (Tuple.of_ints [ open_sockets () ])) in
          fun _read_set () ->
            let r = !row in
            row := None;
            r
      | _ ->
          let env = Env.create ~frames:128 ~page_size:512 () in
          Remote.shard_pull env ~shard ~shards (parse_task task))

let worker_command ~socket = [| Sys.executable_name; "net-worker"; socket |]

let register ?pids env =
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task
                                   ~packet_size ->
      let launched =
        Launcher.launch ~faults
          ?repartition:
            (Option.map
               (fun (spec, dests) -> Repart.of_partition_spec spec ~dests)
               repartition)
          ~command:worker_command ~workers ~task ~packet_size ()
      in
      Option.iter (fun r -> r := Array.to_list launched.Launcher.pids) pids;
      launched.Launcher.sources)

let remote ?(workers = 2) ?(packet_size = 7) ?(flow_slack = Some 4) ~task input
    =
  Plan.Remote
    {
      cfg = Exchange.config ~degree:workers ~packet_size ~flow_slack ();
      workers;
      task;
      input;
    }

let sorted run = List.sort Tuple.compare run

(* Same harness as the chaos suite: a hang is a failure, not a stuck CI. *)
type outcome = Rows of Tuple.t list | Raised of exn | Timeout

let run_with_timeout ?(seconds = 30.0) f =
  let slot = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        let r = try Rows (f ()) with exn -> Raised exn in
        Atomic.set slot (Some r))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get slot with
    | Some r ->
        Domain.join worker;
        r
    | None ->
        if Unix.gettimeofday () > deadline then Timeout
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
  in
  wait ()

let check_quiescent ~what env ~unjoined0 ~live0 =
  Bufpool.assert_quiescent ~what (Env.buffer env);
  Alcotest.(check int)
    (what ^ ": no unjoined tasks")
    unjoined0
    (Exchange.unjoined_tasks ());
  Alcotest.(check int)
    (what ^ ": no live tasks")
    live0 (Exchange.live_tasks ());
  Sched.assert_quiescent ~what (Sched.default ())

(* --- codec properties ------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        (* NaN is excluded only because the test compares structurally;
           the codec itself round-trips any bit pattern (int64 bits). *)
        map
          (fun f -> Value.Float (if Float.is_nan f then 0.0 else f))
          float;
        map (fun s -> Value.Str s) (string_size (int_bound 40));
      ])

let tuple_arb =
  QCheck.make
    ~print:(fun t -> Tuple.to_string t)
    QCheck.Gen.(map Tuple.make (list_size (int_bound 8) value_gen))

let prop_rows_roundtrip =
  QCheck.Test.make ~name:"rows codec round-trips all column types" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 12) tuple_arb)
    (fun rows -> Codec.decode_rows (Codec.encode_rows rows) = rows)

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet codec round-trips through a shell"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 12) tuple_arb)
    (fun rows ->
      let capacity = max 1 (List.length rows) in
      let src = Packet.create ~capacity ~producer:0 in
      List.iter (Packet.add src) rows;
      let dst = Packet.create ~capacity ~producer:1 in
      Codec.decode_into (Codec.encode src) dst;
      List.init (Packet.length dst) (Packet.get dst) = rows)

let prop_truncation_rejected =
  QCheck.Test.make ~name:"every strict prefix of an encoding is rejected"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 4) tuple_arb)
    (fun rows ->
      let buf = Codec.encode_rows rows in
      let rejected len =
        match Codec.decode_rows (Bytes.sub buf 0 len) with
        | _ -> false
        | exception Wire.Corrupt _ -> true
      in
      List.for_all rejected (List.init (Bytes.length buf) Fun.id))

(* A routed frame is [u16 dest | packet payload]: the worker encodes the
   packet straight after the destination and the launcher decodes it in
   place, at offset 2.  The full frame round-trips; every strict prefix,
   the header-only and shorter-than-header ones included, is rejected. *)
let routed_frame rows =
  let src = Packet.create ~capacity:(max 1 (List.length rows)) ~producer:0 in
  List.iter (Packet.add src) rows;
  let frame = Codec.encode ~off:2 src in
  Bytes.set_uint16_le frame 0 7;
  frame

let prop_routed_truncation_rejected =
  QCheck.Test.make ~name:"routed frames round-trip; every prefix is rejected"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 4) tuple_arb)
    (fun rows ->
      let frame = routed_frame rows in
      let shell () = Packet.create ~capacity:(max 1 (List.length rows)) ~producer:1 in
      let rejected len =
        match Codec.decode_into ~off:2 (Bytes.sub frame 0 len) (shell ()) with
        | () -> false
        | exception Wire.Corrupt _ -> true
      in
      let dst = shell () in
      Codec.decode_into ~off:2 frame dst;
      Bytes.get_uint16_le frame 0 = 7
      && List.init (Packet.length dst) (Packet.get dst) = rows
      && List.for_all rejected (List.init (Bytes.length frame) Fun.id))

let test_short_routed_frame () =
  List.iter
    (fun len ->
      match
        Codec.decode_into ~off:2 (Bytes.make len '\000')
          (Packet.create ~capacity:4 ~producer:0)
      with
      | () -> Alcotest.failf "a %d-byte routed frame decoded" len
      | exception Wire.Corrupt _ -> ())
    [ 0; 1; 2; 3 ]

(* The in-place twins of the three truncation properties above.  A
   connection's input buffer is reused, so a payload sits in front of
   stale bytes from earlier, longer frames: here each prefix is decoded
   inside the full-length buffer, its length passed explicitly, and every
   strict prefix must still be rejected. *)
let prop_truncation_rejected_in_place =
  QCheck.Test.make ~name:"every strict prefix is rejected in place (rows)"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 4) tuple_arb)
    (fun rows ->
      let buf = Codec.encode_rows rows in
      let rejected len =
        match Codec.decode_rows ~len buf with
        | _ -> false
        | exception Wire.Corrupt _ -> true
      in
      Codec.decode_rows ~len:(Bytes.length buf) buf = rows
      && List.for_all rejected (List.init (Bytes.length buf) Fun.id))

let prop_packet_truncation_rejected_in_place =
  QCheck.Test.make ~name:"every strict prefix is rejected in place (packet)"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 4) tuple_arb)
    (fun rows ->
      let capacity = max 1 (List.length rows) in
      let src = Packet.create ~capacity ~producer:0 in
      List.iter (Packet.add src) rows;
      let buf = Codec.encode src in
      let shell () = Packet.create ~capacity ~producer:1 in
      let rejected len =
        match Codec.decode_into ~len buf (shell ()) with
        | () -> false
        | exception Wire.Corrupt _ -> true
      in
      List.for_all rejected (List.init (Bytes.length buf) Fun.id))

let prop_routed_truncation_rejected_in_place =
  QCheck.Test.make ~name:"every strict prefix is rejected in place (routed)"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_bound 4) tuple_arb)
    (fun rows ->
      let frame = routed_frame rows in
      let shell () =
        Packet.create ~capacity:(max 1 (List.length rows)) ~producer:1
      in
      let rejected len =
        match Codec.decode_into ~off:2 ~len frame (shell ()) with
        | () -> false
        | exception Wire.Corrupt _ -> true
      in
      List.for_all rejected (List.init (Bytes.length frame) Fun.id))

let packet_of rows =
  let packet = Packet.create ~capacity:(List.length rows) ~producer:0 in
  List.iter (Packet.add packet) rows;
  packet

let rows_of packet = List.init (Packet.length packet) (Packet.get packet)

(* A short frame read after a long one on the same connection lands in
   the same input buffer, in front of the long frame's tail, and decodes
   to exactly its own rows. *)
let test_short_frame_after_long () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Wire.conn a and reader = Wire.conn b in
  let long =
    List.init 40 (fun i ->
        Tuple.make [ Value.Int i; Value.Str (String.make 30 'x') ])
  and short = [ Tuple.of_ints [ 7 ]; Tuple.make [ Value.Null ] ] in
  Codec.send writer (packet_of long);
  Codec.send writer ~dest:1 (packet_of short);
  let read_into ?off () =
    let _kind, len = Wire.read reader in
    let shell = Packet.create ~capacity:64 ~producer:0 in
    Codec.decode_into ?off ~len (Wire.payload reader) shell;
    (len, rows_of shell)
  in
  let long_len, long_rows = read_into () in
  let short_len, short_rows = read_into ~off:2 () in
  Unix.close a;
  Unix.close b;
  Alcotest.(check bool) "the long frame's rows" true (long_rows = long);
  Alcotest.(check bool)
    "stale bytes follow the short payload" true
    (short_len < long_len && Bytes.length (Wire.payload reader) >= long_len);
  Alcotest.(check bool) "exactly the short frame's rows" true
    (short_rows = short)

(* Reading data frames allocates no frame: the payload lands in the
   connection's input buffer.  A fresh ~12 KB payload per frame is a
   major-heap allocation (past the minor heap's object limit) of ~1,500
   words; after warm-up a read adds under 16 major words per frame. *)
let test_frame_read_allocation () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Wire.conn a and reader = Wire.conn b in
  let packet =
    packet_of (List.init 83 (fun i -> Tuple.of_ints (List.init 16 (( + ) i))))
  in
  let warm = 20 and n = 200 in
  let sender =
    Thread.create
      (fun () ->
        for _ = 1 to warm + n do
          Codec.send writer packet
        done)
      ()
  in
  for _ = 1 to warm do
    ignore (Wire.read reader)
  done;
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major () in
  let bytes = ref 0 in
  for _ = 1 to n do
    let _, len = Wire.read reader in
    bytes := !bytes + len
  done;
  let per_frame = (major () -. before) /. float_of_int n in
  Thread.join sender;
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "payload bytes" (n * (2 + (83 * 146))) !bytes;
  if per_frame >= 16.0 then
    Alcotest.failf "%.1f major words per frame read, bound 16" per_frame

let test_wire_hello_err_roundtrip () =
  let h =
    Wire.parse_hello
      (Wire.hello ~task:"corpus:7:2" ~shard:3 ~shards:5 ~packet_size:83 ())
  in
  Alcotest.(check string) "task" "corpus:7:2" h.Wire.task;
  Alcotest.(check int) "shard" 3 h.Wire.shard;
  Alcotest.(check int) "shards" 5 h.Wire.shards;
  Alcotest.(check int) "packet size" 83 h.Wire.packet_size;
  Alcotest.(check bool) "merge hello" false h.Wire.repartition;
  let h' =
    Wire.parse_hello
      (Wire.hello ~repartition:true ~task:"t" ~shard:0 ~shards:1
         ~packet_size:7 ())
  in
  Alcotest.(check bool) "repartition flag" true h'.Wire.repartition;
  let site, message = Wire.parse_err (Wire.err ~site:"net-worker-1" ~message:"boom") in
  Alcotest.(check string) "site" "net-worker-1" site;
  Alcotest.(check string) "message" "boom" message

(* The golden fixture: the exact bytes of a known row-list encoding,
   asserted in both directions.  A codec change that breaks
   cross-process (or cross-version) compatibility must show up here as
   a changed constant, not as a silent re-encode. *)
let golden_rows =
  [
    Tuple.make
      [ Value.Int 42; Value.Null; Value.Float 1.5; Value.Str "volcano" ];
    Tuple.make [ Value.Int (-1) ];
  ]

let golden_hex =
  "02000000" (* u32 LE row count *)
  ^ "0400" (* u16 LE field count *)
  ^ "012a00000000000000" (* Int 42 *)
  ^ "00" (* Null *)
  ^ "02000000000000f83f" (* Float 1.5 (IEEE bits LE) *)
  ^ "030700766f6c63616e6f" (* Str "volcano" *)
  ^ "0100" (* u16 LE field count *)
  ^ "01ffffffffffffffff" (* Int -1 *)

let hex_of bytes =
  String.concat ""
    (List.init (Bytes.length bytes) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get bytes i))))

let bytes_of_hex s =
  Bytes.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_golden_frame () =
  Alcotest.(check string)
    "encode matches the golden bytes" golden_hex
    (hex_of (Codec.encode_rows golden_rows));
  Alcotest.(check bool)
    "golden bytes decode to the rows" true
    (Codec.decode_rows (bytes_of_hex golden_hex) = golden_rows)

(* The read-set frame: pinned bytes for "every column", an empty list and
   a two-column list, a parser that raises only [Wire.Corrupt] on any
   bytes, and every strict prefix of an encoding rejected. *)
let test_narrow_golden () =
  List.iter
    (fun (read_set, hex) ->
      Alcotest.(check string) ("narrow encodes as " ^ hex) hex (hex_of (Wire.narrow read_set));
      Alcotest.(check (option (list int)))
        ("narrow decodes " ^ hex) read_set
        (Wire.parse_narrow (bytes_of_hex hex)))
    [
      (None, "00" (* tag 0: every column *));
      (Some [], "01" ^ "0000" (* tag 1, u16 LE count 0 *));
      (Some [ 0; 4 ], "01" ^ "0200" ^ "0000" ^ "0400" (* count 2, columns 0 and 4 *));
    ]

let prop_narrow_total =
  QCheck.Test.make ~name:"the narrow parser raises only Wire.Corrupt" ~count:500
    QCheck.(string_of_size (Gen.int_bound 12))
    (fun s ->
      match Wire.parse_narrow (Bytes.of_string s) with
      | _ -> true
      | exception Wire.Corrupt _ -> true)

let prop_narrow_truncation_rejected =
  QCheck.Test.make ~name:"narrow frames round-trip; every prefix is rejected"
    ~count:200
    QCheck.(option (list_of_size (Gen.int_bound 20) (int_bound 0xffff)))
    (fun read_set ->
      let buf = Wire.narrow read_set in
      let rejected len =
        match Wire.parse_narrow (Bytes.sub buf 0 len) with
        | _ -> false
        | exception Wire.Corrupt _ -> true
      in
      Wire.parse_narrow buf = read_set
      && List.for_all rejected (List.init (Bytes.length buf) Fun.id))

(* The site's control-frame parsers are total: what they accept, the
   site can act on.  Each spec below used to parse: an empty hash sent
   every row to one consumer, a range with the wrong bound count tripped
   [Support.Partition.range]'s assert at the site, and an undecodable
   bound raised [Invalid_argument] from the router. *)
let test_control_parsers_reject () =
  let corrupt what bytes parse =
    match parse bytes with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Wire.Corrupt _ -> ()
  in
  let rep dests spec = Wire.repartition { Wire.dests; spec } in
  let bound v = Serial.encode_string [| v |] in
  let reject what bytes = corrupt what bytes Wire.parse_repartition in
  reject "a hash on no columns" (rep 2 (Shard.Hash []));
  reject "two bounds for two destinations"
    (rep 2 (Shard.Range (0, [| bound (Value.Int 1); bound (Value.Int 2) |])));
  reject "no bound for three destinations" (rep 3 (Shard.Range (0, [||])));
  reject "a bound of two values"
    (rep 2
       (Shard.Range
          (0, [| Serial.encode_string [| Value.Int 1; Value.Int 2 |] |])));
  reject "a bound of no value"
    (rep 2 (Shard.Range (0, [| Serial.encode_string [||] |])));
  reject "a bound that does not decode" (rep 2 (Shard.Range (0, [| "\001" |])));
  reject "trailing bytes after a spec"
    (Bytes.cat (rep 2 (Shard.Hash [ 0 ])) (Bytes.make 1 '\000'));
  let hello_of shard shards = Wire.hello ~task:"t" ~shard ~shards ~packet_size:7 () in
  let hello = hello_of 1 2 in
  corrupt "a hello with trailing bytes" (Bytes.cat hello (Bytes.make 1 'x')) Wire.parse_hello;
  corrupt "shard 2 of 2" (hello_of 2 2) Wire.parse_hello;
  corrupt "shard 0 of 0" (hello_of 0 0) Wire.parse_hello;
  (* what the launcher builds still parses *)
  let spec =
    Repart.of_partition_spec
      (Exchange.Range_on (1, [| Value.Int 5; Value.Str "k" |]))
      ~dests:3
  in
  Alcotest.(check bool) "a launcher's range spec parses" true
    (Wire.parse_repartition (Wire.repartition spec) = spec);
  Alcotest.(check int) "a good hello parses" 1 (Wire.parse_hello hello).Wire.shard

(* Control payloads as a site might receive them: arbitrary bytes, and
   encodings of well- and ill-formed specs, hellos and errors, each maybe
   with one byte changed, cut short or extended. *)
let control_bytes_gen =
  let open QCheck.Gen in
  let col = int_bound 20 in
  let spec =
    oneof
      [
        map (fun cols -> Shard.Hash cols) (list_size (int_bound 3) col);
        map2
          (fun c bounds ->
            Shard.Range
              (c, Array.of_list (List.map (fun v -> Serial.encode_string [| v |]) bounds)))
          col
          (list_size (int_bound 5) value_gen);
      ]
  in
  let encoding =
    oneof
      [
        map2 (fun dests spec -> Wire.repartition { Wire.dests; spec }) (int_bound 5) spec;
        map3
          (fun shard shards task -> Wire.hello ~task ~shard ~shards ~packet_size:7 ())
          (int_bound 4) (int_bound 4) (string_size (int_bound 6));
        map2 (fun site message -> Wire.err ~site ~message) (string_size (int_bound 6))
          (string_size (int_bound 6));
      ]
  in
  let mangle b =
    let n = Bytes.length b in
    oneof
      [
        return b;
        map (fun k -> Bytes.sub b 0 (if n = 0 then 0 else k mod n)) nat;
        map (fun s -> Bytes.cat b (Bytes.of_string s)) (string_size (int_range 1 3));
        map2
          (fun k c ->
            let b = Bytes.copy b in
            if n > 0 then Bytes.set b (k mod n) c;
            b)
          nat char;
      ]
  in
  oneof [ map Bytes.of_string (string_size (int_bound 24)); encoding >>= mangle ]

let prop_control_parsers_total =
  QCheck.Test.make ~name:"control parsers raise only Wire.Corrupt; accepted specs route"
    ~count:2000
    (QCheck.make
       ~print:(fun b -> String.escaped (Bytes.to_string b))
       control_bytes_gen)
    (fun b ->
      let total parse = match parse b with _ -> () | exception Wire.Corrupt _ -> () in
      total Wire.parse_hello;
      total Wire.parse_err;
      match Wire.parse_repartition b with
      | exception Wire.Corrupt _ -> true
      | { Wire.dests; spec } ->
          let route = Repart.route spec ~dests in
          let width =
            1
            + List.fold_left max 0
                (match spec with
                | Shard.Hash cols -> cols
                | Shard.Range (c, _) -> [ c ])
          in
          List.iter
            (fun v -> ignore (route (Array.make width v) : int))
            [ Value.Null; Value.Int (-3); Value.Int 7; Value.Float 0.5; Value.Str "m" ];
          true)

(* --- remote exchange against real worker processes -------------------- *)

(* The encapsulation claim across the wire: [Plan.Remote] over N worker
   processes must be bit-identical (as a multiset) to the same subtree
   under a local exchange of the same degree — workers rebuild the
   corpus plan from its seed and shard it exactly as local producer
   ranks would. *)
let test_remote_local_differential () =
  for i = 0 to 7 do
    let seed = Int64.of_int ((104729 * i) + 3) in
    let depth = 1 + (i mod 2) in
    let workers = 2 + (i mod 2) in
    let serial = Test_random_plans.random_plan (Rng.create seed) depth in
    let env = Env.create ~frames:128 ~page_size:512 () in
    register env;
    let unjoined0 = Exchange.unjoined_tasks () in
    let live0 = Exchange.live_tasks () in
    let local =
      sorted
        (Runner.run env
           (Plan.Exchange
              {
                cfg = Exchange.config ~degree:workers ~packet_size:7 ();
                input = serial;
              }))
    in
    let task = Printf.sprintf "corpus:%Ld:%d" seed depth in
    let outcome =
      run_with_timeout (fun () ->
          Runner.run env (remote ~workers ~task serial))
    in
    (match outcome with
    | Rows rows ->
        if sorted rows <> local then
          Alcotest.failf "remote diverges from local (seed=%Ld depth=%d)" seed
            depth
    | Raised exn ->
        Alcotest.failf "remote run failed (seed=%Ld): %s" seed
          (Printexc.to_string exn)
    | Timeout -> Alcotest.failf "remote run hung (seed=%Ld)" seed);
    check_quiescent ~what:"remote differential" env ~unjoined0 ~live0
  done

(* The remote face samples its port like every local face: one feeder
   task per source, and every packet a feeder pushed reached the
   consumer. *)
let test_remote_sample () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let plan = remote ~workers:2 ~task:"gen:3000" (gen_plan 3000) in
  let sink = Volcano_obs.Obs.create () in
  let obs = Compile.observe sink plan in
  (match
     run_with_timeout (fun () ->
         Volcano.Iterator.to_list (Compile.compile ~obs env plan))
   with
  | Rows rows -> Alcotest.(check int) "rows" 3000 (List.length rows)
  | Raised exn ->
      Alcotest.failf "remote run failed: %s" (Printexc.to_string exn)
  | Timeout -> Alcotest.fail "remote run hung");
  (match
     Option.bind (obs.Compile.node_of plan) (fun node ->
         Volcano_obs.Obs.exchange_sample sink ~node)
   with
  | Some s ->
      Alcotest.(check int) "one feeder task per source" 2
        s.Volcano_obs.Obs.tasks;
      Alcotest.(check int) "packets sent = received" s.packets_sent
        s.packets_received;
      Alcotest.(check int) "every row crossed" 3000 s.records
  | None -> Alcotest.fail "remote exchange not sampled");
  check_quiescent ~what:"remote sample" env ~unjoined0 ~live0

(* A repartitioning remote edge: [workers] sites route [n] rows on
   column 0 to the 2 ranks of the exchange above. *)
let routed_plan ~workers ~task n =
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:2 ~packet_size:83 ();
      input =
        Plan.Remote
          {
            cfg =
              Exchange.config ~degree:workers ~packet_size:83
                ~partition:(Exchange.Hash_on [ 0 ]) ~flow_slack:(Some 4) ();
            workers;
            task;
            input = gen_plan n;
          };
    }

(* A routed packet's shell comes from the lane of the consumer it is
   routed to, so the consumer recycles it into the lane it came from and
   the feeder reuses it.  Drawing every routed shell from consumer 0's
   lane left half the consumers' recycled shells unused: a reuse ratio
   near 0.5 on two consumers. *)
let test_routed_packet_reuse () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let plan = routed_plan ~workers:2 ~task:"gen:40000" 40000 in
  let remote_node = match plan with Plan.Exchange { input; _ } -> input | _ -> plan in
  let sink = Volcano_obs.Obs.create () in
  let obs = Compile.observe sink plan in
  (match
     run_with_timeout (fun () ->
         Volcano.Iterator.to_list (Compile.compile ~obs env plan))
   with
  | Rows rows -> Alcotest.(check int) "rows" 40000 (List.length rows)
  | Raised exn ->
      Alcotest.failf "routed run failed: %s" (Printexc.to_string exn)
  | Timeout -> Alcotest.fail "routed run hung");
  (match
     Option.bind (obs.Compile.node_of remote_node) (fun node ->
         Volcano_obs.Obs.exchange_sample sink ~node)
   with
  | Some s ->
      let ratio =
        float_of_int s.Volcano_obs.Obs.pool_reused
        /. float_of_int (s.pool_allocated + s.pool_reused)
      in
      if ratio < 0.75 then
        Alcotest.failf "routed packet reuse ratio %.3f (%d fresh, %d reused)"
          ratio s.pool_allocated s.pool_reused
  | None -> Alcotest.fail "remote exchange not sampled");
  check_quiescent ~what:"routed packet reuse" env ~unjoined0 ~live0

(* A rogue worker for [test_routed_dest_out_of_range]: it answers its
   Hello with one hand-built routed frame naming consumer [dests] — one
   past the last — then a clean Eos. *)
let rogue_worker_main ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let conn = Wire.conn fd in
  let control () =
    let _, len = Wire.read conn in
    Bytes.sub (Wire.payload conn) 0 len
  in
  let hello = Wire.parse_hello (control ()) in
  let { Wire.dests; _ } = Wire.parse_repartition (control ()) in
  let packet = Packet.create ~capacity:hello.Wire.packet_size ~producer:0 in
  Packet.add packet (Tuple.of_ints [ 1; 1 ]);
  Codec.send conn ~dest:dests packet;
  Wire.write conn Wire.Eos Bytes.empty;
  Unix.close fd

(* A routed frame naming a consumer the edge does not have is a corrupt
   frame: exactly one [Query_failed] carrying [Wire.Corrupt], never its
   rows delivered to some other rank. *)
let test_routed_dest_out_of_range () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task
                                   ~packet_size ->
      (Launcher.launch ~faults
         ?repartition:
           (Option.map
              (fun (spec, dests) -> Repart.of_partition_spec spec ~dests)
              repartition)
         ~command:(fun ~socket ->
           [| Sys.executable_name; "net-rogue-worker"; socket |])
         ~workers ~task ~packet_size ())
        .Launcher.sources);
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  (match
     run_with_timeout (fun () ->
         Runner.run env (routed_plan ~workers:1 ~task:"rogue" 10))
   with
  | Raised (Exchange.Query_failed { origin = Wire.Corrupt _; _ }) -> ()
  | Raised exn ->
      Alcotest.failf "out-of-range routing surfaced as %s"
        (Printexc.to_string exn)
  | Rows _ -> Alcotest.fail "a frame routed past the last consumer was accepted"
  | Timeout -> Alcotest.fail "out-of-range routing hung the query");
  check_quiescent ~what:"routed dest out of range" env ~unjoined0 ~live0

(* --- a narrow pool and a stalled site ----------------------------------- *)

(* Remote feeders are pool tasks, and a pull that waits for the wire
   suspends its feeder: on a 1-worker pool, a 2-site remote edge —
   merged, and repartitioned to two consuming ranks — returns exactly
   the local exchange's rows. *)
let test_narrow_pool_differential () =
  Session.with_session ~frames:128 ~page_size:512 ~workers:1 (fun session ->
      let env = Session.env session in
      register env;
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let expected =
        sorted
          (Session.exec session
             (`Plan
                (Plan.Exchange
                   {
                     cfg = Exchange.config ~degree:2 ~packet_size:83 ();
                     input = gen_plan 5000;
                   })))
      in
      List.iter
        (fun (what, plan) ->
          match
            run_with_timeout (fun () -> Session.exec session (`Plan plan))
          with
          | Rows rows ->
              if sorted rows <> expected then
                Alcotest.failf "%s: a 1-worker pool diverges from local" what
          | Raised exn ->
              Alcotest.failf "%s failed: %s" what (Printexc.to_string exn)
          | Timeout -> Alcotest.failf "%s hung on a 1-worker pool" what)
        [
          ("merged edge", remote ~workers:2 ~task:"gen:5000" (gen_plan 5000));
          ("repartitioned edge", routed_plan ~workers:2 ~task:"gen:5000" 5000);
        ];
      check_quiescent ~what:"narrow pool differential" env ~unjoined0 ~live0;
      Sched.assert_quiescent ~what:"narrow pool" (Session.sched session))

(* A worker that answers its Hello with half a data frame and then
   stalls, until its parent cancels (a Cancel frame or a torn socket);
   the parent's read set arrives meanwhile and is ignored. *)
let stall_worker_main ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let conn = Wire.conn fd in
  ignore (Wire.read conn : Wire.kind * int);
  (* The header of a 100-byte Data frame (u32 LE length | u8 kind 2), then
     half its payload. *)
  let frame = Bytes.make (Wire.header_size + 100) '\000' in
  Bytes.set_int32_le frame 0 100l;
  Bytes.set_uint8 frame 4 2;
  ignore (Unix.write fd frame 0 (Wire.header_size + 50));
  let rec until_cancel () =
    match Wire.read conn with
    | Wire.Cancel, _ -> ()
    | _ -> until_cancel ()
    | exception _ -> ()
  in
  until_cancel ();
  Unix.close fd

(* A site that stalls mid-frame must not pin a pool worker: while its
   feeder waits, a local query on the same 1-worker session completes.
   Cancelling the stalled query then ends it in exactly one
   [Query_failed] (or a clean cancel), with every task joined. *)
let test_stalled_site () =
  Session.with_session ~frames:128 ~page_size:512 ~workers:1 ~max_concurrent:2
    (fun session ->
      let env = Session.env session and sched = Session.sched session in
      Env.set_remote_launcher env
        (fun ~faults ~repartition:_ ~workers ~task ~packet_size ->
          (Launcher.launch ~faults
             ~command:(fun ~socket ->
               [| Sys.executable_name; "net-stall-worker"; socket |])
             ~workers ~task ~packet_size ())
            .Launcher.sources);
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let job =
        Session.submit session (`Plan (remote ~workers:1 ~task:"stall" (gen_plan 1)))
      in
      (* Any failure below cancels the stalled query first (tearing its
         socket), so the session can drain and close. *)
      Fun.protect ~finally:(fun () -> Session.cancel job) @@ fun () ->
      (* The query's consumer and its feeder both park: one on the port,
         one on the socket. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Sched.suspended_tasks sched < 2 do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the stalled query never parked its feeder";
        Unix.sleepf 0.001
      done;
      (match
         run_with_timeout ~seconds:10.0 (fun () ->
             Session.exec session
               (`Plan
                  (Plan.Exchange
                     { cfg = Exchange.config ~degree:2 (); input = gen_plan 1000 })))
       with
      | Rows rows -> Alcotest.(check int) "local rows" 1000 (List.length rows)
      | Raised exn ->
          Alcotest.failf "local query failed: %s" (Printexc.to_string exn)
      | Timeout -> Alcotest.fail "a stalled site pinned the only pool worker");
      Alcotest.(check bool)
        "the stalled query is still running" true
        (Session.status job = Volcano_sched.Runtime.Running);
      Session.cancel job;
      (match
         run_with_timeout (fun () ->
             match Session.await job with Ok rows -> rows | Error exn -> raise exn)
       with
      | Raised (Exchange.Query_failed _ | Volcano_sched.Runtime.Cancelled) -> ()
      | Raised exn ->
          Alcotest.failf "cancel surfaced as %s" (Printexc.to_string exn)
      | Rows _ -> Alcotest.fail "a cancelled stalled query returned rows"
      | Timeout -> Alcotest.fail "cancel never reached the stalled feeder");
      check_quiescent ~what:"stalled site" env ~unjoined0 ~live0;
      Sched.assert_quiescent ~what:"stalled site" sched)

(* A site that is slow to start must not pin a pool worker either: the
   launcher's accept waits on the poller, so while a remote query waits
   for its site to connect, a local query on the same 1-worker session
   completes.  The site's start is held until then by a gate file (at
   most 10 s), so the check does not depend on how long anything takes;
   then the remote query returns every row. *)
let test_slow_site_start () =
  let gate = Filename.temp_file "volcano_site_gate_" "" in
  Sys.remove gate;
  Fun.protect ~finally:(fun () -> try Sys.remove gate with Sys_error _ -> ())
  @@ fun () ->
  Session.with_session ~frames:128 ~page_size:512 ~workers:1 ~max_concurrent:2
    (fun session ->
      let env = Session.env session and sched = Session.sched session in
      Env.set_remote_launcher env
        (fun ~faults ~repartition:_ ~workers ~task ~packet_size ->
          (Launcher.launch ~faults
             ~command:(fun ~socket ->
               [|
                 "/bin/sh";
                 "-c";
                 "i=0; while [ ! -e \"$1\" ] && [ $i -lt 200 ]; do sleep \
                  0.05; i=$((i+1)); done; exec \"$2\" net-worker \"$3\"";
                 "site";
                 gate;
                 Sys.executable_name;
                 socket;
               |])
             ~workers ~task ~packet_size ())
            .Launcher.sources);
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let job =
        Session.submit session
          (`Plan (remote ~workers:1 ~task:"gen:500" (gen_plan 500)))
      in
      let open_gate () = close_out (open_out gate) in
      Fun.protect ~finally:open_gate @@ fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Sched.suspended_tasks sched < 1 do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the query never parked waiting for its site";
        Unix.sleepf 0.001
      done;
      (match
         run_with_timeout ~seconds:10.0 (fun () ->
             Session.exec session
               (`Plan
                  (Plan.Exchange
                     { cfg = Exchange.config ~degree:2 (); input = gen_plan 1000 })))
       with
      | Rows rows -> Alcotest.(check int) "local rows" 1000 (List.length rows)
      | Raised exn ->
          Alcotest.failf "local query failed: %s" (Printexc.to_string exn)
      | Timeout -> Alcotest.fail "a slow site start pinned the only pool worker");
      Alcotest.(check bool)
        "the remote query still waits for its site" true
        (Session.status job = Volcano_sched.Runtime.Running);
      open_gate ();
      (match
         run_with_timeout (fun () ->
             match Session.await job with Ok rows -> rows | Error exn -> raise exn)
       with
      | Rows rows ->
          Alcotest.(check bool)
            "remote rows" true
            (sorted rows = sorted (Runner.run env (gen_plan 500)))
      | Raised exn ->
          Alcotest.failf "remote query failed: %s" (Printexc.to_string exn)
      | Timeout -> Alcotest.fail "the remote query never finished");
      check_quiescent ~what:"slow site start" env ~unjoined0 ~live0;
      Sched.assert_quiescent ~what:"slow site start" sched)

(* A worker process killed mid-stream must surface as exactly one
   [Query_failed] at the consumer — no hang, no partial result. *)
let test_killed_worker () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  let pids = ref [] in
  register ~pids env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let killer =
    Thread.create
      (fun () ->
        let rec await n =
          if !pids = [] && n > 0 then begin
            Unix.sleepf 0.01;
            await (n - 1)
          end
        in
        await 1000;
        Unix.sleepf 0.05;
        match !pids with
        | pid :: _ -> ( try Unix.kill pid Sys.sigkill with _ -> ())
        | [] -> ())
      ()
  in
  (match
     run_with_timeout (fun () ->
         Runner.run env (remote ~task:"slow:100000:1" (slow_plan 100000 1)))
   with
  | Raised (Exchange.Query_failed { site; _ }) ->
      if not (String.length site >= 10 && String.sub site 0 10 = "net-worker")
      then Alcotest.failf "killed worker surfaced at site %S" site
  | Raised exn ->
      Alcotest.failf "killed worker surfaced as %s, not Query_failed"
        (Printexc.to_string exn)
  | Rows _ -> Alcotest.fail "query succeeded despite a killed worker"
  | Timeout -> Alcotest.fail "killed worker hung the query");
  Thread.join killer;
  check_quiescent ~what:"killed worker" env ~unjoined0 ~live0

(* A worker whose task resolution fails reports an [Err] frame; the
   consumer re-raises it as the selfsame single [Query_failed]. *)
let test_worker_task_failure () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  (match
     run_with_timeout (fun () ->
         Runner.run env (remote ~task:"fail:planted" (gen_plan 10)))
   with
  | Raised (Exchange.Query_failed _) -> ()
  | Raised exn ->
      Alcotest.failf "worker failure surfaced as %s" (Printexc.to_string exn)
  | Rows _ -> Alcotest.fail "query succeeded despite a failing worker"
  | Timeout -> Alcotest.fail "worker failure hung the query");
  check_quiescent ~what:"worker task failure" env ~unjoined0 ~live0

(* A worker that dies before it reads the parent's read set: the parent's
   frame has nowhere to go, and the query still fails exactly once. *)
let test_worker_dies_before_narrow () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let plan =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [];
        aggs = [ Volcano_ops.Aggregate.Count ];
        input = remote ~task:"die" (gen_plan 10);
      }
  in
  (match run_with_timeout (fun () -> Runner.run env plan) with
  | Raised (Exchange.Query_failed _) -> ()
  | Raised exn ->
      Alcotest.failf "a dead site surfaced as %s" (Printexc.to_string exn)
  | Rows _ -> Alcotest.fail "query succeeded despite a dead site"
  | Timeout -> Alcotest.fail "a dead site hung the query");
  check_quiescent ~what:"site dead before its read set" env ~unjoined0 ~live0

(* Every descriptor the launcher makes is close-on-exec: a worker holds
   its own connection and nothing else — not its launch's listener, and
   not the connections of another launch still streaming. *)
let test_worker_holds_only_its_connection () =
  Session.with_session ~frames:128 ~page_size:512 ~workers:2 ~max_concurrent:2
    (fun session ->
      let env = Session.env session in
      let pids = ref [] in
      register ~pids env;
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let streaming =
        Session.submit session
          (`Plan (remote ~task:"slow:100000:1" (slow_plan 100000 1)))
      in
      Fun.protect ~finally:(fun () -> Session.cancel streaming) @@ fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while !pids = [] do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the streaming query never launched";
        Unix.sleepf 0.001
      done;
      let fds_plan =
        remote ~task:"fds"
          (Plan.Generate_slice
             { arity = 1; count = 2; gen = (fun i -> Tuple.of_ints [ i ]) })
      in
      (match run_with_timeout (fun () -> Session.exec session (`Plan fds_plan)) with
      | Rows rows ->
          Alcotest.(check (list int))
            "each worker holds one socket" [ 1; 1 ]
            (List.map (fun t -> Tuple.int_exn t 0) rows)
      | Raised exn -> Alcotest.failf "fds query failed: %s" (Printexc.to_string exn)
      | Timeout -> Alcotest.fail "fds query hung");
      Session.cancel streaming;
      (match
         run_with_timeout (fun () ->
             match Session.await streaming with
             | Ok rows -> rows
             | Error exn -> raise exn)
       with
      | Raised (Exchange.Query_failed _ | Volcano_sched.Runtime.Cancelled) -> ()
      | Raised exn -> Alcotest.failf "cancel surfaced as %s" (Printexc.to_string exn)
      | Rows _ -> Alcotest.fail "a cancelled stream returned rows"
      | Timeout -> Alcotest.fail "cancel never reached the stream");
      check_quiescent ~what:"close-on-exec" env ~unjoined0 ~live0)

(* Early close cancels across the socket: walking away from a remote
   stream that would take minutes to drain must tear down promptly —
   cancel frames / socket shutdown reach the workers, feeders join,
   processes are reaped. *)
let test_remote_early_close () =
  let env = Env.create ~frames:128 ~page_size:512 () in
  register env;
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  (match
     run_with_timeout (fun () ->
         Runner.run env
           (Plan.Limit
              {
                count = 5;
                input = remote ~task:"slow:100000:1" (slow_plan 100000 1);
              }))
   with
  | Rows rows -> Alcotest.(check int) "limit rows" 5 (List.length rows)
  | Raised exn ->
      Alcotest.failf "early close failed: %s" (Printexc.to_string exn)
  | Timeout -> Alcotest.fail "early close hung (cancel never crossed)");
  check_quiescent ~what:"remote early close" env ~unjoined0 ~live0

(* Chaos at the network sites: a counted [Fail] at each site in turn
   must surface as one well-typed [Query_failed] carrying that site's
   name — connection refusal at launch, a dropped read, a failed write,
   a truncated frame — with nothing leaked.  (These same sites are also
   drawn by [Fault.random_plan] in the main chaos matrix.) *)
let test_net_fault_sites () =
  List.iter
    (fun (site, hit) ->
      let env = Env.create ~frames:128 ~page_size:512 () in
      register env;
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      Env.set_faults env
        (Injector.make
           {
             Fault.seed = 11L;
             rules =
               [ { Fault.site; trigger = Fault.At_hit hit; action = Fault.Fail } ];
           });
      (match
         run_with_timeout (fun () ->
             Runner.run env (remote ~task:"gen:3000" (gen_plan 3000)))
       with
      | Raised (Exchange.Query_failed { site = s; _ }) ->
          Alcotest.(check string)
            (Fault.site_name site ^ " site crosses intact")
            (Fault.site_name site) s
      | Raised exn ->
          Alcotest.failf "fault at %s surfaced as %s" (Fault.site_name site)
            (Printexc.to_string exn)
      | Rows _ ->
          Alcotest.failf "fault at %s never fired" (Fault.site_name site)
      | Timeout ->
          Alcotest.failf "fault at %s hung the query" (Fault.site_name site));
      Env.clear_faults env;
      check_quiescent
        ~what:("net fault " ^ Fault.site_name site)
        env ~unjoined0 ~live0)
    [
      (Fault.Net_connect, 1);
      (Fault.Net_read, 3);
      (Fault.Net_write, 1);
      (Fault.Net_frame, 2);
    ]

(* --- planlint: the VL7xx remote pass ---------------------------------- *)

let vl_codes env ?batch_size plan =
  List.filter_map Volcano_plan.Diag.vl_code
    (Compile.analyze ?batch_size env plan)

let test_planlint_remote () =
  let env = Env.create () in
  (* degree/worker disagreement is an error *)
  let mismatched =
    Plan.Remote
      {
        cfg = Exchange.config ~degree:2 ~flow_slack:(Some 4) ();
        workers = 3;
        task = "gen:10";
        input = gen_plan 10;
      }
  in
  Alcotest.(check bool)
    "VL701 on degree/worker mismatch" true
    (List.mem "VL701" (vl_codes env mismatched));
  (* an empty task is an error *)
  Alcotest.(check bool)
    "VL701 on empty task" true
    (List.mem "VL701" (vl_codes env (remote ~task:"" (gen_plan 10))));
  (* no flow slack on the wire edge is a warning *)
  Alcotest.(check bool)
    "VL702 without flow slack" true
    (List.mem "VL702"
       (vl_codes env (remote ~flow_slack:None ~task:"gen:10" (gen_plan 10))));
  (* batching off while shipping batches is a warning *)
  Alcotest.(check bool)
    "VL703 with batch_size 0" true
    (List.mem "VL703"
       (vl_codes env ~batch_size:0 (remote ~task:"gen:10" (gen_plan 10))));
  (* a well-configured remote edge draws none of them *)
  let clean =
    vl_codes env (remote ~packet_size:83 ~task:"gen:10" (gen_plan 10))
  in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " absent on a clean remote plan")
        false (List.mem code clean))
    [ "VL701"; "VL702"; "VL703" ];
  (* and the schema pass still sees through the wire *)
  Alcotest.(check bool)
    "schema errors surface through Remote" true
    (List.mem "VL101"
       (vl_codes env
          (Plan.Project_cols
             { cols = [ 9 ]; input = remote ~task:"gen:10" (gen_plan 10) })));
  (* a repartitioning remote edge routes on its partition columns, so
     they are checked against the shipped subtree's width *)
  let repartitioned =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ();
        input =
          Plan.Remote
            {
              cfg =
                Exchange.config ~degree:2 ~partition:(Exchange.Hash_on [ 5 ])
                  ();
              workers = 2;
              task = "gen:10";
              input =
                Plan.Generate_slice
                  {
                    arity = 3;
                    count = 10;
                    gen = (fun i -> Tuple.of_ints [ i; i; i ]);
                  };
            };
      }
  in
  Alcotest.(check bool)
    "VL101 on an out-of-range remote repartition column" true
    (List.exists
       (fun (d : Volcano_plan.Diag.t) ->
         Volcano_plan.Diag.vl_code d = Some "VL101"
         && d.path = "exchange/remote-exchange")
       (Compile.analyze env repartitioned))

(* --- the serving plane ------------------------------------------------ *)

let test_serve_concurrent_clients () =
  (* An atomically created temp name, not a pid-derived one: pid reuse
     after a crashed run could leave a stale socket file exactly where a
     pid-named path would bind next. *)
  let socket = Filename.temp_file "volcano-test-serve-" ".sock" in
  Unix.unlink socket;
  let handle task =
    match int_of_string_opt task with
    | Some n -> Ok (List.init n (fun i -> Tuple.of_ints [ i; i * 3 ]))
    | None -> Error ("serve-test", "bad task " ^ task)
  in
  let server = Serve.Server.start ~socket ~handle () in
  let failures = Atomic.make 0 in
  let client i =
    let c = Serve.Client.connect ~socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        for r = 0 to 9 do
          let n = ((i * 10) + r) mod 23 in
          match Serve.Client.query c (string_of_int n) with
          | Ok rows
            when rows = List.init n (fun j -> Tuple.of_ints [ j; j * 3 ]) ->
              ()
          | Ok _ | Error _ -> Atomic.incr failures
        done;
        match Serve.Client.query c "nope" with
        | Error ("serve-test", _) -> ()
        | Ok _ | Error _ -> Atomic.incr failures)
  in
  let threads = List.init 8 (fun i -> Thread.create (fun () -> client i) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no failed requests" 0 (Atomic.get failures);
  Alcotest.(check int) "request count" 88 (Serve.Server.requests server);
  Alcotest.(check int) "error count" 8 (Serve.Server.errors server);
  (* remote shutdown, then stop merely joins (and is idempotent) *)
  let c = Serve.Client.connect ~socket in
  Serve.Client.shutdown_server c;
  Serve.Client.close c;
  Serve.Server.stop server;
  Serve.Server.stop server;
  try Sys.remove socket with _ -> ()

let suite =
  [
    Runner.qcheck prop_rows_roundtrip;
    Runner.qcheck prop_packet_roundtrip;
    Runner.qcheck prop_truncation_rejected;
    Runner.qcheck prop_routed_truncation_rejected;
    Alcotest.test_case "routed frame shorter than its header" `Quick
      test_short_routed_frame;
    Runner.qcheck prop_truncation_rejected_in_place;
    Runner.qcheck prop_packet_truncation_rejected_in_place;
    Runner.qcheck prop_routed_truncation_rejected_in_place;
    Alcotest.test_case "short frame after a long one" `Quick
      test_short_frame_after_long;
    Alcotest.test_case "frame reads allocate no frame" `Quick
      test_frame_read_allocation;
    Alcotest.test_case "hello/err frames round-trip" `Quick
      test_wire_hello_err_roundtrip;
    Alcotest.test_case "golden wire fixture" `Quick test_golden_frame;
    Alcotest.test_case "golden narrow frame" `Quick test_narrow_golden;
    Runner.qcheck prop_narrow_total;
    Alcotest.test_case "control parsers reject what a site cannot route" `Quick
      test_control_parsers_reject;
    Runner.qcheck prop_control_parsers_total;
    Runner.qcheck prop_narrow_truncation_rejected;
    Alcotest.test_case "remote matches local over the corpus" `Slow
      test_remote_local_differential;
    Alcotest.test_case "remote edge samples its port" `Slow test_remote_sample;
    Alcotest.test_case "routed packets reuse their lane's shells" `Slow
      test_routed_packet_reuse;
    Alcotest.test_case "routed frame past the last consumer" `Slow
      test_routed_dest_out_of_range;
    Alcotest.test_case "remote matches local on a 1-worker pool" `Slow
      test_narrow_pool_differential;
    Alcotest.test_case "a stalled site pins no pool worker" `Slow
      test_stalled_site;
    Alcotest.test_case "a slow site start pins no pool worker" `Slow
      test_slow_site_start;
    Alcotest.test_case "killed worker yields one Query_failed" `Slow
      test_killed_worker;
    Alcotest.test_case "worker task failure crosses as Query_failed" `Slow
      test_worker_task_failure;
    Alcotest.test_case "early close cancels across the socket" `Slow
      test_remote_early_close;
    Alcotest.test_case "a site dead before its read set fails once" `Slow
      test_worker_dies_before_narrow;
    Alcotest.test_case "a worker holds only its own connection" `Slow
      test_worker_holds_only_its_connection;
    Alcotest.test_case "faults at every net site" `Slow test_net_fault_sites;
    Alcotest.test_case "planlint VL7xx remote pass" `Quick
      test_planlint_remote;
    Alcotest.test_case "serve: concurrent clients" `Quick
      test_serve_concurrent_clients;
  ]
