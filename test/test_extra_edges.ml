(* Edge-case coverage: simulator conservation laws, serialization error
   paths, expression arithmetic corners, and iterator protocol checking
   through an exchange. *)

module Sim = Volcano_sim.Sim
module Serial = Volcano_tuple.Serial
module Value = Volcano_tuple.Value
module Tuple = Volcano_tuple.Tuple
module Expr = Volcano_tuple.Expr
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Group = Volcano.Group

let check = Alcotest.check

(* --- simulator conservation --- *)

let stage ?(processes = 1) ?(per_record = 1e-4) ?(send = 1e-5) ?(recv = 1e-5) () =
  { Sim.processes; per_record; per_packet_send = send; per_packet_recv = recv }

let prop_sim_conservation =
  QCheck.Test.make ~name:"sim: busy time matches the cost model" ~count:60
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 100 2000) (int_range 1 80))
    (fun (p0, p1, records, packet_size) ->
      let s0 = stage ~processes:p0 () and s1 = stage ~processes:p1 () in
      let r =
        Sim.run
          {
            Sim.stages = [| s0; s1 |];
            records;
            packet_size;
            flow_slack = Some 4;
            cpus = 4;
          }
      in
      let packets = (records + packet_size - 1) / packet_size in
      (* Producers round-robin independently, so total packets lie between
         the ideal count and one partial packet per producer-consumer
         pair. *)
      let max_packets = packets + (p0 * p1) in
      let expected_busy_0 packets =
        (float_of_int records *. s0.Sim.per_record)
        +. (float_of_int packets *. s0.Sim.per_packet_send)
      in
      let expected_busy_1 packets =
        (float_of_int records *. s1.Sim.per_record)
        +. (float_of_int packets *. s1.Sim.per_packet_recv)
      in
      r.Sim.packets_total >= packets
      && r.Sim.packets_total <= max_packets
      && abs_float (r.Sim.stage_busy.(0) -. expected_busy_0 r.Sim.packets_total)
         < 1e-9
      && abs_float (r.Sim.stage_busy.(1) -. expected_busy_1 r.Sim.packets_total)
         < 1e-9
      (* Elapsed can never beat the busiest stage divided by its processes,
         nor total work divided by the CPU count. *)
      && r.Sim.elapsed
         >= (r.Sim.stage_busy.(0) /. float_of_int p0) -. 1e-9
      && r.Sim.elapsed
         >= ((r.Sim.stage_busy.(0) +. r.Sim.stage_busy.(1)) /. 4.0) -. 1e-9)

let test_sim_three_stage_bottleneck () =
  (* The middle stage is 10x slower: elapsed tracks it. *)
  let r =
    Sim.run
      {
        Sim.stages =
          [|
            stage ~per_record:1e-5 ();
            stage ~per_record:1e-3 ();
            stage ~per_record:1e-5 ();
          |];
        records = 1000;
        packet_size = 10;
        flow_slack = Some 4;
        cpus = 4;
      }
  in
  check Alcotest.bool "bottleneck dominates" true
    (r.Sim.elapsed >= 1.0 && r.Sim.elapsed < 1.3)

(* --- serialization error paths --- *)

let test_serial_truncated () =
  let encoded = Serial.encode (Tuple.of_ints [ 1; 2; 3 ]) in
  let truncated = Bytes.sub encoded 0 (Bytes.length encoded - 4) in
  Alcotest.check_raises "truncated field"
    (Invalid_argument "Serial.decode: truncated field") (fun () ->
      ignore (Serial.decode_bytes truncated))

let test_serial_bad_tag () =
  let encoded = Serial.encode (Tuple.of_ints [ 1 ]) in
  Bytes.set_uint8 encoded 2 99;
  Alcotest.check_raises "bad tag" (Invalid_argument "Serial.decode: bad tag")
    (fun () -> ignore (Serial.decode_bytes encoded))

let test_serial_buffer_too_small () =
  let buf = Bytes.create 4 in
  Alcotest.check_raises "no room"
    (Invalid_argument "Serial.encode_into: buffer too small") (fun () ->
      ignore (Serial.encode_into (Tuple.of_ints [ 1; 2 ]) buf ~pos:0))

let test_serial_all_types () =
  let tuple =
    [|
      Value.Null;
      Value.Int min_int;
      Value.Int max_int;
      Value.Float (-0.0);
      Value.Float infinity;
      Value.Str "";
      Value.Str (String.make 1000 'z');
    |]
  in
  check Alcotest.bool "extremes roundtrip" true
    (Tuple.equal tuple (Serial.decode_bytes (Serial.encode tuple)))

(* --- expression corners --- *)

let test_expr_arithmetic_corners () =
  let t = [| Value.Int 7; Value.Float 2.5; Value.Null |] in
  let eval e = Expr.Compiled.num e t in
  check Alcotest.bool "int/float promotes" true
    (eval (Expr.Add (Expr.Col 0, Expr.Col 1)) = Value.Float 9.5);
  check Alcotest.bool "null propagates" true
    (eval (Expr.Mul (Expr.Col 0, Expr.Col 2)) = Value.Null);
  check Alcotest.bool "mod" true
    (eval (Expr.Mod (Expr.Col 0, Expr.Const (Value.Int 4))) = Value.Int 3);
  check Alcotest.bool "mod by zero is null" true
    (eval (Expr.Mod (Expr.Col 0, Expr.Const (Value.Int 0))) = Value.Null);
  check Alcotest.bool "neg int" true
    (eval (Expr.Neg (Expr.Col 0)) = Value.Int (-7));
  check Alcotest.bool "neg float" true
    (eval (Expr.Neg (Expr.Col 1)) = Value.Float (-2.5));
  check Alcotest.bool "neg null" true (eval (Expr.Neg (Expr.Col 2)) = Value.Null);
  (* Comparisons involving null are false both ways. *)
  check Alcotest.bool "null cmp" false
    (Expr.Interp.pred (Expr.Cmp (Expr.Eq, Expr.Col 2, Expr.Col 2)) t);
  check Alcotest.bool "is_null" true
    (Expr.Interp.pred (Expr.Is_null (Expr.Col 2)) t)

let test_expr_pp_smoke () =
  let p =
    let open Expr.Infix in
    (Expr.col 0 + Expr.int 1) * Expr.col 2 > Expr.int 9 && Expr.not_ Expr.False
  in
  let s = Format.asprintf "%a" Expr.pp_pred p in
  check Alcotest.bool "renders" true (String.length s > 10)

(* --- protocol checking through an exchange --- *)

let test_checked_exchange () =
  let cfg = Exchange.config ~degree:2 () in
  let it =
    Iterator.checked
      (Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
           let rank = Group.rank group in
           Iterator.generate ~count:25 ~f:(fun i -> Tuple.of_ints [ (rank * 25) + i ])))
  in
  check Alcotest.int "consume via checked" 50 (Iterator.consume it)

(* --- value printing / coercions --- *)

let test_value_strings () =
  check Alcotest.string "null" "NULL" (Value.to_string Value.Null);
  check Alcotest.string "int" "42" (Value.to_string (Value.Int 42));
  check Alcotest.string "str" "\"hi\"" (Value.to_string (Value.Str "hi"));
  check Alcotest.string "ty" "int" (Value.ty_to_string Value.Tint);
  Alcotest.check_raises "coercion error" (Invalid_argument "Value.int_exn: \"x\"")
    (fun () -> ignore (Value.int_exn (Value.Str "x")));
  check (Alcotest.float 1e-9) "int as float" 3.0 (Value.float_exn (Value.Int 3))

let suite =
  [
    Runner.qcheck prop_sim_conservation;
    Alcotest.test_case "sim three-stage bottleneck" `Quick
      test_sim_three_stage_bottleneck;
    Alcotest.test_case "serial truncated input" `Quick test_serial_truncated;
    Alcotest.test_case "serial bad tag" `Quick test_serial_bad_tag;
    Alcotest.test_case "serial buffer too small" `Quick
      test_serial_buffer_too_small;
    Alcotest.test_case "serial extreme values" `Quick test_serial_all_types;
    Alcotest.test_case "expression corners" `Quick test_expr_arithmetic_corners;
    Alcotest.test_case "expression printing" `Quick test_expr_pp_smoke;
    Alcotest.test_case "checked iterator over exchange" `Quick
      test_checked_exchange;
    Alcotest.test_case "value printing and coercions" `Quick test_value_strings;
  ]
