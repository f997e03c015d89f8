(* Tests for values, schemas, tuples, expressions and serialization. *)

module Value = Volcano_tuple.Value
module Schema = Volcano_tuple.Schema
module Tuple = Volcano_tuple.Tuple
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support
module Serial = Volcano_tuple.Serial

let check = Alcotest.check

(* QCheck generators. *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun x -> Value.Int x) int;
        map (fun x -> Value.Float x) (float_bound_inclusive 1e6);
        map (fun s -> Value.Str s) (string_size (int_bound 20));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let tuple_gen = QCheck.Gen.(map Array.of_list (list_size (int_range 0 8) value_gen))
let tuple_arb = QCheck.make ~print:Tuple.to_string tuple_gen

let test_value_order () =
  check Alcotest.bool "null first" true (Value.compare Value.Null (Value.Int 0) < 0);
  check Alcotest.bool "int order" true
    (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check Alcotest.bool "str order" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  check Alcotest.bool "cross type" true
    (Value.compare (Value.Int 999) (Value.Str "") < 0)

let prop_value_total_order =
  QCheck.Test.make ~name:"value compare is antisymmetric" ~count:500
    (QCheck.pair value_arb value_arb)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_value_hash_consistent =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500 value_arb
    (fun v -> Value.hash v = Value.hash v)

(* The hash as a plain FNV-1a loop over each kind's tag and bytes, one
   step per byte: every placement and route is pinned to these values. *)
let reference_hash v =
  let prime = 0x100000001b3 in
  let step h byte = (h lxor byte) * prime land max_int in
  let int h x =
    let h = ref h in
    for shift = 0 to 7 do
      h := step !h ((x lsr (shift * 8)) land 0xff)
    done;
    !h
  in
  let offset = Int64.to_int 0xcbf29ce484222325L land max_int in
  match v with
  | Value.Null -> int offset 0x6e756c6c
  | Value.Int x -> int (int offset 1) x
  | Value.Float x -> int (int offset 2) (Int64.to_int (Int64.bits_of_float x))
  | Value.Str s ->
      String.fold_left (fun h c -> step h (Char.code c)) (int offset 3) s

let prop_int_hash_reference =
  QCheck.Test.make ~name:"int hash equals the FNV reference loop" ~count:2000
    QCheck.int
    (fun x -> Value.hash (Value.Int x) = reference_hash (Value.Int x))

let prop_value_hash_reference =
  QCheck.Test.make ~name:"value hash equals the FNV reference loop" ~count:500
    value_arb
    (fun v -> Value.hash v = reference_hash v)

let test_schema () =
  let s = Schema.of_names [ ("a", Value.Tint); ("b", Value.Tstr) ] in
  check Alcotest.int "arity" 2 (Schema.arity s);
  check Alcotest.int "index" 1 (Schema.index s "b");
  check Alcotest.string "name" "a" (Schema.field_name s 0);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.make: duplicate field a") (fun () ->
      ignore (Schema.of_names [ ("a", Value.Tint); ("a", Value.Tstr) ]))

let test_schema_concat_renames () =
  let a = Schema.of_names [ ("x", Value.Tint); ("y", Value.Tint) ] in
  let b = Schema.of_names [ ("y", Value.Tint); ("z", Value.Tint) ] in
  let c = Schema.concat a b in
  check Alcotest.int "arity" 4 (Schema.arity c);
  check Alcotest.string "renamed" "y'" (Schema.field_name c 2)

let test_tuple_ops () =
  let t = Tuple.of_ints [ 10; 20; 30 ] in
  check Alcotest.int "get" 20 (Tuple.int_exn t 1);
  check Alcotest.int "project" 30 (Tuple.int_exn (Tuple.project t [ 2; 0 ]) 0);
  let u = Tuple.concat t (Tuple.of_ints [ 40 ]) in
  check Alcotest.int "concat arity" 4 (Tuple.arity u);
  check Alcotest.bool "lexicographic" true
    (Tuple.compare (Tuple.of_ints [ 1; 2 ]) (Tuple.of_ints [ 1; 3 ]) < 0);
  check Alcotest.bool "prefix smaller" true
    (Tuple.compare (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 1; 0 ]) < 0)

(* The paper's dual predicate mechanism: interpreted and compiled paths
   must agree on every expression and tuple. *)
let pred_gen =
  let open QCheck.Gen in
  let num_gen =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof [ map Expr.col (int_bound 3); map Expr.int (int_range (-50) 50) ]
            else
              frequency
                [
                  (2, map Expr.col (int_bound 3));
                  (2, map Expr.int (int_range (-50) 50));
                  ( 1,
                    map2
                      (fun a b -> Expr.Add (a, b))
                      (self (n / 2)) (self (n / 2)) );
                  ( 1,
                    map2
                      (fun a b -> Expr.Sub (a, b))
                      (self (n / 2)) (self (n / 2)) );
                  ( 1,
                    map2
                      (fun a b -> Expr.Mul (a, b))
                      (self (n / 2)) (self (n / 2)) );
                  ( 1,
                    map2
                      (fun a b -> Expr.Div (a, b))
                      (self (n / 2)) (self (n / 2)) );
                ])
          (min n 6))
  in
  let cmp_gen =
    oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp_gen num_gen num_gen
          else
            frequency
              [
                (3, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp_gen num_gen num_gen);
                ( 1,
                  map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2)) );
                (1, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Expr.Not a) (self (n - 1)));
                (1, map (fun e -> Expr.Is_null e) num_gen);
              ])
        (min n 5))

let int_tuple_gen =
  QCheck.Gen.(map (fun xs -> Tuple.of_ints xs) (list_repeat 4 (int_range (-50) 50)))

let prop_interpreted_equals_compiled =
  QCheck.Test.make ~name:"interpreted = compiled predicates" ~count:1000
    (QCheck.make
       QCheck.Gen.(pair pred_gen int_tuple_gen))
    (fun (pred, tuple) ->
      Expr.Interp.pred pred tuple = Expr.Compiled.pred pred tuple)

let test_expr_eval () =
  let open Expr.Infix in
  let t = Tuple.of_ints [ 3; 7 ] in
  let p = Expr.col 0 + Expr.int 4 = Expr.col 1 in
  check Alcotest.bool "3+4=7" true (Expr.Interp.pred p t);
  let q = Expr.col 0 * Expr.col 1 > Expr.int 20 in
  check Alcotest.bool "21>20" true (Expr.Compiled.pred q t);
  let div_zero = Expr.Div (Expr.col 0, Expr.int 0) in
  check Alcotest.bool "x/0 is null" true
    (Expr.Interp.pred (Expr.Is_null div_zero) t)

let test_str_prefix () =
  let t = [| Value.Str "hello world" |] in
  check Alcotest.bool "prefix" true
    (Expr.Compiled.pred (Expr.Str_prefix ("hello", Expr.col 0)) t);
  check Alcotest.bool "not prefix" false
    (Expr.Interp.pred (Expr.Str_prefix ("world", Expr.col 0)) t)

let prop_serial_roundtrip =
  QCheck.Test.make ~name:"serialize/deserialize roundtrip" ~count:1000 tuple_arb
    (fun t -> Tuple.equal t (Serial.decode_bytes (Serial.encode t)))

let test_serial_offset () =
  let t1 = Tuple.of_ints [ 1; 2 ] and t2 = Tuple.of_ints [ 3 ] in
  let buf = Bytes.create 100 in
  let n1 = Serial.encode_into t1 buf ~pos:0 in
  let n2 = Serial.encode_into t2 buf ~pos:n1 in
  let pos = ref 0 in
  check Alcotest.bool "first" true
    (Tuple.equal t1 (Serial.decode buf ~pos ~limit:100));
  check Alcotest.int "first ends" n1 !pos;
  check Alcotest.bool "second" true
    (Tuple.equal t2 (Serial.decode buf ~pos ~limit:100));
  check Alcotest.int "second ends" (n1 + n2) !pos

(* --- decoder totality ------------------------------------------------ *)

(* Distinct columns in random order, some past any generated tuple's
   arity. *)
let cols_gen =
  QCheck.Gen.(
    map
      (fun xs -> List.sort_uniq compare xs |> List.rev)
      (list_size (int_range 0 4) (int_range 0 9))
    >>= shuffle_l)

(* A buffer that is mostly structure: a valid encoding with a few bytes
   overwritten, or plain noise — plus an arbitrary (possibly
   out-of-range) slice of it. *)
let hostile_gen =
  QCheck.Gen.(
    let bytes_gen =
      oneof
        [
          map Bytes.of_string (string_size (int_range 0 40));
          map2
            (fun t edits ->
              let b = Serial.encode t in
              List.iter
                (fun (i, c) ->
                  if Bytes.length b > 0 then
                    Bytes.set b (i mod Bytes.length b) (Char.chr c))
                edits;
              b)
            tuple_gen
            (list_size (int_range 0 3) (pair nat (int_range 0 255)));
        ]
    in
    bytes_gen >>= fun b ->
    let n = Bytes.length b in
    map3
      (fun off len cols -> (b, off, len, cols))
      (int_range (-2) (n + 2))
      (int_range (-2) (n + 2))
      cols_gen)

let only_invalid_argument f =
  match f () with
  | _ -> true
  | exception Invalid_argument _ -> true

let prop_decode_total =
  QCheck.Test.make ~name:"slice and projected decode raise only Invalid_argument"
    ~count:2000
    (QCheck.make
       ~print:(fun (b, off, len, cols) ->
         Printf.sprintf "%S off=%d len=%d cols=[%s]" (Bytes.to_string b) off len
           (String.concat ";" (List.map string_of_int cols)))
       hostile_gen)
    (fun (b, off, len, cols) ->
      only_invalid_argument (fun () -> Serial.decode_slice b ~off ~len)
      && only_invalid_argument (fun () ->
             Serial.decode_projected (Serial.projection cols) b ~off ~len))

(* A record embedded in garbage decodes from its own range only, and the
   projected decode equals decode-then-project. *)
let prop_decode_in_range =
  QCheck.Test.make ~name:"a record decodes from its slot range only" ~count:1000
    QCheck.(
      quad tuple_arb (make Gen.(string_size (int_range 0 12)))
        (make Gen.(string_size (int_range 0 12)))
        (make cols_gen))
    (fun (t, before, after, cols) ->
      let r = Serial.encode t in
      let b = Bytes.of_string (before ^ Bytes.to_string r ^ after) in
      let off = String.length before and len = Bytes.length r in
      let cols = List.filter (fun c -> c < Array.length t) cols in
      Tuple.equal t (Serial.decode_slice b ~off ~len)
      && Tuple.equal (Tuple.project t cols)
           (Serial.decode_projected (Serial.projection cols) b ~off ~len))

let rejects f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Every strict prefix of a record is rejected, also when the bytes past
   the prefix are still there in the buffer — and so is a range one byte
   longer than the record. *)
let prop_decode_truncations =
  QCheck.Test.make ~name:"every truncation of a record is rejected" ~count:500
    (QCheck.pair tuple_arb (QCheck.make cols_gen))
    (fun (t, cols) ->
      let r = Serial.encode t in
      let b = Bytes.cat r (Bytes.make 1 '\000') in
      let cols = List.filter (fun c -> c < Array.length t) cols in
      let p = Serial.projection cols in
      List.for_all
        (fun len ->
          rejects (fun () -> Serial.decode_slice b ~off:0 ~len)
          && rejects (fun () -> Serial.decode_projected p b ~off:0 ~len))
        (Bytes.length r + 1 :: List.init (Bytes.length r) Fun.id))

(* The advancing decoder leaves its position exactly where the record
   it returns ends — [encoded_size] of that record past where it began —
   whatever bytes follow it up to the limit. *)
let prop_decode_advances =
  QCheck.Test.make ~name:"the advancing decoder stops at the record's end"
    ~count:1000
    QCheck.(
      triple tuple_arb
        (make Gen.(string_size (int_range 0 12)))
        (make Gen.(string_size (int_range 0 12))))
    (fun (t, before, after) ->
      let r = Serial.encode t in
      let b = Bytes.of_string (before ^ Bytes.to_string r ^ after) in
      let start = String.length before in
      let pos = ref start in
      let got = Serial.decode b ~pos ~limit:(Bytes.length b) in
      Tuple.equal t got && !pos = start + Serial.encoded_size got)

(* On hostile bytes and an arbitrary (possibly out-of-range) position
   and limit, the advancing decoder still raises only [Invalid_argument],
   and a rejected record leaves the position where it was. *)
let prop_decode_advancing_total =
  QCheck.Test.make ~name:"the advancing decoder raises only Invalid_argument"
    ~count:2000
    (QCheck.make
       ~print:(fun (b, off, len, _) ->
         Printf.sprintf "%S pos=%d limit=%d" (Bytes.to_string b) off (off + len))
       hostile_gen)
    (fun (b, off, len, _) ->
      let pos = ref off in
      match Serial.decode b ~pos ~limit:(off + len) with
      | _ -> true
      | exception Invalid_argument _ -> !pos = off)

let test_projection_rejects () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Serial.projection: duplicate column") (fun () ->
      ignore (Serial.projection [ 1; 0; 1 ]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Serial.projection: negative column") (fun () ->
      ignore (Serial.projection [ -1 ]));
  let r = Serial.encode (Tuple.of_ints [ 1; 2 ]) in
  Alcotest.check_raises "narrow record"
    (Invalid_argument "Serial.decode: projected column out of range")
    (fun () ->
      ignore
        (Serial.decode_projected (Serial.projection [ 2 ]) r ~off:0
           ~len:(Bytes.length r)))

let test_support_comparators () =
  let cmp = Support.compare_on [ (0, Support.Asc); (1, Support.Desc) ] in
  let a = Tuple.of_ints [ 1; 5 ] and b = Tuple.of_ints [ 1; 9 ] in
  check Alcotest.bool "desc second key" true (cmp a b > 0);
  check Alcotest.bool "equal" true (cmp a a = 0);
  check Alcotest.bool "hash consistent" true
    (Support.hash_on [ 0; 1 ] a = Support.hash_on [ 0; 1 ] a)

let test_partition_fns () =
  let rr = Support.Partition.round_robin ~consumers:3 () in
  let got = List.init 7 (fun _ -> rr (Tuple.of_ints [ 0 ])) in
  check (Alcotest.list Alcotest.int) "round robin" [ 0; 1; 2; 0; 1; 2; 0 ] got;
  let h = Support.Partition.hash ~consumers:4 ~on:[ 0 ] () in
  for i = 0 to 100 do
    let p = h (Tuple.of_ints [ i ]) in
    check Alcotest.bool "hash in range" true (p >= 0 && p < 4)
  done;
  let r =
    Support.Partition.range ~consumers:3 ~on:0
      ~bounds:[| Value.Int 10; Value.Int 20 |]
      ()
  in
  check Alcotest.int "low" 0 (r (Tuple.of_ints [ 5 ]));
  check Alcotest.int "boundary" 0 (r (Tuple.of_ints [ 10 ]));
  check Alcotest.int "mid" 1 (r (Tuple.of_ints [ 15 ]));
  check Alcotest.int "high" 2 (r (Tuple.of_ints [ 99 ]))

let suite =
  [
    Alcotest.test_case "value ordering" `Quick test_value_order;
    Runner.qcheck prop_value_total_order;
    Runner.qcheck prop_value_hash_consistent;
    Runner.qcheck prop_int_hash_reference;
    Runner.qcheck prop_value_hash_reference;
    Alcotest.test_case "schema basics" `Quick test_schema;
    Alcotest.test_case "schema concat renames" `Quick test_schema_concat_renames;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Runner.qcheck prop_interpreted_equals_compiled;
    Alcotest.test_case "expression evaluation" `Quick test_expr_eval;
    Alcotest.test_case "string prefix predicate" `Quick test_str_prefix;
    Runner.qcheck prop_serial_roundtrip;
    Alcotest.test_case "serialization at offsets" `Quick test_serial_offset;
    Runner.qcheck prop_decode_total;
    Runner.qcheck prop_decode_in_range;
    Runner.qcheck prop_decode_truncations;
    Runner.qcheck prop_decode_advances;
    Runner.qcheck prop_decode_advancing_total;
    Alcotest.test_case "projection rejects bad columns" `Quick
      test_projection_rejects;
    Alcotest.test_case "support comparators" `Quick test_support_comparators;
    Alcotest.test_case "partition functions" `Quick test_partition_fns;
  ]
