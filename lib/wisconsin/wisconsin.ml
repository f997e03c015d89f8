module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Schema = Volcano_tuple.Schema
module Rng = Volcano_util.Rng
module Zipf = Volcano_util.Zipf

let columns =
  [
    "unique1"; "unique2"; "two"; "four"; "ten"; "twenty"; "one_percent";
    "ten_percent"; "twenty_pct"; "fifty_pct"; "unique3"; "even_one_pct";
    "odd_one_pct"; "stringu1"; "stringu2"; "string4";
  ]

let schema =
  Schema.of_names
    (List.map
       (fun name ->
         let ty =
           match name with
           | "stringu1" | "stringu2" | "string4" -> Value.Tstr
           | _ -> Value.Tint
         in
         (name, ty))
       columns)

let column name =
  let rec search i = function
    | [] -> raise Not_found
    | c :: rest -> if String.equal c name then i else search (i + 1) rest
  in
  search 0 columns

(* The classic 7-letter string image of a number in base 26, padded:
   each byte written once, and the bytes handed over without a copy. *)
let string_image x =
  let buf = Bytes.create 7 in
  let v = ref x in
  for pos = 6 downto 0 do
    if !v > 0 then begin
      Bytes.unsafe_set buf pos (Char.unsafe_chr (Char.code 'A' + (!v mod 26)));
      v := !v / 26
    end
    else Bytes.unsafe_set buf pos 'A'
  done;
  Bytes.unsafe_to_string buf

(* Values are immutable, so rows share them where they can: one block
   per small derived value (every column but unique1, unique2, unique3
   and the two unique strings is below 200), and one per string4
   value.  A row then allocates its array, two ints and two strings. *)
let small = Array.init 200 (fun k -> Value.Int k)
let string4 = [| Value.Str "AAAA"; Value.Str "HHHH"; Value.Str "OOOO"; Value.Str "VVVV" |]

let generator ?(seed = 42L) ~n () =
  let rng = Rng.create seed in
  let permutation = Rng.permutation rng n in
  fun i ->
    if i < 0 || i >= n then invalid_arg "Wisconsin.generator: index out of range";
    let u1 = permutation.(i) in
    let unique1 = Value.Int u1 and pct = u1 mod 100 in
    [|
      unique1;
      Value.Int i;
      small.(u1 mod 2);
      small.(u1 mod 4);
      small.(u1 mod 10);
      small.(u1 mod 20);
      small.(pct);
      small.(u1 mod 10);
      small.(u1 mod 5);
      small.(u1 mod 2);
      unique1;
      small.(pct * 2);
      small.((pct * 2) + 1);
      Value.Str (string_image u1);
      Value.Str (string_image i);
      string4.(i mod 4);
    |]

let arity = List.length columns

let plan ?seed ~n () =
  Volcano_plan.Plan.Generate { arity; count = n; gen = generator ?seed ~n () }

let plan_slice ?seed ~n () =
  Volcano_plan.Plan.Generate_slice
    { arity; count = n; gen = generator ?seed ~n () }

let load ?seed ?(partitions = 0) ~env ~name ~n () =
  let gen = generator ?seed ~n () in
  let file = Volcano_plan.Env.create_table env ~name ~schema in
  let part_files =
    Array.init partitions (fun p ->
        Volcano_plan.Env.create_table env
          ~name:(Volcano_storage.Shard.partition_name ~table:name ~part:p)
          ~schema)
  in
  (* file 0 is the table, file [1 + p] its partition [p] *)
  Volcano_plan.Partition.with_appenders
    (Array.append [| file |] part_files)
    (fun put ->
      for i = 0 to n - 1 do
        let tuple = gen i in
        put 0 tuple;
        if partitions > 0 then put (1 + (i mod partitions)) tuple
      done)

let skewed_generator ?(seed = 7L) ~n ~key_space ~theta () =
  let rng = Rng.create seed in
  let zipf = Zipf.create ~n:key_space ~theta in
  let keys = Array.init n (fun _ -> Zipf.draw zipf rng) in
  fun i ->
    if i < 0 || i >= n then invalid_arg "Wisconsin.skewed_generator: out of range";
    Tuple.of_ints [ keys.(i); i ]
