type t = Value.t array

let make values = Array.of_list values
let arity = Array.length
let get t i = t.(i)
let int_exn t i = Value.int_exn t.(i)
let float_exn t i = Value.float_exn t.(i)
let str_exn t i = Value.str_exn t.(i)
(* Both sit on per-record paths (generators, key extraction); building
   the array directly skips the intermediate mapped list. *)
let of_ints = function
  | [] -> [||]
  | x :: _ as xs ->
      let a = Array.make (List.length xs) (Value.Int x) in
      List.iteri (fun i x -> a.(i) <- Value.Int x) xs;
      a

let concat = Array.append

(* A projection runs once per record (projection stages, key
   extraction): the fill loop takes its array and tuple as arguments, so
   no closure is allocated per call. *)
let rec fill a t k = function
  | [] -> a
  | i :: rest ->
      a.(k) <- t.(i);
      fill a t (k + 1) rest

let project t indices =
  match indices with
  | [] -> [||]
  | i :: _ -> fill (Array.make (List.length indices) t.(i)) t 0 indices

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec fields i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else fields (i + 1)
  in
  fields 0

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let pp ppf t =
  Format.fprintf ppf "[";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf "; ";
      Value.pp ppf v)
    t;
  Format.fprintf ppf "]"

let to_string t = Format.asprintf "%a" pp t
