module Schema = Volcano_tuple.Schema
module Expr = Volcano_tuple.Expr
module Match_op = Volcano_ops.Match_op
module Exchange = Volcano.Exchange

type algo = Sort_based | Hash_based

type index_bound =
  | Ix_unbounded
  | Ix_inclusive of Volcano_tuple.Tuple.t
  | Ix_exclusive of Volcano_tuple.Tuple.t

type t =
  | Scan_table of string
  | Scan_table_slice of string
  | Scan_index of { index : string; lo : index_bound; hi : index_bound }
  | Scan_list of { arity : int; tuples : Volcano_tuple.Tuple.t list }
  | Generate of { arity : int; count : int; gen : int -> Volcano_tuple.Tuple.t }
  | Generate_slice of {
      arity : int;
      count : int;
      gen : int -> Volcano_tuple.Tuple.t;
    }
  | Generate_range of { start : int; count : int }
  | Filter of {
      pred : Expr.pred;
      mode : [ `Compiled | `Interpreted ];
      input : t;
    }
  | Project_cols of { cols : int list; input : t }
  | Project_exprs of { exprs : Expr.num list; input : t }
  | Sort of { key : Volcano_tuple.Support.sort_key; input : t }
  | Match of {
      algo : algo;
      kind : Match_op.kind;
      left_key : int list;
      right_key : int list;
      left : t;
      right : t;
    }
  | Cross of { left : t; right : t }
  | Theta_join of { pred : Expr.pred; left : t; right : t }
  | Aggregate of {
      algo : algo;
      group_by : int list;
      aggs : Volcano_ops.Aggregate.agg list;
      input : t;
    }
  | Distinct of { algo : algo; on : int list; input : t }
  | Division of {
      algo : [ `Hash | `Count | `Sort ];
      quotient : int list;
      divisor_attrs : int list;
      divisor_key : int list;
      dividend : t;
      divisor : t;
    }
  | Limit of { count : int; input : t }
  | Union_all of { left : t; right : t }
  | Choose of { decide : unit -> int; alternatives : t list }
  | Exchange of { cfg : Exchange.config; input : t }
  | Exchange_merge of {
      cfg : Exchange.config;
      key : Volcano_tuple.Support.sort_key;
      input : t;
    }
  | Interchange of { cfg : Exchange.config; input : t }
  | Remote of {
      cfg : Exchange.config;
      workers : int;
      task : string;
      input : t;
    }

let rec arity env plan =
  match plan with
  | Scan_table name | Scan_table_slice name ->
      let _, schema = Env.table env name in
      Schema.arity schema
  | Scan_index { index; _ } ->
      let _, file, _ = Env.index env index in
      let _ = file in
      (* the fetch returns base-table records; find its schema via the
         catalog *)
      let rec width = function
        | [] -> invalid_arg "Plan.arity: index over unregistered table"
        | name :: rest -> (
            match Env.table env name with
            | f, schema
              when Volcano_storage.Heap_file.name f
                   = Volcano_storage.Heap_file.name file ->
                let _ = f in
                Schema.arity schema
            | _ -> width rest
            | exception Not_found -> width rest)
      in
      width (Env.table_names env)
  | Scan_list { arity; _ } -> arity
  | Generate { arity; _ } | Generate_slice { arity; _ } -> arity
  | Generate_range _ -> 1
  | Filter { input; _ } -> arity env input
  | Project_cols { cols; _ } -> List.length cols
  | Project_exprs { exprs; _ } -> List.length exprs
  | Sort { input; _ } -> arity env input
  | Match { algo = _; kind; left; right; _ } ->
      Match_op.output_arity kind ~left_arity:(arity env left)
        ~right_arity:(arity env right)
  | Cross { left; right } | Theta_join { left; right; _ } ->
      arity env left + arity env right
  | Aggregate { group_by; aggs; _ } -> List.length group_by + List.length aggs
  | Distinct { input; _ } -> arity env input
  | Division { quotient; _ } -> List.length quotient
  | Limit { input; _ } -> arity env input
  | Union_all { left; _ } -> arity env left
  | Choose { alternatives; _ } -> (
      match alternatives with
      | [] -> invalid_arg "Plan.arity: Choose with no alternatives"
      | first :: _ -> arity env first)
  | Exchange { input; _ } | Exchange_merge { input; _ } | Interchange { input; _ }
    ->
      arity env input
  | Remote { input; _ } -> arity env input

let algo_to_string = function Sort_based -> "sort" | Hash_based -> "hash"

let cols_to_string cols =
  "[" ^ String.concat "," (List.map string_of_int cols) ^ "]"

let key_to_string key =
  "["
  ^ String.concat ","
      (List.map
         (fun (c, dir) ->
           string_of_int c
           ^ match dir with Volcano_tuple.Support.Asc -> "" | Desc -> " desc")
         key)
  ^ "]"

let cfg_to_string (cfg : Exchange.config) =
  let partition =
    match cfg.partition with
    | Exchange.Round_robin -> "round-robin"
    | Exchange.Hash_on cols -> "hash" ^ cols_to_string cols
    | Exchange.Range_on (c, _) -> Printf.sprintf "range[%d]" c
    | Exchange.Custom _ -> "custom"
    | Exchange.Broadcast -> "broadcast"
  in
  Printf.sprintf "degree=%d packet=%d flow=%s partition=%s" cfg.degree
    cfg.packet_size
    (match cfg.flow_slack with Some n -> string_of_int n | None -> "off")
    partition

let slice_share ~rank ~size plan =
  let share count = max 0 ((count - rank + size - 1) / size) in
  match plan with
  | Generate_slice { count; gen; _ } ->
      Some (share count, fun i -> gen ((i * size) + rank))
  | Generate_range { start; count } ->
      Some
        ( share count,
          fun i -> [| Volcano_tuple.Value.Int (start + (i * size) + rank) |] )
  | _ -> None

(* One-line description of a node, without its children — the text of a
   tree line, shared by [pp] and the profiler's annotated tree (EXPLAIN
   ANALYZE). *)
let label plan =
  match plan with
  | Scan_table name -> Printf.sprintf "scan %s" name
  | Scan_index { index; _ } -> Printf.sprintf "index-scan %s" index
  | Scan_table_slice name -> Printf.sprintf "scan-slice %s" name
  | Scan_list { tuples; _ } ->
      Printf.sprintf "scan-list (%d tuples)" (List.length tuples)
  | Generate { count; _ } -> Printf.sprintf "generate (%d tuples)" count
  | Generate_slice { count; _ } ->
      Printf.sprintf "generate-slice (%d tuples)" count
  | Generate_range { start; count } ->
      Printf.sprintf "generate-range [%d, %d)" start (start + count)
  | Filter { pred; mode; _ } ->
      Format.asprintf "filter (%s) %a"
        (match mode with `Compiled -> "compiled" | `Interpreted -> "interpreted")
        Expr.pp_pred pred
  | Project_cols { cols; _ } -> Printf.sprintf "project %s" (cols_to_string cols)
  | Project_exprs { exprs; _ } ->
      Printf.sprintf "project (%d exprs)" (List.length exprs)
  | Sort { key; _ } -> Printf.sprintf "sort %s" (key_to_string key)
  | Match { algo; kind; left_key; right_key; _ } ->
      Printf.sprintf "%s-%s on %s=%s" (algo_to_string algo)
        (Match_op.to_string kind) (cols_to_string left_key)
        (cols_to_string right_key)
  | Cross _ -> "cartesian-product"
  | Theta_join { pred; _ } ->
      Format.asprintf "nested-loops-join %a" Expr.pp_pred pred
  | Aggregate { algo; group_by; aggs; _ } ->
      Printf.sprintf "%s-aggregate by %s (%d aggs)" (algo_to_string algo)
        (cols_to_string group_by) (List.length aggs)
  | Distinct { algo; on; _ } ->
      Printf.sprintf "%s-distinct on %s" (algo_to_string algo)
        (cols_to_string on)
  | Division { algo; quotient; divisor_attrs; _ } ->
      Printf.sprintf "%s-division quotient=%s attrs=%s"
        (match algo with `Hash -> "hash" | `Count -> "count" | `Sort -> "sort")
        (cols_to_string quotient)
        (cols_to_string divisor_attrs)
  | Limit { count; _ } -> Printf.sprintf "limit %d" count
  | Union_all _ -> "union-all"
  | Choose { alternatives; _ } ->
      Printf.sprintf "choose-plan (%d alternatives)" (List.length alternatives)
  | Exchange { cfg; _ } -> Printf.sprintf "exchange (%s)" (cfg_to_string cfg)
  | Exchange_merge { cfg; key; _ } ->
      Printf.sprintf "exchange-merge %s (%s)" (key_to_string key)
        (cfg_to_string cfg)
  | Interchange { cfg; _ } ->
      Printf.sprintf "interchange (%s)" (cfg_to_string cfg)
  | Remote { cfg; workers; task; _ } ->
      Printf.sprintf "remote-exchange workers=%d task=%S (%s)" workers task
        (cfg_to_string cfg)

let children = function
  | Scan_table _ | Scan_table_slice _ | Scan_index _ | Scan_list _ | Generate _
  | Generate_slice _ | Generate_range _ ->
      []
  | Filter { input; _ }
  | Project_cols { input; _ }
  | Project_exprs { input; _ }
  | Sort { input; _ }
  | Aggregate { input; _ }
  | Distinct { input; _ }
  | Limit { input; _ }
  | Exchange { input; _ }
  | Exchange_merge { input; _ }
  | Interchange { input; _ }
  | Remote { input; _ } ->
      [ input ]
  | Match { left; right; _ }
  | Cross { left; right }
  | Theta_join { left; right; _ }
  | Union_all { left; right } ->
      [ left; right ]
  | Division { dividend; divisor; _ } -> [ dividend; divisor ]
  | Choose { alternatives; _ } -> alternatives

let map_children f plan =
  match plan with
  | Scan_table _ | Scan_table_slice _ | Scan_index _ | Scan_list _ | Generate _
  | Generate_slice _ | Generate_range _ ->
      plan
  | Filter r -> Filter { r with input = f r.input }
  | Project_cols r -> Project_cols { r with input = f r.input }
  | Project_exprs r -> Project_exprs { r with input = f r.input }
  | Sort r -> Sort { r with input = f r.input }
  | Aggregate r -> Aggregate { r with input = f r.input }
  | Distinct r -> Distinct { r with input = f r.input }
  | Limit r -> Limit { r with input = f r.input }
  | Exchange r -> Exchange { r with input = f r.input }
  | Exchange_merge r -> Exchange_merge { r with input = f r.input }
  | Interchange r -> Interchange { r with input = f r.input }
  | Remote r -> Remote { r with input = f r.input }
  | Match r ->
      let left = f r.left in
      Match { r with left; right = f r.right }
  | Cross { left; right } ->
      let left = f left in
      Cross { left; right = f right }
  | Theta_join r ->
      let left = f r.left in
      Theta_join { r with left; right = f r.right }
  | Union_all { left; right } ->
      let left = f left in
      Union_all { left; right = f right }
  | Division r ->
      let dividend = f r.dividend in
      Division { r with dividend; divisor = f r.divisor }
  | Choose r -> Choose { r with alternatives = List.map f r.alternatives }

(* --- read sets ----------------------------------------------------------- *)

(* The columns each node's consumer reads, worked top-down from the root,
   which reads everything.  [narrow_in env reads plan] is [plan] with every
   table leaf and every [Remote] below it keeping only what its consumers
   read; [reads] is the set of [plan]'s output columns read from above
   (sorted, unique), [None] for every column.  It also returns how
   [plan]'s output layout moved: [Some f] sends each column that was read
   to its position in the narrow layout, [None] leaves the layout as it
   was — always the case when [reads] is [None], so a node that reads all
   of its input keeps every layout below it.  Whatever does not change is
   returned physically unchanged, so obs nodes and port ids keyed by
   identity still hold, and narrowing a narrowed plan is the identity. *)

let union a b = List.sort_uniq compare (a @ b)
let at f c = match f with None -> c | Some f -> f c
let width env plan = try Some (arity env plan) with _ -> None

let remap_partition f (p : Exchange.partition_spec) : Exchange.partition_spec =
  match p with
  | Exchange.Hash_on cols -> Exchange.Hash_on (List.map (at f) cols)
  | Exchange.Range_on (c, bounds) -> Exchange.Range_on (at f c, bounds)
  | Exchange.Round_robin | Exchange.Custom _ | Exchange.Broadcast -> p

let remap_cfg f (cfg : Exchange.config) =
  Exchange.config ~degree:cfg.degree ~packet_size:cfg.packet_size
    ~flow_slack:cfg.flow_slack
    ~partition:(remap_partition f cfg.partition)
    ~fork_mode:cfg.fork_mode ()

(* The columns an edge's own routing reads; [None] when it cannot be
   reasoned about (a custom closure reads what it likes). *)
let partition_reads (cfg : Exchange.config) =
  match cfg.partition with
  | Exchange.Hash_on cols -> Some cols
  | Exchange.Range_on (c, _) -> Some [ c ]
  | Exchange.Round_robin | Exchange.Broadcast -> Some []
  | Exchange.Custom _ -> None

let remap_num f = Expr.subst (fun c -> Expr.Col (at f c))
let remap_pred f = Expr.subst_pred (fun c -> Expr.Col (at f c))

let remap_agg f (agg : Volcano_ops.Aggregate.agg) : Volcano_ops.Aggregate.agg =
  match agg with
  | Count -> agg
  | Sum e -> Sum (remap_num f e)
  | Min e -> Min (remap_num f e)
  | Max e -> Max (remap_num f e)
  | Avg e -> Avg (remap_num f e)

let agg_reads (agg : Volcano_ops.Aggregate.agg) =
  match agg with
  | Count -> []
  | Sum e | Min e | Max e | Avg e -> Expr.cols_of_num e

let remap_key f key = List.map (fun (c, dir) -> (at f c, dir)) key

(* [input] cut down to the columns [keep] (sorted, unique) when that drops
   any, and how its layout moved.  A [Project_cols] at the top of [input]
   is the cut already made there — a table leaf's decode, a remote edge's
   site projection — so the cut composes with it instead of stacking a
   second one. *)
let cut env keep input =
  match (keep, width env input) with
  | Some keep, Some width
    when List.length keep < width
         && List.for_all (fun c -> c >= 0 && c < width) keep ->
      let pos = Array.make width (-1) in
      List.iteri (fun i c -> pos.(c) <- i) keep;
      let input =
        match input with
        | Project_cols { cols; input } ->
            let cols = Array.of_list cols in
            Project_cols { cols = List.map (Array.get cols) keep; input }
        | _ -> Project_cols { cols = keep; input }
      in
      (input, Some (Array.get pos))
  | _ -> (input, None)

let rec narrow_in env reads plan =
  (* the columns read from above, and [own] *)
  let also own =
    match (reads, own) with
    | Some r, Some own -> Some (union r own)
    | _ -> None
  in
  (* a node that passes its input's layout through, reading [own] too *)
  let through own input rebuild =
    let input', f = narrow_in env (also own) input in
    if input' == input then (plan, None) else (rebuild f input', f)
  in
  (* a node with a layout of its own, whose input supplies [own].  A
     projection that narrowing made the identity over its input goes
     ([rebuild] says [None]): what is read above then reads that input. *)
  let owns own input rebuild =
    let input', f = narrow_in env own input in
    if input' == input then (plan, None)
    else
      match rebuild f input' with
      | Some node -> (node, None)
      | None -> narrow_in env reads input'
  in
  let identity f cols input =
    Option.is_some f
    && width env input = Some (List.length cols)
    && List.for_all Fun.id (List.mapi ( = ) cols)
  in
  (* a node read whole: only edges and leaves deeper down may narrow *)
  let whole input = fst (narrow_in env None input) in
  let binary left right rebuild =
    let left' = whole left and right' = whole right in
    if left' == left && right' == right then (plan, None)
    else (rebuild left' right', None)
  in
  (* a join, whose output is [left ++ right] with [lw] columns from the
     left: each side supplies its columns that are read, from above or by
     the join itself ([own lw], over the output).  [rebuild] gets each
     side's layout move and the output's. *)
  let join left right own rebuild =
    match (reads, width env left) with
    | Some r, Some lw ->
        let r = union r (own lw) in
        let side keep input =
          narrow_in env (Some (List.filter_map keep r)) input
        in
        let left', fl = side (fun c -> if c < lw then Some c else None) left in
        let right', fr =
          side (fun c -> if c >= lw then Some (c - lw) else None) right
        in
        if left' == left && right' == right then (plan, None)
        else
          let f =
            match (fl, fr) with
            | None, None -> None
            | _ ->
                let lw' = if Option.is_none fl then lw else arity env left' in
                Some (fun c -> if c < lw then at fl c else lw' + at fr (c - lw))
          in
          (rebuild fl fr f left' right', f)
    | _ -> binary left right (rebuild None None None)
  in
  let sorted l = Some (List.sort_uniq compare l) in
  match plan with
  | Scan_table _ | Scan_table_slice _ | Generate _ | Generate_slice _
  | Generate_range _
  | Project_cols
      {
        input =
          ( Scan_table _ | Scan_table_slice _ | Generate _ | Generate_slice _
          | Generate_range _ );
        _;
      } ->
      (* a table leaf decodes only what is read; a generated one projects
         its records before anything above retains or ships them *)
      cut env reads plan
  | Scan_index _ | Scan_list _ -> (plan, None)
  | Filter { pred; mode; input } ->
      through (Some (Expr.cols_of_pred pred)) input (fun f input ->
          Filter { pred = remap_pred f pred; mode; input })
  | Sort { key; input } ->
      through (sorted (List.map fst key)) input (fun f input ->
          Sort { key = remap_key f key; input })
  | Distinct { algo; on; input } ->
      through (sorted on) input (fun f input ->
          Distinct { algo; on = List.map (at f) on; input })
  | Limit { count; input } ->
      through (Some []) input (fun _ input -> Limit { count; input })
  | Exchange { cfg; input } ->
      through (partition_reads cfg) input (fun f input ->
          Exchange { cfg = remap_cfg f cfg; input })
  | Interchange { cfg; input } ->
      through (partition_reads cfg) input (fun f input ->
          Interchange { cfg = remap_cfg f cfg; input })
  | Exchange_merge { cfg; key; input } ->
      through
        (Option.map (union (List.map fst key)) (partition_reads cfg))
        input
        (fun f input ->
          Exchange_merge { cfg = remap_cfg f cfg; key = remap_key f key; input })
  | Project_cols { cols; input } ->
      owns (sorted cols) input (fun f input ->
          let cols = List.map (at f) cols in
          if identity f cols input then None
          else Some (Project_cols { cols; input }))
  | Project_exprs { exprs; input } ->
      owns (sorted (List.concat_map Expr.cols_of_num exprs)) input
        (fun f input ->
          let exprs = List.map (remap_num f) exprs in
          let cols = List.map (function Expr.Col c -> c | _ -> -1) exprs in
          if identity f cols input then None
          else Some (Project_exprs { exprs; input }))
  | Aggregate { algo; group_by; aggs; input } ->
      owns
        (sorted (group_by @ List.concat_map agg_reads aggs))
        input
        (fun f input ->
          Some
            (Aggregate
               {
                 algo;
                 group_by = List.map (at f) group_by;
                 aggs = List.map (remap_agg f) aggs;
                 input;
               }))
  | Match
      ({ kind = Join | Left_outer | Right_outer | Full_outer; _ } as m) ->
      join m.left m.right
        (fun lw -> m.left_key @ List.map (( + ) lw) m.right_key)
        (fun fl fr _ left right ->
          Match
            {
              m with
              left_key = List.map (at fl) m.left_key;
              right_key = List.map (at fr) m.right_key;
              left;
              right;
            })
  | Cross { left; right } ->
      join left right (fun _ -> []) (fun _ _ _ left right ->
          Cross { left; right })
  | Theta_join { pred; left; right } ->
      join left right
        (fun _ -> Expr.cols_of_pred pred)
        (fun _ _ f left right ->
          Theta_join { pred = remap_pred f pred; left; right })
  | Match m ->
      binary m.left m.right (fun left right -> Match { m with left; right })
  | Union_all { left; right } ->
      binary left right (fun left right -> Union_all { left; right })
  | Division d ->
      binary d.dividend d.divisor (fun dividend divisor ->
          Division { d with dividend; divisor })
  | Choose { decide; alternatives } ->
      let alternatives' = List.map whole alternatives in
      if List.for_all2 ( == ) alternatives alternatives' then (plan, None)
      else (Choose { decide; alternatives = alternatives' }, None)
  | Remote { cfg; workers; task; input } -> (
      (* The subtree runs at the sites; only the edge narrows, by the
         projection at the top of its input that the sites apply. *)
      match cut env (also (partition_reads cfg)) input with
      | _, None -> (plan, None)
      | input, f -> (Remote { cfg = remap_cfg f cfg; workers; task; input }, f))

let narrow env plan = fst (narrow_in env None plan)

let rec pp_indented ppf indent plan =
  Format.fprintf ppf "%s%s" (String.make (indent * 2) ' ') (label plan);
  Format.pp_print_newline ppf ();
  List.iter (pp_indented ppf (indent + 1)) (children plan)

let pp ppf plan = pp_indented ppf 0 plan

let explain env plan =
  Format.asprintf "%a-- output arity: %d@." pp plan (arity env plan)
