module Match_op = Volcano_ops.Match_op

let child_path path seg = if path = "" then seg else path ^ "/" ^ seg

(* ------------------------------------------------------------------ *)
(* Pass 1: schema / arity inference                                    *)

let schema_pass root =
  let diags = ref [] in
  let err path code msg = diags := Diag.error ~code ~path msg :: !diags in
  let warn path code msg = diags := Diag.warning ~code ~path msg :: !diags in
  (* Column checks are skipped when the input arity is unknown (an
     [Unresolved] leaf below already carries its own error). *)
  let check_cols path what arity cols =
    match arity with
    | None -> ()
    | Some a ->
        List.iter
          (fun c ->
            if c < 0 || c >= a then
              err path "schema-col"
                (Printf.sprintf
                   "%s references column %d, but the input has %d column(s)"
                   what c a))
          cols
  in
  let rec infer prefix node =
    let path = child_path prefix (Ir.label node) in
    match node with
    | Ir.Leaf { arity; bad_rows; _ } ->
        if bad_rows > 0 then
          err path "schema-row-width"
            (Printf.sprintf
               "%d literal tuple(s) do not match the declared arity %d"
               bad_rows arity);
        Some arity
    | Ir.Unresolved { label } ->
        err path "schema-unknown-source" (label ^ " is not in the catalog");
        None
    | Ir.Filter { cols; input } ->
        let a = infer path input in
        check_cols path "filter predicate" a cols;
        a
    | Ir.Project_cols { cols; input } ->
        let a = infer path input in
        check_cols path "projection" a cols;
        Some (List.length cols)
    | Ir.Project_exprs { arity; cols; input } ->
        let a = infer path input in
        check_cols path "projection expression" a cols;
        Some arity
    | Ir.Sort { key; input } ->
        let a = infer path input in
        check_cols path "sort key" a (List.map fst key);
        a
    | Ir.Match { kind; left_key; right_key; left; right; _ } ->
        let la = infer (child_path path "left") left in
        let ra = infer (child_path path "right") right in
        if List.length left_key <> List.length right_key then
          err path "schema-match-keys"
            (Printf.sprintf
               "left key has %d column(s) but right key has %d; keys are \
                matched pairwise"
               (List.length left_key)
               (List.length right_key));
        check_cols path "match left key" la left_key;
        check_cols path "match right key" ra right_key;
        (match kind with
        | Match_op.Union | Match_op.Intersection | Match_op.Difference
        | Match_op.Anti_difference -> (
            match (la, ra) with
            | Some l, Some r when l <> r ->
                err path "schema-union-arity"
                  (Printf.sprintf
                     "%s requires union-compatible inputs; left has %d \
                      column(s), right has %d"
                     (Match_op.to_string kind) l r)
            | _ -> ())
        | _ -> ());
        (match (la, ra) with
        | Some l, Some r ->
            Some (Match_op.output_arity kind ~left_arity:l ~right_arity:r)
        | _ -> None)
    | Ir.Cross { left; right } -> (
        let la = infer (child_path path "left") left in
        let ra = infer (child_path path "right") right in
        match (la, ra) with Some l, Some r -> Some (l + r) | _ -> None)
    | Ir.Theta_join { cols; left; right } ->
        let la = infer (child_path path "left") left in
        let ra = infer (child_path path "right") right in
        let combined =
          match (la, ra) with Some l, Some r -> Some (l + r) | _ -> None
        in
        check_cols path "join predicate" combined cols;
        combined
    | Ir.Aggregate { group_by; agg_cols; input; _ } ->
        let a = infer path input in
        check_cols path "group-by key" a group_by;
        List.iter (fun cols -> check_cols path "aggregate expression" a cols)
          agg_cols;
        Some (List.length group_by + List.length agg_cols)
    | Ir.Distinct { on; input; _ } ->
        let a = infer path input in
        check_cols path "distinct key" a on;
        a
    | Ir.Division { quotient; divisor_attrs; divisor_key; dividend; divisor; _ }
      ->
        let da = infer (child_path path "dividend") dividend in
        let va = infer (child_path path "divisor") divisor in
        check_cols path "division quotient" da quotient;
        check_cols path "division divisor attributes" da divisor_attrs;
        check_cols path "division divisor key" va divisor_key;
        if List.length divisor_attrs <> List.length divisor_key then
          err path "schema-division-keys"
            (Printf.sprintf
               "%d divisor attribute(s) in the dividend but %d divisor key \
                column(s); they are matched pairwise"
               (List.length divisor_attrs)
               (List.length divisor_key));
        Some (List.length quotient)
    | Ir.Limit { count; input } ->
        if count < 0 then
          err path "schema-limit"
            (Printf.sprintf "limit count %d is negative" count);
        infer path input
    | Ir.Union_all { left; right } -> (
        let la = infer (child_path path "left") left in
        let ra = infer (child_path path "right") right in
        match (la, ra) with
        | Some l, Some r when l <> r ->
            err path "schema-union-arity"
              (Printf.sprintf
                 "union-all requires union-compatible inputs; left has %d \
                  column(s), right has %d"
                 l r);
            Some l
        | Some l, _ -> Some l
        | None, ra -> ra)
    | Ir.Choose { alternatives } -> (
        match alternatives with
        | [] ->
            err path "schema-choose-empty" "choose-plan with no alternatives";
            None
        | alts ->
            let arities =
              List.mapi
                (fun i alt ->
                  infer (child_path path (Printf.sprintf "alt%d" i)) alt)
                alts
            in
            let known = List.filter_map Fun.id arities in
            (match List.sort_uniq compare known with
            | _ :: _ :: _ ->
                err path "schema-choose-arity"
                  (Printf.sprintf
                     "alternatives disagree on output arity (%s); the \
                      decision function would change the result width"
                     (String.concat ", " (List.map string_of_int known)))
            | _ -> ());
            List.nth_opt known 0)
    | Ir.Exchange { cfg; input } | Ir.Interchange { cfg; input } ->
        let a = infer path input in
        (match cfg.Ir.partition with
        | Ir.Hash_on [] ->
            warn path "schema-hash-empty"
              "hash partitioning on no columns sends every record to one \
               consumer"
        | Ir.Hash_on cols -> check_cols path "hash partition" a cols
        | Ir.Range_on (c, _) -> check_cols path "range partition" a [ c ]
        | Ir.Round_robin | Ir.Custom | Ir.Broadcast -> ());
        a
    | Ir.Exchange_merge { cfg; key; input } ->
        let a = infer path input in
        check_cols path "merge key" a (List.map fst key);
        (match cfg.Ir.partition with
        | Ir.Hash_on cols -> check_cols path "hash partition" a cols
        | Ir.Range_on (c, _) -> check_cols path "range partition" a [ c ]
        | _ -> ());
        a
    | Ir.Remote { input; _ } ->
        (* Workers rebuild the same subtree, so its schema holds across
           the wire; the partition spec is not re-applied on the wire edge
           (workers arrive pre-sharded), so its columns are not checked. *)
        infer path input
  in
  ignore (infer "" root);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 2: exchange configuration and placement                        *)

(* The sort key (if any) that a subtree's output is guaranteed to obey.
   Filter and limit preserve order; everything else is conservative. *)
let rec sorted_key_of = function
  | Ir.Sort { key; _ } -> Some key
  | Ir.Exchange_merge { key; _ } -> Some key
  | Ir.Filter { input; _ } | Ir.Limit { input; _ } -> sorted_key_of input
  | _ -> None

let rec is_key_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_key_prefix s l

let key_to_string key =
  "["
  ^ String.concat ","
      (List.map
         (fun (c, dir) ->
           string_of_int c ^ match dir with Ir.Asc -> "" | Ir.Desc -> " desc")
         key)
  ^ "]"

let exchange_pass root =
  let diags = ref [] in
  let err path code msg = diags := Diag.error ~code ~path msg :: !diags in
  let warn path code msg = diags := Diag.warning ~code ~path msg :: !diags in
  (* [consumers] is the size of the group the node executes in — the
     consumer count of any exchange sitting at this position. *)
  let check_cfg path ~consumers (cfg : Ir.cfg) =
    (* The scalar-field checks are the runtime's own: one validation path
       shared with the [Exchange.config] smart constructor, so planlint
       can never drift from what the constructor accepts. *)
    List.iter
      (fun (code, msg) -> err path code msg)
      (Volcano.Exchange.validate ~degree:cfg.degree
         ~packet_size:cfg.packet_size ~flow_slack:cfg.flow_slack);
    match cfg.partition with
    | Ir.Range_on (_, bounds) when bounds <> consumers - 1 ->
        err path "exchange-range-bounds"
          (Printf.sprintf
             "range partitioning has %d split bound(s) for %d consumer(s); \
              exactly %d are required"
             bounds consumers (consumers - 1))
    | _ -> ()
  in
  let rec walk prefix consumers node =
    let path = child_path prefix (Ir.label node) in
    match node with
    | Ir.Leaf _ | Ir.Unresolved _ -> ()
    | Ir.Filter { input; _ }
    | Ir.Project_cols { input; _ }
    | Ir.Project_exprs { input; _ }
    | Ir.Sort { input; _ }
    | Ir.Aggregate { input; _ }
    | Ir.Distinct { input; _ }
    | Ir.Limit { input; _ } ->
        walk path consumers input
    | Ir.Match { left; right; _ } | Ir.Cross { left; right }
    | Ir.Theta_join { left; right; _ } | Ir.Union_all { left; right } ->
        walk (child_path path "left") consumers left;
        walk (child_path path "right") consumers right
    | Ir.Division { dividend; divisor; _ } ->
        walk (child_path path "dividend") consumers dividend;
        walk (child_path path "divisor") consumers divisor
    | Ir.Choose { alternatives } ->
        List.iteri
          (fun i alt ->
            walk (child_path path (Printf.sprintf "alt%d" i)) consumers alt)
          alternatives
    | Ir.Exchange { cfg; input } ->
        check_cfg path ~consumers cfg;
        walk path cfg.degree input
    | Ir.Exchange_merge { cfg; key; input } ->
        check_cfg path ~consumers cfg;
        (match sorted_key_of input with
        | Some produced when is_key_prefix key produced -> ()
        | Some produced ->
            err path "merge-unsorted"
              (Printf.sprintf
                 "merge key %s is not a prefix of the producers' sort key \
                  %s; the merged stream would not be ordered"
                 (key_to_string key) (key_to_string produced))
        | None ->
            err path "merge-unsorted"
              (Printf.sprintf
                 "producers of an exchange-merge must emit streams sorted \
                  on the merge key %s, but the input does not establish an \
                  order"
                 (key_to_string key)));
        walk path cfg.degree input
    | Ir.Interchange { cfg; input } ->
        check_cfg path ~consumers cfg;
        (match cfg.partition with
        | Ir.Broadcast ->
            err path "interchange-broadcast"
              "the no-fork interchange cannot broadcast (every process is \
               both producer and consumer of the same stream)"
        | _ -> ());
        if consumers = 1 then
          warn path "interchange-solo"
            "interchange in a solo group repartitions to itself; it is a \
             no-op costing a packet copy per record"
        else if cfg.degree <> consumers then
          warn path "interchange-degree"
            (Printf.sprintf
               "config degree %d is ignored by interchange; the enclosing \
                group size %d governs"
               cfg.degree consumers);
        walk path consumers input
    | Ir.Remote { cfg; input; _ } ->
        (* Only the scalar config fields govern the wire edge: the
           partition spec is not re-applied (workers arrive pre-sharded
           and the edge merges), so the range-bounds check is skipped.
           Each worker compiles the subtree in a solo group. *)
        List.iter
          (fun (code, msg) -> err path code msg)
          (Volcano.Exchange.validate ~degree:cfg.degree
             ~packet_size:cfg.packet_size ~flow_slack:cfg.flow_slack);
        walk path 1 input
  in
  walk "" 1 root;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 3: dataflow deadlock hazards (section 4.4)                     *)

(* Exchanges whose consumer side is the current process: reachable from
   [node] without crossing another exchange boundary.  The no-fork
   interchange stays inside the process, so the search continues below
   it. *)
let rec frontier acc = function
  | Ir.Exchange { cfg; _ } | Ir.Exchange_merge { cfg; _ } | Ir.Remote { cfg; _ }
    ->
      cfg :: acc
  | Ir.Interchange { input; _ } -> frontier acc input
  | Ir.Leaf _ | Ir.Unresolved _ -> acc
  | Ir.Filter { input; _ }
  | Ir.Project_cols { input; _ }
  | Ir.Project_exprs { input; _ }
  | Ir.Sort { input; _ }
  | Ir.Aggregate { input; _ }
  | Ir.Distinct { input; _ }
  | Ir.Limit { input; _ } ->
      frontier acc input
  | Ir.Match { left; right; _ }
  | Ir.Cross { left; right }
  | Ir.Theta_join { left; right; _ }
  | Ir.Union_all { left; right } ->
      frontier (frontier acc left) right
  | Ir.Division { dividend; divisor; _ } ->
      frontier (frontier acc dividend) divisor
  | Ir.Choose { alternatives } -> List.fold_left frontier acc alternatives

let flow_controlled (cfg : Ir.cfg) = cfg.flow_slack <> None

let broadcast_flow cfg =
  cfg.Ir.partition = Ir.Broadcast && flow_controlled cfg

let deadlock_pass root =
  let diags = ref [] in
  let warn path code msg = diags := Diag.warning ~code ~path msg :: !diags in
  (* A binary operator with data-dependent input interleaving can block on
     either input depending on record values; fixed-order operators (hash
     match, hash/count division) fully drain one side first and cannot
     close a wait cycle. *)
  let interleaved_binary path consumers left right =
    if consumers >= 2 then begin
      let lf = frontier [] left and rf = frontier [] right in
      let hazard a b =
        List.exists broadcast_flow a && List.exists flow_controlled b
      in
      if hazard lf rf || hazard rf lf then
        warn path "deadlock-broadcast-flow"
          (Printf.sprintf
             "flow-controlled broadcast feeding one side of an operator \
              that interleaves its inputs, with a flow-controlled exchange \
              on the other side and %d consumers: a broadcast producer \
              blocked on one consumer's slack semaphore while that consumer \
              waits on the other input closes a wait cycle (section 4.4); \
              disable flow control on one of the exchanges"
             consumers)
    end
  in
  let rec walk prefix consumers node =
    let path = child_path prefix (Ir.label node) in
    match node with
    | Ir.Leaf _ | Ir.Unresolved _ -> ()
    | Ir.Filter { input; _ }
    | Ir.Project_cols { input; _ }
    | Ir.Project_exprs { input; _ }
    | Ir.Sort { input; _ }
    | Ir.Aggregate { input; _ }
    | Ir.Distinct { input; _ }
    | Ir.Limit { input; _ } ->
        walk path consumers input
    | Ir.Match { algo; left; right; _ } ->
        if algo = Ir.Sort_based then
          interleaved_binary path consumers left right;
        walk (child_path path "left") consumers left;
        walk (child_path path "right") consumers right
    | Ir.Cross { left; right } | Ir.Theta_join { left; right; _ } ->
        interleaved_binary path consumers left right;
        walk (child_path path "left") consumers left;
        walk (child_path path "right") consumers right
    (* Union-all drains left to exhaustion before pulling right: the
       fixed order cannot close a wait cycle, exactly like hash match. *)
    | Ir.Union_all { left; right } ->
        walk (child_path path "left") consumers left;
        walk (child_path path "right") consumers right
    | Ir.Division { algo; dividend; divisor; _ } ->
        if algo = `Sort then interleaved_binary path consumers dividend divisor;
        walk (child_path path "dividend") consumers dividend;
        walk (child_path path "divisor") consumers divisor
    | Ir.Choose { alternatives } ->
        List.iteri
          (fun i alt ->
            walk (child_path path (Printf.sprintf "alt%d" i)) consumers alt)
          alternatives
    | Ir.Exchange { cfg; input } -> walk path cfg.degree input
    | Ir.Exchange_merge { cfg; input; _ } ->
        if flow_controlled cfg && cfg.degree >= 2 && consumers >= 2 then
          warn path "deadlock-merge-flow"
            (Printf.sprintf
               "keep-separate merge network with flow control, %d producers \
                and %d consumers: a producer blocked on one consumer's \
                slack semaphore while another consumer waits on that \
                producer's stream closes a wait cycle (section 4.4); \
                disable flow control or merge in a solo group"
               cfg.degree consumers);
        walk path cfg.degree input
    | Ir.Interchange { input; _ } -> walk path consumers input
    | Ir.Remote { input; _ } ->
        (* Each worker evaluates the subtree in its own solo-group
           process; local wait cycles cannot reach across the socket. *)
        walk path 1 input
  in
  walk "" 1 root;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 4: resource estimation                                         *)

let rec domains = function
  | Ir.Leaf _ | Ir.Unresolved _ -> 0
  | Ir.Filter { input; _ }
  | Ir.Project_cols { input; _ }
  | Ir.Project_exprs { input; _ }
  | Ir.Sort { input; _ }
  | Ir.Aggregate { input; _ }
  | Ir.Distinct { input; _ }
  | Ir.Limit { input; _ }
  | Ir.Interchange { input; _ } ->
      domains input
  | Ir.Match { left; right; _ }
  | Ir.Cross { left; right }
  | Ir.Theta_join { left; right; _ }
  | Ir.Union_all { left; right } ->
      domains left + domains right
  | Ir.Division { dividend; divisor; _ } -> domains dividend + domains divisor
  | Ir.Choose { alternatives } ->
      List.fold_left (fun acc alt -> max acc (domains alt)) 0 alternatives
  | Ir.Exchange { cfg; input } | Ir.Exchange_merge { cfg; input; _ } ->
      cfg.degree + domains input
  | Ir.Remote { cfg; _ } ->
      (* One local feeder domain per worker socket; the subtree's own
         domains live in the worker processes, not this one. *)
      cfg.degree

(* Concurrently fixed buffer pages, coarsely: a heap scan pins one page at
   a time, an index scan a root-to-leaf path (~3), an external sort or
   spilling hash table ~8 (runs being written plus the merge fan-in) —
   each per group member.  Sort-based binary operators sort both inputs
   themselves. *)
let rec pages members = function
  | Ir.Leaf { label; _ } ->
      let per_member =
        if String.length label >= 5 && String.sub label 0 5 = "index" then 3
        else if String.length label >= 4 && String.sub label 0 4 = "scan" then 1
        else 0
      in
      members * per_member
  | Ir.Unresolved _ -> 0
  | Ir.Filter { input; _ }
  | Ir.Project_cols { input; _ }
  | Ir.Project_exprs { input; _ }
  | Ir.Limit { input; _ }
  | Ir.Interchange { input; _ } ->
      pages members input
  | Ir.Sort { input; _ } -> (8 * members) + pages members input
  | Ir.Aggregate { algo; input; _ } | Ir.Distinct { algo; on = _; input } ->
      (match algo with Ir.Sort_based -> 8 * members | Ir.Hash_based -> 0)
      + pages members input
  | Ir.Match { algo; left; right; _ } ->
      (match algo with
      | Ir.Sort_based -> 16 * members (* sorts both inputs itself *)
      | Ir.Hash_based -> 8 * members (* spill partitions *))
      + pages members left + pages members right
  | Ir.Cross { left; right } | Ir.Theta_join { left; right; _ }
  | Ir.Union_all { left; right } ->
      pages members left + pages members right
  | Ir.Division { algo; dividend; divisor; _ } ->
      (match algo with `Sort -> 16 * members | `Hash | `Count -> 0)
      + pages members dividend + pages members divisor
  | Ir.Choose { alternatives } ->
      List.fold_left (fun acc alt -> max acc (pages members alt)) 0 alternatives
  | Ir.Exchange { cfg; input } | Ir.Exchange_merge { cfg; input; _ } ->
      pages cfg.degree input
  | Ir.Remote _ -> 0 (* the subtree pins pages in the workers' pools *)

let resource_pass ?(max_domains = 512) ?frames root =
  let diags = ref [] in
  let warn code msg = diags := Diag.warning ~code ~path:"root" msg :: !diags in
  let d = domains root in
  if d > max_domains then
    warn "resource-domains"
      (Printf.sprintf
         "plan forks %d producer domains, over the limit of %d; consider \
          lower degrees or the no-fork interchange"
         d max_domains);
  (match frames with
  | Some frames ->
      let p = pages 1 root in
      if p > frames then
        warn "resource-bufpool"
          (Printf.sprintf
             "estimated %d concurrently fixed buffer pages against a pool \
              of %d frames; expect thrashing or fix failures under load"
             p frames)
  | None -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 5: scheduler placement (degree of parallelism)                 *)

(* Every exchange producer is one scheduler task alive for the whole
   query.  On the pooled scheduler those tasks share [workers] domains;
   a modest oversubscription is healthy (producers block on flow control
   and I/O), but past it consumers wait whole scheduling rounds between
   packets and the fork-per-group latency the pool was built to hide
   comes back as queueing delay. *)
let sched_pass ?(oversub = 4) ~workers root =
  if workers <= 0 then [] (* dedicated scheduler: one domain per task *)
  else
    let tasks = domains root in
    let limit = oversub * workers in
    if tasks > limit then
      [
        Diag.warning ~code:"sched-dop" ~path:"root"
          (Printf.sprintf
             "plan schedules %d concurrent producer tasks onto a pool of %d \
              worker(s) — over the %dx oversubscription advisory of %d; \
              consumers will wait whole scheduling rounds between packets; \
              lower the exchange degrees, use the no-fork interchange, or \
              size the pool up"
             tasks workers oversub limit);
      ]
    else []

(* ------------------------------------------------------------------ *)
(* Pass 6: flow-control memory bound                                   *)

(* A flow-controlled exchange bounds its buffering: each producer may be
   [flow_slack] packets ahead of each consumer, so the edge pins at most
   [degree x consumers x slack] packets of [packet_size] records at
   once.  Summed over the plan, that worst case is the query's packet
   memory high-water mark; compare it against a budget so a "bounded"
   plan whose bound is absurd is flagged before it runs.  Edges without
   flow control are unbounded by construction and are not counted — the
   paper's position is that their buffering is limited by operator
   demand, not by the exchange.  The no-fork interchange hands packets
   over synchronously and buffers nothing. *)
let memory_pass ?(flow_budget = 1 lsl 20) root =
  let worst = ref 0 in
  let edge (cfg : Ir.cfg) consumers =
    match cfg.flow_slack with
    | Some slack -> worst := !worst + (cfg.degree * consumers * slack * cfg.packet_size)
    | None -> ()
  in
  let rec walk consumers = function
    | Ir.Leaf _ | Ir.Unresolved _ -> ()
    | Ir.Filter { input; _ }
    | Ir.Project_cols { input; _ }
    | Ir.Project_exprs { input; _ }
    | Ir.Sort { input; _ }
    | Ir.Aggregate { input; _ }
    | Ir.Distinct { input; _ }
    | Ir.Limit { input; _ }
    | Ir.Interchange { input; _ } ->
        walk consumers input
    | Ir.Match { left; right; _ }
    | Ir.Cross { left; right }
    | Ir.Theta_join { left; right; _ }
    | Ir.Union_all { left; right } ->
        walk consumers left;
        walk consumers right
    | Ir.Division { dividend; divisor; _ } ->
        walk consumers dividend;
        walk consumers divisor
    | Ir.Choose { alternatives } -> List.iter (walk consumers) alternatives
    | Ir.Exchange { cfg; input } | Ir.Exchange_merge { cfg; input; _ } ->
        edge cfg consumers;
        walk cfg.degree input
    | Ir.Remote { cfg; input; _ } ->
        (* The local port behind the wire edge buffers like any exchange
           edge.  The subtree compiles solo in each of [degree] worker
           processes, so its edges recur [degree] times — the same
           multiplier the walk applies. *)
        edge cfg consumers;
        walk cfg.degree input
  in
  walk 1 root;
  if !worst > flow_budget then
    [
      Diag.warning ~code:"mem-flow-slack" ~path:"root"
        (Printf.sprintf
           "flow-control slack admits up to %d buffered records across the \
            plan's exchange edges, over the budget of %d; shrink flow_slack, \
            packet_size, or the degrees (worst case = sum over \
            flow-controlled edges of degree x consumers x slack x \
            packet_size)"
           !worst flow_budget);
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Pass 7: batch-size legality                                         *)

(* The vectorized path's knob shares the runtime's validation
   ([Volcano.Batch.validate], exactly as the exchange cfg checks share
   [Exchange.validate]), so planlint can never drift from what
   the record bridge [Batch.to_iterator] accepts.  Every exchange edge
   is then checked against the knob: batches never cross an exchange
   edge unpacketized — the producer routes rows onto the port's pooled
   shells — so a port packet smaller than the batch size splits every
   batch at the boundary and gives back the per-record overhead
   batching amortized. *)
let batch_pass ?(batch_size = Volcano.Batch.default_size) root =
  let diags = ref [] in
  List.iter
    (fun (code, msg) -> diags := Diag.error ~code ~path:"root" msg :: !diags)
    (Volcano.Batch.validate ~batch_size);
  if !diags = [] && batch_size > 0 then begin
    let check_edge path (cfg : Ir.cfg) =
      (* Malformed packet sizes are the exchange pass's to report. *)
      if cfg.packet_size >= 1 && cfg.packet_size < batch_size then
        diags :=
          Diag.warning ~code:"batch-packet-mismatch" ~path
            (Printf.sprintf
               "port packet size %d is smaller than the batch size %d; \
                every batch re-packetizes into %d+ port packets at this \
                edge, giving back the per-record overhead batching \
                amortized — raise packet_size to at least the batch size \
                or lower the batch size"
               cfg.packet_size batch_size
               ((batch_size + cfg.packet_size - 1) / cfg.packet_size))
          :: !diags
    in
    let rec walk prefix node =
      let path = child_path prefix (Ir.label node) in
      match node with
      | Ir.Leaf _ | Ir.Unresolved _ -> ()
      | Ir.Filter { input; _ }
      | Ir.Project_cols { input; _ }
      | Ir.Project_exprs { input; _ }
      | Ir.Sort { input; _ }
      | Ir.Aggregate { input; _ }
      | Ir.Distinct { input; _ }
      | Ir.Limit { input; _ } ->
          walk path input
      | Ir.Match { left; right; _ }
      | Ir.Cross { left; right }
      | Ir.Theta_join { left; right; _ }
      | Ir.Union_all { left; right } ->
          walk (child_path path "left") left;
          walk (child_path path "right") right
      | Ir.Division { dividend; divisor; _ } ->
          walk (child_path path "dividend") dividend;
          walk (child_path path "divisor") divisor
      | Ir.Choose { alternatives } ->
          List.iteri
            (fun i alt -> walk (child_path path (Printf.sprintf "alt%d" i)) alt)
            alternatives
      | Ir.Exchange { cfg; input }
      | Ir.Exchange_merge { cfg; input; _ }
      | Ir.Interchange { cfg; input }
      | Ir.Remote { cfg; input; _ } ->
          check_edge path cfg;
          walk path input
    in
    walk "" root
  end;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 8: remote (network-distributed) exchange configuration         *)

(* A remote exchange ships packets over sockets from worker processes
   that arrive pre-sharded; the wire edge is a merge fed by one local
   feeder per worker.  Its legality conditions are its own:

   - the worker count IS the shard count — [Remote.slice] rewrites the
     subtree so worker [r] of [workers] produces what local producer
     rank [r] of a [workers]-wide group would, and the feeder array is
     sized by [cfg.degree]; the two must agree ([remote-workers]);
   - without flow slack the local port ring is unbounded, so
     backpressure never reaches the kernel socket buffer and a fast
     worker can run the consumer out of memory ([remote-flow-slack]);
   - the wire unit is the packetized batch — with the vectorized batch
     path disabled ([batch_size = 0]) every record is materialized
     individually before serialization ([remote-wire-batch]);
   - a partitioning spec on a remote edge repartitions at the exchange
     boundary: workers route rows to the [consumers] ranks of the
     enclosing group, so the spec must be expressible on the wire and
     sized to that group ([remote-partition-placement]), and a hash spec
     that cannot spread keys is a skew trap ([remote-repartition-skew]);
   - a sliced stored-table scan below a remote edge reads partition
     files by shard: the catalog's partition count must equal the worker
     count or shards read missing/foreign partitions
     ([remote-partition-placement]). *)
let remote_pass ?(batch_size = Volcano.Batch.default_size) root =
  let diags = ref [] in
  let err path code msg = diags := Diag.error ~code ~path msg :: !diags in
  let warn path code msg = diags := Diag.warning ~code ~path msg :: !diags in
  (* The catalog check walks a Remote's subtree exactly as [Remote.slice]
     rewrites it: through one-input operators and Interchange, stopping
     at nested exchange boundaries whose own groups govern what is
     below. *)
  let rec check_slices path workers node =
    match node with
    | Ir.Leaf { label; parts = Some parts; _ }
      when String.length label >= 11 && String.sub label 0 11 = "scan-slice:"
           && parts <> workers ->
        err
          (child_path path (Ir.label node))
          "remote-partition-placement"
          (Printf.sprintf
             "%s is partitioned %d ways but the remote edge runs %d \
              workers: shard k scans partition file k, so counts must \
              agree or shards read missing or foreign partitions"
             (String.sub label 11 (String.length label - 11))
             parts workers)
    | Ir.Leaf _ | Ir.Unresolved _ -> ()
    | Ir.Exchange _ | Ir.Exchange_merge _ | Ir.Remote _ -> ()
    | Ir.Filter { input; _ }
    | Ir.Project_cols { input; _ }
    | Ir.Project_exprs { input; _ }
    | Ir.Sort { input; _ }
    | Ir.Aggregate { input; _ }
    | Ir.Distinct { input; _ }
    | Ir.Limit { input; _ }
    | Ir.Interchange { input; _ } ->
        check_slices (child_path path (Ir.label node)) workers input
    | Ir.Match { left; right; _ }
    | Ir.Cross { left; right }
    | Ir.Theta_join { left; right; _ }
    | Ir.Union_all { left; right } ->
        let path = child_path path (Ir.label node) in
        check_slices (child_path path "left") workers left;
        check_slices (child_path path "right") workers right
    | Ir.Division { dividend; divisor; _ } ->
        let path = child_path path (Ir.label node) in
        check_slices (child_path path "dividend") workers dividend;
        check_slices (child_path path "divisor") workers divisor
    | Ir.Choose { alternatives } ->
        let path = child_path path (Ir.label node) in
        List.iteri
          (fun i alt ->
            check_slices (child_path path (Printf.sprintf "alt%d" i)) workers
              alt)
          alternatives
  in
  let check_repartition path (cfg : Ir.cfg) ~consumers =
    match cfg.partition with
    | Ir.Round_robin -> ()
    | _ when consumers <= 1 ->
        (* One consumer: every spec degenerates to a merge; nothing
           crosses the wire beyond what round-robin would send. *)
        ()
    | Ir.Custom ->
        err path "remote-partition-placement"
          "a custom partition closure cannot cross the process boundary \
           of a repartitioning remote edge; use hash or range \
           partitioning, which ship as data"
    | Ir.Broadcast ->
        err path "remote-partition-placement"
          "broadcast is not expressible on a remote edge: routed frames \
           carry one destination per packet; replicate below the edge or \
           use a local exchange"
    | Ir.Range_on (_, bounds) ->
        if bounds + 1 <> consumers then
          err path "remote-partition-placement"
            (Printf.sprintf
               "range repartitioning with %d bounds splits into %d \
                partitions but the edge feeds %d consumers; bounds must \
                number consumers - 1"
               bounds (bounds + 1) consumers)
    | Ir.Hash_on [] ->
        warn path "remote-repartition-skew"
          "hash repartitioning on no columns routes every row to one \
           consumer — the rest of the group idles; name the key columns"
    | Ir.Hash_on cols ->
        if List.length (List.sort_uniq compare cols) <> List.length cols then
          warn path "remote-repartition-skew"
            "hash repartitioning lists a column more than once: the \
             duplicate adds no spread and usually means a typo in the key"
  in
  let check path (cfg : Ir.cfg) workers task =
    if workers < 1 then
      err path "remote-workers"
        (Printf.sprintf
           "a remote exchange needs at least one worker process, got %d"
           workers)
    else if cfg.degree <> workers then
      err path "remote-workers"
        (Printf.sprintf
           "config degree %d disagrees with the worker count %d: workers \
            shard by their count while the local port forks one feeder per \
            config degree, so records would be lost or feeders starve"
           cfg.degree workers);
    if task = "" then
      err path "remote-workers"
        "the task string is empty; workers cannot resolve the shipped \
         subtree";
    (match cfg.flow_slack with
    | None ->
        warn path "remote-flow-slack"
          "wire edge without flow slack: the local port buffers every frame \
           the feeders pull, so backpressure never reaches the kernel \
           socket buffer and a fast worker can run the consumer out of \
           memory; set flow_slack to bound the edge"
    | Some _ -> ());
    if batch_size = 0 then
      warn path "remote-wire-batch"
        "the vectorized batch path is disabled (batch_size = 0) while this \
         plan ships batches over sockets; workers materialize every record \
         individually before serialization — set a positive batch size"
  in
  (* [group] is the size of the process group a node executes in — the
     consumer count a Remote at that position feeds.  The root runs solo;
     an exchange's producer subtree runs [cfg.degree] wide; Interchange
     stays in the same group. *)
  let rec walk prefix ~group node =
    let path = child_path prefix (Ir.label node) in
    match node with
    | Ir.Leaf _ | Ir.Unresolved _ -> ()
    | Ir.Filter { input; _ }
    | Ir.Project_cols { input; _ }
    | Ir.Project_exprs { input; _ }
    | Ir.Sort { input; _ }
    | Ir.Aggregate { input; _ }
    | Ir.Distinct { input; _ }
    | Ir.Limit { input; _ }
    | Ir.Interchange { input; _ } ->
        walk path ~group input
    | Ir.Exchange { cfg; input } | Ir.Exchange_merge { cfg; input; _ } ->
        walk path ~group:cfg.degree input
    | Ir.Match { left; right; _ }
    | Ir.Cross { left; right }
    | Ir.Theta_join { left; right; _ }
    | Ir.Union_all { left; right } ->
        walk (child_path path "left") ~group left;
        walk (child_path path "right") ~group right
    | Ir.Division { dividend; divisor; _ } ->
        walk (child_path path "dividend") ~group dividend;
        walk (child_path path "divisor") ~group divisor
    | Ir.Choose { alternatives } ->
        List.iteri
          (fun i alt ->
            walk (child_path path (Printf.sprintf "alt%d" i)) ~group alt)
          alternatives
    | Ir.Remote { cfg; workers; task; input } ->
        check path cfg workers task;
        check_repartition path cfg ~consumers:group;
        check_slices path workers input;
        (* The subtree still walks in full: a nested Remote below an
           exchange boundary is checked against its own group. *)
        walk path ~group:1 input
  in
  walk "" ~group:1 root;
  List.rev !diags

let analyze ?max_domains ?frames ?(workers = 0) ?oversub ?flow_budget
    ?batch_size root =
  Diag.sort
    (schema_pass root @ exchange_pass root @ deadlock_pass root
    @ resource_pass ?max_domains ?frames root
    @ sched_pass ?oversub ~workers root
    @ memory_pass ?flow_budget root
    @ batch_pass ?batch_size root
    @ remote_pass ?batch_size root)
