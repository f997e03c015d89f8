module Shard = Volcano_storage.Shard
module Support = Volcano_tuple.Support
module Serial = Volcano_tuple.Serial

(* Interpret a wire-safe partition spec as a tuple router.  Both sides of
   a repartitioning edge reduce to the same [Support.Partition] functions
   a local exchange instantiates, so a remote hash edge routes a key to
   exactly the consumer the in-process edge would. *)

let decode_bound encoded = (Serial.decode_bytes (Bytes.of_string encoded)).(0)

let route spec ~dests =
  match spec with
  | Shard.Hash cols -> Support.Partition.hash ~consumers:dests ~on:cols ()
  | Shard.Range (col, bounds) ->
      Support.Partition.range ~consumers:dests ~on:col
        ~bounds:(Array.map decode_bound bounds) ()

(* Lower an exchange partition spec to its wire form.  [Round_robin] is
   the merge edge (no repartition frame at all), so callers filter it out
   before asking; [Custom] closures and [Broadcast] replication cannot
   cross the process boundary — planlint VL704 rejects such plans, and
   this guard keeps a launcher honest if analysis was bypassed. *)
let of_partition_spec spec ~dests =
  match (spec : Volcano.Exchange.partition_spec) with
  | Volcano.Exchange.Hash_on cols -> { Wire.dests; spec = Shard.Hash cols }
  | Volcano.Exchange.Range_on (col, bounds) ->
      {
        Wire.dests;
        spec =
          Shard.Range
            ( col,
              Array.map (fun v -> Serial.encode_string [| v |]) bounds );
      }
  | Volcano.Exchange.Round_robin ->
      invalid_arg "Repart.of_partition_spec: round-robin is a merge edge"
  | Volcano.Exchange.Custom _ ->
      invalid_arg
        "Repart.of_partition_spec: a custom partition closure cannot cross \
         the process boundary"
  | Volcano.Exchange.Broadcast ->
      invalid_arg
        "Repart.of_partition_spec: broadcast is not expressible on a remote \
         edge"
