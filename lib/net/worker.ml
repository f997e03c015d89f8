module Packet = Volcano.Packet
module Exchange = Volcano.Exchange

(* The worker half of remote exchange: connect back to the parent,
   receive a shard assignment, resolve it to a record stream, and pump
   serialized packets until end of stream, cancellation, or failure.

   The worker is intentionally dumb about plans: [resolve] maps the
   opaque task string (plus this worker's shard) to an unopened stream,
   a function of the edge's read set, so the vocabulary of tasks lives
   with whoever owns both sides of the socket (the CLI, the test
   harness), and no closures ever cross the process boundary.

   Two stream modes, chosen by the parent's Hello: a merge edge sends
   [Data] frames (any consumer may take any packet), while a
   repartitioning edge applies the partition function the parent shipped
   in a [Repartition] frame and sends routed packets — one open shell per
   destination, each flushed as [u16 dest | packet bytes].

   Either way the parent then sends the edge's read set in a [Narrow]
   frame, read only once the task is resolved so the site's load
   overlaps the parent's set-up.  The stream opens with it: a plan
   stream ({!Volcano_plan.Remote.shard_pull}) compiles the projection
   into its scan, so the site decodes only the columns it ships, and
   the worker routes and encodes the records as they come. *)

type pull = unit -> Volcano_tuple.Tuple.t option

let failure_site = function
  | Exchange.Query_failed { site; origin } ->
      (site, Printexc.to_string origin)
  | Volcano_fault.Injected { site; _ } as exn ->
      (Volcano_fault.site_name site, Printexc.to_string exn)
  | exn -> ("net-worker", Printexc.to_string exn)

let cancelled conn =
  Wire.frame_ready conn
  &&
  match Wire.read conn with
  | Wire.Cancel, _ -> true
  | _ -> false
  | exception _ -> true

(* The worker address vocabulary, shared with {!Launcher}: a plain
   string is a Unix-domain socket path; "tcp:HOST:PORT" dials the TCP
   lane (with Nagle off — the stream is already batched into frames, so
   delaying a flushed packet buys nothing). *)
let tcp_prefix = "tcp:"

let is_tcp address =
  String.length address > String.length tcp_prefix
  && String.sub address 0 (String.length tcp_prefix) = tcp_prefix

let connect address =
  let domain, sockaddr =
    if is_tcp address then begin
      let rest =
        String.sub address (String.length tcp_prefix)
          (String.length address - String.length tcp_prefix)
      in
      match String.rindex_opt rest ':' with
      | None -> invalid_arg ("Worker.connect: bad tcp address " ^ address)
      | Some i ->
          let host = String.sub rest 0 i in
          let port =
            match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
            | Some p when p > 0 && p < 65536 -> p
            | Some _ | None ->
                invalid_arg ("Worker.connect: bad tcp port in " ^ address)
          in
          (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    end
    else (Unix.PF_UNIX, Unix.ADDR_UNIX address)
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (* conclint: allow CL003 -- the worker process's main thread is a
     dedicated transport context; there is no pool here at all. *)
  (try Unix.connect fd sockaddr
   with exn ->
     (try Unix.close fd with _ -> ());
     raise exn);
  if domain = Unix.PF_INET then (
    try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  fd

(* The one pump of both stream modes: one open shell per destination,
   [route] picks a record's shell, and [write] sends a non-empty shell as
   one frame.  A full shell flushes at once; at end of stream every shell
   flushes, so a key that hashed to a lone row still arrives. *)
let pump conn ~packet_size ~shard repartition next =
  let dests, route, write =
    match repartition with
    | None ->
        (* Merge mode: one shell, flushed as mergeable [Data] frames. *)
        (1, (fun _ -> 0), fun _ shell -> Codec.send conn shell)
    | Some { Wire.dests; spec } ->
        (* Repartition mode: one shell per destination, each flushed as a
           routed frame [u16 dest | packet bytes].  [route] answers in
           [0, dests); the parent still rejects a frame routed past its
           last consumer. *)
        ( dests,
          Repart.route spec ~dests,
          fun dest shell -> Codec.send conn ~dest shell )
  in
  let shells =
    Array.init dests (fun _ -> Packet.create ~capacity:packet_size ~producer:shard)
  in
  let flush dest =
    let shell = shells.(dest) in
    if not (Packet.is_empty shell) then begin
      write dest shell;
      Packet.reset shell
    end
  in
  let rec loop () =
    match next () with
    | None -> Array.iteri (fun dest _ -> flush dest) shells
    | Some tuple ->
        let dest = route tuple in
        let shell = shells.(dest) in
        Packet.add shell tuple;
        if Packet.is_full shell then begin
          (* Between packets is the cancellation point: a Cancel frame
             (or a torn-down connection) stops the stream without
             waiting for the shard to drain. *)
          if cancelled conn then raise Exit;
          flush dest
        end;
        loop ()
  in
  loop ()

(* A worker serves one assignment after another on its one connection:
   after a clean [Eos] it waits for the next [Hello], which names its
   own task, shard and edge.  It keeps the last assignment it resolved —
   its [(task, shard, shards)] and the opener [resolve] returned — so a
   Hello naming the same triple reopens the kept opener with the new
   read set instead of loading again; any other Hello drops it before
   resolving, so a site never holds two loads.  The packet size and the
   edge always come from the Hello's own frames.  Any other end — end of
   file, [Cancel], a reported [Err], [EPIPE] — closes the connection,
   and the process exits. *)
let run ~socket ~resolve =
  (* A parent that cancelled us closes its end; a write must then raise
     EPIPE (caught below as a clean exit), not kill the process with
     SIGPIPE before the handler can reason about it. *)
  Wire.ignore_sigpipe ();
  let fd = connect socket in
  let conn = Wire.conn fd in
  let report exn =
    let site, message = failure_site exn in
    try Wire.write conn Wire.Err (Wire.err ~site ~message) with _ -> ()
  in
  (* Control payloads are parsed from a copy: the input buffer is reused
     by the next read. *)
  let control len = Bytes.sub (Wire.payload conn) 0 len in
  (* [true] when the stream ended in a delivered [Eos]: the connection
     is then free for the next Hello. *)
  let stream ~packet_size ~shard repartition next =
    match pump conn ~packet_size ~shard repartition next with
    | () -> (
        match Wire.write conn Wire.Eos Bytes.empty with
        | () -> true
        | exception _ -> false)
    | exception Exit -> false
    | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* The parent went away mid-stream: that is a cancellation from
           our perspective, not a failure to report. *)
        false
    | exception exn ->
        report exn;
        false
  in
  let kept = ref None in
  let opener ~task ~shard ~shards =
    match !kept with
    | Some (key, open_) when key = (task, shard, shards) -> open_
    | _ ->
        kept := None;
        let open_ = resolve ~task ~shard ~shards in
        kept := Some ((task, shard, shards), open_);
        open_
  in
  (* One assignment, from its Hello's payload on; [true] to serve the
     next one. *)
  let assignment len =
    match
      let { Wire.task; shard; shards; packet_size; repartition } =
        Wire.parse_hello (control len)
      in
      let repartition =
        if not repartition then None
        else
          match Wire.read conn with
          | Wire.Repartition, len -> Some (Wire.parse_repartition (control len))
          | _ -> raise (Wire.Corrupt "expected a Repartition frame")
      in
      (packet_size, shard, repartition, opener ~task ~shard ~shards)
    with
    | exception exn ->
        (* Take the parent's read set off the socket before closing it:
           on TCP, closing with unread bytes resets the connection, and
           the reset can overtake the Err frame.  The parent sends it
           on its first pull, or closes when it walks away first. *)
        report exn;
        (try ignore (Wire.read conn) with _ -> ());
        false
    | packet_size, shard, repartition, open_ -> (
        match
          match Wire.read conn with
          | Wire.Narrow, len -> Some (open_ (Wire.parse_narrow (control len)))
          | Wire.Cancel, _ -> None
          | _ -> raise (Wire.Corrupt "expected a Narrow frame")
          | exception End_of_file -> None
        with
        | exception exn ->
            report exn;
            false
        | None ->
            (* cancelled, or the parent went away, before the stream
               began *)
            false
        | Some next -> stream ~packet_size ~shard repartition next)
  in
  let rec serve () =
    match Wire.read conn with
    | Wire.Hello, len -> if assignment len then serve ()
    | _ -> ()
    | exception _ -> ()
  in
  serve ();
  try Unix.close fd with _ -> ()
