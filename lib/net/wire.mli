(** Length-prefixed framing for the network lanes.

    Every message on a socket — data-plane packets between worker and
    consumer, control-plane requests between client and server — is one
    frame: a 4-byte little-endian payload length, a 1-byte kind, then the
    payload.  A dropped connection mid-frame surfaces as [End_of_file]
    from the short read; a malformed header raises {!Corrupt}. *)

type kind =
  | Hello  (** parent → worker: task assignment (see {!hello}) *)
  | Data  (** worker → parent: one packet of records ({!Codec}) *)
  | Eos  (** worker → parent: clean end of the worker's stream *)
  | Err  (** worker → parent: the worker's failure, site + message *)
  | Cancel  (** parent → worker: stop early (best effort) *)
  | Request  (** client → server: a task string to run *)
  | Resp_ok  (** server → client: result rows *)
  | Resp_err  (** server → client: query failure, site + message *)
  | Shutdown  (** client → server: stop serving *)
  | Repartition
      (** parent → worker: the partition function for a repartitioning
          edge (the frame after a flagged {!hello}); worker → parent: one
          routed packet, [u16 dest | packet bytes] *)
  | Narrow
      (** parent → worker: the columns the edge's consumer reads (see
          {!narrow}), sent once on every remote edge, after the [Hello]
          and any [Repartition] *)

exception Corrupt of string
(** A frame that cannot be parsed (bad kind, absurd length, truncated
    payload structure) — distinct from [End_of_file], which is a
    connection dropped between or inside frames. *)

val max_frame : int

val ignore_sigpipe : unit -> unit
(** Set this process to see a torn peer as [EPIPE] from the write rather
    than dying of SIGPIPE.  Idempotent; every endpoint (worker, launcher,
    server, client) calls it before its first write. *)

(** {2 Connections}

    A connection owns one growable input buffer and one growable output
    buffer, so a stream of frames allocates nothing per frame once the
    buffers have reached the largest frame seen.  Ownership rule: the
    payload of a {!read} is a view of the connection's input buffer,
    valid until the next {!read} on the same connection — decode it (or
    copy it out) before reading again.  Bytes past the payload's length
    are stale, left over from earlier, longer frames. *)

type conn

val conn : ?faults:Volcano_fault.Injector.t -> Unix.file_descr -> conn
(** Wrap a connected socket.  [faults] is consulted at [Net_read] (before
    each header), [Net_frame] (between a header and its payload — the
    truncated-frame site) and [Net_write] (before each frame is sent).
    The socket may be blocking or non-blocking: on a non-blocking one a
    read or write that would block waits in
    {!Volcano_sched.Sched.wait_fd} and resumes where it stopped, so a pool
    fiber waiting on a half-arrived frame holds no worker. *)

val fd : conn -> Unix.file_descr

val read : conn -> kind * int
(** Read one frame; waits until it is fully read.  Returns its kind and
    payload length; the payload is bytes [\[0, len)] of {!payload}.  A
    read may take bytes of the frames after it, which the next reads
    through the same [conn] return.
    @raise End_of_file on a dropped connection
    @raise Corrupt on an unparseable header *)

val payload : conn -> bytes
(** The input buffer holding the last {!read}'s payload from byte 0.  Its
    length is the buffer's, not the payload's. *)

val header_size : int
(** A frame's payload starts at this offset of the output buffer. *)

val grow : bytes -> int -> bytes
(** [grow buf n] is [buf] when it holds at least [n] bytes, else a buffer
    of at least [max n (2 * length buf)] bytes that starts with [buf]'s
    bytes. *)

val reserve : conn -> int -> bytes
(** [reserve c n]: the output buffer, grown ({!grow}) to at least [n]
    bytes, header included.  An encoder writes a payload from
    {!header_size}, reserving as it goes, then hands it to {!send}. *)

val send : conn -> kind -> len:int -> unit
(** The one frame writer: fill in the header and write the frame whose
    [len]-byte payload sits at {!header_size} of the output buffer —
    header and payload in one write call.  Waits until fully written.
    @raise Corrupt on a payload longer than {!max_frame} *)

val write : conn -> kind -> bytes -> unit
(** {!send} a payload built elsewhere (a control frame): it is copied into
    the output buffer behind the header. *)

val frame_ready : conn -> bool
(** Non-blocking: is at least one byte readable right now, read ahead
    or on the descriptor?  Workers poll
    this between packet writes to notice a [Cancel] frame. *)

(** {2 Payloads} *)

type hello = {
  task : string;
  shard : int;
  shards : int;
  packet_size : int;
  repartition : bool;
      (** a {!type-repartition} frame follows the Hello, and the worker
          must answer with routed packets instead of mergeable [Data] *)
}

val hello :
  ?repartition:bool ->
  task:string ->
  shard:int ->
  shards:int ->
  packet_size:int ->
  unit ->
  bytes

val parse_hello : bytes -> hello
(** @raise Corrupt on truncation, trailing bytes, or [shard >= shards] *)

val err : site:string -> message:string -> bytes
(** [site] is a failure-site name exactly as {!Volcano.Exchange.Query_failed}
    carries it; it crosses the wire verbatim. *)

val parse_err : bytes -> string * string
(** [(site, message)].
    @raise Corrupt on truncation *)

type repartition = { dests : int; spec : Volcano_storage.Shard.spec }
(** The partition function a repartitioning edge ships to its workers:
    downstream consumer count plus the catalog's wire-safe spec (hash
    columns, or a range column with Serial-encoded bounds).  Custom
    partition closures cannot cross the process boundary — planlint VL704
    rejects such plans before a launcher is asked to encode one. *)

val repartition : repartition -> bytes

val parse_repartition : bytes -> repartition
(** Total: a spec it accepts routes ([Repart.route]) every record wide
    enough for its columns without raising.
    @raise Corrupt on a zero destination count, an unknown spec tag, a
    hash on no columns, a range whose bound count is not [dests - 1], a
    bound that is not exactly one {!Volcano_tuple.Serial}-encoded value,
    truncation, or trailing bytes *)

val narrow : int list option -> bytes
(** The read set of a remote edge: [Some cols] ships column [List.nth
    cols k] of each record as column [k] (an empty list ships zero-column
    records); [None] ships every column.
    @raise Invalid_argument on a column outside [\[0, 65535\]] *)

val parse_narrow : bytes -> int list option
(** @raise Corrupt on an unknown tag, truncation or trailing bytes *)
