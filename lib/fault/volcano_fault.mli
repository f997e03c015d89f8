(** Fault injection.

    A {e fault plan} is a seedable, fully deterministic description of
    failures to inject at named {e sites} inside the engine: device I/O
    errors and latency, buffer-pool fix denial, packet-port send/receive
    delays, and producer-side exceptions at the Nth record.  The plan is
    compiled into an {!Injector.t} that the storage and exchange layers
    consult at each site ({!Injector.hit}); an injector built from the
    empty plan ({!Injector.none}) is free.

    Decisions are pure functions of [(plan seed, rule index, hit number)],
    so a failure observed under a given [(plan, fault-plan)] seed pair in
    the chaos harness reproduces from the printed seeds alone. *)

type site =
  | Device_read  (** before a page read transfers *)
  | Device_write  (** before a page write transfers *)
  | Bufpool_fix  (** before a fix/fix_new touches pool state (fix denial) *)
  | Port_send  (** before a packet is inserted into a port *)
  | Port_receive  (** before a consumer blocks on a port queue *)
  | Producer of int
      (** in the exchange producer of this rank, once per record *)
  | Operator  (** once per [next] call of every compiled operator *)
  | Sched_task  (** at the start of a scheduled producer task *)
  | Sched_park
      (** before a blocked port wait suspends: a pool fiber yields its
          worker, any other caller blocks on its gate *)
  | Net_connect  (** before a transport connection is established *)
  | Net_read  (** before a frame read transfers from the socket *)
  | Net_write  (** before a frame write transfers to the socket *)
  | Net_frame  (** after a frame header is read (truncates the payload) *)

val site_name : site -> string

type action =
  | Fail  (** raise {!Injected} at the site *)
  | Delay of float  (** sleep this many seconds at the site *)

type trigger =
  | At_hit of int  (** fire on exactly the Nth hit of the rule's site *)
  | With_prob of float  (** fire each hit with this probability *)

type rule = { site : site; trigger : trigger; action : action }
type plan = { seed : int64; rules : rule list }

exception Injected of { site : site; hit : int }
(** The injected failure: [site] is where it fired, [hit] is the matching
    rule's hit count at that moment. *)

val no_plan : plan
(** The empty plan (no rules; injects nothing). *)

val plan_to_string : plan -> string
(** Human-readable plan, printed by the chaos harness for reproduction. *)

val random_plan : seed:int64 -> plan
(** Deterministic random plan for the chaos harness: 1-4 rules over all
    sites, mixing one-shot counted failures, low-probability failures, and
    sub-millisecond delays. *)

module Injector : sig
  type t

  val none : t
  (** Injects nothing; site consultations are a single list check. *)

  val make : plan -> t
  val is_none : t -> bool

  val hit : t -> site -> unit
  (** Consult the injector at a site: count the hit against every matching
      rule, sleep on a fired [Delay], raise {!Injected} on a fired [Fail]. *)

  val fired : t -> int
  (** Number of [Fail] actions raised so far. *)

  val hits : t -> int
  (** Total site consultations that matched at least one rule. *)
end
