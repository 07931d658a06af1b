(** Host processing cost model.

    §2.2(A)'s throughput-preservation problem: transport system overhead
    — memory-to-memory copies, per-packet interrupt and context-switch
    work — consumes a serial CPU whose speed does not scale with the
    network.  Each host owns one such CPU; every packet passing through
    the transport system occupies it for
    [per_packet + copies * bytes * per_byte_copy (+ extra)].  Packets
    queue behind one another on the CPU exactly as they queue on a link,
    producing the delivered-throughput plateau the paper describes. *)

open Adaptive_sim

type t
(** One host CPU. *)

val create :
  ?per_packet:Time.t ->
  ?per_byte_copy:Time.t ->
  ?copies:int ->
  ?speed:float ->
  Engine.t ->
  t
(** [create engine] models a host.  Defaults are 1992-class: 100 us fixed
    per-packet cost (interrupt, context switch, protocol control),
    25 ns per byte per copy (a ~40 MB/s memory system) and 2 copies per
    packet traversal (user/kernel and kernel/interface).  [speed]
    (default 1.0) divides every packet's total CPU cost — the fixed and
    copy components, the caller's [extra] work and fault stalls alike —
    for experiments where one endpoint stands for a population of hosts.
    Pre-scaling [per_packet] alone is not equivalent: the per-byte
    [extra] charges (checksum verification) would remain an unscaled
    floor and become the binding constraint at scale. *)

val zero_cost : Engine.t -> t
(** An infinitely fast host: packets pass through for free (isolates
    network behaviour in experiments that do not study host overhead). *)

val process : t -> bytes:int -> ?extra:Time.t -> ?expedited:bool -> unit -> Time.t
(** Occupy the CPU for one packet of [bytes] bytes (plus [extra] work,
    e.g. checksum computation); returns the completion time, [>= now].
    Bulk work (the default) is serialized behind everything already
    queued.  [expedited] work models priority scheduling: it queues only
    behind other expedited work, jumping the bulk backlog (a preemption
    approximation: an expedited burst and a bulk burst may overlap
    rather than strictly share the CPU). *)

val set_stall : t -> Time.t -> unit
(** Add a fixed surcharge to every packet's CPU cost — the fault
    injector's host-stall (GC-pause analog).  Clamped to [>= 0]; set back
    to {!Adaptive_sim.Time.zero} to heal. *)

val busy_until : t -> Time.t
(** When the CPU becomes free. *)

val total_busy : t -> Time.t
(** Accumulated busy time (for utilization reports). *)

val packets : t -> int
(** Packets processed. *)
