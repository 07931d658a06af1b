(** One network hop: a channel plus the output queue feeding it.

    A link models the four network factors §2.1 names — channel speed,
    propagation delay, bit-error rate and congestion at the switching node
    driving the link.  Transmission uses a fluid FIFO model: the link is
    busy until the previously accepted packet finishes serializing; a new
    packet waits (queueing delay), and is dropped when the wait would
    exceed the queue's capacity.  Background utilization models cross
    traffic: it scales down the bandwidth available to foreground packets
    and adds congestive loss as utilization approaches saturation. *)

open Adaptive_sim

type t
(** A link with mutable transmission state. *)

val create :
  ?name:string ->
  bandwidth_bps:float ->
  propagation:Time.t ->
  ?queue_pkts:int ->
  ?ber:float ->
  ?mtu:int ->
  unit ->
  t
(** [create ~bandwidth_bps ~propagation ()] makes a link.  [queue_pkts]
    (default 64) bounds the output queue; [ber] (default 0) is the
    bit-error rate; [mtu] (default 65535) the maximum transmission unit in
    bytes. *)

val name : t -> string
(** Identifier for reports. *)

val bandwidth_bps : t -> float
(** Raw channel speed. *)

val propagation : t -> Time.t
(** One-way propagation delay. *)

val mtu : t -> int
(** Maximum transmission unit, bytes. *)

val ber : t -> float
(** Bit-error rate. *)

val queue_capacity : t -> int
(** Output queue bound, packets. *)

val set_background_utilization : t -> float -> unit
(** Set the fraction of the channel consumed by cross traffic, clamped to
    [\[0, 0.98\]]. *)

val background_utilization : t -> float
(** Current cross-traffic load. *)

val fail : t -> unit
(** Take the link down: every subsequent transmission is dropped. *)

val repair : t -> unit
(** Bring a failed link back up. *)

val is_up : t -> bool
(** Whether the link currently forwards traffic. *)

val set_ber : t -> float -> unit
(** Override the bit-error rate (clamped to [>= 0]); fault injection uses
    this for BER bursts. *)

val set_mtu : t -> int -> unit
(** Override the MTU; fault injection uses this for path-MTU shrinks.
    Raises [Invalid_argument] when non-positive. *)

type verdict =
  | Transmitted of { departs : Time.t; corrupted : bool }
      (** The packet leaves the far end of this hop at [departs];
          [corrupted] reports a bit error somewhere in the packet. *)
  | Dropped_queue  (** Output queue overflow (congestive loss). *)
  | Dropped_down  (** The link is failed. *)

val transmit :
  t ->
  ?frame:Bytes.t * int * int ->
  rng:Rng.t ->
  now:Time.t ->
  arrival:Time.t ->
  bytes:int ->
  unit ->
  verdict
(** [transmit link ~rng ~now ~arrival ~bytes ()] offers a packet of [bytes]
    bytes to the link; [arrival] is when the packet reaches this hop
    ([>= now]).  Queueing, serialization at the congestion-scaled rate,
    propagation and loss are applied; statistics are updated.

    In wire-true mode the caller threads the physical frame through the
    hop as [?frame:(buf, off, len)].  The link checks the wire-true
    invariant — the byte image is exactly the [bytes] the simulator
    accounts for (raising [Invalid_argument] on drift).  Corruption stays
    a verdict flag here; the network applies it to each receiver's copy
    of the frame, because multicast replicates frames at branch points
    downstream of the hop. *)

val utilization_estimate : t -> now:Time.t -> float
(** Foreground + background utilization estimate in [\[0,1\]]; the signal
    the MANTTS network monitor samples. *)

val queue_delay_estimate : t -> now:Time.t -> Time.t
(** Current wait a newly arriving packet would incur. *)

type stats = {
  accepted : int;
  dropped_queue : int;
  dropped_down : int;
  corrupted : int;
  bytes_carried : int;
}
(** Cumulative per-link counters. *)

val stats : t -> stats
(** Read the counters. *)

val generation : t -> int
(** Configuration generation of this link: bumped by every mutation of a
    parameter that feeds path characterization (BER, MTU, up/down, cross
    traffic).  {!Topology.generation} folds it into a per-topology
    generation. *)
