(** The network substrate: unicast and multicast packet delivery.

    The network is parametric in the transport PDU type ['m], so the
    transport system above it defines its own headers while the network
    charges realistic wire costs: per-hop queueing, serialization at the
    congestion-scaled rate, propagation, queue-overflow loss and bit-error
    corruption.  Oversized packets (beyond the path MTU) are dropped and
    counted — segmentation is the transport's job, sized during MANTTS
    negotiation.

    Multicast replicates at branch points: each physical link on the
    union of the receivers' routes carries the packet {e once}, which is
    exactly the resource the paper's reliable-multicast configuration
    exploits against an N-unicast baseline. *)

open Adaptive_sim
open Adaptive_buf

type addr = Topology.addr
(** Host address. *)

type 'm recv = {
  payload : 'm;  (** The PDU as sent. *)
  src : addr;  (** Sender address. *)
  dst : addr;  (** This receiver's address. *)
  wire_bytes : int;  (** Size charged on the wire. *)
  sent_at : Time.t;  (** When the sender injected the packet. *)
  received_at : Time.t;  (** Delivery time at this receiver. *)
  corrupted : bool;  (** A bit error occurred on some hop; whether anyone
                         notices is up to the error-detection mechanism. *)
}
(** Delivery record handed to a host's receive handler. *)

type 'm t
(** A network carrying PDUs of type ['m]. *)

val create : Engine.t -> rng:Rng.t -> Topology.t -> 'm t
(** Build a network over a topology, drawing loss/corruption randomness
    from [rng] and scheduling deliveries on the engine. *)

val engine : 'm t -> Engine.t
(** The engine deliveries are scheduled on. *)

val topology : 'm t -> Topology.t
(** The underlying topology. *)

val fresh_conn_id : 'm t -> int
(** Allocate the next connection id (1, 2, …) in this network's
    namespace.  Per-network — not process-global — so a freshly built
    stack always numbers its connections (and therefore its UNITES
    session reports) identically, however many stacks ran before it or
    run beside it on other domains.  Under a {!set_conn_stripe}
    configuration the ids are [offset + 1, stride + offset + 1, …]. *)

val set_conn_stripe : 'm t -> stride:int -> offset:int -> unit
(** Stripe this network's connection ids: the k-th allocation returns
    [(k-1) * stride + offset + 1].  Partitioned churn runs give
    partition [p] of [P] the stripe [~stride:P ~offset:p], so ids are
    globally unique and a cross-partition session never collides with a
    local one at the remote dispatcher.  Must be called before any id is
    allocated; [stride >= 1], [0 <= offset < stride]
    ([Invalid_argument] otherwise). *)

val attach : 'm t -> addr -> ('m recv -> unit) -> unit
(** Register the receive handler for a host (replacing any previous
    one). *)

val send : 'm t -> src:addr -> dst:addr -> bytes:int -> 'm -> unit
(** Inject a [bytes]-byte packet now.  Delivery (or silent loss) follows
    from the route's link models.  No route or an oversized packet counts
    as a drop; a packet to a host with no handler is discarded. *)

val multicast : 'm t -> src:addr -> dsts:addr list -> bytes:int -> 'm -> unit
(** Inject one packet toward every destination, paying each shared link
    once (replication happens where routes diverge). *)

(** {2 Remote delivery (partitioned simulations)}

    A domain-sharded simulation runs one network per partition; packets
    between partitions leave through a {e remote-delivery hook} and
    re-enter through {!deliver_remote}.  The shard coordinator owns
    everything in between — the cross-partition latency model and the
    conservative synchronization that keeps event order deterministic. *)

val set_remote :
  'm t -> (src:addr -> dst:addr -> bytes:int -> 'm -> unit) -> unit
(** Install the hand-over hook: packets whose destination has no local
    route are passed to it (synchronously, at injection time) instead of
    counting as [dropped_no_route].  Incompatible with wire-true mode —
    a frame lease cannot cross a domain boundary — so installing both
    raises [Invalid_argument]. *)

val deliver_remote :
  'm t -> src:addr -> dst:addr -> bytes:int -> sent_at:Time.t -> 'm -> unit
(** Deliver a packet that crossed a remote path: invokes [dst]'s handler
    immediately, at the engine's current time (the caller schedules this
    at the modeled arrival time).  Unknown destinations are dropped
    silently, like a local host with no handler. *)

type stats = {
  sent : int;  (** Packets injected (multicast counts once). *)
  delivered : int;  (** Deliveries executed (per receiver). *)
  dropped_queue : int;  (** Lost to queue overflow. *)
  dropped_down : int;  (** Lost to failed links. *)
  dropped_no_route : int;  (** No route to destination. *)
  dropped_mtu : int;  (** Exceeded path MTU. *)
  corrupted : int;  (** Delivered with bit errors. *)
  bytes_sent : int;  (** Total bytes injected. *)
}
(** Network-wide counters. *)

val stats : 'm t -> stats
(** Read the counters. *)

type hop_state = {
  link_name : string;
  bandwidth : float;  (** Raw channel speed, bits/s. *)
  utilization : float;  (** Estimated total load in [\[0,1\]]. *)
  cross_traffic : float;  (** Background (cross-traffic) share of the
                              load — the congestion signal reconfiguration
                              policies react to, as opposed to the
                              session's own queueing. *)
  queue_delay : Time.t;  (** Current queueing delay estimate. *)
  hop_ber : float;  (** Bit-error rate. *)
  hop_mtu : int;  (** MTU in bytes. *)
  up : bool;  (** Link is forwarding. *)
}
(** Snapshot of one hop, as sampled by the MANTTS network monitor. *)

val path_state : 'm t -> src:addr -> dst:addr -> hop_state list
(** Per-hop snapshot of the current route ([[]] when unrouted). *)

val rtt_estimate : 'm t -> src:addr -> dst:addr -> bytes:int -> Time.t option
(** Crude round-trip estimate for a [bytes]-byte packet and an equal-size
    reply on the reverse route, ignoring queueing.  Used to seed
    retransmission timers before any measurement exists. *)

(** {2 Wire-true mode}

    Opt-in: PDUs cross the network as real bytes.  Each injection is
    serialized once into a leased pool buffer, the frame is threaded
    through every {!Link.transmit} on the route, and each receiver
    decodes its copy at delivery — after which the lease reference is
    dropped and the buffer returns to the pool (multicast holds one
    reference per pending delivery).  The hooks keep the network
    parametric in ['m]: the transport supplies the codec.

    Corruption becomes physical: a corrupted arrival has one real bit
    flipped in that receiver's copy of the frame, and the codec's
    checksum — not a simulation flag — decides detection.  A single-bit
    error is always caught by the Internet checksum, so corrupted frames
    are rejected (counted, never delivered).  On a lossless route the
    hooks perform no extra random draws and add zero simulated time, so
    wire-true and value-mode runs produce identical traces. *)

val set_wire :
  'm t ->
  encode:('m -> int -> Pool.lease) ->
  decode:(Bytes.t -> int -> int -> 'm option) ->
  release:(Pool.lease -> unit) ->
  unit
(** [set_wire t ~encode ~decode ~release] switches [t] to wire-true
    mode.  [encode pdu bytes] must serialize into a lease holding exactly
    [bytes] bytes; [decode buf off len] parses a frame (returning [None]
    to reject it); [release] drops one lease reference.  Decoded payloads
    must not alias the frame past the delivery callback — detach them. *)

type wire_stats = {
  wire_encoded : int;  (** Frames serialized (one per injection). *)
  wire_decoded : int;  (** Frames successfully decoded at delivery. *)
  wire_rejected : int;  (** Frames rejected by the codec (corruption). *)
}

val wire_stats : 'm t -> wire_stats option
(** Wire-mode counters, [None] when value mode. *)
