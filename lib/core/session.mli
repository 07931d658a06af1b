(** Transport session endpoints — the protocol interpreter.

    A {!t} is one end of a configured transport session: the executable
    object that MANTTS Stage III produces.  It interprets the mechanism
    bindings in its {!Tko.context} over incoming and outgoing PDUs:
    segmentation, window/rate transmission control, the discards, acks
    and NACKs its {!Adaptive_mech.Reporting} mechanism asks for, the
    retransmissions and parity PDUs its {!Adaptive_mech.Recovery}
    mechanism asks for, sequencing,
    duplicate suppression, playout-point delivery, the PDUs of
    connection handshakes and graceful release (whose state machine is
    the context's {!Adaptive_mech.Connection} mechanism), and the
    out-of-band signaling channel used for renegotiation.

    Endpoints at one host share a {!Dispatcher} — the [TKO_Protocol]
    analog — which demultiplexes arriving PDUs to sessions by connection
    identifier and consults an acceptor (the passive-open path of the
    remote MANTTS entity) for connection requests.  All per-PDU host CPU
    costs are charged to the dispatcher's {!Adaptive_mech.Host.t}. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_net
open Adaptive_mech

type t
(** A session endpoint. *)

type state = Connection.state = Opening | Established | Closing | Closed

type delivery = {
  seq : int;  (** Segment sequence number. *)
  bytes : int;  (** Payload bytes. *)
  app_stamp : Time.t;  (** Sender application timestamp. *)
  delivered_at : Time.t;  (** Delivery time at this application. *)
  damaged : bool;  (** Bit errors passed undetected to the
                       application (no-detection configurations). *)
  payload : Msg.t option;
      (** The actual bytes, when the sender supplied them.  Damaged
          deliveries carry genuinely damaged bytes. *)
}
(** One segment handed to the receiving application. *)

(** Per-host PDU demultiplexer and passive-open handler. *)
module Dispatcher : sig
  type dispatcher

  type accept_decision =
    | Accept of {
        scs : Scs.t;  (** Final configuration (possibly a
                          counter-proposal to the caller's). *)
        name : string;  (** Label for UNITES reports. *)
        on_deliver : (t -> delivery -> unit) option;
      }
    | Reject

  val create :
    Pdu.t Network.t -> addr:Network.addr -> host:Host.t -> unites:Unites.t ->
    dispatcher
  (** Attach a dispatcher to its host address on the network. *)

  val addr : dispatcher -> Network.addr
  val host : dispatcher -> Host.t
  val network : dispatcher -> Pdu.t Network.t

  val set_acceptor :
    dispatcher ->
    (src:Network.addr -> conn:int -> proposal:Scs.t option -> accept_decision) ->
    unit
  (** Install the passive-open policy.  [proposal = None] marks an orphan
      data PDU whose connection request was lost — the acceptor may still
      accept with a default configuration (§4.1.1's "reasonable values
      for default configurations"). *)

  val set_delivery_tap : dispatcher -> (t -> delivery -> unit) -> unit
  (** Install an observer invoked on {e every} application delivery at
      this host, just before the endpoint's own [on_deliver] callback.
      The chaos invariant monitors use this to check ordering,
      exactly-once and corruption-detection properties without touching
      application wiring. *)

  val set_on_close : dispatcher -> (t -> unit) -> unit
  (** Install an observer invoked exactly once per endpoint when it
      leaves the live set, whatever the teardown path (local close, peer
      [Fin], setup give-up).  MANTTS retires its policy monitor here
      instead of sweeping the whole monitor population every tick. *)

  val committed_recv_segments : dispatcher -> int
  (** Sum of every live endpoint's negotiated [recv_buffer_segments],
      maintained incrementally (insert, segue, close) so admission
      policies can read the host's outstanding receive commitment in
      O(1) rather than folding the connection table per accept. *)

  val session_count : dispatcher -> int
  (** Live (half-open + open) entries in the connection table. *)

  val half_open_count : dispatcher -> int
  (** Initiators still awaiting their connection answer. *)

  val time_wait_count : dispatcher -> int
  (** Closed connection ids still quarantined against late segments. *)

  val table_capacity : dispatcher -> int
  (** Current connection-table capacity (a power of two). *)

  val tw_sweep_stats : dispatcher -> int * int
  (** [(sweeps, expired)] — cumulative coalesced time-wait sweeper
      firings and entries they expired.  [expired / sweeps] shows the
      sweeper doing O(expired) work per firing rather than one timer per
      closed connection; the megaswarm bench reports it alongside the
      monitor-tick stats. *)
end

val connect :
  ?name:string ->
  ?binding:Tko.binding ->
  ?on_deliver:(t -> delivery -> unit) ->
  ?start_seq:int ->
  Dispatcher.dispatcher ->
  peers:Network.addr list ->
  scs:Scs.t ->
  unit ->
  t
(** Active open toward one peer (unicast) or several (multicast).  With
    implicit connection management the endpoint is usable immediately;
    explicit handshakes transition it to [Established] when the (first)
    [Syn_ack] arrives. *)

val send :
  t -> bytes:int -> ?payload:Msg.t -> ?app_stamp:Time.t -> unit -> unit
(** Submit one application message; it is segmented to the negotiated
    segment size and transmitted under the session's transmission
    control.  [payload] carries the actual bytes end to end (its data
    length must equal [bytes]); without it the protocol runs over sizes
    alone.  [app_stamp] defaults to now. *)

val close : ?graceful:bool -> t -> unit
(** Release the connection.  [graceful] (default [true]) first drains
    queued and unacknowledged data; otherwise buffered data may be
    lost. *)

val reconfigure : t -> Scs.t -> (string list, string) result
(** Renegotiate the session to a new configuration: segues locally,
    then signals the peer(s) over the out-of-band channel to segue too
    (each answers ["ok"] or ["error:..."]).  Returns the changed
    component names.  Fails on static-template bindings. *)

val add_peer : t -> Network.addr -> unit
(** Grow a multicast session's membership; the new receiver is brought in
    with a connection request carrying the current sequence position. *)

val remove_peer : t -> Network.addr -> unit
(** Drop a member from the session.  When an opening session was still
    waiting only for that member's answer, it is established toward the
    members that answered, or closed when none is left. *)

val id : t -> int
(** Connection identifier (shared by both endpoints). *)

val name : t -> string
(** UNITES label. *)

val state : t -> state
(** Current connection state. *)

val scs : t -> Scs.t
(** Currently bound configuration. *)

val ever_loss_tolerant : t -> bool
(** [true] once this endpoint has bound a configuration under which it
    may give a segment up for good: one without retransmission, or one
    with a playout delivery constraint.  Every configuration counts, not
    only those in force at a delivery: a receiver that skips a gap while
    loss-tolerant may deliver past it after a segue back to a reliable
    configuration. *)

val context : t -> Tko.context
(** The TKO context (mechanism bindings and shared state). *)

val peers : t -> Network.addr list
(** Current data destinations. *)

val local_addr : t -> Network.addr
(** This endpoint's host address. *)

val established_at : t -> Time.t option
(** When the connection reached [Established]. *)

val bytes_delivered : t -> int
(** Application payload bytes delivered at this endpoint. *)

val segments_delivered : t -> int
(** Segments delivered at this endpoint. *)

val send_queue_empty : t -> bool
(** Nothing queued and nothing in flight. *)

val smoothed_rtt : t -> Time.t option
(** Current RTT estimate, once measured. *)

val loss_rate_estimate : t -> float
(** Retransmissions / first transmissions at the sender (0 when nothing
    sent) — the loss signal the TSA policies test. *)

val backlog_delay : t -> Adaptive_sim.Time.t
(** {!Adaptive_mech.Transmission.backlog_delay} of the data now queued:
    the self-induced part of end-to-end delay that playout must absorb. *)

(** {2 Wire-true mode}

    Opt-in zero-copy data path: installs the transport codec as the
    network's wire hooks, so every PDU crosses the network as real bytes
    in a pooled, leased buffer — serialized once by the fused
    encode+checksum pass, verified and parsed in place at each delivery.
    On a lossless route wire-true and value mode produce identical
    traces; under corruption a wire frame has a real bit flipped and is
    rejected by the checksum (never delivered), where value mode
    delivers it flagged and leaves detection to the session's
    error-detection mechanism. *)
module Wire : sig
  type report = {
    encodes : int;  (** Frames serialized (one per injection). *)
    decodes : int;  (** Frames verified and parsed at delivery. *)
    rejects : int;  (** Frames the codec refused (corruption caught). *)
    fused_sums : int;  (** Payload copies with the checksum fused in. *)
    pool_reuse_rate : float;
        (** Leases served from the pool / total leases (1 when none). *)
  }

  type handle
  (** A stack's wire-mode installation. *)

  val install : Pdu.t Network.t -> handle
  (** [install net] switches [net] to wire-true mode backed by a fresh
      buffer pool of 256 × 4096-byte frames.  Oversized or overflow
      frames fall back to fresh allocations, counted against the reuse
      rate. *)

  val report : handle -> report
  (** Read the wire whitebox counters. *)

  val observe : handle -> Unites.t -> unit
  (** Record the counters under {!Unites.wire_session} so UNITES reports
      include the wire path alongside protocol sessions. *)
end
