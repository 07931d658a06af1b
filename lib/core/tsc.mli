(** Transport Service Classes — MANTTS Stage I.

    A TSC "embodies a set of related policy decisions that satisfy the
    application's QoS requests" (§4.1.1).  The four classes are the ones
    the paper's Table 1 and Stage I description use: interactive
    isochronous (voice conversation, tele-conferencing), distributional
    isochronous (full-motion video), real-time non-isochronous
    (manufacturing control), and non-real-time non-isochronous (file
    transfer, TELNET, transaction processing).  {!classify} is the
    Stage I transformation; {!policies} is the policy bundle Stage II
    turns into mechanisms. *)


type t =
  | Interactive_isochronous
  | Distributional_isochronous
  | Realtime_non_isochronous
  | Non_realtime_non_isochronous

val classify : Qos.t -> t
(** Map QoS requirements to a service class.  Total: every requirement
    lands in exactly one class. *)

val name : t -> string
(** Display name as used in Table 1's first column. *)

type policies = {
  full_reliability : bool;
      (** Every byte must arrive: ARQ recovery, strong detection. *)
  bounded_latency : bool;
      (** Retransmission strategies must respect a delay budget. *)
  playout_smoothing : bool;
      (** Deliver at an isochronous playout point. *)
  rate_paced : bool;  (** Transmit on a rate schedule, not a window. *)
  fast_setup : bool;
      (** Avoid handshake round trips (implicit negotiation). *)
  multicast_capable : bool;  (** Configuration must support fan-out. *)
  congestion_responsive : bool;
      (** Back off under congestion (elastic traffic). *)
  priority_scheduling : bool;  (** Prioritized delivery. *)
}
(** The policy bundle a class implies; Stage II reconciles these with
    network characteristics to choose mechanisms. *)

val policies : t -> Qos.t -> policies
(** Policy decisions for a requirement within its class. *)

val pp : Format.formatter -> t -> unit
(** Prints {!name}. *)
