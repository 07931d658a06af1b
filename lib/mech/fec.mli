(** Forward error correction (XOR parity groups).

    The recovery alternative the paper's policies switch to "when the
    round-trip delay time increases beyond some threshold (e.g., when a
    route switches from a terrestrial link to a satellite link)" (§3(C)).
    The sender emits one parity PDU per [group] data segments; the
    receiver reconstructs any single missing segment of a group locally,
    trading ~1/group bandwidth overhead for recovery without a
    retransmission round trip.

    When segments carry real payloads ({!Pdu.seg}'s [payload]), the parity
    block is the byte-wise XOR of the group's payloads (padded to the
    longest) and reconstruction recovers the {e actual bytes} of the
    missing segment; otherwise recovery operates on metadata alone. *)

open Adaptive_buf

val parity_of : Pdu.seg list -> Msg.t option
(** Byte-wise XOR of the covered segments' payloads, padded to the
    longest.  [None] when any covered segment carries no payload. *)

module Sender : sig
  type t
  (** Sender-side group accumulator. *)

  val create : group:int -> t
  (** [create ~group] emits parity every [group] segments; [group >= 2]. *)

  val group : t -> int
  (** Configured group size. *)

  val push : t -> Pdu.seg -> Pdu.seg list option
  (** Add an outgoing segment.  Returns [Some covered] when the group
      completes: the caller must emit a parity PDU covering those
      segments. *)

  val flush : t -> Pdu.seg list option
  (** Close a partial group (end of stream); [Some covered] if any
      segments were pending. *)

  val pending : t -> int
  (** Segments accumulated toward the current group. *)
end

module Receiver : sig
  type t
  (** Receiver-side reconstruction state. *)

  val create : unit -> t
  (** Fresh state.  The 256 most recent segment payloads are retained
      for byte-level reconstruction; groups whose members have been
      evicted still reconstruct metadata. *)

  val on_data : t -> Pdu.seg -> Pdu.seg list
  (** Note a received data segment.  May complete a previously received
      parity group; returns any segments thereby reconstructed. *)

  val on_parity :
    t -> covered:Pdu.seg list -> parity:Msg.t option -> Pdu.seg list
  (** Process a parity PDU.  Returns reconstructed segments (at most one
      per group), carrying recovered bytes when the parity block and every
      other member's payload are available.  Groups with more than one
      loss stay pending until enough members arrive. *)

  val recovered : t -> int
  (** Total segments reconstructed so far. *)

  val pending_groups : t -> int
  (** Parity groups still waiting for members. *)
end
