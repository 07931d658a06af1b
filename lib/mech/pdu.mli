(** Transport protocol data units.

    Every ADAPTIVE session configuration — and the monolithic baselines —
    exchanges these PDUs over {!Adaptive_net.Network}.  The variant covers
    the data path (segments, FEC parity), the reporting path (cumulative
    and selective acknowledgments, negative acknowledgments), connection
    management (implicit and explicit handshakes, graceful and abortive
    release) and the out-of-band signaling channel MANTTS uses for
    negotiation and reconfiguration (§4.1, Figure 3). *)

open Adaptive_sim

type seg = {
  seq : int;  (** Segment sequence number (per session, from 0). *)
  seg_bytes : int;  (** Payload bytes carried. *)
  app_stamp : Time.t;  (** When the application produced the data. *)
  app_last : bool;  (** Final segment of an application message. *)
  payload : Adaptive_buf.Msg.t option;
      (** The actual bytes, when the application supplied them.  [None]
          runs the protocol over sizes alone (the common mode for
          performance experiments); [Some] carries real data end to end,
          including through XOR parity reconstruction. *)
}
(** One data segment. *)

val seg :
  ?payload:Adaptive_buf.Msg.t ->
  ?last:bool ->
  ?stamp:Time.t ->
  seq:int ->
  bytes:int ->
  unit ->
  seg
(** Build a segment.  When [payload] is given, its data length must equal
    [bytes]. *)

val strip_payload : seg -> seg
(** The same segment without its bytes — what metadata-bearing control
    PDUs (parity cover lists) carry on the wire. *)

type t =
  | Data of { conn : int; seg : seg; retransmit : bool; tx_stamp : Time.t }
      (** A data segment; [retransmit] marks resent copies.  [tx_stamp]
          is the wire-format transmit timestamp (RFC 7323 style): acks
          echo it back, making round-trip measurement unambiguous even
          for retransmissions. *)
  | Parity of {
      conn : int;
      group_start : int;
      group_len : int;
      covered : seg list;  (** Metadata only (payloads stripped). *)
      parity : Adaptive_buf.Msg.t option;
          (** XOR of the covered payloads, padded to the longest, when the
              data path carries real bytes. *)
    }
      (** Parity covering sequence numbers
          [group_start .. group_start+group_len-1]. *)
  | Ack of { conn : int; cum : int; window : int; sack : int list; echo : Time.t }
      (** Cumulative ack: every seq [< cum] received; [window] advertises
          receiver buffer (segments); [sack] lists received seqs beyond
          [cum]; [echo] returns the newest data [tx_stamp] seen (zero
          before any data). *)
  | Nack of { conn : int; missing : int list }
      (** Negative acknowledgment of the listed gaps. *)
  | Syn of { conn : int; blob : string; first : t option }
      (** Connection request carrying a serialized configuration proposal;
          [first] piggybacks the first data PDU for implicit
          negotiation. *)
  | Syn_ack of { conn : int; accepted : bool; blob : string }
      (** Response: [blob] is the (possibly counter-proposed) accepted
          configuration. *)
  | Ack_of_syn of { conn : int }  (** Third leg of a 3-way handshake. *)
  | Fin of { conn : int; graceful : bool }  (** Release request. *)
  | Fin_ack of { conn : int }  (** Release confirmation. *)
  | Signal of { conn : int; blob : string }
      (** Out-of-band control message (renegotiation, reconfiguration,
          QoS notifications). *)
  | Signal_ack of { conn : int; blob : string }
      (** Control-channel response. *)

val conn_id : t -> int
(** Connection identifier of any PDU. *)

val payload_bytes : t -> int
(** Declared payload size: the segment's bytes for data, the longest
    covered segment for parity, zero for control PDUs.  This is the
    payload room the wire image reserves whether or not actual payload
    bytes are attached. *)

val wire_bytes : t -> int
(** Total wire size: header plus payload. *)

