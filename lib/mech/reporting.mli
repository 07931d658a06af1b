(** Error detection and reporting — the detection and reporting parts of
    reliability management, one mechanism of a TKO session context
    (§4.2).

    Detection ([detection] in the SCS) decides whether a corrupted PDU is
    discarded or delivered flagged, and what verification costs.
    Reporting ([reporting]) decides what a receiver returns per data
    arrival: cumulative or selective acks after their delay (a gap at
    once, a gap-free duplicate after a long coalescing delay), with up
    to 16 SACK blocks for selective ones; a NACK of up to 32 missing
    sequence numbers whenever a new gap opens, repeated every
    [initial_rto] while gaps remain; or nothing.  On the sender it
    decides what the window counts and whether acks drain it.

    It holds the delayed-ack timer with the SACK flag it was armed with,
    the re-NACK timer and the echo stamp, and does no PDU I/O: the
    session builds and sends the Ack or Nack PDU.  Its timers run
    [handler x] for a handler and endpoint passed separately, so
    re-arming allocates nothing. *)

open Adaptive_sim

type t

val runnable : Params.reporting -> bool
(** The scheme can run: an ack delay is at most an hour (0 or less acks
    at once). *)

val create : Params.reporting -> Params.detection -> t
(** Fresh state.  The SCS's [initial_rto] and [recv_buffer_segments] are
    not kept: the calls that need them take them, so a segue cannot
    leave a stale copy. *)

val rebind : t -> Params.reporting -> Params.detection -> unit
(** Segue.  Pending timers keep running: a delayed ack goes out with the
    SACK flag it was armed with, and a pending re-NACK fires once under
    the new scheme.  The echo stamp carries over. *)

(** {2 Detection} *)

val detected : t -> corrupted:bool -> bool
(** Discard this arrival: it is corrupted and the scheme detects it. *)

val verify_cost : t -> bytes:int -> Time.t
(** Host time to verify [bytes]: 0, 12 ns a byte (checksum) or 60
    (CRC-32). *)

(** {2 Receiver} *)

val note_stamp : t -> Time.t -> unit
(** A data PDU with this transmit stamp arrived, corrupted or not. *)

val echo : t -> Time.t
(** The newest transmit stamp seen. *)

val gaps_before : t -> Reorder.t -> int list
(** Under NACK reporting, the gaps before an arrival is offered; [[]]
    otherwise. *)

type verdict =
  | Quiet
  | Ack
  | Ack_sack  (** Acknowledge now, with SACK blocks. *)
  | Nack of int list  (** At most 32 sequence numbers. *)

val on_data :
  t -> Engine.t -> Reorder.t -> prior:int list -> duplicate:bool -> initial_rto:Time.t ->
  ('a -> unit) -> 'a -> verdict
(** What to send for an arrival just offered to the receiver ([prior]
    from {!gaps_before}).  A delayed ack arms the timer unless it runs,
    noting the SACK flag, and is [Quiet]; a gap-free duplicate's delay is
    [max 25 ms (initial_rto / 2)]. *)

val delayed_sack : t -> bool
(** The SACK flag of the delayed ack now due. *)

val advertised_window : Reorder.t -> recv_buffer:int -> int
(** Receive buffer left, in segments, of [recv_buffer]. *)

val sack_blocks : Reorder.t -> with_sack:bool -> int list
(** Up to 16 SACK blocks, or none. *)

val arm_renack :
  t -> Engine.t -> Reorder.t -> initial_rto:Time.t -> ('a -> unit) -> 'a -> unit
(** Under NACK reporting, with a gap open and the re-NACK timer stopped,
    run [handler x] after [initial_rto]. *)

val renack : Reorder.t -> int list
(** What a re-NACK names: the open gaps, at most 32. *)

(** {2 Sender} *)

val acks_drain : t -> bool
(** Cumulative acks return, so the window drains and needs the
    retransmission timer; under NACK or no reporting it does not. *)

val in_flight : t -> Window.t -> int
(** What the send window counts: the outstanding segments, or 0 when
    the peer reports nothing. *)

val track :
  t -> Window.t -> Pdu.seg -> at:Time.t -> next_seq:int -> recv_buffer:int -> unit
(** Note a first transmission in the window unless the peer reports
    nothing.  Under NACK reporting nothing drains it, so it keeps only
    the newest [max 256 (4 * recv_buffer)] below [next_seq]. *)

val release : t -> unit
(** Stop the delayed-ack timer, then the re-NACK timer. *)
