(** Loss recovery — the error-recovery part of reliability management,
    one mechanism of a TKO session context (§4.2).

    One value per endpoint holds the sender's loss-recovery state (the
    duplicate-acknowledgment count and the RFC 6582 recovery point), the
    retransmission timer, the FEC parity accumulator and reconstruction
    state, and the gap-skip timer of an unreliable ordered receiver.
    The scheme comes from the SCS's [recovery] field, and it decides
    what each loss signal resends:

    - go-back-n resends every unacknowledged segment from the loss on,
      capped by the send window;
    - selective repeat resends the holes: after a timeout all of them,
      after a SACK those older than one smoothed round trip, after a
      third duplicate acknowledgment the cumulative one;
    - without retransmission (no recovery, or FEC), a timeout gives the
      outstanding segments up and frees the window.

    At most one fast retransmit runs per recovery episode (RFC 6582).  A
    NACK resends the named holes whatever the scheme, so the session
    reads those straight from the {!Window}.

    The mechanism does no PDU I/O.  The session interpreter retransmits,
    sends parity, counts and delivers, and asks it what to do next.  Its
    two timers run [handler x] for a handler and endpoint the caller
    passes separately, so each timer builds its closure once and
    re-arming allocates nothing. *)

open Adaptive_sim

type t
(** One endpoint's loss-recovery state. *)

val runnable : Params.recovery -> bool
(** The scheme can run: an FEC group covers 2 to 255 segments (a parity
    PDU stores its size in 8 bits). *)

val create : Params.recovery -> t
(** Fresh state under the given scheme, for a stream starting at 0. *)

val start_at : t -> int -> unit
(** The stream starts at this sequence number instead (the negotiated
    start of a late multicast joiner). *)

val rebind : t -> Params.recovery -> unit
(** Segue to another scheme.  The acknowledgment state and the
    reconstruction state carry over; a parity accumulator is kept only
    when the FEC group size is unchanged. *)

(** {2 Sender} *)

val arm_timer :
  t -> Engine.t -> needed:bool -> Rtt.t -> ('a -> unit) -> 'a -> unit
(** Keep the retransmission timer running while it is [needed] (data is
    in flight under acknowledgment-based reporting): when not already
    running, run [handler x] after one RTO.  Stop it otherwise. *)

val progress : t -> unit
(** An acknowledgment advanced the window: stop the timer, so the next
    {!arm_timer} starts it afresh. *)

type timeout =
  | Resend of Pdu.seg list  (** Retransmit these, in order. *)
  | Give_up of int  (** No retransmission: this many segments were freed
                        from the window for good. *)

val on_timeout : t -> Window.t -> next_seq:int -> send_window:int -> timeout
(** The timer expired with data in flight: a new recovery episode
    begins.  [send_window] bounds a go-back-n resend. *)

val sack_holes :
  t -> Window.t -> Rtt.t -> initial_rto:Time.t -> now:Time.t -> cum:int ->
  sack:int list -> Pdu.seg list
(** What an acknowledgment carrying SACK blocks resends: under selective
    repeat, every un-SACKed segment below the highest block that was
    last sent more than one smoothed round trip ago; nothing otherwise. *)

val on_ack : t -> cum:int -> progressed:bool -> next_seq:int -> bool
(** Count duplicate acknowledgments.  [true] on the third duplicate of a
    fresh recovery episode: a fast retransmit is due, and the episode
    runs until [next_seq - 1] is acknowledged. *)

val fast_retransmit : t -> Window.t -> cum:int -> send_window:int -> Pdu.seg list
(** What the fast retransmit resends. *)

val on_transmit : t -> Pdu.seg -> Pdu.seg list option
(** Note a first transmission.  [Some covered] when it completes an FEC
    group, whose parity the caller sends. *)

val flush : t -> Pdu.seg list option
(** Close a partial FEC group (end of stream). *)

(** {2 Receiver} *)

val on_data : t -> Pdu.seg -> Pdu.seg list
(** Note an arriving data segment; returns any segments it lets FEC
    reconstruct. *)

val on_parity :
  t -> covered:Pdu.seg list -> parity:Adaptive_buf.Msg.t option -> Pdu.seg list
(** Note an arriving parity PDU; returns the segments it reconstructs. *)

val arm_skip :
  t -> Engine.t -> ordering:Params.ordering -> Reorder.t -> Playout.t option ->
  initial_rto:Time.t -> ('a -> unit) -> 'a -> unit
(** An ordered receiver without retransmission gives a gap up: when such
    a receiver has a gap and the skip timer is not running, run
    [handler x] after [initial_rto], or after twice the playout target
    (at least 5 ms) under playout delivery. *)

val release : t -> unit
(** The endpoint closed: stop both timers. *)
