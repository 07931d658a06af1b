(** Transmission control — one mechanism of a TKO session context
    (§4.2).  One value per endpoint decides when the next queued segment
    may depart under the SCS's [transmission] and [congestion] schemes:
    stop-and-wait keeps one segment outstanding; a sliding window keeps
    up to its size, bounded by the peer's advertisement and, under slow
    start, a TCP-style congestion window (§2.2(C)); rate control paces
    with a token bucket and no window.  A segue to a rate-based scheme
    keeps a bound pacer and changes only its rate (§4.1.2), and the
    congestion window is kept while slow start stays bound.  It does no
    PDU I/O: a deferred departure runs the caller's [handler x]. *)

open Adaptive_sim

type t

val create :
  Params.transmission -> Params.congestion_window -> segment_bytes:int ->
  peer_window:int -> t
(** Fresh state.  A pacer's bucket holds [burst * segment_bytes] bytes
    and starts full; [peer_window] is assumed until the first
    acknowledgment.  [Invalid_argument] unless {!runnable}. *)

val rebind :
  t -> Params.transmission -> Params.congestion_window -> segment_bytes:int -> unit
(** Segue to other schemes.  [Invalid_argument] unless {!runnable}. *)

val runnable : Params.transmission -> Params.congestion_window -> bool
(** The schemes can run: a rate is finite and at least 1 b/s (so the
    pacer's wait for a 65,535-byte segment stays under a week), and a
    burst, a slow-start window and its threshold are at least 1. *)

type gate =
  | Send  (** The segment may go now; the pacer is charged for it. *)
  | Deferred  (** Too few tokens: [handler x] runs once they accrue,
                  unless a deferred departure is already pending. *)
  | Blocked  (** The send window is full. *)

val admit :
  t -> Engine.t -> in_flight:int -> bytes:int -> ('a -> unit) -> 'a -> gate
(** May the next queued segment, of [bytes] bytes, depart?  [in_flight]
    is what the window counts: the outstanding segments, or 0 when the
    session takes no feedback from its peer. *)

val send_window : t -> int
(** Segments that may be outstanding: 1, the sliding window bounded by
    the advertised and congestion windows (at least 1), or [max_int]
    under rate control. *)

val on_ack : t -> window:int -> acked:int -> unit
(** An acknowledgment advertised [window] and newly acknowledged [acked]
    segments; under slow start each grows the congestion window, by one
    below the threshold and by about one per window above it. *)

val on_loss : t -> unit
(** A timeout or fast retransmit: under slow start the threshold becomes
    half the window, which collapses to its initial size.  Call it
    before reading {!send_window} for the resend. *)

val backlog_delay : t -> bytes:int -> Time.t
(** Time the pacer needs for [bytes] queued bytes; zero without one. *)

val release : t -> unit
(** The endpoint closed: cancel a pending deferred departure. *)
