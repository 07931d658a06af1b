(** Receiver-side sequencing, gap tracking and duplicate handling.

    One structure serves every receiver configuration: with [Ordered]
    delivery it buffers out-of-order segments and releases in-sequence
    runs; with [Unordered] it releases immediately while still tracking
    the cumulative-ack point, gaps (for NACK/SACK generation) and
    duplicates.  Sequence numbers are never reused within a session
    (§2.2(C)'s non-wrapping sequence numbers). *)

type verdict =
  | Deliver of Pdu.seg list  (** Release these segments to the
                                 application now, in order. *)
  | Buffered  (** Held for reordering. *)
  | Duplicate  (** Already seen (and duplicates are dropped). *)

type t
(** Receiver state. *)

val create :
  ?start:int -> ordering:Params.ordering -> duplicates:Params.duplicates -> unit -> t
(** Fresh receiver expecting sequence number [start] (default 0) — late
    joiners of a multicast session start at the stream's current
    position. *)

val expected : t -> int
(** Cumulative point: every [seq < expected t] has been received. *)

val offer : t -> Pdu.seg -> verdict
(** Present an arriving (or FEC-recovered) segment. *)

val missing : t -> int list
(** Gaps: sequence numbers in [\[expected, highest_seen\]] not yet
    received, ascending. *)

val has_gap : t -> bool
(** Whether {!missing} is non-empty, without building it. *)

val highest_seen : t -> int
(** Largest sequence number received, [-1] initially. *)

val sack_list : t -> int list
(** Received sequence numbers above the cumulative point, ascending —
    the SACK blocks advertised by selective acknowledgment. *)

val buffered_count : t -> int
(** Segments held awaiting missing predecessors. *)

val advance_past_gap : t -> int * Pdu.seg list
(** Give up on the leading gap (configurations without retransmission):
    move the cumulative point to the first received sequence number above
    it and release the contiguous run found there.  Returns the number of
    sequence numbers skipped and the released run; [(0, [])] when there is
    no gap to skip. *)
