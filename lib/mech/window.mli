(** Sender-side in-flight segment bookkeeping.

    Shared by every ARQ transmission-control/recovery combination: tracks
    which segments are outstanding, when each was (last) sent, how many
    times it was retried, and which have been selectively acknowledged.
    The recovery mechanisms (go-back-n, selective repeat) are expressed as
    queries over this structure, so swapping recovery schemes mid-session
    (segue) needs no state conversion — exactly the property §2.3 credits
    to MSP's on-the-fly changes. *)

open Adaptive_sim

type entry = {
  seg : Pdu.seg;  (** The tracked segment. *)
  mutable sent_at : Time.t;  (** Time of the most recent (re)send. *)
  mutable retries : int;  (** Retransmissions so far. *)
  mutable sacked : bool;  (** Selectively acknowledged. *)
}

type t
(** The in-flight set. *)

val create : unit -> t
(** Empty set. *)

val in_flight : t -> int
(** Number of unacknowledged segments (sacked segments still count until
    cumulatively acknowledged). *)

val bytes_in_flight : t -> int
(** Payload bytes outstanding. *)

val is_empty : t -> bool
(** No segments outstanding. *)

val track : t -> Pdu.seg -> at:Time.t -> unit
(** Record a first transmission. *)

val touch : t -> int -> at:Time.t -> unit
(** Record a retransmission of [seq]: updates [sent_at], bumps
    [retries]. *)

val find : t -> int -> entry option
(** Look up an outstanding segment. *)

val on_cumulative_ack : t -> cum:int -> entry list
(** Drop every entry with [seq < cum]; returns them (oldest first) so the
    caller can sample RTTs and count deliveries. *)

val mark_sacked : t -> int list -> unit
(** Flag the listed sequence numbers as selectively acknowledged. *)

val unsacked_from : t -> int -> Pdu.seg list
(** Outstanding, un-sacked segments with [seq >= from], in order — the
    go-back-n retransmission set. *)

val unsacked_missing : t -> int list -> Pdu.seg list
(** Outstanding, un-sacked segments among the given sequence numbers — the
    selective-repeat retransmission set. *)

val iter : t -> (entry -> unit) -> unit
(** Iterate over outstanding entries in sequence order. *)
