(** Session Configuration Specification — MANTTS Stage II output.

    The SCS is the "blueprint" (§4.1.1): one selected alternative for each
    session activity in the mechanism repository, plus the negotiated
    parameters (segment size, receive-buffer advertisement, priority,
    initial timer setting).  Serialization to a compact blob is what the
    [Syn]/[Syn_ack]/[Signal] PDUs carry during explicit negotiation and
    renegotiation. *)

open Adaptive_sim
open Adaptive_mech

type t = {
  connection : Params.connection;
  transmission : Params.transmission;
  congestion : Params.congestion_window;
  detection : Params.detection;
  reporting : Params.reporting;
  recovery : Params.recovery;
  ordering : Params.ordering;
  duplicates : Params.duplicates;
  delivery : Params.delivery;
  segment_bytes : int;  (** Negotiated segment payload size. *)
  recv_buffer_segments : int;  (** Receive window advertisement. *)
  priority : int;  (** Scheduling priority, 0 = highest. *)
  initial_rto : Time.t;  (** Retransmission timer before samples exist. *)
}

val default : t
(** A safe reliable configuration (three-way handshake, 8-segment window,
    checksum, cumulative acks, go-back-n, ordered, no pacing). *)

val to_blob : t -> string
(** Compact serialization for negotiation PDUs. *)

val of_blob : string -> t option
(** Parse a blob; [None] on malformed input, including values no
    mechanism can run: a rate that is not finite or is below 1 b/s; a burst,
    slow-start window or threshold below 1; an FEC group outside 2-255;
    a segment size outside 1-65535; a receive buffer below 1 segment;
    an initial RTO outside 10 ms-60 s;
    an ack delay or playout target over an hour, or a negative playout
    target. *)

val equal : t -> t -> bool
(** Structural equality. *)

val component_names : t -> t -> string list
(** Names of the session activities on which two specifications differ —
    the components segue must swap. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering of every component choice. *)

val reliable : t -> bool
(** The configuration retransmits (go-back-n or selective repeat). *)
