(** Concrete wire format for transport PDUs.

    §2.2(C) criticizes the classic suites' control formats: TCP and TP4
    keep the checksum in the header (precluding simultaneous transmission
    and checksum computation) and use unaligned, variable-format fields.
    This codec is the "efficient control format" the paper calls for:

    - every header field is 32-bit aligned and fixed-size;
    - payload-bearing PDUs (data, parity) carry their 16-bit Internet
      checksum in the {e trailer}, so a sender can compute it while the
      packet streams out and a receiver can verify while it streams in;
    - control PDUs carry the checksum at a fixed header offset.

    [encode] always produces exactly {!Pdu.wire_bytes} bytes — a property
    the test suite enforces — so the simulator's size accounting and the
    byte-level format cannot drift apart.  Segments without payload are
    encoded with zero filler of the declared length. *)

type error =
  | Truncated  (** Fewer bytes than the header or declared lengths need. *)
  | Bad_type of int  (** Unknown PDU type tag. *)
  | Bad_checksum  (** Verification failed: the PDU was damaged. *)

val error_to_string : error -> string
(** Human-readable rendering. *)

val encode : Pdu.t -> string
(** Serialize a PDU; [String.length (encode p) = Pdu.wire_bytes p].  A
    data payload shorter than its [seg_bytes] is zero-filled; a longer one
    raises [Invalid_argument], as {!encode_into} does. *)

val decode : string -> (Pdu.t, error) result
(** Parse and verify a PDU.  Decoded data/parity segments always carry a
    payload (the bytes on the wire). *)

(** {2 Wire-true zero-copy paths}

    The string codec above touches every byte twice (blit, then
    checksum) and allocates a fresh string per PDU.  The wire-true paths
    serialize straight into a caller-owned buffer with the Internet
    checksum {e fused into the copy pass} — the
    simultaneous-transmission-and-checksum property §2.2(C) claims for
    trailer checksums — and parse in place over [(Bytes.t, off, len)]
    views.  Byte images and error behavior are identical to
    [encode]/[decode]; the test suite asserts both on random PDUs. *)

type wire
(** Reusable encoder state.  One per wire-mode network (and
    therefore per domain): the record is mutated by every call, so it
    must not be shared across parallel fleet workers. *)

val wire_state : unit -> wire
(** Fresh state. *)

val fused_sums : wire -> int
(** Number of payloads whose checksum was computed during the copy pass
    (data and parity encodes through this state). *)

val encode_into : wire -> Pdu.t -> Bytes.t -> off:int -> int
(** [encode_into st pdu b ~off] serializes [pdu] into [b] starting at
    [off] and returns the number of bytes written, always
    [Pdu.wire_bytes pdu].  Payload segments are scatter-gathered via
    {!Msg.iter_data} and stream through {!Checksum.sum_into}: one
    traversal copies and sums.  At steady state a data PDU allocates
    zero minor words.  Raises [Invalid_argument] when the buffer cannot
    hold the PDU. *)

val decode_view : Bytes.t -> off:int -> len:int -> (Pdu.t, error) result
(** [decode_view b ~off ~len] parses the PDU occupying
    [b.[off .. off+len)] in place, verifying the checksum during the
    single read pass without mutating the buffer.  Decoded payloads are
    {!Msg.of_bytes_slice} views sharing [b]: they are valid only while
    [b]'s owner keeps the bytes intact — consumers that hold payloads
    past the delivery boundary must {!Msg.detach} them.  Error-for-error
    equivalent to [decode] on the same bytes. *)
