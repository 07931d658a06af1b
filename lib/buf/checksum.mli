(** Error-detection codes used by the reliability-management mechanisms.

    The paper's error-detection component chooses among "none", the
    Internet 16-bit ones'-complement checksum (cheap, weak) and CRC-32
    (costlier, strong).  All functions operate on strings; messages are
    checksummed via {!Msg.iter_data} without materializing them. *)

val internet : string -> int
(** 16-bit ones'-complement Internet checksum (RFC 1071). *)

val internet_msg : Msg.t -> int
(** Internet checksum over a message's data region, zero-copy. *)

(** {2 Fused running sums}

    The wire-true data path computes the Internet checksum {e during} the
    copy pass — the simultaneous-transmission-and-checksum property the
    paper claims for trailer checksums (§2.2(C)).  The running state is a
    plain immediate [int] packing the partial sum together with the
    pending high byte of an odd-length prefix, so a whole encode pass can
    thread it without allocating.  Treat the value as opaque: build it
    with {!sum_init}, advance it with the [sum_*] operations in wire
    order, and extract the checksum with {!sum_finish}. *)

val sum_init : int
(** Empty running state (sum 0, even byte parity). *)

val sum_add : int -> Bytes.t -> int -> int -> int
(** [sum_add state b off len] folds [b.[off .. off+len)] into the running
    sum without copying.  Byte parity carries across calls: an odd-length
    range leaves its trailing byte pending, to be paired with the first
    byte of the next range.  Raises [Invalid_argument] on out-of-range
    slices. *)

val sum_skip2 : int -> int
(** Advance the state as if two zero bytes were summed — how a zeroed
    checksum field is folded in without touching the buffer. *)

val sum_into :
  int ->
  src:Bytes.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  int
(** [sum_into state ~src ~src_off ~dst ~dst_off ~len] copies [len] bytes
    from [src] to [dst] {e and} folds them into the running sum in the
    same pass — one traversal where blit-then-checksum needs two.
    Equivalent to [Bytes.blit] followed by {!sum_add} over the copied
    range (the test suite asserts this on random inputs).  Raises
    [Invalid_argument] on out-of-range slices. *)

val sum_finish : int -> int
(** Finalize the running state into the 16-bit Internet checksum.  Equal
    to {!internet} over the concatenation of everything summed. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3 polynomial, reflected). *)

val crc32_msg : Msg.t -> int32
(** CRC-32 over a message's data region, zero-copy. *)
