(** Message buffers — the [TKO_Message] analog.

    A message is logically divided into a {e header region} (a stack of
    protocol headers, outermost first) and a {e data region} (a list of
    byte segments).  The representation is designed so that the operations
    protocol layers perform constantly — prepending a header
    ([TKO_Message::push]), stripping one ([TKO_Message::pop]), fragmenting
    to an MTU and reassembling — do {e not} touch payload
    bytes.  Payload bytes are shared between fragments ("lazy copying");
    the module counts every physical copy actually made, so the
    throughput-preservation experiments can charge memory-to-memory copy
    costs precisely. *)

type t
(** A message. *)

val of_string : string -> t
(** Message whose data region holds the bytes of the string. *)

val of_bytes : Bytes.t -> t
(** Message sharing (not copying) the given bytes as its data region. *)

val of_bytes_slice : Bytes.t -> off:int -> len:int -> t
(** Message sharing [len] bytes of [b] starting at [off] — the zero-copy
    view a wire-format decoder yields over a received frame.  No bytes
    move; the message aliases the buffer, so it is only valid while the
    buffer's owner keeps the bytes intact (see {!detach}).  Raises
    [Invalid_argument] on an out-of-range slice. *)

val data_length : t -> int
(** Bytes in the data region.  O(1): the length is cached in the message
    record (the segment list is never mutated in place, so the cache
    cannot go stale) rather than re-folded over the segments. *)

val header_length : t -> int
(** Bytes in the header region (sum of pushed headers).  O(1): maintained
    incrementally by {!push}/{!pop}. *)

val push : t -> string -> unit
(** [push m h] prepends header [h] as the new outermost header.  O(1),
    copies only the header bytes. *)

val pop : t -> string option
(** [pop m] removes and returns the outermost header, or [None] if the
    header region is empty.  O(1). *)

val detach : t -> t
(** [detach m] is a message with the same contents whose data region is a
    private single-segment buffer — one counted physical copy.  This is
    how a consumer keeps payload bytes past the lifetime of a shared
    buffer it does not own (e.g. a {!of_bytes_slice} view over a pooled
    wire frame that returns to the pool at delivery). *)

val fragment : t -> mtu:int -> t list
(** [fragment m ~mtu] cuts the data region into pieces of at most [mtu]
    bytes (headers are not replicated — each fragment is headerless).
    Shares payload bytes. *)

val concat : t list -> t
(** [concat ms] is a headerless message whose data region is the
    concatenation of all the inputs' data regions (reassembly).  Shares
    payload bytes. *)

val data_to_string : t -> string
(** Materialize only the data region (counted as a physical copy). *)

val iter_data : t -> (Bytes.t -> int -> int -> unit) -> unit
(** Iterate over the underlying data segments without copying. *)

val physical_copies : unit -> int
(** Number of physical copy operations performed since the last
    {!reset_copy_counters}. *)

val reset_copy_counters : unit -> unit
(** Zero the copy counter. *)
