(** Fixed-size buffer pool.

    MANTTS negotiates buffer space per session; the pool models that
    resource.  Allocation failures are how "insufficient buffer space"
    conditions reach the reconfiguration policies (§4.1.2).  Buffers are
    taken and returned only through {!lease} and {!release}. *)

type t
(** A pool of equally sized buffers. *)

val create : buffers:int -> size:int -> t
(** [create ~buffers ~size] holds [buffers] buffers of [size] bytes.  The
    capacity is fixed for the pool's lifetime. *)

val capacity : t -> int
(** Total number of buffers. *)

val in_use : t -> int
(** Pool buffers currently held by a lease. *)

val misses : t -> int
(** Leases that found the pool empty since creation. *)

(** {2 Leases}

    The wire-true data path hands one physical buffer to multiple
    consumers (multicast replicates at branch points, so several
    deliveries may read the same frame).  A lease is a reference-counted
    claim on a pool buffer: the buffer returns to the free list exactly
    when the last holder releases, which is the "buffer ownership returns
    to the pool at delivery" rule of the wire path. *)

type lease
(** A reference-counted claim on a buffer. *)

val lease : t -> min_bytes:int -> lease
(** [lease t ~min_bytes] takes a buffer able to hold [min_bytes] bytes,
    with an initial reference count of 1.  Pool buffers are reused when
    one is free and large enough (counted by {!lease_hits}); otherwise a
    fresh unpooled buffer is created (counted by {!lease_fresh}, and by
    {!misses} when the pool was simply empty).  Unpooled buffers are
    garbage-collected on final release rather than returned. *)

val lease_buf : lease -> Bytes.t
(** The leased buffer.  Raises [Invalid_argument] after the final
    release — a use-after-free of the wire frame. *)

val lease_refs : lease -> int
(** Current reference count (0 after the final release). *)

val retain : lease -> unit
(** Add a holder.  Raises [Invalid_argument] after the final release. *)

val release : t -> lease -> unit
(** Drop one holder; the last release returns a pooled buffer to the
    free list.  Raises [Invalid_argument] when the lease was already
    fully released (a double free). *)

val lease_hits : t -> int
(** Leases served from the pool's free list. *)

val lease_fresh : t -> int
(** Leases that had to create a fresh buffer (pool exhausted or the
    request exceeded the pool's buffer size). *)
