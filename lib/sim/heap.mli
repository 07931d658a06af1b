(** Imperative binary min-heap of integer payloads keyed by
    [(key, seq)].

    Used as the ordering tiers of the discrete-event {!Engine} (the
    near-horizon ready queue and the far-future overflow tier of the
    timer wheel), whose payloads are event ids.  Keys, sequence numbers
    and payloads live in three flat [int array]s: a push or pop stores no
    pointer, so it never runs the garbage collector's write barrier, and
    allocates nothing beyond occasional geometric growth.

    Among equal keys, the lower sequence number pops first; the client
    supplies it, which lets one global FIFO order span several heaps. *)

type t
(** A heap of integer payloads. *)

val create : unit -> t
(** [create ()] is an empty heap. *)

val is_empty : t -> bool
(** [is_empty h] is [true] iff [h] holds no element. *)

val length : t -> int
(** Number of elements currently stored. *)

val push : t -> key:int -> seq:int -> int -> unit
(** [push h ~key ~seq v] inserts [v] with priority [key] and tie-break
    sequence [seq]. *)

val top_key : t -> int
(** Key of the minimum binding.  Raises [Invalid_argument] on an empty
    heap: check {!is_empty} first on hot paths. *)

val top_seq : t -> int
(** Sequence number of the minimum binding.  Raises on empty. *)

val top_value : t -> int
(** Payload of the minimum binding.  Raises on empty. *)

val drop_top : t -> unit
(** Remove the minimum binding.  Raises on empty. *)

val extend : int array -> int -> fill:int -> int array
(** [extend a n ~fill] is a fresh array of length [n >= Array.length a]
    holding [a]'s elements followed by [fill]; it raises
    [Invalid_argument] when [n < Array.length a].  It copies by a loop
    rather than [Array.blit], which into a major-heap array runs the
    write barrier per element even for ints.  The heap grows its arrays
    with it, and so does the {!Engine}'s event slab. *)

val filter_in_place : t -> f:(int -> int -> int -> bool) -> unit
(** [filter_in_place h ~f] drops every entry for which
    [f key seq value] is [false] and restores the heap invariant in
    O(n).  Used to compact lazily cancelled events out of the event
    queue. *)
