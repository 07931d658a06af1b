(** Imperative binary min-heap keyed by integer priorities.

    Used as the ordering tiers of the discrete-event {!Engine} (the
    near-horizon ready queue and the far-future overflow tier of the
    timer wheel).  Entries are stored in flat parallel arrays — one push
    allocates nothing beyond occasional geometric growth, and the
    [top_key]/[top_value]/[drop_top] path pops without materializing an
    option or a tuple.

    Ties are broken by a sequence number: either the internal push
    counter (so same-key entries come out first-in first-out) or an
    explicit sequence supplied via {!push_seq}, which lets a client
    impose one global FIFO order across several heaps. *)

type 'a t
(** A heap holding values of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [true] iff [h] holds no element. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val push : 'a t -> key:int -> 'a -> unit
(** [push h ~key v] inserts [v] with priority [key].  Tie-break order is
    the push order. *)

val push_seq : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push_seq h ~key ~seq v] inserts [v] with priority [key] and explicit
    tie-break sequence [seq].  Among equal keys, lower [seq] pops first.
    Mixing with {!push} is allowed but then tie-break order mixes the two
    numbering schemes. *)

val pop : 'a t -> (int * 'a) option
(** [pop h] removes and returns the minimum binding.  Among equal keys,
    the lowest-sequence binding is returned first. *)

val top_key : 'a t -> int
(** Key of the minimum binding without allocation.  Raises
    [Invalid_argument] on an empty heap — check {!is_empty} first on hot
    paths. *)

val top_seq : 'a t -> int
(** Sequence number of the minimum binding.  Raises on empty. *)

val top_value : 'a t -> 'a
(** Value of the minimum binding without allocation.  Raises on empty. *)

val drop_top : 'a t -> unit
(** Remove the minimum binding without returning it.  Raises on empty.
    [top_key h, top_value h] followed by [drop_top h] is the
    allocation-free equivalent of [pop h]. *)

val filter_in_place : 'a t -> f:(int -> int -> 'a -> bool) -> unit
(** [filter_in_place h ~f] drops every entry for which
    [f key seq value] is [false] and restores the heap invariant in
    O(n).  Used to compact lazily cancelled events out of the event
    queue. *)
