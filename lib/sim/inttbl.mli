(** Int-keyed hash table: open addressing over two flat arrays.

    The per-PDU, per-open and per-tick paths look tables up by host
    address, session id or a packed address pair.  A generic [Hashtbl]
    hashes and compares such keys polymorphically; this table compares
    ints with [=] and hashes with one multiply.  Keys and values sit in
    parallel arrays probed linearly (the probe loop of [Conntable]), and
    the table stays at most half full, so a lookup touches a slot or two.

    A lookup returns the option stored in the slot, so it allocates
    nothing.  There is no iteration: a table whose order matters stays a
    [Hashtbl]. *)

type 'a t
(** A table from ints to ['a]. *)

val create : int -> 'a t
(** [create n] is an empty table sized for about [n] bindings; it grows
    as needed. *)

val find_opt : 'a t -> int -> 'a option
(** The binding of a key, if any.  Allocation-free. *)

val mem : 'a t -> int -> bool
(** Whether a key is bound. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind a key, replacing any earlier binding.  Raises
    [Invalid_argument] on [min_int], which marks free slots. *)

val remove : 'a t -> int -> unit
(** Drop a key's binding, if any.  Later keys of its probe run shift
    back, so the table keeps no tombstones. *)

val reset : 'a t -> unit
(** Drop every binding, keeping the current size. *)

val pair : int -> int -> int
(** [pair a b] packs two ints in [\[0, 2{^31})] into one key, distinct
    for distinct pairs (an ordered host pair, say).  Raises
    [Invalid_argument] outside that range. *)
