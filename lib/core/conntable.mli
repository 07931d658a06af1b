(** Hashed connection table — the Dispatcher's demultiplexing structure.

    An open-addressing (linear probing) hash table mapping connection
    identifiers to endpoint state, designed so the per-PDU lookup on the
    receive path is O(1) expected and allocation-free: [find] returns a
    slot index into flat arrays rather than an option.

    Entries carry one of three connection states:

    - {e half-open}: an initiator that has sent its connection request and
      is waiting for the responder's answer;
    - {e open}: an established session;
    - {e time-wait}: a closed connection whose identifier is still
      quarantined so late segments are absorbed instead of being offered
      to the acceptor as orphans.  Time-wait entries hold no value — the
      session object is released for collection when the entry is
      retired — only the key and an expiry instant.

    When live, time-wait and tombstone slots together cross 3/4 of the
    table, it is rehashed, dropping tombstones: at the same capacity if
    live and time-wait entries fill less than half of it, at double the
    capacity otherwise.  Probe sequences stay short at any session count,
    and capacity follows the entries held, not the sessions ever opened. *)

open Adaptive_sim

type 'a t

type entry_state = Half_open | Open | Time_wait

val create : ?initial_capacity:int -> unit -> 'a t
(** [create ()] is an empty table.  [initial_capacity] (default 16) is
    rounded up to a power of two. *)

(** {1 Updates} *)

val insert : 'a t -> key:int -> half_open:bool -> 'a -> unit
(** Bind [key] to a live value, in the half-open or open state.  An
    existing entry under [key] (including a time-wait residue) is
    replaced. *)

val promote : 'a t -> int -> unit
(** Move [key] from half-open to open.  No-op if absent or already
    open. *)

val retire : 'a t -> key:int -> expiry:Time.t -> unit
(** Move a live entry to time-wait until [expiry], dropping its value.
    No-op if [key] is absent; a live entry's value reference is cleared
    so the session object can be collected. *)

val sweep : 'a t -> now:Time.t -> int
(** Expire every time-wait entry with [expiry <= now]; returns how many
    were reclaimed.  Cost is O(entries expired), not O(capacity): retired
    keys queue in expiry order (retirement uses a fixed quarantine on a
    monotone clock) and the sweeper pops the expired front.  If expiries
    are ever enqueued out of order, a late entry is reclaimed no earlier
    than those queued ahead of it — never dropped. *)

(** {1 Lookup — the demux hot path} *)

val find : 'a t -> int -> int
(** [find t key] is the slot holding [key], or [-1].  Allocation-free;
    probe count is recorded for [last_probes]. *)

val slot_state : 'a t -> int -> entry_state
val slot_value : 'a t -> int -> 'a
(** [slot_value t slot] is the live value at [slot].
    @raise Invalid_argument on a time-wait slot. *)

val find_live : 'a t -> int -> 'a option
(** Convenience wrapper: the live (half-open or open) value under a key,
    if any.  Allocates; not for the hot path. *)

(** {1 Occupancy and probe telemetry} *)

val capacity : 'a t -> int
val live_count : 'a t -> int
(** Half-open + open entries. *)

val half_open_count : 'a t -> int
val time_wait_count : 'a t -> int

val occupancy : 'a t -> float
(** (live + time-wait) / capacity, in [0, 1]. *)

val last_probes : 'a t -> int
(** Probe count of the most recent [find] — 1 for a first-slot hit. *)
