(** SHARD — conservative domain-sharded parallel discrete-event simulation.

    A partitioned simulation runs [P] independent logical partitions,
    each with its own engine, and exchanges timestamped messages between
    them.  SHARD advances all partitions in lockstep {e barrier windows}
    paced by [W], the minimum cross-partition latency over all ordered
    pairs — the classical conservative-synchronization guarantee: a
    message generated inside window [k] cannot arrive before the end of
    window [k], so exchanging outboxes at each barrier never delivers
    into a partition's past.

    Two refinements tighten the classical scheme:

    {ul
    {- {b Per-pair lookahead.}  With heterogeneous latencies [L(s,d)],
       destination [d] may run ahead to [B + delta(d)] where
       [delta(d) = min_s L(s,d)] is the soonest anything can reach it —
       never less than the global minimum [W], so wider pairs only widen
       windows.  Soundness: an event executed by source [s] in this
       window happens after [B - W + delta(s)], so its message arrives
       after [B - W + delta(s) + L(s,d) >= B + delta(d)] (because
       [delta(s) >= W] and [L(s,d) >= delta(d)]) — strictly beyond
       everything [d] executes here.}
    {- {b Skip-empty windows.}  A barrier that exchanged nothing proves
       no cross-partition message is in flight, so every future event
       already sits in some partition's queue.  The barrier then jumps
       to one window before the earliest pending deadline anywhere
       (queried through [next_deadline]) instead of grinding through
       empty lookahead-wide windows — the dominant cost at scale, where
       churn leaves long quiet spans.  The jump is a function of global
       engine state only, so it is identical at every shard count.}}

    Within a window the partitions are executed across OCaml 5 domains
    ([shards] of them), but the {e result} is independent of the shard
    count by construction: each partition's window is a deterministic
    function of its own state plus the messages injected at the previous
    barrier, and the barrier itself injects messages in one canonical
    order — sorted by (arrival time, source partition, outbox sequence) —
    whatever grouping produced them.  [--shards 1] and [--shards N] are
    therefore bit-identical, which is what the megaswarm parity tests
    pin. *)

open Adaptive_sim

type 'm outgoing = {
  out_at : Time.t;  (** Modeled arrival time at the destination. *)
  out_dst : int;  (** Destination partition index. *)
  out_payload : 'm;
}
(** One cross-partition message drained from a partition's outbox. *)

type stats = {
  windows : int;  (** Barrier windows executed. *)
  skipped_spans : int;  (** Empty spans jumped by the fast path. *)
  exchanged : int;  (** Cross-partition messages delivered. *)
  shard_wall_s : float array;
      (** Wall-clock seconds each shard spent executing partition
          windows, indexed by shard.  All zeros unless [create] was
          given a [clock]. *)
}
(** Synchronization counters from the most recent {!run}. *)

type 'm t
(** A sharded simulation: partition callbacks plus the lookahead. *)

val create :
  ?pair_lookahead:(src:int -> dst:int -> Time.t) ->
  ?next_deadline:(int -> Time.t option) ->
  ?clock:(unit -> float) ->
  lookahead:Time.t ->
  partitions:int ->
  run_to:(int -> Time.t -> unit) ->
  drain:(int -> 'm outgoing list) ->
  inject:(int -> at:Time.t -> src:int -> 'm -> unit) ->
  unit ->
  'm t
(** [run_to p horizon] must advance partition [p]'s engine through every
    event at or before [horizon]; [drain p] returns the cross-partition
    messages partition [p] generated since the last drain, in generation
    order; [inject p ~at ~src m] must schedule [m]'s delivery inside
    partition [p] at time [at].  [run_to] may run on any domain;
    [drain]/[inject] are only called between windows, on the
    coordinating domain.

    [pair_lookahead ~src ~dst] (called once per ordered pair at creation)
    refines the scalar [lookahead] with the actual minimum latency from
    partition [src] to partition [dst]; every returned value must be
    positive, and [lookahead] is ignored (beyond its own positivity
    check) when it is given.  [next_deadline p] must report the earliest
    pending event in partition [p] without firing anything; providing it
    enables the skip-empty-window fast path.  [clock] (e.g.
    [Unix.gettimeofday] — [lib/fleet] itself does not link unix) enables
    per-shard wall-time accounting in {!last_stats}.

    Raises [Invalid_argument] if [lookahead <= 0] or any per-pair
    lookahead is [<= 0] — a zero-lookahead link admits no conservative
    window and the simulation could not be parallelized without
    violating causality — or if [partitions < 1]. *)

val run : 'm t -> shards:int -> until:Time.t -> int
(** Drive every partition to [until] in barrier windows, executing each
    window's partitions across [shards] domains.  Returns the number of cross-partition messages exchanged.  Raises
    [Failure] if a drained message's arrival time violates the lookahead
    contract (it would land at or before its destination's executed
    horizon). *)

val last_stats : 'm t -> stats
(** Counters from the most recent {!run} on this value. *)
