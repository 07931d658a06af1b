(** FLEET — deterministic parallel experiment execution.

    The paper's methodology is bulk replication: the same scenario run
    across seeds, environments and fault schedules until the comparison
    is statistically meaningful (§4.3).  FLEET shards that
    embarrassingly-parallel work across OCaml 5 domains while keeping
    the one property the whole repository is built on: {e bit-for-bit
    determinism}.  Three rules make that hold:

    + {b Isolation} — every task builds its own [Engine], [Rng],
      [Buf.Pool] and [Unites] instance; no simulator state crosses a
      task boundary.  The few process-wide counters (link names,
      connection ids, copy accounting) are atomic and never enter
      traces or reports.
    + {b Seeding} — each task derives its randomness from its own seed
      (or from a master seed and its task index via
      {!Adaptive_sim.Rng.split_ix}); nothing depends on which domain or
      in which order a task ran.
    + {b Ordered reduction} — results are reduced in input order, so
      the merged output of a [--jobs 4] run is byte-identical to
      [--jobs 1].

    {!map} is the one fan-out: [Soak.soak] and [Lab.replicate] both
    reduce to it.  {!Pool} is the
    underlying bounded work-queue domain pool. *)

module Pool = Pool

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] applies [f] to every element on [jobs] domains
    and returns the results {e in input order}.  [f] must be
    self-contained (isolation rule above).  At [jobs = 1] every [f] runs
    inline on the calling domain, in order.  An exception raised by any
    [f] is re-raised after all tasks settle. *)

val seeds_of : master:int -> n:int -> int list
(** [n] well-spread, duplicate-free, non-negative task seeds derived
    from [master] with [Rng.split_ix] — the way to grow a seed list
    without reseeding or sharing a generator. *)

(** {1 Deterministic reduction helpers} *)

val combine_hashes : int64 list -> int64
(** Fold per-task FNV-1a trace hashes, in the order given, into one
    campaign-level digest: equal iff every per-task history matched in
    order.  The fold is itself FNV-1a over the 8 bytes of each hash. *)

val check_identical : (int * string) list -> (int * string) list -> (int * string * string) list
(** [check_identical a b] compares two [(index, rendered report)] runs
    of the same campaign and returns the mismatches as
    [(index, in_a, in_b)] — empty means the runs were byte-identical.
    Missing indices compare against [""]. *)
