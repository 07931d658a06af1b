(** Controlled experimentation support (§2.2(D), §4.3).

    The paper's methodology is iterative: specify and configure a session,
    experiment, analyze, refine.  Single simulation runs are deterministic
    given their seed, so statistical confidence comes from {e replication}
    across seeds.  This module runs a scenario under several seeds and
    reduces the results to a mean with a confidence half-width, and
    decides whether two configurations are distinguishable — the
    "meaningful comparisons between different session configurations"
    UNITES exists to enable. *)


type replication = {
  n : int;  (** Replicas run. *)
  mean : float;  (** Sample mean of the measured quantity. *)
  median : float;  (** Sample median — a robust center when a fault-heavy
                       replica skews the distribution. *)
  stddev : float;  (** Sample standard deviation. *)
  half_width : float;  (** ~95% confidence half-width
                           ([2 sd / sqrt n]; 0 for n < 2). *)
}

val replicate : jobs:int -> seeds:int list -> (seed:int -> float) -> replication
(** Run the scenario once per seed, sharded across [jobs] domains by
    [Fleet.map], and summarize.  [f] must be self-contained (build its
    own stack from [seed]; share no simulator state).  Values are
    reduced in seed order, so the record is bit-identical at every
    [jobs] — including the float summation order behind [mean] and
    [stddev].  [seeds] must be non-empty and duplicate-free — a repeated
    seed would silently count the same deterministic replica twice
    ([Invalid_argument]). *)

val default_seeds : int list
(** Five fixed seeds used by the replication experiments. *)

val distinguishable : replication -> replication -> bool
(** Whether the two configurations' confidence intervals do not overlap —
    the conservative "A really is different from B" test. *)

val compare_table :
  label_a:string ->
  label_b:string ->
  rows:(string * replication * replication) list ->
  Format.formatter ->
  unit ->
  unit
(** Print a two-configuration comparison table with a verdict column. *)
