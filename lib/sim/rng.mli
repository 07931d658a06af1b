(** Deterministic, splittable pseudo-random number generator.

    Every source of randomness in the simulator (traffic generators, loss
    processes, congestion dynamics) draws from an {!t}.  The generator is
    SplitMix64: fast, statistically adequate for simulation, and
    {e splittable} — [split] derives an independent stream, so concurrent
    model components can be seeded from one master seed without
    correlating, and every experiment is reproducible from its seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator determined by [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val split_ix : t -> int -> t
(** [split_ix t i] derives the [i]th independent stream from [t]'s
    current state {e without} advancing [t]: a pure function of
    [(state, i)].  Campaign task [i] seeds itself with
    [split_ix master i], so parallel tasks never share or reseed a
    common generator, and the derived stream is identical however many
    other tasks ran first.  [i] must be non-negative
    ([Invalid_argument]). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto sample — heavy-tailed; used for bursty traffic sizes. *)
