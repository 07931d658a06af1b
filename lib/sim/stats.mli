(** Streaming statistics accumulators.

    UNITES stores one {!t} per metric.  The accumulator keeps exact count,
    mean and variance (Welford's algorithm), exact min/max, and one of two
    bounded quantile sketches, so memory stays constant no matter how many
    samples a long simulation produces. *)

type estimator =
  | Reservoir
      (** Vitter reservoir sample (default): quantiles interpolated from a
          uniform sample of up to [reservoir] retained observations. *)
  | P2
      (** The P² streaming estimator (Jain & Chlamtac 1985): five markers
          per reported quantile, O(1) update, one array of at most 71
          floats however long the stream — what megaswarm-scale UNITES
          repositories use to keep per-bucket memory flat. *)

type t
(** A mutable statistics accumulator. *)

val create : ?estimator:estimator -> ?reservoir:int -> ?seed:int -> unit -> t
(** [create ()] is an empty accumulator.  [reservoir] bounds the number of
    retained samples used for quantile estimation (default 8192); it is
    ignored by the {!P2} estimator, which stores no samples. *)

val estimator_kind : t -> estimator
(** Which quantile sketch this accumulator runs. *)

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
(** Number of observations recorded. *)

val total : t -> float
(** Sum of all observations. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val stddev : t -> float
(** Sample standard deviation (Bessel-corrected); [nan] below two
    observations. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) from the
    sketch; [0.0] when empty (quantiles of nothing are defined as zero
    so rendered reports and emitted JSON never carry NaN).  Under {!P2}
    the estimate is exact for the first five observations, a marker read
    at the tracked quantiles (0.5, 0.95, 0.99) afterwards, and a
    monotone piecewise-linear interpolation between markers and the
    exact extrema elsewhere. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator (with [a]'s estimator) summarizing
    both inputs.  Merging an empty accumulator into a non-empty one
    preserves the non-empty side's moments and extrema exactly.  Merged
    {!P2} quantiles are approximate: each side replays a bounded sketch
    of its distribution rather than its full stream. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}
(** Immutable snapshot of an accumulator. *)

val summarize : t -> summary
(** Snapshot the accumulator.  An empty accumulator summarizes to the
    all-zero summary ([n = 0]), not to NaNs. *)

val add_summary : Buffer.t -> summary -> unit
(** Append the one-line rendering of a summary, without a newline:
    [n=%d] then [mean], [sd], [min], [p50], [p95], [p99] and [max], each
    as [%.4g]. *)
