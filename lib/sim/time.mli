(** Simulation time.

    Time is represented as an integer number of nanoseconds since the start
    of the simulation.  All of ADAPTIVE's simulated clocks, timers, delays
    and rate computations use this representation, which is exact,
    totally ordered, and cheap to compare. *)

type t = int
(** Nanoseconds since simulation start. *)

val zero : t
(** The simulation epoch. *)

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : float -> t
(** [sec s] is [s] seconds, rounded to the nearest nanosecond. *)

val minutes : int -> t
(** [minutes n] is [n] minutes. *)

val to_sec : t -> float
(** [to_sec t] is [t] expressed in seconds. *)

val to_ms : t -> float
(** [to_ms t] is [t] expressed in milliseconds. *)

val add : t -> t -> t
(** Addition. *)

val diff : t -> t -> t
(** [diff a b] is [a - b]. *)

val max : t -> t -> t
(** Larger of two instants. *)

val min : t -> t -> t
(** Smaller of two instants. *)

val compare : t -> t -> int
(** Total order on instants. *)

val ticks : t -> shift:int -> int
(** [ticks t ~shift] is the index of the [2^shift]-nanosecond bucket
    containing [t] — the slot arithmetic of the timer-wheel scheduler. *)

val of_rate : bits:int -> bps:float -> t
(** [of_rate ~bits ~bps] is the time needed to serialize [bits] bits onto a
    channel of [bps] bits per second. *)

val pp : Format.formatter -> t -> unit
(** Human-readable printer choosing an adequate unit (ns, us, ms, s). *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
