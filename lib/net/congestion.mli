(** Cross-traffic (congestion) processes.

    §2.1(B) requires adapting to "dynamically changing network conditions
    such as congestion".  These processes drive a link's background
    utilization over simulated time so transport configurations can be
    exercised under static load and scheduled phase changes. *)

open Adaptive_sim

val constant : Link.t -> float -> unit
(** Fix the background utilization immediately. *)

val phases : Engine.t -> Link.t -> (Time.t * float) list -> unit
(** [phases e link steps] sets the utilization to each value at its
    absolute time.  Times must be in the engine's future. *)
