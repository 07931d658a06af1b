(** Application quality-of-service requirements.

    The quantitative and qualitative QoS parameters of the ADAPTIVE
    Communication Descriptor (Table 2).  Quantitative values are concrete
    numbers (throughput, latency, jitter and loss bounds, duration);
    qualitative values request functional behaviour (ordering, duplicate
    sensitivity, multicast, priority).  {!levels} abstracts a requirement
    into the qualitative grades Table 1 is written in, which is how the
    Stage I classifier and the Table 1 regeneration both work from the
    same data. *)

open Adaptive_sim

type t = {
  avg_bps : float;  (** Sustained application throughput needed. *)
  peak_bps : float;  (** Peak throughput ([>= avg_bps]). *)
  max_latency : Time.t option;  (** End-to-end delay bound, if any. *)
  max_jitter : Time.t option;  (** Delay-variation bound, if any. *)
  loss_tolerance : float;  (** Largest acceptable loss fraction
                               (0 = loss-intolerant). *)
  ordered : bool;  (** In-sequence delivery required. *)
  duplicate_sensitive : bool;  (** Duplicates must be suppressed. *)
  realtime : bool;  (** Deadlines are hard. *)
  isochronous : bool;  (** Continuous media: paced generation and
                           playout-point delivery. *)
  interactive : bool;  (** Two-way human-in-the-loop exchange. *)
  multicast : bool;  (** More than one receiver. *)
  priority : bool;  (** Prioritized delivery/scheduling requested. *)
  duration : Time.t option;  (** Expected session duration (reconfiguring
                                 very short sessions is not useful,
                                 §4.1.1). *)
}

val default : t
(** A neutral, elastic, reliable profile (file-transfer-like): everything
    bounded only by the network, ordered, duplicate-sensitive, zero loss
    tolerance. *)

type level = Very_low | Low | Moderate | High | Very_high | Not_defined
(** Qualitative grade used by Table 1. *)

val level_to_string : level -> string
(** Lower-case label as printed in Table 1. *)

type levels = {
  throughput : level;
  burst_factor : level;
  delay_sensitivity : level;
  jitter_sensitivity : level;
  order_sensitivity : level;
  loss_tolerance_level : level;  (** [Not_defined] prints as "none". *)
}
(** The six graded columns of Table 1 (priority and multicast are the two
    boolean columns). *)

val levels : t -> levels
(** Grade a quantitative requirement into Table 1 vocabulary. *)
