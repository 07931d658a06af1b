(** Continuous invariant oracles for chaos runs.

    A checker observes a running system through the {!Session.Dispatcher}
    delivery tap, the UNITES repository and the MANTTS adaptation log,
    and records a {!violation} whenever an oracle fails:

    - exactly-once in-order delivery for reliable sessions (strictly
      increasing, gap-free sequence numbers);
    - no undetected corruption reaching the application while a
      detection mechanism is configured;
    - session liveness — progress resumes within a bound after the last
      fault heals, while the sender still has data pending;
    - MANTTS policy sanity — applied component switches respect the
      reconfiguration cooldown (no flapping past the debounce);
    - UNITES consistency — cumulative whitebox counters are monotone and
      blackbox throughput stays below link capacity. *)

open Adaptive_sim
open Adaptive_core

type kind =
  | Out_of_order
  | Duplicate_delivery
  | Delivery_gap
  | Undetected_corruption
  | Liveness_stall
  | Policy_flapping
  | Counter_regression
  | Throughput_excess
  | Injected_sabotage  (** Deliberately planted by {!inject_violation} —
                           the shrinker's self-test target. *)

type violation = {
  at : Time.t;
  label : string;  (** Session label, or "-" for system-wide oracles. *)
  kind : kind;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t
(** One checker over one running stack. *)

val create :
  engine:Engine.t ->
  unites:Unites.t ->
  ?mantts:Mantts.t ->
  ?trace:Trace.t ->
  ?liveness_bound:Time.t ->
  ?capacity_bps:float ->
  unit ->
  t
(** [liveness_bound] (default 10 s) is the minimum silence after a heal
    before a backlogged session becomes a liveness suspect.  A suspect is
    exonerated by any later delivery — retransmission backoff legitimately
    stretches recovery past any fixed bound — and becomes a
    {!Liveness_stall} violation only if still silent when {!finish} runs
    with every fault healed.  [capacity_bps] enables the blackbox
    throughput-bound oracle.  Violations are also recorded into [trace]
    as "chaos.violation.<kind>" events. *)

val set_injector : t -> Fault.injector -> unit
(** Connect the fault injector: deliveries feed its time-to-recover
    bookkeeping and its heal times arm the liveness oracle. *)

val attach_dispatcher : t -> Session.Dispatcher.dispatcher -> unit
(** Install the delivery tap at one host.  Every delivery at that host is
    checked against the ordering/corruption oracles. *)

val track_sender : t -> label:string -> Session.t -> unit
(** Register a sending endpoint for the liveness and throughput oracles;
    [label] keys its delivery counts, which start at registration, and
    names it in violations. *)

val observe :
  t ->
  label:string ->
  key:int ->
  ordered:bool ->
  reliable:bool ->
  detected:bool ->
  at:Time.t ->
  seq:int ->
  damaged:bool ->
  unit
(** The delivery oracle, exposed for unit tests: [key] identifies one
    receiving endpoint's stream, [detected] says whether the session
    configures a corruption-detection mechanism.  {!attach_dispatcher}
    routes real deliveries here. *)

val start : t -> unit
(** Begin the periodic (100 ms) monitor sweep: counter monotonicity,
    policy-flap scan and liveness evaluation.  Also turns on the UNITES
    write journal ({!Unites.journal_start}) for the monotone counters, so
    each sweep checks only the cells written since the previous one; a
    checker that is never started keeps no journal.  One started checker
    per UNITES repository. *)

val finish : t -> unit
(** Stop the sweep and run the final checks: counter monotonicity over
    the journal (which is then turned off), the policy-flap scan,
    liveness (where a suspect still silent is a {!Liveness_stall}) and
    the throughput bound. *)

val inject_violation : t -> detail:string -> unit
(** Plant an {!Injected_sabotage} violation — used to prove the soak
    runner's detection and shrinking machinery end to end. *)

val violations : t -> violation list
(** Everything recorded, oldest first. *)
