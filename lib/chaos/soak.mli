(** The chaos soak runner.

    Builds a complete two-session ADAPTIVE stack over one of three
    interoperation environments, installs a fault schedule and the
    invariant checker, runs it to quiescence and reports the outcome —
    including the run's replay signature (seed, environment, schedule
    and FNV-1a trace hash).  Equal seeds produce equal schedules and
    equal trace hashes.

    When a run violates an invariant, {!shrink} greedily reduces its
    schedule — dropping faults one at a time, then halving durations —
    to a minimal still-failing repro. *)

type environment = Campus | Internet | Satellite

val all_environments : environment list
val environment_name : environment -> string
val environment_of_name : string -> environment option

type outcome = {
  o_seed : int;
  o_env : environment;
  o_schedule : Fault.schedule;
  o_violations : Invariant.violation list;
  o_hash : int64;  (** FNV-1a hash over the run's trace stream. *)
  o_dropped : int;  (** Trace entries evicted by the bounded log. *)
  o_injected : int;  (** Faults actually applied. *)
  o_recoveries : (Fault.fault_class * float) list;
      (** Observed time-to-recover samples, seconds, oldest first. *)
  o_failovers : int;  (** Routing failovers + failbacks. *)
  o_delivered : int;  (** Application deliveries across both sessions. *)
  o_switches : int;  (** MANTTS component switches applied. *)
  o_events : int;  (** Engine events the run fired — the campaign
                       throughput unit FLEET's scaling bench reports. *)
  o_wire : Adaptive_core.Session.Wire.report option;
      (** Wire-path counters when the run was wire-true: corrupted frames
          show up here as rejects, caught physically by the fused
          checksum instead of by a simulation flag. *)
  o_unites : string;
      (** The run's formatted UNITES report — per-fault-class counters,
          recovery-time statistics and the trace's dropped-entry count. *)
}

val ok : outcome -> bool
(** No invariant violated. *)

val run_schedule :
  ?sabotage:bool ->
  ?wire:bool ->
  env:environment ->
  seed:int ->
  Fault.schedule ->
  outcome
(** One deterministic run of an explicit schedule.  [sabotage] (default
    false) plants an {!Invariant.Injected_sabotage} violation whenever a
    {!Fault.Ber_burst} fault is applied — the self-test hook proving the
    detection and shrinking machinery end to end.  [wire] (default
    false) runs the stack in wire-true mode: BER bursts flip real bits
    and the codec's checksum — not a flag — rejects the frames. *)

val run_one :
  ?sabotage:bool -> ?wire:bool -> env:environment -> seed:int -> unit -> outcome
(** [run_schedule] of the schedule a seeded run draws: an independent
    generator seeded from [(seed, env)], so the stack's own randomness
    never perturbs the fault pattern ([o_schedule] reports it). *)

type shrink_result = {
  s_original : int;  (** Faults in the failing schedule. *)
  s_minimal : Fault.schedule;  (** Smallest still-failing schedule. *)
  s_runs : int;  (** Re-executions the search spent. *)
  s_outcome : outcome;  (** The minimal schedule's run. *)
}

val shrink :
  ?sabotage:bool ->
  ?wire:bool ->
  env:environment ->
  seed:int ->
  Fault.schedule ->
  shrink_result
(** Greedy shrink of a failing schedule: repeated drop-one-fault passes
    to a fixed point, then per-fault duration halving (floor 100 ms).
    The input schedule must fail; every intermediate candidate is
    re-executed with the same seed and environment. *)

val pp_repro : Format.formatter -> outcome -> unit
(** The minimal replayable repro block: seed, environment, trace hash
    and the schedule, one fault per line. *)

type report = {
  r_runs : int;
  r_outcomes : outcome list;  (** Every run, in execution order. *)
  r_failures : (outcome * shrink_result) list;
      (** Each failing run with its shrunk repro. *)
}

val soak :
  ?sabotage:bool ->
  ?wire:bool ->
  ?environments:environment list ->
  ?seeds:int list ->
  ?progress:(int -> outcome -> unit) ->
  jobs:int ->
  seed:int ->
  schedules:int ->
  unit ->
  report
(** Run [schedules] seeded runs — seed [seed + i], environment cycling
    through [environments] (default {!all_environments}) — shrinking
    every failure.  [seeds] overrides the derived seed list entirely
    (run [i] uses the [i]th listed seed; [schedules] is then ignored).

    The runs are sharded across [jobs] domains by [Fleet.map].  Every
    run is an isolated task (own engine, RNGs, stack); a failing run
    shrinks inside its own task; results are reduced in run order once
    the batch settles, so the report — outcome order, failure order and
    [progress] callbacks — is byte-identical at every [jobs].  Raises
    [Invalid_argument "Soak.soak: no environments"] on an empty
    [environments]. *)
