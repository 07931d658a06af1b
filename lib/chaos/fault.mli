(** Chaos fault model and scenario engine.

    A typed vocabulary of injectable network and host faults, compiled
    into deterministic engine timer events against the live simulation
    objects ({!Adaptive_net.Link}, {!Adaptive_net.Routing},
    {!Adaptive_mech.Host}).  Schedules are either written explicitly or
    drawn from a seeded random generator (Poisson arrivals per fault
    class, bounded durations), so every run — and every failure — is
    replayable from its seed. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

type fault_class =
  | Link_down  (** One hop of the primary path fails, then repairs. *)
  | Ber_burst  (** A hop's bit-error rate spikes. *)
  | Route_flap  (** A hop toggles down/up rapidly, ending repaired. *)
  | Partition  (** Every candidate link between the hosts fails —
                   including standby paths, so failover cannot escape —
                   then heals. *)
  | Congestion_storm  (** A hop's cross traffic jumps near saturation. *)
  | Host_stall  (** A host's per-packet CPU cost spikes — the GC-pause
                    analog. *)
  | Mtu_shrink  (** A hop's MTU collapses (path-MTU change). *)
  | Branch_down  (** A delivery-tree tail link fails (multicast-branch
                     failure analog). *)

val all_classes : fault_class list
(** Every class, in canonical order. *)

val class_name : fault_class -> string
(** Short stable name ("link_down", "ber_burst", ...). *)

type fault = {
  cls : fault_class;
  start : Time.t;  (** When the fault is applied. *)
  duration : Time.t;  (** Applied state lasts this long, then heals. *)
  target : int;  (** Which eligible object, resolved modulo the class's
                     target list at install time. *)
  intensity : float;  (** Class-specific severity in [\[0, 1\]]. *)
}

type schedule = fault list

val pp_schedule : Format.formatter -> schedule -> unit
(** Stable renderings used in minimal-repro reports. *)

val random_schedule :
  rng:Rng.t ->
  ?classes:fault_class list ->
  ?first:Time.t ->
  ?last:Time.t ->
  ?max_duration:Time.t ->
  unit ->
  schedule
(** Draw one random schedule: per class (default {!all_classes}),
    Poisson arrivals over the window [\[first, last\]] (defaults 1.5 s
    and 12 s), durations bounded by [max_duration] (default 2.5 s) and
    below by 200 ms, uniform intensities.  Draws happen in a fixed order,
    so equal generator states yield equal schedules.  The result is
    sorted by start time. *)

type env = {
  links : Link.t list;  (** Primary-path hops, the default targets. *)
  tail_links : Link.t list;  (** Delivery-tree tails for {!Branch_down}
                                 (falls back to [links] when empty). *)
  hosts : Host.t list;  (** {!Host_stall} targets. *)
  routing : Routing.t option;
      (** When present, {!Partition} also fails every standby candidate
          link ({!Routing.links}). *)
}
(** The live objects a schedule is compiled against. *)

type injector
(** A schedule installed into an engine. *)

val install :
  engine:Engine.t ->
  ?trace:Trace.t ->
  ?unites:Unites.t ->
  ?on_apply:(fault -> unit) ->
  env ->
  schedule ->
  injector
(** Compile the schedule into engine events.  Base link/host state is
    snapshotted once at install time and every heal restores it, so
    overlapping or shrunken faults stay idempotent.  [trace] receives a
    "chaos.fault.<class>" event per application and a
    "chaos.recover.<class>" count per observed recovery; [unites]
    records {!Unites.Faults_injected} counts and {!Unites.Fault_recovery}
    times under {!Unites.chaos_session}.  [on_apply] fires as each fault
    is applied (the soak runner's sabotage hook). *)

val injected : injector -> int
(** Faults applied so far. *)

val active : injector -> int
(** Faults currently applied and not yet healed. *)

val last_heal : injector -> Time.t option
(** When the most recent fault healed — the liveness monitor's anchor. *)

val note_delivery : injector -> at:Time.t -> unit
(** Tell the injector an application delivery happened: each fault healed
    at [h <= at] and not yet credited records a time-to-recover of
    [at - h]. *)

val recoveries : injector -> (fault_class * float) list
(** Every observed recovery so far: fault class and time-to-recover in
    seconds, oldest first. *)
