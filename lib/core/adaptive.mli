(** Top-level facade: one call to stand up a complete ADAPTIVE system.

    A {!stack} bundles the simulation engine, a network over a topology,
    the UNITES repository and the MANTTS policy subsystem — everything in
    Figure 1 — so applications (and the examples) can open sessions in a
    few lines:

    {[
      let stack = Adaptive.create_stack ~seed:42 () in
      let a = Adaptive.add_host stack "client" in
      let b = Adaptive.add_host stack "server" in
      Adaptive.connect_hosts stack a b (Adaptive_net.Profiles.lan_path ());
      let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
      let s = Mantts.open_session (Adaptive.mantts stack) ~src:a ~acd () in
      ...
      Adaptive.run stack ~until:(Time.sec 10.)
    ]} *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type stack = {
  engine : Engine.t;
  rng : Rng.t;
  topology : Topology.t;
  net : Pdu.t Network.t;
  unites : Unites.t;
  mantts : Mantts.t;
}

val create_stack :
  ?seed:int -> ?whitebox:bool -> ?metric_reservoir:int ->
  ?metric_estimator:Stats.estimator -> unit -> stack
(** Build an empty system.  [seed] (default 1) determines every random
    draw; [whitebox] (default [true]) controls UNITES instrumentation.
    [metric_reservoir] bounds each UNITES accumulator's quantile
    reservoir (default 8192) — many-session workloads shrink it.
    [metric_estimator] selects the UNITES quantile sketch (default
    reservoir sampling; large churn runs pass {!Stats.P2} for flat memory). *)

val mantts : stack -> Mantts.t
(** The policy subsystem. *)

val add_host :
  ?host_cpu:Host.t -> ?buffer_segments:int -> stack -> string -> Network.addr
(** Register a named host with its MANTTS entity and dispatcher;
    [buffer_segments] is the host's receive-buffer capacity
    ({!Mantts.add_host}). *)

val connect_hosts :
  stack -> Network.addr -> Network.addr -> Link.t list -> unit
(** Install a symmetric route between two hosts over the given hops. *)

val run : ?until:Time.t -> stack -> unit
(** Run the simulation until quiescent or until the given time. *)

val now : stack -> Time.t
(** Current simulated time. *)
