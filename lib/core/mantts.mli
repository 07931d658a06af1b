(** MANTTS — "Map Applications and Networks To Transport Systems" (§4.1).

    The policy subsystem.  Opening a session runs the three-stage
    transformation of Figure 2:

    - {b Stage I} — {!classify}: QoS requirements → Transport Service
      Class (unless the ACD selected one explicitly).
    - {b Stage II} — {!derive_scs}: TSC policies reconciled with sampled
      network characteristics (path MTU, bottleneck bandwidth, bit-error
      rate, RTT estimate, utilization) → Session Configuration
      Specification.
    - {b Stage III} — TKO synthesis: template-cache lookup, then
      {!Session.connect} instantiates the executable configuration.

    Each host runs a MANTTS {e entity} owning its buffer pool and the
    passive-open policy (negotiation clamps a proposal's receive buffer to
    local resources and counter-proposes).  During data transfer a
    per-session monitor samples the network and the session's own metrics
    and evaluates TSA rules — the application's ⟨condition, action⟩ pairs
    plus built-in class policies (§3(C)'s go-back-n ↔ selective-repeat
    and ARQ → FEC switches, rate scaling under congestion) — applying
    reconfigurations through segue. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type t
(** A MANTTS instance spanning the hosts of one simulated system. *)

type entity
(** The per-host MANTTS entity. *)

val create : net:Pdu.t Network.t -> unites:Unites.t -> unit -> t
(** Build the policy subsystem over a network. *)

val engine : t -> Engine.t
val network : t -> Pdu.t Network.t
val unites : t -> Unites.t

val add_host :
  ?host:Host.t -> ?buffer_segments:int -> t -> addr:Network.addr -> entity
(** Register a host: creates its dispatcher, buffer pool
    ([buffer_segments], default 4096) and negotiation acceptor.  [host]
    defaults to a host CPU with 1992-class costs. *)

val entity : t -> Network.addr -> entity
(** The entity at an address.  Raises [Not_found] if absent. *)

val dispatcher : entity -> Session.Dispatcher.dispatcher
(** The host's PDU demultiplexer. *)

val set_app_handler : entity -> (Session.t -> Session.delivery -> unit) -> unit
(** Application callback for passively accepted sessions at this host. *)

val classify : Acd.t -> Tsc.t
(** Stage I. *)

type path_characteristics = {
  mtu : int;  (** Smallest MTU over all participants' paths. *)
  bottleneck_bps : float;  (** Narrowest hop bandwidth. *)
  worst_ber : float;  (** Largest hop bit-error rate. *)
  rtt : Time.t;  (** Round-trip estimate for a full segment. *)
  utilization : float;  (** Worst current hop utilization. *)
  hop_count : int;  (** Hops on the longest path. *)
}
(** What the MANTTS network-monitor interface reports about the route(s)
    to the session's participants. *)

val sample_paths : t -> src:Network.addr -> Acd.t -> path_characteristics
(** Sample current network state toward every participant. *)

val derive_scs : t -> src:Network.addr -> Acd.t -> Tsc.t -> Scs.t
(** Stage II: reconcile class policies, QoS and network state into a
    configuration. *)

type admission_policy = {
  soft_sessions : int;
      (** From this many live sessions on, new ACDs are admitted only
          degraded (counter-proposed down to a lighter configuration). *)
  hard_sessions : int;
      (** From this many live sessions on, new ACDs are refused. *)
  max_cpu_backlog : Time.t;
      (** Host receive-processing backlog above which new ACDs are
          degraded even below [soft_sessions]. *)
}
(** MANTTS admission control: the graceful-degradation policy applied to
    both active opens ({!try_open_session}) and passive accepts. *)

type admission = Admitted | Degraded | Refused
(** What admission control decided for one open attempt.  [Degraded] and
    [Refused] decisions are counted under {!Unites.swarm_session}. *)

val set_admission : t -> admission_policy option -> unit
(** Install (or clear, with [None]) the admission policy.  Default: no
    policy — every open is [Admitted]. *)

val tick_stats : t -> int * int
(** [(rounds, walked)] — cumulative shared-monitor-tick firings and live
    monitors walked across them.  [walked / rounds] is the mean per-tick
    working set: with the dense monitored array it tracks the {e
    monitored} population, not the session population, which is the
    O(active) control-plane claim the megaswarm bench records. *)

val open_session :
  ?name:string ->
  ?on_deliver:(Session.t -> Session.delivery -> unit) ->
  ?on_notify:(Session.t -> string -> unit) ->
  ?scs_transform:(Scs.t -> Scs.t) ->
  t ->
  src:Network.addr ->
  acd:Acd.t ->
  unit ->
  Session.t
(** Run all three stages and start the connection.  Installs the
    data-transfer-phase monitor that evaluates the ACD's TSA rules and
    the built-in adaptation policies.  [on_notify] receives
    [Notify_application] actions.  [scs_transform] rewrites the derived
    (and possibly degraded) SCS just before Stage III synthesis — the
    hook the steering experiments use to pin a whole population to one
    static configuration.
    @raise Failure when the admission policy refuses the open — callers
    that expect refusals should use {!try_open_session}. *)

val try_open_session :
  ?name:string ->
  ?on_deliver:(Session.t -> Session.delivery -> unit) ->
  ?on_notify:(Session.t -> string -> unit) ->
  ?scs_transform:(Scs.t -> Scs.t) ->
  t ->
  src:Network.addr ->
  acd:Acd.t ->
  unit ->
  (Session.t * admission, string) result
(** Like {!open_session}, but admission-control aware: [Error reason]
    when the open is refused, [Ok (session, Degraded)] when it was
    admitted with a lightened configuration. *)

val close_session : ?graceful:bool -> t -> Session.t -> unit
(** Release the session and stop its monitor. *)

val renegotiate : ?acd:Acd.t -> t -> Session.t -> (string list, string) result
(** The "Adjust the TSC" reconfiguration path of §4.1.2: re-run Stages I
    and II — against a revised descriptor when [acd] is given, and the
    network's *current* state either way — and segue the session to the
    result.  Returns the changed component names.  [Error] if the session
    was not opened through {!open_session} or is statically bound. *)

val synchronize : t -> Session.t list -> unit
(** Temporal synchronization of related media streams (§3's
    tele-conferencing requirement; MANTTS "coordinates multiple related
    communication sessions").  The group's playout points are aligned to
    the slowest member — now and whenever re-derivation moves any member —
    so audio and video reach their applications in step. *)

val adaptations : t -> (Time.t * int * string) list
(** Every reconfiguration the policy monitors applied: time, session id,
    human-readable description — oldest first. *)

val adaptations_since : t -> int -> (Time.t * int * string) list
(** [adaptations_since t n] is the {!adaptations} log without its first
    [n] entries, oldest first, in time proportional to the entries
    returned: a consumer that advances [n] by the length of each result
    reads only what is new. *)

val last_reconfigured : t -> Session.t -> Time.t option
(** When a policy actor — the built-in monitor or an external steering
    engine — last applied a component switch to this session
    ([Time.zero] if never).  [None] when the session was not opened
    through {!open_session}/{!try_open_session}. *)

val note_switch : t -> Session.t -> string -> unit
(** Record an externally-applied component switch: appends to the
    {!adaptations} log and advances the session's cooldown clock, so an
    external steering engine (STEER) shares one anti-flapping clock with
    the built-in monitor and stays visible to the chaos flap-cooldown
    oracle.  Descriptions beginning with ["switch "] are the ones that
    oracle audits. *)

val monitor_interval : Time.t
(** How often session monitors sample conditions (100 ms). *)

val reconfigure_cooldown : Time.t
(** Minimum spacing a session monitor enforces between the component
    switches it applies (500 ms) — the anti-flapping debounce the chaos
    invariant checker holds MANTTS to. *)
