(** STEER — closed-loop runtime adaptation over live sessions.

    The paper's data-transfer-phase reconfiguration story (§3, §4.1.2)
    closed into an actual feedback loop: a policy engine samples each
    watched session's whitebox signals (loss-rate estimate, path cross
    traffic, send-queue idleness) on the MANTTS monitor cadence and
    renegotiates the session through {!Session.reconfigure} when a signal
    crosses a policy threshold:

    - loss above [loss_hi] swaps go-back-n → selective-repeat; calm below
      [loss_lo] restores the session's base recovery;
    - burst loss above [fec_loss_hi] swaps ARQ → forward error correction
      (loss-tolerant sessions only — FEC alone cannot guarantee
      delivery);
    - sustained cross traffic above [cong_hi] backs the sender off (rate
      halving under rate-based transmission, window halving under sliding
      window); calm below [cong_lo] restores toward the base;
    - a send queue idle for [idle_after] sheds retransmit machinery
      (loss-tolerant sessions drop recovery and reporting outright;
      reliable ones fall back from selective-repeat bookkeeping to
      go-back-n), restored as soon as the application sends again.

    Every rule is debounced over consecutive ticks and gated by the
    per-session {!Mantts.reconfigure_cooldown}, whose clock STEER {e
    shares} with the built-in MANTTS monitor ({!Mantts.note_switch}), so
    the chaos flap-cooldown oracle audits the combined switch stream.
    Swap costs are accounted under {!Unites.steer_session}: swap count,
    cooldown-blocked decisions and the dwell time each swapped-out
    configuration had accumulated. *)

open Adaptive_sim

type policy = {
  loss_hi : float;  (** Loss-rate estimate above which go-back-n swaps to
                        selective repeat. *)
  loss_lo : float;  (** Loss-rate estimate below which the base recovery
                        (and reporting) is restored. *)
  fec_loss_hi : float;  (** Loss-rate estimate above which loss-tolerant
                            ARQ sessions swap to FEC (burst loss). *)
  fec_group : int;  (** Parity group size for the FEC swap. *)
  cong_hi : float;  (** Worst-hop cross-traffic share above which the
                        sender backs off. *)
  cong_lo : float;  (** Cross-traffic share below which the sender's
                        transmission control is restored toward base. *)
  idle_after : Time.t;  (** Continuous send-queue idleness after which
                            retransmit machinery is shed. *)
  debounce : int;  (** Consecutive ticks a signal must hold before its
                       rule may fire. *)
}

val default_policy : policy
(** loss 5% / 1% bands, FEC above 15% for group-8 parity, congestion
    85% / 40% bands, 1 s idle shedding, 2-tick debounce. *)

type t
(** One steering engine over one MANTTS instance. *)

val create : ?policy:policy -> Mantts.t -> t
(** Attach a steering engine: registers the {!Unites.steer_session}
    pseudo-session and starts (lazily, on the first {!watch}) a shared
    tick at {!Mantts.monitor_interval} that walks every live watch in
    session-id order — O(watched) per tick, one engine timer total. *)

val watch : t -> ?loss_tolerant:bool -> Session.t -> unit
(** Put a session under closed-loop steering.  [loss_tolerant] (default
    [false]) widens the action space to semantics-trading swaps (ARQ →
    FEC, idle shedding of recovery); without it STEER only applies
    semantics-preserving swaps, mirroring MANTTS admission's graceful
    degradation.
    Statically bound sessions ({!Tko.Static_template}) cannot segue and
    are ignored. *)

val swap_count : t -> int
(** Swaps applied (= {!Unites.Steer_swaps} total). *)

val blocked_count : t -> int
(** Due swap decisions suppressed by the shared reconfigure cooldown
    (= {!Unites.Steer_blocked} total). *)
