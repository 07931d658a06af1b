(* e14_steer — closed-loop steering vs every static configuration.

   The same seeded SWARM churn (10k session slots; 200 in smoke) runs
   under an identical deterministic chaos backdrop — ber bursts,
   congestion storms and a route flap against the swarm link — in five
   arms:

     steered      every admitted session under the STEER policy engine
     nosteer      per-application derived configurations, no closed loop
     static-gbn   the whole population pinned to go-back-n ARQ
     static-sr    the whole population pinned to selective repeat
     static-fec   the whole population pinned to group-8 FEC

   All arms disable the built-in MANTTS monitors (monitored_share = 0),
   so the steered arm's only adaptation path is STEER itself.  The
   acceptance criteria are the ISSUE's: the steered arm beats every
   static arm on aggregate goodput (delivered application bytes over the
   common horizon), the steered run's invariant checker — including the
   flap-cooldown oracle over the combined MANTTS/STEER switch stream —
   records zero violations, and a jobs=4 FLEET replay of the steered
   configuration produces the sequential digest. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_mech
open Adaptive_chaos
open Adaptive_workloads

(* Set by main.ml's --smoke flag: 200-session churn instead of 10k. *)
let smoke = ref false

let pf = Format.printf

(* Deterministic chaos backdrop, written out fault by fault (no random
   draws: the arms must share it exactly).  The swarm horizon at 2 churn
   rounds is 10 s; the schedule stresses the middle eight seconds. *)
let backdrop : Fault.schedule =
  let f cls start duration intensity =
    { Fault.cls; start; duration; target = 0; intensity }
  in
  [
    f Fault.Ber_burst (Time.ms 600) (Time.ms 1500) 0.8;
    f Fault.Congestion_storm (Time.sec 2.4) (Time.ms 1200) 0.8;
    f Fault.Ber_burst (Time.sec 3.9) (Time.ms 1200) 1.0;
    f Fault.Route_flap (Time.sec 5.2) (Time.ms 500) 0.5;
  ]

(* Static pins.  Pinning a recovery scheme also has to pin a feedback
   channel that can drive it: go-back-n needs (at least) cumulative acks,
   selective repeat needs SACK blocks. *)
let ack_delay = Time.ms 2

let pin_gbn (scs : Scs.t) =
  {
    scs with
    Scs.recovery = Params.Go_back_n;
    reporting =
      (match scs.Scs.reporting with
      | Params.No_report | Params.Nack_on_gap ->
        Params.Cumulative_ack { delay = ack_delay }
      | (Params.Cumulative_ack _ | Params.Selective_ack _) as r -> r);
  }

let pin_sr (scs : Scs.t) =
  {
    scs with
    Scs.recovery = Params.Selective_repeat;
    reporting =
      (match scs.Scs.reporting with
      | Params.No_report | Params.Nack_on_gap | Params.Cumulative_ack _ ->
        Params.Selective_ack { delay = ack_delay }
      | Params.Selective_ack _ as r -> r);
  }

let pin_fec (scs : Scs.t) =
  { scs with Scs.recovery = Params.Forward_error_correction { group = 8 } }

type arm = {
  arm_name : string;
  outcome : Churn.outcome;
}

(* A constrained topology where configuration actually matters: a
   realistic MTU makes sessions multi-segment (recovery schemes and FEC
   groups have real dynamics), and the link has genuine calm-time
   headroom — each slot demands ~160 kb/s (a 12 KB transfer per 600 ms
   lifetime) against 250 kb/s of share, so an undisturbed run completes
   essentially everything — but becomes scarce when a congestion storm
   takes 94-96% of it, and bursts then make overhead choices (acks,
   go-back-n floods, parity) cost goodput.  Headroom matters: sized
   below the demand, the metric stops measuring adaptation and starts
   rewarding whichever pin blasts bytes fastest (FEC's rate-driven
   send, free of any ack clock, wins that contest at scale regardless
   of what the faults do).  Bandwidth, queue depth AND host CPU all
   scale with the population (250 kb/s, ~20 queue packets and 1/200th
   of a 2 us/packet CPU per session slot — the two endpoints stand for
   a population of hosts) so the 10k full run keeps the 200-session
   smoke run's per-slot regime: scaling only the bandwidth would
   shrink the queue from seconds of buffering to milliseconds and
   leave a fixed host CPU saturating near 140k pkts/s as the real
   binding constraint. *)
let base_config ~sessions ~seed =
  {
    (Churn.default_config ~sessions ~seed) with
    Churn.monitored_share = 0;
    churn_rounds = 6;
    payload_bytes = 12_000;
    link_bps = 250e3 *. float_of_int sessions;
    link_mtu = 1500;
    link_queue_pkts = 4096 * sessions / 200;
    host_speed = float_of_int sessions /. 200.;
    chaos = Some backdrop;
    check_invariants = true;
  }

let run_arm ~sessions ~seed arm_name transform =
  { arm_name; outcome = Churn.run (transform (base_config ~sessions ~seed)) }

let goodput_bps (o : Churn.outcome) =
  let dt = Time.to_sec o.Churn.sim_time in
  if dt <= 0.0 then 0.0 else float_of_int (8 * o.Churn.goodput_bytes) /. dt

let report_arm a =
  let o = a.outcome in
  pf
    "  %-10s goodput %9d bytes (%8.0f bit/s, raw delivered %9d)  faults %d  \
     violations %d%s@."
    a.arm_name o.Churn.goodput_bytes (goodput_bps o) o.Churn.delivered_bytes
    o.Churn.faults_injected
    (List.length o.Churn.violations)
    (match o.Churn.steer_stats with
    | Some (swaps, blocked) -> Printf.sprintf "  swaps %d blocked %d" swaps blocked
    | None -> "")

let e14_steer () =
  let seed = 0x57EE12 in
  let sessions = if !smoke then 200 else 10_000 in
  pf "@.== e14_steer: closed-loop steering vs static configurations, %d \
      sessions%s ==@."
    sessions
    (if !smoke then " [smoke]" else "");

  let steered =
    run_arm ~sessions ~seed "steered" (fun cfg ->
        { cfg with Churn.steer = Some Steer.default_policy })
  in
  let nosteer = run_arm ~sessions ~seed "nosteer" (fun cfg -> cfg) in
  let statics =
    List.map
      (fun (name, pin) ->
        run_arm ~sessions ~seed name (fun cfg ->
            { cfg with Churn.scs_transform = Some pin }))
      [ ("static-gbn", pin_gbn); ("static-sr", pin_sr); ("static-fec", pin_fec) ]
  in
  List.iter report_arm (steered :: nosteer :: statics);

  (* Steering cost accounting from the UNITES steer session. *)
  let u = List.hd steered.outcome.Churn.unites in
  (match Unites.stats u ~session:Unites.steer_session Unites.Steer_time_in_config with
  | Some s ->
    pf "  steer dwell time before swap: n=%d mean %.3f s p95 %.3f s max %.3f s@."
      s.Stats.n s.Stats.mean s.Stats.p95 s.Stats.max
  | None -> ());

  let steered_bytes = steered.outcome.Churn.goodput_bytes in
  Util.shape_check "steered run applied swaps"
    (match steered.outcome.Churn.steer_stats with
    | Some (swaps, _) -> swaps > 0
    | None -> false);
  List.iter
    (fun a ->
      Util.shape_check
        (Printf.sprintf "steered goodput beats %s (%d > %d bytes)" a.arm_name
           steered_bytes a.outcome.Churn.goodput_bytes)
        (steered_bytes > a.outcome.Churn.goodput_bytes))
    statics;
  Util.shape_check "steered run: zero invariant violations"
    (steered.outcome.Churn.violations = []);
  Util.shape_check "nosteer run: zero invariant violations"
    (nosteer.outcome.Churn.violations = []);

  (* Determinism: the steered arm replayed on four domains must land on
     the sequential digest. *)
  let steered_cfg sessions =
    { (base_config ~sessions ~seed) with Churn.steer = Some Steer.default_policy }
  in
  let fleet_sessions = if !smoke then sessions else 1_000 in
  let reference = (Churn.run (steered_cfg fleet_sessions)).Churn.digest in
  let digests =
    Adaptive_fleet.Fleet.map ~jobs:4
      (fun s -> (Churn.run (steered_cfg s)).Churn.digest)
      (Array.make 4 fleet_sessions)
  in
  let fleet_ok = Array.for_all (fun d -> d = reference) digests in
  Util.shape_check
    (Printf.sprintf "jobs=4 fleet replay of the steered arm (%d sessions): all \
                     digests identical"
       fleet_sessions)
    fleet_ok
