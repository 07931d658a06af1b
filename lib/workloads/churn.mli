(** CHURN — the slot-based Table-1 many-session workload.

    Session slots cycle open → transfer → close across the Table-1
    application mix, spread over [partitions] logical partitions.  Each
    partition is a complete ADAPTIVE stack (engine, client/server host
    pair, MANTTS entities, UNITES repository); partitions are joined by
    a WAN and executed over OCaml 5 domains with
    {!Adaptive_fleet.Shard}'s conservative barrier-window
    synchronization.

    One partition is the single host pair: its digest is the stack's own
    trace hash and every draw, name and open time is that of global slot
    [g].  Partition [p] of [P] owns the global slots [g = slot * P + p],
    so offered load is phase-interleaved exactly as one flat population
    would see it.  The partition count is part of the workload; the
    shard count is an execution choice — [shards = 1] and [shards = N]
    give the same digest and byte-identical UNITES reports.

    Every random draw derives from the seed, and every lifecycle event
    (open, degrade, refuse, close, deliver, and the cross-partition
    xopen/xclose) is recorded into per-partition traces whose FNV-1a
    digests prove two runs replay-equal.

    Most sessions declare a sub-second duration, so MANTTS skips their
    policy monitor (§4.1.1); every [monitored_share]-th global slot is
    long-declared and exercises the shared monitor tick. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_chaos

type config = {
  sessions : int;  (** Session slots across all partitions. *)
  partitions : int;  (** Logical partitions (part of the workload). *)
  shards : int;  (** Execution domains; result-invariant. *)
  churn_rounds : int;  (** Close/reopen cycles per slot after the first
                           open (0 = open once). *)
  seed : int;  (** Master seed for every random draw. *)
  payload_bytes : int;  (** Mean application bytes each session sends. *)
  open_window : Time.t;  (** Opens are staggered across this interval. *)
  admission : Mantts.admission_policy option;
      (** Admission policy installed on every partition's MANTTS. *)
  monitored_share : int;  (** Every n-th global slot declares a long
                              duration and keeps a policy monitor. *)
  cross_share : int;
      (** With more than one partition, every n-th local slot also opens
          a session to the next partition's server over the WAN (ring
          order), so connection setup, data, acks and release cross the
          partition boundary.  0 disables cross traffic. *)
  wan_latency : Time.t;
      (** Base one-way cross-partition latency; also the conservative
          lookahead floor (and the barrier window of a one-partition
          run). *)
  wan_spread : Time.t;
      (** Maximum extra per-pair latency.  Each ordered (src, dst)
          partition pair gets a deterministic latency in
          [wan_latency, wan_latency + wan_spread], and SHARD's per-pair
          lookahead matrix is built from the same function.  [Time.zero]
          keeps the uniform-latency WAN. *)
  session_cap : int option;
      (** When set, each partition's UNITES repository tracks at most
          this many sessions individually; the rest fold into one
          overflow bucket (totals preserved, digest untouched). *)
  wire : bool;
      (** Run every stack in wire-true mode: PDUs cross the network as
          real bytes through the fused zero-copy codec path.  On a
          lossless link the digest equals the value-mode digest.  Not
          combinable with cross-partition sessions. *)
  estimator : Stats.estimator;
      (** Quantile estimator for the UNITES repositories.  [Reservoir]
          (the default) is what the goldens pin; [P2] caps metric memory
          at a few floats per (session, metric) for very large runs. *)
  steer : Steer.policy option;
      (** When set, every admitted local session is put under a
          partition-local STEER engine with this policy (loss-tolerant
          applications get the wider semantics-trading action space). *)
  chaos : Fault.schedule option;
      (** When set, the schedule is installed against every partition's
          LAN and both of its host CPUs. *)
  check_invariants : bool;
      (** Attach the chaos invariant checker (delivery oracles at both
          dispatchers, counter monotonicity, the MANTTS/STEER
          flap-cooldown oracle) in every partition. *)
  scs_transform : (Scs.t -> Scs.t) option;
      (** Pin every admitted session's derived SCS through this rewrite —
          the static-configuration arms of the steering experiments. *)
  link_bps : float;
      (** LAN bandwidth.  The 1 Gb/s default keeps the link effectively
          unconstrained; the steering experiments shrink it so that
          congestion storms create genuine scarcity. *)
  link_mtu : int;
      (** LAN MTU.  The 65535 default fits a whole payload in one
          segment; a realistic MTU makes sessions multi-segment so that
          recovery-scheme dynamics are exercised. *)
  link_queue_pkts : int;
      (** LAN queue depth in packets.  The 4096 default buffers whole
          retransmission floods as delay; a shallow queue tail-drops. *)
  host_speed : float;
      (** CPU speed multiplier for the endpoint hosts (1.0 = 2 us/packet
          + 1 ns/byte), applied through [Host.create ~speed] so it also
          divides the per-byte checksum work.  The two endpoints stand
          for a population of hosts: experiments that scale [link_bps]
          with the session count should scale this too, or the host CPU
          quietly becomes the binding constraint. *)
}

val default_config : sessions:int -> seed:int -> config
(** One partition on one shard, 2 churn rounds, 2000-byte payloads, a
    1 s open window, no admission policy, every 10th slot monitored,
    cross traffic every 16th local slot (inert at one partition), a 5 ms
    WAN without spread, no session cap, value mode, reservoir quantiles,
    no steering, chaos, invariant checking or SCS pinning, and a 1 Gb/s
    LAN with a 65535-byte MTU, 4096-packet queue and host speed 1.0. *)

val validate : config -> (config, string) result
(** Reject a configuration the workload cannot run: a non-positive
    session count, payload, [wan_latency], session cap, link or host
    figure; fewer than one partition or shard; a negative churn round
    count, open window, share or [wan_spread]; an admission policy
    unless [0 <= soft_sessions <= hard_sessions] and [max_cpu_backlog
    >= 0]; or wire-true mode together with cross-partition sessions. *)

type outcome = {
  offered : int;  (** Open attempts (including churn reopens). *)
  admitted : int;  (** Sessions actually opened. *)
  degraded : int;  (** Opens admitted with a lightened configuration. *)
  refused : int;  (** Opens refused by admission control. *)
  closed : int;  (** Sessions closed back down. *)
  cross_opened : int;  (** Cross-partition sessions opened. *)
  delivered_msgs : int;  (** Segments handed to the server applications. *)
  delivered_bytes : int;
  goodput_bytes : int;
      (** Application-useful bytes of the admitted sessions.
          Loss-tolerant sessions contribute whatever arrived (capped at
          what they asked to send); a fully-reliable session contributes
          its requested bytes only if the whole transfer arrived. *)
  wan_exchanged : int;  (** Cross-partition PDUs through the barriers. *)
  peak_live : int;  (** Most live sessions seen at any one client. *)
  events_fired : int;  (** Engine events, summed over partitions. *)
  sim_time : Time.t;  (** Common end time of every partition. *)
  digest : int64;
      (** The determinism witness: the partition's trace hash for one
          partition, the FNV-1a fold of the partition hashes otherwise. *)
  partition_digests : int64 list;  (** In partition order. *)
  demux_probes_mean : float;
      (** Worst partition's mean probes per connection-table lookup
          (1.0 = every lookup hit its first slot). *)
  demux_probes_p99 : float;  (** Worst partition's p99 probes. *)
  occupancy_p99 : float;  (** Worst partition's p99 table load factor. *)
  table_capacity : int;  (** Largest final client table capacity. *)
  timewait_drops : int;  (** Late segments absorbed in time-wait. *)
  monitor_ticks : int;  (** Shared monitor-tick firings. *)
  monitor_walked : int;  (** Live monitors walked across those ticks —
                             [walked / ticks] is the per-tick working
                             set, O(monitored) not O(sessions). *)
  tw_sweeps : int;  (** Coalesced time-wait sweeper firings. *)
  tw_expired : int;  (** Time-wait entries those sweeps expired. *)
  sync_windows : int;  (** SHARD barrier windows executed. *)
  sync_skipped : int;  (** Empty spans jumped by the skip fast path. *)
  stage_minor_words : (string * float) list;
      (** Minor words allocated on the coordinating domain per run
          stage, in order: ["build"], ["schedule"], ["sim"], ["reduce"].
          ["sim"] over the event count is the hot-path allocation
          figure; authoritative at [shards = 1] (GC counters are
          per-domain). *)
  wire_report : Session.Wire.report option;
      (** Wire-path counters summed over partitions (pool reuse: the
          worst partition) when the run was wire-true. *)
  steer_stats : (int * int) option;
      (** [(swaps applied, cooldown-blocked decisions)] summed over
          partitions when the run was steered. *)
  faults_injected : int;  (** Chaos faults applied over the run. *)
  violations : Invariant.violation list;
      (** Invariant-oracle violations, partition by partition (empty
          when checking was off — and expected empty when it was on). *)
  unites : Unites.t list;  (** Metric repositories, in partition order. *)
}

val run : config -> outcome
(** Build the partitions, run them to the horizon under barrier-window
    synchronization, and reduce.  Deterministic in the configuration and
    independent of [shards].  Raises
    [Invalid_argument] with {!validate}'s message on a rejected
    configuration. *)

val unites_reports : outcome -> string list
(** Every partition's rendered UNITES report, headed ["partition <i>"]
    — the byte-identity witness of shard parity.  Rendering folds the
    engine's scheduler counters into each repository, so render an
    outcome once. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Admission accounting, delivery, demux cost, control-plane tick
    cost, barrier counters and the digest, plus the wire and steer lines
    when those features ran. *)
