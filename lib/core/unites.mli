(** UNITES — "UNIform Transport Evaluation Subsystem" (§4.3, Figure 6).

    Coordinates metric specification, collection, analysis and
    presentation.  Metrics are {e blackbox} (observable without internal
    instrumentation: throughput, round-trip latency) or {e whitebox}
    (requiring instrumentation of the synthesized configuration:
    connection-establishment latency, retransmission counts, jitter,
    loss, per-mechanism event counts).  Whitebox collection can be
    disabled wholesale, which is how the instrumentation-overhead
    experiment compares the two modes.

    The repository aggregates per-session accumulators and can present
    them per-connection, per-host (by aggregating a host's sessions) or
    system-wide. *)

open Adaptive_sim

type metric =
  | Throughput  (** Delivered application bits per second (blackbox). *)
  | Rtt  (** Measured round-trip time, seconds (blackbox). *)
  | Setup_latency  (** Connection establishment, seconds. *)
  | Delivery_latency  (** Application stamp to delivery, seconds. *)
  | Jitter  (** Variation between consecutive deliveries' latencies,
                seconds (the paper's "degree of jitter"). *)
  | Segments_sent  (** First transmissions. *)
  | Segments_delivered  (** Segments handed to the application. *)
  | Bytes_delivered  (** Application payload bytes delivered. *)
  | Retransmissions  (** Segments re-sent. *)
  | Timeouts  (** Retransmission timer expirations. *)
  | Dup_segments  (** Duplicates suppressed (or delivered). *)
  | Corrupt_detected  (** Checksum/CRC caught a bit error. *)
  | Corrupt_delivered  (** Bit-damaged data reached the application. *)
  | Late_discards  (** Segments past their playout point. *)
  | Losses_unrecovered  (** Segments given up on (loss-tolerant
                            configurations). *)
  | Fec_parity_sent  (** Parity PDUs emitted. *)
  | Fec_recovered  (** Segments reconstructed from parity. *)
  | Acks_sent  (** Acknowledgment PDUs emitted. *)
  | Nacks_sent  (** Negative acknowledgments emitted. *)
  | Control_pdus  (** Connection/signaling PDUs exchanged. *)
  | Reconfigurations  (** Segue operations applied. *)
  | Window_size  (** Effective send window samples. *)
  | Host_cpu  (** Host CPU seconds consumed. *)
  | Sched_events_fired  (** Engine events executed since the last
                            scheduler sample. *)
  | Sched_timers_rearmed  (** Timer re-arms (slot-reusing reschedules)
                              since the last scheduler sample. *)
  | Sched_cancelled_ratio  (** Cancelled-but-unswept entries as a
                               fraction of the queued population. *)
  | Sched_wheel_hit_rate  (** Fraction of event inserts served by a
                              timer-wheel slot rather than a heap. *)
  | Faults_injected  (** Faults the chaos injector applied (recorded
                         under {!chaos_session}). *)
  | Fault_recovery  (** Time from a fault's heal to the next observed
                        application delivery, seconds — the chaos
                        subsystem's time-to-recover distribution. *)
  | Sessions_open  (** Sessions admitted (recorded under
                       {!swarm_session}). *)
  | Sessions_refused  (** Open attempts refused by MANTTS admission
                          control. *)
  | Sessions_degraded  (** Open attempts admitted only after the ACD was
                           negotiated down to a lighter configuration. *)
  | Demux_probes  (** Probe count of each dispatcher connection-table
                      lookup — the deterministic proxy for demux cost
                      (1.0 = first-slot hit). *)
  | Table_occupancy  (** Connection-table load factor samples
                         ((live + time-wait) / capacity), recorded on
                         insert and retire — the occupancy histogram. *)
  | Timewait_drops  (** Late segments absorbed by a time-wait entry
                        instead of reaching the acceptor. *)
  | Wire_encodes  (** Frames serialized by the fused wire-true encoder
                      (recorded under {!wire_session}). *)
  | Wire_decodes  (** Frames verified and parsed in place at delivery. *)
  | Wire_rejects  (** Frames the codec rejected (physical corruption
                      caught by the fused checksum). *)
  | Wire_fused_sums  (** Payload copies whose Internet checksum was
                         computed inside the copy pass itself. *)
  | Wire_pool_reuse  (** Fraction of frame leases served from the buffer
                         pool rather than freshly allocated. *)
  | Steer_swaps  (** Component swaps the STEER policy engine applied
                     (recorded under {!steer_session}). *)
  | Steer_blocked  (** Swap decisions suppressed by the per-session
                       reconfigure cooldown. *)
  | Steer_time_in_config  (** Seconds a steered session spent in a
                              configuration before STEER swapped it out —
                              the per-swap dwell-time distribution. *)

type kind = Blackbox | Whitebox

val metric_kind : metric -> kind
(** Classification per §4.3. *)

val metric_name : metric -> string
(** Short stable name. *)

val all_metrics : metric list
(** Every metric, blackbox first. *)

type t
(** A metric repository. *)

val create :
  ?whitebox:bool -> ?reservoir:int -> ?estimator:Stats.estimator -> ?session_cap:int ->
  Engine.t -> t
(** [create engine] makes a repository; [whitebox] (default [true])
    enables whitebox collection.  Each (session, metric) pair holds one
    accumulator and nothing else: no time series is kept, so a cell's
    size does not grow with the simulated time it spans.
    [reservoir] (default 8192) bounds each per-session accumulator's
    quantile sample; many-session workloads shrink it so tens of
    thousands of sessions do not cost 64 KiB of reservoir each.
    [estimator] (default {!Stats.Reservoir}) selects the quantile sketch
    for every accumulator: megaswarm-scale runs pass {!Stats.P2} so the
    repository's memory is one fixed-size accumulator per (session,
    metric) regardless of sample volume.  [session_cap] (default unbounded)
    bounds the number of real sessions tracked individually: the first
    [session_cap] distinct session ids (deterministic first-contact
    order) keep per-session accumulators, later ones fold into the
    reserved overflow session ([-5]) so GIGASWARM-scale runs hold
    per-session state for a bounded prefix while totals stay exact. *)

val set_session_cap : t -> int -> unit
(** Adjust the individually-tracked session bound (min 1).  Sessions
    already admitted stay tracked. *)

val whitebox_enabled : t -> bool
(** Whether whitebox metrics are being recorded. *)

val register_session : t -> id:int -> name:string -> unit
(** Announce a session so reports can label it. *)

val restrict_session : t -> id:int -> metric list -> unit
(** Honor a session's Transport Measurement Component: record only the
    listed whitebox metrics for this session (blackbox metrics are always
    collected).  An empty list removes the restriction. *)

val observe : t -> session:int -> metric -> float -> unit
(** Record one observation.  Whitebox observations are dropped when
    whitebox collection is off. *)

val count : t -> session:int -> metric -> unit
(** [observe t ~session m 1.0]. *)

val stats : t -> session:int -> metric -> Stats.summary option
(** Summary of a session's metric, if any observation was recorded. *)

val total : t -> session:int -> metric -> float
(** Sum of a session's observations (0 when none). *)

(** {2 Write journal}

    A repository can journal the cells it writes, so a consumer that
    audits totals (the chaos invariant checker) visits only the cells
    changed since it last looked instead of every session.  One journal
    per repository; it costs one bit test per observation while off. *)

val journal_start : t -> metric list -> unit
(** Empty the journal, enter once every cell that already holds an
    observation of one of [metrics], and from now on append every
    further observation of one of them (replacing any earlier set). *)

val journal_stop : t -> unit
(** Stop journalling and release the journal's storage. *)

val journal_drain :
  t -> (cell:int -> session:int -> metric -> float -> unit) -> unit
(** [journal_drain t f] calls [f ~cell ~session m total] for every
    journalled write, in write order, then empties the journal.  [cell]
    is an int naming the (session, metric) pair; [total] is the cell's
    current sum.  A cell written n times is reported n times. *)

val aggregate : t -> metric -> Stats.summary option
(** System-wide summary across sessions. *)

val aggregate_total : t -> metric -> float
(** System-wide sum: the cells' totals added in table order, bit-identical
    to the total of the {!aggregate} accumulator without building it. *)

val whitebox_samples : t -> int
(** Whitebox observations actually recorded — the instrumentation
    activity the overhead experiment charges for. *)

val chaos_session : int
(** Reserved pseudo-session id ([-1]) under which the chaos subsystem
    records {!Faults_injected} counts and {!Fault_recovery} times —
    faults belong to the run, not to any one connection. *)

val swarm_session : int
(** Reserved pseudo-session id ([-2]) under which the dispatcher and
    MANTTS admission control record many-session scale metrics:
    {!Sessions_open}, {!Sessions_refused}, {!Sessions_degraded},
    {!Demux_probes}, {!Table_occupancy} and {!Timewait_drops}.  All of
    them are deterministic functions of the schedule (probe counts, not
    wall-clock), so whitebox reports stay byte-identical across
    parallel-fleet replays. *)

val wire_session : int
(** Reserved pseudo-session id ([-3]) under which the wire-true data
    path records {!Wire_encodes}, {!Wire_decodes}, {!Wire_rejects},
    {!Wire_fused_sums} and {!Wire_pool_reuse} — the codec and buffer
    pool belong to the stack, not to any one connection. *)

val steer_session : int
(** Reserved pseudo-session id ([-4]) under which the STEER closed-loop
    policy engine records {!Steer_swaps}, {!Steer_blocked} and
    {!Steer_time_in_config} — the steering loop belongs to the stack,
    not to any one connection. *)

val attach_trace : t -> Trace.t -> unit
(** Attach a trace sink so {!report} presents its counters — including
    the dropped-entry count of the bounded event log — alongside the
    metric repository. *)

val attached_trace : t -> Trace.t option
(** The sink given to {!attach_trace}, if any. *)

val report : Format.formatter -> t -> unit
(** Per-session presentation of all collected metrics: a header line,
    then per session in id order a [session <id> (<name>):] line and one
    line per metric it holds ([n], mean, sd, min, p50, p95, p99, max),
    then the attached trace's counters.  Every line, the last included,
    ends in a newline, and none is indented by the formatter: the report
    starts at the formatter's current position, so print it at the
    start of a line (every caller in this repository does).  Sessions
    are rendered one at a time, each handed to the formatter whole. *)
