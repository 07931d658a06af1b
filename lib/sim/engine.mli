(** Discrete-event simulation engine.

    The engine owns the simulated clock and an event queue.  Everything in
    the reproduction — packet arrivals, retransmission timers, congestion
    phase changes, application traffic — runs as events scheduled here.
    Events at the same instant fire in scheduling order, so runs are fully
    deterministic.

    Internally the queue is a hierarchical timer wheel (O(1) insert and
    cancel for the short-horizon timers that dominate transport
    workloads) backed by a binary-heap overflow tier for far-future
    events; see the implementation notes in [engine.ml] and the
    "Simulator engine internals" section of DESIGN.md.  The [`Heap]
    backend bypasses the wheel and runs everything through one heap — it
    exists as the reference the equivalence property tests compare
    against.

    The {!Timer} submodule is the analog of the paper's [TKO_Event] class:
    one-shot or periodic timers that can be scheduled, cancelled, and
    rescheduled ([TKO_Event::schedule] / [expire] / [cancel]).  A timer
    owns one closure for its whole life and takes a recycled event slot
    per expiry, so re-arming it — the hot operation of every
    retransmission and acknowledgment path — allocates nothing. *)

type t
(** A simulation engine instance. *)

type handle
(** A cancellable reference to a scheduled event. *)

val create : ?backend:[ `Wheel | `Heap ] -> unit -> t
(** Fresh engine with the clock at {!Time.zero} and no pending events.
    [backend] (default [`Wheel]) selects the queue organization; both
    fire identical event sequences. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] arranges for [f ()] to run at simulated time [at].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f]. *)

val schedule_anon : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule_anon t ~at f] is {!schedule} without a handle: the event
    cannot be cancelled or queried, and nothing is allocated for it.  Use
    on fire-and-forget hot paths (per-PDU deliveries, ingress dispatch)
    where the handle of {!schedule} would otherwise be allocated per
    packet. *)

val cancel : handle -> unit
(** Prevent the event from firing.  Cancelling a fired or already-cancelled
    event is a no-op.  Wheel-resident events are unlinked in O(1);
    heap-resident ones die lazily and are compacted out once they exceed
    half their tier. *)

val is_pending : handle -> bool
(** [true] until the event fires or is cancelled. *)

val step : t -> bool
(** Run the earliest pending event, advancing the clock to it.  Returns
    [false] when no event is pending. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run events in time order until the queue is empty, the clock would
    pass [until], or [max_events] have fired. *)

val pending_events : t -> int
(** Number of scheduled (uncancelled) events. *)

val next_deadline : t -> Time.t option
(** Deadline of the earliest pending event, or [None] when the queue is
    empty.  Does not advance the clock or fire anything.  SHARD's
    skip-empty-window fast path uses this to jump the barrier clock over
    spans where no partition has work. *)

val events_fired : t -> int
(** Total events executed since creation. *)

(** Scheduler whitebox counters, reported through UNITES alongside the
    transport metrics so experiments can see scheduler overhead. *)
type counters = {
  events_fired : int;  (** Events executed. *)
  timers_rearmed : int;  (** {!Timer} re-arms, each reusing the timer's closure. *)
  wheel_inserts : int;  (** Events enqueued into a wheel slot. *)
  ready_inserts : int;  (** Events enqueued straight into the ready heap. *)
  overflow_inserts : int;  (** Events beyond the wheel horizon. *)
  wheel_cancels : int;  (** O(1) unlink cancellations. *)
  lazy_cancels : int;  (** Cancellations left to die in a heap tier. *)
  cascades : int;  (** Level-1 slot redistributions into level 0. *)
  compactions : int;  (** Eager sweeps of cancelled heap entries. *)
  dead_entries : int;  (** Cancelled entries currently awaiting sweep. *)
  event_slots : int;
      (** Capacity of the event slab: it grows only when more events are
          pending at once than it holds, since fired and cancelled events
          free their slots for reuse. *)
}

val counters : t -> counters
(** Snapshot of the scheduler's whitebox counters. *)

val wheel_hit_rate : t -> float
(** Fraction of inserts served by a wheel slot (0 when nothing was
    inserted) — the wheel-vs-heap hit rate. *)

val cancelled_ratio : t -> float
(** Cancelled-but-unswept entries as a fraction of the queued population
    (0 when the queue is empty). *)

(** One-shot and periodic timers — the [TKO_Event] analog. *)
module Timer : sig
  type timer
  (** A timer bound to an engine. *)

  val one_shot : t -> delay:Time.t -> (unit -> unit) -> timer
  (** Fire once after [delay]. *)

  val periodic : t -> interval:Time.t -> (unit -> unit) -> timer
  (** Fire every [interval] until cancelled.  [interval] must be
      positive. *)

  val cancel : timer -> unit
  (** Stop the timer; idempotent. *)

  val reschedule : timer -> delay:Time.t -> unit
  (** Cancel any pending expiry and arm the timer to fire once after
      [delay] (for periodic timers the period resumes afterwards).
      Reuses the timer's closure and, while an expiry is pending, its
      event slot — no allocation. *)

  val restart : t -> timer option -> delay:Time.t -> ('a -> unit) -> 'a -> timer option
  (** [restart engine cell ~delay handler x] arms the one-shot timer held
      in [cell] to run [handler x] after [delay], creating it on first use,
      and returns the cell to store back.  The closure is built only when
      the timer is created, so a re-arm allocates nothing. *)

  val pending : timer option -> bool
  (** [pending cell]: the cell holds a timer that still has a pending
      expiry — the test a {!restart} cell needs before arming.  Inside
      the timer's own callback it is [false]. *)

  val expirations : timer -> int
  (** Number of times the timer has fired. *)
end
