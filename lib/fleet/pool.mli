(** A bounded work-queue domain pool with futures.

    FLEET's execution substrate: [jobs] OCaml 5 domains pull thunks off
    a bounded queue; {!submit} returns a {!future} that {!await} blocks
    on, re-raising the task's exception (with its backtrace) if it
    failed.  Tasks must be self-contained — a campaign task builds its
    own [Engine]/[Rng]/[Buf.Pool]/[Unites] instances and shares no
    simulator state — so the pool never serializes anything but the
    queue itself.

    With [jobs <= 1] no domain is spawned and [submit] runs the thunk
    inline: [--jobs 1] is exactly the sequential path, which is what
    parallel runs are checked byte-for-byte against. *)

type t
(** A pool; owns its worker domains until {!with_pool} shuts it down. *)

type 'a future
(** The eventual result of a submitted task. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Blocks while the queue is at its bound.  Raises
    [Invalid_argument] once the pool is shut down. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception with the original backtrace. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises: every queued task runs to
    completion, then the workers are joined.  The pool spawns [jobs]
    worker domains when [jobs > 1], none otherwise, and bounds its
    backlog of accepted thunks at [4 * jobs]; a full queue makes
    {!submit} block, so memory for an enormous campaign stays
    proportional to [jobs], not to the campaign.  [jobs] must be
    positive ([Invalid_argument]). *)
