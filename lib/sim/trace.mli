(** Lightweight event tracing and counting.

    UNITES' whitebox instrumentation is built on trace points: named
    counters plus an optional bounded log of recent events.  Counters are
    always cheap; the event log can be switched off entirely so that
    instrumentation overhead experiments can compare both modes. *)

type t
(** A trace sink. *)

val create : ?log_capacity:int -> unit -> t
(** [create ()] makes a sink.  [log_capacity] bounds the retained event log
    (default 4096; 0 disables logging while keeping counters). *)

val count : t -> string -> unit
(** Increment the named counter by one. *)

val event : t -> at:Time.t -> category:string -> detail:string -> unit
(** Increment the category counter and, if logging is enabled, append an
    entry (oldest entries are dropped once capacity is reached). *)

val counter : t -> string -> int
(** Current value of the named counter (0 if never incremented). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val dropped : t -> int
(** Events discarded from the bounded log: oldest entries evicted once
    [log_capacity] was reached, plus every event when logging is disabled
    ([log_capacity = 0]).  Counters and {!hash} still cover them. *)

val hash : t -> int64
(** FNV-1a digest of every event recorded so far ([at], [category] and
    [detail], in arrival order) — including events the bounded log has
    since evicted.  Two runs are replay-equal iff their hashes match. *)
