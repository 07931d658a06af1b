(** Connection management — the first mechanism of a TKO session
    context (§4.2), beside transmission control and reliability
    management.

    One value per endpoint holds the handshake and release state
    machine: the endpoint state, the peers whose answer to a connection
    request is still awaited, the request retry schedule and its give-up
    rule, and the wait for a release's answer.  The scheme comes from
    the SCS's [connection] field: implicit set-up makes an endpoint
    usable at once, and a two-way or three-way handshake waits for every
    peer's answer, with only three-way confirming each answer.

    The mechanism does no PDU I/O.  The session interpreter sends the
    PDUs and asks it what follows.  Its two timers run [handler x] for a
    handler and endpoint the caller passes separately, so each timer
    builds its closure once and re-arming allocates nothing. *)

open Adaptive_sim

type state = Opening | Established | Closing | Closed

type t
(** One endpoint's connection-management state. *)

val create : Params.connection -> t
(** A fresh [Opening] endpoint under the given scheme. *)

val rebind : t -> Params.connection -> unit
(** Segue to another scheme; the state and pending peers carry over. *)

val state : t -> state

val pending : t -> int list
(** Peers that have not yet answered the connection request. *)

(** {2 Set-up} *)

val accept : t -> unit
(** Passive open: the responder is [Established] from creation. *)

val start : t -> peers:int list -> bool
(** Active open toward [peers].  [true] when the scheme needs a
    handshake, and [peers] are then pending; [false] under implicit
    set-up, where the endpoint is usable at once. *)

val invite : t -> int -> unit
(** One more peer must answer (multicast membership growth).  It joins
    the round under way, or starts one with a fresh retry count. *)

val forget : t -> int -> bool
(** Stop waiting for a peer's answer (multicast membership removal).
    [true] once no peer is pending, as for {!answered}; the request
    timer is then stopped. *)

val await_answer :
  t -> Engine.t -> initial_rto:Time.t -> ('a -> unit) -> 'a -> unit
(** A connection request just went out: run [handler x] after
    [initial_rto] unless every pending peer answers first. *)

type timeout =
  | Resend  (** Retry the request to the pending peers. *)
  | Give_up  (** The retries are spent: give the pending peers up. *)

val request_timeout : t -> timeout
(** What the request timer's expiry means; counts the retry.  The fifth
    retry is the last: an initiator sends six requests, one
    [initial_rto] apart, and gives up at the sixth expiry. *)

val answered : t -> from:int -> bool
(** [from] accepted the request.  [true] once no peer is pending, and
    the request timer is then stopped. *)

val confirms : t -> bool
(** Whether each accepted answer is confirmed with an [Ack_of_syn]:
    only under a three-way handshake. *)

val establish : t -> bool
(** Move an [Opening] endpoint to [Established]; [true] when it moved. *)

(** {2 Release} *)

val closing : t -> unit
(** A graceful release began: [Closing] until the data drains. *)

val await_fin_ack : t -> Engine.t -> rto:Time.t -> ('a -> unit) -> 'a -> unit
(** A [Fin] just went out: run [handler x] (the close) after one [rto]
    unless the [Fin_ack] arrives first. *)

val release : t -> bool
(** The endpoint is [Closed]: stop both timers.  [true] when it was not
    already closed. *)
