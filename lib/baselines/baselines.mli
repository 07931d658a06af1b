(** Monolithic baseline protocols.

    The statically configured comparators of §2.2(B): protocol stacks
    whose mechanisms are fixed at "link time" regardless of the
    application's requirements or the network's characteristics.  They
    are built from the same mechanism repository as ADAPTIVE-synthesized
    sessions — only the {e configuration} differs — so experiments
    measure configuration policy, not implementation quality.

    [Tcp_like] is the general-purpose reliable byte stream (three-way
    handshake, 64 KiB-equivalent fixed window, slow start, go-back-n,
    cumulative acks).  [Tp4_like] is the ISO class-4 style full-reliability
    stack — the canonical {e overweight} choice for loss-tolerant media.
    [Udp_like] is the bare datagram service — the canonical
    {e underweight} choice for anything needing reliability, ordering or
    multicast coordination. *)

open Adaptive_net
open Adaptive_core

type kind = Tcp_like | Tp4_like | Udp_like

val connect :
  ?name:string ->
  ?on_deliver:(Session.t -> Session.delivery -> unit) ->
  Session.Dispatcher.dispatcher ->
  peers:Network.addr list ->
  kind ->
  Session.t
(** Open a baseline session: no Stage I/II transformation, no monitor, a
    statically bound context that refuses segue.  Multicast peers are
    accepted but each baseline treats them as it historically would —
    TCP/TP4 have no multicast support, so callers model group delivery as
    N separate unicast connections. *)
