(** Hosts and routes.

    A topology names the end systems and records, for each ordered host
    pair, the current route: the list of {!Link.t} hops a packet crosses.
    Routes are mutable so that experiments can model routing changes
    (e.g. §4.1.2's terrestrial-to-satellite failover) with
    {!set_route}. *)

type addr = int
(** A host address: {!add_host} numbers hosts from 0.  Routes are keyed
    by [Inttbl.pair], so {!set_route} and {!route} raise
    [Invalid_argument] on an address outside [\[0, 2{^31})]. *)

type t
(** A topology instance. *)

val create : unit -> t
(** An empty topology. *)

val add_host : t -> string -> addr
(** Register a host and return its address. *)

val set_route : t -> src:addr -> dst:addr -> Link.t list -> unit
(** Install (or replace) the route from [src] to [dst].  The empty list is
    rejected. *)

val set_symmetric_route : t -> a:addr -> b:addr -> Link.t list -> unit
(** Install the hop list from [a] to [b], and a reverse route from [b] to
    [a] built from fresh {e mirror} links with identical parameters (links
    are full-duplex: each direction has its own queue and transmitter).
    Callers keep handles only to the forward links — congestion or
    failure injected there affects the [a]→[b] direction, which is what
    experiments drive. *)

val generation : t -> int
(** Configuration generation of this topology: the number of route edits
    plus the {!Link.generation} of every link a route has held.  Any route
    edit or routed-link mutation moves it; a mutation of a link that no
    route of this topology has held does not.  Layers that memoize values
    derived from paths (e.g. the MANTTS synthesis memo) compare
    generations to invalidate. *)

val route : t -> src:addr -> dst:addr -> Link.t list option
(** Current route, if one is installed. *)

val path_mtu : t -> src:addr -> dst:addr -> int option
(** Smallest hop MTU along the current route. *)

val mirror_link : Link.t -> Link.t
(** A fresh link with the same parameters (the reverse half of a
    full-duplex hop). *)
