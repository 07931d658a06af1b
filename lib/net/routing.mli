(** Candidate-path routing with automatic failover.

    §4.1.2's implicit-reconfiguration triggers include "intermediate
    switching node failure" and "routing changes" — this module supplies
    the routing half: each host pair carries an ordered list of candidate
    paths, and a periodic monitor keeps the best {e live} candidate
    installed in the {!Topology}.  When a hop on the active path fails the
    route moves to the next live candidate (e.g. terrestrial → satellite);
    when a better candidate recovers, traffic fails back.  The MANTTS
    session monitors then observe the change through their
    [Route_changed] and delay conditions and adapt the transport
    configuration. *)

open Adaptive_sim

type t
(** A routing table over one topology. *)

val create : Engine.t -> Topology.t -> t
(** Routing state for a topology. *)

val set_symmetric_candidates :
  t -> a:Topology.addr -> b:Topology.addr -> Link.t list list -> unit
(** Register the ordered candidate paths between [a] and [b] (most
    preferred first; must be non-empty, as must each path) and install
    the first live candidate in each direction (or the first candidate
    when none is fully live).  Reverse paths use fresh full-duplex mirror
    links (see {!Topology.set_symmetric_route}). *)

val monitor : ?every:Time.t -> t -> Engine.Timer.timer
(** Every [every] (default 250 ms), scan each registered direction and
    install its best live candidate where it differs from the active
    one — the routing protocol's convergence loop.  Cancel the returned
    timer to stop. *)

val links : t -> Link.t list
(** Every link appearing in any registered candidate path (deduplicated
    by physical identity), including standby candidates not currently
    installed in the topology.  Fault injection uses this to partition a
    host pair: failing only {!Topology.links} would leave standby paths
    for the failover monitor to escape onto. *)

val failovers : t -> int
(** Route changes applied since creation (failovers and failbacks). *)

val log : t -> (Time.t * Topology.addr * Topology.addr * int) list
(** Every route change, oldest first: time, src, dst, new candidate
    index. *)
