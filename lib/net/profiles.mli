(** Standard link and path profiles.

    §2.1(B) enumerates the network diversity ADAPTIVE must span: LANs
    from Token Ring to FDDI, 155/622 Mb/s ATM, copper vs fiber bit-error
    rates (~1e-7 vs ~1e-9 here, per bit), LAN/WAN diameters, and three
    interoperation environments — low-latency LANs, the congestion-prone
    Internet, and high-bandwidth high-latency B-ISDN WANs.  The paths
    below cover those environments with Ethernet, FDDI, T1/T3, ATM-155
    and satellite hops.  Each function returns {e fresh} links so
    concurrent scenarios never share queue state accidentally. *)

open Adaptive_sim

val fddi : unit -> Link.t
(** 100 Mb/s fiber ring, 4500-byte MTU. *)

val custom :
  ?name:string ->
  bandwidth_bps:float ->
  propagation:Time.t ->
  ?queue_pkts:int ->
  ?ber:float ->
  ?mtu:int ->
  unit ->
  Link.t
(** Escape hatch; same contract as {!Link.create}. *)

(** Ready-made end-to-end paths (hop lists), one per interoperation
    environment from §2.1(B). *)

val lan_path : unit -> Link.t list
(** Single Ethernet hop — low-utilization, low-latency LAN. *)

val campus_path : unit -> Link.t list
(** Ethernet → FDDI backbone → Ethernet. *)

val internet_path : unit -> Link.t list
(** Ethernet → T1 → T3 → T1 → Ethernet — congestion-prone, high-latency
    WAN. *)

val bisdn_path : unit -> Link.t list
(** Ethernet → three ATM-155 hops with 10 ms spans → Ethernet —
    high-bandwidth, high-latency public WAN. *)

val atm_lfn_path : unit -> Link.t list
(** Three ATM-155 spans with 10 ms propagation each and ATM access — a
    long fat network end to end (no slow access links). *)

val satellite_path : unit -> Link.t list
(** Ethernet → satellite hop → Ethernet. *)
