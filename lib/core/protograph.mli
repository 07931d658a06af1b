(** Protocol graphs — the TKO protocol architecture level (§4.2.1).

    The [TKO_Protocol] class provides "management operations for
    manipulating protocol graphs (which express the relationships between
    various protocol objects)".  A {!t} is that graph: layers as nodes,
    uses-the-service-of edges pointing downward.  Graphs are edited at
    run time (insert, remove, re-route) and validated for acyclicity.

    Each layer declares the per-traversal costs the session architecture
    must pay when a PDU crosses it: header and trailer bytes, buffer
    copies, and fixed processing time.  {!stack_overhead} folds a
    resolved path into the numbers the rest of the system consumes — the
    header allowance MANTTS subtracts from the MTU and the host cost
    model behind the §2.2(A) throughput-preservation experiments.  The
    contrast between a conventional copy-per-layer stack and ADAPTIVE's
    flat, zero-copy session composition is the "is layering harmful"
    argument the paper cites. *)

open Adaptive_sim
open Adaptive_mech

type layer = {
  name : string;  (** Unique within a graph. *)
  header_bytes : int;  (** Prepended per PDU. *)
  trailer_bytes : int;  (** Appended per PDU. *)
  copies : int;  (** Memory-to-memory copies per traversal. *)
  per_packet : Time.t;  (** Fixed processing per PDU. *)
}

val layer :
  ?header:int -> ?trailer:int -> ?copies:int -> ?per_packet:Time.t -> string -> layer
(** Convenience constructor; everything defaults to zero. *)

type t
(** A mutable protocol graph. *)

val create : unit -> t
(** Empty graph. *)

val add_layer : t -> layer -> (unit, string) result
(** Insert a node; fails on duplicate names. *)

val remove_layer : t -> string -> (unit, string) result
(** Remove a node and every edge touching it; fails if absent. *)

val connect : t -> upper:string -> lower:string -> (unit, string) result
(** Add a uses-service-of edge; fails on unknown layers, self-edges, or
    edges that would create a cycle. *)

val insert_between :
  t -> layer -> upper:string -> lower:string -> (unit, string) result
(** The classic graph edit: splice a new layer into an existing edge
    (e.g. adding an encryption or compression filter). *)

val layers : t -> layer list
(** All nodes, in insertion order. *)

val lowers : t -> string -> string list
(** Services a layer uses, in edge-insertion order. *)

val uppers : t -> string -> string list
(** Layers using this one's service. *)

val path : t -> from_:string -> to_:string -> layer list option
(** A downward path (first found, depth-first in edge order), inclusive
    of both endpoints. *)

type overhead = {
  header_total : int;  (** Sum of headers along the path. *)
  trailer_total : int;  (** Sum of trailers. *)
  copy_total : int;  (** Copies a PDU suffers end to end. *)
  processing : Time.t;  (** Fixed per-PDU processing. *)
}

val stack_overhead : layer list -> overhead
(** Fold a resolved path into its per-PDU costs. *)

val host_model : ?per_byte_copy:Time.t -> Engine.t -> layer list -> Host.t
(** Host CPU cost model implied by a stack: per-packet time is the sum of
    layer processing, and every copy charges [per_byte_copy] (default
    25 ns) per byte. *)

val conventional_stack : unit -> t
(** The §2.2 strawman: application / transport / network / driver, one
    buffer copy and classic header at every boundary. *)

val adaptive_stack : unit -> t
(** The flat composition this system argues for: application /
    adaptive-session / driver, with shared (zero-copy) buffers between
    them. *)
