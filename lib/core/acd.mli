(** The ADAPTIVE Communication Descriptor (Table 2).

    The descriptor an application passes through the MANTTS-API when
    initiating a connection: remote participant address(es), quantitative
    and qualitative QoS parameters ({!Qos.t}), the Transport Service
    Adjustment (TSA) — ⟨condition, action⟩ pairs evaluated against
    run-time feedback — and the Transport Measurement Component (TMC)
    naming the metrics UNITES should collect for this session. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech

(** Run-time conditions a TSA rule can test (the "when" of §3(C)). *)
type condition =
  | Loss_rate_above of float  (** Observed loss fraction exceeds bound. *)
  | Rtt_above of Time.t  (** Smoothed RTT exceeds bound. *)
  | Rtt_below of Time.t  (** Smoothed RTT back under bound. *)
  | Congestion_above of float  (** Worst-hop utilization exceeds bound. *)
  | Congestion_below of float  (** Worst-hop utilization under bound. *)
  | Receivers_above of int  (** Multicast membership grew past bound. *)
  | Receivers_below of int  (** Membership shrank below bound. *)
  | Route_changed  (** The path's hop list changed since setup. *)
  | All_of of condition list  (** Every sub-condition holds. *)
  | Any_of of condition list  (** At least one sub-condition holds. *)

(** Reconfigurations a TSA rule can request (the "what"). *)
type action =
  | Switch_recovery of Params.recovery
  | Switch_reporting of Params.reporting
  | Switch_transmission of Params.transmission
  | Scale_rate of float  (** Multiply the pacer rate (inter-PDU gap
                             adjustment, §4.1.2). *)
  | Adjust_playout of Time.t  (** New playout target. *)
  | Notify_application of string  (** Fire the application callback. *)

type tsa_rule = { condition : condition; action : action; once : bool }
(** One adjustment pair; [once] rules disarm after firing (hysteresis
    pairs are written as two one-shot rules re-arming each other is not
    modeled — use [once = false] with opposing conditions instead). *)

type tmc = {
  collect : Unites.metric list;  (** Metrics to record for this session. *)
  sample_every : Time.t;  (** Sampling period for rate-like metrics. *)
}
(** Transport Measurement Component. *)

type t = {
  participants : Network.addr list;  (** Remote end system(s); several
                                         addresses request multicast. *)
  qos : Qos.t;  (** Quantitative + qualitative parameters. *)
  explicit_tsc : Tsc.t option;  (** Application-selected service class
                                    (skips Stage I). *)
  tsa : tsa_rule list;  (** Transport Service Adjustment. *)
  tmc : tmc;  (** Measurement requests. *)
}

val make :
  ?explicit_tsc:Tsc.t ->
  ?tsa:tsa_rule list ->
  ?tmc:tmc ->
  participants:Network.addr list ->
  qos:Qos.t ->
  unit ->
  t
(** Build a descriptor; the default TMC collects nothing beyond the
    always-on blackbox metrics, sampled once per second. *)

val default_tmc : tmc
(** Empty collection list, 1 s sampling. *)

val action_to_string : action -> string
(** Rendering used in reports and the Table 2 regeneration. *)

val table2 : (string * string * string) list
(** The rows of Table 2: parameter name, description, example specifiers —
    generated from this module so documentation and implementation cannot
    drift apart. *)
