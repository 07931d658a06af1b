open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type condition =
  | Loss_rate_above of float
  | Rtt_above of Time.t
  | Rtt_below of Time.t
  | Congestion_above of float
  | Congestion_below of float
  | Receivers_above of int
  | Receivers_below of int
  | Route_changed
  | All_of of condition list
  | Any_of of condition list

type action =
  | Switch_recovery of Params.recovery
  | Switch_reporting of Params.reporting
  | Switch_transmission of Params.transmission
  | Scale_rate of float
  | Adjust_playout of Time.t
  | Notify_application of string

type tsa_rule = { condition : condition; action : action; once : bool }
type tmc = { collect : Unites.metric list; sample_every : Time.t }

type t = {
  participants : Network.addr list;
  qos : Qos.t;
  explicit_tsc : Tsc.t option;
  tsa : tsa_rule list;
  tmc : tmc;
}

let default_tmc = { collect = []; sample_every = Time.sec 1.0 }

let make ?explicit_tsc ?(tsa = []) ?(tmc = default_tmc) ~participants ~qos () =
  if participants = [] then invalid_arg "Acd.make: no participants";
  { participants; qos; explicit_tsc; tsa; tmc }

let action_to_string = function
  | Switch_recovery r -> "switch recovery to " ^ Params.recovery_to_string r
  | Switch_reporting r -> "switch reporting to " ^ Params.reporting_to_string r
  | Switch_transmission x -> "switch transmission to " ^ Params.transmission_to_string x
  | Scale_rate f -> Printf.sprintf "scale rate by %.2f" f
  | Adjust_playout d -> "set playout target to " ^ Time.to_string d
  | Notify_application s -> "notify application: " ^ s

let table2 =
  [
    ( "Remote Session Participant Address(es)",
      "Specifies >= 1 addresses of remote end-systems that comprise the \
       communication association.",
      "unicast: [b]; multicast: [b; c; d]" );
    ( "Quantitative QoS Parameters",
      "Specifies the performance criteria requested by the application.",
      "peak and average throughput, minimum and maximum latency and jitter, \
       error-rate probabilities, duration" );
    ( "Qualitative QoS Parameters",
      "Specifies the functionality or behavior requested by the application.",
      "sequenced/non-sequenced delivery, duplicate sensitivity, \
       explicit/implicit connection management, priority delivery" );
    ( "Transport Service Adjustment (TSA)",
      "Actions to perform when changes occur in local or remote hosts or the \
       network.",
      "<congestion > 0.60, switch recovery to srepeat>; <rtt > 150ms, switch \
       recovery to fec:8>" );
    ( "Transport Measurement Component (TMC)",
      "Specifies performance metrics to collect for this particular \
       communication session.",
      "throughput_bps, delivery_latency_s, retransmissions; sampling rate 1s" );
  ]
