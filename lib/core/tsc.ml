type t =
  | Interactive_isochronous
  | Distributional_isochronous
  | Realtime_non_isochronous
  | Non_realtime_non_isochronous

let classify (q : Qos.t) =
  if q.Qos.isochronous then
    if q.Qos.interactive then Interactive_isochronous else Distributional_isochronous
  else if q.Qos.realtime then Realtime_non_isochronous
  else Non_realtime_non_isochronous

let name = function
  | Interactive_isochronous -> "Interactive Isochronous"
  | Distributional_isochronous -> "Distributional Isochronous"
  | Realtime_non_isochronous -> "Real-Time Non-Isochronous"
  | Non_realtime_non_isochronous -> "Non-Real-Time Non-Isochronous"

type policies = {
  full_reliability : bool;
  bounded_latency : bool;
  playout_smoothing : bool;
  rate_paced : bool;
  fast_setup : bool;
  multicast_capable : bool;
  congestion_responsive : bool;
  priority_scheduling : bool;
}

let policies t (q : Qos.t) =
  match t with
  | Interactive_isochronous ->
    {
      full_reliability = q.Qos.loss_tolerance <= 0.0;
      bounded_latency = true;
      playout_smoothing = true;
      rate_paced = true;
      fast_setup = true;
      multicast_capable = q.Qos.multicast;
      congestion_responsive = false;
      priority_scheduling = q.Qos.priority;
    }
  | Distributional_isochronous ->
    {
      full_reliability = q.Qos.loss_tolerance <= 0.0;
      bounded_latency = true;
      playout_smoothing = true;
      rate_paced = true;
      fast_setup = false;
      multicast_capable = q.Qos.multicast;
      congestion_responsive = false;
      priority_scheduling = q.Qos.priority;
    }
  | Realtime_non_isochronous ->
    {
      full_reliability = q.Qos.loss_tolerance <= 0.0;
      bounded_latency = true;
      playout_smoothing = false;
      rate_paced = false;
      fast_setup = true;
      multicast_capable = q.Qos.multicast;
      congestion_responsive = false;
      priority_scheduling = true;
    }
  | Non_realtime_non_isochronous ->
    {
      full_reliability = true;
      bounded_latency = (match q.Qos.max_latency with Some _ -> true | None -> false);
      playout_smoothing = false;
      rate_paced = false;
      fast_setup = q.Qos.interactive;
      multicast_capable = q.Qos.multicast;
      congestion_responsive = true;
      priority_scheduling = q.Qos.priority;
    }

let pp fmt t = Format.pp_print_string fmt (name t)
