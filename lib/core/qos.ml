open Adaptive_sim

type t = {
  avg_bps : float;
  peak_bps : float;
  max_latency : Time.t option;
  max_jitter : Time.t option;
  loss_tolerance : float;
  ordered : bool;
  duplicate_sensitive : bool;
  realtime : bool;
  isochronous : bool;
  interactive : bool;
  multicast : bool;
  priority : bool;
  duration : Time.t option;
}

let default =
  {
    avg_bps = 1e6;
    peak_bps = 1e6;
    max_latency = None;
    max_jitter = None;
    loss_tolerance = 0.0;
    ordered = true;
    duplicate_sensitive = true;
    realtime = false;
    isochronous = false;
    interactive = false;
    multicast = false;
    priority = false;
    duration = None;
  }

type level = Very_low | Low | Moderate | High | Very_high | Not_defined

let level_to_string = function
  | Very_low -> "very-low"
  | Low -> "low"
  | Moderate -> "mod"
  | High -> "high"
  | Very_high -> "very-high"
  | Not_defined -> "N/D"

type levels = {
  throughput : level;
  burst_factor : level;
  delay_sensitivity : level;
  jitter_sensitivity : level;
  order_sensitivity : level;
  loss_tolerance_level : level;
}

let burst_ratio t = if t.avg_bps <= 0.0 then 1.0 else t.peak_bps /. t.avg_bps

let throughput_level bps =
  if bps < 20e3 then Very_low
  else if bps < 300e3 then Low
  else if bps < 5e6 then Moderate
  else if bps < 50e6 then High
  else Very_high

let burst_level ratio =
  if ratio < 1.5 then Low else if ratio < 4.0 then Moderate else High

let delay_level = function
  | None -> Low
  | Some bound ->
    if bound > Time.sec 1.0 then Low
    else if bound > Time.ms 400 then Moderate
    else High

let jitter_level = function
  | None -> Not_defined
  | Some bound ->
    if bound <= Time.ms 20 then High
    else if bound <= Time.ms 100 then Moderate
    else Low

let loss_level tolerance =
  if tolerance <= 0.0 then Not_defined (* printed as "none" *)
  else if tolerance < 0.005 then Low
  else if tolerance < 0.03 then Moderate
  else High

let levels t =
  {
    throughput = throughput_level t.avg_bps;
    burst_factor = burst_level (burst_ratio t);
    delay_sensitivity = delay_level t.max_latency;
    jitter_sensitivity = jitter_level t.max_jitter;
    order_sensitivity = (if t.ordered then High else Low);
    loss_tolerance_level = loss_level t.loss_tolerance;
  }
