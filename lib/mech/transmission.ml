open Adaptive_sim

(* All-float records store their floats flat, so updating the pacer and
   the congestion window allocates nothing.  Each exists while bound. *)
type pacer = {
  mutable rate : float; (* bytes per second *)
  burst : float; (* bucket depth, bytes *)
  mutable tokens : float; (* bytes *)
  mutable last : float; (* the last refill, nanoseconds *)
}

type window = {
  mutable cwnd : float; (* segments *)
  initial : float; (* the window at start and after a loss *)
  mutable threshold : float; (* a whole number of segments *)
}

type t = {
  mutable scheme : Params.transmission;
  mutable pacer : pacer option; (* bound iff the scheme is rate-based *)
  mutable cc : window option; (* bound iff slow start is *)
  mutable peer_window : int; (* the peer's last advertisement, segments *)
  mutable pump : Engine.handle option; (* pending deferred departure *)
}

let runnable scheme congestion =
  (match scheme with
  | Params.Rate_based { rate_bps; burst } ->
    Float.is_finite rate_bps && rate_bps >= 1.0 && burst > 0
  | Params.Stop_and_wait | Params.Sliding_window _ -> true)
  &&
  match congestion with
  | Params.Slow_start { initial; threshold } -> initial >= 1 && threshold >= 1
  | Params.No_congestion_control -> true

let rebind t scheme congestion ~segment_bytes =
  if not (runnable scheme congestion) then invalid_arg "Transmission: unrunnable scheme";
  (match (scheme, t.pacer) with
  | Params.Rate_based { rate_bps; _ }, Some p -> p.rate <- rate_bps /. 8.0
  | Params.Rate_based { rate_bps; burst }, None ->
    let burst = float_of_int (burst * segment_bytes) in
    t.pacer <- Some { rate = rate_bps /. 8.0; burst; tokens = burst; last = 0.0 }
  | (Params.Stop_and_wait | Params.Sliding_window _), _ -> t.pacer <- None);
  t.scheme <- scheme;
  match (congestion, t.cc) with
  | Params.Slow_start _, Some _ -> ()
  | Params.Slow_start { initial; threshold }, None ->
    let initial = float_of_int initial in
    t.cc <- Some { cwnd = initial; initial; threshold = float_of_int threshold }
  | Params.No_congestion_control, _ -> t.cc <- None

let create scheme congestion ~segment_bytes ~peer_window =
  let t = { scheme; pacer = None; cc = None; peer_window; pump = None } in
  rebind t scheme congestion ~segment_bytes;
  t

let segments w = max 1 (int_of_float w.cwnd)

let on_ack t ~window ~acked =
  t.peer_window <- max 1 window;
  match t.cc with
  | None -> ()
  | Some w ->
    for _ = 1 to acked do
      if float_of_int (segments w) < w.threshold then w.cwnd <- w.cwnd +. 1.0
      else w.cwnd <- w.cwnd +. (1.0 /. Float.max 1.0 w.cwnd)
    done

let on_loss t =
  match t.cc with
  | None -> ()
  | Some w ->
    w.threshold <- float_of_int (max 2 (segments w / 2));
    w.cwnd <- w.initial

let send_window t =
  match t.scheme with
  | Params.Rate_based _ -> max_int
  | Params.Stop_and_wait -> 1
  | Params.Sliding_window { window } ->
    let cc_bound = match t.cc with Some w -> segments w | None -> max_int in
    max 1 (min window (min t.peer_window cc_bound))

type gate = Send | Deferred | Blocked

let admit t engine ~in_flight ~bytes handler x =
  if in_flight >= send_window t then Blocked
  else
    match t.pacer with
    | None -> Send
    | Some p ->
      let now = Engine.now engine in
      (* Nanosecond counts are exact as floats below 2^53 ns, 104 days. *)
      let now_ns = float_of_int now in
      if now_ns > p.last then begin
        (* [Time.to_sec], written out: a float returned across modules
           is boxed when cross-module inlining is off. *)
        let dt = (now_ns -. p.last) /. 1e9 in
        p.tokens <- Float.min p.burst (p.tokens +. (dt *. p.rate));
        p.last <- now_ns
      end;
      let need = float_of_int bytes -. p.tokens in
      let at = if need <= 0.0 then now else Time.add now (Time.sec (need /. p.rate)) in
      if at <= now then begin
        p.tokens <- p.tokens -. float_of_int bytes;
        Send
      end
      else begin
        (match t.pump with
        | Some h when Engine.is_pending h -> ()
        | Some _ | None ->
          t.pump <-
            Some
              (Engine.schedule engine ~at (fun () ->
                   t.pump <- None;
                   handler x)));
        Deferred
      end

let backlog_delay t ~bytes =
  match t.pacer with
  | Some p when bytes > 0 -> Time.of_rate ~bits:(bytes * 8) ~bps:(p.rate *. 8.0)
  | Some _ | None -> Time.zero

let release t =
  Option.iter Engine.cancel t.pump;
  t.pump <- None
