open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type policy = {
  loss_hi : float;
  loss_lo : float;
  fec_loss_hi : float;
  fec_group : int;
  cong_hi : float;
  cong_lo : float;
  idle_after : Time.t;
  debounce : int;
}

let default_policy =
  {
    loss_hi = 0.05;
    loss_lo = 0.01;
    fec_loss_hi = 0.15;
    fec_group = 8;
    cong_hi = 0.85;
    cong_lo = 0.40;
    idle_after = Time.sec 1.0;
    debounce = 2;
  }

type watch = {
  w_session : Session.t;
  w_base : Scs.t;  (* configuration at watch time — the restore target *)
  w_loss_tolerant : bool;
  mutable w_dead : bool;
  mutable w_since : Time.t;  (* when the current configuration was entered *)
  mutable w_last_swap : Time.t;  (* local cooldown floor (sessions without
                                    a MANTTS monitor record still debounce) *)
  mutable w_loss_streak : int;
  mutable w_calm_streak : int;
  mutable w_cong_streak : int;
  mutable w_decong_streak : int;
  mutable w_backlog_streak : int;
  mutable w_idle_since : Time.t option;
  mutable w_shed : bool;
}

type t = {
  mantts : Mantts.t;
  engine : Engine.t;
  unites : Unites.t;
  net : Pdu.t Network.t;
  pol : policy;
  mutable arr : watch option array;
  mutable len : int;
  mutable dead : int;
  mutable timer : Engine.Timer.timer option;
  mutable n_swaps : int;
  mutable n_blocked : int;
}

let create ?(policy = default_policy) mantts =
  let unites = Mantts.unites mantts in
  Unites.register_session unites ~id:Unites.steer_session ~name:"steer";
  {
    mantts;
    engine = Mantts.engine mantts;
    unites;
    net = Mantts.network mantts;
    pol = policy;
    arr = Array.make 16 None;
    len = 0;
    dead = 0;
    timer = None;
    n_swaps = 0;
    n_blocked = 0;
  }

let swap_count t = t.n_swaps
let blocked_count t = t.n_blocked

let compact t =
  if t.dead > 16 && t.dead * 2 > t.len then begin
    let w = ref 0 in
    for r = 0 to t.len - 1 do
      match t.arr.(r) with
      | Some watch when not watch.w_dead ->
        t.arr.(!w) <- t.arr.(r);
        incr w
      | Some _ | None -> ()
    done;
    for i = !w to t.len - 1 do
      t.arr.(i) <- None
    done;
    t.len <- !w;
    t.dead <- 0
  end

(* ------------------------------------------------------------------ *)
(* Signals *)

(* Path whitebox: worst cross traffic (a sender must not read its own
   queueing as a reason to back off) and worst hop BER along the
   session's routes.  The BER matters because a session with no recovery
   machinery never retransmits, so its {!Session.loss_rate_estimate} is
   stuck at zero — exactly the sessions a bit-error burst silently
   bleeds.  The per-tick cache keeps a 10k-watch population from
   re-walking the same route 10k times. *)
let path_signals t cache watch =
  let src = Session.local_addr watch.w_session in
  List.fold_left
    (fun acc dst ->
      let hops =
        let key = Inttbl.pair src dst in
        match Inttbl.find_opt cache key with
        | Some hops -> hops
        | None ->
          let hops = Network.path_state t.net ~src ~dst in
          Inttbl.replace cache key hops;
          hops
      in
      List.fold_left
        (fun (util, ber) (h : Network.hop_state) ->
          (Float.max util h.Network.cross_traffic, Float.max ber h.Network.hop_ber))
        acc hops)
    (0.0, 0.0)
    (Session.peers watch.w_session)

(* Expected per-segment corruption probability at this session's segment
   size — the loss a silent (no-feedback) configuration is suffering
   without being able to report it. *)
let predicted_segment_loss watch ~ber =
  if ber <= 0.0 then 0.0
  else
    let bits = float_of_int (8 * (Session.scs watch.w_session).Scs.segment_bytes) in
    1.0 -. ((1.0 -. ber) ** bits)

(* ------------------------------------------------------------------ *)
(* Rule evaluation — at most one candidate per session per tick *)

let recovery_name = Params.recovery_to_string
let reporting_name = Params.reporting_to_string

(* Upgrade the feedback channel alongside selective repeat: retransmitting
   exactly the missing segments needs the receiver to say which ones. *)
let selective_reporting = function
  | Params.Cumulative_ack { delay } -> Params.Selective_ack { delay }
  | (Params.No_report | Params.Selective_ack _ | Params.Nack_on_gap) as r -> r

let candidate t watch ~loss ~util ~idle_for =
  let cur = Session.scs watch.w_session in
  let pol = t.pol in
  let arq r = r = Params.Go_back_n || r = Params.Selective_repeat in
  if watch.w_shed && not (idle_for <> None) then
    (* Activity resumed: bring the base machinery back immediately. *)
    Some
      ( Printf.sprintf "switch recovery to %s (steer: active again)"
          (recovery_name watch.w_base.Scs.recovery),
        { cur with
          Scs.recovery = watch.w_base.Scs.recovery;
          reporting = watch.w_base.Scs.reporting;
        },
        fun () -> watch.w_shed <- false )
  else if
    (not watch.w_shed)
    && (match idle_for with Some d -> d >= pol.idle_after | None -> false)
  then
    if watch.w_loss_tolerant && cur.Scs.recovery <> Params.No_recovery then
      Some
        ( "switch recovery to none (steer: idle shed)",
          { cur with Scs.recovery = Params.No_recovery; reporting = Params.No_report },
          fun () -> watch.w_shed <- true )
    else if (not watch.w_loss_tolerant) && cur.Scs.recovery = Params.Selective_repeat
    then
      (* Semantics-preserving shed: both ARQ schemes guarantee delivery,
         go-back-n just keeps less per-segment bookkeeping. *)
      Some
        ( "switch recovery to go_back_n (steer: idle shed)",
          { cur with Scs.recovery = Params.Go_back_n },
          fun () -> watch.w_shed <- true )
    else None
  else if watch.w_shed then None
  else if
    watch.w_loss_tolerant && watch.w_loss_streak >= pol.debounce
    && cur.Scs.recovery = Params.No_recovery
  then
    (* An unprotected loss-tolerant session bleeding segments.  Default
       to selective repeat — retransmission recovers everything a parity
       scheme only recovers sometimes — but take inline FEC where a
       retransmission works against the stream: into a congested path
       (every resend is another ticket in the drop lottery), and for
       playout streams, whose repairs race a deadline while parity
       arrives in-band with the group it protects. *)
    if
      (util > pol.cong_hi && loss > pol.fec_loss_hi)
      || (Session.context watch.w_session).Tko.playout <> None
    then
      Some
        ( Printf.sprintf "switch recovery to fec/%d (steer: loss %.3f, unprotected)"
            pol.fec_group loss,
          { cur with
            Scs.recovery = Params.Forward_error_correction { group = pol.fec_group };
          },
          fun () -> () )
    else
      Some
        ( Printf.sprintf
            "switch recovery to selective_repeat (steer: loss %.3f, unprotected)"
            loss,
          { cur with
            Scs.recovery = Params.Selective_repeat;
            reporting =
              (match cur.Scs.reporting with
              | Params.No_report | Params.Nack_on_gap ->
                Params.Selective_ack { delay = Time.ms 2 }
              | (Params.Cumulative_ack _ | Params.Selective_ack _) as r ->
                selective_reporting r);
          },
          fun () -> () )
  else if
    watch.w_loss_tolerant && watch.w_loss_streak >= pol.debounce
    && loss > pol.fec_loss_hi && arq cur.Scs.recovery
    && (util > pol.cong_hi
       || (Session.context watch.w_session).Tko.playout <> None)
  then
    (* ARQ → FEC where retransmission works against the stream: repairs
       for a playout stream race a deadline parity never misses, and
       repairs into a congested path amplify the very overload dropping
       them. *)
    Some
      ( Printf.sprintf "switch recovery to fec/%d (steer: burst loss %.3f > %.3f)"
          pol.fec_group loss pol.fec_loss_hi,
        { cur with
          Scs.recovery = Params.Forward_error_correction { group = pol.fec_group };
        },
        fun () -> () )
  else if
    watch.w_loss_streak >= pol.debounce && cur.Scs.recovery = Params.Go_back_n
  then
    (* Go-back-n under sustained loss floods the path with redundant
       resends and parks the window on the oldest gap.  Swap to selective
       repeat, and open the window in the same segue (one swap, one
       cooldown charge): under loss, in-flight-but-lost segments pin
       window slots, so the derived size starves first transmissions. *)
    let transmission =
      match (cur.Scs.transmission, watch.w_base.Scs.transmission) with
      | Params.Sliding_window { window }, Params.Sliding_window { window = bw }
        when window < 4 * bw ->
        Params.Sliding_window { window = min (4 * bw) (2 * window) }
      | (t : Params.transmission), _ -> t
    in
    Some
      ( Printf.sprintf
          "switch recovery to selective_repeat (steer: loss %.3f > %.3f)" loss
          pol.loss_hi,
        { cur with
          Scs.recovery = Params.Selective_repeat;
          reporting = selective_reporting cur.Scs.reporting;
          transmission;
        },
        fun () -> () )
  else if
    watch.w_calm_streak >= pol.debounce
    && (cur.Scs.recovery <> watch.w_base.Scs.recovery
       || cur.Scs.reporting <> watch.w_base.Scs.reporting)
  then
    Some
      ( Printf.sprintf "switch recovery to %s/%s (steer: calm, loss %.3f < %.3f)"
          (recovery_name watch.w_base.Scs.recovery)
          (reporting_name watch.w_base.Scs.reporting)
          loss pol.loss_lo,
        { cur with
          Scs.recovery = watch.w_base.Scs.recovery;
          reporting = watch.w_base.Scs.reporting;
        },
        fun () -> () )
  else if
    watch.w_backlog_streak >= pol.debounce && util < pol.cong_hi
    &&
    match (cur.Scs.transmission, watch.w_base.Scs.transmission) with
    | Params.Sliding_window { window }, Params.Sliding_window { window = bw } ->
      window < 4 * bw
    | _, _ -> false
  then (
    (* The send queue has been backlogged for consecutive ticks while the
       path sits idle: the window, not the network, is the bottleneck.
       Open it (bounded at 4x the derived size) so the session drains
       before its close instead of abandoning the tail of its payload. *)
    match cur.Scs.transmission with
    | Params.Sliding_window { window } ->
      Some
        ( Printf.sprintf "scale window to %d (steer: backlog, path idle %.2f)"
            (2 * window) util,
          { cur with Scs.transmission = Params.Sliding_window { window = 2 * window } },
          fun () -> () )
    | Params.Rate_based _ | Params.Stop_and_wait -> None)
  else if watch.w_cong_streak >= pol.debounce then
    match (cur.Scs.transmission, watch.w_base.Scs.transmission) with
    | Params.Rate_based { rate_bps; burst }, base ->
      let base_rate =
        match base with Params.Rate_based { rate_bps = b; _ } -> b | _ -> rate_bps
      in
      let next = Float.max (0.25 *. base_rate) (0.5 *. rate_bps) in
      if Float.abs (next -. rate_bps) < 1.0 then None
      else
        Some
          ( Printf.sprintf "scale rate to %.0f bps (steer: congestion %.2f > %.2f)"
              next util pol.cong_hi,
            { cur with Scs.transmission = Params.Rate_based { rate_bps = next; burst } },
            fun () -> () )
    | Params.Sliding_window { window }, _ ->
      if window <= 2 then None
      else
        Some
          ( Printf.sprintf "scale window to %d (steer: congestion %.2f > %.2f)"
              (max 2 (window / 2)) util pol.cong_hi,
            { cur with Scs.transmission = Params.Sliding_window { window = max 2 (window / 2) } },
            fun () -> () )
    | Params.Stop_and_wait, _ -> None
  else if watch.w_decong_streak >= pol.debounce then
    match (cur.Scs.transmission, watch.w_base.Scs.transmission) with
    | ( Params.Rate_based { rate_bps; burst },
        Params.Rate_based { rate_bps = base_rate; _ } ) ->
      let next = Float.min base_rate (2.0 *. rate_bps) in
      if Float.abs (next -. rate_bps) < 1.0 then None
      else
        Some
          ( Printf.sprintf "scale rate to %.0f bps (steer: calm %.2f < %.2f)" next
              util pol.cong_lo,
            { cur with Scs.transmission = Params.Rate_based { rate_bps = next; burst } },
            fun () -> () )
    | ( Params.Sliding_window { window },
        Params.Sliding_window { window = base_window } ) ->
      let next = min base_window (window * 2) in
      (* [<=], not [=]: a window the backlog rule raised above its base
         must not be "restored" downward by the decongestion path. *)
      if next <= window then None
      else
        Some
          ( Printf.sprintf "scale window to %d (steer: calm %.2f < %.2f)" next util
              pol.cong_lo,
            { cur with Scs.transmission = Params.Sliding_window { window = next } },
            fun () -> () )
    | ( (Params.Rate_based _ | Params.Sliding_window _ | Params.Stop_and_wait),
        (Params.Rate_based _ | Params.Sliding_window _ | Params.Stop_and_wait) ) ->
      None
  else None

let reset_streaks watch =
  watch.w_loss_streak <- 0;
  watch.w_calm_streak <- 0;
  watch.w_cong_streak <- 0;
  watch.w_decong_streak <- 0;
  watch.w_backlog_streak <- 0

let apply t watch ~now desc next on_success =
  match Session.reconfigure watch.w_session next with
  | Ok [] -> false
  | Ok _changed ->
    Unites.count t.unites ~session:Unites.steer_session Unites.Steer_swaps;
    Unites.observe t.unites ~session:Unites.steer_session Unites.Steer_time_in_config
      (Time.to_sec (Time.diff now watch.w_since));
    watch.w_since <- now;
    watch.w_last_swap <- now;
    Mantts.note_switch t.mantts watch.w_session desc;
    (match Unites.attached_trace t.unites with
    | Some trace ->
      Trace.event trace ~at:now ~category:"steer.swap"
        ~detail:(Printf.sprintf "%d:%s" (Session.id watch.w_session) desc)
    | None -> ());
    t.n_swaps <- t.n_swaps + 1;
    on_success ();
    true
  | Error _ -> false

let steer_one t cache ~now watch =
  let session = watch.w_session in
  let pol = t.pol in
  let util, ber = path_signals t cache watch in
  (* The retransmission-based estimate only sees losses the recovery
     machinery noticed; the BER-predicted rate sees what a silent
     configuration is losing.  Steer on the worse of the two. *)
  let loss =
    Float.max (Session.loss_rate_estimate session)
      (predicted_segment_loss watch ~ber)
  in
  let idle = Session.send_queue_empty session in
  (match (idle, watch.w_idle_since) with
  | true, None -> watch.w_idle_since <- Some now
  | true, Some _ -> ()
  | false, _ -> watch.w_idle_since <- None);
  let idle_for =
    match watch.w_idle_since with
    | Some since -> Some (Time.diff now since)
    | None -> None
  in
  watch.w_backlog_streak <- (if idle then 0 else watch.w_backlog_streak + 1);
  watch.w_loss_streak <- (if loss > pol.loss_hi then watch.w_loss_streak + 1 else 0);
  watch.w_calm_streak <- (if loss < pol.loss_lo then watch.w_calm_streak + 1 else 0);
  watch.w_cong_streak <- (if util > pol.cong_hi then watch.w_cong_streak + 1 else 0);
  watch.w_decong_streak <-
    (if util < pol.cong_lo then watch.w_decong_streak + 1 else 0);
  match candidate t watch ~loss ~util ~idle_for with
  | None -> ()
  | Some (desc, next, on_success) ->
    let last =
      match Mantts.last_reconfigured t.mantts session with
      | Some ts -> Time.max ts watch.w_last_swap
      | None -> watch.w_last_swap
    in
    if Time.diff now last >= Mantts.reconfigure_cooldown then begin
      if apply t watch ~now desc next on_success then reset_streaks watch
    end
    else begin
      t.n_blocked <- t.n_blocked + 1;
      Unites.count t.unites ~session:Unites.steer_session Unites.Steer_blocked
    end

(* One shared tick walks every live watch in insertion (= session open)
   order, so runs are deterministic and the engine carries one recurring
   event regardless of watch count.  Re-armed only while watches remain. *)
let rec arm t =
  if not (Engine.Timer.pending t.timer) then
    t.timer <- Engine.Timer.restart t.engine t.timer ~delay:Mantts.monitor_interval tick t

and tick t =
  let now = Engine.now t.engine in
  let cache = Inttbl.create 8 in
  compact t;
  for i = 0 to t.len - 1 do
    match t.arr.(i) with
    | Some watch when not watch.w_dead ->
      if Session.state watch.w_session = Session.Closed then begin
        watch.w_dead <- true;
        t.dead <- t.dead + 1
      end
      else steer_one t cache ~now watch
    | Some _ | None -> ()
  done;
  if t.len > t.dead then arm t

let watch t ?(loss_tolerant = false) session =
  match (Session.context session).Tko.binding with
  | Tko.Static_template _ -> ()  (* cannot segue; nothing to steer *)
  | Tko.Reconfigurable_template _ | Tko.Synthesized ->
    if Session.state session <> Session.Closed then begin
      let w =
        {
          w_session = session;
          w_base = Session.scs session;
          w_loss_tolerant = loss_tolerant;
          w_dead = false;
          w_since = Engine.now t.engine;
          w_last_swap = Time.zero;
          w_loss_streak = 0;
          w_calm_streak = 0;
          w_cong_streak = 0;
          w_decong_streak = 0;
          w_backlog_streak = 0;
          w_idle_since = None;
          w_shed = false;
        }
      in
      if t.len = Array.length t.arr then begin
        let next = Array.make (2 * t.len) None in
        Array.blit t.arr 0 next 0 t.len;
        t.arr <- next
      end;
      t.arr.(t.len) <- Some w;
      t.len <- t.len + 1;
      (* Protect at birth: a loss-tolerant session admitted while the
         path whitebox already shows burst-level BER would bleed its
         opening segments for a whole monitor tick (plus the debounce)
         before the loop notices — and a sender with no recovery
         machinery keeps no copies, so those losses are unrecoverable
         forever.  Treat the debounce as already served by the path
         itself and evaluate the rules once right now; the ordinary
         swap path (cooldown, UNITES cost accounting, switch log)
         applies unchanged. *)
      (if loss_tolerant && (Session.scs session).Scs.recovery = Params.No_recovery
       then
         let cache = Inttbl.create 1 in
         let _, ber = path_signals t cache w in
         if predicted_segment_loss w ~ber > t.pol.loss_hi then begin
           w.w_loss_streak <- max 0 (t.pol.debounce - 1);
           steer_one t cache ~now:(Engine.now t.engine) w
         end);
      arm t
    end
