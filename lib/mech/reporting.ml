open Adaptive_sim

type t = {
  mutable reporting : Params.reporting;
  mutable detection : Params.detection;
  mutable ack_timer : Engine.Timer.timer option;
  mutable ack_with_sack : bool; (* read by the persistent ack timer callback *)
  mutable nack_timer : Engine.Timer.timer option;
  mutable echo_stamp : Time.t; (* newest data tx_stamp seen, echoed in acks *)
}

let runnable = function
  | Params.Cumulative_ack { delay } | Params.Selective_ack { delay } ->
    delay <= Time.sec 3600.0
  | Params.No_report | Params.Nack_on_gap -> true

let create reporting detection =
  { reporting; detection; ack_timer = None; ack_with_sack = false; nack_timer = None;
    echo_stamp = Time.zero }

let rebind t reporting detection =
  t.reporting <- reporting;
  t.detection <- detection

let detected t ~corrupted = corrupted && t.detection <> Params.No_detection

let verify_cost t ~bytes =
  match t.detection with
  | Params.No_detection -> Time.zero
  | Params.Internet_checksum -> bytes * 12
  | Params.Crc32 -> bytes * 60

let note_stamp t stamp = if stamp > t.echo_stamp then t.echo_stamp <- stamp
let echo t = t.echo_stamp

let gaps_before t reorder =
  match t.reporting with
  | Params.Nack_on_gap -> Reorder.missing reorder
  | Params.No_report | Params.Cumulative_ack _ | Params.Selective_ack _ -> []

let first n l = List.filteri (fun i _ -> i < n) l

type verdict = Quiet | Ack | Ack_sack | Nack of int list

(* Out-of-order arrivals are acknowledged at once so the sender's
   duplicate-ack counter sees every one; delaying them would defeat fast
   retransmission.  Gap-free duplicates are echoes of the peer's recovery
   burst: a long coalescing delay folds a burst into one acknowledgment,
   which cannot reach the three-duplicate threshold (no storm) yet still
   rescues a sender stalled by a lost acknowledgment. *)
let acknowledge t engine reorder ~duplicate ~initial_rto ~delay ~with_sack handler x =
  let gaps = Reorder.has_gap reorder in
  let delay =
    if duplicate && not gaps then Time.max (Time.ms 25) (initial_rto / 2)
    else if gaps then Time.zero
    else delay
  in
  if delay <= 0 then if with_sack then Ack_sack else Ack
  else begin
    if not (Engine.Timer.pending t.ack_timer) then begin
      t.ack_with_sack <- with_sack;
      t.ack_timer <- Engine.Timer.restart engine t.ack_timer ~delay handler x
    end;
    Quiet
  end

let on_data t engine reorder ~prior ~duplicate ~initial_rto handler x =
  match t.reporting with
  | Params.No_report -> Quiet
  | Params.Cumulative_ack { delay } ->
    acknowledge t engine reorder ~duplicate ~initial_rto ~delay ~with_sack:false handler x
  | Params.Selective_ack { delay } ->
    acknowledge t engine reorder ~duplicate ~initial_rto ~delay ~with_sack:true handler x
  | Params.Nack_on_gap ->
    let missing = Reorder.missing reorder in
    if List.exists (fun s -> not (List.mem s prior)) missing then Nack (first 32 missing)
    else Quiet

let delayed_sack t = t.ack_with_sack
let advertised_window reorder ~recv_buffer =
  max 0 (recv_buffer - Reorder.buffered_count reorder)
let sack_blocks reorder ~with_sack =
  if with_sack then first 16 (Reorder.sack_list reorder) else []

(* A match, not [=], keeps the per-arrival tests off polymorphic compare. *)
let nack t = match t.reporting with Params.Nack_on_gap -> true | _ -> false
let silent t = match t.reporting with Params.No_report -> true | _ -> false

let arm_renack t engine reorder ~initial_rto handler x =
  if nack t && (not (Engine.Timer.pending t.nack_timer)) && Reorder.has_gap reorder then
    t.nack_timer <- Engine.Timer.restart engine t.nack_timer ~delay:initial_rto handler x

let renack reorder = first 32 (Reorder.missing reorder)

let acks_drain t =
  match t.reporting with
  | Params.Cumulative_ack _ | Params.Selective_ack _ -> true
  | Params.No_report | Params.Nack_on_gap -> false

let in_flight t window = if silent t then 0 else Window.in_flight window

let track t window seg ~at ~next_seq ~recv_buffer =
  if not (silent t) then Window.track window seg ~at;
  if nack t then begin
    let cap = max 256 (4 * recv_buffer) in
    if Window.in_flight window > cap then
      ignore (Window.on_cumulative_ack window ~cum:(next_seq - cap))
  end

let release t =
  Option.iter Engine.Timer.cancel t.ack_timer;
  Option.iter Engine.Timer.cancel t.nack_timer;
  t.ack_timer <- None;
  t.nack_timer <- None
