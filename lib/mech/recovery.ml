open Adaptive_sim

type t = {
  mutable scheme : Params.recovery;
  mutable last_cum : int; (* cumulative point of the last acknowledgment *)
  mutable dup_acks : int;
  mutable recover : int;
      (* RFC 6582: highest seq sent when the current loss-recovery
         episode began. *)
  mutable rtx_timer : Engine.Timer.timer option;
  mutable skip_timer : Engine.Timer.timer option;
  mutable fec_tx : Fec.Sender.t option;
  mutable fec_rx : Fec.Receiver.t option;
}

let fec_sender = function
  | Params.Forward_error_correction { group } -> Some (Fec.Sender.create ~group)
  | Params.No_recovery | Params.Go_back_n | Params.Selective_repeat -> None

let runnable = function
  | Params.Forward_error_correction { group } -> group >= 2 && group <= 255
  | Params.No_recovery | Params.Go_back_n | Params.Selective_repeat -> true

let create scheme =
  { scheme; last_cum = 0; dup_acks = 0; recover = -1; rtx_timer = None; skip_timer = None;
    fec_tx = fec_sender scheme; fec_rx = None }

let start_at t seq = t.last_cum <- seq

(* ARQ schemes share the untouched Window.t, so GBN <-> SR swaps carry no
   state; only the FEC accumulator appears or disappears. *)
let rebind t scheme =
  (match (t.fec_tx, scheme) with
  | Some tx, Params.Forward_error_correction { group } when Fec.Sender.group tx = group ->
    ()
  | _, _ -> t.fec_tx <- fec_sender scheme);
  t.scheme <- scheme

let cancel = Option.iter Engine.Timer.cancel

let arm_timer t engine ~needed rtt handler x =
  if not needed then cancel t.rtx_timer
  else if not (Engine.Timer.pending t.rtx_timer) then
    t.rtx_timer <- Engine.Timer.restart engine t.rtx_timer ~delay:(Rtt.rto rtt) handler x

let progress t = cancel t.rtx_timer

let go_back_n window ~from ~send_window =
  List.filteri (fun i _ -> i < max 1 send_window) (Window.unsacked_from window from)

type timeout = Resend of Pdu.seg list | Give_up of int

let on_timeout t window ~next_seq ~send_window =
  t.recover <- next_seq - 1;
  match t.scheme with
  | Params.Go_back_n -> Resend (go_back_n window ~from:0 ~send_window)
  | Params.Selective_repeat ->
    (* Resend every hole: tail losses have no SACK blocks above them to
       drive recovery, so the timeout is their only signal. *)
    let holes = ref [] in
    Window.iter window (fun entry ->
        if not entry.Window.sacked then holes := entry.Window.seg :: !holes);
    Resend (List.rev !holes)
  | Params.No_recovery | Params.Forward_error_correction _ ->
    (* No ARQ: free stalled in-flight state so the window never wedges. *)
    Give_up (List.length (Window.on_cumulative_ack window ~cum:next_seq))

(* SACK-driven loss recovery (RFC 6675 style): any un-SACKed segment
   below the highest SACK block is a hole; resend each at most once per
   measured round trip.  This works even when the window slides too
   slowly for a three-dup-ack volley. *)
let sack_holes t window rtt ~initial_rto ~now ~cum ~sack =
  match t.scheme with
  | Params.Selective_repeat when sack <> [] ->
    let limit = List.fold_left max (cum + 1) sack in
    let min_age =
      match Rtt.srtt rtt with
      | Some srtt -> Time.max (Time.ms 1) srtt
      | None -> Time.max (Time.ms 1) (initial_rto / 4)
    in
    let holes = ref [] in
    Window.iter window (fun entry ->
        if
          (not entry.Window.sacked)
          && entry.Window.seg.Pdu.seq < limit
          && Time.diff now entry.Window.sent_at > min_age
        then holes := entry.Window.seg :: !holes);
    List.rev !holes
  | Params.Selective_repeat | Params.Go_back_n | Params.No_recovery
  | Params.Forward_error_correction _ -> []

let on_ack t ~cum ~progressed ~next_seq =
  if (not progressed) && cum = t.last_cum && cum < next_seq then begin
    t.dup_acks <- t.dup_acks + 1;
    (* Duplicate acks below [recover] are echoes of our own
       retransmission burst, not evidence of a new loss. *)
    if t.dup_acks >= 3 && cum > t.recover then begin
      t.dup_acks <- 0;
      t.recover <- next_seq - 1;
      true
    end
    else false
  end
  else begin
    t.dup_acks <- 0;
    t.last_cum <- cum;
    false
  end

let fast_retransmit t window ~cum ~send_window =
  match t.scheme with
  | Params.Go_back_n -> go_back_n window ~from:cum ~send_window
  | Params.Selective_repeat -> (
    (* Without SACK blocks in this ack, resend the cumulative hole. *)
    match Window.find window cum with
    | Some entry when not entry.Window.sacked -> [ entry.Window.seg ]
    | Some _ | None -> [])
  | Params.No_recovery | Params.Forward_error_correction _ -> []

let on_transmit t seg =
  match t.fec_tx with Some fec -> Fec.Sender.push fec seg | None -> None

let flush t = match t.fec_tx with Some fec -> Fec.Sender.flush fec | None -> None

(* FEC reconstruction state materializes on first use: the receiver
   carries three hash tables (~150 words), which would dominate endpoint
   construction for the vast majority of sessions that never see a
   parity group. *)
let fec_rx t =
  match t.fec_rx with
  | Some rx -> rx
  | None ->
    let rx = Fec.Receiver.create () in
    t.fec_rx <- Some rx;
    rx

let on_data t seg =
  match t.scheme with
  | Params.Forward_error_correction _ -> Fec.Receiver.on_data (fec_rx t) seg
  | Params.No_recovery | Params.Go_back_n | Params.Selective_repeat -> []

let on_parity t ~covered ~parity = Fec.Receiver.on_parity (fec_rx t) ~covered ~parity

let arm_skip t engine ~ordering reorder playout ~initial_rto handler x =
  let retransmits =
    match t.scheme with
    | Params.Go_back_n | Params.Selective_repeat -> true
    | Params.No_recovery | Params.Forward_error_correction _ -> false
  in
  if
    ordering = Params.Ordered && (not retransmits)
    && Reorder.has_gap reorder
    && not (Engine.Timer.pending t.skip_timer)
  then begin
    (* A playout receiver waits two playout delays: by then the segment
       would be discarded as late anyway. *)
    let delay =
      match playout with
      | Some p -> Time.max (Time.ms 5) (2 * Playout.target p)
      | None -> initial_rto
    in
    t.skip_timer <- Engine.Timer.restart engine t.skip_timer ~delay handler x
  end

let release t =
  cancel t.rtx_timer;
  cancel t.skip_timer;
  t.rtx_timer <- None;
  t.skip_timer <- None
