open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type state = Connection.state = Opening | Established | Closing | Closed

type delivery = {
  seq : int;
  bytes : int;
  app_stamp : Time.t;
  delivered_at : Time.t;
  damaged : bool;
  payload : Adaptive_buf.Msg.t option;
}

type pending_send = {
  ps_bytes : int;
  ps_stamp : Time.t;
  ps_last : bool;
  ps_payload : Adaptive_buf.Msg.t option;
}

type dispatcher = {
  net : Pdu.t Network.t;
  d_engine : Engine.t;
  d_addr : Network.addr;
  d_host : Host.t;
  d_unites : Unites.t;
  conns : t Conntable.t;
  mutable acceptor :
    (src:Network.addr -> conn:int -> proposal:Scs.t option -> accept_decision) option;
  mutable d_tap : (t -> delivery -> unit) option;
      (* Invoked on every application delivery, before the endpoint's own
         [on_deliver] — the chaos invariant monitors' observation point. *)
  mutable d_on_close : (t -> unit) option;
      (* Invoked once per endpoint when it leaves the live set (whatever
         the teardown path) — MANTTS retires its monitor here instead of
         sweeping the whole population every tick. *)
  mutable d_committed : int;
      (* Running sum of every live endpoint's [recv_buffer_segments]:
         the acceptor's admission math reads this in O(1) where folding
         the connection table was O(capacity) per accept. *)
  (* One coalesced sweeper expires every time-wait entry in the table;
     it is armed only while such entries exist, so an idle dispatcher
     schedules nothing. *)
  mutable tw_timer : Engine.Timer.timer option;
  mutable tw_sweeps : int; (* sweeper firings, cumulative *)
  mutable tw_expired : int; (* time-wait entries expired, cumulative *)
  (* Negotiation memo, both directions: a swarm proposes the same few
     configurations over and over, so each (scs, start_seq) is rendered
     and each distinct blob parsed once per dispatcher.  Scs.t is
     immutable, so sharing a parsed record is safe. *)
  d_blobs : (Scs.t * int, string) Hashtbl.t;
  d_proposals : (string, Scs.t option * int) Hashtbl.t;
}

and accept_decision =
  | Accept of {
      scs : Scs.t;
      name : string;
      on_deliver : (t -> delivery -> unit) option;
    }
  | Reject

and t = {
  id : int;
  ep_name : string;
  disp : dispatcher;
  mutable peers : Network.addr list;
  ctx : Tko.context;
  opened_at : Time.t;
  mutable established_time : Time.t option;
  (* sender half *)
  sendq : pending_send Queue.t;
  mutable sendq_bytes : int;
  mutable next_seq : int;
  mutable first_tx : int; (* first transmissions *)
  mutable rtx_count : int;
  (* receiver half *)
  mutable last_latency : Time.t option;
  mutable ever_loss_tolerant : bool; (* see [loss_tolerant] *)
  mutable delivered_segments : int;
  mutable delivered_bytes : int;
  (* signaling *)
  signal_queue : string Queue.t;
  mutable signal_inflight : string option;
  mutable signal_timer : Engine.Timer.timer option;
  mutable on_deliver : t -> delivery -> unit;
}

(* Connection ids are allocated per-network (the namespace they must be
   unique in), so every stack numbers its connections — and its UNITES
   session reports — identically regardless of what ran before it or
   runs beside it on another domain. *)
let fresh_conn_id disp = Network.fresh_conn_id disp.net

(* ------------------------------------------------------------------ *)
(* Connection-table maintenance (time-wait, swarm telemetry) *)

(* How long a closed connection id is quarantined before late segments
   may reach the acceptor again, and how often the shared sweeper looks. *)
let time_wait_period = Time.ms 500
let tw_sweep_interval = Time.ms 250

let observe_demux disp probes =
  Unites.observe disp.d_unites ~session:Unites.swarm_session Unites.Demux_probes
    (float_of_int probes)

let observe_table disp =
  Unites.observe disp.d_unites ~session:Unites.swarm_session
    Unites.Table_occupancy
    (Conntable.occupancy disp.conns)

let rec arm_tw_sweeper disp =
  if not (Engine.Timer.pending disp.tw_timer) then
    disp.tw_timer <-
      Engine.Timer.restart disp.d_engine disp.tw_timer ~delay:tw_sweep_interval tw_sweep
        disp

and tw_sweep disp =
  let expired = Conntable.sweep disp.conns ~now:(Engine.now disp.d_engine) in
  disp.tw_sweeps <- disp.tw_sweeps + 1;
  disp.tw_expired <- disp.tw_expired + expired;
  if expired > 0 then observe_table disp;
  if Conntable.time_wait_count disp.conns > 0 then arm_tw_sweeper disp

(* ------------------------------------------------------------------ *)
(* Small accessors *)

let id t = t.id
let name t = t.ep_name
let connection t = t.ctx.Tko.connection
let transmission t = t.ctx.Tko.transmission
let recovery t = t.ctx.Tko.recovery
let reporting t = t.ctx.Tko.reporting
let state t = Connection.state (connection t)
let scs t = t.ctx.Tko.scs
let context t = t.ctx
let peers t = t.peers
let local_addr t = t.disp.d_addr
let established_at t = t.established_time
let bytes_delivered t = t.delivered_bytes
let segments_delivered t = t.delivered_segments
let engine t = t.disp.d_engine
let now t = Engine.now (engine t)
let unites t = t.disp.d_unites
let smoothed_rtt t = Rtt.srtt t.ctx.Tko.rtt

(* A configuration under which this endpoint may give a segment up for
   good: one without retransmission, whose receiver skips gaps and whose
   sender abandons unacknowledged data, or one with a playout delivery
   constraint, which discards late segments whatever recovery
   recovers. *)
let loss_tolerant scs =
  (not (Scs.reliable scs))
  || match scs.Scs.delivery with Params.Playout _ -> true | _ -> false

let ever_loss_tolerant t = t.ever_loss_tolerant

(* Every reconfiguration funnels through here so the dispatcher's
   committed-buffer counter tracks [recv_buffer_segments] changes made
   after setup (segue can renegotiate the receive commitment), and so
   [ever_loss_tolerant] sees every configuration the endpoint runs. *)
let segue_ctx t next =
  let before = (scs t).Scs.recv_buffer_segments in
  let r = Tko.segue t.ctx next in
  (match r with
  | Ok _ when state t <> Closed ->
    t.disp.d_committed <-
      t.disp.d_committed + ((scs t).Scs.recv_buffer_segments - before)
  | Ok _ | Error _ -> ());
  if Result.is_ok r && loss_tolerant (scs t) then t.ever_loss_tolerant <- true;
  r

let loss_rate_estimate t =
  if t.first_tx = 0 then 0.0
  else float_of_int t.rtx_count /. float_of_int (t.first_tx + t.rtx_count)

(* For NACK-based and silent reporting, the in-flight set is only a repair
   history: it never drains via acks and must not hold up close. *)
let send_queue_empty t =
  Queue.is_empty t.sendq
  && (Window.is_empty t.ctx.Tko.window || not (Reporting.acks_drain (reporting t)))

let is_multicast t = List.length t.peers > 1

let backlog_delay t = Transmission.backlog_delay (transmission t) ~bytes:t.sendq_bytes

(* ------------------------------------------------------------------ *)
(* Negotiation blob: SCS fields plus a start-sequence marker. *)

(* A memo table resets at a size bound, so a workload that synthesizes
   unbounded shapes cannot grow it without limit. *)
let memo_bound = 512

let memoize tbl key compute =
  match Hashtbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = compute key in
    if Hashtbl.length tbl >= memo_bound then Hashtbl.reset tbl;
    Hashtbl.add tbl key v;
    v

let render_proposal (scs, start_seq) =
  Printf.sprintf "startseq=%d;%s" start_seq (Scs.to_blob scs)

let encode_proposal disp scs ~start_seq =
  memoize disp.d_blobs (scs, start_seq) render_proposal

let decode_start_seq blob =
  (* Fast path: [encode_proposal] always writes the marker first, so a
     prefix scan decodes it without splitting the blob into parts. *)
  let prefix = "startseq=" in
  let plen = String.length prefix in
  let len = String.length blob in
  let rec digits i acc =
    if i < len then
      match blob.[i] with
      | '0' .. '9' -> digits (i + 1) ((acc * 10) + (Char.code blob.[i] - 48))
      | ';' -> Some acc
      | _ -> None
    else Some acc
  in
  let fast =
    if len > plen && String.sub blob 0 plen = prefix then digits plen 0 else None
  in
  match fast with
  | Some seq -> seq
  | None ->
    List.fold_left
      (fun acc part ->
        match String.index_opt part '=' with
        | Some i when String.sub part 0 i = "startseq" ->
          int_of_string_opt (String.sub part (i + 1) (String.length part - i - 1))
          |> Option.value ~default:acc
        | Some _ | None -> acc)
      0
      (String.split_on_char ';' blob)

let decode_proposal disp blob =
  memoize disp.d_proposals blob (fun blob -> (Scs.of_blob blob, decode_start_seq blob))

(* ------------------------------------------------------------------ *)
(* Host CPU charging: every PDU pays the per-packet and copy costs, and
   checksum-bearing configurations pay a per-byte verification cost. *)

(* Priorities 0-2 get expedited host scheduling (Table 2's "priorities
   for message delivery and scheduling"). *)
let expedited t = (scs t).Scs.priority <= 2

(* Whitebox instrumentation is not free: each probe costs the host a
   couple of microseconds of bookkeeping (§4.3's measurable
   instrumentation overhead). *)
let instrumentation_extra t =
  if Unites.whitebox_enabled (unites t) then Time.us 2 else Time.zero

(* Both directions pay for verification; only sends pay for probes. *)
let charge t ~bytes ~extra =
  let host = t.disp.d_host in
  let before = Host.total_busy host in
  let extra = Time.add (Reporting.verify_cost (reporting t) ~bytes) extra in
  let done_at = Host.process host ~bytes ~extra ~expedited:(expedited t) () in
  Unites.observe (unites t) ~session:t.id Unites.Host_cpu
    (Time.to_sec (Time.diff (Host.total_busy host) before));
  done_at

(* ------------------------------------------------------------------ *)
(* Wire output *)

let inject_to t dsts pdu =
  let bytes = Pdu.wire_bytes pdu in
  let done_at = charge t ~bytes ~extra:(instrumentation_extra t) in
  let net = t.disp.net in
  let src = t.disp.d_addr in
  Engine.schedule_anon (engine t) ~at:done_at (fun () ->
      match dsts with
      | [ dst ] -> Network.send net ~src ~dst ~bytes pdu
      | _ :: _ :: _ -> Network.multicast net ~src ~dsts ~bytes pdu
      | [] -> ())

let inject t pdu = inject_to t t.peers pdu

(* A reply the dispatcher sends with no endpoint behind it (time-wait
   re-answers, rejections), sized like every other injection by its wire
   encoding. *)
let dispatcher_reply disp (recv : Pdu.t Network.recv) pdu =
  let bytes = Pdu.wire_bytes pdu in
  let done_at = Host.process disp.d_host ~bytes () in
  Engine.schedule_anon disp.d_engine ~at:done_at (fun () ->
      Network.send disp.net ~src:disp.d_addr ~dst:recv.Network.src ~bytes pdu)

let count_control t = Unites.count (unites t) ~session:t.id Unites.Control_pdus

(* ------------------------------------------------------------------ *)
(* Loss recovery: the PDU I/O around [Recovery] *)

(* Timeout-driven behaviour only makes sense when acknowledgments drain
   the in-flight set; NACK-based recovery is receiver-driven. *)
let rec ensure_rtx_armed t =
  let needed =
    Reporting.acks_drain (reporting t) && not (Window.is_empty t.ctx.Tko.window)
  in
  Recovery.arm_timer (recovery t) (engine t) ~needed t.ctx.Tko.rtt on_rtx_timeout t

and on_rtx_timeout t =
  let ctx = t.ctx in
  if not (Window.is_empty ctx.Tko.window) && state t <> Closed then begin
    Unites.count (unites t) ~session:t.id Unites.Timeouts;
    Rtt.on_timeout ctx.Tko.rtt;
    Transmission.on_loss (transmission t);
    let send_window = Transmission.send_window (transmission t) in
    (match Recovery.on_timeout (recovery t) ctx.Tko.window ~next_seq:t.next_seq ~send_window with
    | Recovery.Resend segs -> resend t segs
    | Recovery.Give_up n ->
      Unites.observe (unites t) ~session:t.id Unites.Losses_unrecovered (float_of_int n));
    ensure_rtx_armed t;
    pump t
  end

and retransmit t ~dsts (seg : Pdu.seg) =
  t.rtx_count <- t.rtx_count + 1;
  Unites.count (unites t) ~session:t.id Unites.Retransmissions;
  Window.touch t.ctx.Tko.window seg.Pdu.seq ~at:(now t);
  inject_to t dsts (Pdu.Data { conn = t.id; seg; retransmit = true; tx_stamp = now t })

(* Retransmit to every peer, in order; a loop rather than [List.iter] so
   the per-ack call with nothing to resend allocates no closure. *)
and resend t = function
  | [] -> ()
  | seg :: rest ->
    retransmit t ~dsts:t.peers seg;
    resend t rest

(* ------------------------------------------------------------------ *)
(* Sender: pump queued segments under the bound transmission control. *)

and pump t =
  match state t with
  | Opening | Closed -> ()
  | Established | Closing ->
    let window = t.ctx.Tko.window in
    let continue = ref true in
    while (not (Queue.is_empty t.sendq)) && !continue do
      match
        Transmission.admit (transmission t) (engine t)
          ~in_flight:(Reporting.in_flight (reporting t) window)
          ~bytes:(Queue.peek t.sendq).ps_bytes pump t
      with
      | Transmission.Send -> transmit_next t
      | Transmission.Deferred | Transmission.Blocked -> continue := false
    done;
    if state t = Closing && Queue.is_empty t.sendq && Window.is_empty window then
      send_fin t

and transmit_next t =
  let { ps_bytes; ps_stamp; ps_last; ps_payload } = Queue.pop t.sendq in
  t.sendq_bytes <- t.sendq_bytes - ps_bytes;
  let seg =
    {
      Pdu.seq = t.next_seq;
      seg_bytes = ps_bytes;
      app_stamp = ps_stamp;
      app_last = ps_last;
      payload = ps_payload;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.first_tx <- t.first_tx + 1;
  let window = t.ctx.Tko.window in
  Reporting.track (reporting t) window seg ~at:(now t) ~next_seq:t.next_seq
    ~recv_buffer:(scs t).Scs.recv_buffer_segments;
  Unites.count (unites t) ~session:t.id Unites.Segments_sent;
  Unites.observe (unites t) ~session:t.id Unites.Window_size
    (float_of_int (Window.in_flight window));
  inject t (Pdu.Data { conn = t.id; seg; retransmit = false; tx_stamp = now t });
  (match Recovery.on_transmit (recovery t) seg with
  | Some covered -> send_parity t covered
  | None -> ());
  ensure_rtx_armed t

and send_parity t covered =
  match covered with
  | [] -> ()
  | first :: _ ->
    Unites.count (unites t) ~session:t.id Unites.Fec_parity_sent;
    inject t
      (Pdu.Parity
         {
           conn = t.id;
           group_start = first.Pdu.seq;
           group_len = List.length covered;
           covered = List.map Pdu.strip_payload covered;
           parity = Fec.parity_of covered;
         })

(* ------------------------------------------------------------------ *)
(* Connection management: the PDU I/O around [Connection] *)

and send_syn t dsts =
  let blob = encode_proposal t.disp (scs t) ~start_seq:t.next_seq in
  count_control t;
  inject_to t dsts (Pdu.Syn { conn = t.id; blob; first = None });
  Connection.await_answer (connection t) (engine t) ~initial_rto:(scs t).Scs.initial_rto
    on_syn_timeout t

and on_syn_timeout t =
  match Connection.request_timeout (connection t) with
  | Connection.Resend -> send_syn t (Connection.pending (connection t))
  (* A member invited after set-up that never answers just drops out. *)
  | Connection.Give_up when t.established_time <> None ->
    List.iter (remove_peer t) (Connection.pending (connection t))
  (* Giving up, even after a close, must release the table entry too, or
     refused and unreachable peers would leak table slots. *)
  | Connection.Give_up -> finish_close t

and remove_peer t addr =
  if List.mem addr t.peers then begin
    t.peers <- List.filter (fun p -> p <> addr) t.peers;
    let none_pending = Connection.forget (connection t) addr in
    count_control t;
    inject_to t [ addr ] (Pdu.Fin { conn = t.id; graceful = true });
    (* The removed peer was the last one an opening initiator waited
       for: every remaining peer has answered, or none is left. *)
    if none_pending && state t = Opening then
      if t.peers = [] then finish_close t
      else begin
        mark_established t;
        pump t
      end
  end

and mark_established t =
  if t.established_time = None then begin
    t.established_time <- Some (now t);
    Unites.observe (unites t) ~session:t.id Unites.Setup_latency
      (Time.to_sec (Time.diff (now t) t.opened_at))
  end;
  if Connection.establish (connection t) then Conntable.promote t.disp.conns t.id

and send_fin t =
  count_control t;
  inject t (Pdu.Fin { conn = t.id; graceful = true });
  Connection.await_fin_ack (connection t) (engine t) ~rto:(Rtt.rto t.ctx.Tko.rtt)
    finish_close t

and finish_close t =
  let was_live = Connection.release (connection t) in
  Recovery.release (recovery t);
  Reporting.release (reporting t);
  Option.iter Engine.Timer.cancel t.signal_timer;
  t.signal_timer <- None;
  Transmission.release (transmission t);
  let disp = t.disp in
  if was_live then begin
    disp.d_committed <- disp.d_committed - (scs t).Scs.recv_buffer_segments;
    match disp.d_on_close with Some f -> f t | None -> ()
  end;
  (* The id lingers in time-wait so stray retransmissions are absorbed
     rather than offered to the acceptor as a fresh connection. *)
  Conntable.retire disp.conns ~key:t.id
    ~expiry:(Time.add (Engine.now disp.d_engine) time_wait_period);
  observe_table disp;
  arm_tw_sweeper disp

(* ------------------------------------------------------------------ *)
(* Receiver half *)

and send_ack t ~with_sack =
  let reorder = t.ctx.Tko.reorder in
  let r = reporting t in
  let sack = Reporting.sack_blocks reorder ~with_sack in
  Unites.count (unites t) ~session:t.id Unites.Acks_sent;
  inject t
    (Pdu.Ack
       {
         conn = t.id;
         cum = Reorder.expected reorder;
         window =
           Reporting.advertised_window reorder ~recv_buffer:(scs t).Scs.recv_buffer_segments;
         sack;
         echo = Reporting.echo r;
       })

and send_delayed_ack t = send_ack t ~with_sack:(Reporting.delayed_sack (reporting t))

and send_nack t missing =
  Unites.count (unites t) ~session:t.id Unites.Nacks_sent;
  inject t (Pdu.Nack { conn = t.id; missing })

and deliver_segment t (seg : Pdu.seg) ~damaged =
  let release arrival_point =
    t.delivered_segments <- t.delivered_segments + 1;
    t.delivered_bytes <- t.delivered_bytes + seg.Pdu.seg_bytes;
    Unites.count (unites t) ~session:t.id Unites.Segments_delivered;
    Unites.observe (unites t) ~session:t.id Unites.Bytes_delivered
      (float_of_int seg.Pdu.seg_bytes);
    let latency = Time.diff arrival_point seg.Pdu.app_stamp in
    Unites.observe (unites t) ~session:t.id Unites.Delivery_latency
      (Time.to_sec latency);
    (match t.last_latency with
    | Some prev ->
      Unites.observe (unites t) ~session:t.id Unites.Jitter
        (Float.abs (Time.to_sec (Time.diff latency prev)))
    | None -> ());
    t.last_latency <- Some latency;
    if damaged then Unites.count (unites t) ~session:t.id Unites.Corrupt_delivered;
    (* Undetected corruption of a real payload damages the bytes the
       application sees — the sender's copy is left untouched. *)
    let payload =
      match (seg.Pdu.payload, damaged) with
      | Some m, true when Adaptive_buf.Msg.data_length m > 0 ->
        let b = Bytes.of_string (Adaptive_buf.Msg.data_to_string m) in
        let i = seg.Pdu.seq mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
        Some (Adaptive_buf.Msg.of_bytes b)
      | p, _ -> p
    in
    let d =
      {
        seq = seg.Pdu.seq;
        bytes = seg.Pdu.seg_bytes;
        app_stamp = seg.Pdu.app_stamp;
        delivered_at = arrival_point;
        damaged;
        payload;
      }
    in
    (match t.disp.d_tap with Some tap -> tap t d | None -> ());
    t.on_deliver t d
  in
  match t.ctx.Tko.playout with
  | None -> release (now t)
  | Some playout -> (
    match Playout.offer playout ~app_stamp:seg.Pdu.app_stamp ~arrival:(now t) with
    | Playout.Release_at at ->
      (* Always go through the event queue: same-instant events fire in
         scheduling order, so releases reach the application in offer
         order even when release points collide. *)
      let at = Time.max at (now t) in
      Engine.schedule_anon (engine t) ~at (fun () -> release at)
    | Playout.Late _ -> Unites.count (unites t) ~session:t.id Unites.Late_discards)

(* Returns [true] when the segment was a duplicate. *)
and offer_to_reorder t (seg : Pdu.seg) ~damaged =
  match Reorder.offer t.ctx.Tko.reorder seg with
  | Reorder.Deliver segs ->
    List.iter
      (fun s -> deliver_segment t s ~damaged:(damaged && s.Pdu.seq = seg.Pdu.seq))
      segs;
    false
  | Reorder.Buffered -> false
  | Reorder.Duplicate ->
    Unites.count (unites t) ~session:t.id Unites.Dup_segments;
    true

and arm_skip_timer t =
  Recovery.arm_skip (recovery t) (engine t) ~ordering:(scs t).Scs.ordering
    t.ctx.Tko.reorder t.ctx.Tko.playout ~initial_rto:(scs t).Scs.initial_rto
    on_skip_timeout t

and on_skip_timeout t =
  let skipped, released = Reorder.advance_past_gap t.ctx.Tko.reorder in
  if skipped > 0 then
    Unites.observe (unites t) ~session:t.id Unites.Losses_unrecovered
      (float_of_int skipped);
  List.iter (fun s -> deliver_segment t s ~damaged:false) released;
  arm_skip_timer t

and arm_renack t =
  Reporting.arm_renack (reporting t) (engine t) t.ctx.Tko.reorder
    ~initial_rto:(scs t).Scs.initial_rto on_renack_timeout t

and on_renack_timeout t =
  if state t <> Closed then
    match Reporting.renack t.ctx.Tko.reorder with
    | [] -> ()
    | missing ->
      send_nack t missing;
      arm_renack t

and handle_data t ?(tx_stamp = Time.zero) (recv : Pdu.t Network.recv) (seg : Pdu.seg) =
  let r = reporting t in
  Reporting.note_stamp r tx_stamp;
  if Reporting.detected r ~corrupted:recv.Network.corrupted then
    Unites.count (unites t) ~session:t.id Unites.Corrupt_detected
  else begin
    let reorder = t.ctx.Tko.reorder in
    let prior = Reporting.gaps_before r reorder in
    (* FEC bookkeeping runs regardless of arrival order. *)
    let recovered = Recovery.on_data (recovery t) seg in
    let duplicate = offer_to_reorder t seg ~damaged:recv.Network.corrupted in
    offer_recovered t recovered;
    (match
       Reporting.on_data r (engine t) reorder ~prior ~duplicate
         ~initial_rto:(scs t).Scs.initial_rto send_delayed_ack t
     with
    | Reporting.Quiet -> ()
    | Reporting.Ack -> send_ack t ~with_sack:false
    | Reporting.Ack_sack -> send_ack t ~with_sack:true
    | Reporting.Nack missing -> send_nack t missing);
    arm_renack t;
    arm_skip_timer t
  end

(* A loop rather than [List.iter], so the common empty case allocates no
   closure on the per-PDU path. *)
and offer_recovered t = function
  | [] -> ()
  | seg :: rest ->
    Unites.count (unites t) ~session:t.id Unites.Fec_recovered;
    ignore (offer_to_reorder t seg ~damaged:false);
    offer_recovered t rest

and handle_parity t (recv : Pdu.t Network.recv) ~covered ~parity =
  if Reporting.detected (reporting t) ~corrupted:recv.Network.corrupted then
    Unites.count (unites t) ~session:t.id Unites.Corrupt_detected
  else begin
    offer_recovered t (Recovery.on_parity (recovery t) ~covered ~parity);
    arm_skip_timer t
  end

(* ------------------------------------------------------------------ *)
(* Sender: feedback processing *)

and handle_ack t ~cum ~window ~sack ~echo =
  let ctx = t.ctx in
  let newly = Window.on_cumulative_ack ctx.Tko.window ~cum in
  (* RTT sampling via timestamp echo (RFC 7323 style): the receiver
     returned the transmit stamp of the newest data PDU it has seen, so
     the sample is unambiguous even when that PDU was a retransmission —
     no Karn exclusion needed, and the estimator keeps tracking the true
     round trip through heavy recovery. *)
  if echo > Time.zero && echo <= now t then begin
    let sample = Time.diff (now t) echo in
    Rtt.observe ctx.Tko.rtt sample;
    Unites.observe (unites t) ~session:t.id Unites.Rtt (Time.to_sec sample)
  end;
  Transmission.on_ack (transmission t) ~window ~acked:(List.length newly);
  Window.mark_sacked ctx.Tko.window sack;
  let r = recovery t in
  resend t
    (Recovery.sack_holes r ctx.Tko.window ctx.Tko.rtt ~initial_rto:(scs t).Scs.initial_rto
       ~now:(now t) ~cum ~sack);
  if Recovery.on_ack r ~cum ~progressed:(newly <> []) ~next_seq:t.next_seq then begin
    Transmission.on_loss (transmission t);
    let send_window = Transmission.send_window (transmission t) in
    resend t (Recovery.fast_retransmit r ctx.Tko.window ~cum ~send_window)
  end;
  if newly <> [] then begin
    (* Forward progress: re-arm the timer afresh and drop any timeout
       backoff even if the acked segments were retransmissions. *)
    Rtt.reset_backoff ctx.Tko.rtt;
    Recovery.progress r
  end;
  ensure_rtx_armed t;
  pump t

and handle_nack t ~from ~missing =
  let segs = Window.unsacked_missing t.ctx.Tko.window missing in
  let dsts = if is_multicast t then [ from ] else t.peers in
  List.iter (retransmit t ~dsts) segs;
  ensure_rtx_armed t

(* ------------------------------------------------------------------ *)
(* Signaling *)

and try_send_signal t =
  if t.signal_inflight = None && not (Queue.is_empty t.signal_queue) then begin
    let blob = Queue.pop t.signal_queue in
    t.signal_inflight <- Some blob;
    push_signal t blob
  end

and push_signal t blob =
  count_control t;
  inject t (Pdu.Signal { conn = t.id; blob });
  t.signal_timer <-
    Engine.Timer.restart (engine t) t.signal_timer ~delay:(Rtt.rto t.ctx.Tko.rtt)
      on_signal_timeout t

and on_signal_timeout t =
  match t.signal_inflight with
  | Some pending when state t <> Closed -> push_signal t pending
  | Some _ | None -> ()

and handle_signal t blob =
  count_control t;
  inject t (Pdu.Signal_ack { conn = t.id; blob = default_on_signal t blob })

and handle_signal_ack t =
  Option.iter Engine.Timer.cancel t.signal_timer;
  t.signal_inflight <- None;
  try_send_signal t

(* ------------------------------------------------------------------ *)
(* Default reconfiguration signal handler: "scs!<blob>" requests segue. *)

and default_on_signal t blob =
  let prefix = "scs!" in
  let plen = String.length prefix in
  if String.length blob > plen && String.sub blob 0 plen = prefix then begin
    let body = String.sub blob plen (String.length blob - plen) in
    match Scs.of_blob body with
    | Some next -> (
      match segue_ctx t next with
      | Ok changed ->
        Unites.observe (unites t) ~session:t.id Unites.Reconfigurations
          (float_of_int (max 1 (List.length changed)));
        "ok"
      | Error e -> "error:" ^ e)
    | None -> "error:bad-scs"
  end
  else ""

(* ------------------------------------------------------------------ *)
(* Endpoint construction *)

and make_endpoint ~disp ~conn ~ep_name ~binding ~peers ~scs ~start_seq ~on_deliver
    ~passive =
  let ctx = Tko.synthesize ?binding scs in
  if passive then Connection.accept ctx.Tko.connection;
  (* Receiver sequencing and the duplicate-ack count start at the
     negotiated stream position. *)
  if start_seq > 0 then begin
    ctx.Tko.reorder <-
      Reorder.create ~start:start_seq ~ordering:scs.Scs.ordering
        ~duplicates:scs.Scs.duplicates ();
    Recovery.start_at ctx.Tko.recovery start_seq
  end;
  let t =
    {
      id = conn;
      ep_name;
      disp;
      peers;
      ctx;
      opened_at = Engine.now disp.d_engine;
      established_time = None;
      sendq = Queue.create ();
      sendq_bytes = 0;
      next_seq = start_seq;
      first_tx = 0;
      rtx_count = 0;
      last_latency = None;
      ever_loss_tolerant = loss_tolerant scs;
      delivered_segments = 0;
      delivered_bytes = 0;
      signal_queue = Queue.create ();
      signal_inflight = None;
      signal_timer = None;
      on_deliver = (match on_deliver with Some f -> f | None -> fun _ _ -> ());
    }
  in
  Conntable.insert disp.conns ~key:conn ~half_open:(not passive) t;
  disp.d_committed <- disp.d_committed + scs.Scs.recv_buffer_segments;
  (* One count per session, charged to the initiating endpoint — the
     responder's endpoint is the same session arriving at the peer. *)
  if not passive then
    Unites.count disp.d_unites ~session:Unites.swarm_session Unites.Sessions_open;
  observe_table disp;
  Unites.register_session disp.d_unites ~id:conn ~name:ep_name;
  t

(* ------------------------------------------------------------------ *)
(* PDU dispatch *)

and handle_pdu disp (recv : Pdu.t Network.recv) =
  let pdu = recv.Network.payload in
  let conn = Pdu.conn_id pdu in
  let slot = Conntable.find disp.conns conn in
  observe_demux disp (Conntable.last_probes disp.conns);
  if slot >= 0 then
    match Conntable.slot_state disp.conns slot with
    | Conntable.Half_open | Conntable.Open ->
      endpoint_handle (Conntable.slot_value disp.conns slot) recv pdu
    | Conntable.Time_wait -> handle_timewait disp recv ~conn pdu
  else (
    match pdu with
    | Pdu.Syn { blob; first; _ } -> accept_connection disp recv ~conn ~blob ~first
    | Pdu.Data { seg; _ } -> (
      (* Orphan data: the connection request was lost (or implicit setup
         raced ahead).  Offer it to the acceptor with no proposal. *)
      match disp.acceptor with
      | None -> ()
      | Some acceptor -> (
        match acceptor ~src:recv.Network.src ~conn ~proposal:None with
        | Reject -> ()
        | Accept { scs; name; on_deliver } ->
          let t =
            make_endpoint ~disp ~conn ~ep_name:name ~binding:None
              ~peers:[ recv.Network.src ] ~scs ~start_seq:0 ~on_deliver ~passive:true
          in
          mark_established t;
          handle_data t recv seg))
    | Pdu.Parity _ | Pdu.Ack _ | Pdu.Nack _ | Pdu.Syn_ack _ | Pdu.Ack_of_syn _
    | Pdu.Fin _ | Pdu.Fin_ack _ | Pdu.Signal _ | Pdu.Signal_ack _ -> ())

and handle_timewait disp (recv : Pdu.t Network.recv) ~conn pdu =
  match pdu with
  | Pdu.Fin _ ->
    (* The peer is retrying its side of the teardown after ours finished:
       re-answer so it can release its endpoint too. *)
    dispatcher_reply disp recv (Pdu.Fin_ack { conn })
  | _ ->
    Unites.count disp.d_unites ~session:Unites.swarm_session Unites.Timewait_drops

and accept_connection disp (recv : Pdu.t Network.recv) ~conn ~blob ~first =
  match disp.acceptor with
  | None -> ()
  | Some acceptor -> (
    let proposal, start_seq = decode_proposal disp blob in
    match acceptor ~src:recv.Network.src ~conn ~proposal with
    | Reject ->
      (* A rejection still answers, so the initiator can fail fast. *)
      dispatcher_reply disp recv (Pdu.Syn_ack { conn; accepted = false; blob = "" })
    | Accept { scs; name; on_deliver } ->
      let t =
        make_endpoint ~disp ~conn ~ep_name:name ~binding:None
          ~peers:[ recv.Network.src ] ~scs ~start_seq ~on_deliver ~passive:true
      in
      mark_established t;
      count_control t;
      inject t
        (Pdu.Syn_ack
           { conn; accepted = true; blob = encode_proposal disp scs ~start_seq });
      (match first with
      | Some (Pdu.Data { seg; _ }) -> handle_data t recv seg
      | Some _ | None -> ()))

and endpoint_handle t (recv : Pdu.t Network.recv) pdu =
  if state t = Closed then ()
  else
    match pdu with
    | Pdu.Data { seg; tx_stamp; _ } -> handle_data t ~tx_stamp recv seg
    | Pdu.Parity { covered; parity; _ } -> handle_parity t recv ~covered ~parity
    | Pdu.Ack { cum; window; sack; echo; _ } ->
      if not (Reporting.detected (reporting t) ~corrupted:recv.Network.corrupted) then
        handle_ack t ~cum ~window ~sack ~echo
    | Pdu.Nack { missing; _ } -> handle_nack t ~from:recv.Network.src ~missing
    | Pdu.Syn _ ->
      (* Duplicate connection request: re-answer. *)
      count_control t;
      inject_to t [ recv.Network.src ]
        (Pdu.Syn_ack
           {
             conn = t.id;
             accepted = true;
             blob = encode_proposal t.disp (scs t) ~start_seq:0;
           })
    | Pdu.Syn_ack { accepted; blob; _ } -> handle_syn_ack t recv ~accepted ~blob
    | Pdu.Ack_of_syn _ -> count_control t
    | Pdu.Fin { graceful = _; _ } ->
      count_control t;
      inject_to t [ recv.Network.src ] (Pdu.Fin_ack { conn = t.id });
      finish_close t
    | Pdu.Fin_ack _ ->
      count_control t;
      (* Membership removals also elicit Fin_acks; only a session-level
         close may tear the endpoint down. *)
      if state t = Closing then finish_close t
    | Pdu.Signal { blob; _ } -> handle_signal t blob
    | Pdu.Signal_ack _ -> handle_signal_ack t

and handle_syn_ack t (recv : Pdu.t Network.recv) ~accepted ~blob =
  count_control t;
  if not accepted then finish_close t
  else begin
    (* Adopt the responder's (possibly counter-proposed) configuration. *)
    (match fst (decode_proposal t.disp blob) with
    | Some final when not (Scs.equal final (scs t)) -> (
      match segue_ctx t final with Ok _ -> () | Error _ -> ())
    | Some _ | None -> ());
    if Connection.confirms (connection t) then begin
      count_control t;
      inject_to t [ recv.Network.src ] (Pdu.Ack_of_syn { conn = t.id })
    end;
    if Connection.answered (connection t) ~from:recv.Network.src then begin
      mark_established t;
      pump t
    end
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher *)

module Dispatcher = struct
  type nonrec dispatcher = dispatcher
  type nonrec accept_decision = accept_decision =
    | Accept of {
        scs : Scs.t;
        name : string;
        on_deliver : (t -> delivery -> unit) option;
      }
    | Reject

  let create net ~addr ~host ~unites =
    let disp =
      {
        net;
        d_engine = Network.engine net;
        d_addr = addr;
        d_host = host;
        d_unites = unites;
        conns = Conntable.create ();
        acceptor = None;
        d_tap = None;
        d_on_close = None;
        d_committed = 0;
        tw_timer = None;
        tw_sweeps = 0;
        tw_expired = 0;
        d_blobs = Hashtbl.create 16;
        d_proposals = Hashtbl.create 16;
      }
    in
    Unites.register_session unites ~id:Unites.swarm_session ~name:"swarm";
    Network.attach net addr (fun recv ->
        (* Charge receive-side host processing, then handle. *)
        let bytes = recv.Network.wire_bytes in
        let done_at =
          match Conntable.find_live disp.conns (Pdu.conn_id recv.Network.payload) with
          | Some ep -> charge ep ~bytes ~extra:Time.zero
          | None -> Host.process host ~bytes ()
        in
        Engine.schedule_anon disp.d_engine ~at:done_at (fun () ->
            handle_pdu disp recv));
    disp

  let addr d = d.d_addr
  let host d = d.d_host
  let network d = d.net
  let set_acceptor d f = d.acceptor <- Some f
  let set_delivery_tap d f = d.d_tap <- Some f
  let set_on_close d f = d.d_on_close <- Some f
  let committed_recv_segments d = d.d_committed
  let session_count d = Conntable.live_count d.conns
  let half_open_count d = Conntable.half_open_count d.conns
  let time_wait_count d = Conntable.time_wait_count d.conns
  let table_capacity d = Conntable.capacity d.conns
  let tw_sweep_stats d = (d.tw_sweeps, d.tw_expired)
end

(* ------------------------------------------------------------------ *)
(* Public API *)

let connect ?name:ep_name ?binding ?on_deliver ?(start_seq = 0) disp ~peers ~scs () =
  if peers = [] then invalid_arg "Session.connect: no peers";
  let conn = fresh_conn_id disp in
  let ep_name =
    match ep_name with Some n -> n | None -> "conn-" ^ string_of_int conn
  in
  let t =
    make_endpoint ~disp ~conn ~ep_name ~binding ~peers ~scs ~start_seq ~on_deliver
      ~passive:false
  in
  if Connection.start (connection t) ~peers then send_syn t peers
  else begin
    (* Implicit: usable immediately; the request travels with (ahead of)
       the data. *)
    mark_established t;
    count_control t;
    inject t (Pdu.Syn { conn; blob = encode_proposal disp scs ~start_seq; first = None })
  end;
  t

let send t ~bytes ?payload ?app_stamp () =
  if bytes <= 0 then invalid_arg "Session.send: non-positive size";
  if state t = Closed || state t = Closing then
    invalid_arg "Session.send: session is closing or closed";
  (match payload with
  | Some m when Adaptive_buf.Msg.data_length m <> bytes ->
    invalid_arg "Session.send: payload length disagrees with bytes"
  | Some _ | None -> ());
  let stamp = match app_stamp with Some s -> s | None -> now t in
  let seg_size = (scs t).Scs.segment_bytes in
  (* One queued segment per [seg_size] bytes, each carrying its fragment
     of the payload when there is one. *)
  let rec split remaining fragments =
    let ps_last = remaining <= seg_size in
    let ps_payload, rest =
      match fragments with f :: rest -> (Some f, rest) | [] -> (None, [])
    in
    Queue.push
      { ps_bytes = min remaining seg_size; ps_stamp = stamp; ps_last; ps_payload }
      t.sendq;
    if not ps_last then split (remaining - seg_size) rest
  in
  split bytes
    (match payload with Some m -> Adaptive_buf.Msg.fragment m ~mtu:seg_size | None -> []);
  t.sendq_bytes <- t.sendq_bytes + bytes;
  pump t

let close ?(graceful = true) t =
  match state t with
  | Closed -> ()
  | Opening | Established | Closing ->
    if not graceful then begin
      count_control t;
      inject t (Pdu.Fin { conn = t.id; graceful = false });
      finish_close t
    end
    else begin
      Connection.closing (connection t);
      (* Flush any partial FEC group so the tail is protected too. *)
      (match Recovery.flush (recovery t) with
      | Some covered -> send_parity t covered
      | None -> ());
      if send_queue_empty t then send_fin t else pump t
    end

let reconfigure t next =
  match segue_ctx t next with
  | Error e -> Error e
  | Ok changed ->
    if changed <> [] then begin
      Unites.observe (unites t) ~session:t.id Unites.Reconfigurations
        (float_of_int (List.length changed));
      Queue.push ("scs!" ^ Scs.to_blob next) t.signal_queue;
      try_send_signal t
    end;
    Ok changed

let add_peer t addr =
  if not (List.mem addr t.peers) then begin
    t.peers <- t.peers @ [ addr ];
    Connection.invite (connection t) addr;
    send_syn t [ addr ]
  end

(* Wire-true mode plumbing.  The network stays parametric in the PDU
   type; this is where the transport supplies its codec as the wire
   hooks.  Decoded data/parity payloads alias the leased frame buffer,
   and the dispatcher hands PDUs to [handle_pdu] only after the host
   processing delay — past the delivery callback — so they are detached
   (one counted copy) before the lease can return to the pool. *)
module Wire = struct
  type report = {
    encodes : int;
    decodes : int;
    rejects : int;
    fused_sums : int;
    pool_reuse_rate : float;
  }

  type handle = {
    w_pool : Adaptive_buf.Pool.t;
    w_codec : Codec.wire;
    w_net : Pdu.t Network.t;
  }

  let detach_payload = function
    | Pdu.Data ({ seg = { payload = Some m; _ } as s; _ } as r) ->
      Pdu.Data
        { r with seg = { s with payload = Some (Adaptive_buf.Msg.detach m) } }
    | Pdu.Parity ({ parity = Some m; _ } as r) ->
      Pdu.Parity { r with parity = Some (Adaptive_buf.Msg.detach m) }
    | pdu -> pdu

  let install net =
    let pool = Adaptive_buf.Pool.create ~buffers:256 ~size:4096 in
    let codec = Codec.wire_state () in
    let encode pdu bytes =
      let lease = Adaptive_buf.Pool.lease pool ~min_bytes:bytes in
      let n =
        Codec.encode_into codec pdu (Adaptive_buf.Pool.lease_buf lease) ~off:0
      in
      if n <> bytes then
        invalid_arg
          (Printf.sprintf
             "Session.Wire: encoded %d bytes but the simulator accounts %d" n
             bytes);
      lease
    in
    let decode buf off len =
      match Codec.decode_view buf ~off ~len with
      | Ok pdu -> Some (detach_payload pdu)
      | Error _ -> None
    in
    let release lease = Adaptive_buf.Pool.release pool lease in
    Network.set_wire net ~encode ~decode ~release;
    { w_pool = pool; w_codec = codec; w_net = net }

  let report h =
    let enc, dec, rej =
      match Network.wire_stats h.w_net with
      | Some s -> Network.(s.wire_encoded, s.wire_decoded, s.wire_rejected)
      | None -> (0, 0, 0)
    in
    let hits = Adaptive_buf.Pool.lease_hits h.w_pool in
    let fresh = Adaptive_buf.Pool.lease_fresh h.w_pool in
    let reuse =
      if hits + fresh = 0 then 1.0
      else float_of_int hits /. float_of_int (hits + fresh)
    in
    {
      encodes = enc;
      decodes = dec;
      rejects = rej;
      fused_sums = Codec.fused_sums h.w_codec;
      pool_reuse_rate = reuse;
    }

  let observe h unites =
    let r = report h in
    Unites.register_session unites ~id:Unites.wire_session ~name:"wire";
    let ob m v = Unites.observe unites ~session:Unites.wire_session m v in
    ob Unites.Wire_encodes (float_of_int r.encodes);
    ob Unites.Wire_decodes (float_of_int r.decodes);
    ob Unites.Wire_rejects (float_of_int r.rejects);
    ob Unites.Wire_fused_sums (float_of_int r.fused_sums);
    ob Unites.Wire_pool_reuse r.pool_reuse_rate
end
