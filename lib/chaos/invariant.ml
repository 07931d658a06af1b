open Adaptive_sim
open Adaptive_mech
open Adaptive_core

type kind =
  | Out_of_order
  | Duplicate_delivery
  | Delivery_gap
  | Undetected_corruption
  | Liveness_stall
  | Policy_flapping
  | Counter_regression
  | Throughput_excess
  | Injected_sabotage

let kind_to_string = function
  | Out_of_order -> "out_of_order"
  | Duplicate_delivery -> "duplicate_delivery"
  | Delivery_gap -> "delivery_gap"
  | Undetected_corruption -> "undetected_corruption"
  | Liveness_stall -> "liveness_stall"
  | Policy_flapping -> "policy_flapping"
  | Counter_regression -> "counter_regression"
  | Throughput_excess -> "throughput_excess"
  | Injected_sabotage -> "injected_sabotage"

type violation = { at : Time.t; label : string; kind : kind; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%a] %s %s: %s" Time.pp v.at (kind_to_string v.kind) v.label
    v.detail

(* Per-receiving-endpoint delivery-stream state. *)
type stream = { mutable last_seq : int option; mutable ever_unreliable : bool }

(* A tracked sender and the deliveries made under its label since it was
   tracked.  Only tracked labels are ever read, so only they are counted:
   a delivery under any other label costs no string hashing. *)
type tracked = { label : string; sender : Session.t; mutable count : int }

type t = {
  engine : Engine.t;
  unites : Unites.t;
  mantts : Mantts.t option;
  trace : Trace.t option;
  liveness_bound : Time.t;
  capacity_bps : float option;
  mutable injector : Fault.injector option;
  streams : stream Inttbl.t;
  mutable tracked : tracked list;  (* insertion order *)
  (* Last swept total per UNITES cell (one-element arrays: unboxed store);
     an absent cell was never written, so its last total is 0. *)
  prev_totals : float array Inttbl.t;
  mutable adaptations_seen : int;
  last_switch : Time.t Inttbl.t;
  mutable heal_seen : Time.t;
  mutable heal_pending : (Time.t * (string * int) list) list;
  mutable sweep : Engine.Timer.timer option;
  mutable violations_rev : violation list;
}

(* Cumulative whitebox counters that must never decrease. *)
let monotone_metrics =
  [
    Unites.Segments_sent;
    Unites.Segments_delivered;
    Unites.Bytes_delivered;
    Unites.Retransmissions;
    Unites.Acks_sent;
    Unites.Control_pdus;
  ]

let create ~engine ~unites ?mantts ?trace ?(liveness_bound = Time.sec 10.0)
    ?capacity_bps () =
  {
    engine;
    unites;
    mantts;
    trace;
    liveness_bound;
    capacity_bps;
    injector = None;
    streams = Inttbl.create 16;
    tracked = [];
    prev_totals = Inttbl.create 64;
    adaptations_seen = 0;
    last_switch = Inttbl.create 16;
    heal_seen = Time.zero;
    heal_pending = [];
    sweep = None;
    violations_rev = [];
  }

let set_injector t inj = t.injector <- Some inj

let record t ~label ~kind ~detail =
  let at = Engine.now t.engine in
  t.violations_rev <- { at; label; kind; detail } :: t.violations_rev;
  Option.iter
    (fun trace ->
      Trace.event trace ~at
        ~category:("chaos.violation." ^ kind_to_string kind)
        ~detail:(label ^ ": " ^ detail))
    t.trace

let inject_violation t ~detail =
  record t ~label:"-" ~kind:Injected_sabotage ~detail

let violations t = List.rev t.violations_rev

let bump t label =
  let rec go = function
    | [] -> ()
    | tr :: rest ->
      if String.equal tr.label label then tr.count <- tr.count + 1;
      go rest
  in
  go t.tracked

let observe t ~label ~key ~ordered ~reliable ~detected ~at:_ ~seq ~damaged =
  let stream =
    match Inttbl.find_opt t.streams key with
    | Some s -> s
    | None ->
      let s = { last_seq = None; ever_unreliable = false } in
      Inttbl.replace t.streams key s;
      s
  in
  if not reliable then stream.ever_unreliable <- true;
  if damaged && detected then
    record t ~label ~kind:Undetected_corruption
      ~detail:
        (Printf.sprintf "seq %d reached the application damaged despite detection"
           seq);
  (* The gap-free (exactly-once) oracle only binds streams that have been
     reliable for their whole life: a session that ever ran without
     retransmission may legitimately skip past losses. *)
  let gap_free = reliable && not stream.ever_unreliable in
  (match stream.last_seq with
  | None ->
    if gap_free && seq <> 0 then
      record t ~label ~kind:Delivery_gap
        ~detail:(Printf.sprintf "first delivery is seq %d, expected 0" seq)
  | Some last ->
    if ordered && seq = last then
      record t ~label ~kind:Duplicate_delivery
        ~detail:(Printf.sprintf "seq %d delivered twice" seq)
    else if ordered && seq < last then
      record t ~label ~kind:Out_of_order
        ~detail:(Printf.sprintf "seq %d after seq %d" seq last)
    else if gap_free && seq > last + 1 then
      record t ~label ~kind:Delivery_gap
        ~detail:(Printf.sprintf "seq %d after seq %d skipped %d segments" seq last
                   (seq - last - 1)));
  (match stream.last_seq with
  | Some last when ordered && seq <= last -> ()
  | _ -> stream.last_seq <- Some seq);
  bump t label;
  Option.iter (fun inj -> Fault.note_delivery inj ~at:(Engine.now t.engine)) t.injector

let attach_dispatcher t disp =
  Session.Dispatcher.set_delivery_tap disp (fun s (d : Session.delivery) ->
      let scs = Session.scs s in
      let ordered =
        scs.Scs.ordering = Params.Ordered
        && scs.Scs.duplicates = Params.Drop_duplicates
      in
      let rec label_of = function
        | [] -> Session.name s
        | tr :: rest ->
          if Session.id tr.sender = Session.id s then tr.label else label_of rest
      in
      let label = label_of t.tracked in
      let key = (Session.local_addr s * 1_000_000) + Session.id s in
      observe t ~label ~key ~ordered
        ~reliable:(not (Session.ever_loss_tolerant s))
        ~detected:(scs.Scs.detection <> Params.No_detection)
        ~at:d.Session.delivered_at ~seq:d.Session.seq ~damaged:d.Session.damaged;
      Option.iter
        (fun trace ->
          Trace.event trace ~at:(Engine.now t.engine) ~category:"app.deliver"
            ~detail:(Printf.sprintf "%s:%d" label d.Session.seq))
        t.trace)

let track_sender t ~label sender =
  t.tracked <- t.tracked @ [ { label; sender; count = 0 } ]

(* ------------------------------------------------------------------ *)
(* Periodic sweep *)

(* A total changes only when UNITES records into its cell, so checking
   the cells journalled since the last sweep flags every fall a walk over
   all sessions would, at O(writes) instead of O(sessions ever seen). *)
let check_cell t ~cell ~session m total =
  if session >= 1 then begin
    let prev =
      match Inttbl.find_opt t.prev_totals cell with
      | Some prev -> prev
      | None ->
        let prev = [| 0.0 |] in
        Inttbl.replace t.prev_totals cell prev;
        prev
    in
    if total < prev.(0) -. 1e-9 then
      record t
        ~label:(Printf.sprintf "session-%d" session)
        ~kind:Counter_regression
        ~detail:
          (Printf.sprintf "%s fell from %.0f to %.0f" (Unites.metric_name m)
             prev.(0) total);
    prev.(0) <- total
  end

let check_monotone t = Unites.journal_drain t.unites (check_cell t)

let check_policy t =
  match t.mantts with
  | None -> ()
  | Some mantts ->
    let fresh = Mantts.adaptations_since mantts t.adaptations_seen in
    t.adaptations_seen <- t.adaptations_seen + List.length fresh;
    List.iter
      (fun (at, session, desc) ->
        if String.length desc >= 7 && String.sub desc 0 7 = "switch " then begin
          Option.iter
            (fun trace ->
              Trace.event trace ~at ~category:"mantts.switch" ~detail:desc)
            t.trace;
          (match Inttbl.find_opt t.last_switch session with
          | Some prev ->
            let gap = Time.diff at prev in
            (* Same-instant entries are one monitor tick applying several
               rules; anything else below the cooldown is flapping. *)
            if gap > Time.zero && gap < Mantts.reconfigure_cooldown then
              record t
                ~label:(Printf.sprintf "session-%d" session)
                ~kind:Policy_flapping
                ~detail:
                  (Printf.sprintf "switch %s after only %s (cooldown %s)" desc
                     (Time.to_string gap)
                     (Time.to_string Mantts.reconfigure_cooldown))
          | None -> ());
          Inttbl.replace t.last_switch session at
        end)
      fresh

let snapshot_counts t =
  List.map (fun tr -> (tr.label, tr.count)) t.tracked

(* Liveness: a heal arms a watch holding each sender's delivery count.
   Progress at any later point exonerates the watch — retransmission
   timers back off after fault-inflated RTTs, so recovery bounded only
   by the backoff clamp is still recovery.  A watch that is past the
   bound AND still silent when the run ends (every fault healed, data
   pending, session up) is the wedge the oracle exists to catch. *)
let check_liveness ~final t =
  match t.injector with
  | None -> ()
  | Some inj ->
    (match Fault.last_heal inj with
    | Some h when h > t.heal_seen ->
      t.heal_seen <- h;
      t.heal_pending <- (h, snapshot_counts t) :: t.heal_pending
    | Some _ | None -> ());
    let now = Engine.now t.engine in
    t.heal_pending <-
      List.filter
        (fun (h, counts) ->
          if Time.diff now h < t.liveness_bound then not final
          else begin
            let stalled { label; sender; count } =
              let snap =
                match List.assoc_opt label counts with Some n -> n | None -> 0
              in
              count <= snap
              && (not (Session.send_queue_empty sender))
              && Session.state sender = Session.Established
              && Fault.active inj = 0
            in
            let suspects = List.filter stalled t.tracked in
            if suspects = [] then false
            else if final then begin
              List.iter
                (fun { label; _ } ->
                  record t ~label ~kind:Liveness_stall
                    ~detail:
                      (Printf.sprintf
                         "no delivery between the heal at %s and the end of \
                          the run (bound %s) despite pending data"
                         (Time.to_string h)
                         (Time.to_string t.liveness_bound)))
                suspects;
              false
            end
            else true
          end)
        t.heal_pending

let sweep_tick t () =
  check_monotone t;
  check_policy t;
  check_liveness ~final:false t

let start t =
  match t.sweep with
  | Some _ -> ()
  | None ->
    Unites.journal_start t.unites monotone_metrics;
    t.sweep <-
      Some (Engine.Timer.periodic t.engine ~interval:(Time.ms 100) (sweep_tick t))

let check_throughput t =
  match t.capacity_bps with
  | None -> ()
  | Some cap ->
    let elapsed = Time.to_sec (Engine.now t.engine) in
    if elapsed > 0.0 then
      List.iter
        (fun { label; sender; _ } ->
          let bytes =
            Unites.total t.unites ~session:(Session.id sender)
              Unites.Bytes_delivered
          in
          let rate = bytes *. 8.0 /. elapsed in
          if rate > cap *. 1.1 then
            record t ~label ~kind:Throughput_excess
              ~detail:
                (Printf.sprintf
                   "blackbox throughput %.3g bps exceeds link capacity %.3g bps"
                   rate cap))
        t.tracked

let finish t =
  (match t.sweep with
  | Some timer ->
    Engine.Timer.cancel timer;
    t.sweep <- None;
    check_monotone t;
    Unites.journal_stop t.unites
  | None -> ());
  check_policy t;
  check_liveness ~final:true t;
  check_throughput t
