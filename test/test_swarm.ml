(* SWARM test layer: the dispatcher's hashed connection table against a
   reference model, demux integrity under arbitrary session churn, the
   MANTTS admission path, and a differential check that each Table-1
   application's synthesized stack delivers the same payload bytes as the
   matching static baseline over a lossless link. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_baselines
open Adaptive_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Conntable vs a reference model *)

(* The model: an association from key to state, mirroring exactly the
   documented semantics of each update. *)
module Model = struct
  type state = Half | Open | Wait of Time.t

  type t = (int, state * int) Hashtbl.t (* key -> state, value *)

  let create () : t = Hashtbl.create 16

  let insert m ~key ~half_open v =
    Hashtbl.replace m key ((if half_open then Half else Open), v)

  let promote m key =
    match Hashtbl.find_opt m key with
    | Some (Half, v) -> Hashtbl.replace m key (Open, v)
    | _ -> ()

  let retire m ~key ~expiry =
    match Hashtbl.find_opt m key with
    | Some ((Half | Open), v) -> Hashtbl.replace m key (Wait expiry, v)
    | _ -> ()

  let sweep m ~now =
    let expired =
      Hashtbl.fold
        (fun key (st, _) acc ->
          match st with Wait e when e <= now -> key :: acc | _ -> acc)
        m []
    in
    List.iter (Hashtbl.remove m) expired;
    List.length expired

  let live m =
    Hashtbl.fold
      (fun _ (st, _) acc -> match st with Half | Open -> acc + 1 | Wait _ -> acc)
      m 0

  let half m =
    Hashtbl.fold
      (fun _ (st, _) acc -> match st with Half -> acc + 1 | _ -> acc)
      m 0

  let waiting m =
    Hashtbl.fold
      (fun _ (st, _) acc -> match st with Wait _ -> acc + 1 | _ -> acc)
      m 0

  let find m key = Hashtbl.find_opt m key
end

type table_op =
  | Op_insert of int * bool * int
  | Op_promote of int
  | Op_retire of int
  | Op_advance_sweep (* advance time past some expiries, then sweep *)
  | Op_find of int

let gen_table_ops =
  QCheck2.Gen.(
    let op =
      let* key = int_range 1 60 in
      let* pick = int_range 0 9 in
      let* v = int_range 0 1000 in
      return
        (match pick with
        | 0 | 1 | 2 -> Op_insert (key, pick = 0, v)
        | 3 -> Op_promote key
        | 4 | 5 -> Op_retire key
        | 6 -> Op_advance_sweep
        | _ -> Op_find key)
    in
    list_size (int_range 50 400) op)

let prop_conntable_matches_model =
  QCheck2.Test.make ~name:"conntable agrees with reference model" ~count:300
    gen_table_ops (fun ops ->
      let t = Conntable.create ~initial_capacity:4 () in
      let m = Model.create () in
      let now = ref Time.zero in
      let ok = ref true in
      let agree key =
        let slot = Conntable.find t key in
        match (Model.find m key, slot) with
        | None, -1 -> true
        | None, _ | Some _, -1 -> false
        | Some (st, v), slot -> (
          match (st, Conntable.slot_state t slot) with
          | Model.Half, Conntable.Half_open | Model.Open, Conntable.Open ->
            Conntable.slot_value t slot = v
            && Conntable.find_live t key = Some v
          | Model.Wait _, Conntable.Time_wait -> Conntable.find_live t key = None
          | _ -> false)
      in
      List.iter
        (fun op ->
          (match op with
          | Op_insert (key, half_open, v) ->
            Conntable.insert t ~key ~half_open v;
            Model.insert m ~key ~half_open v
          | Op_promote key ->
            Conntable.promote t key;
            Model.promote m key
          | Op_retire key ->
            let expiry = Time.add !now (Time.ms 10) in
            Conntable.retire t ~key ~expiry;
            Model.retire m ~key ~expiry
          | Op_advance_sweep ->
            now := Time.add !now (Time.ms 15);
            if Conntable.sweep t ~now:!now <> Model.sweep m ~now:!now then
              ok := false
          | Op_find key -> if not (agree key) then ok := false);
          if
            Conntable.live_count t <> Model.live m
            || Conntable.half_open_count t <> Model.half m
            || Conntable.time_wait_count t <> Model.waiting m
          then ok := false)
        ops;
      (* Every key agrees at the end. *)
      for key = 1 to 60 do
        if not (agree key) then ok := false
      done;
      !ok)

(* Under steady churn the table's size must follow the entries it holds,
   not the sessions it has ever seen: tombstones left by swept time-wait
   entries are dropped by rehashing in place, not by doubling. *)
let test_conntable_capacity_bounded () =
  let t = Conntable.create () in
  let live_cap = 1_000 and quarantine = 500 and sweep_every = 250 in
  let peak = ref 0 in
  for key = 0 to 119_999 do
    let now = Time.ms key in
    Conntable.insert t ~key ~half_open:false key;
    if key >= live_cap then
      Conntable.retire t ~key:(key - live_cap) ~expiry:(Time.ms (key + quarantine));
    if key mod sweep_every = 0 then ignore (Conntable.sweep t ~now);
    peak := max !peak (Conntable.live_count t + Conntable.time_wait_count t)
  done;
  check_bool "never more than 1,000 live" true (Conntable.live_count t <= live_cap);
  let cap = Conntable.capacity t in
  if cap > 4 * !peak then
    Alcotest.failf "capacity %d exceeds 4x the peak %d live + time-wait entries" cap
      !peak

(* ------------------------------------------------------------------ *)
(* Bounded memory under churn: once sessions close and their time-wait
   quarantine lapses, a dispatcher keeps nothing per session it has
   served.  Live heap after [n] churned sessions, read while the run's
   stack is still reachable. *)

let churned_live_words n =
  let stack = Adaptive.create_stack ~seed:5 () in
  let client = Adaptive.add_host stack "client" in
  let server = Adaptive.add_host stack "server" in
  (* Churn's unconstrained LAN: every handshake and Fin gets through, so
     each session really closes at both ends. *)
  let lan =
    Profiles.custom ~name:"lan" ~bandwidth_bps:1e9 ~propagation:(Time.us 50)
      ~queue_pkts:4096 ~mtu:65535 ()
  in
  Adaptive.connect_hosts stack client server [ lan ];
  Unites.set_session_cap stack.Adaptive.unites 100;
  let engine = stack.Adaptive.engine and mantts = stack.Adaptive.mantts in
  let lifetime = Time.ms 500 in
  let acd =
    Acd.make ~participants:[ server ]
      ~qos:{ Qos.default with Qos.duration = Some lifetime }
      ()
  in
  (* Each open schedules the next, so the engine holds a bounded number
     of pending events however many sessions the run churns through. *)
  let rec open_at i =
    if i < n then
      Engine.schedule_anon engine ~at:(Time.ms i) (fun () ->
          let session = Mantts.open_session mantts ~src:client ~acd () in
          Session.send session ~bytes:2_000 ();
          Engine.schedule_anon engine ~at:(Time.add (Engine.now engine) lifetime)
            (fun () -> Mantts.close_session mantts session);
          open_at (i + 1))
  in
  open_at 0;
  Adaptive.run stack;
  List.iter
    (fun host ->
      let disp = Mantts.dispatcher (Mantts.entity mantts host) in
      check_int "every session closed" 0 (Session.Dispatcher.session_count disp))
    [ client; server ];
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity stack);
  words

let test_churn_memory_bounded () =
  let small = 4_000 and large = 16_000 in
  let w_small = churned_live_words small in
  let w_large = churned_live_words large in
  let per_session =
    float_of_int (w_large - w_small) /. float_of_int (large - small)
  in
  if per_session >= 1.0 then
    Alcotest.failf "live heap grows %.2f words per extra churned session (%d -> %d)"
      per_session w_small w_large

(* ------------------------------------------------------------------ *)
(* Demux integrity under churn: arbitrary interleavings of active opens,
   closes, data and late segments across >= 100 endpoints never mis-route
   a payload and never leak a table entry. *)

type churn_op =
  | Ch_open of int (* slot *)
  | Ch_send of int
  | Ch_close of int
  | Ch_late of int (* re-inject a data segment for a retired conn *)

let gen_churn =
  QCheck2.Gen.(
    let op =
      let* slot = int_range 0 119 in
      let* pick = int_range 0 7 in
      return
        (match pick with
        | 0 | 1 | 2 -> Ch_open slot
        | 3 | 4 -> Ch_send slot
        | 5 | 6 -> Ch_close slot
        | _ -> Ch_late slot)
    in
    pair (int_range 1 10_000) (list_size (int_range 150 400) op))

let run_churn (seed, ops) =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  Topology.set_symmetric_route topo ~a ~b
    [
      Link.create ~bandwidth_bps:100e6 ~propagation:(Time.us 50) ~queue_pkts:2048
        ~mtu:1500 ();
    ];
  let net = Network.create engine ~rng:(Rng.create seed) topo in
  let unites = Unites.create engine in
  (* conn id -> the unique marker its payloads must carry *)
  let expected : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let misroutes = ref 0 and deliveries = ref 0 in
  let record_delivery session del =
    incr deliveries;
    match del.Session.payload with
    | None -> incr misroutes (* every send in this test carries bytes *)
    | Some msg -> (
      match Hashtbl.find_opt expected (Session.id session) with
      | Some marker when Msg.data_to_string msg = marker -> ()
      | Some _ | None -> incr misroutes)
  in
  let mk addr =
    let d =
      Session.Dispatcher.create net ~addr ~host:(Host.zero_cost engine) ~unites
    in
    Session.Dispatcher.set_acceptor d (fun ~src:_ ~conn ~proposal ->
        match proposal with
        | None ->
          (* A data segment with no connection context must not fabricate
             a session. *)
          Session.Dispatcher.Reject
        | Some scs ->
          Session.Dispatcher.Accept
            {
              scs;
              name = Printf.sprintf "acc-%d" conn;
              on_deliver = Some record_delivery;
            });
    d
  in
  let da = mk a and db = mk b in
  let sessions = Array.make 120 None in
  let retired = ref [] in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Sliding_window { window = 8 };
      recv_buffer_segments = 16;
      segment_bytes = 256;
      initial_rto = Time.ms 40;
    }
  in
  let t = ref Time.zero in
  List.iteri
    (fun i op ->
      t := Time.add !t (Time.ms ((i mod 7) + 1));
      let at = !t in
      ignore
        (Engine.schedule engine ~at (fun () ->
             match op with
             | Ch_open slot ->
               if sessions.(slot) = None then begin
                 let marker = Printf.sprintf "slot-%d-op-%d" slot i in
                 let s = Session.connect da ~peers:[ b ] ~scs () in
                 Hashtbl.replace expected (Session.id s) marker;
                 sessions.(slot) <- Some (s, marker)
               end
             | Ch_send slot -> (
               match sessions.(slot) with
               | Some (s, marker) when Session.state s <> Session.Closed ->
                 Session.send s
                   ~bytes:(String.length marker)
                   ~payload:(Msg.of_string marker) ()
               | Some _ | None -> ())
             | Ch_close slot -> (
               match sessions.(slot) with
               | Some (s, _) ->
                 retired := Session.id s :: !retired;
                 Session.close s;
                 sessions.(slot) <- None
               | None -> ())
             | Ch_late slot -> (
               (* A stale segment for some torn-down connection arrives at
                  the responder. *)
               match !retired with
               | [] -> ()
               | conns ->
                 let conn = List.nth conns (slot mod List.length conns) in
                 Network.send net ~src:a ~dst:b ~bytes:64
                   (Pdu.Data
                      {
                        conn;
                        seg = Pdu.seg ~seq:9999 ~bytes:64 ();
                        retransmit = true;
                        tx_stamp = Time.zero;
                      })))))
    ops;
  Engine.run engine ~until:(Time.sec 30.0);
  (* Quiesce: close everything still open, then run past the time-wait
     quarantine so the sweeper reclaims every entry. *)
  Array.iter
    (function Some (s, _) -> Session.close s | None -> ())
    sessions;
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 30.0));
  let leaked d =
    Session.Dispatcher.session_count d
    + Session.Dispatcher.half_open_count d
    + Session.Dispatcher.time_wait_count d
  in
  (!misroutes, !deliveries, leaked da + leaked db)

let prop_churn_no_misroute_no_leak =
  QCheck2.Test.make
    ~name:"churn over 120 endpoints: no mis-routed payload, no table leak"
    ~count:40 gen_churn (fun case ->
      let misroutes, _deliveries, leaked = run_churn case in
      misroutes = 0 && leaked = 0)

(* ------------------------------------------------------------------ *)
(* Admission control units *)

let overload_stack () =
  let stack = Adaptive.create_stack ~seed:11 () in
  let a = Adaptive.add_host stack "a" and b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.lan_path ());
  (stack, a, b)

let test_admission_thresholds () =
  let stack, a, b = overload_stack () in
  let m = Adaptive.mantts stack in
  Mantts.set_admission m
    (Some
       { Mantts.soft_sessions = 2; hard_sessions = 4; max_cpu_backlog = Time.sec 1.0 });
  let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
  let decisions =
    List.init 6 (fun _ ->
        match Mantts.try_open_session m ~src:a ~acd () with
        | Ok (_, d) -> d
        | Error _ -> Mantts.Refused)
  in
  check_bool "first two admitted plainly" true
    (List.filteri (fun i _ -> i < 2) decisions
    = [ Mantts.Admitted; Mantts.Admitted ]);
  check_bool "next two degraded" true
    (List.filteri (fun i _ -> i >= 2 && i < 4) decisions
    = [ Mantts.Degraded; Mantts.Degraded ]);
  check_bool "past the hard limit refused" true
    (List.filteri (fun i _ -> i >= 4) decisions
    = [ Mantts.Refused; Mantts.Refused ]);
  let u = stack.Adaptive.unites in
  check_int "refusals counted"
    2
    (int_of_float (Unites.total u ~session:Unites.swarm_session Unites.Sessions_refused));
  check_int "degradations counted"
    2
    (int_of_float
       (Unites.total u ~session:Unites.swarm_session Unites.Sessions_degraded))

(* Graceful degradation seen through admission: with the soft limit at
   zero every open is degraded, and [scs_transform] (applied after
   degradation) captures what MANTTS counter-proposes for each Table-1
   application's ACD. *)
let test_degrade_preserves_semantics () =
  let stack, a, b = overload_stack () in
  let m = Adaptive.mantts stack in
  Mantts.set_admission m
    (Some
       { Mantts.soft_sessions = 0; hard_sessions = 1_000; max_cpu_backlog = Time.sec 1.0 });
  List.iter
    (fun app ->
      let acd = Acd.make ~participants:[ b ] ~qos:(Workloads.qos app) () in
      let scs = Mantts.derive_scs m ~src:a acd (Mantts.classify acd) in
      let degraded = ref None in
      (match
         Mantts.try_open_session m ~src:a ~acd
           ~scs_transform:(fun d ->
             degraded := Some d;
             d)
           ()
       with
      | Ok (_, Mantts.Degraded) -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s: open not degraded" (Workloads.name app));
      let d = Option.get !degraded in
      check_bool "reliability preserved" true (d.Scs.recovery = scs.Scs.recovery);
      check_bool "ordering preserved" true (d.Scs.ordering = scs.Scs.ordering);
      check_bool "duplicate policy preserved" true (d.Scs.duplicates = scs.Scs.duplicates);
      check_bool "delivery semantics preserved" true (d.Scs.delivery = scs.Scs.delivery);
      check_bool "buffer not larger" true
        (d.Scs.recv_buffer_segments <= scs.Scs.recv_buffer_segments))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Differential: each Table-1 application's MANTTS stack vs the matching
   static baseline delivers the identical payload bytes over a lossless
   link. *)

let baseline_for app =
  match Workloads.expected_tsc app with
  | Tsc.Interactive_isochronous | Tsc.Distributional_isochronous ->
    Baselines.Udp_like
  | Tsc.Realtime_non_isochronous -> Baselines.Tp4_like
  | Tsc.Non_realtime_non_isochronous -> Baselines.Tcp_like

(* Fixed message schedule: 20 small messages, paced so even the bare
   datagram baseline cannot overrun a lossless LAN queue. *)
let messages app =
  List.init 20 (fun i -> Printf.sprintf "%s:%02d:payload" (Workloads.name app) i)

let drive_and_collect ~open_session app =
  let stack = Adaptive.create_stack ~seed:99 () in
  let a = Adaptive.add_host stack "a" and b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.lan_path ());
  let got = ref [] in
  Mantts.set_app_handler
    (Mantts.entity (Adaptive.mantts stack) b)
    (fun _ del ->
      match del.Session.payload with
      | Some msg -> got := Msg.data_to_string msg :: !got
      | None -> ());
  let session = open_session stack a b in
  List.iteri
    (fun i text ->
      ignore
        (Engine.schedule stack.Adaptive.engine
           ~at:(Time.ms (10 + (i * 5)))
           (fun () ->
             Session.send session
               ~bytes:(String.length text)
               ~payload:(Msg.of_string text) ())))
    (messages app);
  Adaptive.run stack ~until:(Time.sec 20.0);
  Session.close session;
  Adaptive.run stack ~until:(Time.sec 40.0);
  List.sort compare !got

let test_differential_vs_baselines () =
  List.iter
    (fun app ->
      let adaptive =
        drive_and_collect app ~open_session:(fun stack a b ->
            let acd =
              Acd.make ~participants:[ b ] ~qos:(Workloads.qos app) ()
            in
            Mantts.open_session (Adaptive.mantts stack) ~src:a ~acd ())
      in
      let baseline =
        drive_and_collect app ~open_session:(fun stack a b ->
            Baselines.connect
              (Mantts.dispatcher (Mantts.entity (Adaptive.mantts stack) a))
              ~peers:[ b ] (baseline_for app))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: adaptive and %s deliver identical payloads"
           (Workloads.name app)
           (match baseline_for app with
           | Baselines.Tcp_like -> "tcp"
           | Baselines.Tp4_like -> "tp4"
           | Baselines.Udp_like -> "udp"))
        baseline adaptive;
      check_bool
        (Printf.sprintf "%s: all 20 messages arrived" (Workloads.name app))
        true
        (List.length adaptive = 20))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Swarm workload determinism (fast case; the bench does the full scale) *)

let test_swarm_deterministic () =
  let cfg = Churn.default_config ~sessions:120 ~seed:5 in
  let o1 = Churn.run cfg in
  let o2 = Churn.run cfg in
  check_bool "same seed, same digest" true
    (o1.Churn.digest = o2.Churn.digest);
  check_int "all offered opens admitted without a policy"
    o1.Churn.offered o1.Churn.admitted;
  check_bool "demux stayed O(1) on average" true
    (o1.Churn.demux_probes_mean < 2.0)

(* A bit-error burst corrupts Fin_acks in wire-true mode, so clients
   retry their Fin after the server side has entered time-wait, and the
   server's dispatcher re-answers from the quarantine.  Those replies
   must be sized by their encoding like every other injection, or the
   wire hook refuses the frame. *)
let test_wire_timewait_reanswer () =
  let burst =
    [ { Adaptive_chaos.Fault.cls = Adaptive_chaos.Fault.Ber_burst;
        start = Time.ms 150; duration = Time.ms 900; target = 0;
        intensity = 0.8 } ]
  in
  let o =
    Churn.run
      { (Churn.default_config ~sessions:6 ~seed:29) with
        Churn.churn_rounds = 1;
        monitored_share = 0;
        payload_bytes = 12_000;
        link_bps = 30e6;
        link_mtu = 1500;
        chaos = Some burst;
        wire = true }
  in
  check_int "every open closed" o.Churn.admitted o.Churn.closed;
  match o.Churn.wire_report with
  | Some w -> check_bool "the burst corrupted frames" true (w.Session.Wire.rejects > 0)
  | None -> Alcotest.fail "wire-true run produced no wire report"

let suite =
  [
    ( "swarm.conntable",
      List.map QCheck_alcotest.to_alcotest [ prop_conntable_matches_model ]
      @ [
          Alcotest.test_case "capacity follows entries held under churn" `Quick
            test_conntable_capacity_bounded;
        ] );
    ( "swarm.churn",
      List.map QCheck_alcotest.to_alcotest [ prop_churn_no_misroute_no_leak ] );
    ( "swarm.admission",
      [
        Alcotest.test_case "thresholds: admit, degrade, refuse" `Quick
          test_admission_thresholds;
        Alcotest.test_case "degrade_scs preserves delivery semantics" `Quick
          test_degrade_preserves_semantics;
      ] );
    ( "swarm.differential",
      [
        Alcotest.test_case "Table-1 apps vs static baselines" `Slow
          test_differential_vs_baselines;
      ] );
    ( "swarm.workload",
      [
        Alcotest.test_case "swarm workload is deterministic" `Quick
          test_swarm_deterministic;
        Alcotest.test_case "wire-true churn re-answers retried Fins" `Quick
          test_wire_timewait_reanswer;
        Alcotest.test_case "live heap stays flat as churned sessions accumulate"
          `Quick test_churn_memory_bounded;
      ] );
  ]
