(* End-to-end tests of the Session protocol interpreter: reliability,
   transmission control, connection management, reconfiguration (segue
   under live traffic), multicast, FEC, and playout. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- fixture *)

type fixture = {
  engine : Engine.t;
  topo : Topology.t;
  net : Pdu.t Network.t;
  unites : Unites.t;
  a : Network.addr;
  b : Network.addr;
  c : Network.addr;
  disp_a : Session.Dispatcher.dispatcher;
  disp_b : Session.Dispatcher.dispatcher;
  disp_c : Session.Dispatcher.dispatcher;
  deliveries : (Network.addr, Session.delivery list ref) Hashtbl.t;
}

(* Accept any proposal unchanged and log deliveries per receiving host. *)
let make_fixture ?(seed = 7) ?(zero_cost = true) ~path_ab ?path_ac () =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" in
  let b = Topology.add_host topo "b" in
  let c = Topology.add_host topo "c" in
  Topology.set_symmetric_route topo ~a ~b path_ab;
  (match path_ac with
  | Some hops -> Topology.set_symmetric_route topo ~a ~b:c hops
  | None -> ());
  let net = Network.create engine ~rng:(Rng.create seed) topo in
  let unites = Unites.create engine in
  let deliveries = Hashtbl.create 4 in
  List.iter (fun h -> Hashtbl.replace deliveries h (ref [])) [ a; b; c ];
  let mk_host () =
    if zero_cost then Host.zero_cost engine
    else Host.create ~per_packet:(Time.us 20) engine
  in
  let mk_disp addr =
    let disp = Session.Dispatcher.create net ~addr ~host:(mk_host ()) ~unites in
    Session.Dispatcher.set_acceptor disp (fun ~src:_ ~conn ~proposal ->
        let scs =
          match proposal with
          | Some scs -> scs
          | None -> { Scs.default with Scs.connection = Params.Implicit }
        in
        Session.Dispatcher.Accept
          {
            scs;
            name = Printf.sprintf "acc-%d" conn;
            on_deliver =
              Some
                (fun _ d ->
                  let log = Hashtbl.find deliveries addr in
                  log := d :: !log);
          });
    disp
  in
  let disp_a = mk_disp a and disp_b = mk_disp b and disp_c = mk_disp c in
  { engine; topo; net; unites; a; b; c; disp_a; disp_b; disp_c; deliveries }

let received f addr = List.rev !(Hashtbl.find f.deliveries addr)
let received_seqs f addr = List.map (fun d -> d.Session.seq) (received f addr)
let received_bytes f addr =
  List.fold_left (fun acc d -> acc + d.Session.bytes) 0 (received f addr)

let lan () = [ Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () ]

let lossy_lan ~queue () =
  [ Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:queue ~mtu:1500 () ]

let noisy_lan ~ber () =
  [ Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~ber ~mtu:1500 () ]

let seq_range n = List.init n Fun.id

(* --------------------------------------------------------- reliability *)

let transfer_scs recovery reporting =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission = Params.Sliding_window { window = 16 };
    recovery;
    reporting;
    recv_buffer_segments = 32;
    segment_bytes = 1000;
    initial_rto = Time.ms 50;
  }

let run_transfer ?(bytes = 100_000) f scs =
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes ();
  Engine.run f.engine ~until:(Time.sec 60.0);
  Session.close s;
  Engine.run f.engine ~until:(Time.sec 120.0);
  s

let test_gbn_clean_transfer () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let s =
    run_transfer f (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }))
  in
  check_int "all bytes" 100_000 (received_bytes f f.b);
  Alcotest.(check (list int)) "in order, exactly once" (seq_range 100)
    (received_seqs f f.b);
  check_bool "closed" true (Session.state s = Session.Closed)

let test_gbn_recovers_from_queue_loss () =
  (* A 3-packet queue forces congestive drops under a 16-segment window. *)
  let f = make_fixture ~path_ab:(lossy_lan ~queue:3 ()) () in
  ignore
    (run_transfer f
       (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 })));
  check_int "all bytes despite drops" 100_000 (received_bytes f f.b);
  Alcotest.(check (list int)) "ordered exactly once" (seq_range 100) (received_seqs f f.b);
  check_bool "losses actually happened" true
    (Unites.aggregate_total f.unites Unites.Retransmissions > 0.0)

let test_selective_repeat_recovers () =
  let f = make_fixture ~path_ab:(lossy_lan ~queue:3 ()) () in
  ignore
    (run_transfer f
       (transfer_scs Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 1 })));
  check_int "all bytes" 100_000 (received_bytes f f.b);
  Alcotest.(check (list int)) "ordered exactly once" (seq_range 100) (received_seqs f f.b)

let test_selective_repeat_wastes_less () =
  (* Go-back-n's defining cost: it resends segments the receiver already
     holds, which arrive as duplicates.  Selective repeat resends only the
     holes. *)
  let run recovery reporting =
    (* Independent random loss (bit errors), deep queues: GBN's redundant
       copies actually arrive, showing as duplicates. *)
    let f = make_fixture ~path_ab:(noisy_lan ~ber:2e-6 ()) () in
    ignore (run_transfer ~bytes:200_000 f (transfer_scs recovery reporting));
    Unites.aggregate_total f.unites Unites.Dup_segments
  in
  let gbn = run Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let sr = run Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 1 }) in
  check_bool "SR delivers fewer duplicates than GBN under loss" true (sr < gbn)

let test_stop_and_wait () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs =
    { (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.zero })) with
      Scs.transmission = Params.Stop_and_wait }
  in
  ignore (run_transfer ~bytes:10_000 f scs);
  check_int "delivered" 10_000 (received_bytes f f.b);
  Alcotest.(check (list int)) "ordered" (seq_range 10) (received_seqs f f.b)

let test_corruption_detected_and_recovered () =
  (* A noisy link corrupts packets; checksum turns corruption into loss and
     ARQ repairs it. *)
  let f = make_fixture ~path_ab:(noisy_lan ~ber:5e-6 ()) () in
  ignore
    (run_transfer f
       (transfer_scs Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 1 })));
  check_int "all bytes despite corruption" 100_000 (received_bytes f f.b);
  check_bool "corruption detected" true
    (Unites.aggregate_total f.unites Unites.Corrupt_detected > 0.0);
  check_bool "nothing damaged reached the app" true
    (List.for_all (fun d -> not d.Session.damaged) (received f f.b))

let test_no_detection_delivers_damage () =
  let f = make_fixture ~path_ab:(noisy_lan ~ber:5e-6 ()) () in
  let scs =
    {
      (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 })) with
      Scs.detection = Params.No_detection;
    }
  in
  ignore (run_transfer f scs);
  check_bool "damaged data reached the app" true
    (List.exists (fun d -> d.Session.damaged) (received f f.b));
  check_bool "counted" true
    (Unites.aggregate_total f.unites Unites.Corrupt_delivered > 0.0)

let test_mechanism_compatibility_matrix () =
  (* Every coherent (transmission x recovery x reporting x ordering)
     combination must carry traffic over a mildly lossy link without
     wedging; ARQ combinations must deliver everything exactly once. *)
  let combos =
    [
      (* transmission, recovery, reporting, ordering, fully reliable *)
      ("sw/gbn/cum/ord", Params.Sliding_window { window = 12 }, Params.Go_back_n,
       Params.Cumulative_ack { delay = Time.ms 1 }, Params.Ordered, true);
      ("sw/gbn/cum/unord", Params.Sliding_window { window = 12 }, Params.Go_back_n,
       Params.Cumulative_ack { delay = Time.zero }, Params.Unordered, true);
      ("sw/sr/sack/ord", Params.Sliding_window { window = 12 }, Params.Selective_repeat,
       Params.Selective_ack { delay = Time.ms 1 }, Params.Ordered, true);
      ("sw/sr/sack/unord", Params.Sliding_window { window = 12 }, Params.Selective_repeat,
       Params.Selective_ack { delay = Time.zero }, Params.Unordered, true);
      ("saw/gbn/cum/ord", Params.Stop_and_wait, Params.Go_back_n,
       Params.Cumulative_ack { delay = Time.zero }, Params.Ordered, true);
      ("saw/sr/sack/ord", Params.Stop_and_wait, Params.Selective_repeat,
       Params.Selective_ack { delay = Time.zero }, Params.Ordered, true);
      ("rate/sr/nack/ord", Params.Rate_based { rate_bps = 4e6; burst = 8 },
       Params.Selective_repeat, Params.Nack_on_gap, Params.Ordered, false);
      ("rate/none/none/unord", Params.Rate_based { rate_bps = 4e6; burst = 8 },
       Params.No_recovery, Params.No_report, Params.Unordered, false);
      ("rate/fec/none/ord", Params.Rate_based { rate_bps = 4e6; burst = 8 },
       Params.Forward_error_correction { group = 4 }, Params.No_report, Params.Ordered,
       false);
      ("rate/fec/nack/ord", Params.Rate_based { rate_bps = 4e6; burst = 8 },
       Params.Forward_error_correction { group = 4 }, Params.Nack_on_gap, Params.Ordered,
       false);
      ("sw/none/cum/ord", Params.Sliding_window { window = 12 }, Params.No_recovery,
       Params.Cumulative_ack { delay = Time.ms 1 }, Params.Ordered, false);
      ("rate/gbn/cum/ord", Params.Rate_based { rate_bps = 4e6; burst = 8 },
       Params.Go_back_n, Params.Cumulative_ack { delay = Time.ms 1 }, Params.Ordered,
       true);
    ]
  in
  List.iter
    (fun (label, transmission, recovery, reporting, ordering, fully_reliable) ->
      let f = make_fixture ~path_ab:(noisy_lan ~ber:1.5e-6 ()) () in
      let scs =
        {
          Scs.default with
          Scs.connection = Params.Two_way;
          transmission;
          recovery;
          reporting;
          ordering;
          recv_buffer_segments = 24;
          segment_bytes = 1000;
          initial_rto = Time.ms 50;
        }
      in
      let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
      Engine.run f.engine ~until:(Time.ms 50);
      Session.send s ~bytes:60_000 ();
      Engine.run f.engine ~until:(Time.sec 60.0);
      Session.close ~graceful:false s;
      Engine.run f.engine ~until:(Time.sec 90.0);
      let got = received_bytes f f.b in
      if fully_reliable then begin
        check_int (label ^ ": everything") 60_000 got;
        let seqs = received_seqs f f.b in
        check_int (label ^ ": exactly once") 60
          (List.length (List.sort_uniq compare seqs))
      end
      else check_bool (label ^ ": most of the stream") true (got >= 48_000))
    combos

(* ------------------------------------------------------- rate and window *)

let test_rate_pacing () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 800_000.0; burst = 2 };
      reporting = Params.No_report;
      recovery = Params.No_recovery;
      segment_bytes = 1000;
    }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:100_000 ();
  Engine.run f.engine ~until:(Time.sec 10.0);
  (* 100 kB at 100 kB/s should take ~1 s: check the spread of arrivals. *)
  let ds = received f f.b in
  check_int "all delivered" 100 (List.length ds);
  let last = List.fold_left (fun acc d -> Time.max acc d.Session.delivered_at) 0 ds in
  check_bool "paced across ~1s" true (last > Time.ms 900 && last < Time.ms 1400);
  Session.close s;
  Engine.run f.engine

let test_window_respects_peer_advertisement () =
  let f = make_fixture ~path_ab:(lan ()) () in
  (* The responder's acceptor echoes the proposal, so advertise 4 via the
     proposal itself. *)
  let scs =
    {
      (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 })) with
      Scs.transmission = Params.Sliding_window { window = 64 };
      recv_buffer_segments = 4;
    }
  in
  ignore (run_transfer ~bytes:50_000 f scs);
  check_int "complete" 50_000 (received_bytes f f.b);
  let wmax =
    match Unites.aggregate f.unites Unites.Window_size with
    | Some s -> s.Stats.max
    | None -> nan
  in
  check_bool "in-flight bounded by advertisement" true (wmax <= 4.0 +. 1e-9)

let test_slow_start_ramp () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs =
    {
      (transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 })) with
      Scs.congestion = Params.Slow_start { initial = 1; threshold = 8 };
    }
  in
  ignore (run_transfer ~bytes:50_000 f scs);
  check_int "complete" 50_000 (received_bytes f f.b);
  let wmin =
    match Unites.aggregate f.unites Unites.Window_size with
    | Some s -> s.Stats.min
    | None -> nan
  in
  (* The very first transmission must have happened with a tiny window. *)
  check_bool "started small" true (wmin <= 1.0 +. 1e-9)

(* --------------------------------------------------- connection set-up *)

let setup_latency f scs =
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.sec 5.0);
  let d = received f f.b in
  check_int "delivered" 1 (List.length d);
  let first = List.hd d in
  Session.close s;
  Engine.run f.engine;
  first.Session.delivered_at

let wan () =
  [ Link.create ~bandwidth_bps:45e6 ~propagation:(Time.ms 15) ~queue_pkts:64 ~mtu:1500 () ]

let test_implicit_saves_round_trip () =
  let base =
    { Scs.default with Scs.segment_bytes = 1000; initial_rto = Time.ms 200 }
  in
  let f1 = make_fixture ~path_ab:(wan ()) () in
  let implicit =
    setup_latency f1 { base with Scs.connection = Params.Implicit }
  in
  let f2 = make_fixture ~path_ab:(wan ()) () in
  let explicit =
    setup_latency f2 { base with Scs.connection = Params.Two_way }
  in
  (* One 15 ms hop: implicit ~15-16 ms, 2-way ~45-47 ms. *)
  check_bool "implicit under one RTT" true (implicit < Time.ms 25);
  check_bool "explicit costs an extra round trip" true
    (Time.diff explicit implicit >= Time.ms 25)

let test_three_way_extra_control () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs = { Scs.default with Scs.connection = Params.Three_way; segment_bytes = 1000 } in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.sec 2.0);
  check_bool "established" true (Session.state s = Session.Established);
  check_bool "established stamped" true (Session.established_at s <> None);
  Session.close s;
  Engine.run f.engine;
  check_bool "setup latency recorded" true
    (Unites.stats f.unites ~session:(Session.id s) Unites.Setup_latency <> None)

let test_orphan_data_accepted_with_defaults () =
  let f = make_fixture ~path_ab:(lan ()) () in
  (* Inject a data PDU for a connection nobody opened: the §4.1.1 default
     configuration path. *)
  let seg = Pdu.seg ~seq:0 ~bytes:500 ~last:true () in
  Network.send f.net ~src:f.a ~dst:f.b ~bytes:532
    (Pdu.Data { conn = 424242; seg; retransmit = false; tx_stamp = Time.zero });
  Engine.run f.engine;
  check_int "orphan delivered via default config" 500 (received_bytes f f.b)

let test_negotiation_counter_proposal () =
  (* A stingy responder clamps the receive buffer; the initiator adopts it. *)
  let f = make_fixture ~path_ab:(lan ()) () in
  Session.Dispatcher.set_acceptor f.disp_b (fun ~src:_ ~conn ~proposal ->
      let scs = Option.value ~default:Scs.default proposal in
      Session.Dispatcher.Accept
        {
          scs = { scs with Scs.recv_buffer_segments = 2 };
          name = Printf.sprintf "stingy-%d" conn;
          on_deliver =
            Some
              (fun _ d ->
                let log = Hashtbl.find f.deliveries f.b in
                log := d :: !log);
        });
  let scs = transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:20_000 ();
  Engine.run f.engine ~until:(Time.sec 10.0);
  check_bool "initiator adopted counter-proposal" true
    ((Session.scs s).Scs.recv_buffer_segments = 2);
  check_int "transfer still completes" 20_000 (received_bytes f f.b);
  Session.close s;
  Engine.run f.engine

let test_graceful_close_drains () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs = transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:50_000 ();
  (* Close immediately: graceful close must still deliver everything. *)
  Session.close s;
  Engine.run f.engine ~until:(Time.sec 30.0);
  check_int "drained before fin" 50_000 (received_bytes f f.b);
  check_bool "closed" true (Session.state s = Session.Closed)

(* Delivery counters live on the endpoint itself, so they stay readable
   after teardown, when reports and callers consult them. *)
let test_counters_survive_close () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs = transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let passive = ref None in
  Session.Dispatcher.set_delivery_tap f.disp_b (fun ep _ -> passive := Some ep);
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:50_000 ();
  Session.close s;
  Engine.run f.engine ~until:(Time.sec 30.0);
  let r =
    match !passive with Some ep -> ep | None -> Alcotest.fail "nothing delivered"
  in
  check_bool "initiator closed" true (Session.state s = Session.Closed);
  check_bool "responder closed" true (Session.state r = Session.Closed);
  check_int "responder left the table" 0 (Session.Dispatcher.session_count f.disp_b);
  check_int "responder bytes" 50_000 (Session.bytes_delivered r);
  check_int "responder segments" 50 (Session.segments_delivered r);
  check_int "initiator bytes" 0 (Session.bytes_delivered s);
  check_int "initiator segments" 0 (Session.segments_delivered s)

let test_abort_may_lose_data () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs = transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:50_000 ();
  Session.close ~graceful:false s;
  check_bool "immediately closed" true (Session.state s = Session.Closed);
  Engine.run f.engine ~until:(Time.sec 5.0);
  check_bool "data was dropped" true (received_bytes f f.b < 50_000)

let test_send_after_close_rejected () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:Scs.default () in
  Session.close ~graceful:false s;
  Alcotest.check_raises "send on closed"
    (Invalid_argument "Session.send: session is closing or closed") (fun () ->
      Session.send s ~bytes:10 ())

(* ------------------------------------------------------------ hot path *)

(* Minor words one unicast data PDU costs in value mode over a one-hop
   path, from [Session.send] to delivery: the sender queues, segments and
   paces it, the network routes it and schedules its arrival, and the
   receiver demultiplexes, sequences and delivers it.  The receiver never
   reports and nothing is lost, so every word is the data path's.  The
   ceiling is the measured cost: a change that adds a word per PDU fails
   here. *)
let test_words_per_data_pdu () =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" in
  let b = Topology.add_host topo "b" in
  Topology.set_symmetric_route topo ~a ~b (lan ());
  let net = Network.create engine ~rng:(Rng.create 1) topo in
  let unites = Unites.create engine in
  let disp addr =
    Session.Dispatcher.create net ~addr ~host:(Host.zero_cost engine) ~unites
  in
  let disp_a = disp a and disp_b = disp b in
  let delivered = ref 0 in
  Session.Dispatcher.set_acceptor disp_b (fun ~src:_ ~conn:_ ~proposal ->
      Session.Dispatcher.Accept
        {
          scs = Option.value proposal ~default:Scs.default;
          name = "sink";
          on_deliver = Some (fun _ _ -> incr delivered);
        });
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Implicit;
      transmission = Params.Rate_based { rate_bps = 8e6; burst = 4 };
      reporting = Params.No_report;
      recovery = Params.No_recovery;
      segment_bytes = 1000;
    }
  in
  let s = Session.connect disp_a ~peers:[ b ] ~scs () in
  let burst n =
    for _ = 1 to n do
      Session.send s ~bytes:1000 ()
    done;
    Engine.run engine
  in
  (* The first burst opens the session and grows its rings and tables. *)
  burst 1000;
  let before = Gc.minor_words () in
  burst 1000;
  let per_pdu = (Gc.minor_words () -. before) /. 1000.0 in
  check_int "every PDU delivered" 2000 !delivered;
  let ceiling = 129.0 in
  if per_pdu > ceiling then
    Alcotest.failf "%.2f minor words per data PDU, ceiling %.2f" per_pdu ceiling

(* ------------------------------------------------------------ signaling *)

(* [reconfigure] carries the new configuration to the peer over the
   out-of-band channel: the peer segues and answers, and the answer ends
   the exchange — exactly one Signal, counted at both ends, and no
   retransmission of it. *)
let test_signal_round_trip () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let peer = ref None in
  Session.Dispatcher.set_delivery_tap f.disp_b (fun ep _ -> peer := Some ep);
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:Scs.default () in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.ms 100);
  let r = match !peer with Some ep -> ep | None -> Alcotest.fail "nothing delivered" in
  let control () = Unites.total f.unites ~session:(Session.id s) Unites.Control_pdus in
  let before = control () in
  let next = { Scs.default with Scs.priority = 1 } in
  (match Session.reconfigure s next with
  | Ok changed -> Alcotest.(check (list string)) "changed" [ "priority" ] changed
  | Error e -> Alcotest.fail e);
  Engine.run f.engine ~until:(Time.sec 1.0);
  check_bool "peer segued" true (Scs.equal (Session.scs r) next);
  Alcotest.(check (float 0.0)) "one signal, counted at both ends" 2.0 (control () -. before);
  let reconfigs =
    Unites.stats f.unites ~session:(Session.id s) Unites.Reconfigurations
    |> Option.map (fun st -> st.Stats.n)
  in
  Alcotest.(check (option int)) "both ends reconfigured" (Some 2) reconfigs;
  Session.close s;
  Engine.run f.engine

(* A peer's blob may name values no mechanism can run.  A Signal asking
   for one is refused and changes nothing; a Syn proposing one reaches
   the acceptor as no proposal.  Neither raises. *)
let test_signal_bad_scs () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let peer = ref None in
  Session.Dispatcher.set_delivery_tap f.disp_b (fun ep _ -> peer := Some ep);
  let scs =
    { Scs.default with Scs.transmission = Params.Rate_based { rate_bps = 1e6; burst = 4 } }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.ms 100);
  let r = match !peer with Some ep -> ep | None -> Alcotest.fail "nothing delivered" in
  (* From here on a's traffic goes to a recorder. *)
  let answers = ref [] in
  Network.attach f.net f.a (fun recv ->
      match recv.Network.payload with
      | Pdu.Signal_ack { blob; _ } -> answers := ("signal " ^ blob) :: !answers
      | Pdu.Syn_ack { accepted; _ } ->
        answers := Printf.sprintf "syn accepted=%b" accepted :: !answers
      | _ -> ());
  let send pdu = Network.send f.net ~src:f.a ~dst:f.b ~bytes:(Pdu.wire_bytes pdu) pdu in
  (* [Scs.to_blob] prints a rate in whole bits per second, so a peer
     names a rate below 1 b/s only in a blob it writes itself; the first
     [tx] key of a blob is the one read. *)
  let bad =
    List.map Scs.to_blob
    [
      { scs with Scs.transmission = Params.Rate_based { rate_bps = 0.0; burst = 4 } };
      { scs with Scs.transmission = Params.Rate_based { rate_bps = Float.nan; burst = 4 } };
      { scs with Scs.congestion = Params.Slow_start { initial = 0; threshold = 1 } };
      { scs with Scs.segment_bytes = 0 };
      { scs with Scs.recovery = Params.Forward_error_correction { group = 0 } };
      { scs with Scs.recovery = Params.Forward_error_correction { group = 256 } };
      { scs with Scs.reporting = Params.Nack_on_gap; initial_rto = -5 };
      { scs with Scs.delivery = Params.Playout { target = -1 } };
      { scs with Scs.segment_bytes = 70_000 };
      { scs with Scs.recv_buffer_segments = -1_000_000 };
    ]
    @ [ "tx=rate:1e-300:4;" ^ Scs.to_blob scs ]
  in
  List.iter
    (fun b -> send (Pdu.Signal { conn = Session.id s; blob = "scs!" ^ b }))
    bad;
  Engine.run f.engine ~until:(Time.ms 200);
  Alcotest.(check (list string)) "each signal refused"
    (List.map (fun _ -> "signal error:bad-scs") bad)
    !answers;
  check_bool "configuration unchanged" true (Scs.equal (Session.scs r) scs);
  answers := [];
  List.iter
    (fun b ->
      let conn = Network.fresh_conn_id f.net in
      send (Pdu.Syn { conn; blob = "startseq=0;" ^ b; first = None }))
    bad;
  Engine.run f.engine ~until:(Time.ms 300);
  Alcotest.(check (list string)) "each syn answered"
    (List.map (fun _ -> "syn accepted=true") bad)
    !answers

(* Any SCS blob a peer sends, by Syn or by an [scs!] Signal, is refused
   or run: the receiver then takes out-of-order and corrupted data under
   it, and nothing raises.  Field values range past every bound
   [Scs.of_blob] checks. *)
let prop_any_blob_is_refused_or_run =
  let open QCheck2.Gen in
  (* One draw in four is an edge value; the rest are runnable. *)
  let time =
    frequency
      [
        (1, oneofl [ min_int; -5; 0; 1; Time.ms 1; Time.sec 61.0; max_int ]);
        (3, oneofl [ Time.ms 10; Time.ms 50; Time.sec 1.0 ]);
      ]
  in
  let small =
    frequency
      [ (1, oneofl [ min_int; -1; 0; 1; 256; 65_535; 65_536; max_int ]); (3, int_range 2 255) ]
  in
  let scs =
    let* connection = oneofl Params.[ Implicit; Two_way; Three_way ] in
    let* transmission =
      oneof
        [
          pure Params.Stop_and_wait;
          map (fun window -> Params.Sliding_window { window }) small;
          map2
            (fun rate_bps burst -> Params.Rate_based { rate_bps; burst })
            (oneofl [ -1.0; 0.0; 1e-300; 1e3; 2e6; 1e300; Float.infinity; Float.nan ])
            small;
        ]
    in
    let* congestion =
      oneof
        [
          pure Params.No_congestion_control;
          map2 (fun initial threshold -> Params.Slow_start { initial; threshold }) small small;
        ]
    in
    let* detection = oneofl Params.[ No_detection; Internet_checksum; Crc32 ] in
    let* reporting =
      oneof
        [
          pure Params.No_report;
          pure Params.Nack_on_gap;
          map (fun delay -> Params.Cumulative_ack { delay }) time;
          map (fun delay -> Params.Selective_ack { delay }) time;
        ]
    in
    let* recovery =
      oneof
        [
          oneofl Params.[ No_recovery; Go_back_n; Selective_repeat ];
          map (fun group -> Params.Forward_error_correction { group }) small;
        ]
    in
    let* ordering = oneofl Params.[ Ordered; Unordered ] in
    let* duplicates = oneofl Params.[ Drop_duplicates; Accept_duplicates ] in
    let* delivery =
      oneof [ pure Params.As_available; map (fun target -> Params.Playout { target }) time ]
    in
    let* segment_bytes = small in
    let* recv_buffer_segments = small in
    let* priority = small in
    let* initial_rto = time in
    pure
      {
        Scs.connection;
        transmission;
        congestion;
        detection;
        reporting;
        recovery;
        ordering;
        duplicates;
        delivery;
        segment_bytes;
        recv_buffer_segments;
        priority;
        initial_rto;
      }
  in
  QCheck2.Test.make ~name:"a peer's SCS blob is refused or run, never raised" ~count:300
    ~print:(fun (b, syn) ->
      Printf.sprintf "%s by %s" (Scs.to_blob b) (if syn then "Syn" else "Signal"))
    (pair scs bool)
    (fun (b, by_syn) ->
      let f = make_fixture ~path_ab:(noisy_lan ~ber:2e-4 ()) () in
      let blob = Scs.to_blob b in
      let send pdu = Network.send f.net ~src:f.a ~dst:f.b ~bytes:(Pdu.wire_bytes pdu) pdu in
      let conn =
        if by_syn then begin
          let conn = Network.fresh_conn_id f.net in
          send (Pdu.Syn { conn; blob = "startseq=0;" ^ blob; first = None });
          conn
        end
        else begin
          let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:Scs.default () in
          Session.send s ~bytes:1000 ();
          Engine.run f.engine ~until:(Time.ms 50);
          Network.attach f.net f.a (fun _ -> ());
          send (Pdu.Signal { conn = Session.id s; blob = "scs!" ^ blob });
          Session.id s
        end
      in
      Engine.run f.engine ~until:(Time.add (Engine.now f.engine) (Time.ms 10));
      List.iter
        (fun seq ->
          let seg = Pdu.seg ~seq ~bytes:1000 () in
          send (Pdu.Data { conn; seg; retransmit = false; tx_stamp = Engine.now f.engine }))
        [ 3; 1; 5; 2 ];
      Engine.run f.engine ~until:(Time.add (Engine.now f.engine) (Time.sec 5.0));
      true)

(* ------------------------------------------------------------ detection *)

(* Detection against the closed form, one component at a time: over [n]
   data PDUs of [b] wire bytes on a link with bit-error rate [ber], the
   link corrupts each with probability p = 1 - (1 - ber)^(8b), so its
   count lies within 4 binomial standard deviations of n p.  With nothing
   repaired or reported, the receiver then discards exactly that many
   under the checksum and delivers exactly that many damaged without
   detection.  The tolerance comes from [n] and [p] alone. *)
let test_detection_closed_form () =
  let n = 2000 and ber = 1e-5 and seg_bytes = 1000 in
  let b =
    Pdu.wire_bytes
      (Pdu.Data
         { conn = 1; seg = Pdu.seg ~seq:0 ~bytes:seg_bytes (); retransmit = false;
           tx_stamp = Time.zero })
  in
  let p = 1.0 -. ((1.0 -. ber) ** float_of_int (8 * b)) in
  let mean = float_of_int n *. p in
  let tolerance = 4.0 *. sqrt (mean *. (1.0 -. p)) in
  let run detection =
    let link = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~mtu:1500 () in
    let f = make_fixture ~seed:53 ~path_ab:[ link ] () in
    let scs =
      {
        Scs.default with
        Scs.connection = Params.Two_way;
        transmission = Params.Rate_based { rate_bps = 5e6; burst = 1 };
        detection;
        reporting = Params.No_report;
        recovery = Params.No_recovery;
        ordering = Params.Unordered;
        duplicates = Params.Accept_duplicates;
        segment_bytes = seg_bytes;
      }
    in
    let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
    (* The handshake crosses a clean link; only data meets the errors. *)
    Engine.run f.engine ~until:(Time.ms 10);
    Link.set_ber link ber;
    Session.send s ~bytes:(n * seg_bytes) ();
    Engine.run f.engine ~until:(Time.sec 10.0);
    let st = Link.stats link in
    check_int "every data PDU crossed the link" (n + 1) st.Link.accepted;
    let total m = int_of_float (Unites.aggregate_total f.unites m) in
    (st.Link.corrupted, total Unites.Corrupt_detected, total Unites.Corrupt_delivered,
     List.length (received f f.b))
  in
  let corrupted, detected, damaged, delivered = run Params.Internet_checksum in
  check_bool
    (Printf.sprintf "%d corrupted within 4 sigma (%.1f) of %.1f" corrupted tolerance mean)
    true
    (Float.abs (float_of_int corrupted -. mean) <= tolerance);
  check_int "the checksum discards each" corrupted detected;
  check_int "none delivered damaged" 0 damaged;
  check_int "the rest delivered" (n - corrupted) delivered;
  let corrupted, detected, damaged, delivered = run Params.No_detection in
  check_bool "within 4 sigma without detection too" true
    (Float.abs (float_of_int corrupted -. mean) <= tolerance);
  check_int "nothing detected" 0 detected;
  check_int "each delivered damaged" corrupted damaged;
  check_int "everything delivered" n delivered

(* ----------------------------------------------- live reconfiguration *)

let test_segue_gbn_to_sr_no_loss () =
  (* Switch recovery scheme mid-transfer over a lossy link: the stream must
     still arrive exactly once, in order — the MSP-style on-the-fly change
     without data loss. *)
  let f = make_fixture ~path_ab:(lossy_lan ~queue:3 ()) () in
  let scs = transfer_scs Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 1 }) in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:200_000 ();
  (* Reconfigure in the thick of the transfer. *)
  ignore
    (Engine.schedule f.engine ~at:(Time.ms 60) (fun () ->
         match
           Session.reconfigure s
             {
               scs with
               Scs.recovery = Params.Selective_repeat;
               reporting = Params.Selective_ack { delay = Time.ms 1 };
             }
         with
         | Ok changed -> check_bool "components changed" true (changed <> [])
         | Error e -> Alcotest.fail e));
  Engine.run f.engine ~until:(Time.sec 60.0);
  Session.close s;
  Engine.run f.engine ~until:(Time.sec 120.0);
  check_int "every byte exactly once" 200_000 (received_bytes f f.b);
  Alcotest.(check (list int)) "in order" (seq_range 200) (received_seqs f f.b);
  check_bool "segue applied" true ((Session.scs s).Scs.recovery = Params.Selective_repeat);
  check_bool "peer segued too" true
    (Unites.aggregate_total f.unites Unites.Reconfigurations > 0.0)

let test_segue_rate_change_live () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 400_000.0; burst = 2 };
      reporting = Params.No_report;
      recovery = Params.No_recovery;
      segment_bytes = 1000;
    }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes:100_000 ();
  (* Double the rate after 0.5 s; 100 kB finishes sooner than at 50 kB/s. *)
  ignore
    (Engine.schedule f.engine ~at:(Time.ms 500) (fun () ->
         ignore
           (Session.reconfigure s
              {
                scs with
                Scs.transmission = Params.Rate_based { rate_bps = 1_600_000.0; burst = 2 };
              })));
  Engine.run f.engine ~until:(Time.sec 10.0);
  let last =
    List.fold_left (fun acc d -> Time.max acc d.Session.delivered_at) 0 (received f f.b)
  in
  check_int "all delivered" 100 (List.length (received f f.b));
  (* At a constant 400 kb/s it would take 2 s; speed-up must land well
     under that. *)
  check_bool "rate change took effect" true (last < Time.ms 1400);
  Session.close s;
  Engine.run f.engine

let test_static_template_refuses_live_reconfig () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let s =
    Session.connect ~binding:(Tko.Static_template "tcp-compatible") f.disp_a
      ~peers:[ f.b ] ~scs:Scs.default ()
  in
  (match Session.reconfigure s { Scs.default with Scs.recovery = Params.Selective_repeat } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "static binding must refuse");
  Session.close ~graceful:false s

(* ------------------------------------------------------------ multicast *)

let two_receiver_fixture () =
  (* a -> {b, c} share the first hop. *)
  let shared = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () in
  let tail_b = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () in
  let tail_c = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () in
  let f = make_fixture ~path_ab:[ shared; tail_b ] ~path_ac:[ shared; tail_c ] () in
  (f, shared)

let mcast_scs =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission = Params.Rate_based { rate_bps = 2e6; burst = 8 };
    reporting = Params.Nack_on_gap;
    recovery = Params.Selective_repeat;
    segment_bytes = 1000;
    initial_rto = Time.ms 50;
  }

let test_multicast_delivers_to_all () =
  let f, shared = two_receiver_fixture () in
  let s = Session.connect f.disp_a ~peers:[ f.b; f.c ] ~scs:mcast_scs () in
  Engine.run f.engine ~until:(Time.ms 50);
  check_bool "established with both" true (Session.state s = Session.Established);
  Session.send s ~bytes:50_000 ();
  Engine.run f.engine ~until:(Time.sec 10.0);
  check_int "b complete" 50_000 (received_bytes f f.b);
  check_int "c complete" 50_000 (received_bytes f f.c);
  (* Data crossed the shared hop once per segment, not twice. *)
  let data_carried = (Link.stats shared).Link.accepted in
  check_bool "shared hop not duplicated" true (data_carried < 80);
  Session.close s;
  Engine.run f.engine

let test_multicast_nack_repair () =
  let f, _ = two_receiver_fixture () in
  (* Make c's tail lossy: c must NACK and get unicast repairs, b unaffected. *)
  let tail_c = List.nth (Option.get (Topology.route f.topo ~src:f.a ~dst:f.c)) 1 in
  ignore tail_c;
  (* Drop via a tiny queue instead: rebuild with queue 2. *)
  let shared = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () in
  let tail_b = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~mtu:1500 () in
  let tail_c = Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64 ~ber:2e-5 ~mtu:1500 () in
  let f = make_fixture ~path_ab:[ shared; tail_b ] ~path_ac:[ shared; tail_c ] () in
  let s = Session.connect f.disp_a ~peers:[ f.b; f.c ] ~scs:mcast_scs () in
  Engine.run f.engine ~until:(Time.ms 50);
  Session.send s ~bytes:100_000 ();
  Engine.run f.engine ~until:(Time.sec 20.0);
  check_int "b complete" 100_000 (received_bytes f f.b);
  check_int "c repaired to complete" 100_000 (received_bytes f f.c);
  check_bool "nacks flowed" true (Unites.aggregate_total f.unites Unites.Nacks_sent > 0.0);
  Session.close s;
  Engine.run f.engine

let test_multicast_add_remove_peer () =
  let f, _ = two_receiver_fixture () in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:mcast_scs () in
  Engine.run f.engine ~until:(Time.ms 50);
  Session.send s ~bytes:20_000 ();
  Engine.run f.engine ~until:(Time.sec 2.0);
  (* c joins mid-stream: it must receive from the join point onward without
     stalling on the history it never saw. *)
  Session.add_peer s f.c;
  Engine.run f.engine ~until:(Time.sec 2.5);
  Session.send s ~bytes:20_000 ();
  Engine.run f.engine ~until:(Time.sec 6.0);
  check_int "b has everything" 40_000 (received_bytes f f.b);
  check_int "c has the second half" 20_000 (received_bytes f f.c);
  Session.remove_peer s f.c;
  Engine.run f.engine ~until:(Time.sec 6.5);
  Session.send s ~bytes:10_000 ();
  Engine.run f.engine ~until:(Time.sec 10.0);
  check_int "b got the tail too" 50_000 (received_bytes f f.b);
  check_int "c stopped receiving" 20_000 (received_bytes f f.c);
  Session.close s;
  Engine.run f.engine

(* ------------------------------------------------------------------ FEC *)

let fec_scs =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission = Params.Rate_based { rate_bps = 2e6; burst = 4 };
    reporting = Params.No_report;
    recovery = Params.Forward_error_correction { group = 4 };
    ordering = Params.Ordered;
    segment_bytes = 1000;
  }

let test_fec_recovers_without_retransmission () =
  let f = make_fixture ~path_ab:(noisy_lan ~ber:3e-6 ()) () in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:fec_scs () in
  Engine.run f.engine ~until:(Time.ms 50);
  Session.send s ~bytes:200_000 ();
  Engine.run f.engine ~until:(Time.sec 10.0);
  Session.close s;
  Engine.run f.engine ~until:(Time.sec 20.0);
  check_bool "parity flowed" true
    (Unites.aggregate_total f.unites Unites.Fec_parity_sent > 0.0);
  check_bool "recovered losses" true
    (Unites.aggregate_total f.unites Unites.Fec_recovered > 0.0);
  Alcotest.(check (float 0.0)) "zero retransmissions" 0.0
    (Unites.aggregate_total f.unites Unites.Retransmissions);
  (* Most data arrives; double losses within a group are genuinely gone. *)
  check_bool "nearly complete" true (received_bytes f f.b > 195_000);
  Alcotest.(check (list int)) "still ordered, no dups"
    (List.sort_uniq compare (received_seqs f f.b))
    (received_seqs f f.b)

let test_ordered_no_arq_skips_gaps () =
  (* Without recovery, an ordered stream must not stall on a lost segment. *)
  let f = make_fixture ~path_ab:(noisy_lan ~ber:8e-6 ()) () in
  let scs =
    {
      fec_scs with
      Scs.recovery = Params.No_recovery;
      initial_rto = Time.ms 40;
    }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Engine.run f.engine ~until:(Time.ms 50);
  Session.send s ~bytes:100_000 ();
  Engine.run f.engine ~until:(Time.sec 20.0);
  let seqs = received_seqs f f.b in
  check_bool "something lost" true (List.length seqs < 100);
  check_bool "but stream advanced past gaps" true
    (List.length seqs > 60 && List.nth seqs (List.length seqs - 1) > 90);
  check_bool "monotonic order" true
    (fst
       (List.fold_left
          (fun (ok, prev) s -> (ok && s > prev, s))
          (true, -1) seqs));
  check_bool "skips counted" true
    (Unites.aggregate_total f.unites Unites.Losses_unrecovered > 0.0);
  Session.close ~graceful:false s;
  Engine.run f.engine ~until:(Time.sec 21.0)

(* --------------------------------------------------------------- playout *)

let test_playout_smooths_jitter () =
  let f = make_fixture ~path_ab:(lan ()) () in
  let scs =
    {
      fec_scs with
      Scs.recovery = Params.No_recovery;
      delivery = Params.Playout { target = Time.ms 60 };
    }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Engine.run f.engine ~until:(Time.ms 10);
  (* Send frames with irregular submission: all stamped at submission. *)
  for i = 0 to 19 do
    ignore
      (Engine.schedule f.engine ~at:(Time.ms (10 + (20 * i))) (fun () ->
           Session.send s ~bytes:1000 ()))
  done;
  Engine.run f.engine ~until:(Time.sec 3.0);
  let ds = received f f.b in
  check_int "all frames" 20 (List.length ds);
  (* Every delivery is exactly playout-target after its stamp. *)
  List.iter
    (fun d ->
      check_int "constant latency at playout point" (Time.ms 60)
        (Time.diff d.Session.delivered_at d.Session.app_stamp))
    ds;
  Session.close s;
  Engine.run f.engine

let test_playout_late_discard () =
  (* A playout target smaller than the path delay discards everything. *)
  let f = make_fixture ~path_ab:(wan ()) () in
  let scs =
    {
      fec_scs with
      Scs.recovery = Params.No_recovery;
      delivery = Params.Playout { target = Time.ms 5 };
    }
  in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs () in
  Engine.run f.engine ~until:(Time.ms 100);
  Session.send s ~bytes:5_000 ();
  Engine.run f.engine ~until:(Time.sec 2.0);
  check_int "nothing playable" 0 (received_bytes f f.b);
  check_bool "late discards counted" true
    (Unites.aggregate_total f.unites Unites.Late_discards > 0.0);
  Session.close ~graceful:false s

let suite =
  [
    ( "session.reliability",
      [
        Alcotest.test_case "go-back-n clean transfer" `Quick test_gbn_clean_transfer;
        Alcotest.test_case "go-back-n recovers queue loss" `Quick
          test_gbn_recovers_from_queue_loss;
        Alcotest.test_case "selective repeat recovers" `Quick test_selective_repeat_recovers;
        Alcotest.test_case "SR wastes less than GBN" `Quick
          test_selective_repeat_wastes_less;
        Alcotest.test_case "stop and wait" `Quick test_stop_and_wait;
        Alcotest.test_case "corruption detected and repaired" `Quick
          test_corruption_detected_and_recovered;
        Alcotest.test_case "no detection delivers damage" `Quick
          test_no_detection_delivers_damage;
        Alcotest.test_case "mechanism compatibility matrix" `Slow
          test_mechanism_compatibility_matrix;
      ] );
    ( "session.connection",
      [
        Alcotest.test_case "implicit saves a round trip" `Quick
          test_implicit_saves_round_trip;
        Alcotest.test_case "three-way handshake" `Quick test_three_way_extra_control;
        Alcotest.test_case "orphan data uses defaults" `Quick
          test_orphan_data_accepted_with_defaults;
        Alcotest.test_case "negotiation counter-proposal" `Quick
          test_negotiation_counter_proposal;
        Alcotest.test_case "graceful close drains" `Quick test_graceful_close_drains;
        Alcotest.test_case "delivery counters survive close" `Quick
          test_counters_survive_close;
        Alcotest.test_case "abort may lose data" `Quick test_abort_may_lose_data;
        Alcotest.test_case "send after close rejected" `Quick
          test_send_after_close_rejected;
      ] );
    ( "session.hot_path",
      [ Alcotest.test_case "words per unicast data PDU" `Quick test_words_per_data_pdu ] );
    ( "session.signaling",
      [
        Alcotest.test_case "signal round trip" `Quick test_signal_round_trip;
        Alcotest.test_case "a bad scs is refused, not raised" `Quick test_signal_bad_scs;
        QCheck_alcotest.to_alcotest prop_any_blob_is_refused_or_run;
      ] );
    ( "session.reconfiguration",
      [
        Alcotest.test_case "segue GBN->SR without loss" `Quick test_segue_gbn_to_sr_no_loss;
        Alcotest.test_case "live rate change" `Quick test_segue_rate_change_live;
        Alcotest.test_case "static template refuses" `Quick
          test_static_template_refuses_live_reconfig;
      ] );
    ( "session.multicast",
      [
        Alcotest.test_case "delivers to all members" `Quick test_multicast_delivers_to_all;
        Alcotest.test_case "nack repair" `Quick test_multicast_nack_repair;
        Alcotest.test_case "dynamic membership" `Quick test_multicast_add_remove_peer;
      ] );
    ( "session.detection",
      [ Alcotest.test_case "agrees with the closed form" `Quick test_detection_closed_form ] );
    ( "session.fec",
      [
        Alcotest.test_case "FEC recovers without retransmission" `Quick
          test_fec_recovers_without_retransmission;
        Alcotest.test_case "ordered no-ARQ skips gaps" `Quick test_ordered_no_arq_skips_gaps;
      ] );
    ( "session.playout",
      [
        Alcotest.test_case "smooths jitter to zero" `Quick test_playout_smooths_jitter;
        Alcotest.test_case "late discard" `Quick test_playout_late_discard;
      ] );
  ]
