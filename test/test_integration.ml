(* Cross-subsystem integration tests: the full MANTTS -> TKO -> UNITES
   pipeline over realistic topologies, and the paper's headline behaviours
   exercised end to end. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_baselines
open Adaptive_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every Table 1 application, driven through the whole stack on a LAN:
   the configuration MANTTS picks must actually carry the traffic. *)
let test_every_app_runs_on_lan () =
  List.iter
    (fun app ->
      let stack = Adaptive.create_stack ~seed:23 () in
      let a = Adaptive.add_host stack "src" in
      let receivers =
        List.init (Workloads.multicast_receivers app) (fun i ->
            let r = Adaptive.add_host stack (Printf.sprintf "recv%d" i) in
            Adaptive.connect_hosts stack a r (Profiles.lan_path ());
            r)
      in
      List.iter
        (fun r -> Workloads.install_server app (Mantts.entity stack.Adaptive.mantts r))
        receivers;
      let acd = Acd.make ~participants:receivers ~qos:(Workloads.qos app) () in
      let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
      let driver =
        Workloads.drive stack.Adaptive.engine stack.Adaptive.rng ~session:s app
          ~stop_at:(Time.sec 3.0)
      in
      (* File Transfer submits 10 MB up front: leave time to drain it. *)
      Adaptive.run stack ~until:(Time.sec 15.0);
      let delivered = Unites.aggregate_total stack.Adaptive.unites Unites.Bytes_delivered in
      check_bool (Workloads.name app ^ " generated") true (Workloads.bytes_sent driver > 0);
      check_bool
        (Workloads.name app ^ " delivered data")
        true (delivered > 0.0);
      (* Loss-intolerant classes must lose nothing on a clean LAN. *)
      if (Workloads.qos app).Qos.loss_tolerance <= 0.0 then
        check_bool
          (Workloads.name app ^ " delivered everything")
          true
          (delivered
           >= float_of_int
                (Workloads.bytes_sent driver * Workloads.multicast_receivers app));
      Mantts.close_session stack.Adaptive.mantts s;
      Adaptive.run stack ~until:(Time.sec 30.0))
    Workloads.all

(* §2.2(B): the overweight configuration.  TP4-style full reliability for
   loss-tolerant voice adds retransmission-induced latency a lightweight
   ADAPTIVE configuration avoids. *)
let test_overweight_voice_latency () =
  let run_voice use_tp4 =
    let stack = Adaptive.create_stack ~seed:41 () in
    let a = Adaptive.add_host stack "caller" in
    let b = Adaptive.add_host stack "callee" in
    let hops = Profiles.internet_path () in
    Adaptive.connect_hosts stack a b hops;
    (* Heavy cross traffic: ~13% congestive loss on the first WAN hop, so
       retransmission-based reliability pays real head-of-line latency. *)
    Congestion.constant (List.nth hops 1) 0.90;
    let qos = Workloads.qos Workloads.Voice_conversation in
    let latencies = ref [] in
    let record _ (d : Session.delivery) =
      latencies := Time.diff d.Session.delivered_at d.Session.app_stamp :: !latencies
    in
    let s =
      if use_tp4 then begin
        Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) record;
        Baselines.connect
          (Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a))
          ~peers:[ b ] Baselines.Tp4_like
      end
      else begin
        Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) record;
        let acd = Acd.make ~participants:[ b ] ~qos () in
        Mantts.open_session stack.Adaptive.mantts ~src:a ~acd ()
      end
    in
    ignore
      (Workloads.drive stack.Adaptive.engine stack.Adaptive.rng ~session:s
         Workloads.Voice_conversation ~stop_at:(Time.sec 5.0));
    Adaptive.run stack ~until:(Time.sec 8.0);
    let n = List.length !latencies in
    let sorted = List.sort compare !latencies in
    let p95 = if n = 0 then Time.zero else List.nth sorted (min (n - 1) (n * 95 / 100)) in
    (n, p95)
  in
  let n_tp4, p95_tp4 = run_voice true in
  let n_adaptive, p95_adaptive = run_voice false in
  check_bool "both delivered frames" true (n_tp4 > 50 && n_adaptive > 50);
  check_bool "lightweight config has lower tail latency" true (p95_adaptive < p95_tp4)

(* §2.2(A): the throughput preservation problem.  Host overhead, not the
   network, caps delivered throughput once channels get fast. *)
let test_throughput_preservation_shape () =
  let goodput ~bw ~host =
    let stack = Adaptive.create_stack ~seed:51 () in
    let a = Adaptive.add_host ~host_cpu:(host stack.Adaptive.engine) stack "a" in
    let b = Adaptive.add_host ~host_cpu:(host stack.Adaptive.engine) stack "b" in
    Adaptive.connect_hosts stack a b
      [ Link.create ~bandwidth_bps:bw ~propagation:(Time.us 50) ~queue_pkts:512 ~mtu:9180 () ];
    let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
    let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
    Session.send s ~bytes:5_000_000 ();
    Adaptive.run stack ~until:(Time.sec 30.0);
    let delivered = Unites.aggregate_total stack.Adaptive.unites Unites.Bytes_delivered in
    let finish =
      match Unites.aggregate stack.Adaptive.unites Unites.Delivery_latency with
      | Some s -> s.Stats.max
      | None -> nan
    in
    delivered *. 8.0 /. finish
  in
  let fast_host e = Host.zero_cost e in
  let slow_host e = Host.create ~per_packet:(Time.us 150) ~per_byte_copy:(Time.ns 50) e in
  let g_ideal_fast = goodput ~bw:622e6 ~host:fast_host in
  let g_ideal_slow = goodput ~bw:10e6 ~host:fast_host in
  let g_host_fast = goodput ~bw:622e6 ~host:slow_host in
  let g_host_slow = goodput ~bw:10e6 ~host:slow_host in
  (* Free hosts: delivered throughput scales with the channel. *)
  check_bool "ideal hosts scale with bandwidth" true (g_ideal_fast > 10.0 *. g_ideal_slow);
  (* 1992 hosts: the 10 Mb/s channel is still well used... *)
  check_bool "slow channel well used" true (g_host_slow > 0.5 *. 10e6);
  (* ...but the 622 Mb/s channel delivers a small fraction of its capacity
     — the §2.2(A) one-to-two-orders-of-magnitude gap. *)
  check_bool "fast channel mostly wasted by host overhead" true
    (g_host_fast < 0.25 *. 622e6);
  check_bool "host cap binds both directions of the sweep" true
    (g_host_fast < g_ideal_fast)

(* Reliable multicast vs N-unicast: the shared-hop saving. *)
let test_multicast_vs_n_unicast_cost () =
  let build () =
    let stack = Adaptive.create_stack ~seed:61 () in
    let a = Adaptive.add_host stack "src" in
    let shared =
      Link.create ~name:"shared" ~bandwidth_bps:10e6 ~propagation:(Time.us 5)
        ~queue_pkts:128 ~mtu:1500 ()
    in
    let receivers =
      List.init 4 (fun i ->
          let r = Adaptive.add_host stack (Printf.sprintf "r%d" i) in
          let tail =
            Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:128
              ~mtu:1500 ()
          in
          Topology.set_route stack.Adaptive.topology ~src:a ~dst:r [ shared; tail ];
          Topology.set_route stack.Adaptive.topology ~src:r ~dst:a
            [ Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:128 ~mtu:1500 () ];
          r)
    in
    (stack, a, receivers, shared)
  in
  (* ADAPTIVE multicast session. *)
  let stack, a, receivers, shared = build () in
  let acd =
    Acd.make ~participants:receivers ~qos:(Workloads.qos Workloads.Teleconferencing) ()
  in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  Adaptive.run stack ~until:(Time.ms 200);
  Session.send s ~bytes:100_000 ();
  Adaptive.run stack ~until:(Time.sec 10.0);
  let mcast_shared_bytes = (Link.stats shared).Link.bytes_carried in
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 20.0);
  (* TCP-like: four separate unicast connections. *)
  let stack2, a2, receivers2, shared2 = build () in
  let sessions =
    List.map
      (fun r ->
        Baselines.connect
          (Mantts.dispatcher (Mantts.entity stack2.Adaptive.mantts a2))
          ~peers:[ r ] Baselines.Tcp_like)
      receivers2
  in
  Adaptive.run stack2 ~until:(Time.ms 200);
  List.iter (fun s -> Session.send s ~bytes:100_000 ()) sessions;
  Adaptive.run stack2 ~until:(Time.sec 10.0);
  let unicast_shared_bytes = (Link.stats shared2).Link.bytes_carried in
  check_bool "both carried data" true
    (mcast_shared_bytes > 0 && unicast_shared_bytes > 0);
  check_bool "multicast pays the shared hop ~once vs ~4x" true
    (unicast_shared_bytes > 3 * mcast_shared_bytes)

(* Whitebox instrumentation can be turned off; blackbox metrics survive. *)
let test_whitebox_toggle_end_to_end () =
  let run whitebox =
    let stack = Adaptive.create_stack ~seed:71 ~whitebox () in
    let a = Adaptive.add_host stack "a" in
    let b = Adaptive.add_host stack "b" in
    Adaptive.connect_hosts stack a b (Profiles.lan_path ());
    let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
    let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
    Session.send s ~bytes:50_000 ();
    Adaptive.run stack ~until:(Time.sec 10.0);
    Mantts.close_session stack.Adaptive.mantts s;
    Adaptive.run stack ~until:(Time.sec 20.0);
    stack
  in
  let on = run true in
  let off = run false in
  check_bool "whitebox recorded when on" true (Unites.whitebox_samples on.Adaptive.unites > 0);
  check_int "nothing recorded when off" 0 (Unites.whitebox_samples off.Adaptive.unites);
  check_bool "blackbox rtt still measured when off" true
    (Unites.aggregate off.Adaptive.unites Unites.Rtt <> None)

(* Template cache: a session connected with a template's binding keeps it. *)
let test_template_cache_integration () =
  match Tko.Templates.find Tko.Templates.transaction with
  | None -> Alcotest.fail "template missing"
  | Some (_, scs) ->
    let stack = Adaptive.create_stack ~seed:81 () in
    let a = Adaptive.add_host stack "a" in
    let b = Adaptive.add_host stack "b" in
    Adaptive.connect_hosts stack a b (Profiles.lan_path ());
    let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
    (match Tko.Templates.lookup_scs scs with
    | Some (binding, _) ->
      let s = Session.connect ~binding disp ~peers:[ b ] ~scs () in
      Session.send s ~bytes:1000 ();
      Adaptive.run stack ~until:(Time.sec 1.0);
      check_bool "session kept the template binding" true
        ((Session.context s).Tko.binding = binding);
      Session.close ~graceful:false s
    | None -> Alcotest.fail "expected template hit")

(* Priority scheduling: an expedited control session sharing a CPU-bound
   host with a bulk transfer keeps its latency; without priority it queues
   behind the bulk backlog. *)
let test_priority_scheduling () =
  let run control_priority =
    let stack = Adaptive.create_stack ~seed:91 () in
    let slow e = Host.create ~per_packet:(Time.us 300) ~per_byte_copy:(Time.ns 25) e in
    let a = Adaptive.add_host ~host_cpu:(slow stack.Adaptive.engine) stack "a" in
    let b = Adaptive.add_host ~host_cpu:(slow stack.Adaptive.engine) stack "b" in
    Adaptive.connect_hosts stack a b (Profiles.lan_path () |> fun _ ->
      [ Link.create ~bandwidth_bps:100e6 ~propagation:(Time.us 50) ~queue_pkts:256 ~mtu:1500 () ]);
    let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
    (* Bulk session saturating the CPU. *)
    let bulk_scs =
      {
        Scs.default with
        Scs.transmission = Params.Sliding_window { window = 64 };
        recv_buffer_segments = 128;
        segment_bytes = 1400;
        priority = 4;
      }
    in
    let bulk = Session.connect disp ~peers:[ b ] ~scs:bulk_scs () in
    Session.send bulk ~bytes:20_000_000 ();
    (* Small control messages every 5 ms. *)
    let control_scs =
      {
        Scs.default with
        Scs.transmission = Params.Sliding_window { window = 8 };
        segment_bytes = 1400;
        priority = control_priority;
      }
    in
    let latencies = ref [] in
    let control =
      Session.connect disp ~peers:[ b ]
        ~on_deliver:(fun _ _ -> ())
        ~scs:control_scs ()
    in
    (* Watch control deliveries via UNITES per-session latency. *)
    let rec tick i =
      if i < 400 then
        ignore
          (Engine.schedule stack.Adaptive.engine
             ~at:(Time.add (Time.ms 100) (i * Time.ms 5))
             (fun () ->
               if Session.state control = Session.Established then
                 Session.send control ~bytes:200 ();
               tick (i + 1)))
    in
    tick 0;
    Adaptive.run stack ~until:(Time.sec 4.0);
    (match Unites.stats stack.Adaptive.unites ~session:(Session.id control)
             Unites.Delivery_latency with
    | Some s -> latencies := [ s.Stats.p95 ]
    | None -> ());
    Session.close ~graceful:false bulk;
    Session.close ~graceful:false control;
    match !latencies with [ p95 ] -> p95 | _ -> nan
  in
  let expedited = run 1 in
  let besteffort = run 4 in
  check_bool "both measured" true
    ((not (Float.is_nan expedited)) && not (Float.is_nan besteffort));
  check_bool "expedited control rides past the bulk backlog" true
    (expedited < 0.6 *. besteffort)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "every Table 1 app end to end" `Slow test_every_app_runs_on_lan;
        Alcotest.test_case "overweight voice (TP4) vs ADAPTIVE" `Slow
          test_overweight_voice_latency;
        Alcotest.test_case "throughput preservation shape" `Slow
          test_throughput_preservation_shape;
        Alcotest.test_case "multicast vs n-unicast shared-hop cost" `Quick
          test_multicast_vs_n_unicast_cost;
        Alcotest.test_case "whitebox toggle" `Quick test_whitebox_toggle_end_to_end;
        Alcotest.test_case "template cache" `Quick test_template_cache_integration;
        Alcotest.test_case "priority scheduling" `Quick test_priority_scheduling;
      ] );
  ]
