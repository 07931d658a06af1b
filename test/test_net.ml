(* Tests for the network substrate: Link, Topology, Network, Congestion,
   Profiles. *)

open Adaptive_sim
open Adaptive_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_link ?(bw = 8e6) ?(prop = Time.ms 1) ?(queue = 4) ?(ber = 0.0) ?(mtu = 1500) ()
    =
  Link.create ~bandwidth_bps:bw ~propagation:prop ~queue_pkts:queue ~ber ~mtu ()

(* ------------------------------------------------------------------ Link *)

let test_link_timing () =
  let link = mk_link () in
  let rng = Rng.create 1 in
  (* 1000 bytes at 8 Mb/s = 1 ms serialization + 1 ms propagation. *)
  match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 () with
  | Link.Transmitted { departs; corrupted } ->
    check_int "departure" (Time.ms 2) departs;
    check_bool "clean" false corrupted
  | Link.Dropped_queue | Link.Dropped_down -> Alcotest.fail "unexpected drop"

let test_link_fifo_backlog () =
  let link = mk_link () in
  let rng = Rng.create 1 in
  let d1 =
    match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 () with
    | Link.Transmitted { departs; _ } -> departs
    | _ -> Alcotest.fail "drop"
  in
  let d2 =
    match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 () with
    | Link.Transmitted { departs; _ } -> departs
    | _ -> Alcotest.fail "drop"
  in
  check_int "second queues behind first" (Time.ms 1) (Time.diff d2 d1)

let test_link_queue_overflow () =
  let link = mk_link ~queue:2 () in
  let rng = Rng.create 1 in
  let dropped = ref 0 and sent = ref 0 in
  for _ = 1 to 10 do
    match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 () with
    | Link.Transmitted _ -> incr sent
    | Link.Dropped_queue -> incr dropped
    | Link.Dropped_down -> Alcotest.fail "down?"
  done;
  check_bool "some dropped" true (!dropped > 0);
  check_bool "some sent" true (!sent >= 2);
  let stats = Link.stats link in
  check_int "stats agree" !dropped stats.Link.dropped_queue

let test_link_failure () =
  let link = mk_link () in
  let rng = Rng.create 1 in
  Link.fail link;
  check_bool "down" false (Link.is_up link);
  (match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:100 () with
  | Link.Dropped_down -> ()
  | Link.Transmitted _ | Link.Dropped_queue -> Alcotest.fail "expected Dropped_down");
  Link.repair link;
  check_bool "up" true (Link.is_up link);
  match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:100 () with
  | Link.Transmitted _ -> ()
  | Link.Dropped_down | Link.Dropped_queue -> Alcotest.fail "expected delivery"

let test_link_background_scales_rate () =
  let fast = mk_link () and slow = mk_link () in
  Link.set_background_utilization slow 0.5;
  let rng = Rng.create 1 in
  let departs l =
    match Link.transmit l ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 () with
    | Link.Transmitted { departs; _ } -> departs
    | _ -> Alcotest.fail "drop"
  in
  let df = departs fast and ds = departs slow in
  (* Half the bandwidth -> double the serialization (1 ms -> 2 ms). *)
  check_int "fast" (Time.ms 2) df;
  check_int "slow" (Time.ms 3) ds;
  check_bool "clamped" true (Link.set_background_utilization slow 5.0;
                             Link.background_utilization slow <= 0.98)

let test_link_corruption () =
  let link = mk_link ~ber:1.0 () in
  let rng = Rng.create 1 in
  match Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:10 () with
  | Link.Transmitted { corrupted; _ } ->
    check_bool "ber=1 always corrupts" true corrupted;
    check_int "counted" 1 (Link.stats link).Link.corrupted
  | _ -> Alcotest.fail "drop"

let test_link_estimates () =
  let link = mk_link () in
  let rng = Rng.create 1 in
  check_int "idle queue delay" 0 (Link.queue_delay_estimate link ~now:Time.zero);
  ignore (Link.transmit link ~rng ~now:Time.zero ~arrival:Time.zero ~bytes:1000 ());
  check_bool "busy queue delay" true (Link.queue_delay_estimate link ~now:Time.zero > 0);
  Link.set_background_utilization link 0.4;
  check_bool "estimate includes background" true
    (Link.utilization_estimate link ~now:Time.zero >= 0.4)

(* -------------------------------------------------------------- Topology *)

let propagation hops =
  List.fold_left (fun acc l -> Time.add acc (Link.propagation l)) Time.zero hops

let route_propagation topo ~src ~dst =
  propagation (Option.get (Topology.route topo ~src ~dst))

let test_topology_hosts_routes () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  check_bool "addresses in registration order" true (a = 0 && b = 1);
  check_bool "no route yet" true (Topology.route topo ~src:a ~dst:b = None);
  let l1 = mk_link ~mtu:1500 () and l2 = mk_link ~mtu:900 ~prop:(Time.ms 5) () in
  Topology.set_symmetric_route topo ~a ~b [ l1; l2 ];
  check_int "fwd hops" 2 (List.length (Option.get (Topology.route topo ~src:a ~dst:b)));
  (* The reverse route mirrors the forward hops in reverse order with
     fresh full-duplex twins. *)
  let reverse = Option.get (Topology.route topo ~src:b ~dst:a) in
  check_int "reverse hops" 2 (List.length reverse);
  check_bool "reverse order mirrored" true
    (List.map Link.propagation reverse = [ Time.ms 5; Time.ms 1 ]);
  check_bool "reverse links are distinct objects" true
    (List.for_all (fun l -> not (List.memq l [ l1; l2 ])) reverse);
  check_int "path mtu" 900 (Option.get (Topology.path_mtu topo ~src:a ~dst:b));
  check_int "path prop" (Time.ms 6) (route_propagation topo ~src:a ~dst:b);
  Alcotest.check_raises "empty route" (Invalid_argument "Topology.set_route: empty route")
    (fun () -> Topology.set_route topo ~src:a ~dst:b [])

let test_topology_route_switch () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  let terrestrial = mk_link () and satellite = mk_link ~prop:(Time.ms 280) () in
  Topology.set_route topo ~src:a ~dst:b [ terrestrial ];
  check_int "before" (Time.ms 1) (route_propagation topo ~src:a ~dst:b);
  Topology.set_route topo ~src:a ~dst:b [ satellite ];
  check_int "after" (Time.ms 280) (route_propagation topo ~src:a ~dst:b)

(* Memo invalidation is per topology: a route edit or a change to a routed
   link moves the generation, a change to another topology's link does
   not. *)
let test_topology_generation () =
  let topo = Topology.create () and other = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  let x = Topology.add_host other "x" and y = Topology.add_host other "y" in
  let routed = mk_link () and foreign = mk_link () in
  Topology.set_route other ~src:x ~dst:y [ foreign ];
  let g0 = Topology.generation topo in
  Topology.set_route topo ~src:a ~dst:b [ routed ];
  let g1 = Topology.generation topo in
  check_bool "set_route moves it" true (g1 <> g0);
  Link.set_ber routed 1e-6;
  let g2 = Topology.generation topo in
  check_bool "BER change on a routed link moves it" true (g2 <> g1);
  Link.set_ber foreign 1e-6;
  check_int "another topology's link leaves it" g2 (Topology.generation topo)

(* --------------------------------------------------------------- Network *)

type net_fixture = {
  engine : Engine.t;
  topo : Topology.t;
  net : string Network.t;
  a : Network.addr;
  b : Network.addr;
  c : Network.addr;
  shared : Link.t;
  tail_b : Link.t;
  tail_c : Link.t;
}

let make_net () =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" in
  let b = Topology.add_host topo "b" in
  let c = Topology.add_host topo "c" in
  let shared = mk_link () in
  let tail_b = mk_link () and tail_c = mk_link () in
  Topology.set_route topo ~src:a ~dst:b [ shared; tail_b ];
  Topology.set_route topo ~src:b ~dst:a [ tail_b; shared ];
  Topology.set_route topo ~src:a ~dst:c [ shared; tail_c ];
  let net = Network.create engine ~rng:(Rng.create 2) topo in
  { engine; topo; net; a; b; c; shared; tail_b; tail_c }

let test_network_unicast () =
  let f = make_net () in
  let got = ref [] in
  Network.attach f.net f.b (fun r -> got := r :: !got);
  Network.send f.net ~src:f.a ~dst:f.b ~bytes:1000 "hello";
  Engine.run f.engine;
  match !got with
  | [ r ] ->
    Alcotest.(check string) "payload" "hello" r.Network.payload;
    check_int "src" f.a r.Network.src;
    check_int "wire bytes" 1000 r.Network.wire_bytes;
    (* 2 hops x (1 ms serialization + 1 ms propagation) = 4 ms. *)
    check_int "arrival" (Time.ms 4) r.Network.received_at;
    check_int "sent at" Time.zero r.Network.sent_at;
    check_int "delivered count" 1 (Network.stats f.net).Network.delivered
  | _ -> Alcotest.fail "expected one delivery"

let test_network_drop_reasons () =
  let f = make_net () in
  (* No route: b -> c was never routed. *)
  Network.send f.net ~src:f.b ~dst:f.c ~bytes:100 "x";
  check_int "no-route drop" 1 (Network.stats f.net).Network.dropped_no_route;
  (* Oversized. *)
  Network.send f.net ~src:f.a ~dst:f.b ~bytes:20_000 "x";
  check_int "mtu drop" 1 (Network.stats f.net).Network.dropped_mtu;
  (* Down link. *)
  Link.fail f.shared;
  Network.send f.net ~src:f.a ~dst:f.b ~bytes:100 "x";
  check_int "down drop" 1 (Network.stats f.net).Network.dropped_down;
  Alcotest.check_raises "bad size" (Invalid_argument "Network.send: non-positive size")
    (fun () -> Network.send f.net ~src:f.a ~dst:f.b ~bytes:0 "x")

let test_network_multicast_shared_link_once () =
  let f = make_net () in
  let got_b = ref 0 and got_c = ref 0 in
  Network.attach f.net f.b (fun _ -> incr got_b);
  Network.attach f.net f.c (fun _ -> incr got_c);
  Network.multicast f.net ~src:f.a ~dsts:[ f.b; f.c ] ~bytes:1000 "m";
  Engine.run f.engine;
  check_int "b received" 1 !got_b;
  check_int "c received" 1 !got_c;
  (* The shared first hop carried the packet once; the tails once each. *)
  check_int "shared once" 1 (Link.stats f.shared).Link.accepted;
  check_int "tail b once" 1 (Link.stats f.tail_b).Link.accepted;
  check_int "tail c once" 1 (Link.stats f.tail_c).Link.accepted;
  check_int "sent counted once" 1 (Network.stats f.net).Network.sent

let test_network_unicast_pair_pays_twice () =
  let f = make_net () in
  Network.attach f.net f.b (fun _ -> ());
  Network.attach f.net f.c (fun _ -> ());
  Network.send f.net ~src:f.a ~dst:f.b ~bytes:1000 "u";
  Network.send f.net ~src:f.a ~dst:f.c ~bytes:1000 "u";
  Engine.run f.engine;
  check_int "shared paid twice" 2 (Link.stats f.shared).Link.accepted

let test_network_path_state_and_rtt () =
  let f = make_net () in
  let hops = Network.path_state f.net ~src:f.a ~dst:f.b in
  check_int "two hops" 2 (List.length hops);
  List.iter (fun h -> check_bool "up" true h.Network.up) hops;
  check_bool "rtt estimate" true
    (Network.rtt_estimate f.net ~src:f.a ~dst:f.b ~bytes:1000 = Some (Time.ms 8));
  check_bool "unrouted rtt none" true
    (Network.rtt_estimate f.net ~src:f.b ~dst:f.c ~bytes:100 = None);
  check_int "unrouted path empty" 0
    (List.length (Network.path_state f.net ~src:f.b ~dst:f.c))

(* ------------------------------------------------------------ Congestion *)

let test_congestion_phases () =
  let engine = Engine.create () in
  let link = mk_link () in
  Congestion.phases engine link [ (Time.ms 10, 0.5); (Time.ms 20, 0.1) ];
  Engine.run engine ~until:(Time.ms 15);
  Alcotest.(check (float 1e-9)) "first phase" 0.5 (Link.background_utilization link);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "second phase" 0.1 (Link.background_utilization link)

let test_congestion_constant () =
  let link = mk_link () in
  Congestion.constant link 0.33;
  Alcotest.(check (float 1e-9)) "set" 0.33 (Link.background_utilization link)

(* --------------------------------------------------------------- Routing *)

(* Two hosts with [candidates] registered in both directions and a 1 ms
   routing monitor.  [converge ()] runs the clock to the monitor's next
   tick: one convergence step.  [active ()] is the index of the
   candidate installed from a to b, found by physical identity. *)
let routed_pair candidates =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  let routing = Routing.create engine topo in
  Routing.set_symmetric_candidates routing ~a ~b candidates;
  ignore (Routing.monitor ~every:(Time.ms 1) routing);
  let converge () = Engine.run engine ~until:(Time.add (Engine.now engine) (Time.ms 1)) in
  let active () =
    let hops = Option.get (Topology.route topo ~src:a ~dst:b) in
    let rec find i = function
      | [] -> None
      | c :: rest -> if c == hops then Some i else find (i + 1) rest
    in
    find 0 candidates
  in
  (topo, a, b, routing, converge, active)

let test_routing_failover_and_failback () =
  let primary = [ mk_link () ] in
  let backup = [ mk_link ~prop:(Time.ms 280) () ] in
  let topo, a, b, routing, converge, active = routed_pair [ primary; backup ] in
  Alcotest.(check (option int)) "primary active" (Some 0) (active ());
  check_int "installed" (Time.ms 1) (route_propagation topo ~src:a ~dst:b);
  (* Primary fails: the next convergence step moves to the backup. *)
  Link.fail (List.hd primary);
  converge ();
  Alcotest.(check (option int)) "backup active" (Some 1) (active ());
  check_int "satellite installed" (Time.ms 280) (route_propagation topo ~src:a ~dst:b);
  check_int "one failover" 1 (Routing.failovers routing);
  (* Repair: traffic fails back. *)
  Link.repair (List.hd primary);
  converge ();
  Alcotest.(check (option int)) "failback" (Some 0) (active ());
  check_int "two changes logged" 2 (List.length (Routing.log routing))

let test_routing_monitor_timer () =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  let primary = [ mk_link () ] and backup = [ mk_link ~prop:(Time.ms 50) () ] in
  let routing = Routing.create engine topo in
  Routing.set_symmetric_candidates routing ~a ~b [ primary; backup ];
  let timer = Routing.monitor ~every:(Time.ms 100) routing in
  ignore (Engine.schedule engine ~at:(Time.ms 450) (fun () -> Link.fail (List.hd primary)));
  Engine.run engine ~until:(Time.sec 1.0);
  Engine.Timer.cancel timer;
  (* Forward direction failed over; the reverse (mirrored) path still has
     its own live links and stays. *)
  check_bool "forward on backup" true
    (match Topology.route topo ~src:a ~dst:b with Some hops -> hops == backup | None -> false);
  check_int "forward delay is the backup's" (Time.ms 50) (route_propagation topo ~src:a ~dst:b);
  check_int "reverse untouched" (Time.ms 1) (route_propagation topo ~src:b ~dst:a);
  check_bool "change after the failure instant" true
    (match Routing.log routing with (at, _, _, _) :: _ -> at >= Time.ms 450 | [] -> false)

let test_routing_all_down_keeps_first () =
  let p1 = [ mk_link () ] and p2 = [ mk_link () ] in
  let _, a, b, routing, converge, active = routed_pair [ p1; p2 ] in
  Link.fail (List.hd p1);
  Link.fail (List.hd p2);
  converge ();
  Alcotest.(check (option int)) "falls to most preferred" (Some 0) (active ());
  Alcotest.check_raises "empty candidates rejected"
    (Invalid_argument "Routing.set_symmetric_candidates: empty candidate list or path") (fun () ->
      Routing.set_symmetric_candidates routing ~a ~b [])

let test_routing_random_flaps () =
  (* Property: under an arbitrary storm of link failures and repairs,
     traffic always follows the highest-priority fully-live candidate,
     and the failover counter matches the number of observed route
     changes (no hidden churn; the mirrored reverse links never fail). *)
  let candidates = [ [ mk_link () ]; [ mk_link () ]; [ mk_link () ] ] in
  let _, _, _, routing, converge, active = routed_pair candidates in
  let rng = Rng.create 2024 in
  let links = List.concat candidates in
  let best_live () =
    let rec scan i = function
      | [] -> None
      | cand :: rest ->
        if List.for_all Link.is_up cand then Some i else scan (i + 1) rest
    in
    scan 0 candidates
  in
  let current = ref (Option.get (active ())) in
  let observed_changes = ref 0 in
  for _ = 1 to 300 do
    let l = List.nth links (Rng.int rng (List.length links)) in
    if Rng.bernoulli rng 0.5 then Link.fail l else Link.repair l;
    converge ();
    (* [active] finds the installed route among the candidates by
       identity, so a [Some] is also the installed-route check. *)
    let active = Option.get (active ()) in
    (match best_live () with
    | Some i -> check_int "active is the best live candidate" i active
    | None -> ());
    if active <> !current then begin
      incr observed_changes;
      current := active
    end
  done;
  check_int "failover count matches observed route changes" !observed_changes
    (Routing.failovers routing);
  (* Heal everything: traffic must fail back to the primary. *)
  List.iter Link.repair links;
  converge ();
  Alcotest.(check (option int)) "failback to primary after full heal" (Some 0) (active ())

(* -------------------------------------------------------------- Profiles *)

let test_profiles_speeds () =
  let ethernet = List.hd (Profiles.lan_path ()) in
  let atm = List.hd (Profiles.atm_lfn_path ()) in
  check_bool "ethernet < fddi" true
    (Link.bandwidth_bps ethernet < Link.bandwidth_bps (Profiles.fddi ()));
  check_bool "fddi < atm155" true
    (Link.bandwidth_bps (Profiles.fddi ()) < Link.bandwidth_bps atm);
  check_int "ethernet mtu" 1500 (Link.mtu ethernet);
  check_int "fddi mtu" 4500 (Link.mtu (Profiles.fddi ()))

let test_profiles_fresh_links () =
  let a = Profiles.fddi () and b = Profiles.fddi () in
  check_bool "distinct state" true (a != b)

let test_profiles_paths () =
  check_int "lan is one hop" 1 (List.length (Profiles.lan_path ()));
  check_int "campus" 3 (List.length (Profiles.campus_path ()));
  check_int "internet" 5 (List.length (Profiles.internet_path ()));
  check_int "bisdn" 5 (List.length (Profiles.bisdn_path ()));
  check_int "satellite" 3 (List.length (Profiles.satellite_path ()));
  let sat_prop =
    List.fold_left
      (fun acc l -> Time.add acc (Link.propagation l))
      Time.zero (Profiles.satellite_path ())
  in
  check_bool "satellite dominates delay" true (sat_prop >= Time.ms 280)

let suite =
  [
    ( "net.link",
      [
        Alcotest.test_case "serialization timing" `Quick test_link_timing;
        Alcotest.test_case "FIFO backlog" `Quick test_link_fifo_backlog;
        Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
        Alcotest.test_case "failure and repair" `Quick test_link_failure;
        Alcotest.test_case "background load scales rate" `Quick
          test_link_background_scales_rate;
        Alcotest.test_case "corruption at ber=1" `Quick test_link_corruption;
        Alcotest.test_case "estimates" `Quick test_link_estimates;
      ] );
    ( "net.topology",
      [
        Alcotest.test_case "hosts and routes" `Quick test_topology_hosts_routes;
        Alcotest.test_case "route switching" `Quick test_topology_route_switch;
        Alcotest.test_case "generation is per topology" `Quick test_topology_generation;
      ] );
    ( "net.network",
      [
        Alcotest.test_case "unicast delivery and timing" `Quick test_network_unicast;
        Alcotest.test_case "drop accounting" `Quick test_network_drop_reasons;
        Alcotest.test_case "multicast pays shared links once" `Quick
          test_network_multicast_shared_link_once;
        Alcotest.test_case "n-unicast pays shared links n times" `Quick
          test_network_unicast_pair_pays_twice;
        Alcotest.test_case "path state and rtt estimate" `Quick
          test_network_path_state_and_rtt;
      ] );
    ( "net.congestion",
      [
        Alcotest.test_case "scheduled phases" `Quick test_congestion_phases;
        Alcotest.test_case "constant" `Quick test_congestion_constant;
      ] );
    ( "net.routing",
      [
        Alcotest.test_case "failover and failback" `Quick
          test_routing_failover_and_failback;
        Alcotest.test_case "monitor timer" `Quick test_routing_monitor_timer;
        Alcotest.test_case "all candidates down" `Quick test_routing_all_down_keeps_first;
        Alcotest.test_case "randomized flap storm" `Quick test_routing_random_flaps;
      ] );
    ( "net.profiles",
      [
        Alcotest.test_case "speed and mtu ladder" `Quick test_profiles_speeds;
        Alcotest.test_case "fresh links per call" `Quick test_profiles_fresh_links;
        Alcotest.test_case "standard paths" `Quick test_profiles_paths;
      ] );
  ]
