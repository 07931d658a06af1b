(* Byte-pinned transcripts of connection set-up and release on one
   lossless pair: implicit, two-way and three-way opens, an unreachable
   peer, a rejecting acceptor and a dropped Fin_ack.  Each transcript
   records the session's Control_pdus count as it moves, its
   Setup_latency observations, the initiator's state changes and every
   endpoint's close time, so any change to connection management that
   moves a control PDU, a timer or a transition shows up here. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

type log = {
  buf : Buffer.t;
  mutable last_state : Session.state option;
  mutable last_control : float;
}

let state_name = function
  | Session.Opening -> "Opening"
  | Session.Established -> "Established"
  | Session.Closing -> "Closing"
  | Session.Closed -> "Closed"

let table_line (f : Test_session.fixture) =
  Printf.sprintf "live=%d half_open=%d time_wait=%d"
    (Session.Dispatcher.session_count f.disp_a)
    (Session.Dispatcher.half_open_count f.disp_a)
    (Session.Dispatcher.time_wait_count f.disp_a)

(* Record whatever moved since the last look: a state change of [s] (with
   the initiator's table occupancy when it closes) and the session's
   Control_pdus total. *)
let look (f : Test_session.fixture) log s =
  let now = Engine.now f.engine in
  let st = Session.state s in
  if log.last_state <> Some st then begin
    log.last_state <- Some st;
    Printf.bprintf log.buf "%d state %s" now (state_name st);
    if st = Session.Closed then Printf.bprintf log.buf " [%s]" (table_line f);
    Buffer.add_char log.buf '\n'
  end;
  let control = Unites.total f.unites ~session:(Session.id s) Unites.Control_pdus in
  if control <> log.last_control then begin
    log.last_control <- control;
    Printf.bprintf log.buf "%d control %.0f\n" now control
  end

(* Fire events one at a time up to [until] (to quiescence without it),
   looking after each. *)
let step (f : Test_session.fixture) log s ?until () =
  let within () =
    match (Engine.next_deadline f.engine, until) with
    | None, _ -> false
    | Some _, None -> true
    | Some at, Some limit -> at <= limit
  in
  while within () do
    ignore (Engine.step f.engine);
    look f log s
  done

let setup_line (f : Test_session.fixture) s =
  match Unites.stats f.unites ~session:(Session.id s) Unites.Setup_latency with
  | None -> "setup_latency none\n"
  | Some st ->
    Printf.sprintf "setup_latency n=%d min=%.9f max=%.9f\n" st.Stats.n st.Stats.min
      st.Stats.max

(* Run one scenario: [open_] starts the initiator, [middle] runs once the
   first second's events have fired, then a graceful close, and the
   engine runs to quiescence. *)
let transcript ?(middle = fun _ _ -> ()) ~open_ () =
  let f = Test_session.make_fixture ~path_ab:(Test_session.lan ()) () in
  let log = { buf = Buffer.create 256; last_state = None; last_control = 0.0 } in
  let closes = ref [] in
  List.iter
    (fun disp ->
      Session.Dispatcher.set_on_close disp (fun ep ->
          closes :=
            Printf.sprintf "%d close %s" (Engine.now f.engine) (Session.name ep)
            :: !closes))
    [ f.disp_a; f.disp_b; f.disp_c ];
  let s = open_ f in
  look f log s;
  step f log s ~until:(Time.sec 1.0) ();
  middle f s;
  Session.close s;
  look f log s;
  step f log s ();
  Buffer.add_string log.buf (setup_line f s);
  List.iter (fun l -> Buffer.add_string log.buf (l ^ "\n")) (List.rev !closes);
  Printf.bprintf log.buf "end %d [%s]\n" (Engine.now f.engine) (table_line f);
  Buffer.contents log.buf

let scs connection =
  { Scs.default with Scs.connection; segment_bytes = 1000; initial_rto = Time.ms 50 }

let open_to ?(connection = Params.Two_way) peer (f : Test_session.fixture) =
  let s = Session.connect f.disp_a ~name:"init" ~peers:[ peer f ] ~scs:(scs connection) () in
  Session.send s ~bytes:2000 ();
  s

let to_b (f : Test_session.fixture) = f.b

let implicit () = transcript ~open_:(open_to ~connection:Params.Implicit to_b) ()
let two_way () = transcript ~open_:(open_to ~connection:Params.Two_way to_b) ()
let three_way () = transcript ~open_:(open_to ~connection:Params.Three_way to_b) ()

(* No route leads from a to c: every connection request is lost. *)
let unreachable () = transcript ~open_:(open_to (fun f -> f.c)) ()

let rejected () =
  transcript
    ~open_:(fun f ->
      Session.Dispatcher.set_acceptor f.disp_b (fun ~src:_ ~conn:_ ~proposal:_ ->
          Session.Dispatcher.Reject);
      open_to to_b f)
    ()

(* Once the transfer is done, fail every link from b back to a: the
   initiator's Fin arrives, the Fin_ack never does. *)
let fin_ack_dropped () =
  transcript ~open_:(open_to to_b)
    ~middle:(fun f _ ->
      match Topology.route f.topo ~src:f.b ~dst:f.a with
      | Some hops -> List.iter Link.fail hops
      | None -> Alcotest.fail "no route back")
    ()

let expected_implicit =
  {|0 state Established
0 control 1
149100 control 2
300300 control 3
3013860 state Closing
3013860 control 4
3030748 control 5
3047636 state Closed [live=0 half_open=0 time_wait=1]
3047636 control 6
setup_latency n=2 min=0.000000000 max=0.000000000
3030748 close acc-1
3047636 close init
end 503047636 [live=0 half_open=0 time_wait=0]
|}

let expected_two_way =
  {|0 state Opening
0 control 1
145852 control 2
293756 state Established
293756 control 3
3177900 state Closing
3177900 control 4
3194788 control 5
3211676 state Closed [live=0 half_open=0 time_wait=1]
3211676 control 6
setup_latency n=2 min=0.000000000 max=0.000293756
3194788 close acc-1
3211676 close init
end 503211676 [live=0 half_open=0 time_wait=0]
|}

let expected_three_way =
  {|0 state Opening
0 control 1
145852 control 2
293756 state Established
293756 control 4
310644 control 5
3180044 state Closing
3180044 control 6
3196932 control 7
3213820 state Closed [live=0 half_open=0 time_wait=1]
3213820 control 8
setup_latency n=2 min=0.000000000 max=0.000293756
3196932 close acc-1
3213820 close init
end 503213820 [live=0 half_open=0 time_wait=0]
|}

let expected_unreachable =
  {|0 state Opening
0 control 1
50000000 control 2
100000000 control 3
150000000 control 4
200000000 control 5
250000000 control 6
300000000 state Closed [live=0 half_open=0 time_wait=1]
setup_latency none
300000000 close init
end 800000000 [live=0 half_open=0 time_wait=0]
|}

let expected_rejected =
  {|0 state Opening
0 control 1
170340 state Closed [live=0 half_open=0 time_wait=1]
170340 control 2
setup_latency none
170340 close init
end 500170340 [live=0 half_open=0 time_wait=0]
|}

let expected_fin_ack_dropped =
  {|0 state Opening
0 control 1
145852 control 2
293756 state Established
293756 control 3
3177900 state Closing
3177900 control 4
3194788 control 5
16062044 state Closed [live=0 half_open=0 time_wait=1]
setup_latency n=2 min=0.000000000 max=0.000293756
3194788 close acc-1
16062044 close init
end 516062044 [live=0 half_open=0 time_wait=0]
|}

let test_transcripts () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check string) name expected (run ()))
    [
      ("implicit", implicit, expected_implicit);
      ("two-way", two_way, expected_two_way);
      ("three-way", three_way, expected_three_way);
      ("unreachable", unreachable, expected_unreachable);
      ("rejected", rejected, expected_rejected);
      ("fin_ack dropped", fin_ack_dropped, expected_fin_ack_dropped);
    ]

(* The unreachable peer, spelled out: six Syns one initial_rto apart, a
   give-up at the seventh slot, and the table entry left in time-wait. *)
let test_unreachable_gives_up () =
  let rto = (scs Params.Two_way).Scs.initial_rto in
  let lines = String.split_on_char '\n' (unreachable ()) in
  let control =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ at; "control"; _ ] -> Some (int_of_string at)
        | _ -> None)
      lines
  in
  Alcotest.(check (list int)) "six Syns, initial_rto apart"
    (List.init 6 (fun i -> i * rto))
    control;
  let closed = Printf.sprintf "%d state Closed [live=0 half_open=0 time_wait=1]" (6 * rto) in
  Alcotest.(check bool) "closed at the seventh slot, slot in time-wait" true
    (List.mem closed lines)

(* No route leads from a to c, so c never answers.  Removing it while b
   has answered must establish the session toward b; removing the only
   peer must close it.  Either way nothing stays half-open. *)
let test_multicast_remove_last_pending_peer () =
  let f = Test_session.make_fixture ~path_ab:(Test_session.lan ()) () in
  let s = Session.connect f.disp_a ~peers:[ f.c ] ~scs:Test_session.mcast_scs () in
  Session.add_peer s f.b;
  Engine.run f.engine ~until:(Time.ms 20);
  Alcotest.(check bool) "c still pending" true (Session.state s = Session.Opening);
  Session.remove_peer s f.c;
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.sec 5.0);
  Alcotest.(check bool) "established toward b" true (Session.state s = Session.Established);
  Alcotest.(check int) "b received the data" 1000 (Test_session.received_bytes f f.b);
  Alcotest.(check int) "nothing half-open" 0 (Session.Dispatcher.half_open_count f.disp_a);
  let lone = Session.connect f.disp_a ~peers:[ f.c ] ~scs:Test_session.mcast_scs () in
  Engine.run f.engine ~until:(Time.sec 5.02);
  Session.remove_peer lone f.c;
  Alcotest.(check bool) "no peer left: closed at once" true
    (Session.state lone = Session.Closed);
  Alcotest.(check int) "still nothing half-open" 0
    (Session.Dispatcher.half_open_count f.disp_a);
  Session.close s;
  Engine.run f.engine

(* No route leads from a to c.  A member invited after set-up that never
   answers gets six requests, one initial_rto apart, and is then dropped
   with a Fin, as [remove_peer] would; the session stays up toward b.
   Inviting it again starts a fresh round of six. *)
let test_late_member_drops_out () =
  let f = Test_session.make_fixture ~path_ab:(Test_session.lan ()) () in
  let s = Session.connect f.disp_a ~peers:[ f.b ] ~scs:Test_session.mcast_scs () in
  Engine.run f.engine ~until:(Time.ms 20);
  Alcotest.(check bool) "established toward b" true (Session.state s = Session.Established);
  let control () = Unites.total f.unites ~session:(Session.id s) Unites.Control_pdus in
  let round until =
    let before = control () in
    Session.add_peer s f.c;
    Engine.run f.engine ~until;
    control () -. before
  in
  let first = round (Time.sec 1.0) in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.sec 2.0);
  Alcotest.(check (float 0.0)) "six requests and a Fin" 7.0 first;
  Alcotest.(check bool) "still established" true (Session.state s = Session.Established);
  Alcotest.(check (list int)) "c dropped" [ f.b ] (Session.peers s);
  Alcotest.(check int) "b received the data" 1000 (Test_session.received_bytes f f.b);
  Alcotest.(check (float 0.0)) "a fresh round of six" 7.0 (round (Time.sec 3.0));
  Alcotest.(check bool) "established after it too" true
    (Session.state s = Session.Established);
  Session.close s;
  Engine.run f.engine;
  Alcotest.(check bool) "closes normally" true (Session.state s = Session.Closed)

(* No route leads from a to c, and the initiator is closed while its
   request is unanswered and data is queued.  The data goes out in
   Closing and is never acknowledged, so no Fin follows; the request's
   give-up at the sixth expiry must still close the session and retire
   its slot, and leave nothing armed. *)
let test_closed_while_opening_gives_up () =
  let f = Test_session.make_fixture ~path_ab:(Test_session.lan ()) () in
  let s = Session.connect f.disp_a ~name:"init" ~peers:[ f.c ] ~scs:(scs Params.Two_way) () in
  Session.send s ~bytes:1000 ();
  Engine.run f.engine ~until:(Time.ms 10);
  Session.close s;
  Alcotest.(check bool) "closing" true (Session.state s = Session.Closing);
  Engine.run f.engine ~until:(6 * (scs Params.Two_way).Scs.initial_rto);
  Alcotest.(check bool) "closed at the give-up" true (Session.state s = Session.Closed);
  Alcotest.(check int) "slot in time-wait" 1 (Session.Dispatcher.time_wait_count f.disp_a);
  Engine.run f.engine ~until:(Time.sec 10.0);
  Alcotest.(check bool) "nothing left armed" true (Engine.next_deadline f.engine = None)

let suite =
  [
    ( "session.lifecycle",
      [
        Alcotest.test_case "pinned open and close transcripts" `Quick test_transcripts;
        Alcotest.test_case "unreachable peer gives up" `Quick test_unreachable_gives_up;
        Alcotest.test_case "removing the last pending peer" `Quick
          test_multicast_remove_last_pending_peer;
        Alcotest.test_case "a late member that never answers drops out" `Quick
          test_late_member_drops_out;
        Alcotest.test_case "closed while opening, then given up" `Quick
          test_closed_while_opening_gives_up;
      ] );
  ]
