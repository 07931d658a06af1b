(* Byte-pinned transcripts of loss recovery on seeded lossy pairs:
   go-back-n, selective repeat with and without SACK, multicast NACK
   repair, forward error correction, ordered delivery with no recovery
   (gap skipping and the sender's give-up), and a session that segues
   between recovery schemes mid-stream.  Each transcript records the
   recovery counters and every delivery (receiver, sequence number,
   time), so any change to loss recovery that moves a retransmission, a
   timer or a repair shows up here. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let metrics =
  [
    ("retransmissions", Unites.Retransmissions);
    ("timeouts", Unites.Timeouts);
    ("fec_parity_sent", Unites.Fec_parity_sent);
    ("fec_recovered", Unites.Fec_recovered);
    ("losses_unrecovered", Unites.Losses_unrecovered);
    ("nacks_sent", Unites.Nacks_sent);
  ]

let noisy ?(ber = 0.0) ?(queue = 64) () =
  Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:queue ~ber ~mtu:1500
    ()

(* Run [start] on a fresh fixture for [horizon], close gracefully, run to
   quiescence and render the transcript. *)
let transcript ?seed ?path_ac ?(receivers = [ `B ]) ~path_ab ~horizon start =
  let f = Test_session.make_fixture ?seed ~path_ab ?path_ac () in
  let s = start f in
  Engine.run f.engine ~until:horizon;
  Session.close s;
  Engine.run f.engine ~until:(Time.add horizon (Time.sec 30.0));
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, m) ->
      Printf.bprintf buf "%s %.0f\n" name (Unites.aggregate_total f.unites m))
    metrics;
  List.iter
    (fun r ->
      let tag, addr = match r with `B -> ("b", f.b) | `C -> ("c", f.c) in
      (* Five deliveries to a line, each as seq:time. *)
      List.iteri
        (fun i d ->
          if i mod 5 = 0 then Printf.bprintf buf "%s%s" (if i = 0 then "" else "\n") tag;
          Printf.bprintf buf " %d:%d" d.Session.seq d.Session.delivered_at)
        (Test_session.received f addr);
      Buffer.add_char buf '\n')
    receivers;
  Buffer.contents buf

let arq_scs ?(congestion = Params.No_congestion_control) recovery reporting =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission = Params.Sliding_window { window = 12 };
    congestion;
    recovery;
    reporting;
    recv_buffer_segments = 32;
    segment_bytes = 1000;
    initial_rto = Time.ms 50;
  }

let send_after_setup ?(bytes = 30_000) scs peers (f : Test_session.fixture) =
  let s = Session.connect f.disp_a ~name:"src" ~peers:(peers f) ~scs () in
  Session.send s ~bytes ();
  s

let to_b (f : Test_session.fixture) = [ f.b ]

let go_back_n () =
  transcript ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup
       (arq_scs
          ~congestion:(Params.Slow_start { initial = 2; threshold = 8 })
          Params.Go_back_n
          (Params.Cumulative_ack { delay = Time.ms 1 }))
       to_b)

(* Queue drops as well as bit errors: a 3-packet queue under a
   12-segment window. *)
let selective_sack () =
  transcript ~seed:11 ~path_ab:[ noisy ~ber:5e-6 ~queue:3 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup
       (arq_scs Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 1 }))
       to_b)

let selective_cumulative () =
  transcript ~seed:13 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup
       (arq_scs Params.Selective_repeat (Params.Cumulative_ack { delay = Time.ms 1 }))
       to_b)

(* a -> {b, c} over a shared first hop; only c's tail is noisy. *)
let multicast_nack () =
  let shared = noisy () in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 2e6; burst = 8 };
      reporting = Params.Nack_on_gap;
      recovery = Params.Selective_repeat;
      segment_bytes = 1000;
      initial_rto = Time.ms 50;
    }
  in
  transcript ~seed:17 ~path_ab:[ shared; noisy () ]
    ~path_ac:[ shared; noisy ~ber:2e-5 () ]
    ~receivers:[ `B; `C ] ~horizon:(Time.sec 10.0)
    (send_after_setup scs (fun f -> [ f.b; f.c ]))

(* 1000 B segments on a 1500 B link: parity over a group of 4 is
   1000 B plus an 80 B header, so every parity PDU fits the MTU. *)
let fec_scs reporting transmission =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission;
    reporting;
    recovery = Params.Forward_error_correction { group = 4 };
    ordering = Params.Ordered;
    segment_bytes = 1000;
    recv_buffer_segments = 32;
    initial_rto = Time.ms 40;
  }

let fec_paced () =
  transcript ~seed:19 ~path_ab:[ noisy ~ber:8e-6 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup ~bytes:41_000
       (fec_scs Params.No_report (Params.Rate_based { rate_bps = 2e6; burst = 4 }))
       to_b)

(* FEC under acknowledgments: the retransmission timer gives unrepaired
   segments up instead of resending them. *)
let fec_acked () =
  transcript ~seed:23 ~path_ab:[ noisy ~ber:1.5e-5 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup
       (fec_scs
          (Params.Cumulative_ack { delay = Time.ms 1 })
          (Params.Sliding_window { window = 12 }))
       to_b)

let no_recovery_scs reporting =
  { (fec_scs reporting (Params.Rate_based { rate_bps = 2e6; burst = 4 })) with
    Scs.recovery = Params.No_recovery }

(* An ordered receiver with no recovery skips each gap after its skip
   timer; the acknowledged variant also exercises the sender's give-up. *)
let ordered_gap () =
  transcript ~seed:29 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup (no_recovery_scs Params.No_report) to_b)

let ordered_gap_acked () =
  transcript ~seed:31 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send_after_setup (no_recovery_scs (Params.Cumulative_ack { delay = Time.ms 1 })) to_b)

(* Selective repeat, then FEC from 8 ms, then go-back-n from 20 ms, with
   data in flight at each change. *)
let segue () =
  transcript ~seed:37 ~path_ab:[ noisy ~ber:2e-5 () ] ~horizon:(Time.sec 10.0)
    (fun f ->
      let base = arq_scs Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 1 }) in
      let s = send_after_setup ~bytes:20_000 base to_b f in
      let at ms recovery =
        Engine.schedule_anon f.engine ~at:(Time.ms ms) (fun () ->
            ignore (Session.reconfigure s { base with Scs.recovery });
            Session.send s ~bytes:10_000 ())
      in
      at 8 (Params.Forward_error_correction { group = 4 });
      at 20 Params.Go_back_n;
      s)

let expected_go_back_n =
  {|retransmissions 6
timeouts 3
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 0
nacks_sent 0
b 0:1167484 1:1993084 2:3051628 3:3877228 4:4702828
b 5:5528428 6:6354028 7:7179628 8:8005228 9:8830828
b 10:9656428 11:10482028 12:11307628 13:12133228 14:12958828
b 15:13784428 16:14610028 17:15435628 18:16261228 19:17086828
b 20:25342828 21:25342828 22:25342828 23:41583382 24:42408982
b 25:42408982 26:42408982 27:42408982 28:42408982 29:87549706
|}

let expected_selective_sack =
  {|retransmissions 32
timeouts 0
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 0
nacks_sent 0
b 0:1156032 1:1981632 2:2807232 3:3632832 4:4458432
b 5:8586432 6:9412032 7:11888832 8:12714432 9:15191232
b 10:16016832 11:18493632 12:18493632 13:18493632 14:18493632
b 15:18493632 16:20970432 17:25924032 18:25924032 19:25924032
b 20:25924032 21:25924032 22:25924032 23:25924032 24:25924032
b 25:28695616 26:29521216 27:30346816 28:31172416 29:31172416
|}

let expected_selective_cumulative =
  {|retransmissions 18
timeouts 2
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 0
nacks_sent 0
b 0:1159304 1:1984904 2:2810504 3:3636104 4:14368904
b 5:33506811 6:33506811 7:33506811 8:33506811 9:33506811
b 10:33506811 11:33506811 12:33506811 13:33506811 14:40937211
b 15:40937211 16:40937211 17:43414011 18:44239611 19:45065211
b 20:45890811 21:46716411 22:47542011 23:48367611 24:49193211
b 25:50018811 26:70159900 27:70159900 28:70159900 29:70159900
|}

let expected_multicast_nack =
  {|retransmissions 5
timeouts 0
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 0
nacks_sent 5
b 0:2267376 1:3092976 2:3918576 3:4744176 4:5569776
b 5:6395376 6:7220976 7:8046576 8:8872176 9:10267376
b 10:14267376 11:18267376 12:22267376 13:26267376 14:30267376
b 15:34267376 16:38267376 17:42267376 18:46267376 19:50267376
b 20:54267376 21:58267376 22:62267376 23:66267376 24:70267376
b 25:74267376 26:78267376 27:82267376 28:86267376 29:90267376
c 0:2267376 1:3092976 2:3918576 3:4744176 4:5569776
c 5:6395376 6:7220976 7:8046576 8:8872176 9:15993328
c 10:15993328 11:18267376 12:22267376 13:26267376 14:30267376
c 15:39993328 16:39993328 17:42267376 18:46267376 19:55993328
c 20:55993328 21:58267376 22:62267376 23:71993328 24:71993328
c 25:74267376 26:78267376 27:82267376 28:91993328 29:91993328
|}

let expected_fec_paced =
  {|retransmissions 0
timeouts 0
fec_parity_sent 11
fec_recovered 2
losses_unrecovered 0
nacks_sent 0
b 0:1154396 1:1979996 2:2805596 3:3631196 4:5320796
b 5:9154396 6:18018972 7:18018972 8:21154396 9:25154396
b 10:29154396 11:33154396 12:37154396 13:41154396 14:50018972
b 15:50018972 16:53154396 17:57154396 18:61154396 19:65154396
b 20:69154396 21:73154396 22:77154396 23:81154396 24:85154396
b 25:89154396 26:93154396 27:97154396 28:101154396 29:105154396
b 30:109154396 31:113154396 32:117154396 33:121154396 34:125154396
b 35:129154396 36:133154396 37:137154396 38:141154396 39:145154396
b 40:149154396
|}

let expected_fec_acked =
  {|retransmissions 0
timeouts 2
fec_parity_sent 8
fec_recovered 0
losses_unrecovered 25
nacks_sent 0
b 0:1156032 2:42807232 3:42807232 4:42807232 5:42807232
b 6:42807232 7:42807232 8:42807232 9:42807232 10:42807232
b 11:42807232 12:42807232 13:42807232 14:42807232 15:42807232
b 16:42807232 17:42807232 18:42807232 19:42807232 20:42807232
b 21:42807232 22:42807232 23:42807232 24:42807232 25:67393482
b 26:68219082 27:69044682 28:70734282 29:71559882
|}

let expected_ordered_gap =
  {|retransmissions 0
timeouts 0
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 4
nacks_sent 0
b 0:1160940 1:1986540 2:2812140 3:3637740 4:5160940
b 5:9160940 6:13160940 7:17160940 9:65160940 10:65160940
b 11:65160940 13:105160940 14:105160940 15:105160940 16:105160940
b 18:145160940 19:145160940 20:145160940 21:145160940 22:145160940
b 24:185160940 25:185160940 26:185160940 27:185160940 28:185160940
b 29:185160940
|}

let expected_ordered_gap_acked =
  {|retransmissions 0
timeouts 5
fec_parity_sent 0
fec_recovered 0
losses_unrecovered 28
nacks_sent 0
b 0:1170756 1:1996356 3:43647556 4:43647556 5:43647556
b 6:43647556 7:43647556 8:43647556 9:43647556 10:43647556
b 12:83647556 13:83647556 14:83647556 15:83647556 16:83647556
b 17:83647556 18:83647556 19:83647556 20:83647556 21:83647556
b 22:83647556 24:125170756 25:125170756 26:125170756 28:165170756
b 29:165170756
|}

let expected_segue =
  {|retransmissions 3
timeouts 0
fec_parity_sent 3
fec_recovered 2
losses_unrecovered 0
nacks_sent 0
b 0:1156032 1:1981632 2:2807232 3:3632832 4:14365632
b 5:14365632 6:14365632 7:15191232 8:15191232 9:15191232
b 10:15191232 11:15191232 12:15191232 13:15191232 14:15191232
b 15:15191232 16:20309408 17:20309408 18:20309408 19:20309408
b 20:21134432 21:24475808 22:24475808 23:24475808 24:25300832
b 25:26126432 26:26952032 27:27777632 28:29591232 29:30416832
b 30:31242432 31:32068032 32:32893632 33:33719232 34:34544832
b 35:35370432 36:36196032 37:37021632 38:37847232 39:38672832
|}

let test_transcripts () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ("go-back-n", go_back_n, expected_go_back_n);
      ("selective repeat, sack", selective_sack, expected_selective_sack);
      ("selective repeat, cumulative", selective_cumulative, expected_selective_cumulative);
      ("multicast nack", multicast_nack, expected_multicast_nack);
      ("fec, paced", fec_paced, expected_fec_paced);
      ("fec, acked", fec_acked, expected_fec_acked);
      ("ordered gap", ordered_gap, expected_ordered_gap);
      ("ordered gap, acked", ordered_gap_acked, expected_ordered_gap_acked);
      ("segue", segue, expected_segue);
    ]

let suite =
  [
    ( "session.recovery",
      [ Alcotest.test_case "pinned loss-recovery transcripts" `Quick test_transcripts ] );
  ]
