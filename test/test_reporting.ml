(* Byte-pinned transcripts of error detection and reporting on seeded
   pairs: a delayed cumulative acknowledgment, SACK under reordering, a
   NACK that is sent again by its timer, a receiver that reports
   nothing, a NACK -> SACK segue with a re-NACK pending, and one noisy
   link under the Internet checksum and under no detection.  Each
   transcript records the acknowledgment, NACK and corruption counters
   and every delivery (sequence number, time), so any change to
   detection or reporting that moves an acknowledgment, a NACK or a
   discard shows up here. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let metrics =
  [
    ("acks_sent", Unites.Acks_sent);
    ("nacks_sent", Unites.Nacks_sent);
    ("corrupt_detected", Unites.Corrupt_detected);
    ("corrupt_delivered", Unites.Corrupt_delivered);
  ]

let noisy ?(ber = 0.0) ?(queue = 64) () =
  Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:queue ~ber ~mtu:1500
    ()

(* Run [start] on a fresh fixture for [horizon], close gracefully, run to
   quiescence and render the transcript. *)
let transcript ?seed ~path_ab ~horizon start =
  let f = Test_session.make_fixture ?seed ~path_ab () in
  let s = start f in
  Engine.run f.engine ~until:horizon;
  Session.close s;
  Engine.run f.engine ~until:(Time.add horizon (Time.sec 30.0));
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, m) ->
      Printf.bprintf buf "%s %.0f\n" name (Unites.aggregate_total f.unites m))
    metrics;
  (* Five deliveries to a line, each as seq:time. *)
  List.iteri
    (fun i d ->
      if i mod 5 = 0 then Buffer.add_string buf (if i = 0 then "b" else "\nb");
      Printf.bprintf buf " %d:%d" d.Session.seq d.Session.delivered_at)
    (Test_session.received f f.b);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let base_scs ?(transmission = Params.Sliding_window { window = 8 }) reporting recovery =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission;
    reporting;
    recovery;
    recv_buffer_segments = 32;
    segment_bytes = 1000;
    initial_rto = Time.ms 50;
  }

let paced = Params.Rate_based { rate_bps = 2e6; burst = 4 }

let send ?(bytes = 30_000) scs (f : Test_session.fixture) =
  let s = Session.connect f.disp_a ~name:"src" ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes ();
  s

(* A 5 ms acknowledgment delay under go-back-n on a noisy link: in-order
   arrivals wait, gaps are acknowledged at once, and the duplicates of a
   resend burst coalesce. *)
let delayed_cumulative () =
  transcript ~seed:23 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send (base_scs (Params.Cumulative_ack { delay = Time.ms 5 }) Params.Go_back_n))

(* A 3-packet queue under a 12-segment window: drops leave later
   segments arriving above a gap, and each acknowledgment carries SACK
   blocks. *)
let sack_reordering () =
  transcript ~seed:29 ~path_ab:[ noisy ~ber:2e-6 ~queue:3 () ] ~horizon:(Time.sec 10.0)
    (send
       (base_scs ~transmission:(Params.Sliding_window { window = 12 })
          (Params.Selective_ack { delay = Time.ms 2 })
          Params.Selective_repeat))

(* NACK reporting on a paced stream: a lost repair leaves the gap open
   until the re-NACK timer names it again. *)
let nack_renack () =
  transcript ~seed:31 ~path_ab:[ noisy ~ber:2e-5 () ] ~horizon:(Time.sec 10.0)
    (send (base_scs ~transmission:paced Params.Nack_on_gap Params.Selective_repeat))

let no_report () =
  transcript ~seed:37 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send (base_scs ~transmission:paced Params.No_report Params.No_recovery))

(* NACK reporting until 30 ms, then SACK: the receiver's re-NACK timer,
   armed under NACK, fires once under SACK. *)
let nack_to_sack () =
  transcript ~seed:44 ~path_ab:[ noisy ~ber:4e-5 () ] ~horizon:(Time.sec 10.0) (fun f ->
      let scs = base_scs ~transmission:paced Params.Nack_on_gap Params.Selective_repeat in
      let s = send scs f in
      Engine.schedule_anon f.engine ~at:(Time.ms 30) (fun () ->
          ignore
            (Session.reconfigure s
               { scs with Scs.reporting = Params.Selective_ack { delay = Time.ms 1 } }));
      s)

(* The same noisy link under two detection schemes: the checksum
   discards what the link corrupts, no detection delivers it. *)
let detection det () =
  transcript ~seed:43 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (send
       {
         (base_scs (Params.Cumulative_ack { delay = Time.ms 1 }) Params.Selective_repeat) with
         Scs.detection = det;
       })

let expected_delayed_cumulative =
  {|acks_sent 18
nacks_sent 0
corrupt_detected 4
corrupt_delivered 0
b 0:1151124 1:8581524 2:8581524 3:8581524 4:8581524
b 5:8581524 6:8581524 7:8581524 8:8581524 9:15186324
b 10:16011924 11:16837524 12:17663124 13:18488724 14:19314324
b 15:20139924 16:20965524 17:40244868 18:41070468 19:41896068
b 20:42721668 21:43547268 22:44372868 23:50977668 24:50977668
b 25:50977668 26:50977668 27:50977668 28:50977668 29:50977668
|}

let expected_sack_reordering =
  {|acks_sent 27
nacks_sent 0
corrupt_detected 1
corrupt_delivered 0
b 0:1156032 1:1981632 2:2807232 3:3632832 4:4458432
b 5:7760832 6:8586432 7:9412032 8:12714432 9:18493632
b 10:19319232 11:20144832 12:20144832 13:20144832 14:20144832
b 15:20144832 16:20144832 17:20144832 18:20144832 19:20144832
b 20:20144832 21:20970432 22:21796032 23:27156976 24:27156976
b 25:27156976 26:27156976 27:27156976 28:43370031 29:44195631
|}

let expected_nack_renack =
  {|acks_sent 0
nacks_sent 5
corrupt_detected 8
corrupt_delivered 0
b 0:1151124 1:4508772 2:5334372 3:5334372 4:6159972
b 5:9151124 6:13151124 7:17151124 8:21151124 9:25151124
b 10:29151124 11:33151124 12:37151124 13:41151124 14:45151124
b 15:62035268 16:62860868 17:63686468 18:63686468 19:65151124
b 20:69151124 21:73151124 22:77151124 23:81151124 24:162028676
b 25:162028676 26:162028676 27:162028676 28:162028676 29:162028676
|}

let expected_no_report =
  {|acks_sent 0
nacks_sent 0
corrupt_detected 1
corrupt_delivered 0
b 0:1160940 1:1986540 2:2812140 3:3637740 4:5160940
b 5:9160940 6:13160940 7:17160940 8:21160940 9:25160940
b 10:29160940 11:33160940 12:37160940 13:41160940 14:45160940
b 15:49160940 16:53160940 17:57160940 18:61160940 19:65160940
b 20:69160940 21:73160940 22:77160940 23:81160940 24:85160940
b 25:89160940 26:93160940 27:97160940 29:155160940
|}

let expected_nack_to_sack =
  {|acks_sent 19
nacks_sent 3
corrupt_detected 20
corrupt_delivered 0
b 0:1151124 1:6035268 2:6860868 3:7686468 4:7686468
b 5:9151124 6:13151124 7:22028676 8:22028676 9:25151124
b 10:29151124 11:38038564 12:38038564 13:58508772 14:58508772
b 15:58508772 16:59334372 17:59334372 18:66038564 19:66038564
b 20:78041860 21:78041860 22:78041860 23:81151124 24:85151124
b 25:94038564 26:94038564 27:97151124 28:112663748 29:126106956
|}

let expected_checksum =
  {|acks_sent 25
nacks_sent 0
corrupt_detected 4
corrupt_delivered 0
b 0:1157668 1:1983268 2:9413668 3:9413668 4:9413668
b 5:9413668 6:9413668 7:9413668 8:9413668 9:9413668
b 10:11297812 11:12123412 12:12949012 13:13774612 14:14600212
b 15:15425812 16:16251412 17:23681812 18:23681812 19:23681812
b 20:39378837 21:40204437 22:40204437 23:40204437 24:40204437
b 25:40204437 26:40204437 27:40204437 28:45983637 29:46809237
|}

let expected_nodetect =
  {|acks_sent 15
nacks_sent 0
corrupt_detected 0
corrupt_delivered 3
b 0:1131400 1:1957000 2:2782600 3:3608200 4:4433800
b 5:5259400 6:6085000 7:6910600 8:7736200 9:8561800
b 10:9387400 11:10213000 12:11038600 13:11864200 14:12689800
b 15:13515400 16:14341000 17:15166600 18:15992200 19:16817800
b 20:17643400 21:18469000 22:19294600 23:20120200 24:20945800
b 25:21771400 26:22597000 27:23422600 28:24248200 29:25073800
|}

let test_transcripts () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ("delayed cumulative ack", delayed_cumulative, expected_delayed_cumulative);
      ("sack under reordering", sack_reordering, expected_sack_reordering);
      ("nack and re-nack", nack_renack, expected_nack_renack);
      ("no reporting", no_report, expected_no_report);
      ("nack to sack", nack_to_sack, expected_nack_to_sack);
      ("checksum", detection Params.Internet_checksum, expected_checksum);
      ("no detection", detection Params.No_detection, expected_nodetect);
    ]

let suite =
  [
    ( "session.reporting",
      [ Alcotest.test_case "pinned reporting transcripts" `Quick test_transcripts ] );
  ]
