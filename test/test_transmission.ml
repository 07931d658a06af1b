(* Byte-pinned transcripts of transmission control on seeded pairs:
   stop-and-wait, a sliding window bound by a small peer window, slow
   start under bit errors (collapsing at timeouts and at third duplicate
   acknowledgments), rate pacing with a rate change mid-stream, and a
   window -> rate -> window change with data queued.  Each transcript
   records the sender's first-transmission count and the time of every
   first transmission, the recovery counters and every delivery
   (sequence number, time), so any change to transmission control that
   moves a segment's departure shows up here. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let noisy ?(ber = 0.0) ?(queue = 64) () =
  Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:queue ~ber ~mtu:1500
    ()

(* Run [start] on a fresh fixture, firing events one at a time up to
   [horizon] and noting the instant of every first transmission of the
   sender; then close gracefully, run to quiescence and render. *)
let transcript ?seed ~path_ab ~horizon start =
  let f = Test_session.make_fixture ?seed ~path_ab () in
  let s = start f in
  let sent () = Unites.total f.unites ~session:(Session.id s) Unites.Segments_sent in
  let departures = ref [] in
  let seen = ref 0.0 in
  let look () =
    let n = sent () in
    for _ = 1 to int_of_float (n -. !seen) do
      departures := Engine.now f.engine :: !departures
    done;
    seen := n
  in
  look ();
  let within () =
    match Engine.next_deadline f.engine with Some at -> at <= horizon | None -> false
  in
  while within () do
    ignore (Engine.step f.engine);
    look ()
  done;
  Engine.run f.engine ~until:horizon;
  Session.close s;
  Engine.run f.engine ~until:(Time.add horizon (Time.sec 30.0));
  let buf = Buffer.create 4096 in
  let total m = Unites.aggregate_total f.unites m in
  Printf.bprintf buf "segments_sent %.0f\nretransmissions %.0f\ntimeouts %.0f\n"
    (sent ()) (total Unites.Retransmissions) (total Unites.Timeouts);
  (* Ten departures or five deliveries to a line. *)
  List.iteri
    (fun i at ->
      if i mod 10 = 0 then Buffer.add_string buf (if i = 0 then "tx" else "\ntx");
      Printf.bprintf buf " %d" at)
    (List.rev !departures);
  Buffer.add_char buf '\n';
  List.iteri
    (fun i d ->
      if i mod 5 = 0 then Buffer.add_string buf (if i = 0 then "b" else "\nb");
      Printf.bprintf buf " %d:%d" d.Session.seq d.Session.delivered_at)
    (Test_session.received f f.b);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let base_scs transmission =
  {
    Scs.default with
    Scs.connection = Params.Two_way;
    transmission;
    reporting = Params.Cumulative_ack { delay = Time.ms 1 };
    recovery = Params.Go_back_n;
    recv_buffer_segments = 32;
    segment_bytes = 1000;
    initial_rto = Time.ms 50;
  }

let open_and_send ~bytes scs (f : Test_session.fixture) =
  let s = Session.connect f.disp_a ~name:"src" ~peers:[ f.b ] ~scs () in
  Session.send s ~bytes ();
  s

(* Reconfigure [s] to [scs] at [ms] and queue [bytes] more. *)
let change_at (f : Test_session.fixture) s ms scs ~bytes =
  Engine.schedule_anon f.engine ~at:(Time.ms ms) (fun () ->
      ignore (Session.reconfigure s scs);
      Session.send s ~bytes ())

let stop_and_wait () =
  transcript ~path_ab:[ noisy () ] ~horizon:(Time.sec 5.0)
    (open_and_send ~bytes:20_000 (base_scs Params.Stop_and_wait))

(* A 16-segment window under a 3-segment receive buffer: the peer's
   advertisement binds, and shrinks further while segments wait behind a
   gap. *)
let peer_window () =
  transcript ~seed:41 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (open_and_send ~bytes:30_000
       {
         (base_scs (Params.Sliding_window { window = 16 })) with
         Scs.reporting = Params.Selective_ack { delay = Time.ms 1 };
         recovery = Params.Selective_repeat;
         recv_buffer_segments = 3;
       })

let slow_start () =
  transcript ~seed:43 ~path_ab:[ noisy ~ber:1e-5 () ] ~horizon:(Time.sec 10.0)
    (open_and_send ~bytes:60_000
       {
         (base_scs (Params.Sliding_window { window = 32 })) with
         Scs.congestion = Params.Slow_start { initial = 1; threshold = 16 };
         recovery = Params.Selective_repeat;
       })

(* 2 Mb/s with a 4-segment burst, then 5 Mb/s with a 2-segment burst
   from 40 ms on. *)
let rate_change () =
  let paced rate_bps burst =
    {
      (base_scs (Params.Rate_based { rate_bps; burst })) with
      Scs.reporting = Params.No_report;
      recovery = Params.No_recovery;
    }
  in
  transcript ~path_ab:[ noisy () ] ~horizon:(Time.sec 10.0) (fun f ->
      let s = open_and_send ~bytes:30_000 (paced 2e6 4) f in
      change_at f s 40 (paced 5e6 2) ~bytes:30_000;
      s)

(* An 8-segment window under slow start, rate-paced from 10 ms, windowed
   again from 60 ms, with the send queue never empty at a change. *)
let window_rate_window () =
  let windowed =
    {
      (base_scs (Params.Sliding_window { window = 8 })) with
      Scs.congestion = Params.Slow_start { initial = 2; threshold = 8 };
    }
  in
  let paced =
    { windowed with Scs.transmission = Params.Rate_based { rate_bps = 4e6; burst = 2 } }
  in
  transcript ~seed:47 ~path_ab:[ noisy ~ber:4e-6 () ] ~horizon:(Time.sec 10.0) (fun f ->
      let s = open_and_send ~bytes:40_000 windowed f in
      change_at f s 10 paced ~bytes:20_000;
      change_at f s 60 windowed ~bytes:20_000;
      s)

let expected_stop_and_wait =
  {|segments_sent 20
retransmissions 0
timeouts 0
tx 293756 2177900 4062044 5946188 7830332 9714476 11598620 13482764 15366908 17251052
tx 19135196 21019340 22903484 24787628 26671772 28555916 30440060 32324204 34208348 36092492
b 0:1151124 1:3035268 2:4919412 3:6803556 4:8687700
b 5:10571844 6:12455988 7:14340132 8:16224276 9:18108420
b 10:19992564 11:21876708 12:23760852 13:25644996 14:27529140
b 15:29413284 16:31297428 17:33181572 18:35065716 19:36949860
|}

let expected_peer_window =
  {|segments_sent 30
retransmissions 1
timeouts 0
tx 297028 297028 297028 2181172 2181172 3832372 7134772 7134772 7134772 9018916
tx 9018916 10670116 10670116 12321316 12321316 13972516 13972516 15623716 15623716 17274916
tx 17274916 18926116 18926116 20577316 20577316 22228516 22228516 23879716 23879716 25530916
b 0:1154396 1:1979996 2:2805596 3:6107996 4:6107996
b 5:6107996 6:7992140 7:8817740 8:9643340 9:10468940
b 10:11294540 11:12120140 12:12945740 13:13771340 14:14596940
b 15:15422540 16:16248140 17:17073740 18:17899340 19:18724940
b 20:19550540 21:20376140 22:21201740 23:22027340 24:22852940
b 25:23678540 26:24504140 27:25329740 28:26155340 29:26980940
|}

let expected_slow_start =
  {|segments_sent 60
retransmissions 21
timeouts 7
tx 318296 2202440 2202440 15970728 15970728 17854872 17854872 17854872 19739016 19739016
tx 21390216 21390216 21390216 23041416 23041416 24692616 24692616 24692616 26343816 26343816
tx 27995016 27995016 67838573 67838573 69722717 69722717 69722717 71606861 71606861 73258061
tx 73258061 73258061 74909261 74909261 76560461 76560461 76560461 78211661 78211661 83990861
tx 83990861 98978602 98978602 124629802 124629802 126513946 126513946 126513946 128398090 128398090
tx 130049290 130049290 130049290 131700490 135887034 135887034 135887034 150514467 150514467 152991267
b 0:1175664 1:14943952 2:14943952 3:16828096 4:17653696
b 5:18712240 6:19537840 7:20363440 8:21189040 9:22014640
b 10:22840240 11:23665840 12:24491440 13:25317040 14:26142640
b 15:26968240 16:27793840 17:41160597 18:41160597 19:41160597
b 20:43637397 21:44462997 22:68695941 23:69521541 24:70580085
b 25:71405685 26:72231285 27:73056885 28:73882485 29:74708085
b 30:75533685 31:76359285 32:77184885 33:78010485 34:82964085
b 35:82964085 36:82964085 37:82964085 38:97951826 39:97951826
b 40:97951826 41:100428626 42:101254226 43:125487170 44:126312770
b 45:127371314 46:128196914 47:129022514 48:129848114 49:130673714
b 50:134860258 51:134860258 52:134860258 53:134860258 54:149487691
b 55:149487691 56:149487691 57:151964491 58:166358194 59:166358194
|}

let expected_rate_change =
  {|segments_sent 60
retransmissions 0
timeouts 0
tx 303572 303572 303572 303572 4303572 8303572 12303572 16303572 20303572 24303572
tx 28303572 32303572 36303572 40000000 40000000 41103572 42703572 44303572 45903572 47503572
tx 49103572 50703572 52303572 53903572 55503572 57103572 58703572 60303572 61903572 63503572
tx 65103572 66703572 68303572 69903572 71503572 73103572 74703572 76303572 77903572 79503572
tx 81103572 82703572 84303572 85903572 87503572 89103572 90703572 92303572 93903572 95503572
tx 97103572 98703572 100303572 101903572 103503572 105103572 106703572 108303572 109903572 111503572
b 0:1160940 1:1986540 2:2812140 3:3637740 4:5160940
b 5:9160940 6:13160940 7:17160940 8:21160940 9:25160940
b 10:29160940 11:33160940 12:37160940 13:40976528 14:41802128
b 15:42627728 16:43560940 17:45160940 18:46760940 19:48360940
b 20:49960940 21:51560940 22:53160940 23:54760940 24:56360940
b 25:57960940 26:59560940 27:61160940 28:62760940 29:64360940
b 30:65960940 31:67560940 32:69160940 33:70760940 34:72360940
b 35:73960940 36:75560940 37:77160940 38:78760940 39:80360940
b 40:81960940 41:83560940 42:85160940 43:86760940 44:88360940
b 45:89960940 46:91560940 47:93160940 48:94760940 49:96360940
b 50:97960940 51:99560940 52:101160940 53:102760940 54:104360940
b 55:105960940 56:107560940 57:109160940 58:110760940 59:112360940
|}

let expected_window_rate_window =
  {|segments_sent 80
retransmissions 2
timeouts 0
tx 308480 308480 2192624 2192624 2192624 2192624 4076768 4076768 4076768 4076768
tx 5727968 5727968 5727968 5727968 7379168 7379168 9030368 9030368 10000000 10000000
tx 12000000 14000000 16000000 18000000 20000000 22000000 24000000 26000000 28000000 30000000
tx 32000000 34000000 36000000 38000000 40000000 42000000 44000000 46000000 48000000 50000000
tx 52000000 54000000 56000000 58000000 60000000 60000000 60000000 60000000 60000000 60000000
tx 60000000 60000000 62005740 62005740 63656940 63656940 65308140 65308140 66959340 66959340
tx 68610540 68610540 70261740 70261740 71912940 71912940 80168940 80168940 80168940 80168940
tx 80168940 80168940 82053084 82053084 83704284 83704284 83704284 85355484 85355484 87006684
b 0:1165848 1:1991448 2:3049992 3:3875592 4:4701192
b 5:5526792 6:6352392 7:7177992 8:8003592 9:8829192
b 10:9654792 11:10480392 12:11305992 13:12131592 14:12957192
b 15:13782792 16:14608392 17:15433992 18:16396392 19:17221992
b 20:18047592 21:18873192 22:19698792 23:20524392 24:21349992
b 25:22857368 26:24857368 27:26857368 28:28857368 29:30857368
b 30:32857368 31:34857368 32:36857368 33:38857368 34:40857368
b 35:42857368 36:44857368 37:46857368 38:48857368 39:50857368
b 40:52857368 41:54857368 42:56857368 43:58857368 44:60978964
b 45:61804564 46:62630164 47:63455764 48:64281364 49:65106964
b 50:65932564 51:66758164 52:67583764 53:68409364 54:69234964
b 55:70060564 56:70886164 57:71711764 58:79142164 59:79142164
b 60:79142164 61:79142164 62:79142164 63:79142164 64:79142164
b 65:79142164 66:81026308 67:81851908 68:82677508 69:83503108
b 70:84328708 71:85154308 72:85979908 73:86805508 74:87631108
b 75:88456708 76:89282308 77:90107908 78:90933508 79:91759108
|}


let test_transcripts () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ("stop-and-wait", stop_and_wait, expected_stop_and_wait);
      ("peer window", peer_window, expected_peer_window);
      ("slow start", slow_start, expected_slow_start);
      ("rate change", rate_change, expected_rate_change);
      ("window, rate, window", window_rate_window, expected_window_rate_window);
    ]

let suite =
  [
    ( "session.transmission",
      [
        Alcotest.test_case "rate pacing" `Quick Test_session.test_rate_pacing;
        Alcotest.test_case "peer window respected" `Quick
          Test_session.test_window_respects_peer_advertisement;
        Alcotest.test_case "slow start ramps" `Quick Test_session.test_slow_start_ramp;
        Alcotest.test_case "pinned transmission transcripts" `Quick test_transcripts;
      ] );
  ]
