(* Tests for the baseline protocols and the Table 1 workload generators. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_baselines
open Adaptive_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------ baselines *)

let lan_pair () =
  let stack = Adaptive.create_stack ~seed:17 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.lan_path ());
  (stack, a, b)

(* The configuration a baseline binds, read back from an open session. *)
let baseline_session kind =
  let stack, a, b = lan_pair () in
  let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
  Baselines.connect disp ~peers:[ b ] kind

let test_baseline_scs_shapes () =
  let sessions = List.map baseline_session [ Baselines.Tcp_like; Baselines.Tp4_like; Baselines.Udp_like ] in
  let tcp = Session.scs (List.nth sessions 0) in
  check_bool "tcp 3-way" true (tcp.Scs.connection = Params.Three_way);
  check_bool "tcp gbn" true (tcp.Scs.recovery = Params.Go_back_n);
  check_bool "tcp slow start" true
    (match tcp.Scs.congestion with Params.Slow_start _ -> true | _ -> false);
  (match tcp.Scs.transmission with
  | Params.Sliding_window { window } ->
    check_bool "tcp 64KiB-equivalent fixed window" true (window <= 45)
  | _ -> Alcotest.fail "tcp uses a window");
  let tp4 = Session.scs (List.nth sessions 1) in
  check_bool "tp4 crc" true (tp4.Scs.detection = Params.Crc32);
  check_bool "tp4 reliable" true (Scs.reliable tp4);
  let udp = Session.scs (List.nth sessions 2) in
  check_bool "udp unreliable" false (Scs.reliable udp);
  check_bool "udp silent" true (udp.Scs.reporting = Params.No_report);
  check_bool "udp implicit" true (udp.Scs.connection = Params.Implicit);
  Alcotest.(check string) "names" "tcp,tp4,udp"
    (String.concat ","
       (List.map Session.name sessions))

let test_baseline_tcp_transfer () =
  let stack, a, b = lan_pair () in
  let got = ref 0 in
  Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) (fun _ d ->
      got := !got + d.Session.bytes);
  let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
  let s = Baselines.connect disp ~peers:[ b ] Baselines.Tcp_like in
  Session.send s ~bytes:200_000 ();
  Adaptive.run stack ~until:(Time.sec 30.0);
  Session.close s;
  Adaptive.run stack ~until:(Time.sec 60.0);
  check_int "reliable delivery" 200_000 !got

let test_baseline_udp_fire_and_forget () =
  let stack, a, b = lan_pair () in
  let got = ref 0 in
  Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) (fun _ d ->
      got := !got + d.Session.bytes);
  let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
  let s = Baselines.connect disp ~peers:[ b ] Baselines.Udp_like in
  Session.send s ~bytes:50_000 ();
  Adaptive.run stack ~until:(Time.sec 5.0);
  (* The Ethernet profile has a real copper bit-error rate, so the odd
     datagram is checksum-discarded and never repaired — that is UDP. *)
  check_bool "datagrams delivered on clean lan" true
    (!got > 48_000 && !got <= 50_000);
  Alcotest.(check (float 0.0)) "no acks at all" 0.0
    (Unites.aggregate_total stack.Adaptive.unites Unites.Acks_sent);
  Session.close ~graceful:false s

let test_baseline_static_binding () =
  let stack, a, b = lan_pair () in
  let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
  let s = Baselines.connect disp ~peers:[ b ] Baselines.Tp4_like in
  (match Session.reconfigure s { (Session.scs s) with Scs.recovery = Params.Selective_repeat } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "baselines must be statically bound");
  Session.close ~graceful:false s

(* ------------------------------------------------------------ workloads *)

let test_workload_catalog () =
  check_int "nine applications" 9 (List.length Workloads.all);
  let names = List.map Workloads.name Workloads.all in
  check_int "unique names" 9 (List.length (List.sort_uniq compare names));
  List.iter
    (fun app ->
      let q = Workloads.qos app in
      check_bool (Workloads.name app ^ " qos sane") true
        (q.Qos.avg_bps > 0.0 && q.Qos.peak_bps >= q.Qos.avg_bps))
    Workloads.all

let test_workload_multicast_flags_consistent () =
  List.iter
    (fun app ->
      let q = Workloads.qos app in
      let receivers = Workloads.multicast_receivers app in
      check_bool (Workloads.name app ^ " receivers consistent") true
        (if q.Qos.multicast then receivers > 1 else receivers = 1))
    Workloads.all

let drive_app ?(stop = 5.0) app =
  let stack, a, b = lan_pair () in
  Workloads.install_server app (Mantts.entity stack.Adaptive.mantts b);
  let acd = Acd.make ~participants:[ b ] ~qos:(Workloads.qos app) () in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  let driver =
    Workloads.drive stack.Adaptive.engine stack.Adaptive.rng ~session:s app
      ~stop_at:(Time.sec stop)
  in
  Adaptive.run stack ~until:(Time.sec (stop +. 5.0));
  (stack, s, driver)

let test_voice_driver_rate () =
  let _, _, driver = drive_app Workloads.Voice_conversation in
  (* 64 kb/s during talkspurts, ~40% duty cycle over 5 s: between 40 and
     260 frames of 160 bytes. *)
  let msgs = Workloads.messages_sent driver in
  check_bool "plausible frame count" true (msgs > 30 && msgs < 270);
  check_int "frame size" (160 * msgs) (Workloads.bytes_sent driver)

let test_video_cbr_driver () =
  let _, _, driver = drive_app ~stop:1.0 Workloads.Video_raw in
  (* 30 frames/s for 1 s. *)
  let msgs = Workloads.messages_sent driver in
  check_bool "about 30 frames" true (msgs >= 28 && msgs <= 32);
  check_int "constant size" (500_000 * msgs) (Workloads.bytes_sent driver)

let test_video_vbr_driver_bursty () =
  let _, _, driver = drive_app ~stop:2.0 Workloads.Video_compressed in
  let msgs = Workloads.messages_sent driver in
  check_bool "frames flowed" true (msgs > 30);
  let mean = float_of_int (Workloads.bytes_sent driver) /. float_of_int msgs in
  check_bool "mean frame plausible" true (mean > 5_000.0 && mean < 80_000.0)

let test_file_transfer_driver () =
  let stack, _, driver = drive_app ~stop:30.0 Workloads.File_transfer in
  check_int "one message" 1 (Workloads.messages_sent driver);
  check_int "ten megabytes" 10_000_000 (Workloads.bytes_sent driver);
  check_bool "fully delivered" true
    (Unites.aggregate_total stack.Adaptive.unites Unites.Bytes_delivered
     >= 10_000_000.0)

let test_oltp_closed_loop () =
  let stack, _, driver = drive_app Workloads.Oltp in
  let requests = Workloads.messages_sent driver in
  check_bool "multiple transactions" true (requests > 5);
  (* Each request elicits a 2 kB response; delivered bytes include both
     directions. *)
  check_bool "responses flowed" true
    (Unites.aggregate_total stack.Adaptive.unites Unites.Bytes_delivered
     > float_of_int (requests * 256))

let test_telnet_echo () =
  let stack, _, driver = drive_app Workloads.Telnet in
  let keys = Workloads.messages_sent driver in
  check_bool "keystrokes flowed" true (keys > 2);
  check_bool "echo came back" true
    (Unites.aggregate_total stack.Adaptive.unites Unites.Segments_delivered
     > float_of_int keys)

let suite =
  [
    ( "baselines",
      [
        Alcotest.test_case "configuration shapes" `Quick test_baseline_scs_shapes;
        Alcotest.test_case "tcp-like reliable transfer" `Quick test_baseline_tcp_transfer;
        Alcotest.test_case "udp-like fire and forget" `Quick
          test_baseline_udp_fire_and_forget;
        Alcotest.test_case "statically bound" `Quick test_baseline_static_binding;
      ] );
    ( "workloads",
      [
        Alcotest.test_case "catalog" `Quick test_workload_catalog;
        Alcotest.test_case "multicast flags consistent" `Quick
          test_workload_multicast_flags_consistent;
        Alcotest.test_case "voice talkspurts" `Quick test_voice_driver_rate;
        Alcotest.test_case "raw video CBR" `Quick test_video_cbr_driver;
        Alcotest.test_case "compressed video VBR" `Quick test_video_vbr_driver_bursty;
        Alcotest.test_case "file transfer bulk" `Quick test_file_transfer_driver;
        Alcotest.test_case "OLTP closed loop" `Quick test_oltp_closed_loop;
        Alcotest.test_case "telnet echo" `Quick test_telnet_echo;
      ] );
  ]
