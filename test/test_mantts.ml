(* Tests for the MANTTS policy subsystem: classification, the Stage II
   derivation rules, negotiation, and data-phase adaptation. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let stack_with path =
  let stack = Adaptive.create_stack ~seed:11 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b path;
  (stack, a, b)

let acd_for ?explicit_tsc ?tsa qos b = Acd.make ?explicit_tsc ?tsa ~participants:[ b ] ~qos ()

(* ---------------------------------------------------------------- stages *)

let test_classify_explicit_override () =
  let (_, _, b) = stack_with (Profiles.lan_path ()) in
  let acd =
    acd_for ~explicit_tsc:Tsc.Realtime_non_isochronous
      { Qos.default with Qos.isochronous = true; interactive = true }
      b
  in
  check_bool "explicit wins" true (Mantts.classify acd = Tsc.Realtime_non_isochronous);
  let implicit = acd_for { Qos.default with Qos.isochronous = true; interactive = true } b in
  check_bool "otherwise stage I" true
    (Mantts.classify implicit = Tsc.Interactive_isochronous)

let test_sample_paths () =
  let stack = Adaptive.create_stack ~seed:3 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.satellite_path ());
  let acd = acd_for Qos.default b in
  let path = Mantts.sample_paths stack.Adaptive.mantts ~src:a acd in
  check_int "min mtu" 1500 path.Mantts.mtu;
  check_bool "bottleneck 10M" true (path.Mantts.bottleneck_bps = 10e6);
  check_bool "rtt includes satellite" true (path.Mantts.rtt > Time.ms 500);
  check_bool "ber is worst hop" true (path.Mantts.worst_ber >= 1e-7);
  check_int "hops" 3 path.Mantts.hop_count

let derive stack src acd =
  let tsc = Mantts.classify acd in
  Mantts.derive_scs stack.Adaptive.mantts ~src acd tsc

let test_derive_voice_on_lan () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let scs = derive stack a (acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Voice_conversation) b) in
  check_bool "rate paced" true
    (match scs.Scs.transmission with Params.Rate_based _ -> true | _ -> false);
  check_bool "playout" true
    (match scs.Scs.delivery with Params.Playout _ -> true | _ -> false);
  check_bool "no recovery on short path" true (scs.Scs.recovery = Params.No_recovery);
  check_bool "no reports" true (scs.Scs.reporting = Params.No_report);
  check_bool "implicit setup" true (scs.Scs.connection = Params.Implicit);
  check_bool "unordered" true (scs.Scs.ordering = Params.Unordered);
  (* Table 1: voice conversation requests no priority delivery. *)
  check_int "default priority" 4 scs.Scs.priority

let test_derive_bulk_on_lfn () =
  let stack, a, b = stack_with (Profiles.bisdn_path ()) in
  let scs = derive stack a (acd_for Qos.default b) in
  (* 155 Mb/s x ~60 ms RTT is a long fat network: needs a large scaled
     window and selective repeat. *)
  (match scs.Scs.transmission with
  | Params.Sliding_window { window } ->
    check_bool "window scaled beyond 64KiB-equivalent" true (window > 64)
  | Params.Rate_based _ | Params.Stop_and_wait -> Alcotest.fail "expected window");
  check_bool "selective repeat" true (scs.Scs.recovery = Params.Selective_repeat);
  check_bool "sack reporting" true
    (match scs.Scs.reporting with Params.Selective_ack _ -> true | _ -> false);
  check_bool "congestion control on multi-hop" true
    (match scs.Scs.congestion with Params.Slow_start _ -> true | _ -> false)

let test_derive_media_on_satellite_uses_fec () =
  let stack, a, b = stack_with (Profiles.satellite_path ()) in
  let scs =
    derive stack a
      (acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Video_compressed) b)
  in
  check_bool "FEC over long delay" true
    (match scs.Scs.recovery with Params.Forward_error_correction _ -> true | _ -> false)

let test_derive_multicast_teleconference () =
  let stack = Adaptive.create_stack ~seed:5 () in
  let a = Adaptive.add_host stack "src" in
  let b = Adaptive.add_host stack "r1" in
  let c = Adaptive.add_host stack "r2" in
  Adaptive.connect_hosts stack a b (Profiles.lan_path ());
  Adaptive.connect_hosts stack a c (Profiles.lan_path ());
  let acd =
    Acd.make ~participants:[ b; c ]
      ~qos:(Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Teleconferencing)
      ()
  in
  let scs = derive stack a acd in
  check_bool "rate paced for fan-out" true
    (match scs.Scs.transmission with Params.Rate_based _ -> true | _ -> false);
  check_bool "no congestion window" true
    (scs.Scs.congestion = Params.No_congestion_control)

let test_derive_segment_fits_mtu () =
  let stack, a, b = stack_with (Profiles.internet_path ()) in
  let scs = derive stack a (acd_for Qos.default b) in
  (* Smallest MTU on the internet path is the 576-byte T1 hop. *)
  check_bool "segment under path mtu" true (scs.Scs.segment_bytes <= 576 - 32);
  check_bool "detection at least checksum" true (scs.Scs.detection <> Params.No_detection)

(* The synthesis memo must not serve a shape derived before the path
   changed: a repeat open after an MTU shrink derives a segment that fits
   the new MTU. *)
let test_memo_sees_mtu_shrink () =
  let hops = Profiles.lan_path () in
  let stack, a, b = stack_with hops in
  let acd = acd_for Qos.default b in
  let open_seg () =
    let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
    (Session.scs s).Scs.segment_bytes
  in
  check_bool "first open uses the 1500-byte MTU" true (open_seg () > 576 - 32);
  Link.set_mtu (List.hd hops) 576;
  check_bool "repeat open fits the shrunk MTU" true (open_seg () <= 576 - 32)

let test_derive_interactive_oltp () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let scs =
    derive stack a (acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Oltp) b)
  in
  check_bool "implicit for request-response" true (scs.Scs.connection = Params.Implicit);
  (match scs.Scs.transmission with
  | Params.Sliding_window { window } -> check_bool "small window" true (window <= 8)
  | Params.Rate_based _ | Params.Stop_and_wait -> Alcotest.fail "expected small window")

(* ------------------------------------------------------- table 1 checks *)

let test_stage1_agrees_with_table1 () =
  List.iter
    (fun app ->
      let qos = Adaptive_workloads.Workloads.qos app in
      Alcotest.(check string)
        (Adaptive_workloads.Workloads.name app)
        (Tsc.name (Adaptive_workloads.Workloads.expected_tsc app))
        (Tsc.name (Tsc.classify qos)))
    Adaptive_workloads.Workloads.all

(* ---------------------------------------------------------- negotiation *)

let test_open_session_end_to_end () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let got = ref 0 in
  Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) (fun _ d ->
      got := !got + d.Session.bytes);
  let acd = acd_for Qos.default b in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd ~name:"m1" () in
  Session.send s ~bytes:100_000 ();
  Adaptive.run stack ~until:(Time.sec 30.0);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 60.0);
  check_int "delivered through MANTTS" 100_000 !got;
  check_bool "closed" true (Session.state s = Session.Closed)

let test_negotiation_clamps_to_pool () =
  let stack = Adaptive.create_stack ~seed:9 () in
  let a = Adaptive.add_host stack "a" in
  (* The responder can only commit 16 buffer segments. *)
  let b = Adaptive.add_host ~buffer_segments:16 stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.bisdn_path ());
  let acd = acd_for Qos.default b in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  Adaptive.run stack ~until:(Time.sec 2.0);
  check_bool "established" true (Session.state s = Session.Established);
  check_bool "adopted clamped buffer" true ((Session.scs s).Scs.recv_buffer_segments <= 16);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack

let test_pool_commitment_and_release () =
  (* A 100-segment pool: the first big session commits most of it, the
     second gets the remainder; closing the first returns its buffers
     (§4.1.3). *)
  let stack = Adaptive.create_stack ~seed:13 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host ~buffer_segments:100 stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.bisdn_path ());
  let open_one () =
    let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
    let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
    Adaptive.run stack ~until:(Time.add (Adaptive.now stack) (Time.sec 2.0));
    s
  in
  let s1 = open_one () in
  let b1 = (Session.scs s1).Scs.recv_buffer_segments in
  check_bool "first session gets a large share" true (b1 >= 90);
  let s2 = open_one () in
  let b2 = (Session.scs s2).Scs.recv_buffer_segments in
  check_bool "second session squeezed by commitments" true (b2 <= 100 - b1 + 4);
  (* Release the first session's buffers... *)
  Mantts.close_session stack.Adaptive.mantts s1;
  Adaptive.run stack ~until:(Time.add (Adaptive.now stack) (Time.sec 5.0));
  check_bool "first closed" true (Session.state s1 = Session.Closed);
  let s3 = open_one () in
  check_bool "released buffers are reusable" true
    ((Session.scs s3).Scs.recv_buffer_segments >= 80);
  Mantts.close_session stack.Adaptive.mantts s2;
  Mantts.close_session stack.Adaptive.mantts s3;
  Adaptive.run stack ~until:(Time.add (Adaptive.now stack) (Time.sec 10.0))

(* ----------------------------------------------------------- adaptation *)

let congestion_scenario () =
  let stack = Adaptive.create_stack ~seed:21 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  let hops = Profiles.campus_path () in
  Adaptive.connect_hosts stack a b hops;
  (stack, a, b, List.nth hops 1)

let test_congestion_switches_recovery () =
  let stack, a, b, backbone = congestion_scenario () in
  (* Heavy cross traffic arrives at 1 s and clears at 6 s. *)
  Congestion.phases stack.Adaptive.engine backbone
    [ (Time.sec 1.0, 0.85); (Time.sec 6.0, 0.05) ];
  let acd = acd_for Qos.default b in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  (* Keep traffic flowing so the session stays alive. *)
  let rec feed t =
    if t < 9.0 then
      ignore
        (Engine.schedule stack.Adaptive.engine ~at:(Time.sec t) (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:20_000 ();
             feed (t +. 0.25)))
  in
  feed 0.1;
  Adaptive.run stack ~until:(Time.sec 3.0);
  check_bool "switched to selective repeat under congestion" true
    ((Session.scs s).Scs.recovery = Params.Selective_repeat);
  Adaptive.run stack ~until:(Time.sec 9.0);
  check_bool "restored go-back-n when congestion subsided" true
    ((Session.scs s).Scs.recovery = Params.Go_back_n);
  let log = Mantts.adaptations stack.Adaptive.mantts in
  check_bool "both adaptations logged" true (List.length log >= 2);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 20.0)

let test_route_change_to_satellite_switches_fec () =
  let stack = Adaptive.create_stack ~seed:31 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  let terrestrial = Profiles.campus_path () in
  Adaptive.connect_hosts stack a b terrestrial;
  let acd =
    acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Video_compressed) b
  in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  Adaptive.run stack ~until:(Time.ms 500);
  check_bool "no FEC on terrestrial route" true
    ((Session.scs s).Scs.recovery = Params.No_recovery);
  (* An intermediate failure reroutes over the satellite (§4.1.2). *)
  ignore
    (Engine.schedule stack.Adaptive.engine ~at:(Time.sec 1.0) (fun () ->
         Topology.set_symmetric_route stack.Adaptive.topology ~a ~b
           (Profiles.satellite_path ())));
  let rec feed t =
    if t < 4.0 then
      ignore
        (Engine.schedule stack.Adaptive.engine ~at:(Time.sec t) (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:10_000 ();
             feed (t +. 0.2)))
  in
  feed 0.6;
  Adaptive.run stack ~until:(Time.sec 4.0);
  check_bool "switched to FEC on long-delay route" true
    (match (Session.scs s).Scs.recovery with
    | Params.Forward_error_correction _ -> true
    | _ -> false);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 10.0)

let test_rate_scaling_under_congestion () =
  let stack, a, b, backbone = congestion_scenario () in
  Congestion.phases stack.Adaptive.engine backbone [ (Time.sec 1.0, 0.9) ];
  let acd =
    acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Voice_conversation) b
  in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  let original_rate =
    match (Session.scs s).Scs.transmission with
    | Params.Rate_based { rate_bps; _ } -> rate_bps
    | _ -> Alcotest.fail "expected rate pacing"
  in
  let rec feed t =
    if t < 4.0 then
      ignore
        (Engine.schedule stack.Adaptive.engine ~at:(Time.sec t) (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:160 ();
             feed (t +. 0.02)))
  in
  feed 0.05;
  Adaptive.run stack ~until:(Time.sec 4.0);
  let rate_now =
    match (Session.scs s).Scs.transmission with
    | Params.Rate_based { rate_bps; _ } -> rate_bps
    | _ -> Alcotest.fail "still rate paced"
  in
  check_bool "inter-PDU gap widened" true (rate_now < original_rate);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 10.0)

let test_renegotiate_adjusts_tsc () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  (* Open as bulk transfer... *)
  let acd = acd_for Qos.default b in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  Adaptive.run stack ~until:(Time.ms 100);
  check_bool "starts reliable" true (Scs.reliable (Session.scs s));
  (* ...then the application becomes an isochronous media source. *)
  let media =
    acd_for (Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Video_compressed) b
  in
  (match Mantts.renegotiate ~acd:media stack.Adaptive.mantts s with
  | Ok changed -> check_bool "components changed" true (List.length changed >= 3)
  | Error e -> Alcotest.fail e);
  check_bool "now rate paced" true
    (match (Session.scs s).Scs.transmission with
    | Params.Rate_based _ -> true
    | _ -> false);
  check_bool "now playout buffered" true
    (match (Session.scs s).Scs.delivery with Params.Playout _ -> true | _ -> false);
  check_bool "connection choice untouched" true
    ((Session.scs s).Scs.connection = Params.Three_way);
  check_bool "logged" true
    (List.exists
       (fun (_, _, what) -> String.length what > 12 && String.sub what 0 12 = "renegotiated")
       (Mantts.adaptations stack.Adaptive.mantts));
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 5.0)

let test_renegotiate_requires_monitor () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let disp = Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a) in
  let s = Session.connect disp ~peers:[ b ] ~scs:Scs.default () in
  (match Mantts.renegotiate stack.Adaptive.mantts s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sessions without a monitor must be rejected");
  Session.close ~graceful:false s

let test_tmc_restricts_metrics () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let tmc =
    { Acd.collect = [ Unites.Setup_latency; Unites.Segments_delivered ];
      sample_every = Time.sec 1.0 }
  in
  let acd = Acd.make ~tmc ~participants:[ b ] ~qos:Qos.default () in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  Session.send s ~bytes:50_000 ();
  Adaptive.run stack ~until:(Time.sec 10.0);
  let u = stack.Adaptive.unites in
  let id = Session.id s in
  check_bool "requested whitebox metric collected" true
    (Unites.stats u ~session:id Unites.Segments_delivered <> None);
  check_bool "unrequested whitebox metric suppressed" true
    (Unites.stats u ~session:id Unites.Segments_sent = None);
  check_bool "blackbox always collected" true (Unites.stats u ~session:id Unites.Rtt <> None);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 20.0)

let test_short_sessions_not_monitored () =
  (* The same congestion scenario that triggers a recovery switch for a
     long session leaves a sub-2-second session alone (§4.1.1). *)
  let stack, a, b, backbone = congestion_scenario () in
  Congestion.constant backbone 0.9;
  let qos = { Qos.default with Qos.duration = Some (Time.ms 500) } in
  let acd = acd_for qos b in
  let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd () in
  let recovery0 = (Session.scs s).Scs.recovery in
  let rec feed t =
    if t < 3.0 then
      ignore
        (Engine.schedule stack.Adaptive.engine ~at:(Time.sec t) (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:20_000 ();
             feed (t +. 0.25)))
  in
  feed 0.1;
  Adaptive.run stack ~until:(Time.sec 3.0);
  check_bool "no adaptation for a short-lived session" true
    ((Session.scs s).Scs.recovery = recovery0
    && Mantts.adaptations stack.Adaptive.mantts = []);
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack ~until:(Time.sec 30.0)

let test_user_tsa_notify () =
  let stack, a, b = stack_with (Profiles.lan_path ()) in
  let notified = ref [] in
  let tsa =
    [
      {
        Acd.condition = Acd.Receivers_below 2;
        action = Acd.Notify_application "membership-low";
        once = true;
      };
    ]
  in
  let acd = acd_for ~tsa Qos.default b in
  let s =
    Mantts.open_session stack.Adaptive.mantts ~src:a ~acd
      ~on_notify:(fun _ msg -> notified := msg :: !notified)
      ()
  in
  Adaptive.run stack ~until:(Time.sec 2.0);
  Alcotest.(check (list string)) "one-shot rule fired once" [ "membership-low" ] !notified;
  Mantts.close_session stack.Adaptive.mantts s;
  Adaptive.run stack

let test_synchronized_streams () =
  (* Audio over the LAN, video over the satellite: synchronization lifts
     the audio playout point to the video's, so both streams deliver at
     matching latency (lip sync). *)
  let stack = Adaptive.create_stack ~seed:15 () in
  let src = Adaptive.add_host stack "studio" in
  let snd_sink = Adaptive.add_host stack "speaker" in
  let vid_sink = Adaptive.add_host stack "screen" in
  Adaptive.connect_hosts stack src snd_sink (Profiles.lan_path ());
  Adaptive.connect_hosts stack src vid_sink (Profiles.satellite_path ());
  let audio_lat = ref [] and video_lat = ref [] in
  let record cell _ (d : Session.delivery) =
    cell := Time.to_sec (Time.diff d.Session.delivered_at d.Session.app_stamp) :: !cell
  in
  Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts snd_sink) (record audio_lat);
  Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts vid_sink) (record video_lat);
  let audio =
    Mantts.open_session stack.Adaptive.mantts ~src
      ~acd:
        (Acd.make ~participants:[ snd_sink ]
           ~qos:(Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Voice_conversation)
           ())
      ()
  in
  let video =
    Mantts.open_session stack.Adaptive.mantts ~src
      ~acd:
        (Acd.make ~participants:[ vid_sink ]
           ~qos:(Adaptive_workloads.Workloads.qos Adaptive_workloads.Workloads.Video_compressed)
           ())
      ()
  in
  Mantts.synchronize stack.Adaptive.mantts [ audio; video ];
  (* Paced frames on both streams. *)
  let rec frames i =
    if i < 100 then
      ignore
        (Engine.schedule stack.Adaptive.engine
           ~at:(Time.add (Time.ms 200) (i * Time.ms 33))
           (fun () ->
             if Session.state audio = Session.Established then Session.send audio ~bytes:160 ();
             if Session.state video = Session.Established then Session.send video ~bytes:8_000 ();
             frames (i + 1)))
  in
  frames 0;
  Adaptive.run stack ~until:(Time.sec 8.0);
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let a = mean !audio_lat and v = mean !video_lat in
  check_bool "both streams delivered" true
    (List.length !audio_lat > 50 && List.length !video_lat > 50);
  (* Without sync the audio would arrive in ~35 ms; aligned it must sit
     within 20% of the video's playout latency. *)
  check_bool "audio delayed to match video" true (Float.abs (a -. v) < 0.2 *. v);
  check_bool "sync logged" true
    (List.exists
       (fun (_, _, what) ->
         String.length what >= 12 && String.sub what 0 12 = "synchronized")
       (Mantts.adaptations stack.Adaptive.mantts));
  Mantts.close_session stack.Adaptive.mantts audio;
  Mantts.close_session stack.Adaptive.mantts video;
  Adaptive.run stack ~until:(Time.sec 15.0)

let suite =
  [
    ( "mantts.stages",
      [
        Alcotest.test_case "explicit TSC override" `Quick test_classify_explicit_override;
        Alcotest.test_case "network sampling" `Quick test_sample_paths;
        Alcotest.test_case "voice on LAN" `Quick test_derive_voice_on_lan;
        Alcotest.test_case "bulk on LFN" `Quick test_derive_bulk_on_lfn;
        Alcotest.test_case "media on satellite uses FEC" `Quick
          test_derive_media_on_satellite_uses_fec;
        Alcotest.test_case "multicast teleconference" `Quick
          test_derive_multicast_teleconference;
        Alcotest.test_case "segment fits path MTU" `Quick test_derive_segment_fits_mtu;
        Alcotest.test_case "interactive OLTP" `Quick test_derive_interactive_oltp;
        Alcotest.test_case "memo sees an MTU shrink" `Quick test_memo_sees_mtu_shrink;
        Alcotest.test_case "stage I agrees with Table 1" `Quick
          test_stage1_agrees_with_table1;
      ] );
    ( "mantts.negotiation",
      [
        Alcotest.test_case "open session end to end" `Quick test_open_session_end_to_end;
        Alcotest.test_case "buffer clamped to pool" `Quick test_negotiation_clamps_to_pool;
        Alcotest.test_case "pool commitment and release" `Quick
          test_pool_commitment_and_release;
      ] );
    ( "mantts.adaptation",
      [
        Alcotest.test_case "congestion switches GBN->SR and back" `Quick
          test_congestion_switches_recovery;
        Alcotest.test_case "route change to satellite switches FEC" `Quick
          test_route_change_to_satellite_switches_fec;
        Alcotest.test_case "rate scaling under congestion" `Quick
          test_rate_scaling_under_congestion;
        Alcotest.test_case "user TSA notify (one-shot)" `Quick test_user_tsa_notify;
        Alcotest.test_case "renegotiate adjusts the TSC" `Quick
          test_renegotiate_adjusts_tsc;
        Alcotest.test_case "renegotiate requires a monitor" `Quick
          test_renegotiate_requires_monitor;
        Alcotest.test_case "TMC restricts collection" `Quick test_tmc_restricts_metrics;
        Alcotest.test_case "short sessions are not monitored" `Quick
          test_short_sessions_not_monitored;
        Alcotest.test_case "synchronized streams (lip sync)" `Quick
          test_synchronized_streams;
      ] );
  ]
