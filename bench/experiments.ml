(* Quantitative experiments for the paper's prose claims (§2.2, §3, §4):
   over/underweight configurations, adaptive recovery switching,
   ARQ-vs-FEC crossover, the throughput preservation problem, data-phase
   reconfiguration, and long-fat-network window scaling. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_baselines
open Adaptive_workloads

(* ------------------------------------------------------------ e1_weight *)

(* §2.2(B): an overweight configuration (TP4-style full reliability for
   loss-tolerant voice) versus the ADAPTIVE-synthesized lightweight one;
   and an underweight configuration (TCP has no multicast, so group
   delivery costs N unicast connections). *)
let e1_weight () =
  Util.heading "E1 — over/underweight configurations (§2.2 B)";
  (* Part A: interactive voice under WAN congestion. *)
  let run_voice which =
    let p = Util.make_pair (Profiles.internet_path ()) in
    Congestion.constant (List.nth p.Util.hops 1) 0.90;
    let latencies = ref [] and delivered = ref 0 in
    Mantts.set_app_handler
      (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.dst)
      (fun _ d ->
        incr delivered;
        latencies := Time.diff d.Session.delivered_at d.Session.app_stamp :: !latencies);
    let session =
      match which with
      | `Tp4 ->
        Baselines.connect
          (Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src))
          ~peers:[ p.Util.dst ] Baselines.Tp4_like
      | `Adaptive ->
        let acd =
          Acd.make ~participants:[ p.Util.dst ]
            ~qos:(Workloads.qos Workloads.Voice_conversation) ()
        in
        Mantts.open_session p.Util.stack.Adaptive.mantts ~src:p.Util.src ~acd ()
    in
    let driver =
      Workloads.drive p.Util.stack.Adaptive.engine p.Util.stack.Adaptive.rng ~session
        Workloads.Voice_conversation ~stop_at:(Time.sec 10.0)
    in
    Adaptive.run p.Util.stack ~until:(Time.sec 13.0);
    let sorted = List.sort compare !latencies in
    let n = List.length sorted in
    let pct q = if n = 0 then Time.zero else List.nth sorted (min (n - 1) (n * q / 100)) in
    let deadline = Time.ms 200 in
    let misses = List.length (List.filter (fun l -> l > deadline) !latencies) in
    let sent = Workloads.messages_sent driver in
    ( sent,
      !delivered,
      pct 50,
      pct 95,
      100.0 *. float_of_int misses /. float_of_int (max 1 !delivered) )
  in
  let s_tp4, d_tp4, p50_tp4, p95_tp4, miss_tp4 = run_voice `Tp4 in
  let s_ad, d_ad, p50_ad, p95_ad, miss_ad = run_voice `Adaptive in
  Util.row "voice over congested WAN (200 ms deadline):@.";
  Util.row "  %-22s %6s %6s %12s %12s %10s@." "configuration" "sent" "dlvrd" "p50" "p95"
    "miss%";
  Util.row "  %-22s %6d %6d %12s %12s %9.1f%%@." "tp4 (overweight)" s_tp4 d_tp4
    (Time.to_string p50_tp4) (Time.to_string p95_tp4) miss_tp4;
  Util.row "  %-22s %6d %6d %12s %12s %9.1f%%@." "adaptive lightweight" s_ad d_ad
    (Time.to_string p50_ad) (Time.to_string p95_ad) miss_ad;
  Util.shape_check "lightweight config misses fewer deadlines than TP4"
    (miss_ad < miss_tp4);
  Util.shape_check "lightweight tail latency below TP4's" (p95_ad < p95_tp4);
  (* Part B: reliable delivery to a group of N. *)
  Util.row "@.group delivery of 1 MB to N receivers (shared access link):@.";
  Util.row "  %-3s %22s %22s %8s@." "N" "adaptive mcast (bytes)" "tcp n-unicast (bytes)"
    "ratio";
  let ratios =
    List.map
      (fun n ->
        (* ADAPTIVE reliable multicast. *)
        let stack, src, dsts, access = Util.make_star ~receivers:n () in
        let qos =
          { (Workloads.qos Workloads.Teleconferencing) with Qos.loss_tolerance = 0.0 }
        in
        let acd = Acd.make ~participants:dsts ~qos () in
        let s = Mantts.open_session stack.Adaptive.mantts ~src ~acd () in
        Adaptive.run stack ~until:(Time.ms 100);
        Session.send s ~bytes:1_000_000 ();
        Adaptive.run stack ~until:(Time.sec 30.0);
        let mcast_bytes = (Link.stats access).Link.bytes_carried in
        Mantts.close_session stack.Adaptive.mantts s;
        (* TCP-like N-unicast. *)
        let stack2, src2, dsts2, access2 = Util.make_star ~receivers:n () in
        let sessions =
          List.map
            (fun dst ->
              Baselines.connect
                (Mantts.dispatcher (Mantts.entity stack2.Adaptive.mantts src2))
                ~peers:[ dst ] Baselines.Tcp_like)
            dsts2
        in
        Adaptive.run stack2 ~until:(Time.ms 100);
        List.iter (fun s -> Session.send s ~bytes:1_000_000 ()) sessions;
        Adaptive.run stack2 ~until:(Time.sec 60.0);
        let unicast_bytes = (Link.stats access2).Link.bytes_carried in
        let ratio = float_of_int unicast_bytes /. float_of_int (max 1 mcast_bytes) in
        Util.row "  %-3d %22d %22d %8.2f@." n mcast_bytes unicast_bytes ratio;
        (n, ratio))
      [ 2; 4; 8 ]
  in
  Util.shape_check "n-unicast cost on the shared hop grows ~linearly with N"
    (List.for_all (fun (n, r) -> r > 0.7 *. float_of_int n) ratios)

(* ---------------------------------------------------------- e2_recovery *)

(* §3(C) example 1: go-back-n vs selective repeat across congestion
   levels, and the adaptive policy that switches between them. *)
let e2_recovery () =
  Util.heading "E2 — recovery scheme vs congestion (§3 C, example 1)";
  let transfer = 2_000_000 in
  let run_static recovery reporting congestion_level =
    let p = Util.make_pair (Profiles.campus_path ()) in
    Congestion.constant (List.nth p.Util.hops 1) congestion_level;
    let scs =
      {
        Scs.default with
        Scs.connection = Params.Two_way;
        transmission = Params.Sliding_window { window = 32 };
        recovery;
        reporting;
        recv_buffer_segments = 64;
        segment_bytes = 1400;
        initial_rto = Time.ms 60;
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    Session.send s ~bytes:transfer ();
    Adaptive.run p.Util.stack ~until:(Time.sec 120.0);
    Session.close ~graceful:false s;
    ( Util.mbps (Util.goodput_bps p.Util.stack),
      Util.total p.Util.stack Unites.Retransmissions,
      Util.total p.Util.stack Unites.Timeouts,
      (Network.stats p.Util.stack.Adaptive.net).Network.dropped_queue )
  in
  Util.row "%-12s %24s %24s %16s@." "congestion" "gbn Mb/s (rtx/to/drop)"
    "srepeat Mb/s (rtx/to/drop)" "winner";
  Util.rule 84;
  let sr_wins_high = ref false and comparable_low = ref false in
  List.iter
    (fun level ->
      let g_gbn, rtx_gbn, to_gbn, dr_gbn =
        run_static Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 2 }) level
      in
      let g_sr, rtx_sr, to_sr, dr_sr =
        run_static Params.Selective_repeat
          (Params.Selective_ack { delay = Time.ms 2 })
          level
      in
      if level >= 0.85 && g_sr > g_gbn then sr_wins_high := true;
      if level <= 0.3 && Float.abs (g_gbn -. g_sr) < 0.4 *. Float.max g_gbn g_sr then
        comparable_low := true;
      Util.row "%-12.2f %8.2f (%4.0f/%3.0f/%4d) %8.2f (%4.0f/%3.0f/%4d) %16s@." level
        g_gbn rtx_gbn to_gbn dr_gbn g_sr rtx_sr to_sr dr_sr
        (if g_sr > g_gbn *. 1.05 then "selective repeat"
         else if g_gbn > g_sr *. 1.05 then "go-back-n"
         else "comparable"))
    [ 0.0; 0.3; 0.6; 0.8; 0.9 ];
  Util.rule 76;
  Util.shape_check "schemes comparable at low congestion" !comparable_low;
  Util.shape_check "selective repeat wins under heavy congestion" !sr_wins_high

(* --------------------------------------------------------------- e3_fec *)

(* §3(C) example 2: retransmission-based vs FEC-based recovery as the
   round-trip delay grows (terrestrial -> satellite). *)
let e3_fec () =
  Util.heading "E3 — ARQ vs FEC vs delay (§3 C, example 2)";
  (* A 1.6 Mb/s CBR stream: one 1000-byte segment every 5 ms, each
     stamped at generation so delivery latency is per segment. *)
  let frames = 1200 in
  (* ~1% packet loss from bit errors on a 1000-byte segment. *)
  let ber = 1.25e-6 in
  let run recovery one_way =
    let hops =
      [
        Link.create ~bandwidth_bps:10e6 ~propagation:one_way ~queue_pkts:128 ~ber
          ~mtu:1500 ();
      ]
    in
    let p = Util.make_pair hops in
    let reporting =
      match recovery with
      | Params.Selective_repeat -> Params.Selective_ack { delay = Time.ms 2 }
      | _ -> Params.No_report
    in
    let scs =
      {
        Scs.default with
        Scs.connection = Params.Two_way;
        transmission =
          (match recovery with
          | Params.Selective_repeat -> Params.Sliding_window { window = 64 }
          | _ -> Params.Rate_based { rate_bps = 4e6; burst = 8 });
        recovery;
        reporting;
        (* Media frames are independent: deliver as they arrive, as the
           Stage II rules themselves choose for these classes. *)
        ordering = Params.Unordered;
        recv_buffer_segments = 128;
        segment_bytes = 1000;
        initial_rto = Time.max (Time.ms 40) (3 * one_way);
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    let engine = p.Util.stack.Adaptive.engine in
    for i = 0 to frames - 1 do
      ignore
        (Engine.schedule engine
           ~at:(Time.add (Time.ms 20) (i * Time.ms 5))
           (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:1000 ()))
    done;
    Adaptive.run p.Util.stack ~until:(Time.sec 60.0);
    Session.close ~graceful:false s;
    let delivered = Util.delivered_bytes p.Util.stack /. float_of_int (frames * 1000) in
    let lat = Util.latency_summary p.Util.stack in
    let p99 = match lat with Some l -> l.Stats.p99 | None -> nan in
    (100.0 *. delivered, p99)
  in
  Util.row "%-12s %24s %24s %20s@." "one-way" "srepeat dlvd% / p99" "fec:8 dlvd% / p99"
    "latency winner";
  Util.rule 88;
  let fec_flat = ref true and arq_grows = ref (0.0, 0.0) in
  List.iter
    (fun ms ->
      let d_arq, l_arq = run Params.Selective_repeat (Time.ms ms) in
      let d_fec, l_fec = run (Params.Forward_error_correction { group = 8 }) (Time.ms ms) in
      if ms = 1 then arq_grows := (l_arq, snd !arq_grows);
      if ms = 300 then arq_grows := (fst !arq_grows, l_arq);
      if ms = 300 && l_fec > 1.0 then fec_flat := false;
      Util.row "%-12s %14.1f%% %7.0fms %14.1f%% %7.0fms %20s@."
        (Time.to_string (Time.ms ms))
        d_arq (l_arq *. 1e3) d_fec (l_fec *. 1e3)
        (if l_fec < l_arq then "fec" else "arq"))
    [ 1; 10; 50; 150; 300 ];
  Util.rule 88;
  let l1, l300 = !arq_grows in
  Util.shape_check "ARQ tail latency grows with the round trip" (l300 > 4.0 *. l1);
  Util.shape_check "FEC tail latency stays near the path delay" !fec_flat

(* ----------------------------------------------------------- e4_preserve *)

(* §2.2(A): the throughput preservation problem — delivered bandwidth as
   channel speed grows, under host-overhead regimes. *)
let e4_preserve () =
  Util.heading "E4 — throughput preservation (§2.2 A)";
  let transfer = 4_000_000 in
  let run ~bw ~host =
    let hops =
      [ Link.create ~bandwidth_bps:bw ~propagation:(Time.us 50) ~queue_pkts:1024 ~mtu:9180 () ]
    in
    let p = Util.make_pair ~host_cpu:host hops in
    let acd = Acd.make ~participants:[ p.Util.dst ] ~qos:Qos.default () in
    let s = Mantts.open_session p.Util.stack.Adaptive.mantts ~src:p.Util.src ~acd () in
    Session.send s ~bytes:transfer ();
    Adaptive.run p.Util.stack ~until:(Time.sec 60.0);
    Mantts.close_session p.Util.stack.Adaptive.mantts s;
    Util.goodput_bps p.Util.stack
  in
  let ideal e = Host.zero_cost e in
  let host_1992 e = Host.create ~per_packet:(Time.us 100) ~per_byte_copy:(Time.ns 25) ~copies:2 e in
  let host_4copy e = Host.create ~per_packet:(Time.us 100) ~per_byte_copy:(Time.ns 25) ~copies:4 e in
  Util.row "%-12s %16s %22s %22s@." "channel" "ideal host" "1992 host (2 copies)"
    "1992 host (4 copies)";
  Util.rule 78;
  let results =
    List.map
      (fun bw ->
        let g0 = run ~bw ~host:ideal in
        let g2 = run ~bw ~host:host_1992 in
        let g4 = run ~bw ~host:host_4copy in
        Util.row "%8.0f Mb/s %8.1f (%3.0f%%) %13.1f (%3.0f%%) %13.1f (%3.0f%%)@."
          (Util.mbps bw) (Util.mbps g0)
          (100.0 *. g0 /. bw)
          (Util.mbps g2)
          (100.0 *. g2 /. bw)
          (Util.mbps g4)
          (100.0 *. g4 /. bw);
        (bw, g0, g2, g4))
      [ 10e6; 45e6; 100e6; 155e6; 622e6 ]
  in
  Util.rule 78;
  let _, g0_slow, g2_slow, _ = List.hd results in
  let bw_fast, g0_fast, g2_fast, g4_fast = List.nth results 4 in
  Util.shape_check "ideal host scales >=20x across the channel sweep"
    (g0_fast > 20.0 *. g0_slow);
  Util.shape_check "1992 host delivers a small fraction of the fast channel"
    (g2_fast < 0.25 *. bw_fast);
  Util.shape_check "host cap is roughly flat across fast channels"
    (g2_fast < 3.0 *. g2_slow *. (622.0 /. 10.0) /. 10.0 || g2_fast < 100e6);
  Util.shape_check "extra copies push delivered throughput down further"
    (g4_fast < g2_fast)

(* ---------------------------------------------------------- e5_reconfig *)

(* §4.1.2: data-transfer-phase reconfiguration timeline.  A video session
   rides out a congestion burst and a terrestrial-to-satellite route
   change.  The adaptive session gets the full §4.1.2 repertoire: SCS
   adjustments (rate scaling, playout re-derivation, ARQ->FEC) and the
   application callback ("begin transmitting with an application-specific
   coding scheme") through which the source drops to a lower-rate coding
   layer while the network is congested.  The static control changes
   nothing. *)
let e5_reconfig () =
  Util.heading "E5 — data-phase reconfiguration timeline (§4.1.2)";
  let run adaptive =
    let stack = Adaptive.create_stack ~seed:777 () in
    let a = Adaptive.add_host stack "a" in
    let b = Adaptive.add_host stack "b" in
    let hops = Profiles.campus_path () in
    Adaptive.connect_hosts stack a b hops;
    (* Segments delivered in each simulated second, counted as host b's
       application receives them. *)
    let per_second = Array.make 16 0.0 in
    Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) (fun _ _ ->
        let s = Adaptive.now stack / Time.sec 1.0 in
        if s < 16 then per_second.(s) <- per_second.(s) +. 1.0);
    (* Congestion burst from 3 s to 6 s; route moves to satellite at 9 s. *)
    Congestion.phases stack.Adaptive.engine (List.nth hops 1)
      [ (Time.sec 3.0, 0.92); (Time.sec 6.0, 0.05) ];
    ignore
      (Engine.schedule stack.Adaptive.engine ~at:(Time.sec 9.0) (fun () ->
           Topology.set_symmetric_route stack.Adaptive.topology ~a ~b
             (Profiles.satellite_path ())));
    let qos = Workloads.qos Workloads.Video_compressed in
    (* The application's coding layer: frame size scales with quality. *)
    let quality = ref 1.0 in
    let session =
      if adaptive then begin
        let tsa =
          [
            {
              Acd.condition = Acd.Congestion_above 0.75;
              action = Acd.Notify_application "degrade-coding";
              once = false;
            };
            {
              Acd.condition = Acd.Congestion_below 0.30;
              action = Acd.Notify_application "restore-coding";
              once = false;
            };
          ]
        in
        let acd = Acd.make ~tsa ~participants:[ b ] ~qos () in
        Mantts.open_session stack.Adaptive.mantts ~src:a ~acd ~name:"adaptive"
          ~on_notify:(fun _ msg ->
            if msg = "degrade-coding" then quality := 0.3
            else if msg = "restore-coding" then quality := 1.0)
          ()
      end
      else begin
        (* The same initial configuration, statically bound: no monitor,
           no segue, no callback. *)
        let acd = Acd.make ~participants:[ b ] ~qos () in
        let tsc = Mantts.classify acd in
        let scs = Mantts.derive_scs stack.Adaptive.mantts ~src:a acd tsc in
        Session.connect ~binding:(Tko.Static_template "frozen")
          (Mantts.dispatcher (Mantts.entity stack.Adaptive.mantts a))
          ~peers:[ b ] ~scs ()
      end
    in
    (* 30 frames/s VBR source honouring the current coding quality. *)
    let rng = Rng.split stack.Adaptive.rng in
    let rec frame () =
      if Adaptive.now stack < Time.sec 14.0 then begin
        if Session.state session = Session.Established then begin
          let mean = 6e6 /. 8.0 /. 30.0 *. !quality in
          let bytes =
            max 256 (min 100_000 (int_of_float (Rng.pareto rng ~shape:2.5 ~scale:(mean *. 0.6))))
          in
          Session.send session ~bytes ()
        end;
        ignore (Engine.schedule_after stack.Adaptive.engine ~delay:(Time.ms 33) frame)
      end
    in
    frame ();
    Adaptive.run stack ~until:(Time.sec 16.0);
    let sent = Util.total stack Unites.Segments_sent in
    let delivered = Util.total stack Unites.Segments_delivered in
    let late = Util.total stack Unites.Late_discards in
    let lost = Util.total stack Unites.Losses_unrecovered in
    (stack, per_second, sent, delivered, late, lost)
  in
  let ad_stack, ad_series, ad_sent, ad_dlvd, ad_late, ad_lost = run true in
  let _, st_series, st_sent, st_dlvd, st_late, st_lost = run false in
  Util.row "timeline: congestion 0.92 at 3 s, clear at 6 s, satellite route at 9 s@.@.";
  Util.row "delivered segments per second:@.";
  Util.row "  %-5s %10s %10s@." "t" "adaptive" "static";
  for t = 0 to 15 do
    Util.row "  %-5d %10.0f %10.0f@." t ad_series.(t) st_series.(t)
  done;
  Util.row "@.";
  Util.row "adaptations applied:@.";
  List.iter
    (fun (at, _, what) -> Util.row "  [%8s] %s@." (Time.to_string at) what)
    (Mantts.adaptations ad_stack.Adaptive.mantts);
  Util.row "@.%-10s %10s %12s %12s %10s %12s@." "session" "segments" "delivered"
    "late-drop" "lost" "delivered%";
  Util.row "%-10s %10.0f %12.0f %12.0f %10.0f %11.1f%%@." "adaptive" ad_sent ad_dlvd
    ad_late ad_lost
    (100.0 *. ad_dlvd /. Float.max 1.0 ad_sent);
  Util.row "%-10s %10.0f %12.0f %12.0f %10.0f %11.1f%%@." "static" st_sent st_dlvd
    st_late st_lost
    (100.0 *. st_dlvd /. Float.max 1.0 st_sent);
  Util.shape_check "policies fired during the session"
    (List.length (Mantts.adaptations ad_stack.Adaptive.mantts) >= 3);
  Util.shape_check "adaptive session delivers more of its stream"
    (ad_dlvd /. Float.max 1.0 ad_sent > st_dlvd /. Float.max 1.0 st_sent)

(* ------------------------------------------------------------ e6_window *)

(* §2.2(C): long-delay support — fixed 64 KiB window vs negotiated scaled
   window as the bandwidth-delay product grows. *)
let e6_window () =
  Util.heading "E6 — window scaling on long fat networks (§2.2 C)";
  let transfer = 20_000_000 in
  let run which span_ms =
    let mk () =
      Link.create ~bandwidth_bps:155e6 ~propagation:(Time.ms span_ms) ~queue_pkts:512
        ~ber:1e-9 ~mtu:9180 ()
    in
    let p = Util.make_pair [ mk (); mk (); mk () ] in
    let session =
      match which with
      | `Tcp ->
        Baselines.connect
          (Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src))
          ~peers:[ p.Util.dst ] Baselines.Tcp_like
      | `Adaptive ->
        let acd = Acd.make ~participants:[ p.Util.dst ] ~qos:Qos.default () in
        Mantts.open_session p.Util.stack.Adaptive.mantts ~src:p.Util.src ~acd ()
    in
    Session.send session ~bytes:transfer ();
    Adaptive.run p.Util.stack ~until:(Time.sec 180.0);
    Session.close ~graceful:false session;
    Util.mbps (Util.goodput_bps p.Util.stack)
  in
  Util.row "%-12s %10s %16s %16s %8s@." "RTT" "BDP (KiB)" "tcp 64KiB Mb/s"
    "adaptive Mb/s" "gain";
  Util.rule 70;
  let gains =
    List.map
      (fun span_ms ->
        let rtt_s = 6.0 *. float_of_int span_ms /. 1e3 in
        let bdp_kib = 155e6 *. rtt_s /. 8.0 /. 1024.0 in
        let g_tcp = run `Tcp span_ms in
        let g_ad = run `Adaptive span_ms in
        Util.row "%-12s %10.0f %16.2f %16.2f %7.1fx@."
          (Time.to_string (Time.ms (6 * span_ms)))
          bdp_kib g_tcp g_ad (g_ad /. Float.max 0.01 g_tcp);
        (span_ms, g_tcp, g_ad))
      [ 1; 5; 10; 20; 40 ]
  in
  Util.rule 70;
  let _, g_tcp_40, g_ad_40 = List.nth gains 4 in
  let _, g_tcp_1, _ = List.hd gains in
  Util.shape_check "tcp collapses as the BDP grows" (g_tcp_40 < 0.4 *. g_tcp_1);
  Util.shape_check "scaled windows keep the pipe full at high BDP"
    (g_ad_40 > 4.0 *. g_tcp_40)

(* --------------------------------------------------------- e7_replicate *)

(* §2.2(D): the "controlled, empirical experimentation" methodology —
   replicate a comparison across seeds and only claim a difference when
   the confidence intervals separate.  The question: does selective
   repeat really beat go-back-n at heavy congestion, and is the low-load
   difference a real effect or noise? *)
let e7_replicate () =
  Util.heading "E7 — replication methodology (§2.2 D): GBN vs SR across seeds";
  let goodput ~recovery ~reporting ~level ~seed =
    let p = Util.make_pair ~seed (Profiles.campus_path ()) in
    Congestion.constant (List.nth p.Util.hops 1) level;
    let scs =
      {
        Scs.default with
        Scs.connection = Params.Two_way;
        transmission = Params.Sliding_window { window = 32 };
        recovery;
        reporting;
        recv_buffer_segments = 64;
        segment_bytes = 1400;
        initial_rto = Time.ms 60;
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    Session.send s ~bytes:2_000_000 ();
    Adaptive.run p.Util.stack ~until:(Time.sec 120.0);
    Session.close ~graceful:false s;
    Util.mbps (Util.goodput_bps p.Util.stack)
  in
  let rep recovery reporting level =
    (* --jobs shards the per-seed replicas across domains; --seeds
       overrides the replication seed list.  The reduction is ordered,
       so jobs > 1 changes nothing but wall-clock. *)
    Lab.replicate ~jobs:!Util.jobs ~seeds:(Util.replication_seeds ())
      (fun ~seed -> goodput ~recovery ~reporting ~level ~seed)
  in
  let rows =
    List.map
      (fun level ->
        ( Printf.sprintf "load %.2f" level,
          rep Params.Go_back_n (Params.Cumulative_ack { delay = Time.ms 2 }) level,
          rep Params.Selective_repeat (Params.Selective_ack { delay = Time.ms 2 }) level ))
      [ 0.2; 0.9 ]
  in
  Lab.compare_table ~label_a:"gbn" ~label_b:"srepeat" ~rows Format.std_formatter ();
  let low = List.nth rows 0 and high = List.nth rows 1 in
  let _, _, sr_high = high and _, gbn_high, _ = (fun (a, b, c) -> (a, b, c)) high in
  let _, gbn_low, sr_low = low in
  Util.shape_check "SR's win at heavy load survives replication"
    (Lab.distinguishable gbn_high sr_high && sr_high.Lab.mean > gbn_high.Lab.mean);
  Util.shape_check "at light load the schemes are within each other's CI or close"
    ((not (Lab.distinguishable gbn_low sr_low))
    || Float.abs (gbn_low.Lab.mean -. sr_low.Lab.mean) < 0.15 *. sr_low.Lab.mean)
