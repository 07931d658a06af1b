(* Ablations over individual mechanism choices — the controlled
   "replace one mechanism, measure the consequence" experiments §2.2(D)
   says most transport systems cannot run.  Each sweep holds everything
   fixed except one repository alternative. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

(* ------------------------------------------------------- a1: detection *)

(* Error-detection strength: none lets damaged bytes through, the Internet
   checksum converts corruption to recoverable loss cheaply, CRC-32 does
   the same at a higher per-byte CPU price. *)
let a1_detection () =
  Util.heading "A1 — error-detection ablation (none / checksum / CRC-32)";
  let run detection =
    let hops =
      [
        Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:64
          ~ber:4e-6 ~mtu:1500 ();
      ]
    in
    let p =
      Util.make_pair
        ~host_cpu:(fun e ->
          Host.create ~per_packet:(Time.us 50) ~per_byte_copy:(Time.ns 25) e)
        hops
    in
    let scs =
      {
        Scs.default with
        Scs.transmission = Params.Sliding_window { window = 16 };
        detection;
        recovery = Params.Selective_repeat;
        reporting = Params.Selective_ack { delay = Time.ms 1 };
        segment_bytes = 1400;
        recv_buffer_segments = 32;
        initial_rto = Time.ms 50;
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    Session.send s ~bytes:2_000_000 ();
    Adaptive.run p.Util.stack ~until:(Time.sec 60.0);
    Session.close ~graceful:false s;
    ( Util.mbps (Util.goodput_bps p.Util.stack),
      Util.total p.Util.stack Unites.Corrupt_delivered,
      Util.total p.Util.stack Unites.Corrupt_detected,
      Util.total p.Util.stack Unites.Host_cpu )
  in
  Util.row "%-10s %12s %16s %16s %12s@." "detection" "Mb/s" "damage delivered"
    "corrupt caught" "cpu (s)";
  Util.rule 72;
  let g_none, dmg_none, _, cpu_none = run Params.No_detection in
  Util.row "%-10s %12.2f %16.0f %16s %12.3f@." "none" g_none dmg_none "-" cpu_none;
  let g_ck, dmg_ck, caught_ck, cpu_ck = run Params.Internet_checksum in
  Util.row "%-10s %12.2f %16.0f %16.0f %12.3f@." "cksum" g_ck dmg_ck caught_ck cpu_ck;
  let g_crc, dmg_crc, caught_crc, cpu_crc = run Params.Crc32 in
  Util.row "%-10s %12.2f %16.0f %16.0f %12.3f@." "crc32" g_crc dmg_crc caught_crc cpu_crc;
  Util.rule 72;
  Util.shape_check "without detection, damage reaches the application" (dmg_none > 0.0);
  Util.shape_check "any checksum keeps the application data clean"
    (dmg_ck = 0.0 && dmg_crc = 0.0);
  Util.shape_check "CRC costs more CPU than the Internet checksum" (cpu_crc > cpu_ck);
  Util.shape_check "detection costs little goodput here" (g_ck > 0.85 *. g_none)

(* ------------------------------------------------------ a2: FEC group *)

(* Parity group size: small groups spend more bandwidth on parity but
   survive higher loss; large groups are cheap but fragile. *)
let a2_fec_group () =
  Util.heading "A2 — FEC group-size ablation at 2% segment loss";
  let run group =
    let hops =
      [
        Link.create ~bandwidth_bps:10e6 ~propagation:(Time.ms 120) ~queue_pkts:128
          ~ber:2.5e-6 ~mtu:1500 ();
      ]
    in
    let p = Util.make_pair hops in
    let scs =
      {
        Scs.default with
        Scs.connection = Params.Two_way;
        transmission = Params.Rate_based { rate_bps = 4e6; burst = 8 };
        reporting = Params.No_report;
        recovery = Params.Forward_error_correction { group };
        ordering = Params.Unordered;
        segment_bytes = 1000;
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    let engine = p.Util.stack.Adaptive.engine in
    for i = 0 to 1999 do
      ignore
        (Engine.schedule engine
           ~at:(Time.add (Time.ms 20) (i * Time.ms 2))
           (fun () ->
             if Session.state s = Session.Established then Session.send s ~bytes:1000 ()))
    done;
    Adaptive.run p.Util.stack ~until:(Time.sec 30.0);
    Session.close ~graceful:false s;
    let sent = Util.total p.Util.stack Unites.Segments_sent in
    let parity = Util.total p.Util.stack Unites.Fec_parity_sent in
    let delivered = Util.total p.Util.stack Unites.Segments_delivered in
    let recovered = Util.total p.Util.stack Unites.Fec_recovered in
    (100.0 *. delivered /. sent, recovered, 100.0 *. parity /. sent)
  in
  Util.row "%-8s %12s %12s %14s@." "group" "delivered%" "recovered" "overhead%";
  Util.rule 52;
  let results =
    List.map
      (fun group ->
        let d, r, o = run group in
        Util.row "%-8d %11.2f%% %12.0f %13.1f%%@." group d r o;
        (group, d, o))
      [ 2; 4; 8; 16; 32 ]
  in
  Util.rule 52;
  let _, d2, o2 = List.hd results in
  let _, d32, o32 = List.nth results 4 in
  Util.shape_check "small groups recover more of the stream" (d2 > d32);
  Util.shape_check "small groups pay proportionally more parity overhead" (o2 > 3.0 *. o32)

(* ----------------------------------------------------- a3: ack delay *)

(* Delayed acknowledgments trade ack-processing load for sender stalls on
   small windows. *)
let a3_ack_delay () =
  Util.heading "A3 — delayed-acknowledgment ablation (go-back-n, window 8)";
  let run delay =
    let p = Util.make_pair (Profiles.lan_path ()) in
    let scs =
      {
        Scs.default with
        Scs.transmission = Params.Sliding_window { window = 8 };
        reporting = Params.Cumulative_ack { delay };
        recovery = Params.Go_back_n;
        segment_bytes = 1400;
        recv_buffer_segments = 16;
      }
    in
    let disp = Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src) in
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    Session.send s ~bytes:2_000_000 ();
    Adaptive.run p.Util.stack ~until:(Time.sec 60.0);
    Session.close ~graceful:false s;
    (Util.mbps (Util.goodput_bps p.Util.stack), Util.total p.Util.stack Unites.Acks_sent)
  in
  Util.row "%-12s %12s %12s@." "ack delay" "Mb/s" "acks sent";
  Util.rule 40;
  let results =
    List.map
      (fun ms ->
        let g, acks = run (Time.ms ms) in
        Util.row "%-12s %12.2f %12.0f@." (Time.to_string (Time.ms ms)) g acks;
        (ms, g, acks))
      [ 0; 2; 10; 50 ]
  in
  Util.rule 40;
  let _, g0, acks0 = List.hd results in
  let _, g50, acks50 = List.nth results 3 in
  Util.shape_check "long delays starve the small window" (g50 < 0.7 *. g0);
  Util.shape_check "delaying acks sends fewer of them" (acks50 < acks0)

(* ------------------------------------------------------ a4: layering *)

(* §2.1(A) blames part of the throughput-preservation problem on "poorly
   layered architectures" (citing "Is Layering Harmful?").  Derive two
   host cost models from protocol graphs — the conventional copy-per-layer
   stack and ADAPTIVE's flat zero-copy session composition — and measure
   what each delivers from the same channels. *)
let a4_layering () =
  Util.heading "A4 — layering ablation (conventional 4-layer vs flat session)";
  let stack_of graph_fn =
    Option.get (Protograph.path (graph_fn ()) ~from_:"application" ~to_:"driver")
  in
  let conventional = stack_of Protograph.conventional_stack in
  let flat = stack_of Protograph.adaptive_stack in
  let describe name stack =
    let o = Protograph.stack_overhead stack in
    Util.row "%-14s %d layers, %d copies/PDU, %s processing, %d header bytes@." name
      (List.length stack) o.Protograph.copy_total
      (Time.to_string o.Protograph.processing)
      (o.Protograph.header_total + o.Protograph.trailer_total)
  in
  describe "conventional" conventional;
  describe "flat session" flat;
  let run stack bw =
    let p =
      Util.make_pair
        ~host_cpu:(fun e -> Protograph.host_model e stack)
        [ Link.create ~bandwidth_bps:bw ~propagation:(Time.us 50) ~queue_pkts:512 ~mtu:9180 () ]
    in
    let acd = Acd.make ~participants:[ p.Util.dst ] ~qos:Qos.default () in
    let s = Mantts.open_session p.Util.stack.Adaptive.mantts ~src:p.Util.src ~acd () in
    Session.send s ~bytes:4_000_000 ();
    Adaptive.run p.Util.stack ~until:(Time.sec 60.0);
    Mantts.close_session p.Util.stack.Adaptive.mantts s;
    Util.mbps (Util.goodput_bps p.Util.stack)
  in
  Util.row "@.%-12s %16s %16s %8s@." "channel" "conventional" "flat session" "gain";
  Util.rule 58;
  let gains =
    List.map
      (fun bw ->
        let g_conv = run conventional bw in
        let g_flat = run flat bw in
        Util.row "%8.0f Mb/s %13.1f %16.1f %7.2fx@." (Util.mbps bw) g_conv g_flat
          (g_flat /. Float.max 0.01 g_conv);
        (bw, g_conv, g_flat))
      [ 10e6; 100e6; 622e6 ]
  in
  Util.rule 58;
  let _, g_conv_fast, g_flat_fast = List.nth gains 2 in
  let _, g_conv_slow, g_flat_slow = List.hd gains in
  Util.shape_check "equivalent on the slow channel"
    (Float.abs (g_conv_slow -. g_flat_slow) < 0.2 *. g_flat_slow);
  Util.shape_check "flat composition wins clearly on the fast channel"
    (g_flat_fast > 1.5 *. g_conv_fast)
