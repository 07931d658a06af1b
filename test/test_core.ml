(* Tests for the ADAPTIVE core types: Qos, Tsc, Scs, Acd, Unites, Tko. *)

open Adaptive_sim
open Adaptive_mech
open Adaptive_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ Qos *)

let test_qos_levels_thresholds () =
  let q bps = { Qos.default with Qos.avg_bps = bps; peak_bps = bps } in
  let tl bps = (Qos.levels (q bps)).Qos.throughput in
  check_str "very-low" "very-low" (Qos.level_to_string (tl 1e3));
  check_str "low" "low" (Qos.level_to_string (tl 64e3));
  check_str "mod" "mod" (Qos.level_to_string (tl 2e6));
  check_str "high" "high" (Qos.level_to_string (tl 10e6));
  check_str "very-high" "very-high" (Qos.level_to_string (tl 120e6))

let test_qos_burst_ratio () =
  let q = { Qos.default with Qos.avg_bps = 1e6; peak_bps = 8e6 } in
  check_bool "high burst" true ((Qos.levels q).Qos.burst_factor = Qos.High);
  let steady = { Qos.default with Qos.avg_bps = 1e6; peak_bps = 1e6 } in
  check_bool "low burst" true ((Qos.levels steady).Qos.burst_factor = Qos.Low)

let test_qos_delay_jitter_levels () =
  let with_lat l = { Qos.default with Qos.max_latency = l } in
  check_bool "no bound -> low" true
    ((Qos.levels (with_lat None)).Qos.delay_sensitivity = Qos.Low);
  check_bool "tight -> high" true
    ((Qos.levels (with_lat (Some (Time.ms 100)))).Qos.delay_sensitivity = Qos.High);
  let with_jit j = { Qos.default with Qos.max_jitter = j } in
  check_bool "no jitter bound" true
    ((Qos.levels (with_jit None)).Qos.jitter_sensitivity = Qos.Not_defined);
  check_bool "tight jitter" true
    ((Qos.levels (with_jit (Some (Time.ms 10)))).Qos.jitter_sensitivity = Qos.High)

let test_qos_loss_levels () =
  let with_loss l = { Qos.default with Qos.loss_tolerance = l } in
  check_bool "none" true
    ((Qos.levels (with_loss 0.0)).Qos.loss_tolerance_level = Qos.Not_defined);
  check_bool "low" true ((Qos.levels (with_loss 0.001)).Qos.loss_tolerance_level = Qos.Low);
  check_bool "mod" true
    ((Qos.levels (with_loss 0.02)).Qos.loss_tolerance_level = Qos.Moderate);
  check_bool "high" true
    ((Qos.levels (with_loss 0.1)).Qos.loss_tolerance_level = Qos.High)

(* ------------------------------------------------------------------ Tsc *)

let test_tsc_classify_quadrants () =
  let base = Qos.default in
  let q ~iso ~inter ~rt =
    { base with Qos.isochronous = iso; interactive = inter; realtime = rt }
  in
  check_bool "interactive iso" true
    (Tsc.classify (q ~iso:true ~inter:true ~rt:true) = Tsc.Interactive_isochronous);
  check_bool "distributional iso" true
    (Tsc.classify (q ~iso:true ~inter:false ~rt:true) = Tsc.Distributional_isochronous);
  check_bool "realtime non-iso" true
    (Tsc.classify (q ~iso:false ~inter:false ~rt:true) = Tsc.Realtime_non_isochronous);
  check_bool "non-rt non-iso" true
    (Tsc.classify (q ~iso:false ~inter:true ~rt:false) = Tsc.Non_realtime_non_isochronous)

let test_tsc_names () =
  check_str "name" "Interactive Isochronous" (Tsc.name Tsc.Interactive_isochronous)

let test_tsc_policies () =
  let voice =
    {
      Qos.default with
      Qos.isochronous = true;
      interactive = true;
      loss_tolerance = 0.05;
    }
  in
  let p = Tsc.policies Tsc.Interactive_isochronous voice in
  check_bool "voice not fully reliable" false p.Tsc.full_reliability;
  check_bool "voice playout" true p.Tsc.playout_smoothing;
  check_bool "voice rate paced" true p.Tsc.rate_paced;
  check_bool "voice fast setup" true p.Tsc.fast_setup;
  let bulk = Tsc.policies Tsc.Non_realtime_non_isochronous Qos.default in
  check_bool "bulk reliable" true bulk.Tsc.full_reliability;
  check_bool "bulk congestion responsive" true bulk.Tsc.congestion_responsive;
  check_bool "bulk no playout" false bulk.Tsc.playout_smoothing

let prop_tsc_total =
  QCheck2.Test.make ~name:"classifier is total" ~count:300
    QCheck2.Gen.(quad bool bool bool bool)
    (fun (iso, inter, rt, _) ->
      let q =
        { Qos.default with Qos.isochronous = iso; interactive = inter; realtime = rt }
      in
      List.mem (Tsc.classify q)
        Tsc.
          [ Interactive_isochronous; Distributional_isochronous;
            Realtime_non_isochronous; Non_realtime_non_isochronous ])

(* ------------------------------------------------------------------ Scs *)

let variant_scs =
  {
    Scs.connection = Params.Implicit;
    transmission = Params.Rate_based { rate_bps = 1234567.0; burst = 3 };
    congestion = Params.Slow_start { initial = 2; threshold = 9 };
    detection = Params.Crc32;
    reporting = Params.Nack_on_gap;
    recovery = Params.Forward_error_correction { group = 5 };
    ordering = Params.Unordered;
    duplicates = Params.Accept_duplicates;
    delivery = Params.Playout { target = Time.ms 42 };
    segment_bytes = 777;
    recv_buffer_segments = 33;
    priority = 2;
    initial_rto = Time.ms 123;
  }

let test_scs_blob_roundtrip () =
  check_bool "default" true (Scs.of_blob (Scs.to_blob Scs.default) = Some Scs.default);
  check_bool "variant" true (Scs.of_blob (Scs.to_blob variant_scs) = Some variant_scs);
  check_bool "equal reflexive" true (Scs.equal variant_scs variant_scs);
  check_bool "not equal" false (Scs.equal variant_scs Scs.default)

let test_scs_blob_garbage () =
  check_bool "empty" true (Scs.of_blob "" = None);
  check_bool "nonsense" true (Scs.of_blob "hello world" = None);
  check_bool "partial" true (Scs.of_blob "conn=3way" = None)

let test_scs_blob_tolerates_extras () =
  let blob = "startseq=55;" ^ Scs.to_blob Scs.default in
  check_bool "extra keys ignored" true (Scs.of_blob blob = Some Scs.default)

(* A blob comes off the wire: values the mechanisms cannot run are
   refused like garbage, while every template still round-trips. *)
let test_scs_blob_unrunnable () =
  let rate rate_bps burst =
    { Scs.default with Scs.transmission = Params.Rate_based { rate_bps; burst } }
  in
  let slow initial threshold =
    { Scs.default with Scs.congestion = Params.Slow_start { initial; threshold } }
  in
  List.iter
    (fun (name, scs) -> check_bool name true (Scs.of_blob (Scs.to_blob scs) = None))
    [
      ("zero rate", rate 0.0 4);
      ("negative rate", rate (-1e6) 4);
      ("nan rate", rate Float.nan 4);
      ("infinite rate", rate Float.infinity 4);
      ("zero burst", rate 1e6 0);
      ("slow start from 0", slow 0 1);
      ("threshold 0", slow 1 0);
      ("zero segment", { Scs.default with Scs.segment_bytes = 0 });
    ];
  List.iter
    (fun name ->
      match Tko.Templates.find name with
      | Some (_, scs) -> check_bool name true (Scs.of_blob (Scs.to_blob scs) = Some scs)
      | None -> Alcotest.fail name)
    Tko.Templates.names

let test_scs_component_names () =
  Alcotest.(check (list string)) "no diff" [] (Scs.component_names Scs.default Scs.default);
  let changed = { Scs.default with Scs.recovery = Params.Selective_repeat } in
  Alcotest.(check (list string)) "one diff" [ "recovery" ]
    (Scs.component_names Scs.default changed);
  check_bool "many diffs" true
    (List.length (Scs.component_names Scs.default variant_scs) > 5)

let test_scs_predicates () =
  check_bool "gbn reliable" true (Scs.reliable Scs.default);
  check_bool "fec not ARQ-reliable" false (Scs.reliable variant_scs)

(* ------------------------------------------------------------------ Acd *)

let test_acd_make () =
  Alcotest.check_raises "no participants" (Invalid_argument "Acd.make: no participants")
    (fun () -> ignore (Acd.make ~participants:[] ~qos:Qos.default ()));
  let acd = Acd.make ~participants:[ 1; 2 ] ~qos:Qos.default () in
  check_int "participants" 2 (List.length acd.Acd.participants);
  check_bool "default tmc empty" true (acd.Acd.tmc.Acd.collect = []);
  check_bool "no explicit tsc" true (acd.Acd.explicit_tsc = None)

let test_acd_strings () =
  check_str "action" "switch recovery to srepeat"
    (Acd.action_to_string (Acd.Switch_recovery Params.Selective_repeat));
  check_str "scale" "scale rate by 0.75" (Acd.action_to_string (Acd.Scale_rate 0.75))

let test_acd_table2 () =
  check_int "five rows" 5 (List.length Acd.table2);
  let names = List.map (fun (n, _, _) -> n) Acd.table2 in
  check_bool "has TSA row" true
    (List.exists (fun n -> n = "Transport Service Adjustment (TSA)") names);
  check_bool "has TMC row" true
    (List.exists (fun n -> n = "Transport Measurement Component (TMC)") names)

(* ---------------------------------------------------------------- Unites *)

let test_unites_observe_stats () =
  let e = Engine.create () in
  let u = Unites.create e in
  Unites.register_session u ~id:1 ~name:"s1";
  Unites.observe u ~session:1 Unites.Throughput 100.0;
  Unites.observe u ~session:1 Unites.Throughput 200.0;
  let s = Option.get (Unites.stats u ~session:1 Unites.Throughput) in
  check_int "n" 2 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 150.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "total" 300.0 (Unites.total u ~session:1 Unites.Throughput);
  check_bool "absent metric" true (Unites.stats u ~session:1 Unites.Rtt = None);
  Alcotest.(check (float 1e-9)) "absent total" 0.0 (Unites.total u ~session:1 Unites.Rtt)

let test_unites_whitebox_gating () =
  let e = Engine.create () in
  let u = Unites.create ~whitebox:false e in
  Unites.observe u ~session:1 Unites.Retransmissions 1.0;
  check_bool "whitebox dropped" true (Unites.stats u ~session:1 Unites.Retransmissions = None);
  check_int "no samples recorded" 0 (Unites.whitebox_samples u);
  Unites.observe u ~session:1 Unites.Throughput 5.0;
  check_bool "blackbox kept" true (Unites.stats u ~session:1 Unites.Throughput <> None);
  let on = Unites.create ~whitebox:true e in
  Unites.observe on ~session:1 Unites.Retransmissions 1.0;
  check_int "sample counted" 1 (Unites.whitebox_samples on)

let test_unites_metric_kinds () =
  check_bool "throughput blackbox" true (Unites.metric_kind Unites.Throughput = Unites.Blackbox);
  check_bool "rtt blackbox" true (Unites.metric_kind Unites.Rtt = Unites.Blackbox);
  check_bool "retransmissions whitebox" true
    (Unites.metric_kind Unites.Retransmissions = Unites.Whitebox);
  check_bool "jitter-ish whitebox" true
    (Unites.metric_kind Unites.Delivery_latency = Unites.Whitebox);
  check_bool "jitter whitebox" true (Unites.metric_kind Unites.Jitter = Unites.Whitebox);
  check_bool "scheduler overhead whitebox" true
    (Unites.metric_kind Unites.Sched_events_fired = Unites.Whitebox
    && Unites.metric_kind Unites.Sched_wheel_hit_rate = Unites.Whitebox);
  check_bool "swarm metrics whitebox" true
    (Unites.metric_kind Unites.Sessions_refused = Unites.Whitebox
    && Unites.metric_kind Unites.Demux_probes = Unites.Whitebox
    && Unites.metric_kind Unites.Table_occupancy = Unites.Whitebox);
  check_bool "wire metrics whitebox" true
    (Unites.metric_kind Unites.Wire_encodes = Unites.Whitebox
    && Unites.metric_kind Unites.Wire_rejects = Unites.Whitebox
    && Unites.metric_kind Unites.Wire_pool_reuse = Unites.Whitebox);
  check_bool "steer metrics whitebox" true
    (Unites.metric_kind Unites.Steer_swaps = Unites.Whitebox
    && Unites.metric_kind Unites.Steer_blocked = Unites.Whitebox
    && Unites.metric_kind Unites.Steer_time_in_config = Unites.Whitebox);
  check_int "all metrics listed" 43 (List.length Unites.all_metrics);
  (* Names are unique. *)
  let names = List.map Unites.metric_name Unites.all_metrics in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_unites_aggregate () =
  let e = Engine.create () in
  let u = Unites.create e in
  Unites.observe u ~session:1 Unites.Rtt 0.1;
  Unites.observe u ~session:2 Unites.Rtt 0.3;
  let agg = Option.get (Unites.aggregate u Unites.Rtt) in
  check_int "combined n" 2 agg.Stats.n;
  Alcotest.(check (float 1e-9)) "combined total" 0.4 (Unites.aggregate_total u Unites.Rtt)

(* [aggregate_total] sums cell totals without merging accumulators.  On
   a 1,000-session repository of inexact sums it must give the bits the
   merge-based total gave — 0x40e8712f88fa2fa3, the same cells added in
   the same table order — while allocating O(1) words per cell: merging
   re-created an 8,192-float reservoir per cell. *)
let test_unites_aggregate_total_no_merge () =
  let e = Engine.create () in
  let u = Unites.create e in
  for i = 1 to 1000 do
    Unites.observe u ~session:i Unites.Throughput (1.0 /. float_of_int i);
    Unites.observe u ~session:i Unites.Throughput (0.1 *. float_of_int i);
    if i mod 2 = 0 then Unites.observe u ~session:i Unites.Rtt 0.3
  done;
  let before = Gc.allocated_bytes () in
  let total = Unites.aggregate_total u Unites.Throughput in
  let words = (Gc.allocated_bytes () -. before) /. 8.0 in
  Alcotest.(check int64) "bit-identical to the merge-based total"
    0x40e8712f88fa2fa3L (Int64.bits_of_float total);
  let cells = 1500 in
  if words > 8.0 *. float_of_int cells then
    Alcotest.failf "aggregate_total allocated %.0f words over %d cells" words
      cells;
  (* A lone cell's total is taken as is, not added to a zero; a metric
     with no cells sums to +0. *)
  let u = Unites.create e in
  Unites.observe u ~session:1 Unites.Jitter (-0.0);
  Alcotest.(check int64) "lone cell is its own total"
    (Int64.bits_of_float (Unites.total u ~session:1 Unites.Jitter))
    (Int64.bits_of_float (Unites.aggregate_total u Unites.Jitter));
  Alcotest.(check int64) "no cells is +0" 0L
    (Int64.bits_of_float (Unites.aggregate_total u Unites.Rtt))

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_unites_first_name_wins () =
  let e = Engine.create () in
  let u = Unites.create e in
  Unites.register_session u ~id:9 ~name:"first";
  Unites.register_session u ~id:9 ~name:"second";
  Unites.count u ~session:9 Unites.Segments_sent;
  let report = Format.asprintf "%a" Unites.report u in
  check_bool "first name kept" true (string_contains report "session 9 (first)");
  check_bool "second name ignored" false (string_contains report "second")

(* A cell is its accumulator: a repository fed one observation per
   simulated second holds as many words after 10,000 s as after 10 s.
   Time only advances between observations, so the engine stays empty. *)
let test_unites_flat_over_time () =
  List.iter
    (fun (name, estimator) ->
      let e = Engine.create () in
      let u = Unites.create ~estimator ~reservoir:8 e in
      let words_at horizon =
        for s = 1 to horizon do
          Engine.run e ~until:(Time.sec (float_of_int s));
          Unites.observe u ~session:1 Unites.Bytes_delivered 100.0;
          Unites.observe u ~session:1 Unites.Delivery_latency (float_of_int (s mod 7));
          Unites.count u ~session:Unites.swarm_session Unites.Demux_probes
        done;
        Obj.reachable_words (Obj.repr u)
      in
      let early = words_at 10 in
      let late = words_at 10_000 in
      Alcotest.(check int) (name ^ ": words after 10 s and after 10,000 s") early late)
    [ ("reservoir", Stats.Reservoir); ("p2", Stats.P2) ]

let test_unites_report_smoke () =
  let e = Engine.create () in
  let u = Unites.create e in
  Unites.register_session u ~id:1 ~name:"smoke";
  Unites.count u ~session:1 Unites.Segments_sent;
  let out = Format.asprintf "%a" Unites.report u in
  check_bool "mentions session" true (string_contains out "smoke");
  check_bool "mentions metric" true (string_contains out "segments_sent")

(* ------------------------------------------------------------------ Tko *)

(* Whether the context's recovery mechanism asks for parity within [n]
   first transmissions: only a bound FEC sender ever does. *)
let emits_parity ctx n =
  List.exists
    (fun seq -> Recovery.on_transmit ctx.Tko.recovery (Pdu.seg ~seq ~bytes:10 ()) <> None)
    (List.init n Fun.id)

let send_window ctx = Transmission.send_window ctx.Tko.transmission

let test_tko_synthesize_components () =
  let ctx = Tko.synthesize variant_scs in
  (* 777 bytes (one segment) at 1234567 b/s. *)
  check_int "rate pacer" (Time.of_rate ~bits:(777 * 8) ~bps:1234567.0)
    (Transmission.backlog_delay ctx.Tko.transmission ~bytes:777);
  let windowed =
    Tko.synthesize
      { variant_scs with Scs.transmission = Params.Sliding_window { window = 10 } }
  in
  check_int "cc" 2 (send_window windowed);
  check_bool "fec tx" true (emits_parity ctx 5);
  check_bool "playout" true (ctx.Tko.playout <> None);
  let plain = Tko.synthesize Scs.default in
  check_int "no pacer" 0 (Transmission.backlog_delay plain.Tko.transmission ~bytes:777);
  check_int "no cc" 8 (send_window plain);
  check_bool "no fec" false (emits_parity plain 64);
  check_bool "no playout" true (plain.Tko.playout = None)

(* The peer's advertisement is assumed to be the SCS's receive buffer
   until the first acknowledgment. *)
let test_tko_effective_window () =
  let scs =
    {
      Scs.default with
      Scs.transmission = Params.Sliding_window { window = 10 };
      recv_buffer_segments = 7;
    }
  in
  let ctx = Tko.synthesize scs in
  check_int "min of window and peer" 7 (send_window ctx);
  Transmission.on_ack ctx.Tko.transmission ~window:100 ~acked:0;
  check_int "own window binds" 10 (send_window ctx);
  let saw = Tko.synthesize { scs with Scs.transmission = Params.Stop_and_wait } in
  check_int "stop and wait" 1 (send_window saw);
  let rate =
    Tko.synthesize
      { scs with Scs.transmission = Params.Rate_based { rate_bps = 1e6; burst = 4 } }
  in
  check_int "rate unbounded" max_int (send_window rate);
  let cc =
    Tko.synthesize
      { scs with Scs.congestion = Params.Slow_start { initial = 2; threshold = 8 } }
  in
  check_int "cc binds" 2 (send_window cc)

let test_tko_segue_static_refuses () =
  let ctx = Tko.synthesize ~binding:(Tko.Static_template "tcp-compatible") Scs.default in
  match Tko.segue ctx { Scs.default with Scs.recovery = Params.Selective_repeat } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "static template must refuse segue"

let test_tko_segue_preserves_shared_state () =
  let ctx = Tko.synthesize Scs.default in
  (* Outstanding segments and RTT history... *)
  Window.track ctx.Tko.window
    (Pdu.seg ~seq:0 ~bytes:10 ())
    ~at:Time.zero;
  Rtt.observe ctx.Tko.rtt (Time.ms 30);
  (* ...survive a recovery swap. *)
  (match Tko.segue ctx { Scs.default with Scs.recovery = Params.Selective_repeat } with
  | Ok changed -> Alcotest.(check (list string)) "one component" [ "recovery" ] changed
  | Error e -> Alcotest.fail e);
  check_int "window preserved" 1 (Window.in_flight ctx.Tko.window);
  check_int "rtt preserved" 1 (Rtt.samples ctx.Tko.rtt);
  check_int "segue counted" 1 ctx.Tko.segue_count;
  check_bool "scs updated" true (ctx.Tko.scs.Scs.recovery = Params.Selective_repeat)

let test_tko_segue_same_scs_noop () =
  let ctx = Tko.synthesize Scs.default in
  (match Tko.segue ctx Scs.default with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "identical SCS must be a no-op");
  check_int "not counted" 0 ctx.Tko.segue_count

let test_tko_segue_rate_keeps_tokens () =
  let scs =
    { Scs.default with Scs.transmission = Params.Rate_based { rate_bps = 1e6; burst = 4 } }
  in
  let ctx = Tko.synthesize scs in
  let engine = Engine.create () in
  let fired = ref [] in
  let admit bytes =
    Transmission.admit ctx.Tko.transmission engine ~in_flight:0 ~bytes
      (fun () -> fired := Engine.now engine :: !fired)
      ()
  in
  (* Empty the bucket: four 1460-byte segments. *)
  check_bool "burst" true (admit 5840 = Transmission.Send);
  (match
     Tko.segue ctx
       { scs with Scs.transmission = Params.Rate_based { rate_bps = 2e6; burst = 4 } }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* A fresh pacer would send at once; the kept one waits for 1000 bytes
     at the new rate. *)
  check_bool "bucket still empty" true (admit 1000 = Transmission.Deferred);
  Engine.run engine;
  Alcotest.(check (list int)) "rate updated" [ Time.ms 4 ] !fired

let test_tko_segue_to_fec_and_back () =
  let ctx = Tko.synthesize Scs.default in
  (match
     Tko.segue ctx
       { Scs.default with Scs.recovery = Params.Forward_error_correction { group = 4 } }
   with
  | Ok _ -> check_bool "fec tx appears" true (emits_parity ctx 4)
  | Error e -> Alcotest.fail e);
  match Tko.segue ctx Scs.default with
  | Ok _ -> check_bool "fec tx removed" false (emits_parity ctx 64)
  | Error e -> Alcotest.fail e

(* Connection management is bound from the SCS like every other
   mechanism: a segue rebinds its scheme and keeps its state. *)
let test_tko_segue_rebinds_connection () =
  let ctx = Tko.synthesize { Scs.default with Scs.connection = Params.Two_way } in
  let c = ctx.Tko.connection in
  check_bool "handshake" true (Connection.start c ~peers:[ 1 ]);
  check_bool "two-way confirms nothing" false (Connection.confirms c);
  (match Tko.segue ctx { Scs.default with Scs.connection = Params.Three_way } with
  | Ok changed -> Alcotest.(check (list string)) "changed" [ "connection" ] changed
  | Error e -> Alcotest.fail e);
  check_bool "same mechanism object" true (c == ctx.Tko.connection);
  check_bool "three-way confirms" true (Connection.confirms c);
  Alcotest.(check (list int)) "pending peer kept" [ 1 ] (Connection.pending c)

let test_tko_segue_ordering_change_carries_cum_point () =
  let ctx = Tko.synthesize Scs.default in
  (* Receive 0..2 in order. *)
  List.iter
    (fun i ->
      ignore
        (Reorder.offer ctx.Tko.reorder
           (Pdu.seg ~seq:i ~bytes:1 ())))
    [ 0; 1; 2 ];
  (match Tko.segue ctx { Scs.default with Scs.ordering = Params.Unordered } with
  | Ok changed -> check_bool "ordering changed" true (List.mem "ordering" changed)
  | Error e -> Alcotest.fail e);
  check_int "cumulative point carried" 3 (Reorder.expected ctx.Tko.reorder)

let test_tko_templates () =
  check_int "seven templates" 7 (List.length Tko.Templates.names);
  (match Tko.Templates.find Tko.Templates.tcp_compatible with
  | Some (Tko.Static_template _, scs) ->
    check_bool "tcp is gbn" true (scs.Scs.recovery = Params.Go_back_n);
    check_bool "tcp slow start" true
      (match scs.Scs.congestion with Params.Slow_start _ -> true | _ -> false)
  | Some _ -> Alcotest.fail "tcp template must be static"
  | None -> Alcotest.fail "tcp template missing");
  (match Tko.Templates.find Tko.Templates.media_stream with
  | Some (Tko.Reconfigurable_template _, scs) ->
    check_bool "media is rate paced" true
      (match scs.Scs.transmission with Params.Rate_based _ -> true | _ -> false)
  | Some _ -> Alcotest.fail "media template must be reconfigurable"
  | None -> Alcotest.fail "media template missing");
  check_bool "unknown" true (Tko.Templates.find "nope" = None)

let test_tko_template_reverse_lookup () =
  (match Tko.Templates.find Tko.Templates.bulk_lfn with
  | Some (_, scs) -> (
    match Tko.Templates.lookup_scs scs with
    | Some (_, name) -> check_str "found by scs" Tko.Templates.bulk_lfn name
    | None -> Alcotest.fail "expected cache hit")
  | None -> Alcotest.fail "bulk template missing");
  check_bool "variant matches no template" true
    (Tko.Templates.lookup_scs variant_scs = None)

(* ------------------------------------------------------------ Protograph *)

let test_protograph_edit_ops () =
  let g = Protograph.create () in
  check_bool "add" true (Protograph.add_layer g (Protograph.layer "a") = Ok ());
  check_bool "dup rejected" true
    (match Protograph.add_layer g (Protograph.layer "a") with Error _ -> true | Ok () -> false);
  ignore (Protograph.add_layer g (Protograph.layer "b"));
  ignore (Protograph.add_layer g (Protograph.layer "c"));
  check_bool "connect" true (Protograph.connect g ~upper:"a" ~lower:"b" = Ok ());
  check_bool "connect 2" true (Protograph.connect g ~upper:"b" ~lower:"c" = Ok ());
  check_bool "self edge rejected" true
    (match Protograph.connect g ~upper:"a" ~lower:"a" with Error _ -> true | Ok () -> false);
  check_bool "cycle rejected" true
    (match Protograph.connect g ~upper:"c" ~lower:"a" with Error _ -> true | Ok () -> false);
  Alcotest.(check (list string)) "lowers" [ "b" ] (Protograph.lowers g "a");
  Alcotest.(check (list string)) "uppers" [ "b" ] (Protograph.uppers g "c");
  check_bool "unknown layer rejected" true
    (match Protograph.connect g ~upper:"a" ~lower:"zz" with Error _ -> true | Ok () -> false)

let test_protograph_path_and_overhead () =
  let g = Protograph.conventional_stack () in
  match Protograph.path g ~from_:"application" ~to_:"driver" with
  | None -> Alcotest.fail "expected a path"
  | Some stack ->
    check_int "four layers" 4 (List.length stack);
    let o = Protograph.stack_overhead stack in
    check_int "headers" (20 + 20 + 14) o.Protograph.header_total;
    check_int "trailers" 4 o.Protograph.trailer_total;
    check_int "copies" 4 o.Protograph.copy_total;
    check_int "processing" (Time.us 150) o.Protograph.processing

let test_protograph_insert_between () =
  let g = Protograph.conventional_stack () in
  let filter = Protograph.layer ~header:8 ~copies:1 ~per_packet:(Time.us 80) "encryption" in
  check_bool "splice" true
    (Protograph.insert_between g filter ~upper:"transport" ~lower:"network" = Ok ());
  Alcotest.(check (list string)) "edge rerouted" [ "encryption" ]
    (Protograph.lowers g "transport");
  Alcotest.(check (list string)) "filter feeds network" [ "network" ]
    (Protograph.lowers g "encryption");
  (match Protograph.path g ~from_:"application" ~to_:"driver" with
  | Some stack -> check_int "five layers" 5 (List.length stack)
  | None -> Alcotest.fail "path lost");
  check_bool "splice needs an edge" true
    (match
       Protograph.insert_between g (Protograph.layer "x") ~upper:"application"
         ~lower:"driver"
     with
    | Error _ -> true
    | Ok () -> false)

let test_protograph_remove () =
  let g = Protograph.conventional_stack () in
  check_bool "remove" true (Protograph.remove_layer g "network" = Ok ());
  check_bool "path broken" true
    (Protograph.path g ~from_:"application" ~to_:"driver" = None);
  Alcotest.(check (list string)) "edges cleaned" [] (Protograph.lowers g "transport");
  check_bool "absent remove rejected" true
    (match Protograph.remove_layer g "network" with Error _ -> true | Ok () -> false)

let test_protograph_flat_stack_cheaper () =
  let conv =
    Option.get
      (Protograph.path (Protograph.conventional_stack ()) ~from_:"application"
         ~to_:"driver")
  in
  let flat =
    Option.get
      (Protograph.path (Protograph.adaptive_stack ()) ~from_:"application" ~to_:"driver")
  in
  let oc = Protograph.stack_overhead conv in
  let oa = Protograph.stack_overhead flat in
  check_bool "fewer copies" true (oa.Protograph.copy_total < oc.Protograph.copy_total);
  check_bool "less processing" true (oa.Protograph.processing < oc.Protograph.processing)

let prop_protograph_acyclic =
  QCheck2.Test.make ~name:"random edits never create a cycle" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let g = Protograph.create () in
      for i = 0 to 7 do
        ignore (Protograph.add_layer g (Protograph.layer (string_of_int i)))
      done;
      List.iter
        (fun (u, l) ->
          ignore (Protograph.connect g ~upper:(string_of_int u) ~lower:(string_of_int l)))
        edges;
      (* If any cycle existed, a path from a node to itself through >0
         edges would exist; connect's guard must have prevented that.
         Check: no node reaches itself via its lowers. *)
      List.for_all
        (fun (l : Protograph.layer) ->
          let name = l.Protograph.name in
          not
            (List.exists
               (fun child ->
                 match Protograph.path g ~from_:child ~to_:name with
                 | Some _ -> true
                 | None -> false)
               (Protograph.lowers g name)))
        (Protograph.layers g))

(* ------------------------------------------------------------------ Lab *)

let test_lab_replicate () =
  let r = Lab.replicate ~jobs:1 ~seeds:[ 1; 2; 3; 4 ] (fun ~seed -> float_of_int seed) in
  check_int "n" 4 r.Lab.n;
  Alcotest.(check (float 1e-9)) "mean" 2.5 r.Lab.mean;
  Alcotest.(check (float 1e-9)) "median (even n)" 2.5 r.Lab.median;
  check_bool "half width positive" true (r.Lab.half_width > 0.0);
  let constant = Lab.replicate ~jobs:1 ~seeds:[ 7; 8; 9 ] (fun ~seed:_ -> 5.0) in
  Alcotest.(check (float 1e-9)) "constant mean" 5.0 constant.Lab.mean;
  Alcotest.(check (float 1e-9)) "constant width" 0.0 constant.Lab.half_width;
  Alcotest.check_raises "no seeds" (Invalid_argument "Lab.replicate: no seeds")
    (fun () -> ignore (Lab.replicate ~jobs:1 ~seeds:[] (fun ~seed:_ -> 0.0)))

let test_lab_median_skewed () =
  (* The median must resist a single fault-skewed replica; the mean does
     not.  Odd n picks the middle element exactly. *)
  let r =
    Lab.replicate ~jobs:1 ~seeds:[ 1; 2; 3; 4; 5 ] (fun ~seed ->
        if seed = 5 then 1000.0 else float_of_int seed)
  in
  Alcotest.(check (float 1e-9)) "median ignores outlier" 3.0 r.Lab.median;
  check_bool "mean dragged by outlier" true (r.Lab.mean > 100.0)

let test_lab_duplicate_seeds () =
  Alcotest.check_raises "duplicate seeds"
    (Invalid_argument "Lab.replicate: duplicate seeds (replicas would be identical)")
    (fun () -> ignore (Lab.replicate ~jobs:1 ~seeds:[ 1; 2; 1 ] (fun ~seed:_ -> 0.0)))

let test_lab_distinguishable () =
  let mk mean half_width =
    { Lab.n = 5; mean; median = mean; stddev = 0.0; half_width }
  in
  check_bool "separated" true (Lab.distinguishable (mk 10.0 1.0) (mk 15.0 1.0));
  check_bool "overlapping" false (Lab.distinguishable (mk 10.0 3.0) (mk 15.0 3.0));
  check_bool "single run has zero width" true
    ((Lab.replicate ~jobs:1 ~seeds:[ 42 ] (fun ~seed:_ -> 1.0)).Lab.half_width = 0.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "core.qos",
      [
        Alcotest.test_case "throughput levels" `Quick test_qos_levels_thresholds;
        Alcotest.test_case "burst ratio" `Quick test_qos_burst_ratio;
        Alcotest.test_case "delay and jitter levels" `Quick test_qos_delay_jitter_levels;
        Alcotest.test_case "loss levels" `Quick test_qos_loss_levels;
      ] );
    ( "core.tsc",
      [
        Alcotest.test_case "classifier quadrants" `Quick test_tsc_classify_quadrants;
        Alcotest.test_case "names" `Quick test_tsc_names;
        Alcotest.test_case "policy bundles" `Quick test_tsc_policies;
      ]
      @ qsuite [ prop_tsc_total ] );
    ( "core.scs",
      [
        Alcotest.test_case "blob round trip" `Quick test_scs_blob_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick test_scs_blob_garbage;
        Alcotest.test_case "extra keys tolerated" `Quick test_scs_blob_tolerates_extras;
        Alcotest.test_case "values no mechanism can run rejected" `Quick
          test_scs_blob_unrunnable;
        Alcotest.test_case "component diff" `Quick test_scs_component_names;
        Alcotest.test_case "predicates" `Quick test_scs_predicates;
      ] );
    ( "core.acd",
      [
        Alcotest.test_case "make validation" `Quick test_acd_make;
        Alcotest.test_case "condition/action strings" `Quick test_acd_strings;
        Alcotest.test_case "table 2 rows" `Quick test_acd_table2;
      ] );
    ( "core.unites",
      [
        Alcotest.test_case "observe and stats" `Quick test_unites_observe_stats;
        Alcotest.test_case "whitebox gating" `Quick test_unites_whitebox_gating;
        Alcotest.test_case "metric kinds" `Quick test_unites_metric_kinds;
        Alcotest.test_case "aggregate" `Quick test_unites_aggregate;
        Alcotest.test_case "aggregate total without merging" `Quick
          test_unites_aggregate_total_no_merge;
        Alcotest.test_case "first name wins" `Quick test_unites_first_name_wins;
        Alcotest.test_case "memory flat over simulated time" `Quick
          test_unites_flat_over_time;
        Alcotest.test_case "report smoke" `Quick test_unites_report_smoke;
      ] );
    ( "core.protograph",
      [
        Alcotest.test_case "graph edit operations" `Quick test_protograph_edit_ops;
        Alcotest.test_case "path and overhead" `Quick test_protograph_path_and_overhead;
        Alcotest.test_case "insert between" `Quick test_protograph_insert_between;
        Alcotest.test_case "remove layer" `Quick test_protograph_remove;
        Alcotest.test_case "flat stack is cheaper" `Quick test_protograph_flat_stack_cheaper;
      ]
      @ qsuite [ prop_protograph_acyclic ] );
    ( "core.lab",
      [
        Alcotest.test_case "replicate" `Quick test_lab_replicate;
        Alcotest.test_case "median under skew" `Quick test_lab_median_skewed;
        Alcotest.test_case "duplicate seeds rejected" `Quick test_lab_duplicate_seeds;
        Alcotest.test_case "distinguishable" `Quick test_lab_distinguishable;
      ] );
    ( "core.tko",
      [
        Alcotest.test_case "synthesize instantiates components" `Quick
          test_tko_synthesize_components;
        Alcotest.test_case "effective window" `Quick test_tko_effective_window;
        Alcotest.test_case "static template refuses segue" `Quick
          test_tko_segue_static_refuses;
        Alcotest.test_case "segue preserves shared state" `Quick
          test_tko_segue_preserves_shared_state;
        Alcotest.test_case "segue no-op" `Quick test_tko_segue_same_scs_noop;
        Alcotest.test_case "rate segue keeps token state" `Quick
          test_tko_segue_rate_keeps_tokens;
        Alcotest.test_case "segue to FEC and back" `Quick test_tko_segue_to_fec_and_back;
        Alcotest.test_case "segue rebinds connection management" `Quick
          test_tko_segue_rebinds_connection;
        Alcotest.test_case "ordering segue carries cum point" `Quick
          test_tko_segue_ordering_change_carries_cum_point;
        Alcotest.test_case "templates" `Quick test_tko_templates;
        Alcotest.test_case "template reverse lookup" `Quick
          test_tko_template_reverse_lookup;
      ] );
  ]
