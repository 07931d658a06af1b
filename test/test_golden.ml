(* Golden-output regression tests: the regenerated paper tables and a
   synthetic UNITES report are pinned byte-for-byte.  A diff here means
   presentation (or the data behind it) changed; update the golden only
   when the change is intentional. *)

open Adaptive_sim
open Adaptive_core

let table1_golden =
  {golden|
=== Table 1 — Application Transport Service Classes (regenerated)
------------------------------------------------------------------------
Service Class                  Application                  Thruput   Burst Delay Jitter Order Loss  Pri  Mcast
--------------------------------------------------------------------------------------------------------------
Interactive Isochronous        Voice Conversation           low       low   high  high   low   high  no   no   
Interactive Isochronous        Tele-Conferencing            mod       mod   high  high   low   mod   yes  yes  
Distributional Isochronous     Full-Motion Video (comp)     high      high  high  mod    low   mod   yes  yes  
Distributional Isochronous     Full-Motion Video (raw)      very-high low   high  high   low   mod   yes  yes  
Real-Time Non-Isochronous      Manufacturing Control        mod       mod   high  N/D    high  low   yes  yes  
Non-Real-Time Non-Isochronous  File Transfer                mod       low   low   N/D    high  none  no   no   
Non-Real-Time Non-Isochronous  TELNET                       very-low  high  high  low    high  none  yes  no   
Non-Real-Time Non-Isochronous  On-Line Transaction Processing low       high  high  low    high  none  no   no   
Non-Real-Time Non-Isochronous  Remote File Service          low       high  high  low    high  none  no   yes  
--------------------------------------------------------------------------------------------------------------
cells agreeing with the paper's grades: 72 / 72
shape: all nine applications land in the paper's service class    OK
shape: at least 80% of qualitative grades match the paper         OK
|golden}

let table2_golden =
  {golden|
=== Table 2 — The ADAPTIVE Communication Descriptor (regenerated)
------------------------------------------------------------------------
Remote Session Participant Address(es)    
    Specifies >= 1 addresses of remote end-systems that comprise the communication association.
    e.g. unicast: [b]; multicast: [b; c; d]
Quantitative QoS Parameters               
    Specifies the performance criteria requested by the application.
    e.g. peak and average throughput, minimum and maximum latency and jitter, error-rate probabilities, duration
Qualitative QoS Parameters                
    Specifies the functionality or behavior requested by the application.
    e.g. sequenced/non-sequenced delivery, duplicate sensitivity, explicit/implicit connection management, priority delivery
Transport Service Adjustment (TSA)        
    Actions to perform when changes occur in local or remote hosts or the network.
    e.g. <congestion > 0.60, switch recovery to srepeat>; <rtt > 150ms, switch recovery to fec:8>
Transport Measurement Component (TMC)     
    Specifies performance metrics to collect for this particular communication session.
    e.g. throughput_bps, delivery_latency_s, retransmissions; sampling rate 1s
shape: five descriptor components as in the paper                 OK
|golden}

let unites_report_golden =
  {golden|UNITES metric repository (t=0ns, whitebox=true)
session 0 (scheduler):
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
session 1 (golden-session):
  throughput_bps       [bb] n=3 mean=2e+06 sd=1e+06 min=1e+06 p50=2e+06 p95=2.9e+06 p99=2.98e+06 max=3e+06
  delivery_latency_s   [wb] n=4 mean=0.0115 sd=0.001291 min=0.01 p50=0.0115 p95=0.01285 p99=0.01297 max=0.013
  retransmissions      [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  sessions_open        [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  demux_probes         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  table_occupancy      [wb] n=1 mean=0.25 sd=nan min=0.25 p50=0.25 p95=0.25 p99=0.25 max=0.25
trace (dropped log entries: 0):
  close                        1
  open                         1
|golden}

(* e5's per-second delivery timeline (adaptive vs static session), the
   one table built from per-second counts of delivered segments. *)
let e5_delivery_golden =
  {golden|delivered segments per second:
  t       adaptive     static
  0            433        433
  1            587        587
  2            536        536
  3            260        501
  4            150        448
  5            154        462
  6            117        524
  7            203        524
  8            526        522
  9            519         76
  10           550          0
  11           880          0
  12           529          0
  13           521          0
  14           304          0
  15             0          0
|golden}

let check_golden name golden actual =
  if String.equal golden actual then ()
  else begin
    (* Print both in full: alcotest's one-line diff is useless for a
       multi-line table. *)
    Format.eprintf "=== %s: expected ===@.%s@.=== got ===@.%s@." name golden
      actual;
    Alcotest.failf "%s drifted from its golden output" name
  end

let test_table1 () =
  check_golden "table1" table1_golden
    (Bench_harness.Util.with_captured Bench_harness.Tables.table1)

let test_table2 () =
  check_golden "table2" table2_golden
    (Bench_harness.Util.with_captured Bench_harness.Tables.table2)

(* A small fixed repository: one real session with blackbox and whitebox
   observations, a trace sink, and the scheduler pseudo-session that
   [report] folds in. *)
let test_unites_report () =
  let engine = Engine.create () in
  let unites = Unites.create ~reservoir:64 engine in
  let trace = Trace.create ~log_capacity:16 () in
  Unites.attach_trace unites trace;
  Unites.register_session unites ~id:1 ~name:"golden-session";
  List.iter
    (fun v -> Unites.observe unites ~session:1 Unites.Throughput v)
    [ 1.0e6; 2.0e6; 3.0e6 ];
  List.iter
    (fun v -> Unites.observe unites ~session:1 Unites.Delivery_latency v)
    [ 0.010; 0.012; 0.011; 0.013 ];
  Unites.count unites ~session:1 Unites.Retransmissions;
  Unites.count unites ~session:1 Unites.Sessions_open;
  Unites.observe unites ~session:1 Unites.Demux_probes 1.0;
  Unites.observe unites ~session:1 Unites.Table_occupancy 0.25;
  Trace.event trace ~at:Time.zero ~category:"open" ~detail:"1";
  Trace.event trace ~at:(Time.ms 5) ~category:"close" ~detail:"1";
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Unites.report fmt unites;
  Format.pp_print_flush fmt ();
  check_golden "unites report" unites_report_golden (Buffer.contents buf)

(* Every value class the summary writer formats — NaN, ±infinity, ±0,
   tiny, large and negative samples — at each sample size where the
   quantile path changes (one stored sample, a sorted sample of two to
   five, the first P² marker step at six, a long stream past the
   reservoir bound), under both estimators, with the scheduler and
   overflow pseudo-sessions, a whitebox-restricted session, a session
   with no cells, metric and trace names wider than their columns, and
   an empty summary. *)
let unites_edge_golden =
  {golden|== p2 ==
UNITES metric repository (t=2.500s, whitebox=true)
session -5 (overflow):
  throughput_bps       [bb] n=3 mean=nan sd=nan min=2 p50=2 p95=3.8 p99=3.96 max=4
  timeouts             [wb] n=2 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
session 0 (scheduler):
  sched_events_fired   [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 1 (n1):
  throughput_bps       [bb] n=1 mean=nan sd=nan min=inf p50=nan p95=nan p99=nan max=-inf
  rtt_s                [bb] n=1 mean=inf sd=nan min=inf p50=inf p95=inf p99=inf max=inf
  setup_latency_s      [wb] n=1 mean=-inf sd=nan min=-inf p50=-inf p95=-inf p99=-inf max=-inf
  delivery_latency_s   [wb] n=1 mean=0 sd=nan min=-0 p50=-0 p95=-0 p99=-0 max=-0
  jitter_s             [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  segments_sent        [wb] n=1 mean=1e-07 sd=nan min=1e-07 p50=1e-07 p95=1e-07 p99=1e-07 max=1e-07
  segments_delivered   [wb] n=1 mean=1.234e+04 sd=nan min=1.234e+04 p50=1.234e+04 p95=1.234e+04 p99=1.234e+04 max=1.234e+04
  bytes_delivered      [wb] n=1 mean=-3.25 sd=nan min=-3.25 p50=-3.25 p95=-3.25 p99=-3.25 max=-3.25
session 2 (n2):
  throughput_bps       [bb] n=2 mean=6173 sd=8729 min=1e-07 p50=6173 p95=1.173e+04 p99=1.222e+04 max=1.234e+04
  rtt_s                [bb] n=2 mean=0 sd=0 min=-0 p50=0 p95=0 p99=0 max=-0
  setup_latency_s      [wb] n=2 mean=nan sd=nan min=1 p50=nan p95=nan p99=nan max=1
  delivery_latency_s   [wb] n=2 mean=-nan sd=-nan min=-inf p50=-nan p95=-nan p99=-nan max=inf
  jitter_s             [wb] n=2 mean=-3.25 sd=0 min=-3.25 p50=-3.25 p95=-3.25 p99=-3.25 max=-3.25
session 3 (n5):
  throughput_bps       [bb] n=5 mean=2470 sd=5520 min=-2.5 p50=1e-07 p95=9877 p99=1.185e+04 max=1.234e+04
  rtt_s                [bb] n=5 mean=nan sd=nan min=0 p50=1 p95=inf p99=inf max=inf
  steer_time_in_config_s [wb] n=5 mean=0.775 sd=0.7624 min=0.125 p50=0.5 p95=1.8 p99=1.96 max=2
session 4 (n6):
  throughput_bps       [bb] n=6 mean=2058 sd=5039 min=-1 p50=0.5 p95=0.5 p99=0.5 max=1.234e+04
  rtt_s                [bb] n=6 mean=inf sd=-nan min=1 p50=3 p95=3 p99=3 max=inf
session 5 (n200):
  throughput_bps       [bb] n=200 mean=0.006429 sd=4.187 min=-7.143 p50=0.093 p95=6.39 p99=6.989 max=7.143
  delivery_latency_s   [wb] n=200 mean=9.95e-06 sd=5.788e-06 min=0 p50=9.9e-06 p95=1.89e-05 p99=1.96e-05 max=1.99e-05
  window_size          [wb] n=200 mean=-nan sd=-nan min=0 p50=-nan p95=-nan p99=-nan max=inf
  host_cpu_s           [wb] n=200 mean=nan sd=nan min=-199 p50=-98.99 p95=-9 p99=-2 max=-0
session 6 (restricted):
  throughput_bps       [bb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  jitter_s             [wb] n=2 mean=1 sd=1.414 min=-0 p50=1 p95=1.9 p99=1.98 max=2
  retransmissions      [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 7 (silent):
trace (dropped log entries: 0):
  a-trace-counter-name-longer-than-28 1
  short                        3
empty: n=0 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
== reservoir ==
UNITES metric repository (t=2.500s, whitebox=true)
session -5 (overflow):
  throughput_bps       [bb] n=3 mean=nan sd=nan min=2 p50=2 p95=3.8 p99=3.96 max=4
  timeouts             [wb] n=2 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
session 0 (scheduler):
  sched_events_fired   [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 1 (n1):
  throughput_bps       [bb] n=1 mean=nan sd=nan min=inf p50=nan p95=nan p99=nan max=-inf
  rtt_s                [bb] n=1 mean=inf sd=nan min=inf p50=inf p95=inf p99=inf max=inf
  setup_latency_s      [wb] n=1 mean=-inf sd=nan min=-inf p50=-inf p95=-inf p99=-inf max=-inf
  delivery_latency_s   [wb] n=1 mean=0 sd=nan min=-0 p50=-0 p95=-0 p99=-0 max=-0
  jitter_s             [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  segments_sent        [wb] n=1 mean=1e-07 sd=nan min=1e-07 p50=1e-07 p95=1e-07 p99=1e-07 max=1e-07
  segments_delivered   [wb] n=1 mean=1.234e+04 sd=nan min=1.234e+04 p50=1.234e+04 p95=1.234e+04 p99=1.234e+04 max=1.234e+04
  bytes_delivered      [wb] n=1 mean=-3.25 sd=nan min=-3.25 p50=-3.25 p95=-3.25 p99=-3.25 max=-3.25
session 2 (n2):
  throughput_bps       [bb] n=2 mean=6173 sd=8729 min=1e-07 p50=6173 p95=1.173e+04 p99=1.222e+04 max=1.234e+04
  rtt_s                [bb] n=2 mean=0 sd=0 min=-0 p50=0 p95=0 p99=0 max=-0
  setup_latency_s      [wb] n=2 mean=nan sd=nan min=1 p50=nan p95=nan p99=nan max=1
  delivery_latency_s   [wb] n=2 mean=-nan sd=-nan min=-inf p50=-nan p95=-nan p99=-nan max=inf
  jitter_s             [wb] n=2 mean=-3.25 sd=0 min=-3.25 p50=-3.25 p95=-3.25 p99=-3.25 max=-3.25
session 3 (n5):
  throughput_bps       [bb] n=5 mean=2470 sd=5520 min=-2.5 p50=1e-07 p95=9877 p99=1.185e+04 max=1.234e+04
  rtt_s                [bb] n=5 mean=nan sd=nan min=0 p50=1 p95=inf p99=inf max=inf
  steer_time_in_config_s [wb] n=5 mean=0.775 sd=0.7624 min=0.125 p50=0.5 p95=1.8 p99=1.96 max=2
session 4 (n6):
  throughput_bps       [bb] n=6 mean=2058 sd=5039 min=-1 p50=0.25 p95=9260 p99=1.173e+04 max=1.234e+04
  rtt_s                [bb] n=6 mean=inf sd=-nan min=1 p50=3.5 p95=inf p99=inf max=inf
session 5 (n200):
  throughput_bps       [bb] n=200 mean=0.006429 sd=4.187 min=-7.143 p50=0.7857 p95=6.814 p99=7.143 max=7.143
  delivery_latency_s   [wb] n=200 mean=9.95e-06 sd=5.788e-06 min=0 p50=8.7e-06 p95=1.854e-05 p99=1.977e-05 max=1.99e-05
  window_size          [wb] n=200 mean=-nan sd=-nan min=0 p50=4 p95=8 p99=inf max=inf
  host_cpu_s           [wb] n=200 mean=nan sd=nan min=-199 p50=-87 p95=-6.3 p99=-2.26 max=-0
session 6 (restricted):
  throughput_bps       [bb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  jitter_s             [wb] n=2 mean=1 sd=1.414 min=-0 p50=1 p95=1.9 p99=1.98 max=2
  retransmissions      [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 7 (silent):
trace (dropped log entries: 0):
  a-trace-counter-name-longer-than-28 1
  short                        3
empty: n=0 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
|golden}

let unites_edge_output estimator =
  let engine = Engine.create () in
  let unites = Unites.create ~reservoir:64 ~estimator ~session_cap:7 engine in
  let trace = Trace.create ~log_capacity:4 () in
  Unites.attach_trace unites trace;
  let obs session m vs = List.iter (Unites.observe unites ~session m) vs in
  let stream n f = List.init n f in
  Engine.schedule_anon engine ~at:(Time.ms 2500) (fun () ->
      List.iteri
        (fun i name -> Unites.register_session unites ~id:(i + 1) ~name)
        [ "n1"; "n2"; "n5"; "n6"; "n200"; "restricted"; "silent";
          "past-cap-a"; "past-cap-b" ];
      (* One observation each: the value classes the writer formats. *)
      obs 1 Unites.Throughput [ nan ];
      obs 1 Unites.Rtt [ infinity ];
      obs 1 Unites.Setup_latency [ neg_infinity ];
      obs 1 Unites.Delivery_latency [ -0.0 ];
      obs 1 Unites.Jitter [ 0.0 ];
      obs 1 Unites.Segments_sent [ 1e-7 ];
      obs 1 Unites.Segments_delivered [ 12345.0 ];
      obs 1 Unites.Bytes_delivered [ -3.25 ];
      obs 2 Unites.Throughput [ 1e-7; 12345.0 ];
      obs 2 Unites.Rtt [ -0.0; 0.0 ];
      obs 2 Unites.Setup_latency [ nan; 1.0 ];
      obs 2 Unites.Delivery_latency [ infinity; neg_infinity ];
      obs 2 Unites.Jitter [ -3.25; -3.25 ];
      obs 3 Unites.Throughput [ -2.5; 12345.0; 1e-7; -0.0; 7.0 ];
      obs 3 Unites.Rtt [ 1.0; nan; 3.0; infinity; 0.0 ];
      obs 3 Unites.Steer_time_in_config [ 0.5; 0.25; 0.125; 1.0; 2.0 ];
      obs 4 Unites.Throughput [ 6.0; -1.0; 0.5; 12345.0; 1e-7; -0.0 ];
      obs 4 Unites.Rtt [ 3.0; 1.0; 4.0; 1.0; 5.0; infinity ];
      obs 5 Unites.Throughput
        (stream 200 (fun i -> float_of_int ((i * 37) mod 101 - 50) /. 7.0));
      obs 5 Unites.Delivery_latency (stream 200 (fun i -> 1e-7 *. float_of_int i));
      obs 5 Unites.Window_size
        (stream 200 (fun i -> if i = 150 then infinity else float_of_int (i mod 9)));
      obs 5 Unites.Host_cpu
        (stream 200 (fun i -> if i = 100 then nan else -.float_of_int i));
      Unites.restrict_session unites ~id:6 [ Unites.Retransmissions; Unites.Jitter ];
      obs 6 Unites.Throughput [ 1.0 ];
      obs 6 Unites.Delivery_latency [ 0.5 ];
      Unites.count unites ~session:6 Unites.Retransmissions;
      obs 6 Unites.Jitter [ -0.0; 2.0 ];
      Unites.restrict_session unites ~id:9 [ Unites.Timeouts ];
      obs 8 Unites.Throughput [ 2.0 ];
      obs 9 Unites.Throughput [ nan; 4.0 ];
      Unites.count unites ~session:8 Unites.Timeouts;
      Unites.count unites ~session:9 Unites.Timeouts;
      obs 9 Unites.Acks_sent [ 3.0 ];
      Trace.count trace "a-trace-counter-name-longer-than-28";
      for _ = 1 to 3 do
        Trace.count trace "short"
      done);
  Engine.run engine;
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Unites.report fmt unites;
  let empty = Buffer.create 96 in
  Stats.add_summary empty (Stats.summarize (Stats.create ~estimator ()));
  Format.fprintf fmt "empty: %s@." (Buffer.contents empty);
  Buffer.contents buf

let test_unites_edge () =
  check_golden "UNITES report edge values" unites_edge_golden
    ("== p2 ==\n" ^ unites_edge_output Stats.P2 ^ "== reservoir ==\n"
    ^ unites_edge_output Stats.Reservoir)

(* Session routing under a cap: a first contact through each entry point
   that routes (observe, count, register_session, restrict_session),
   sessions interleaved A, B, A, C, and the cap and a TMC changed while
   the session they affect is the last one observed.  Raising the cap
   admits the next new contact; a restriction drops the very next
   whitebox observation outside it, and lifting it lets the next one in. *)
let unites_routing_golden =
  {golden|UNITES metric repository (t=0ns, whitebox=true)
session -5 (overflow):
  throughput_bps       [bb] n=3 mean=5.667 sd=2.517 min=3 p50=6 p95=7.8 p99=7.96 max=8
  jitter_s             [wb] n=2 mean=2.5 sd=0.7071 min=2 p50=2.5 p95=2.95 p99=2.99 max=3
session 0 (scheduler):
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
session 11 (a-observe):
  throughput_bps       [bb] n=2 mean=4 sd=4.243 min=1 p50=4 p95=6.7 p99=6.94 max=7
  jitter_s             [wb] n=2 mean=0.625 sd=0.1768 min=0.5 p50=0.625 p95=0.7375 p99=0.7475 max=0.75
  retransmissions      [wb] n=2 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  timeouts             [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 12 (b-count):
  jitter_s             [wb] n=1 mean=0.25 sd=nan min=0.25 p50=0.25 p95=0.25 p99=0.25 max=0.25
  acks_sent            [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 13 (c-register):
  rtt_s                [bb] n=1 mean=0.125 sd=nan min=0.125 p50=0.125 p95=0.125 p99=0.125 max=0.125
session 15 (e-readmitted):
  throughput_bps       [bb] n=1 mean=4 sd=nan min=4 p50=4 p95=4 p99=4 max=4
  jitter_s             [wb] n=1 mean=1.5 sd=nan min=1.5 p50=1.5 p95=1.5 p99=1.5 max=1.5
session 16 (f-admitted):
  throughput_bps       [bb] n=2 mean=7 sd=2.828 min=5 p50=7 p95=8.8 p99=8.96 max=9
whitebox samples: 12
|golden}

let unites_routing_output () =
  let engine = Engine.create () in
  let u = Unites.create ~reservoir:64 ~estimator:Stats.P2 ~session_cap:3 engine in
  let obs session m v = Unites.observe u ~session m v in
  (* 11, 12 and 13 fill the cap; 14 is first seen by its restriction
     and overflows. *)
  obs 11 Unites.Throughput 1.0;
  Unites.count u ~session:12 Unites.Acks_sent;
  Unites.register_session u ~id:13 ~name:"c-register";
  Unites.restrict_session u ~id:14 [ Unites.Jitter ];
  Unites.register_session u ~id:11 ~name:"a-observe";
  Unites.register_session u ~id:12 ~name:"b-count";
  obs 11 Unites.Jitter 0.5;
  obs 12 Unites.Jitter 0.25;
  obs 11 Unites.Jitter 0.75;
  obs 14 Unites.Jitter 2.0;
  obs 14 Unites.Retransmissions 1.0;
  obs 13 Unites.Rtt 0.125;
  obs 15 Unites.Throughput 3.0;
  (* 15 overflowed and is the last one observed: raising the cap admits
     it at its next contact, ahead of 16; 17 overflows again. *)
  Unites.set_session_cap u 5;
  obs 15 Unites.Throughput 4.0;
  obs 16 Unites.Throughput 5.0;
  obs 17 Unites.Throughput 6.0;
  obs 15 Unites.Jitter 1.5;
  (* Restrict and release 11 while it is the last one observed. *)
  obs 11 Unites.Retransmissions 1.0;
  Unites.restrict_session u ~id:11 [ Unites.Timeouts ];
  obs 11 Unites.Retransmissions 1.0;
  obs 11 Unites.Timeouts 1.0;
  obs 11 Unites.Throughput 7.0;
  Unites.restrict_session u ~id:11 [];
  obs 11 Unites.Retransmissions 1.0;
  (* Lowering the cap keeps every admitted session tracked. *)
  Unites.set_session_cap u 1;
  obs 18 Unites.Throughput 8.0;
  obs 16 Unites.Throughput 9.0;
  obs 18 Unites.Jitter 3.0;
  Unites.register_session u ~id:15 ~name:"e-readmitted";
  Unites.register_session u ~id:16 ~name:"f-admitted";
  Unites.register_session u ~id:18 ~name:"g-overflow";
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Unites.report fmt u;
  Format.fprintf fmt "whitebox samples: %d@." (Unites.whitebox_samples u);
  Buffer.contents buf

let test_unites_routing () =
  check_golden "UNITES routing and restriction" unites_routing_golden
    (unites_routing_output ())

(* One wire-true run pinned end to end: the churn outcome (with its wire
   report line) and the full UNITES repository, including the wire
   pseudo-session.  Any change to the wire path's accounting, the codec's
   byte counts, or frame-level determinism shows up here as a digest or
   counter drift. *)
let wire_swarm_golden =
  {golden|churn: offered=10 admitted=10 degraded=0 refused=0 closed=10 cross=0
delivered: 10 msgs, 22096 bytes; peak live=5; table capacity=16
demux probes: mean=1.000 p99=1; occupancy p99=0.500; timewait drops=0
monitor ticks=14 walked=12; tw sweeps=18 expired=20
partitions=1 wan msgs=0; sync windows=68 skipped=39
events=218 sim_time=7.000s digest=0x6bdd92b6ac9d6f04
wire: encodes=52 decodes=52 rejects=0 fused_sums=0 pool_reuse=1.000
=== unites ===
UNITES metric repository (t=7.000s, whitebox=true)
session -3 (wire):
  wire_encodes         [wb] n=1 mean=52 sd=nan min=52 p50=52 p95=52 p99=52 max=52
  wire_decodes         [wb] n=1 mean=52 sd=nan min=52 p50=52 p95=52 p99=52 max=52
  wire_rejects         [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  wire_fused_sums      [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  wire_pool_reuse      [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session -2 (swarm):
  sessions_open        [wb] n=10 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  demux_probes         [wb] n=52 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  table_occupancy      [wb] n=54 mean=0.3218 sd=0.1626 min=0 p50=0.375 p95=0.5 p99=0.5 max=0.5
session 0 (scheduler):
  sched_events_fired   [wb] n=1 mean=218 sd=nan min=218 p50=218 p95=218 p99=218 max=218
  sched_timers_rearmed [wb] n=1 mean=29 sd=nan min=29 p50=29 p95=29 p99=29 max=29
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=0.5598 sd=nan min=0.5598 p50=0.5598 p95=0.5598 p99=0.5598 max=0.5598
session 1 (sw-0-0):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.496e-06 sd=nan min=6.496e-06 p50=6.496e-06 p95=6.496e-06 p99=6.496e-06 max=6.496e-06
session 2 (sw-1-0):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.522e-06 sd=nan min=6.522e-06 p50=6.522e-06 p95=6.522e-06 p99=6.522e-06 max=6.522e-06
session 3 (sw-2-0):
  setup_latency_s      [wb] n=2 mean=6.135e-05 sd=8.676e-05 min=0 p50=6.135e-05 p95=0.0001166 p99=0.0001215 max=0.0001227
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 4 (sw-3-0):
  setup_latency_s      [wb] n=2 mean=6.138e-05 sd=8.68e-05 min=0 p50=6.138e-05 p95=0.0001166 p99=0.0001215 max=0.0001228
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.496e-06 sd=nan min=6.496e-06 p50=6.496e-06 p95=6.496e-06 p99=6.496e-06 max=6.496e-06
session 5 (sw-1-1):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.522e-06 sd=nan min=6.522e-06 p50=6.522e-06 p95=6.522e-06 p99=6.522e-06 max=6.522e-06
session 6 (sw-0-1):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.496e-06 sd=nan min=6.496e-06 p50=6.496e-06 p95=6.496e-06 p99=6.496e-06 max=6.496e-06
session 7 (sw-4-0):
  rtt_s                [bb] n=1 mean=0.002171 sd=nan min=0.002171 p50=0.002171 p95=0.002171 p99=0.002171 max=0.002171
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.314e-06 sd=nan min=6.314e-06 p50=6.314e-06 p95=6.314e-06 p99=6.314e-06 max=6.314e-06
session 8 (sw-2-1):
  setup_latency_s      [wb] n=2 mean=6.135e-05 sd=8.676e-05 min=0 p50=6.135e-05 p95=0.0001166 p99=0.0001215 max=0.0001227
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 9 (sw-4-1):
  rtt_s                [bb] n=1 mean=0.002221 sd=nan min=0.002221 p50=0.002221 p95=0.002221 p99=0.002221 max=0.002221
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.314e-06 sd=nan min=6.314e-06 p50=6.314e-06 p95=6.314e-06 p99=6.314e-06 max=6.314e-06
session 10 (sw-3-1):
  setup_latency_s      [wb] n=2 mean=6.138e-05 sd=8.68e-05 min=0 p50=6.138e-05 p95=0.0001166 p99=0.0001215 max=0.0001228
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.496e-06 sd=nan min=6.496e-06 p50=6.496e-06 p95=6.496e-06 p99=6.496e-06 max=6.496e-06
trace (dropped log entries: 0):
  close                        10
  deliver                      10
  open                         10
|golden}

let wire_swarm_output () =
  let open Adaptive_workloads in
  let cfg =
    { (Churn.default_config ~sessions:5 ~seed:424242) with
      Churn.churn_rounds = 1;
      wire = true }
  in
  let o = Churn.run cfg in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Format.asprintf "%a" Churn.pp_outcome o);
  Buffer.add_string buf "\n=== unites ===\n";
  let fmt = Format.formatter_of_buffer buf in
  Unites.report fmt (List.hd o.Churn.unites);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_wire_swarm () =
  check_golden "wire-true swarm report" wire_swarm_golden (wire_swarm_output ())

(* One steered run pinned end to end: a small swarm on the scarce
   steering topology under a fixed bit-error burst, with the STEER
   policy engine live.  The outcome block (including the steer swap
   counters and contract-aware goodput) and the full UNITES repository —
   notably the "steer" pseudo-session carrying the per-swap cost
   accounting — are pinned byte-for-byte.  Any drift in the policy
   rules, the swap accounting, or steered-run determinism lands here. *)
let steer_swarm_golden = {golden|churn: offered=12 admitted=12 degraded=0 refused=0 closed=12 cross=0
delivered: 76 msgs, 100900 bytes; peak live=6; table capacity=16
demux probes: mean=1.000 p99=1; occupancy p99=0.625; timewait drops=0
monitor ticks=0 walked=0; tw sweeps=18 expired=24
partitions=1 wan msgs=0; sync windows=113 skipped=58
events=854 sim_time=7.000s digest=0x93799c1458cb517e
steer: swaps=8 blocked=14 faults=1 violations=0 goodput=100900
=== unites ===
UNITES metric repository (t=7.000s, whitebox=true)
session -4 (steer):
  steer_swaps          [wb] n=8 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  steer_blocked        [wb] n=14 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  steer_time_in_config_s [wb] n=8 mean=0.1826 sd=0.2387 min=0 p50=0.1303 p95=0.5717 p99=0.6743 max=0.7
session -2 (swarm):
  sessions_open        [wb] n=12 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  demux_probes         [wb] n=236 mean=1 sd=0 min=1 p50=1 p95=1 p99=1 max=1
  table_occupancy      [wb] n=62 mean=0.373 sd=0.169 min=0 p50=0.4375 p95=0.6219 p99=0.625 max=0.625
session -1 (chaos):
  faults_injected      [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
session 0 (scheduler):
  sched_events_fired   [wb] n=1 mean=854 sd=nan min=854 p50=854 p95=854 p99=854 max=854
  sched_timers_rearmed [wb] n=1 mean=51 sd=nan min=51 p50=51 p95=51 p99=51 max=51
  sched_cancelled_ratio [wb] n=1 mean=0 sd=nan min=0 p50=0 p95=0 p99=0 max=0
  sched_wheel_hit_rate [wb] n=1 mean=0.6697 sd=nan min=0.6697 p50=0.6697 p95=0.6697 p99=0.6697 max=0.6697
session 1 (sw-0-0):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 2 (sw-1-0):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.509e-06 sd=nan min=6.509e-06 p50=6.509e-06 p95=6.509e-06 p99=6.509e-06 max=6.509e-06
session 3 (sw-2-0):
  setup_latency_s      [wb] n=2 mean=0.0001105 sd=0.0001562 min=0 p50=0.0001105 p95=0.0002099 p99=0.0002187 max=0.0002209
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.47e-06 sd=nan min=6.47e-06 p50=6.47e-06 p95=6.47e-06 p99=6.47e-06 max=6.47e-06
session 4 (sw-0-1):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 5 (sw-3-0):
  setup_latency_s      [wb] n=2 mean=0.0001108 sd=0.0001566 min=0 p50=0.0001108 p95=0.0002104 p99=0.0002193 max=0.0002215
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 6 (sw-1-1):
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.509e-06 sd=nan min=6.509e-06 p50=6.509e-06 p95=6.509e-06 p99=6.509e-06 max=6.509e-06
session 7 (sw-4-0):
  rtt_s                [bb] n=5 mean=0.001705 sd=0.001075 min=0.000551 p50=0.001755 p95=0.003054 p99=0.003276 max=0.003332
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.301e-06 sd=nan min=6.301e-06 p50=6.301e-06 p95=6.301e-06 p99=6.301e-06 max=6.301e-06
session 8 (sw-5-0):
  rtt_s                [bb] n=21 mean=0.002829 sd=0.002484 min=0.0007518 p50=0.002649 p95=0.003855 p99=0.01107 max=0.01287
  setup_latency_s      [wb] n=2 mean=0.0001173 sd=0.0001659 min=0 p50=0.0001173 p95=0.0002229 p99=0.0002323 max=0.0002347
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=1.443e-05 sd=nan min=1.443e-05 p50=1.443e-05 p95=1.443e-05 p99=1.443e-05 max=1.443e-05
session 9 (sw-3-1):
  setup_latency_s      [wb] n=2 mean=0.0001108 sd=0.0001566 min=0 p50=0.0001108 p95=0.0002104 p99=0.0002193 max=0.0002215
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.483e-06 sd=nan min=6.483e-06 p50=6.483e-06 p95=6.483e-06 p99=6.483e-06 max=6.483e-06
session 10 (sw-2-1):
  setup_latency_s      [wb] n=2 mean=0.0001105 sd=0.0001562 min=0 p50=0.0001105 p95=0.0002099 p99=0.0002187 max=0.0002209
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.47e-06 sd=nan min=6.47e-06 p50=6.47e-06 p95=6.47e-06 p99=6.47e-06 max=6.47e-06
session 11 (sw-5-1):
  rtt_s                [bb] n=2 mean=0.002451 sd=0.0001443 min=0.002349 p50=0.002451 p95=0.002543 p99=0.002551 max=0.002553
  setup_latency_s      [wb] n=2 mean=0.000105 sd=0.0001485 min=0 p50=0.000105 p95=0.0001995 p99=0.0002079 max=0.00021
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.223e-06 sd=nan min=6.223e-06 p50=6.223e-06 p95=6.223e-06 p99=6.223e-06 max=6.223e-06
session 12 (sw-4-1):
  rtt_s                [bb] n=2 mean=0.002464 sd=0.0001628 min=0.002349 p50=0.002464 p95=0.002568 p99=0.002577 max=0.002579
  setup_latency_s      [wb] n=2 mean=0 sd=0 min=0 p50=0 p95=0 p99=0 max=0
  control_pdus         [wb] n=1 mean=1 sd=nan min=1 p50=1 p95=1 p99=1 max=1
  host_cpu_s           [wb] n=1 mean=6.301e-06 sd=nan min=6.301e-06 p50=6.301e-06 p95=6.301e-06 p99=6.301e-06 max=6.301e-06
trace (dropped log entries: 0):
  chaos.fault.ber_burst        1
  close                        12
  deliver                      76
  open                         12
  steer.swap                   8
|golden}

let steer_swarm_output () =
  let open Adaptive_workloads in
  let open Adaptive_chaos in
  let burst =
    [ { Fault.cls = Fault.Ber_burst; start = Time.ms 150; duration = Time.ms 900;
        target = 0; intensity = 0.8 } ]
  in
  let cfg =
    { (Churn.default_config ~sessions:6 ~seed:31337) with
      Churn.churn_rounds = 1;
      monitored_share = 0;
      payload_bytes = 12_000;
      link_bps = 30e6;
      link_mtu = 1500;
      steer = Some Adaptive_core.Steer.default_policy;
      chaos = Some burst }
  in
  let o = Churn.run cfg in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Format.asprintf "%a" Churn.pp_outcome o);
  Buffer.add_string buf "\n=== unites ===\n";
  let fmt = Format.formatter_of_buffer buf in
  Unites.report fmt (List.hd o.Churn.unites);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_steer_swarm () =
  check_golden "steered swarm report" steer_swarm_golden (steer_swarm_output ())

(* The table alone: from its title line up to the blank line after it. *)
let test_e5_delivery () =
  let out = Bench_harness.Util.with_captured Bench_harness.Experiments.e5_reconfig in
  let title = "delivered segments per second:\n" in
  let find_from i needle =
    let n = String.length needle in
    let rec scan j =
      if j + n > String.length out then Alcotest.failf "%S not in the e5 output" needle
      else if String.sub out j n = needle then j
      else scan (j + 1)
    in
    scan i
  in
  let start = find_from 0 title in
  let stop = find_from start "\n\n" in
  check_golden "e5 delivery table" e5_delivery_golden
    (String.sub out start (stop + 1 - start))

(* The harness gate: main.exe exits 1 when [Util.shape_failures] is
   non-zero, so a failing check must be counted and a passing one, or a
   non-gating timing check, must not. *)
let test_shape_gate () =
  let module U = Bench_harness.Util in
  let before = !U.shape_failures in
  let out =
    U.with_captured (fun () ->
        U.shape_check "passes" true;
        Alcotest.(check int) "a passing check is not counted" before
          !U.shape_failures;
        U.shape_check "fails" false;
        Alcotest.(check int) "a failing check is counted" (before + 1)
          !U.shape_failures;
        U.timing_check "noisy timing" false;
        Alcotest.(check int) "a timing check does not gate" (before + 1)
          !U.shape_failures)
  in
  U.shape_failures := before;
  Alcotest.(check string) "line format unchanged"
    (Printf.sprintf "shape: %-58s OK\nshape: %-58s MISMATCH\nshape: %-58s MISMATCH\n"
       "passes" "fails" "noisy timing")
    out

(* A label passed as a [%s] argument is printed as is, so a header that
   wants a percent sign must spell it [%], not the format escape [%%]. *)
let test_percent_headers () =
  let out = Bench_harness.Util.with_captured Bench_harness.Ablations.a2_fec_group in
  let contains needle =
    let n = String.length needle in
    let rec scan i = i + n <= String.length out && (String.sub out i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "no literal %% in the A2 table" false (contains "%%");
  Alcotest.(check bool) "headers end in one %" true
    (contains " delivered% " && contains " overhead%\n")

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "table1 output is pinned" `Quick test_table1;
        Alcotest.test_case "table2 output is pinned" `Quick test_table2;
        Alcotest.test_case "UNITES report is pinned" `Quick test_unites_report;
        Alcotest.test_case "UNITES report edge values are pinned" `Quick
          test_unites_edge;
        Alcotest.test_case "UNITES session routing is pinned" `Quick
          test_unites_routing;
        Alcotest.test_case "wire-true swarm report is pinned" `Quick
          test_wire_swarm;
        Alcotest.test_case "steered swarm report is pinned" `Quick
          test_steer_swarm;
        Alcotest.test_case "e5 delivery timeline is pinned" `Quick test_e5_delivery;
        Alcotest.test_case "shape checks count failures" `Quick test_shape_gate;
        Alcotest.test_case "table headers print a single %" `Quick test_percent_headers;
      ] );
  ]
