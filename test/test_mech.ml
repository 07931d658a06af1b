(* Tests for the protocol mechanism repository: Pdu, Params, Window,
   Transmission, Rtt, Reorder, Fec, Playout, Host, Connection, Recovery. *)

open Adaptive_sim
open Adaptive_mech

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seg ?(bytes = 100) ?(stamp = Time.zero) ?(last = false) seq =
  Pdu.seg ~seq ~bytes ~stamp ~last ()

(* ------------------------------------------------------------------ Pdu *)

let test_pdu_conn_id () =
  let samples =
    [
      Pdu.Data { conn = 7; seg = seg 0; retransmit = false; tx_stamp = Time.zero };
      Pdu.Parity
        { conn = 7; group_start = 0; group_len = 2; covered = [ seg 0; seg 1 ];
          parity = None };
      Pdu.Ack { conn = 7; cum = 1; window = 4; sack = []; echo = Time.zero };
      Pdu.Nack { conn = 7; missing = [ 3 ] };
      Pdu.Syn { conn = 7; blob = "b"; first = None };
      Pdu.Syn_ack { conn = 7; accepted = true; blob = "b" };
      Pdu.Ack_of_syn { conn = 7 };
      Pdu.Fin { conn = 7; graceful = true };
      Pdu.Fin_ack { conn = 7 };
      Pdu.Signal { conn = 7; blob = "s" };
      Pdu.Signal_ack { conn = 7; blob = "r" };
    ]
  in
  List.iter (fun p -> check_int "conn id" 7 (Pdu.conn_id p)) samples

let test_pdu_wire_bytes () =
  let data =
    Pdu.Data { conn = 1; seg = seg ~bytes:500 0; retransmit = false; tx_stamp = Time.zero }
  in
  check_int "data wire" (32 + 500) (Pdu.wire_bytes data);
  let ack =
    Pdu.Ack { conn = 1; cum = 5; window = 8; sack = [ 7; 9 ]; echo = Time.ms 3 }
  in
  check_int "ack wire" (24 + 8) (Pdu.wire_bytes ack);
  let parity =
    Pdu.Parity
      { conn = 1; group_start = 0; group_len = 2;
        covered = [ seg ~bytes:300 0; seg ~bytes:400 1 ]; parity = None }
  in
  (* Parity payload is the max covered size; each covered entry costs a
     16-byte descriptor. *)
  check_int "parity wire" (16 + 32 + 400) (Pdu.wire_bytes parity);
  let syn = Pdu.Syn { conn = 1; blob = "abcd"; first = None } in
  check_int "syn wire" 28 (Pdu.wire_bytes syn)

(* ---------------------------------------------------------------- Params *)

let roundtrip to_s of_s v = of_s (to_s v) = Some v

let test_params_roundtrip () =
  let open Params in
  check_bool "conn" true
    (List.for_all (roundtrip connection_to_string connection_of_string)
       [ Implicit; Two_way; Three_way ]);
  check_bool "tx" true
    (List.for_all (roundtrip transmission_to_string transmission_of_string)
       [
         Stop_and_wait;
         Sliding_window { window = 17 };
         Rate_based { rate_bps = 1500000.0; burst = 4 };
       ]);
  check_bool "cc" true
    (List.for_all (roundtrip congestion_window_to_string congestion_window_of_string)
       [ No_congestion_control; Slow_start { initial = 2; threshold = 16 } ]);
  check_bool "det" true
    (List.for_all (roundtrip detection_to_string detection_of_string)
       [ No_detection; Internet_checksum; Crc32 ]);
  check_bool "rep" true
    (List.for_all (roundtrip reporting_to_string reporting_of_string)
       [
         No_report;
         Cumulative_ack { delay = Time.ms 2 };
         Selective_ack { delay = Time.zero };
         Nack_on_gap;
       ]);
  check_bool "rec" true
    (List.for_all (roundtrip recovery_to_string recovery_of_string)
       [
         No_recovery;
         Go_back_n;
         Selective_repeat;
         Forward_error_correction { group = 8 };
       ]);
  check_bool "ord" true
    (List.for_all (roundtrip ordering_to_string ordering_of_string) [ Unordered; Ordered ]);
  check_bool "dup" true
    (List.for_all (roundtrip duplicates_to_string duplicates_of_string)
       [ Accept_duplicates; Drop_duplicates ]);
  check_bool "del" true
    (List.for_all (roundtrip delivery_to_string delivery_of_string)
       [ As_available; Playout { target = Time.ms 80 } ])

let test_params_garbage () =
  check_bool "bad conn" true (Params.connection_of_string "nonsense" = None);
  check_bool "bad tx" true (Params.transmission_of_string "window:" = None);
  check_bool "bad rec" true (Params.recovery_of_string "fec" = None);
  check_bool "bad del" true (Params.delivery_of_string "playout:x" = None)

(* ---------------------------------------------------------------- Window *)

let test_window_track_ack () =
  let w = Window.create () in
  check_bool "empty" true (Window.is_empty w);
  List.iter (fun s -> Window.track w s ~at:(Time.ms s.Pdu.seq)) [ seg 0; seg 1; seg 2; seg 3 ];
  check_int "in flight" 4 (Window.in_flight w);
  check_int "bytes" 400 (Window.bytes_in_flight w);
  let outstanding () = List.map (fun s -> s.Pdu.seq) (Window.unsacked_from w 0) in
  Alcotest.(check (list int)) "outstanding" [ 0; 1; 2; 3 ] (outstanding ());
  let acked = Window.on_cumulative_ack w ~cum:2 in
  Alcotest.(check (list int)) "acked in order" [ 0; 1 ]
    (List.map (fun e -> e.Window.seg.Pdu.seq) acked);
  check_int "remaining" 2 (Window.in_flight w);
  Alcotest.(check (list int)) "still outstanding" [ 2; 3 ] (outstanding ())

let test_window_sack_queries () =
  let w = Window.create () in
  List.iter (fun s -> Window.track w s ~at:Time.zero)
    [ seg 0; seg 1; seg 2; seg 3; seg 4 ];
  Window.mark_sacked w [ 1; 3 ];
  Alcotest.(check (list int)) "gbn set skips sacked" [ 0; 2; 4 ]
    (List.map (fun s -> s.Pdu.seq) (Window.unsacked_from w 0));
  Alcotest.(check (list int)) "gbn from 2" [ 2; 4 ]
    (List.map (fun s -> s.Pdu.seq) (Window.unsacked_from w 2));
  Alcotest.(check (list int)) "selective missing" [ 2 ]
    (List.map (fun s -> s.Pdu.seq) (Window.unsacked_missing w [ 1; 2; 3 ]));
  Window.mark_sacked w [ 0 ];
  Alcotest.(check (list int)) "gbn set skips a sacked head" [ 2; 4 ]
    (List.map (fun s -> s.Pdu.seq) (Window.unsacked_from w 0))

let test_window_touch () =
  let w = Window.create () in
  Window.track w (seg 5) ~at:(Time.ms 1);
  Window.touch w 5 ~at:(Time.ms 9);
  let e = Option.get (Window.find w 5) in
  check_int "retries" 1 e.Window.retries;
  check_int "sent_at updated" (Time.ms 9) e.Window.sent_at;
  Window.touch w 99 ~at:Time.zero (* unknown: no-op *)

let prop_window_conservation =
  QCheck2.Test.make ~name:"in_flight = tracked - cumulatively acked" ~count:200
    QCheck2.Gen.(pair (int_range 1 60) (int_range 0 70))
    (fun (n, cum) ->
      let w = Window.create () in
      for i = 0 to n - 1 do
        Window.track w (seg i) ~at:Time.zero
      done;
      let acked = Window.on_cumulative_ack w ~cum in
      Window.in_flight w = n - List.length acked
      && List.length acked = min n (max 0 cum))

(* ---------------------------------------------------------- Transmission *)

let no_cc = Params.No_congestion_control

(* A pacer of [rate_bps] whose bucket holds [burst_bytes]. *)
let pacer ~rate_bps ~burst_bytes =
  Transmission.create (Params.Rate_based { rate_bps; burst = 1 }) no_cc
    ~segment_bytes:burst_bytes ~peer_window:64

let windowed ?(congestion = no_cc) ?(peer_window = 100) window =
  Transmission.create (Params.Sliding_window { window }) congestion ~segment_bytes:1000
    ~peer_window

let gate =
  Alcotest.testable
    (fun fmt g ->
      Format.pp_print_string fmt
        (match g with
        | Transmission.Send -> "Send"
        | Transmission.Deferred -> "Deferred"
        | Transmission.Blocked -> "Blocked"))
    ( = )

(* Admit [bytes] now, with nothing in flight; a deferred departure
   records the instant it runs in [fired]. *)
let admit ?(in_flight = 0) engine tx fired bytes =
  Transmission.admit tx engine ~in_flight ~bytes
    (fun () -> fired := Engine.now engine :: !fired)
    ()

let test_rate_burst_then_paced () =
  let engine = Engine.create () in
  let tx = pacer ~rate_bps:8000.0 ~burst_bytes:1000 in
  let fired = ref [] in
  (* Burst allowance: the first 1000 bytes go immediately. *)
  Alcotest.check gate "immediate" Transmission.Send (admit engine tx fired 1000);
  (* Now empty: 500 bytes need 500*8/8000 = 0.5 s. *)
  Alcotest.check gate "paced" Transmission.Deferred (admit engine tx fired 500);
  Engine.run engine ~until:(Time.sec 1.0);
  Alcotest.(check (list int)) "deferred to 0.5 s" [ Time.sec 0.5 ] !fired;
  (* Tokens refill over time. *)
  Alcotest.check gate "after refill" Transmission.Send (admit engine tx fired 1000)

let test_rate_set_rate () =
  let engine = Engine.create () in
  let tx = pacer ~rate_bps:8000.0 ~burst_bytes:100 in
  let fired = ref [] in
  ignore (admit engine tx fired 100);
  Transmission.rebind tx (Params.Rate_based { rate_bps = 16000.0; burst = 1 }) no_cc
    ~segment_bytes:100;
  (* 100 bytes at 16 kb/s = 50 ms. *)
  Alcotest.check gate "paced" Transmission.Deferred (admit engine tx fired 100);
  Engine.run engine;
  Alcotest.(check (list int)) "faster pacing" [ Time.ms 50 ] !fired;
  Alcotest.check_raises "bad rate" (Invalid_argument "Transmission: unrunnable scheme")
    (fun () ->
      Transmission.rebind tx (Params.Rate_based { rate_bps = 0.0; burst = 1 }) no_cc
        ~segment_bytes:100)

let test_rate_burst_cap () =
  let engine = Engine.create () in
  let tx = pacer ~rate_bps:8000.0 ~burst_bytes:200 in
  let fired = ref [] in
  (* Long idle does not accumulate more than the burst. *)
  Engine.run engine ~until:(Time.sec 100.0);
  Alcotest.check gate "bounded burst" Transmission.Send (admit engine tx fired 200);
  Alcotest.check gate "but not more" Transmission.Deferred (admit engine tx fired 1)

(* Under a wide sliding window the congestion window is the send
   window. *)
let test_slowstart_growth () =
  let tx = windowed ~congestion:(Params.Slow_start { initial = 1; threshold = 8 }) 100 in
  let ack n = Transmission.on_ack tx ~window:100 ~acked:n in
  check_int "initial" 1 (Transmission.send_window tx);
  ack 7;
  check_int "exponential to threshold" 8 (Transmission.send_window tx);
  (* Above threshold growth is ~1/cwnd per ack: 9 acks ≈ +1 window. *)
  ack 9;
  check_int "additive afterwards" 9 (Transmission.send_window tx);
  (* Whole extra round trip of acks for the next increment. *)
  ack 9;
  check_int "one per round trip" 10 (Transmission.send_window tx)

let test_slowstart_loss () =
  let tx = windowed ~congestion:(Params.Slow_start { initial = 2; threshold = 64 }) 100 in
  let ack n = Transmission.on_ack tx ~window:100 ~acked:n in
  ack 30;
  check_int "grown" 32 (Transmission.send_window tx);
  Transmission.on_loss tx;
  check_int "window collapses" 2 (Transmission.send_window tx);
  (* The threshold is now 16: growth is exponential up to it and
     additive past it. *)
  ack 14;
  check_int "exponential to the halved threshold" 16 (Transmission.send_window tx);
  ack 1;
  check_int "additive past it" 16 (Transmission.send_window tx);
  Alcotest.check_raises "bad args" (Invalid_argument "Transmission: unrunnable scheme")
    (fun () -> ignore (windowed ~congestion:(Params.Slow_start { initial = 0; threshold = 1 }) 8))

let test_transmission_send_window () =
  let saw = Transmission.create Params.Stop_and_wait no_cc ~segment_bytes:1000 ~peer_window:100 in
  check_int "stop and wait" 1 (Transmission.send_window saw);
  let tx = windowed ~peer_window:7 10 in
  check_int "peer advertisement binds" 7 (Transmission.send_window tx);
  Transmission.on_ack tx ~window:100 ~acked:0;
  check_int "own window binds" 10 (Transmission.send_window tx);
  Transmission.on_ack tx ~window:0 ~acked:0;
  check_int "a closed advertisement still lets one go" 1 (Transmission.send_window tx);
  let cc = windowed ~congestion:(Params.Slow_start { initial = 2; threshold = 8 }) 10 in
  check_int "congestion window binds" 2 (Transmission.send_window cc);
  let paced =
    Transmission.create (Params.Rate_based { rate_bps = 1e6; burst = 4 })
      (Params.Slow_start { initial = 2; threshold = 8 }) ~segment_bytes:1000 ~peer_window:1
  in
  check_int "no window under rate control" max_int (Transmission.send_window paced)

let test_transmission_admit () =
  let engine = Engine.create () in
  let fired = ref [] in
  let tx = windowed ~peer_window:3 10 in
  Alcotest.check gate "window open" Transmission.Send (admit ~in_flight:2 engine tx fired 1000);
  Alcotest.check gate "window full" Transmission.Blocked
    (admit ~in_flight:3 engine tx fired 1000);
  (* Rate control ignores the window; one deferral is pending at most,
     and releasing cancels it. *)
  let paced = pacer ~rate_bps:8000.0 ~burst_bytes:100 in
  Alcotest.check gate "no window" Transmission.Send
    (admit ~in_flight:1000 engine paced fired 100);
  Alcotest.check gate "deferred" Transmission.Deferred (admit engine paced fired 100);
  Alcotest.check gate "deferred again" Transmission.Deferred (admit engine paced fired 100);
  Engine.run engine;
  Alcotest.(check (list int)) "runs once" [ Time.ms 100 ] !fired;
  Alcotest.check gate "deferred after it ran" Transmission.Deferred
    (admit engine paced fired 200);
  Transmission.release paced;
  Engine.run engine;
  Alcotest.(check (list int)) "released" [ Time.ms 100 ] !fired

(* The slowest runnable pacer is 1 b/s: a full 65,535-byte segment then
   waits 524,280 s, still a representable time.  A finite positive rate
   below it is refused, since at 1e-300 b/s the wait overflows and every
   segment would depart at once. *)
let test_transmission_rate_floor () =
  let refused rate_bps =
    Alcotest.check_raises (Printf.sprintf "%g b/s refused" rate_bps)
      (Invalid_argument "Transmission: unrunnable scheme") (fun () ->
        ignore (pacer ~rate_bps ~burst_bytes:1000))
  in
  List.iter refused [ 1e-300; 0.5; Float.pred 1.0 ];
  let engine = Engine.create () in
  let fired = ref [] in
  let slowest = pacer ~rate_bps:1.0 ~burst_bytes:65_535 in
  Alcotest.check gate "a full bucket sends" Transmission.Send
    (admit engine slowest fired 65_535);
  Alcotest.check gate "the next waits" Transmission.Deferred
    (admit engine slowest fired 65_535);
  Engine.run engine;
  Alcotest.(check (list int)) "after 65,535 B at 1 b/s" [ Time.sec 524_280.0 ] !fired

let test_transmission_rebind () =
  let engine = Engine.create () in
  let fired = ref [] in
  let rate rate_bps = Params.Rate_based { rate_bps; burst = 1 } in
  let tx = pacer ~rate_bps:8000.0 ~burst_bytes:100 in
  ignore (admit engine tx fired 100);
  (* Rate to rate keeps the pacer: the bucket stays empty. *)
  Transmission.rebind tx (rate 16000.0) no_cc ~segment_bytes:100;
  Alcotest.check gate "tokens carried over" Transmission.Deferred (admit engine tx fired 100);
  Transmission.release tx;
  (* Through a window and back: a fresh pacer, full bucket. *)
  Transmission.rebind tx (Params.Sliding_window { window = 4 }) no_cc ~segment_bytes:100;
  Transmission.rebind tx (rate 8000.0) no_cc ~segment_bytes:100;
  Alcotest.check gate "fresh bucket" Transmission.Send (admit engine tx fired 100);
  (* The congestion window is kept while slow start stays bound. *)
  let slow initial = Params.Slow_start { initial; threshold = 64 } in
  let w = Params.Sliding_window { window = 100 } in
  let cc = windowed ~congestion:(slow 2) 100 in
  Transmission.on_ack cc ~window:100 ~acked:6;
  Transmission.rebind cc w (slow 1) ~segment_bytes:1000;
  check_int "window kept" 8 (Transmission.send_window cc);
  Transmission.rebind cc (rate 8000.0) (slow 1) ~segment_bytes:1000;
  Transmission.rebind cc w (slow 1) ~segment_bytes:1000;
  check_int "kept across rate control" 8 (Transmission.send_window cc);
  Transmission.rebind cc w no_cc ~segment_bytes:1000;
  Transmission.rebind cc w (slow 3) ~segment_bytes:1000;
  check_int "unbound and bound again: fresh" 3 (Transmission.send_window cc)

let test_transmission_backlog () =
  let tx = pacer ~rate_bps:8000.0 ~burst_bytes:100 in
  check_int "1000 bytes at 8 kb/s" (Time.sec 1.0) (Transmission.backlog_delay tx ~bytes:1000);
  check_int "nothing queued" 0 (Transmission.backlog_delay tx ~bytes:0);
  check_int "no pacer" 0 (Transmission.backlog_delay (windowed 8) ~bytes:1000)

(* The per-segment and per-ack calls on the rate and window paths, from a
   periodic 1 ms tick: a 1 MB/s pacer refills the 1000 bytes each tick
   admits. *)
let test_transmission_alloc_free () =
  let engine = Engine.create () in
  let paced =
    Transmission.create (Params.Rate_based { rate_bps = 8e6; burst = 4 }) no_cc
      ~segment_bytes:1000 ~peer_window:64
  in
  let plain = windowed 16 in
  let slow = windowed ~congestion:(Params.Slow_start { initial = 1; threshold = 8 }) 16 in
  let sent = ref 0 in
  let segment tx =
    (match Transmission.admit tx engine ~in_flight:0 ~bytes:1000 ignore () with
    | Transmission.Send -> incr sent
    | Transmission.Deferred | Transmission.Blocked -> ());
    Transmission.on_ack tx ~window:32 ~acked:1;
    (* A loss every 100 ms, so slow start also grows past its
       threshold. *)
    if Engine.now engine mod Time.ms 100 = 0 then Transmission.on_loss tx
  in
  let tick () =
    segment paced;
    segment plain;
    segment slow
  in
  ignore (Engine.Timer.periodic engine ~interval:(Time.ms 1) tick);
  let run n =
    for _ = 1 to n do
      ignore (Engine.step engine)
    done
  in
  run 10;
  let before = Gc.minor_words () in
  run 100_000;
  Alcotest.(check (float 0.0)) "100k ticks" 0.0 (Gc.minor_words () -. before);
  check_int "every admission went" (3 * 100_010) !sent

(* ------------------------------------------------------------------- Rtt *)

let test_rtt_first_sample () =
  let r = Rtt.create ~initial_rto:(Time.sec 2.0) () in
  check_int "initial rto" (Time.sec 2.0) (Rtt.rto r);
  check_bool "no srtt" true (Rtt.srtt r = None);
  Rtt.observe r (Time.ms 100);
  check_int "srtt = sample" (Time.ms 100) (Option.get (Rtt.srtt r));
  check_int "rttvar = sample/2" (Time.ms 50) (Option.get (Rtt.rttvar r));
  check_int "samples" 1 (Rtt.samples r)

let test_rtt_convergence () =
  let r = Rtt.create () in
  for _ = 1 to 50 do
    Rtt.observe r (Time.ms 80)
  done;
  let srtt = Option.get (Rtt.srtt r) in
  check_bool "converged" true (abs (srtt - Time.ms 80) < Time.ms 2);
  (* Constant samples: variance floor keeps RTO sane. *)
  check_bool "rto >= srtt + floor" true (Rtt.rto r >= srtt + Time.ms 10)

let test_rtt_backoff () =
  let r = Rtt.create () in
  Rtt.observe r (Time.ms 100);
  let base = Rtt.rto r in
  Rtt.on_timeout r;
  check_int "doubled" (min (Time.sec 60.0) (2 * base)) (Rtt.rto r);
  Rtt.on_timeout r;
  check_int "doubled again" (min (Time.sec 60.0) (4 * base)) (Rtt.rto r);
  Rtt.observe r (Time.ms 100);
  (* The new sample also shrinks the variance, so just check the backoff
     multiplier is gone. *)
  check_bool "sample resets backoff" true (Rtt.rto r <= base)

let test_rtt_clamps () =
  let r = Rtt.create () in
  Rtt.observe r (Time.us 1);
  check_bool "min clamp" true (Rtt.rto r >= Time.ms 10);
  let r2 = Rtt.create () in
  Rtt.observe r2 (Time.sec 100.0);
  check_bool "max clamp" true (Rtt.rto r2 <= Time.sec 60.0)

(* --------------------------------------------------------------- Reorder *)

let mk_reorder ?start ?(ordering = Params.Ordered) ?(duplicates = Params.Drop_duplicates)
    () =
  Reorder.create ?start ~ordering ~duplicates ()

let delivered = function
  | Reorder.Deliver segs -> List.map (fun s -> s.Pdu.seq) segs
  | Reorder.Buffered | Reorder.Duplicate -> []

let test_reorder_in_order () =
  let r = mk_reorder () in
  Alcotest.(check (list int)) "0" [ 0 ] (delivered (Reorder.offer r (seg 0)));
  Alcotest.(check (list int)) "1" [ 1 ] (delivered (Reorder.offer r (seg 1)));
  check_int "expected" 2 (Reorder.expected r);
  check_int "highest" 1 (Reorder.highest_seen r);
  Alcotest.(check (list int)) "no gaps" [] (Reorder.missing r)

let test_reorder_out_of_order () =
  let r = mk_reorder () in
  check_bool "2 buffered" true (Reorder.offer r (seg 2) = Reorder.Buffered);
  check_bool "1 buffered" true (Reorder.offer r (seg 1) = Reorder.Buffered);
  Alcotest.(check (list int)) "gap" [ 0 ] (Reorder.missing r);
  Alcotest.(check (list int)) "sack" [ 1; 2 ] (Reorder.sack_list r);
  check_int "buffered count" 2 (Reorder.buffered_count r);
  Alcotest.(check (list int)) "run released" [ 0; 1; 2 ]
    (delivered (Reorder.offer r (seg 0)));
  check_int "expected" 3 (Reorder.expected r)

let test_reorder_duplicates () =
  let r = mk_reorder () in
  ignore (Reorder.offer r (seg 0));
  check_bool "dup dropped" true (Reorder.offer r (seg 0) = Reorder.Duplicate);
  let r2 = mk_reorder ~duplicates:Params.Accept_duplicates () in
  ignore (Reorder.offer r2 (seg 0));
  Alcotest.(check (list int)) "dup accepted" [ 0 ] (delivered (Reorder.offer r2 (seg 0)))

let test_reorder_unordered () =
  let r = mk_reorder ~ordering:Params.Unordered () in
  Alcotest.(check (list int)) "5 released immediately" [ 5 ]
    (delivered (Reorder.offer r (seg 5)));
  Alcotest.(check (list int)) "gaps tracked" [ 0; 1; 2; 3; 4 ] (Reorder.missing r);
  check_int "no ordered buffering" 0 (Reorder.buffered_count r);
  check_bool "dup still detected" true (Reorder.offer r (seg 5) = Reorder.Duplicate)

let test_reorder_start_offset () =
  let r = mk_reorder ~start:100 () in
  check_int "expected at start" 100 (Reorder.expected r);
  Alcotest.(check (list int)) "delivery from start" [ 100 ]
    (delivered (Reorder.offer r (seg 100)))

let test_reorder_advance_past_gap () =
  let r = mk_reorder () in
  ignore (Reorder.offer r (seg 0));
  ignore (Reorder.offer r (seg 3));
  ignore (Reorder.offer r (seg 4));
  let skipped, released = Reorder.advance_past_gap r in
  check_int "skipped 1 and 2" 2 skipped;
  Alcotest.(check (list int)) "released run" [ 3; 4 ]
    (List.map (fun s -> s.Pdu.seq) released);
  check_int "expected past run" 5 (Reorder.expected r);
  check_bool "no-op without gap" true (Reorder.advance_past_gap r = (0, []))

let prop_reorder_permutation =
  QCheck2.Test.make ~name:"any arrival order delivers 0..n-1 in order exactly once"
    ~count:300
    QCheck2.Gen.(int_range 1 40 >>= fun n -> pair (return n) (shuffle_l (List.init n Fun.id)))
    (fun (n, order) ->
      let r = mk_reorder () in
      let out = ref [] in
      List.iter
        (fun s ->
          match Reorder.offer r (seg s) with
          | Reorder.Deliver segs ->
            out := List.rev_append (List.map (fun x -> x.Pdu.seq) segs) !out
          | Reorder.Buffered | Reorder.Duplicate -> ())
        order;
      List.rev !out = List.init n Fun.id)

(* Arrivals with duplicates, in either ordering mode, with a gap skipped
   now and then: [has_gap] always answers what [missing] would. *)
let prop_reorder_has_gap =
  QCheck2.Test.make ~name:"has_gap agrees with missing" ~count:200
    QCheck2.Gen.(pair bool (list_size (int_range 1 80) (int_bound 40)))
    (fun (ordered, arrivals) ->
      let ordering = if ordered then Params.Ordered else Params.Unordered in
      let r = mk_reorder ~ordering () in
      List.for_all
        (fun s ->
          ignore (Reorder.offer r (seg s));
          if s mod 7 = 0 then ignore (Reorder.advance_past_gap r);
          Reorder.has_gap r = (Reorder.missing r <> []))
        arrivals)

let prop_reorder_dups_never_delivered_twice =
  QCheck2.Test.make ~name:"drop-duplicates never delivers a seq twice" ~count:200
    QCheck2.Gen.(list_size (int_range 1 80) (int_bound 15))
    (fun arrivals ->
      let r = mk_reorder ~ordering:Params.Unordered () in
      let counts = Hashtbl.create 16 in
      List.iter
        (fun s ->
          match Reorder.offer r (seg s) with
          | Reorder.Deliver segs ->
            List.iter
              (fun x ->
                Hashtbl.replace counts x.Pdu.seq
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts x.Pdu.seq)))
              segs
          | Reorder.Buffered | Reorder.Duplicate -> ())
        arrivals;
      Hashtbl.fold (fun _ c acc -> acc && c = 1) counts true)

(* ------------------------------------------------------------------- Fec *)

let test_fec_sender_groups () =
  let s = Fec.Sender.create ~group:3 in
  check_bool "no parity yet" true (Fec.Sender.push s (seg 0) = None);
  check_bool "still none" true (Fec.Sender.push s (seg 1) = None);
  check_int "pending" 2 (Fec.Sender.pending s);
  (match Fec.Sender.push s (seg 2) with
  | Some covered ->
    Alcotest.(check (list int)) "covers group" [ 0; 1; 2 ]
      (List.map (fun x -> x.Pdu.seq) covered)
  | None -> Alcotest.fail "expected parity");
  check_int "reset" 0 (Fec.Sender.pending s);
  ignore (Fec.Sender.push s (seg 3));
  (match Fec.Sender.flush s with
  | Some covered ->
    Alcotest.(check (list int)) "partial flush" [ 3 ]
      (List.map (fun x -> x.Pdu.seq) covered)
  | None -> Alcotest.fail "expected flush");
  check_bool "empty flush" true (Fec.Sender.flush s = None);
  Alcotest.check_raises "group >= 2"
    (Invalid_argument "Fec.Sender.create: group must be >= 2") (fun () ->
      ignore (Fec.Sender.create ~group:1))

let test_fec_receiver_single_loss () =
  let r = Fec.Receiver.create () in
  ignore (Fec.Receiver.on_data r (seg 0));
  ignore (Fec.Receiver.on_data r (seg 2));
  (* Seq 1 lost; parity arrives. *)
  let recovered = Fec.Receiver.on_parity r ~covered:[ seg 0; seg 1; seg 2 ] ~parity:None in
  Alcotest.(check (list int)) "recovered 1" [ 1 ]
    (List.map (fun s -> s.Pdu.seq) recovered);
  check_int "count" 1 (Fec.Receiver.recovered r);
  check_int "no pending" 0 (Fec.Receiver.pending_groups r)

let test_fec_receiver_double_loss_then_arrival () =
  let r = Fec.Receiver.create () in
  ignore (Fec.Receiver.on_data r (seg 0));
  (* 1 and 2 missing: parity can't resolve yet. *)
  check_bool "unresolved" true
    (Fec.Receiver.on_parity r ~covered:[ seg 0; seg 1; seg 2 ] ~parity:None = []);
  check_int "parked" 1 (Fec.Receiver.pending_groups r);
  (* 1 arrives late: 2 becomes recoverable. *)
  let recovered = Fec.Receiver.on_data r (seg 1) in
  Alcotest.(check (list int)) "2 reconstructed" [ 2 ]
    (List.map (fun s -> s.Pdu.seq) recovered);
  check_int "group resolved" 0 (Fec.Receiver.pending_groups r)

let test_fec_receiver_complete_group () =
  let r = Fec.Receiver.create () in
  List.iter (fun i -> ignore (Fec.Receiver.on_data r (seg i))) [ 0; 1; 2 ];
  check_bool "nothing to recover" true
    (Fec.Receiver.on_parity r ~covered:[ seg 0; seg 1; seg 2 ] ~parity:None = []);
  check_int "no pending group" 0 (Fec.Receiver.pending_groups r)

let prop_fec_single_loss_per_group_always_recovers =
  QCheck2.Test.make ~name:"one loss per group is always reconstructed" ~count:200
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 7))
    (fun (group, lost_ix) ->
      let lost_ix = lost_ix mod group in
      let r = Fec.Receiver.create () in
      for i = 0 to group - 1 do
        if i <> lost_ix then ignore (Fec.Receiver.on_data r (seg i))
      done;
      let covered = List.init group (fun i -> seg i) in
      let recovered = Fec.Receiver.on_parity r ~covered ~parity:None in
      List.map (fun s -> s.Pdu.seq) recovered = [ lost_ix ])

(* --------------------------------------------------------------- Playout *)

let test_playout_early_and_late () =
  let p = Playout.create ~target:(Time.ms 50) in
  (match Playout.offer p ~app_stamp:Time.zero ~arrival:(Time.ms 20) with
  | Playout.Release_at at -> check_int "release at playout point" (Time.ms 50) at
  | Playout.Late _ -> Alcotest.fail "should not be late");
  (match Playout.offer p ~app_stamp:Time.zero ~arrival:(Time.ms 70) with
  | Playout.Late by -> check_int "lateness" (Time.ms 20) by
  | Playout.Release_at _ -> Alcotest.fail "should be late");
  check_int "released" 1 (Playout.released p);
  check_int "discarded" 1 (Playout.discarded p)

let test_playout_set_target () =
  let p = Playout.create ~target:(Time.ms 10) in
  Playout.set_target p (Time.ms 100);
  check_int "target updated" (Time.ms 100) (Playout.target p);
  match Playout.offer p ~app_stamp:Time.zero ~arrival:(Time.ms 50) with
  | Playout.Release_at at -> check_int "uses new target" (Time.ms 100) at
  | Playout.Late _ -> Alcotest.fail "should fit new target"

let test_playout_boundary () =
  let p = Playout.create ~target:(Time.ms 50) in
  match Playout.offer p ~app_stamp:Time.zero ~arrival:(Time.ms 50) with
  | Playout.Release_at at -> check_int "exactly on time" (Time.ms 50) at
  | Playout.Late _ -> Alcotest.fail "boundary counts as on time"

(* ------------------------------------------------------------------ Host *)

(* One bulk packet with no extra work. *)
let bulk h ~bytes = Host.process h ~bytes ~extra:Time.zero ~expedited:false

let test_host_costs () =
  let e = Engine.create () in
  let h = Host.create ~per_packet:(Time.us 100) ~per_byte_copy:(Time.ns 10) ~copies:2 e in
  (* 1000 bytes, 2 copies at 10ns = 20 us + 100 us fixed = 120 us. *)
  check_int "first completes" (Time.us 120) (bulk h ~bytes:1000);
  (* Second packet queues behind the first. *)
  check_int "second queues" (Time.us 240) (bulk h ~bytes:1000);
  check_int "packets" 2 (Host.packets h);
  check_int "accumulated" (Time.us 240) (Host.total_busy h)

let test_host_extra_and_copies () =
  let e = Engine.create () in
  let h = Host.create ~per_packet:Time.zero ~per_byte_copy:(Time.ns 10) ~copies:1 e in
  check_int "extra charged" (Time.us 20)
    (Host.process h ~bytes:1000 ~extra:(Time.us 10) ~expedited:false);
  let h3 = Host.create ~per_packet:Time.zero ~per_byte_copy:(Time.ns 10) ~copies:3 e in
  check_int "triple copy cost" (Time.us 30) (bulk h3 ~bytes:1000)

let test_host_zero_cost () =
  let e = Engine.create () in
  let h = Host.zero_cost e in
  check_int "free" 0 (bulk h ~bytes:1_000_000);
  check_int "still free" 0 (bulk h ~bytes:1_000_000)

let test_host_idle_gap () =
  let e = Engine.create () in
  let h = Host.create ~per_packet:(Time.us 10) ~per_byte_copy:Time.zero ~copies:0 e in
  ignore (bulk h ~bytes:1);
  (* Advance simulated time past the busy period. *)
  ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> ()));
  Engine.run e;
  check_int "starts at now when idle" (Time.ms 1 + Time.us 10)
    (bulk h ~bytes:1)

(* ------------------------------------------------------------ Connection *)

(* The mechanism against a bare engine, wired the way a session wires it:
   a request goes out, and the request timer's verdict resends it (which
   re-arms the timer) or gives up (which releases the endpoint). *)
type probe = {
  conn : Connection.t;
  engine : Engine.t;
  mutable requests : Time.t list; (* newest first *)
  mutable gave_up : Time.t option;
}

let initial_rto = Time.ms 50

let rec request p =
  p.requests <- Engine.now p.engine :: p.requests;
  Connection.await_answer p.conn p.engine ~initial_rto on_request_timeout p

and on_request_timeout p =
  match Connection.request_timeout p.conn with
  | Connection.Resend -> request p
  | Connection.Give_up ->
    p.gave_up <- Some (Engine.now p.engine);
    ignore (Connection.release p.conn)

let probe scheme ~peers =
  let conn = Connection.create scheme in
  let p = { conn; engine = Engine.create (); requests = []; gave_up = None } in
  check_bool "handshake needed" true (Connection.start p.conn ~peers);
  request p;
  p

let request_times p = List.rev p.requests

let test_connection_gives_up () =
  let p = probe Params.Two_way ~peers:[ 1 ] in
  Engine.run p.engine;
  Alcotest.(check (list int)) "six requests, initial_rto apart"
    (List.init 6 (fun i -> i * initial_rto))
    (request_times p);
  Alcotest.(check (option int)) "gave up at the sixth expiry" (Some (6 * initial_rto))
    p.gave_up;
  check_bool "closed" true (Connection.state p.conn = Connection.Closed);
  check_bool "nothing left armed" true (Engine.next_deadline p.engine = None);
  check_bool "a second release is a no-op" false (Connection.release p.conn)

let test_connection_answers () =
  let p = probe Params.Two_way ~peers:[ 1; 2 ] in
  Alcotest.(check (list int)) "both pending" [ 1; 2 ] (Connection.pending p.conn);
  ignore
    (Engine.schedule p.engine ~at:(Time.ms 70) (fun () ->
         check_bool "one of two answered" false (Connection.answered p.conn ~from:2)));
  ignore
    (Engine.schedule p.engine ~at:(Time.ms 80) (fun () ->
         check_bool "both answered" true (Connection.answered p.conn ~from:1);
         check_bool "established" true (Connection.establish p.conn)));
  Engine.run p.engine;
  (* Both peers were still pending at the first expiry (50 ms), so one
     resend went out; the last answer (80 ms) came before the second. *)
  Alcotest.(check (list int)) "one resend before the answers" [ 0; Time.ms 50 ]
    (request_times p);
  check_bool "answers stop the retries" true (p.gave_up = None);
  check_bool "state" true (Connection.state p.conn = Connection.Established);
  check_bool "establish moves once" false (Connection.establish p.conn)

let test_connection_forgotten_peer () =
  let p = probe Params.Three_way ~peers:[ 1 ] in
  Connection.invite p.conn 2;
  Alcotest.(check (list int)) "invited" [ 2; 1 ] (Connection.pending p.conn);
  check_bool "one still pending" false (Connection.forget p.conn 1);
  check_bool "nobody pending" true (Connection.forget p.conn 2);
  Engine.run p.engine;
  (* With nobody pending, the request timer is stopped: no resend, no
     give-up. *)
  Alcotest.(check (list int)) "no resend" [ 0 ] (request_times p);
  check_bool "no give-up" true (p.gave_up = None);
  check_bool "still opening" true (Connection.state p.conn = Connection.Opening)

(* A peer invited while a round is under way joins it and is given up
   with it; once no peer is pending, an invitation starts a fresh round
   of six requests. *)
let test_connection_invitation_rounds () =
  let p = probe Params.Two_way ~peers:[ 1 ] in
  ignore (Engine.schedule p.engine ~at:(Time.ms 70) (fun () -> Connection.invite p.conn 2));
  Engine.run p.engine;
  Alcotest.(check (option int)) "joined the round under way" (Some (6 * initial_rto))
    p.gave_up;
  let p = probe Params.Two_way ~peers:[ 1 ] in
  ignore
    (Engine.schedule p.engine ~at:(Time.ms 120) (fun () ->
         check_bool "answered" true (Connection.answered p.conn ~from:1)));
  ignore
    (Engine.schedule p.engine ~at:(Time.ms 130) (fun () ->
         Connection.invite p.conn 2;
         request p));
  Engine.run p.engine;
  Alcotest.(check (option int)) "a fresh round of six" (Some (Time.ms 130 + (6 * initial_rto)))
    p.gave_up

let test_connection_schemes () =
  let implicit = Connection.create Params.Implicit in
  check_bool "implicit needs no handshake" false (Connection.start implicit ~peers:[ 1 ]);
  Alcotest.(check (list int)) "nobody pending" [] (Connection.pending implicit);
  check_bool "implicit confirms nothing" false (Connection.confirms implicit);
  let c = Connection.create Params.Two_way in
  check_bool "two-way confirms nothing" false (Connection.confirms c);
  Connection.rebind c Params.Three_way;
  check_bool "three-way confirms" true (Connection.confirms c);
  let passive = Connection.create Params.Three_way in
  Connection.accept passive;
  check_bool "responder established" true
    (Connection.state passive = Connection.Established);
  check_bool "nothing to move" false (Connection.establish passive)

let test_connection_release_wait () =
  let engine = Engine.create () in
  let c = Connection.create Params.Two_way in
  ignore (Connection.start c ~peers:[ 1 ]);
  ignore (Connection.establish c);
  Connection.closing c;
  check_bool "closing" true (Connection.state c = Connection.Closing);
  let closed_at = ref None in
  let close c =
    closed_at := Some (Engine.now engine);
    check_bool "was live" true (Connection.release c)
  in
  Connection.await_fin_ack c engine ~rto:(Time.ms 12) close c;
  Engine.run engine;
  Alcotest.(check (option int)) "one rto for the Fin_ack" (Some (Time.ms 12)) !closed_at;
  check_bool "closed" true (Connection.state c = Connection.Closed)

(* A session re-arms the request and release timers on every resend;
   only the first arm of each may allocate. *)
let test_connection_rearm_alloc_free () =
  let engine = Engine.create () in
  let c = Connection.create Params.Two_way in
  ignore (Connection.start c ~peers:[ 1 ]);
  let rearm () =
    for _ = 1 to 100_000 do
      Connection.await_answer c engine ~initial_rto ignore ();
      Connection.await_fin_ack c engine ~rto:initial_rto ignore ()
    done
  in
  rearm ();
  let before = Gc.minor_words () in
  rearm ();
  Alcotest.(check (float 0.0)) "100k re-arms of each timer" 0.0 (Gc.minor_words () -. before)

(* -------------------------------------------------------------- Recovery *)

(* The mechanism against a bare window and engine: the tests track
   segments as a sender would and read back what each loss signal
   resends. *)
let window_of seqs ~at =
  let w = Window.create () in
  List.iter (fun seq -> Window.track w (Pdu.seg ~seq ~bytes:100 ()) ~at) seqs;
  w

let seqs_of segs = List.map (fun s -> s.Pdu.seq) segs
let check_seqs = Alcotest.(check (list int))

let resent = function
  | Recovery.Resend segs -> seqs_of segs
  | Recovery.Give_up _ -> Alcotest.fail "expected a resend"

let test_recovery_timeout_per_scheme () =
  let gbn = Recovery.create Params.Go_back_n in
  let w = window_of [ 0; 1; 2; 3; 4 ] ~at:0 in
  check_seqs "go-back-n, capped by the send window" [ 0; 1; 2 ]
    (resent (Recovery.on_timeout gbn w ~next_seq:5 ~send_window:3));
  check_seqs "go-back-n sends at least one" [ 0 ]
    (resent (Recovery.on_timeout gbn w ~next_seq:5 ~send_window:0));
  let sr = Recovery.create Params.Selective_repeat in
  Window.mark_sacked w [ 1; 3 ];
  check_seqs "selective repeat, every hole" [ 0; 2; 4 ]
    (resent (Recovery.on_timeout sr w ~next_seq:5 ~send_window:1));
  let fec = Recovery.create (Params.Forward_error_correction { group = 4 }) in
  (match Recovery.on_timeout fec w ~next_seq:5 ~send_window:1 with
  | Recovery.Give_up n -> check_int "no ARQ gives every segment up" 5 n
  | Recovery.Resend _ -> Alcotest.fail "FEC must not retransmit");
  check_bool "and frees the window" true (Window.is_empty w);
  let none = Recovery.create Params.No_recovery in
  match Recovery.on_timeout none w ~next_seq:5 ~send_window:1 with
  | Recovery.Give_up n -> check_int "nothing left to give up" 0 n
  | Recovery.Resend _ -> Alcotest.fail "no recovery must not retransmit"

let test_recovery_sack_holes () =
  let sr = Recovery.create Params.Selective_repeat in
  let w = window_of [ 0; 1; 2; 3; 4 ] ~at:0 in
  let rtt = Rtt.create ~initial_rto () in
  Rtt.observe rtt (Time.ms 10);
  Window.mark_sacked w [ 2 ];
  let holes ?(r = sr) now =
    seqs_of (Recovery.sack_holes r w rtt ~initial_rto ~now ~cum:0 ~sack:[ 2 ])
  in
  check_seqs "younger than one srtt" [] (holes (Time.ms 5));
  check_seqs "below the highest block, un-SACKed" [ 0; 1 ] (holes (Time.ms 20));
  check_seqs "go-back-n ignores SACK blocks" []
    (holes ~r:(Recovery.create Params.Go_back_n) (Time.ms 20));
  check_seqs "no blocks, nothing" []
    (seqs_of (Recovery.sack_holes sr w rtt ~initial_rto ~now:(Time.ms 20) ~cum:0 ~sack:[]))

(* RFC 6582: the third duplicate starts an episode that runs until
   everything sent before it is acknowledged; duplicates inside it do not
   trigger again. *)
let test_recovery_one_fast_retransmit_per_episode () =
  let r = Recovery.create Params.Go_back_n in
  let dup ~cum ~next_seq = Recovery.on_ack r ~cum ~progressed:false ~next_seq in
  check_bool "first duplicate" false (dup ~cum:0 ~next_seq:10);
  check_bool "second duplicate" false (dup ~cum:0 ~next_seq:10);
  check_bool "third duplicate" true (dup ~cum:0 ~next_seq:10);
  let again = List.init 6 (fun _ -> dup ~cum:0 ~next_seq:12) in
  check_bool "same episode: no second trigger" false (List.mem true again);
  check_bool "progress resets the count" false
    (Recovery.on_ack r ~cum:10 ~progressed:true ~next_seq:20);
  let next = List.init 3 (fun _ -> dup ~cum:10 ~next_seq:20) in
  Alcotest.(check (list bool)) "past the recovery point: a new episode"
    [ false; false; true ] next;
  let timed = Recovery.create Params.Go_back_n in
  ignore (Recovery.on_timeout timed (window_of [ 0 ] ~at:0) ~next_seq:10 ~send_window:1);
  let after =
    List.init 3 (fun _ -> Recovery.on_ack timed ~cum:0 ~progressed:false ~next_seq:10)
  in
  Alcotest.(check (list bool)) "a timeout starts an episode too" [ false; false; false ]
    after;
  let late = Recovery.create Params.Go_back_n in
  Recovery.start_at late 7;
  let trip =
    List.init 3 (fun _ -> Recovery.on_ack late ~cum:7 ~progressed:false ~next_seq:9)
  in
  Alcotest.(check (list bool)) "a late joiner counts from its start"
    [ false; false; true ] trip

let test_recovery_fast_retransmit () =
  let w = window_of [ 3; 4; 5; 6 ] ~at:0 in
  Window.mark_sacked w [ 5 ];
  let fast scheme =
    seqs_of (Recovery.fast_retransmit (Recovery.create scheme) w ~cum:3 ~send_window:2)
  in
  check_seqs "go-back-n from the hole, capped" [ 3; 4 ] (fast Params.Go_back_n);
  check_seqs "selective repeat, the cumulative hole" [ 3 ] (fast Params.Selective_repeat);
  check_seqs "no ARQ resends nothing" []
    (fast (Params.Forward_error_correction { group = 2 }))

let test_recovery_fec_rebind () =
  let r = Recovery.create (Params.Forward_error_correction { group = 4 }) in
  let push seq = Option.map seqs_of (Recovery.on_transmit r (Pdu.seg ~seq ~bytes:100 ())) in
  ignore (push 0);
  ignore (push 1);
  Recovery.rebind r (Params.Forward_error_correction { group = 4 });
  ignore (push 2);
  Alcotest.(check (option (list int))) "same group: the accumulator carries over"
    (Some [ 0; 1; 2; 3 ]) (push 3);
  ignore (push 4);
  Recovery.rebind r (Params.Forward_error_correction { group = 2 });
  ignore (push 5);
  Alcotest.(check (option (list int))) "new group size: a fresh accumulator" (Some [ 5; 6 ])
    (push 6);
  ignore (push 7);
  Alcotest.(check (option (list int))) "flush closes the partial group" (Some [ 7 ])
    (Option.map seqs_of (Recovery.flush r));
  Recovery.rebind r Params.Selective_repeat;
  Alcotest.(check (option (list int))) "no FEC, no parity" None (push 8);
  check_bool "nothing to flush" true (Recovery.flush r = None)

let test_recovery_fec_receiver () =
  let group = List.init 4 (fun seq -> Pdu.seg ~seq ~bytes:100 ()) in
  let r = Recovery.create (Params.Forward_error_correction { group = 4 }) in
  List.iter
    (fun s ->
      if s.Pdu.seq <> 2 then check_seqs "no parity yet" [] (seqs_of (Recovery.on_data r s)))
    group;
  check_seqs "parity rebuilds the lost segment" [ 2 ]
    (seqs_of (Recovery.on_parity r ~covered:group ~parity:None));
  (* Under ARQ, data skips FEC bookkeeping, so a parity PDU finds no
     members to rebuild from. *)
  let arq = Recovery.create Params.Selective_repeat in
  List.iter (fun s -> if s.Pdu.seq > 1 then ignore (Recovery.on_data arq s)) group;
  check_seqs "no members noted" []
    (seqs_of (Recovery.on_parity arq ~covered:group ~parity:None))

let test_recovery_timers () =
  let engine = Engine.create () in
  let rtt = Rtt.create ~initial_rto () in
  let r = Recovery.create Params.No_recovery in
  let fired = ref [] in
  let note what = fired := (what, Engine.now engine) :: !fired in
  Recovery.arm_timer r engine ~needed:true rtt note "rto";
  Recovery.arm_timer r engine ~needed:true rtt note "rto (already running)";
  let reorder =
    Reorder.create ~ordering:Params.Ordered ~duplicates:Params.Drop_duplicates ()
  in
  let arm_skip ?(ordering = Params.Ordered) r =
    Recovery.arm_skip r engine ~ordering reorder None ~initial_rto:(Time.ms 20) note
      "skip"
  in
  arm_skip r;
  check_bool "no gap, no skip timer" true (Engine.next_deadline engine = Some initial_rto);
  ignore (Reorder.offer reorder (Pdu.seg ~seq:1 ~bytes:100 ()));
  arm_skip ~ordering:Params.Unordered r;
  arm_skip (Recovery.create Params.Go_back_n);
  check_bool "unordered or reliable receivers never skip" true
    (Engine.next_deadline engine = Some initial_rto);
  arm_skip r;
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "each fires once"
    [ ("skip", Time.ms 20); ("rto", initial_rto) ]
    (List.rev !fired);
  fired := [];
  Recovery.arm_timer r engine ~needed:true rtt note "rto";
  Recovery.progress r;
  Recovery.arm_timer r engine ~needed:true rtt note "rto";
  Recovery.arm_timer r engine ~needed:false rtt note "rto";
  arm_skip r;
  Recovery.release r;
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "stopped, unneeded and released" [] !fired

(* The per-ack calls of a session with nothing to resend, and the timer
   re-arm on every acknowledgment that makes progress: only the first
   arm may allocate. *)
let test_recovery_ack_path_alloc_free () =
  let engine = Engine.create () in
  let rtt = Rtt.create ~initial_rto () in
  let r = Recovery.create Params.Go_back_n in
  let w = window_of [ 0 ] ~at:0 in
  let seg = Pdu.seg ~seq:0 ~bytes:100 () in
  let acks () =
    for cum = 1 to 100_000 do
      ignore (Recovery.sack_holes r w rtt ~initial_rto ~now:cum ~cum ~sack:[]);
      ignore (Recovery.on_ack r ~cum ~progressed:true ~next_seq:(cum + 1));
      ignore (Recovery.on_data r seg);
      ignore (Recovery.on_transmit r seg);
      Recovery.progress r;
      Recovery.arm_timer r engine ~needed:true rtt ignore ()
    done
  in
  acks ();
  let before = Gc.minor_words () in
  acks ();
  Alcotest.(check (float 0.0)) "100k acknowledgments" 0.0 (Gc.minor_words () -. before)

(* ------------------------------------------------------------- Reporting *)

let reporting ?(detection = Params.Internet_checksum) scheme =
  Reporting.create scheme detection

let cumack = Params.Cumulative_ack { delay = Time.ms 2 }
let sack = Params.Selective_ack { delay = Time.ms 2 }

(* A receiver that has seen [seqs]. *)
let reorder_of seqs =
  let r = Reorder.create ~ordering:Params.Ordered ~duplicates:Params.Drop_duplicates () in
  List.iter (fun seq -> ignore (Reorder.offer r (Pdu.seg ~seq ~bytes:100 ()))) seqs;
  r

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Reporting.Quiet -> "quiet"
        | Reporting.Ack -> "ack"
        | Reporting.Ack_sack -> "ack+sack"
        | Reporting.Nack l -> "nack " ^ String.concat "," (List.map string_of_int l)))
    ( = )

let test_reporting_sender () =
  let counts scheme =
    let w = window_of [ 0; 1; 2 ] ~at:0 in
    Reporting.in_flight (reporting scheme) w
  in
  check_int "cumulative acks count the window" 3 (counts cumack);
  check_int "NACKs count the window" 3 (counts Params.Nack_on_gap);
  check_int "no reporting counts nothing" 0 (counts Params.No_report);
  check_bool "cumulative acks drain" true (Reporting.acks_drain (reporting cumack));
  check_bool "SACK drains" true (Reporting.acks_drain (reporting sack));
  check_bool "NACKs do not drain" false (Reporting.acks_drain (reporting Params.Nack_on_gap));
  check_bool "silence does not drain" false (Reporting.acks_drain (reporting Params.No_report));
  let track scheme n =
    let r = reporting scheme and w = Window.create () in
    for seq = 0 to n - 1 do
      Reporting.track r w (Pdu.seg ~seq ~bytes:100 ()) ~at:0 ~next_seq:(seq + 1) ~recv_buffer:8
    done;
    (Window.in_flight w, Option.map (fun e -> e.Window.seg.Pdu.seq) (Window.find w 0))
  in
  Alcotest.(check (pair int (option int))) "no reporting tracks nothing" (0, None)
    (track Params.No_report 300);
  Alcotest.(check (pair int (option int))) "acks keep every segment" (300, Some 0)
    (track cumack 300);
  Alcotest.(check (pair int (option int))) "NACK repair history capped at 256" (256, None)
    (track Params.Nack_on_gap 300)

let test_reporting_arrivals () =
  let engine = Engine.create () in
  let fired = ref [] in
  let note what = fired := (what, Engine.now engine) :: !fired in
  let arrive ?(prior = []) ?(duplicate = false) r reorder =
    Reporting.on_data r engine reorder ~prior ~duplicate ~initial_rto note "ack"
  in
  let in_order = reorder_of [ 0; 1 ] and gap = reorder_of [ 0; 2 ] in
  Alcotest.check verdict "no reporting" Reporting.Quiet
    (arrive (reporting Params.No_report) gap);
  Alcotest.check verdict "a gap is acked at once" Reporting.Ack (arrive (reporting cumack) gap);
  Alcotest.check verdict "with SACK blocks" Reporting.Ack_sack (arrive (reporting sack) gap);
  let r = reporting sack in
  Alcotest.check verdict "in order: delayed" Reporting.Quiet (arrive r in_order);
  Alcotest.check verdict "a duplicate waits too" Reporting.Quiet
    (arrive ~duplicate:true r in_order);
  check_bool "the delayed ack keeps its SACK flag" true (Reporting.delayed_sack r);
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "one delayed ack after the delay"
    [ ("ack", Time.ms 2) ] !fired;
  fired := [];
  ignore (arrive ~duplicate:true (reporting cumack) in_order);
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "gap-free duplicates coalesce for 25 ms"
    [ ("ack", Time.ms 27) ] !fired;
  let nack = reporting Params.Nack_on_gap in
  let wide = reorder_of [ 0; 40 ] in
  Alcotest.check verdict "a new gap is NACKed, 32 at most"
    (Reporting.Nack (List.init 32 (fun i -> i + 1)))
    (arrive nack wide);
  Alcotest.check verdict "an old gap is not"
    Reporting.Quiet
    (arrive ~prior:(Reporting.gaps_before nack wide) nack wide);
  Alcotest.(check (list int)) "no gaps before under acks" []
    (Reporting.gaps_before (reporting cumack) wide);
  Alcotest.(check (list int)) "at most 16 SACK blocks" (List.init 16 (fun i -> i + 40))
    (Reporting.sack_blocks (reorder_of (List.init 20 (fun i -> i + 40))) ~with_sack:true);
  Alcotest.(check (list int)) "none without SACK" []
    (Reporting.sack_blocks wide ~with_sack:false);
  check_int "advertised window: buffer minus what waits" 7
    (Reporting.advertised_window wide ~recv_buffer:8);
  Reporting.note_stamp nack (Time.ms 5);
  Reporting.note_stamp nack (Time.ms 3);
  check_int "echo the newest stamp" (Time.ms 5) (Reporting.echo nack)

(* The timers armed under one scheme outlive a segue: a delayed ack still
   goes out (with the SACK flag it was armed with), and a pending re-NACK
   fires once under the new scheme. *)
let test_reporting_timers () =
  let engine = Engine.create () in
  let fired = ref [] in
  let note what = fired := (what, Engine.now engine) :: !fired in
  let rebind r scheme =
    Reporting.rebind r scheme Params.Internet_checksum
  in
  let gap = reorder_of [ 0; 2 ] in
  let r = reporting sack in
  ignore
    (Reporting.on_data r engine (reorder_of [ 0 ]) ~prior:[] ~duplicate:false ~initial_rto
       note "ack");
  Reporting.arm_renack r engine gap ~initial_rto note "renack";
  rebind r Params.Nack_on_gap;
  Reporting.arm_renack r engine (reorder_of [ 0 ]) ~initial_rto note "renack";
  check_bool "no gap, no re-NACK" true (Engine.next_deadline engine = Some (Time.ms 2));
  Reporting.arm_renack r engine gap ~initial_rto note "renack";
  Reporting.arm_renack r engine gap ~initial_rto note "renack (already running)";
  rebind r Params.No_report;
  check_bool "the SACK flag survives" true (Reporting.delayed_sack r);
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "each fires once after the segue"
    [ ("ack", Time.ms 2); ("renack", initial_rto) ]
    (List.rev !fired);
  Alcotest.(check (list int)) "what the re-NACK names" [ 1 ] (Reporting.renack gap);
  fired := [];
  rebind r Params.Nack_on_gap;
  ignore (Reporting.on_data r engine gap ~prior:[] ~duplicate:false ~initial_rto note "ack");
  Reporting.arm_renack r engine gap ~initial_rto note "renack";
  Reporting.release r;
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "released" [] !fired

let test_reporting_detection () =
  let det detection = reporting ~detection cumack in
  check_bool "checksum discards" true
    (Reporting.detected (det Params.Internet_checksum) ~corrupted:true);
  check_bool "CRC discards" true (Reporting.detected (det Params.Crc32) ~corrupted:true);
  check_bool "no detection delivers" false
    (Reporting.detected (det Params.No_detection) ~corrupted:true);
  check_bool "an intact PDU passes" false
    (Reporting.detected (det Params.Crc32) ~corrupted:false);
  Alcotest.(check (list int)) "verification ns per 1000 bytes" [ 0; 12_000; 60_000 ]
    (List.map
       (fun d -> Reporting.verify_cost (det d) ~bytes:1000)
       [ Params.No_detection; Params.Internet_checksum; Params.Crc32 ])

(* The per-arrival decisions of the cumulative-ack and SACK paths, each
   re-arming the delayed-ack timer: only the first arm may allocate. *)
let test_reporting_arrival_alloc_free () =
  let engine = Engine.create () in
  let in_order = reorder_of [ 0; 1 ] and gap = reorder_of [ 0; 2 ] in
  let w = window_of [ 0 ] ~at:0 in
  let cum = reporting cumack and sel = reporting sack in
  let arrive r i =
    Reporting.note_stamp r i;
    ignore (Reporting.detected r ~corrupted:false);
    ignore (Reporting.verify_cost r ~bytes:1000);
    let prior = Reporting.gaps_before r in_order in
    ignore (Reporting.on_data r engine gap ~prior ~duplicate:false ~initial_rto ignore ());
    ignore
      (Reporting.on_data r engine in_order ~prior ~duplicate:(i land 1 = 0) ~initial_rto
         ignore ());
    Reporting.arm_renack r engine gap ~initial_rto ignore ();
    ignore (Reporting.advertised_window gap ~recv_buffer:8);
    ignore (Reporting.in_flight r w);
    ignore (Reporting.acks_drain r)
  in
  let arrivals () =
    for i = 1 to 100_000 do
      arrive cum i;
      arrive sel i;
      (* Fire the delayed acks, so the next arrival re-arms them. *)
      Engine.run engine
    done
  in
  arrivals ();
  let before = Gc.minor_words () in
  arrivals ();
  Alcotest.(check (float 0.0)) "100k arrivals per scheme" 0.0 (Gc.minor_words () -. before)

(* ----------------------------------------------------------------- Codec *)

let sample_pdus =
  [
    Pdu.Data
      { conn = 9; seg = Pdu.seg ~seq:3 ~bytes:5
            ~payload:(Adaptive_buf.Msg.of_string "hello") ~stamp:(Time.ms 7)
            ~last:true (); retransmit = true; tx_stamp = Time.ms 9 };
    Pdu.Parity
      { conn = 9; group_start = 4; group_len = 2;
        covered = [ seg ~bytes:3 4; seg ~bytes:3 5 ];
        parity = Some (Adaptive_buf.Msg.of_string "xyz") };
    Pdu.Ack { conn = 9; cum = 17; window = 32; sack = [ 19; 21; 25 ]; echo = Time.us 11 };
    Pdu.Nack { conn = 9; missing = [ 17; 18 ] };
    Pdu.Syn { conn = 9; blob = "conn=2way"; first = None };
    Pdu.Syn
      { conn = 9; blob = "x";
        first =
          Some
            (Pdu.Data
               { conn = 9; seg = seg ~bytes:2 0; retransmit = false; tx_stamp = Time.zero }) };
    Pdu.Syn_ack { conn = 9; accepted = false; blob = "no" };
    Pdu.Ack_of_syn { conn = 9 };
    Pdu.Fin { conn = 9; graceful = true };
    Pdu.Fin { conn = 9; graceful = false };
    Pdu.Fin_ack { conn = 9 };
    Pdu.Signal { conn = 9; blob = "scs!whatever" };
    Pdu.Signal_ack { conn = 9; blob = "ok" };
  ]

let metadata_equal a b =
  (* Compare everything except payload identity (codec materializes
     zero-filled payloads for payload-less segments). *)
  let strip_data = function
    | Pdu.Data { conn; seg = s; retransmit; tx_stamp } ->
      Pdu.Data { conn; seg = Pdu.strip_payload s; retransmit; tx_stamp }
    | p -> p
  in
  let strip = function
    | Pdu.Data _ as p -> strip_data p
    | Pdu.Parity { conn; group_start; group_len; covered; parity = _ } ->
      Pdu.Parity
        { conn; group_start; group_len;
          covered = List.map Pdu.strip_payload covered; parity = None }
    | Pdu.Syn { conn; blob; first = Some inner } ->
      Pdu.Syn { conn; blob; first = Some (strip_data inner) }
    | p -> p
  in
  strip a = strip b

let test_codec_roundtrip_samples () =
  List.iter
    (fun pdu ->
      let wire = Codec.encode pdu in
      check_int "length" (Pdu.wire_bytes pdu) (String.length wire);
      match Codec.decode wire with
      | Ok back -> check_bool "roundtrip" true (metadata_equal pdu back)
      | Error e -> Alcotest.fail (Codec.error_to_string e))
    sample_pdus

let test_codec_payload_roundtrip () =
  let text = "the quick brown fox" in
  let pdu =
    Pdu.Data
      { conn = 1;
        seg = Pdu.seg ~seq:0 ~bytes:(String.length text)
            ~payload:(Adaptive_buf.Msg.of_string text) ();
        retransmit = false;
        tx_stamp = Time.us 77 }
  in
  match Codec.decode (Codec.encode pdu) with
  | Ok (Pdu.Data { seg = s; _ }) ->
    (match s.Pdu.payload with
    | Some m -> Alcotest.(check string) "payload bytes" text (Adaptive_buf.Msg.data_to_string m)
    | None -> Alcotest.fail "payload lost")
  | Ok _ | Error _ -> Alcotest.fail "decode failed"

let test_codec_detects_damage () =
  let pdu = Pdu.Ack { conn = 2; cum = 5; window = 8; sack = [ 7 ]; echo = Time.ms 1 } in
  let wire = Bytes.of_string (Codec.encode pdu) in
  Bytes.set wire 9 (Char.chr (Char.code (Bytes.get wire 9) lxor 0x10));
  (match Codec.decode (Bytes.to_string wire) with
  | Error Codec.Bad_checksum -> ()
  | Ok _ -> Alcotest.fail "damage must be caught"
  | Error e -> Alcotest.fail (Codec.error_to_string e))

(* Give a hand-made image a valid checksum (the trailer for data and
   parity tags, offset 2 otherwise), so [decode] reaches the parser. *)
let sealed b =
  let tag = Bytes.get_uint8 b 0 in
  let off = if tag = 1 || tag = 2 then Bytes.length b - 2 else 2 in
  Bytes.set_uint16_be b off 0;
  Bytes.set_uint16_be b off (Adaptive_buf.Checksum.internet (Bytes.to_string b));
  Bytes.to_string b

let test_codec_rejects_garbage () =
  check_bool "short" true (Codec.decode "abc" = Error Codec.Truncated);
  let bogus = Bytes.make 16 '\000' in
  Bytes.set_uint8 bogus 0 99;
  check_bool "bad type" true
    (match Codec.decode (sealed bogus) with
    | Error (Codec.Bad_type 99) -> true
    | _ -> false);
  (* A data header promising more payload than present. *)
  let pdu =
    Pdu.Data { conn = 1; seg = seg ~bytes:100 0; retransmit = false; tx_stamp = Time.zero }
  in
  let wire = Codec.encode pdu in
  check_bool "truncated payload" true
    (Codec.decode (sealed (Bytes.of_string (String.sub wire 0 30))) = Error Codec.Truncated)

(* A data payload that disagrees with [seg_bytes] ([Pdu.seg] refuses to
   build one, the record does not): both encoders must treat it alike. *)
let mis_sized_data ~declared text =
  Pdu.Data
    { conn = 3;
      seg =
        { (Pdu.seg ~seq:4 ~bytes:declared ()) with
          Pdu.payload = Some (Adaptive_buf.Msg.of_string text) };
      retransmit = false;
      tx_stamp = Time.us 5 }

let test_codec_short_payload () =
  let pdu = mis_sized_data ~declared:10 "abc" in
  let wire = Codec.encode pdu in
  let buf = Bytes.make (Pdu.wire_bytes pdu) '\xCC' in
  let n = Codec.encode_into (Codec.wire_state ()) pdu buf ~off:0 in
  Alcotest.(check string) "encoders agree" wire (Bytes.sub_string buf 0 n);
  Alcotest.(check string) "zero filler" "abc\000\000\000\000\000\000\000"
    (String.sub wire 30 10)

let test_codec_long_payload () =
  let pdu = mis_sized_data ~declared:2 "abc" in
  Alcotest.check_raises "encode"
    (Invalid_argument "Codec.encode: payload exceeds declared length") (fun () ->
      ignore (Codec.encode pdu));
  Alcotest.check_raises "encode_into"
    (Invalid_argument "Codec.encode_into: payload exceeds declared length") (fun () ->
      ignore
        (Codec.encode_into (Codec.wire_state ()) pdu
           (Bytes.create (Pdu.wire_bytes pdu + 8)) ~off:0))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips arbitrary data/ack/nack PDUs" ~count:300
    QCheck2.Gen.(
      let* kind = int_range 0 2 in
      let* conn = int_range 0 0xFFFF in
      let* a = int_range 0 100000 in
      let* b = int_range 0 1000 in
      let* text = string_size ~gen:printable (int_range 0 64) in
      return (kind, conn, a, b, text))
    (fun (kind, conn, a, b, text) ->
      let pdu =
        match kind with
        | 0 ->
          Pdu.Data
            { conn;
              seg = Pdu.seg ~seq:a ~bytes:(String.length text)
                  ~payload:(Adaptive_buf.Msg.of_string text) ~stamp:b ();
              retransmit = b mod 2 = 0;
              tx_stamp = a + b }
        | 1 -> Pdu.Ack { conn; cum = a; window = b; sack = [ a + 1; a + 3 ]; echo = b }
        | _ -> Pdu.Nack { conn; missing = [ a; a + 2; a + 9 ] }
      in
      let wire = Codec.encode pdu in
      String.length wire = Pdu.wire_bytes pdu
      &&
      match Codec.decode wire with
      | Ok back -> metadata_equal pdu back
      | Error _ -> false)

let prop_codec_decode_never_raises =
  QCheck2.Test.make ~name:"decode of arbitrary bytes returns, never raises" ~count:500
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (int_range 0 4))
    (fun (junk, off) ->
      let len = String.length junk in
      let padded = Bytes.make (off + len + 3) '\xEE' in
      Bytes.blit_string junk 0 padded off len;
      (match Codec.decode junk with Ok _ | Error _ -> true)
      && match Codec.decode_view padded ~off ~len with Ok _ | Error _ -> true)

let prop_codec_bitflip_detected =
  QCheck2.Test.make ~name:"any single bit flip in a data PDU is caught" ~count:300
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 1 40)) (int_range 0 10_000))
    (fun (text, flip) ->
      let pdu =
        Pdu.Data
          { conn = 5;
            seg = Pdu.seg ~seq:1 ~bytes:(String.length text)
                ~payload:(Adaptive_buf.Msg.of_string text) ();
            retransmit = false;
            tx_stamp = Time.us 3 }
      in
      let wire = Bytes.of_string (Codec.encode pdu) in
      let bit = flip mod (8 * Bytes.length wire) in
      let byte = bit / 8 in
      Bytes.set wire byte (Char.chr (Char.code (Bytes.get wire byte) lxor (1 lsl (bit mod 8))));
      match Codec.decode (Bytes.to_string wire) with
      | Error Codec.Bad_checksum -> true
      | Error _ -> true (* structural fields damaged: also caught *)
      | Ok _ -> false)

(* -------------------------------------------------- wire-true codec paths *)

(* Random PDUs over every constructor, for the fused-path equivalence
   properties below. *)
let gen_any_pdu =
  QCheck2.Gen.(
    let* kind = int_range 0 12 in
    let* conn = int_range 0 0xFFFF in
    let* a = int_range 0 100_000 in
    let* b = int_range 0 1_000 in
    let* text = string_size (int_range 0 80) in
    let payload_seg =
      Pdu.seg ~seq:a ~bytes:(String.length text)
        ~payload:(Adaptive_buf.Msg.of_string text) ~stamp:b ~last:(b mod 2 = 0)
        ()
    in
    return
      (match kind with
      | 0 -> Pdu.Data { conn; seg = payload_seg; retransmit = a mod 2 = 0; tx_stamp = b }
      | 1 ->
        (* Payload-less segment: the codec writes zero filler. *)
        Pdu.Data
          { conn; seg = seg ~bytes:(1 + (a mod 50)) a; retransmit = false;
            tx_stamp = Time.us 9 }
      | 2 ->
        (* The block is as long as the longest covered segment, as
           [Fec.parity_of] builds it. *)
        Pdu.Parity
          { conn; group_start = a; group_len = 2;
            covered = [ seg ~bytes:(String.length text) a; seg ~bytes:3 (a + 1) ];
            parity = Some (Adaptive_buf.Msg.of_string text) }
      | 3 -> Pdu.Ack { conn; cum = a; window = b; sack = [ a + 1; a + 4 ]; echo = b }
      | 4 -> Pdu.Nack { conn; missing = [ a; a + 2 ] }
      | 5 -> Pdu.Syn { conn; blob = text; first = None }
      | 6 ->
        Pdu.Syn
          { conn; blob = text;
            first = Some (Pdu.Data { conn; seg = payload_seg; retransmit = false; tx_stamp = b }) }
      | 7 -> Pdu.Syn_ack { conn; accepted = a mod 2 = 0; blob = text }
      | 8 -> Pdu.Ack_of_syn { conn }
      | 9 -> Pdu.Fin { conn; graceful = a mod 2 = 0 }
      | 10 -> Pdu.Fin_ack { conn }
      | 11 -> Pdu.Signal { conn; blob = text }
      | _ -> Pdu.Signal_ack { conn; blob = text }))

let prop_encode_into_equals_encode =
  QCheck2.Test.make
    ~name:"encode_into = encode byte-for-byte, at any offset, all PDU types"
    ~count:500
    QCheck2.Gen.(pair gen_any_pdu (int_range 0 9))
    (fun (pdu, off) ->
      let st = Codec.wire_state () in
      let reference = Codec.encode pdu in
      let need = Pdu.wire_bytes pdu in
      let buf = Bytes.make (off + need + 4) '\xCC' in
      let n = Codec.encode_into st pdu buf ~off in
      n = need
      && String.length reference = need
      && Bytes.sub_string buf off n = reference
      (* Bytes outside [off, off+n) are untouched. *)
      && (off = 0 || Bytes.get buf (off - 1) = '\xCC')
      && Bytes.get buf (off + n) = '\xCC')

(* Error-for-error equivalence of the in-place and string decoders, over
   pristine, truncated, type-damaged and checksum-damaged images. *)
(* Every payload a decoded PDU carries, in wire order. *)
let rec payload_bytes pdu =
  let seg (s : Pdu.seg) = Option.map Adaptive_buf.Msg.data_to_string s.Pdu.payload in
  match pdu with
  | Pdu.Data { seg = s; _ } -> Option.to_list (seg s)
  | Pdu.Parity { covered; parity; _ } ->
    List.filter_map seg covered
    @ Option.to_list (Option.map Adaptive_buf.Msg.data_to_string parity)
  | Pdu.Syn { first = Some inner; _ } -> payload_bytes inner
  | _ -> []

let mutate image mutation knob =
  match mutation with
  | 0 -> image
  | 1 -> String.sub image 0 (knob mod (String.length image + 1))
  | 2 ->
    let b = Bytes.of_string image in
    let bit = knob mod (8 * Bytes.length b) in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  | 3 ->
    let b = Bytes.of_string image in
    Bytes.set_uint8 b 0 (100 + (knob mod 100));
    Bytes.to_string b
  | _ ->
    (* A length field that lies: overwrite an aligned 32-bit word with a
       huge, a sign-bit-adjacent or a just-too-large count, then re-seal
       the checksum so both decoders parse the lie. *)
    let b = Bytes.of_string image in
    let words = Bytes.length b / 4 in
    Bytes.set_int32_be b
      (4 * (knob mod words))
      (match knob / words mod 3 with 0 -> 0xFFFFFFFFl | 1 -> 0x7FFFFFFFl | _ -> 0x10000l);
    sealed b

let prop_decode_view_equals_decode =
  QCheck2.Test.make
    ~name:"decode_view = decode, value and error, on damaged images too"
    ~count:800
    QCheck2.Gen.(
      pair gen_any_pdu (triple (int_range 0 4) (int_range 0 100_000) (int_range 0 9)))
    (fun (pdu, (mutation, knob, off)) ->
      let image = mutate (Codec.encode pdu) mutation knob in
      let len = String.length image in
      let padded = Bytes.make (off + len + 3) '\xEE' in
      Bytes.blit_string image 0 padded off len;
      match (Codec.decode image, Codec.decode_view padded ~off ~len) with
      | Ok a, Ok b ->
        (* Metadata and payload content agree.  Not by re-encoding: a
           re-sealed parity frame whose covered lengths lie about its
           block decodes, but [Codec.encode] cannot size it. *)
        metadata_equal a b && payload_bytes a = payload_bytes b
      | Error ea, Error eb -> ea = eb
      | Ok _, Error _ | Error _, Ok _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "mech.pdu",
      [
        Alcotest.test_case "conn id" `Quick test_pdu_conn_id;
        Alcotest.test_case "wire bytes" `Quick test_pdu_wire_bytes;
      ] );
    ( "mech.codec",
      [
        Alcotest.test_case "sample roundtrips + exact sizes" `Quick
          test_codec_roundtrip_samples;
        Alcotest.test_case "payload bytes roundtrip" `Quick test_codec_payload_roundtrip;
        Alcotest.test_case "trailer checksum detects damage" `Quick
          test_codec_detects_damage;
        Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "short payload zero-filled by both encoders" `Quick
          test_codec_short_payload;
        Alcotest.test_case "long payload rejected by both encoders" `Quick
          test_codec_long_payload;
      ]
      @ qsuite
          [
            prop_codec_roundtrip;
            prop_codec_decode_never_raises;
            prop_codec_bitflip_detected;
            prop_encode_into_equals_encode;
            prop_decode_view_equals_decode;
          ]
    );
    ( "mech.connection",
      [
        Alcotest.test_case "retries then gives up" `Quick test_connection_gives_up;
        Alcotest.test_case "every answer stops the retries" `Quick test_connection_answers;
        Alcotest.test_case "forgetting every pending peer stops the retries" `Quick
          test_connection_forgotten_peer;
        Alcotest.test_case "invitation rounds" `Quick test_connection_invitation_rounds;
        Alcotest.test_case "schemes" `Quick test_connection_schemes;
        Alcotest.test_case "one rto for the Fin_ack" `Quick test_connection_release_wait;
        Alcotest.test_case "re-arms allocate nothing" `Quick test_connection_rearm_alloc_free;
      ] );
    ( "mech.recovery",
      [
        Alcotest.test_case "what a timeout resends, per scheme" `Quick
          test_recovery_timeout_per_scheme;
        Alcotest.test_case "SACK holes older than one srtt" `Quick test_recovery_sack_holes;
        Alcotest.test_case "one fast retransmit per episode" `Quick
          test_recovery_one_fast_retransmit_per_episode;
        Alcotest.test_case "what a fast retransmit resends" `Quick
          test_recovery_fast_retransmit;
        Alcotest.test_case "FEC sender across rebinds" `Quick test_recovery_fec_rebind;
        Alcotest.test_case "FEC receiver" `Quick test_recovery_fec_receiver;
        Alcotest.test_case "retransmission and skip timers" `Quick test_recovery_timers;
        Alcotest.test_case "the ack path allocates nothing" `Quick
          test_recovery_ack_path_alloc_free;
      ] );
    ( "mech.reporting",
      [
        Alcotest.test_case "what the sender counts and keeps" `Quick test_reporting_sender;
        Alcotest.test_case "what each arrival reports" `Quick test_reporting_arrivals;
        Alcotest.test_case "timers outlive a segue" `Quick test_reporting_timers;
        Alcotest.test_case "detection and its cost" `Quick test_reporting_detection;
        Alcotest.test_case "arrivals allocate nothing" `Quick
          test_reporting_arrival_alloc_free;
      ] );
    ( "mech.params",
      [
        Alcotest.test_case "string round trips" `Quick test_params_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick test_params_garbage;
      ] );
    ( "mech.window",
      [
        Alcotest.test_case "track and cumulative ack" `Quick test_window_track_ack;
        Alcotest.test_case "sack queries" `Quick test_window_sack_queries;
        Alcotest.test_case "touch retries" `Quick test_window_touch;
      ]
      @ qsuite [ prop_window_conservation ] );
    ( "mech.transmission",
      [
        Alcotest.test_case "send-window rule" `Quick test_transmission_send_window;
        Alcotest.test_case "admission gates and one deferral" `Quick test_transmission_admit;
        Alcotest.test_case "segue keeps the pacer and the congestion window" `Quick
          test_transmission_rebind;
        Alcotest.test_case "backlog delay" `Quick test_transmission_backlog;
        Alcotest.test_case "a rate below 1 b/s is refused" `Quick
          test_transmission_rate_floor;
        Alcotest.test_case "admit and ack allocate nothing" `Quick
          test_transmission_alloc_free;
      ] );
    ( "mech.rate",
      [
        Alcotest.test_case "burst then paced" `Quick test_rate_burst_then_paced;
        Alcotest.test_case "live rate change" `Quick test_rate_set_rate;
        Alcotest.test_case "burst cap" `Quick test_rate_burst_cap;
      ] );
    ( "mech.rtt",
      [
        Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
        Alcotest.test_case "convergence" `Quick test_rtt_convergence;
        Alcotest.test_case "timeout backoff" `Quick test_rtt_backoff;
        Alcotest.test_case "clamps" `Quick test_rtt_clamps;
      ] );
    ( "mech.reorder",
      [
        Alcotest.test_case "in order" `Quick test_reorder_in_order;
        Alcotest.test_case "out of order" `Quick test_reorder_out_of_order;
        Alcotest.test_case "duplicates" `Quick test_reorder_duplicates;
        Alcotest.test_case "unordered mode" `Quick test_reorder_unordered;
        Alcotest.test_case "start offset" `Quick test_reorder_start_offset;
        Alcotest.test_case "advance past gap" `Quick test_reorder_advance_past_gap;
      ]
      @ qsuite
          [
            prop_reorder_permutation;
            prop_reorder_dups_never_delivered_twice;
            prop_reorder_has_gap;
          ] );
    ( "mech.fec",
      [
        Alcotest.test_case "sender groups" `Quick test_fec_sender_groups;
        Alcotest.test_case "single loss recovery" `Quick test_fec_receiver_single_loss;
        Alcotest.test_case "double loss resolves late" `Quick
          test_fec_receiver_double_loss_then_arrival;
        Alcotest.test_case "complete group" `Quick test_fec_receiver_complete_group;
      ]
      @ qsuite [ prop_fec_single_loss_per_group_always_recovers ] );
    ( "mech.playout",
      [
        Alcotest.test_case "early and late" `Quick test_playout_early_and_late;
        Alcotest.test_case "target adjustment" `Quick test_playout_set_target;
        Alcotest.test_case "boundary" `Quick test_playout_boundary;
      ] );
    ( "mech.slowstart",
      [
        Alcotest.test_case "growth phases" `Quick test_slowstart_growth;
        Alcotest.test_case "multiplicative decrease" `Quick test_slowstart_loss;
      ] );
    ( "mech.host",
      [
        Alcotest.test_case "serial cost model" `Quick test_host_costs;
        Alcotest.test_case "extra work and copies" `Quick test_host_extra_and_copies;
        Alcotest.test_case "zero cost" `Quick test_host_zero_cost;
        Alcotest.test_case "idle restart" `Quick test_host_idle_gap;
      ] );
  ]
