(* Tests for the simulation substrate: Time, Heap, Rng, Stats, Engine,
   Trace. *)

open Adaptive_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float msg ~eps expected actual = Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ Time *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_500_000_000 (Time.sec 1.5);
  check_int "minutes" 120_000_000_000 (Time.minutes 2);
  check_float "to_sec" ~eps:1e-12 0.002 (Time.to_sec (Time.ms 2));
  check_float "to_ms" ~eps:1e-9 2.5 (Time.to_ms (Time.us 2500));
  check_float "us" ~eps:1e-9 3.0 (Time.to_sec (Time.ns 3000) *. 1e6)

let test_time_arith () =
  check_int "add" 30 (Time.add 10 20);
  check_int "diff" (-10) (Time.diff 10 20);
  check_int "max" 20 (Time.max 10 20);
  check_int "min" 10 (Time.min 10 20);
  check_bool "compare" true (Time.compare 1 2 < 0)

let test_time_of_rate () =
  (* 8000 bits at 1 Mb/s = 8 ms *)
  check_int "1Mbps" (Time.ms 8) (Time.of_rate ~bits:8000 ~bps:1e6);
  (* 12000 bits at 10 Mb/s = 1.2 ms *)
  check_int "10Mbps" 1_200_000 (Time.of_rate ~bits:12000 ~bps:10e6);
  Alcotest.check_raises "zero rate" (Invalid_argument "Time.of_rate: non-positive rate")
    (fun () -> ignore (Time.of_rate ~bits:1 ~bps:0.0))

let test_time_pp () =
  Alcotest.(check string) "ns" "123ns" (Time.to_string 123);
  Alcotest.(check string) "us" "12.30us" (Time.to_string 12_300);
  Alcotest.(check string) "ms" "1.50ms" (Time.to_string 1_500_000);
  Alcotest.(check string) "s" "2.000s" (Time.to_string 2_000_000_000)

(* ------------------------------------------------------------------ Heap *)

(* Pop the minimum binding as [(key, value)], or [None] when empty. *)
let pop h =
  if Heap.is_empty h then None
  else begin
    let kv = (Heap.top_key h, Heap.top_value h) in
    Heap.drop_top h;
    Some kv
  end

(* Push in order, each entry's sequence number being its push index. *)
let push_all h kvs = List.iteri (fun seq (key, v) -> Heap.push h ~key ~seq v) kvs

let test_heap_basic () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  push_all h [ (5, 50); (1, 10); (3, 30) ];
  check_int "length" 3 (Heap.length h);
  Alcotest.(check (option (pair int int))) "pop1" (Some (1, 10)) (pop h);
  Alcotest.(check (option (pair int int))) "pop2" (Some (3, 30)) (pop h);
  Alcotest.(check (option (pair int int))) "pop3" (Some (5, 50)) (pop h);
  Alcotest.(check (option (pair int int))) "pop empty" None (pop h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  push_all h (List.map (fun v -> (7, v)) [ 11; 12; 13; 14 ]);
  let order = List.init 4 (fun _ -> snd (Option.get (pop h))) in
  Alcotest.(check (list int)) "FIFO among equal keys" [ 11; 12; 13; 14 ] order

(* Pop every entry, smallest key first. *)
let rec drain h ~f =
  match pop h with
  | None -> ()
  | Some (k, v) ->
    f k v;
    drain h ~f

let test_heap_clear_drain () =
  let h = Heap.create () in
  push_all h (List.map (fun k -> (k, k)) [ 4; 2; 9; 1 ]);
  let seen = ref [] in
  drain h ~f:(fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "drain sorted" [ 1; 2; 4; 9 ] (List.rev !seen);
  check_bool "drained" true (Heap.is_empty h)

let prop_heap_sorted =
  QCheck2.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck2.Gen.(list (int_bound 10_000))
    (fun keys ->
      let h = Heap.create () in
      push_all h (List.map (fun k -> (k, k)) keys);
      let rec collect acc =
        match pop h with None -> List.rev acc | Some (k, _) -> collect (k :: acc)
      in
      let popped = collect [] in
      popped = List.sort compare keys)

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 99 and b = Rng.create 99 in
  let seq_a = List.init 32 (fun _ -> Rng.bits64 a) in
  let seq_b = List.init 32 (fun _ -> Rng.bits64 b) in
  check_bool "same seed same stream" true (seq_a = seq_b);
  let c = Rng.create 100 in
  let seq_c = List.init 32 (fun _ -> Rng.bits64 c) in
  check_bool "different seed different stream" false (seq_a = seq_c)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let rest_a = List.init 16 (fun _ -> Rng.bits64 a) in
  let rest_b = List.init 16 (fun _ -> Rng.bits64 b) in
  check_bool "split independent" false (rest_a = rest_b)

let test_rng_split_ix () =
  (* Pure: deriving never advances the parent. *)
  let parent = Rng.create 42 in
  let _ = Rng.split_ix parent 0 and _ = Rng.split_ix parent 7 in
  let untouched = Rng.create 42 in
  check_bool "parent not advanced" true
    (List.init 8 (fun _ -> Rng.bits64 parent)
    = List.init 8 (fun _ -> Rng.bits64 untouched));
  (* Reproducible: same (parent state, index) gives the same stream. *)
  let stream i =
    List.init 16 (fun _ -> Rng.bits64 (Rng.split_ix (Rng.create 42) i))
  in
  check_bool "same index same stream" true (stream 3 = stream 3);
  (* Independent: distinct indices give pairwise-distinct streams. *)
  let streams = List.init 32 stream in
  let distinct = List.sort_uniq compare streams in
  check_int "32 indices, 32 distinct streams" 32 (List.length distinct);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.split_ix: negative index") (fun () ->
      ignore (Rng.split_ix parent (-1)))

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "int_in out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: non-positive bound") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    if Rng.bernoulli rng 0.0 then Alcotest.fail "p=0 returned true";
    if not (Rng.bernoulli rng 1.0) then Alcotest.fail "p=1 returned false"
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:3.0
  done;
  check_float "sample mean near 3.0" ~eps:0.15 3.0 (!sum /. float_of_int n)

let prop_rng_pareto_scale =
  QCheck2.Test.make ~name:"pareto samples >= scale" ~count:100
    QCheck2.Gen.(pair (int_range 1 1000) (float_range 1.1 5.0))
    (fun (seed, shape) ->
      let rng = Rng.create seed in
      let v = Rng.pareto rng ~shape ~scale:2.0 in
      v >= 2.0)

(* ------------------------------------------------------------------ Stats *)

(* Extrema and spread as the summary reports them. *)
let min_value s = (Stats.summarize s).Stats.min
let max_value s = (Stats.summarize s).Stats.max

let variance s =
  let sd = (Stats.summarize s).Stats.stddev in
  sd *. sd

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.count s);
  check_float "total" ~eps:1e-9 40.0 (Stats.total s);
  check_float "mean" ~eps:1e-9 5.0 (Stats.mean s);
  check_float "variance" ~eps:1e-9 (32.0 /. 7.0) (variance s);
  check_float "min" ~eps:1e-9 2.0 (min_value s);
  check_float "max" ~eps:1e-9 9.0 (max_value s)

let test_stats_empty () =
  let s = Stats.create () in
  check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  (* Quantiles and summaries of nothing are defined (zero), not NaN, so
     reports and emitted JSON stay well-formed. *)
  check_float "quantile zero" ~eps:0.0 0.0 (Stats.quantile s 0.5);
  check_float "p99 zero" ~eps:0.0 0.0 (Stats.quantile s 0.99);
  let summary = Stats.summarize s in
  check_int "summary n" 0 summary.Stats.n;
  check_float "summary mean" ~eps:0.0 0.0 summary.Stats.mean;
  check_float "summary sd" ~eps:0.0 0.0 summary.Stats.stddev;
  check_float "summary min" ~eps:0.0 0.0 summary.Stats.min;
  check_float "summary max" ~eps:0.0 0.0 summary.Stats.max;
  check_float "summary p50" ~eps:0.0 0.0 summary.Stats.p50;
  check_float "summary p99" ~eps:0.0 0.0 summary.Stats.p99

let test_stats_merge_empty () =
  (* Merging an empty accumulator in either direction preserves the
     non-empty side's moments and extrema exactly. *)
  let check_preserved label m =
    check_int (label ^ " count") 3 (Stats.count m);
    check_float (label ^ " total") ~eps:1e-9 9.0 (Stats.total m);
    check_float (label ^ " mean") ~eps:1e-9 3.0 (Stats.mean m);
    check_float (label ^ " variance") ~eps:1e-9 4.0 (variance m);
    check_float (label ^ " min") ~eps:1e-9 1.0 (min_value m);
    check_float (label ^ " max") ~eps:1e-9 5.0 (max_value m);
    check_float (label ^ " p50") ~eps:1e-9 3.0 (Stats.quantile m 0.5)
  in
  let full () =
    let s = Stats.create () in
    List.iter (Stats.add s) [ 1.0; 3.0; 5.0 ];
    s
  in
  check_preserved "empty-into-full" (Stats.merge (full ()) (Stats.create ()));
  check_preserved "full-into-empty" (Stats.merge (Stats.create ()) (full ()));
  let both = Stats.merge (Stats.create ()) (Stats.create ()) in
  check_int "both empty count" 0 (Stats.count both);
  check_float "both empty p50" ~eps:0.0 0.0 (Stats.quantile both 0.5)

let test_stats_quantiles () =
  let s = Stats.create () in
  for i = 0 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "p50" ~eps:1.0 50.0 (Stats.quantile s 0.5);
  check_float "p95" ~eps:1.5 95.0 (Stats.quantile s 0.95);
  check_float "p0" ~eps:1e-9 0.0 (Stats.quantile s 0.0);
  check_float "p100" ~eps:1e-9 100.0 (Stats.quantile s 1.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Stats.add b) [ 10.0; 20.0 ];
  let m = Stats.merge a b in
  check_int "merged count" 5 (Stats.count m);
  check_float "merged total" ~eps:1e-9 36.0 (Stats.total m);
  check_float "merged mean" ~eps:1e-9 7.2 (Stats.mean m);
  check_float "merged min" ~eps:1e-9 1.0 (min_value m);
  check_float "merged max" ~eps:1e-9 20.0 (max_value m)

let test_stats_reservoir_bounded () =
  (* Millions of samples must not blow memory; quantiles stay sane. *)
  let s = Stats.create ~reservoir:512 () in
  for i = 1 to 100_000 do
    Stats.add s (float_of_int (i mod 1000))
  done;
  check_int "count" 100_000 (Stats.count s);
  let q = Stats.quantile s 0.5 in
  check_bool "median plausible" true (q > 350.0 && q < 650.0)

let prop_stats_mean_bounded =
  QCheck2.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= min_value s -. 1e-9 && m <= max_value s +. 1e-9)

let prop_stats_variance_nonneg =
  QCheck2.Test.make ~name:"variance is non-negative" ~count:200
    QCheck2.Gen.(list_size (int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      (* A negative variance would make the standard deviation NaN. *)
      (Stats.summarize s).Stats.stddev >= 0.0)

(* ---------------------------------------------------------------- Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~at:(Time.ms 30) (note "c"));
  ignore (Engine.schedule e ~at:(Time.ms 10) (note "a"));
  ignore (Engine.schedule e ~at:(Time.ms 20) (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" (Time.ms 30) (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:(Time.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:(Time.ms 5) (fun () -> fired := true) in
  check_bool "pending" true (Engine.is_pending h);
  Engine.cancel h;
  check_bool "not pending" false (Engine.is_pending h);
  Engine.run e;
  check_bool "cancelled did not fire" false !fired;
  Engine.cancel h (* idempotent *)

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:(Time.ms 10) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: event in the past")
    (fun () -> ignore (Engine.schedule e ~at:(Time.ms 5) (fun () -> ())))

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun t -> ignore (Engine.schedule e ~at:t (fun () -> incr count)))
    [ Time.ms 1; Time.ms 2; Time.ms 50 ];
  Engine.run e ~until:(Time.ms 10);
  check_int "only early events" 2 !count;
  check_int "clock advanced to limit" (Time.ms 10) (Engine.now e);
  check_int "one pending" 1 (Engine.pending_events e);
  Engine.run e;
  check_int "rest ran" 3 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:(Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e ~delay:(Time.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "events fired" 2 (Engine.events_fired e)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec forever () = ignore (Engine.schedule_after e ~delay:1 forever) in
  forever ();
  Engine.run e ~max_events:100;
  check_int "bounded" 100 (Engine.events_fired e)

let test_timer_one_shot () =
  let e = Engine.create () in
  let fired = ref 0 in
  let timer = Engine.Timer.one_shot e ~delay:(Time.ms 3) (fun () -> incr fired) in
  check_bool "active" true (Engine.Timer.pending (Some timer));
  Engine.run e;
  check_int "fired once" 1 !fired;
  check_int "expirations" 1 (Engine.Timer.expirations timer);
  check_bool "inactive after" false (Engine.Timer.pending (Some timer));
  check_bool "no timer" false (Engine.Timer.pending None);
  (* A callback that re-arms its own timer sees it not pending. *)
  let cell = ref None and inside = ref true in
  cell := Some (Engine.Timer.one_shot e ~delay:(Time.ms 1) (fun () ->
      inside := Engine.Timer.pending !cell));
  Engine.run e;
  check_bool "not pending inside its callback" false !inside

let test_timer_periodic_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  let timer = Engine.Timer.periodic e ~interval:(Time.ms 10) (fun () -> incr fired) in
  ignore
    (Engine.schedule e ~at:(Time.ms 55) (fun () -> Engine.Timer.cancel timer));
  Engine.run e;
  check_int "five periods before cancel" 5 !fired;
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Timer.periodic: non-positive interval") (fun () ->
      ignore (Engine.Timer.periodic e ~interval:0 (fun () -> ())))

let test_timer_reschedule () =
  let e = Engine.create () in
  let fired_at = ref Time.zero in
  let timer =
    Engine.Timer.one_shot e ~delay:(Time.ms 10) (fun () -> fired_at := Engine.now e)
  in
  ignore
    (Engine.schedule e ~at:(Time.ms 5) (fun () ->
         Engine.Timer.reschedule timer ~delay:(Time.ms 20)));
  Engine.run e;
  check_int "fired at rescheduled time" (Time.ms 25) !fired_at;
  check_int "fired once" 1 (Engine.Timer.expirations timer)

(* ------------------------------------------------- Heap flat-array API *)

let test_heap_explicit_seq () =
  let h = Heap.create () in
  Heap.push h ~key:5 ~seq:10 3;
  Heap.push h ~key:5 ~seq:2 2;
  Heap.push h ~key:1 ~seq:99 1;
  check_int "top key" 1 (Heap.top_key h);
  check_int "top seq" 99 (Heap.top_seq h);
  check_int "top value" 1 (Heap.top_value h);
  Heap.drop_top h;
  check_int "seq breaks key tie" 2 (Heap.top_value h);
  Heap.drop_top h;
  check_int "higher seq later" 3 (Heap.top_value h);
  Heap.drop_top h;
  Alcotest.check_raises "top_key empty" (Invalid_argument "Heap.top_key: empty heap")
    (fun () -> ignore (Heap.top_key h));
  Alcotest.check_raises "drop_top empty" (Invalid_argument "Heap.drop_top: empty heap")
    (fun () -> Heap.drop_top h)

let test_heap_filter_in_place () =
  let h = Heap.create () in
  push_all h (List.init 20 (fun i -> (19 - i, 100 + 19 - i)));
  Heap.filter_in_place h ~f:(fun key _seq _v -> key mod 2 = 0);
  check_int "kept half" 10 (Heap.length h);
  let out = ref [] in
  drain h ~f:(fun k v ->
      check_int "payload follows its key" (100 + k) v;
      out := k :: !out);
  Alcotest.(check (list int)) "still a heap over survivors"
    [ 0; 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
    (List.rev !out);
  Heap.push h ~key:1 ~seq:0 0;
  Heap.filter_in_place h ~f:(fun _ _ _ -> false);
  check_bool "can drop everything" true (Heap.is_empty h)

(* --------------------------------------- Engine wheel/heap equivalence *)

(* A randomized schedule/cancel/reschedule workload whose delays span the
   wheel's level-0 and level-1 horizons and the overflow heap, with a
   bias towards identical deadlines so FIFO tie-breaking is exercised.
   Returns the full fire trace: (timer id, fire time) in order. *)
let run_random_schedule backend seed =
  let rng = Rng.create seed in
  let engine = Engine.create ~backend () in
  let n = 8 + Rng.int rng 25 in
  let trace = ref [] in
  let timers = Array.make n None in
  let delay () =
    match Rng.int rng 6 with
    | 0 -> Time.us (1 + Rng.int rng 64) (* below one wheel tick *)
    | 1 -> Time.ms (1 + Rng.int rng 10) (* level 0 *)
    | 2 -> Time.ms (20 * (1 + Rng.int rng 10)) (* level 1 *)
    | 3 -> Time.sec (float_of_int (1 + Rng.int rng 4)) (* level-1 edge *)
    | 4 -> Time.sec (float_of_int (5 + Rng.int rng 5)) (* overflow *)
    | _ -> Time.ms 1 (* tie magnet *)
  in
  (* Handles outlive their events: a late cancel or query of a fired or
     cancelled handle names an event slot another event may hold by
     then. *)
  let handles = Array.make n None in
  let note tag () = trace := (tag, Engine.now engine) :: !trace in
  for i = 0 to n - 1 do
    let expire () =
      trace := (i, Engine.now engine) :: !trace;
      match Rng.int rng 7 with
      | 0 -> (
        match timers.(i) with
        | Some t -> Engine.Timer.reschedule t ~delay:(delay ())
        | None -> ())
      | 1 -> (
        match timers.(Rng.int rng n) with
        | Some t -> Engine.Timer.cancel t
        | None -> ())
      | 2 -> (
        match timers.(Rng.int rng n) with
        | Some t -> Engine.Timer.reschedule t ~delay:(delay ())
        | None -> ())
      | 3 ->
        Engine.schedule_anon engine
          ~at:(Time.add (Engine.now engine) (delay ()))
          (note (1000 + i))
      | 4 ->
        handles.(Rng.int rng n) <-
          Some (Engine.schedule_after engine ~delay:(delay ()) (note (2000 + i)))
      | 5 -> (
        match handles.(Rng.int rng n) with
        | Some h ->
          note (if Engine.is_pending h then 3001 else 3000) ();
          Engine.cancel h
        | None -> ())
      | _ -> ()
    in
    timers.(i) <- Some (Engine.Timer.one_shot engine ~delay:(delay ()) expire)
  done;
  Engine.run ~max_events:300 engine;
  (List.rev !trace, Engine.events_fired engine, Engine.pending_events engine)

let prop_engine_backend_equivalence =
  QCheck2.Test.make
    ~name:"wheel and heap backends fire the identical event sequence" ~count:1000
    QCheck2.Gen.int
    (fun seed ->
      run_random_schedule `Wheel seed = run_random_schedule `Heap seed)

let test_engine_horizon_order () =
  (* One deterministic schedule straddling every tier: ready (zero
     delay), wheel level 0, level 1, a level-1 cascade boundary, and the
     overflow heap. *)
  List.iter
    (fun backend ->
      let e = Engine.create ~backend () in
      let log = ref [] in
      let note tag () = log := tag :: !log in
      ignore (Engine.schedule_after e ~delay:(Time.sec 10.0) (note "overflow"));
      ignore (Engine.schedule_after e ~delay:(Time.sec 2.0) (note "level1"));
      ignore (Engine.schedule_after e ~delay:(Time.ms 100) (note "cascade"));
      ignore (Engine.schedule_after e ~delay:(Time.ms 1) (note "level0"));
      ignore (Engine.schedule_after e ~delay:0 (note "ready"));
      ignore (Engine.schedule_after e ~delay:(Time.ms 1) (note "level0-tie"));
      Engine.run e;
      Alcotest.(check (list string))
        "tiers fire in deadline order"
        [ "ready"; "level0"; "level0-tie"; "cascade"; "level1"; "overflow" ]
        (List.rev !log))
    [ `Wheel; `Heap ]

let test_engine_counters () =
  let e = Engine.create () in
  let c0 = Engine.counters e in
  check_int "starts clean" 0
    (c0.Engine.events_fired + c0.Engine.wheel_inserts + c0.Engine.lazy_cancels);
  let near = Engine.schedule_after e ~delay:(Time.ms 1) (fun () -> ()) in
  let far = Engine.schedule_after e ~delay:(Time.sec 60.0) (fun () -> ()) in
  ignore (Engine.schedule_after e ~delay:0 (fun () -> ()));
  let c = Engine.counters e in
  check_int "wheel insert" 1 c.Engine.wheel_inserts;
  check_int "overflow insert" 1 c.Engine.overflow_inserts;
  check_int "ready insert" 1 c.Engine.ready_inserts;
  Engine.cancel near;
  Engine.cancel far;
  let c = Engine.counters e in
  check_int "wheel cancel is eager" 1 c.Engine.wheel_cancels;
  check_int "heap cancel is lazy" 1 c.Engine.lazy_cancels;
  check_int "dead entry awaiting sweep" 1 c.Engine.dead_entries;
  let hr = Engine.wheel_hit_rate e in
  check_bool "hit rate in [0,1]" true (hr >= 0.0 && hr <= 1.0);
  let cr = Engine.cancelled_ratio e in
  check_bool "cancelled ratio in (0,1]" true (cr > 0.0 && cr <= 1.0);
  Engine.run e;
  let c = Engine.counters e in
  check_int "only the live event fired" 1 c.Engine.events_fired;
  let timer = Engine.Timer.one_shot e ~delay:(Time.ms 1) (fun () -> ()) in
  Engine.Timer.reschedule timer ~delay:(Time.ms 2);
  let c = Engine.counters e in
  check_int "reschedule counted as rearm" 1 c.Engine.timers_rearmed;
  Engine.run e;
  check_int "no dead entries left" 0 (Engine.counters e).Engine.dead_entries

(* ------------------------------------------------- Engine slot reuse *)

(* A freed event slot is reused last in, first out, so the event
   scheduled right after a fire or cancel takes the slot the stale
   handle or timer names. *)
let test_engine_handle_reuse () =
  let e = Engine.create () in
  let fired = ref 0 in
  let bump () = incr fired in
  let h = Engine.schedule e ~at:(Time.ms 1) bump in
  Engine.run e;
  let fresh = Engine.schedule e ~at:(Time.ms 2) bump in
  check_bool "fired handle not pending" false (Engine.is_pending h);
  Engine.cancel h;
  check_bool "late cancel spares the slot's new event" true (Engine.is_pending fresh);
  Engine.cancel fresh;
  Engine.schedule_anon e ~at:(Time.ms 3) bump;
  Engine.cancel fresh;
  Engine.cancel h;
  check_int "anon event in the reused slot still pending" 1 (Engine.pending_events e);
  Engine.run e;
  check_int "first and anon events fired" 2 !fired

let test_timer_reuse () =
  let e = Engine.create () in
  let fired = ref 0 in
  let bump () = incr fired in
  let t1 = Engine.Timer.one_shot e ~delay:(Time.ms 1) bump in
  Engine.run e;
  let h = Engine.schedule e ~at:(Time.ms 5) bump in
  check_bool "expired timer inactive" false (Engine.Timer.pending (Some t1));
  Engine.Timer.cancel t1;
  check_bool "timer cancel spares the slot's new event" true (Engine.is_pending h);
  Engine.cancel h;
  let t2 = Engine.Timer.one_shot e ~delay:(Time.ms 2) bump in
  check_bool "cancelled handle's slot held by a timer" true (Engine.Timer.pending (Some t2));
  check_bool "old timer still inactive" false (Engine.Timer.pending (Some t1));
  Engine.Timer.cancel t1;
  Engine.cancel h;
  check_bool "stale cancels spare the new timer" true (Engine.Timer.pending (Some t2));
  Engine.Timer.reschedule t1 ~delay:(Time.ms 3);
  check_bool "re-armed timer active" true (Engine.Timer.pending (Some t1));
  check_bool "re-arm takes a fresh slot" true (Engine.Timer.pending (Some t2));
  Engine.Timer.reschedule t2 ~delay:(Time.ms 2);
  check_bool "re-armed pending timer still active" true (Engine.Timer.pending (Some t2));
  Engine.run e;
  check_int "both timers fired once more" 3 !fired;
  check_bool "fired timer inactive" false (Engine.Timer.pending (Some t2));
  check_int "expirations" 2 (Engine.Timer.expirations t1)

(* 1M schedule/fire/cancel cycles over 64 handle slots spanning every
   tier, lazily cancelled heap entries included: the slab stays at the
   peak pending population, never growing with the number of events. *)
let test_engine_slab_bounded () =
  let e = Engine.create () in
  let initial = (Engine.counters e).Engine.event_slots in
  let rng = Rng.create 11 in
  let slots = Array.make 64 None in
  let nop () = () in
  for i = 1 to 1_000_000 do
    let k = Rng.int rng 64 in
    Option.iter Engine.cancel slots.(k);
    let delay =
      match Rng.int rng 4 with
      | 0 -> 0
      | 1 -> Time.us (Rng.int rng 10_000)
      | 2 -> Time.ms (Rng.int rng 2_000)
      | _ -> Time.sec 6.0
    in
    slots.(k) <- Some (Engine.schedule_after e ~delay nop);
    if i land 1 = 0 then ignore (Engine.step e)
  done;
  check_bool "at most 64 pending" true (Engine.pending_events e <= 64);
  let grown = (Engine.counters e).Engine.event_slots in
  if grown > initial + (4 * 64) then
    Alcotest.failf "event slab grew from %d to %d slots" initial grown

let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_engine_alloc_free () =
  let e = Engine.create () in
  let count = ref 0 in
  let bump () = incr count in
  let anon () =
    for _ = 1 to 1_000_000 do
      Engine.schedule_anon e ~at:(Time.add (Engine.now e) (Time.us 100)) bump;
      ignore (Engine.step e)
    done
  in
  Alcotest.(check (float 0.0)) "1M schedule_anon + fire" 0.0 (minor_words anon);
  let timer = Engine.Timer.one_shot e ~delay:(Time.ms 1) bump in
  let rearm () =
    for i = 1 to 1_000_000 do
      (* Wheel delays from one tick to past level 0. *)
      Engine.Timer.reschedule timer ~delay:(Time.us (100 + (i land 32767)))
    done
  in
  Alcotest.(check (float 0.0)) "1M Timer.reschedule" 0.0 (minor_words rearm);
  (* [restart] builds its closure only when it creates the timer. *)
  let cell = ref None in
  let restart () =
    for i = 1 to 1_000_000 do
      cell := Engine.Timer.restart e !cell ~delay:(Time.us (100 + (i land 32767))) ignore ()
    done
  in
  Alcotest.(check (float 0.0)) "1M Timer.restart" 0.0 (minor_words restart)

(* ----------------------------------------------------------------- Trace *)

let test_trace_counters () =
  let tr = Trace.create () in
  Trace.count tr "x";
  Trace.count tr "x";
  for _ = 1 to 5 do
    Trace.count tr "y"
  done;
  check_int "x" 2 (Trace.counter tr "x");
  check_int "y" 5 (Trace.counter tr "y");
  check_int "missing" 0 (Trace.counter tr "z");
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("x", 2); ("y", 5) ]
    (Trace.counters tr)

let test_trace_log_capacity () =
  let tr = Trace.create ~log_capacity:3 () in
  for i = 1 to 5 do
    Trace.event tr ~at:(Time.ms i) ~category:"ev" ~detail:(string_of_int i)
  done;
  check_int "bounded: the two oldest evicted" 2 (Trace.dropped tr);
  check_int "counter still exact" 5 (Trace.counter tr "ev")

let test_trace_disabled_log () =
  let tr = Trace.create ~log_capacity:0 () in
  Trace.event tr ~at:Time.zero ~category:"ev" ~detail:"d";
  check_int "nothing retained" 1 (Trace.dropped tr);
  check_int "counter works" 1 (Trace.counter tr "ev")

let test_trace_dropped () =
  let tr = Trace.create ~log_capacity:3 () in
  for i = 1 to 5 do
    Trace.event tr ~at:(Time.ms i) ~category:"ev" ~detail:(string_of_int i)
  done;
  check_int "two evicted" 2 (Trace.dropped tr);
  let disabled = Trace.create ~log_capacity:0 () in
  Trace.event disabled ~at:Time.zero ~category:"ev" ~detail:"d";
  check_int "capacity 0 drops everything" 1 (Trace.dropped disabled)

let test_trace_hash () =
  let feed tr =
    for i = 1 to 5 do
      Trace.event tr ~at:(Time.ms i) ~category:"ev" ~detail:(string_of_int i)
    done
  in
  let a = Trace.create ~log_capacity:3 () in
  let b = Trace.create ~log_capacity:512 () in
  feed a;
  feed b;
  Alcotest.(check int64) "hash covers evicted entries too" (Trace.hash a)
    (Trace.hash b);
  let c = Trace.create () in
  Trace.event c ~at:(Time.ms 1) ~category:"ev" ~detail:"other";
  check_bool "different stream, different hash" true (Trace.hash a <> Trace.hash c);
  check_bool "nonzero offset basis" true (Trace.hash (Trace.create ()) <> 0L)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "sim.time",
      [
        Alcotest.test_case "unit conversions" `Quick test_time_units;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "of_rate" `Quick test_time_of_rate;
        Alcotest.test_case "printer" `Quick test_time_pp;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "push/pop ordering" `Quick test_heap_basic;
        Alcotest.test_case "FIFO tie-break" `Quick test_heap_fifo_ties;
        Alcotest.test_case "clear and drain" `Quick test_heap_clear_drain;
      ]
      @ qsuite [ prop_heap_sorted ] );
    ( "sim.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split streams are independent" `Quick test_rng_split;
        Alcotest.test_case "indexed split is pure and independent" `Quick
          test_rng_split_ix;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
      ]
      @ qsuite [ prop_rng_pareto_scale ] );
    ( "sim.stats",
      [
        Alcotest.test_case "basic moments" `Quick test_stats_basic;
        Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
        Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "merge with empty" `Quick test_stats_merge_empty;
        Alcotest.test_case "bounded reservoir" `Quick test_stats_reservoir_bounded;
      ]
      @ qsuite [ prop_stats_mean_bounded; prop_stats_variance_nonneg ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_ordering;
        Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "past scheduling raises" `Quick test_engine_past_raises;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
        Alcotest.test_case "max events bound" `Quick test_engine_max_events;
        Alcotest.test_case "one-shot timer" `Quick test_timer_one_shot;
        Alcotest.test_case "periodic timer and cancel" `Quick test_timer_periodic_cancel;
        Alcotest.test_case "reschedule" `Quick test_timer_reschedule;
        Alcotest.test_case "explicit-seq flat heap" `Quick test_heap_explicit_seq;
        Alcotest.test_case "heap filter_in_place" `Quick test_heap_filter_in_place;
        Alcotest.test_case "tier ordering across horizons" `Quick
          test_engine_horizon_order;
        Alcotest.test_case "whitebox counters" `Quick test_engine_counters;
        Alcotest.test_case "stale handle after slot reuse" `Quick test_engine_handle_reuse;
        Alcotest.test_case "stale timer after slot reuse" `Quick test_timer_reuse;
        Alcotest.test_case "event slab stays bounded" `Quick test_engine_slab_bounded;
        Alcotest.test_case "anon events and re-arms allocate nothing" `Quick
          test_engine_alloc_free;
      ]
      @ qsuite [ prop_engine_backend_equivalence ] );
    ( "sim.trace",
      [
        Alcotest.test_case "counters" `Quick test_trace_counters;
        Alcotest.test_case "log capacity" `Quick test_trace_log_capacity;
        Alcotest.test_case "disabled log keeps counters" `Quick test_trace_disabled_log;
        Alcotest.test_case "dropped-entry counter" `Quick test_trace_dropped;
        Alcotest.test_case "stream hash is capacity-independent" `Quick
          test_trace_hash;
      ] );
  ]
