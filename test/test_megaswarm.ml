(* Partitioned CHURN test layer: shard-count invariance of the
   multi-partition workload (the digest and every rendered UNITES report
   must not depend on how many domains execute it) across the admission,
   steering, chaos and wire knobs, rejection of configurations the
   workload cannot run, and the P² streaming quantile estimator against
   exact order statistics. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_chaos
open Adaptive_fleet
open Adaptive_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [cfg] at 1, 2 and 4 shards: combined digest, per-partition digests
   and rendered UNITES reports must all be identical. *)
let shard_invariant cfg =
  let run shards = Churn.run { cfg with Churn.shards } in
  let o1 = run 1 in
  let reports1 = Churn.unites_reports o1 in
  let same shards =
    let o = run shards in
    Int64.equal o1.Churn.digest o.Churn.digest
    && o1.Churn.partition_digests = o.Churn.partition_digests
    && reports1 = Churn.unites_reports o
  in
  same 2 && same 4

(* ------------------------------------------------------------------ *)
(* Shard-count invariance *)

(* Random small configurations over the single-pair workload's knobs —
   admission thresholds, STEER, a bit-error burst (with the invariant
   oracle), wire-true mode — at 2 to 5 partitions.  The partition count
   stays fixed across the three runs; only the shard grouping varies.
   Wire-true mode cannot carry cross-partition sessions, so a wire draw
   turns cross traffic off. *)
let prop_shard_parity =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* sessions = int_range 80 200 in
      let* partitions = int_range 2 5 in
      let* admission =
        opt
          (let* soft = int_range 5 40 in
           let* extra = int_range 0 40 in
           return
             { Mantts.soft_sessions = soft; hard_sessions = soft + extra;
               max_cpu_backlog = Time.ms 50 })
      in
      let* steer = bool in
      let* burst =
        opt
          (let* start = int_range 100 900 in
           let* duration = int_range 200 900 in
           let* intensity = float_range 0.5 1.0 in
           return
             [ { Fault.cls = Fault.Ber_burst; start = Time.ms start;
                 duration = Time.ms duration; target = 0; intensity } ])
      in
      let* wire = bool in
      return (seed, sessions, partitions, admission, steer, burst, wire))
  in
  QCheck2.Test.make
    ~name:"megaswarm digest and UNITES independent of shard count" ~count:4
    ~print:(fun (seed, sessions, partitions, admission, steer, burst, wire) ->
      Printf.sprintf
        "seed=%d sessions=%d partitions=%d admission=%s steer=%b burst=%s \
         wire=%b"
        seed sessions partitions
        (match admission with
        | Some a ->
          Printf.sprintf "%d/%d" a.Mantts.soft_sessions a.Mantts.hard_sessions
        | None -> "none")
        steer
        (match burst with
        | Some [ f ] ->
          Printf.sprintf "%s+%s@%.2f" (Time.to_string f.Fault.start)
            (Time.to_string f.Fault.duration) f.Fault.intensity
        | Some _ | None -> "none")
        wire)
    gen
    (fun (seed, sessions, partitions, admission, steer, burst, wire) ->
      shard_invariant
        { (Bench_harness.Churn_scale.partitioned ~shards:1 ~sessions ~seed) with
          Churn.partitions;
          admission;
          steer = (if steer then Some Steer.default_policy else None);
          chaos = burst;
          check_invariants = burst <> None;
          wire;
          cross_share = (if wire then 0 else 16) })

(* Heterogeneous per-pair lookahead: a positive wan_spread gives every
   ordered partition pair its own latency and hands SHARD the matching
   lookahead matrix, so the barrier runs per-destination run-ahead
   horizons instead of the global minimum.  The refinement must be
   invisible in the results. *)
let prop_pair_lookahead_parity =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* sessions = int_range 80 200 in
      let* partitions = int_range 2 5 in
      let* spread_ms = int_range 1 20 in
      return (seed, sessions, partitions, spread_ms))
  in
  QCheck2.Test.make
    ~name:"per-pair lookahead preserves shard-count invariance" ~count:3
    ~print:(fun (seed, sessions, partitions, spread_ms) ->
      Printf.sprintf "seed=%d sessions=%d partitions=%d spread=%dms" seed
        sessions partitions spread_ms)
    gen
    (fun (seed, sessions, partitions, spread_ms) ->
      shard_invariant
        { (Bench_harness.Churn_scale.partitioned ~shards:1 ~sessions ~seed) with
          Churn.partitions;
          wan_spread = Time.ms spread_ms })

let test_partitioned_deterministic () =
  let cfg = Bench_harness.Churn_scale.partitioned ~shards:1 ~sessions:150 ~seed:11 in
  let o1 = Churn.run cfg in
  let o2 = Churn.run cfg in
  check_bool "same seed, same digest" true
    (Int64.equal o1.Churn.digest o2.Churn.digest);
  check_int "all opens admitted without a policy" o1.Churn.offered
    o1.Churn.admitted;
  check_bool "cross-partition traffic flowed" true (o1.Churn.wan_exchanged > 0);
  check_bool "cross sessions opened" true (o1.Churn.cross_opened > 0);
  (* O(active) control plane: the monitor tick walks the monitored
     share, not the whole population, and the time-wait sweeper fires
     far fewer times than there are closed connections. *)
  check_bool "monitor tick working set stayed O(monitored)" true
    (o1.Churn.monitor_ticks = 0
    || o1.Churn.monitor_walked / o1.Churn.monitor_ticks <= o1.Churn.admitted);
  check_bool "time-wait sweeps coalesced" true
    (o1.Churn.tw_expired = 0 || o1.Churn.tw_sweeps < o1.Churn.tw_expired)

(* ------------------------------------------------------------------ *)
(* Configuration rejection *)

(* Every configuration the workload cannot run is refused up front by
   [validate] with a message that starts with the knob's name, and [run]
   raises with the same message instead of failing somewhere inside the
   stack. *)
let test_validate_rejects () =
  let base = Churn.default_config ~sessions:50 ~seed:3 in
  let cases =
    [
      ("sessions", { base with Churn.sessions = 0 });
      ("partitions", { base with Churn.partitions = 0 });
      ("shards", { base with Churn.shards = 0 });
      ("churn_rounds", { base with Churn.churn_rounds = -1 });
      ("payload_bytes", { base with Churn.payload_bytes = 0 });
      ("open_window", { base with Churn.open_window = Time.ms (-1) });
      ("monitored_share", { base with Churn.monitored_share = -1 });
      ("cross_share", { base with Churn.cross_share = -1 });
      ("wan_latency", { base with Churn.wan_latency = Time.zero });
      ("wan_spread", { base with Churn.wan_spread = Time.ms (-1) });
      ("session_cap", { base with Churn.session_cap = Some 0 });
      ("link_bps", { base with Churn.link_bps = 0.0 });
      ("link_mtu", { base with Churn.link_mtu = 0 });
      ("link_queue_pkts", { base with Churn.link_queue_pkts = 0 });
      ("host_speed", { base with Churn.host_speed = -1.0 });
      ("wire-true", { base with Churn.wire = true; partitions = 2 });
    ]
  in
  List.iter
    (fun (knob, cfg) ->
      match Churn.validate cfg with
      | Ok _ -> Alcotest.failf "%s: bad configuration accepted" knob
      | Error msg ->
        check_bool (knob ^ " named in the error") true
          (String.starts_with ~prefix:knob msg);
        Alcotest.check_raises (knob ^ ": run refuses it")
          (Invalid_argument ("Churn.run: " ^ msg))
          (fun () -> ignore (Churn.run cfg)))
    cases;
  (* The supported neighbours of the rejected cases pass. *)
  List.iter
    (fun cfg ->
      check_bool "supported configuration accepted" true
        (Result.is_ok (Churn.validate cfg)))
    [
      base;
      { base with Churn.partitions = 3; shards = 5 };
      { base with Churn.wire = true; partitions = 2; cross_share = 0 };
      { base with Churn.churn_rounds = 0; open_window = Time.zero };
    ]

(* ------------------------------------------------------------------ *)
(* Zero-lookahead rejection *)

let test_zero_lookahead_rejected () =
  let dummy_run _ _ = () in
  let dummy_drain _ = [] in
  let dummy_inject _ ~at:_ ~src:_ () = () in
  Alcotest.check_raises "Time.zero lookahead is rejected"
    (Invalid_argument
       "Shard.create: lookahead must be positive — a zero-lookahead \
        cross-partition link admits no conservative synchronization window")
    (fun () ->
      ignore
        (Shard.create ~lookahead:Time.zero ~partitions:2 ~run_to:dummy_run
           ~drain:dummy_drain ~inject:dummy_inject ()));
  (* The same guard reaches churn configs through wan_latency. *)
  match
    Churn.run
      { (Bench_harness.Churn_scale.partitioned ~shards:1 ~sessions:50 ~seed:3) with
        Churn.wan_latency = Time.zero }
  with
  | _ -> Alcotest.fail "zero wan_latency must not run"
  | exception Invalid_argument _ -> ()

(* The per-pair refinement must not open a hole the scalar guard
   closed: a lookahead matrix with even one non-positive entry is
   rejected at construction. *)
let test_zero_pair_lookahead_rejected () =
  let dummy_run _ _ = () in
  let dummy_drain _ = [] in
  let dummy_inject _ ~at:_ ~src:_ () = () in
  Alcotest.check_raises "one zero pair is rejected"
    (Invalid_argument
       "Shard.create: per-pair lookahead must be positive — a zero-lookahead \
        cross-partition link admits no conservative synchronization window")
    (fun () ->
      ignore
        (Shard.create
           ~pair_lookahead:(fun ~src ~dst ->
             if src = 2 && dst = 0 then Time.zero else Time.ms 5)
           ~lookahead:(Time.ms 5) ~partitions:3 ~run_to:dummy_run
           ~drain:dummy_drain ~inject:dummy_inject ()))

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budget *)

(* Regression guard for the allocation-starved event loop: the sim
   stage of a seeded churn run must stay under a fixed minor-words-per-
   event ceiling.  The measured figure is ~100 words/event; the ceiling
   leaves headroom for compiler/runtime variance but fails loudly if an
   allocating construct (closure, tuple key, format call) sneaks back
   onto the per-event path.  shards = 1 so the per-domain GC counters
   see every event. *)
let test_alloc_budget () =
  let cfg =
    { (Bench_harness.Churn_scale.partitioned ~shards:1 ~sessions:2_000 ~seed:77) with
      Churn.partitions = 2 }
  in
  let o = Churn.run cfg in
  let sim =
    match List.assoc_opt "sim" o.Churn.stage_minor_words with
    | Some w -> w
    | None -> Alcotest.fail "outcome is missing the sim stage sample"
  in
  check_bool "events fired" true (o.Churn.events_fired > 0);
  let per_event = sim /. float_of_int o.Churn.events_fired in
  if per_event > 180.0 then
    Alcotest.failf
      "hot path allocates %.0f minor words/event (ceiling 180); an \
       allocation crept back into the per-event path"
      per_event;
  check_bool "stage accounting covers the run" true
    (List.map fst o.Churn.stage_minor_words
    = [ "build"; "schedule"; "sim"; "reduce" ])

(* Regression guard for the UNITES report stage: rendering every
   partition's report of a seeded P² run must stay under a fixed
   minor-words-per-line ceiling.  Rendering through [Format] and a fresh
   summary record per line cost ~620 words/line here; the direct writer
   ~70.  The ceiling is the one e13's smoke run enforces. *)
let test_report_alloc () =
  let module C = Bench_harness.Churn_scale in
  let cfg =
    { (C.partitioned ~shards:1 ~sessions:2_000 ~seed:77) with Churn.partitions = 2 }
  in
  let _, render = C.render_reports (Churn.run cfg) in
  check_bool "reports rendered" true (render.C.render_lines > 1_000);
  let per_line = C.words_per_line render in
  let ceiling = C.render_ceiling_words_per_line in
  if per_line > ceiling then
    Alcotest.failf
      "UNITES report rendering allocates %.0f minor words/line (ceiling \
       %.0f)"
      per_line ceiling

(* ------------------------------------------------------------------ *)
(* P² estimator vs exact order statistics *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* On a uniform stream the P² markers track their target quantiles
   closely; we assert a conservative bound — within 10% of the sample
   range of the exact order statistic — plus exact moments and extrema,
   which the estimator maintains independently of the sketch. *)
let prop_p2_error_bound =
  let gen =
    QCheck2.Gen.(list_size (int_range 50 1500) (float_bound_inclusive 1000.0))
  in
  QCheck2.Test.make ~name:"P2 quantiles within 10% of range of exact"
    ~count:50
    ~print:(fun l -> Printf.sprintf "%d samples" (List.length l))
    gen
    (fun samples ->
      QCheck2.assume (samples <> []);
      let p2 = Stats.create ~estimator:Stats.P2 () in
      List.iter (Stats.add p2) samples;
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let range = sorted.(n - 1) -. sorted.(0) in
      let tol = Float.max (0.10 *. range) 1e-9 in
      let close q =
        Float.abs (Stats.quantile p2 q -. exact_quantile sorted q) <= tol
      in
      let exact_sum = List.fold_left ( +. ) 0.0 samples in
      close 0.5 && close 0.95 && close 0.99
      && Stats.count p2 = n
      && Float.abs (Stats.mean p2 -. (exact_sum /. float_of_int n)) <= 1e-6
      && (Stats.summarize p2).Stats.min = sorted.(0)
      && (Stats.summarize p2).Stats.max = sorted.(n - 1))

(* The first five observations are stored verbatim: quantiles are exact
   order statistics, not marker reads. *)
let test_p2_small_n_exact () =
  let p2 = Stats.create ~estimator:Stats.P2 () in
  List.iter (Stats.add p2) [ 9.0; 1.0; 5.0; 3.0; 7.0 ];
  Alcotest.(check (float 1e-9)) "median of five" 5.0 (Stats.quantile p2 0.5);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.quantile p2 0.0);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.quantile p2 1.0)

(* Merging two P² accumulators: counts, moments and extrema combine
   exactly; quantiles stay plausible (inside the merged extrema). *)
let test_p2_merge () =
  let a = Stats.create ~estimator:Stats.P2 () in
  let b = Stats.create ~estimator:Stats.P2 () in
  for i = 1 to 400 do
    Stats.add a (float_of_int i)
  done;
  for i = 401 to 1000 do
    Stats.add b (float_of_int i)
  done;
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 1000 (Stats.count m);
  Alcotest.(check (float 1e-6)) "mean" 500.5 (Stats.mean m);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.summarize m).Stats.min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 (Stats.summarize m).Stats.max;
  check_bool "merged estimator stays P2" true
    (Stats.estimator_kind m = Stats.P2);
  let p50 = Stats.quantile m 0.5 in
  check_bool "merged median within the merged range" true
    (p50 >= 1.0 && p50 <= 1000.0 && Float.abs (p50 -. 500.5) <= 100.0)

let suite =
  [
    ( "megaswarm.parity",
      List.map QCheck_alcotest.to_alcotest
        [ prop_shard_parity; prop_pair_lookahead_parity ]
      @ [
          Alcotest.test_case "megaswarm is deterministic" `Quick
            test_partitioned_deterministic;
        ] );
    ( "churn.validate",
      [
        Alcotest.test_case "invalid configurations rejected" `Quick
          test_validate_rejects;
      ] );
    ( "megaswarm.lookahead",
      [
        Alcotest.test_case "zero lookahead rejected" `Quick
          test_zero_lookahead_rejected;
        Alcotest.test_case "zero per-pair lookahead rejected" `Quick
          test_zero_pair_lookahead_rejected;
      ] );
    ( "megaswarm.alloc",
      [
        Alcotest.test_case "sim stage under the words/event ceiling" `Quick
          test_alloc_budget;
      ] );
    ( "unites.report_alloc",
      [
        Alcotest.test_case "report rendering under the words/line ceiling"
          `Quick test_report_alloc;
      ] );
    ( "megaswarm.p2",
      List.map QCheck_alcotest.to_alcotest [ prop_p2_error_bound ]
      @ [
          Alcotest.test_case "first five observations are exact" `Quick
            test_p2_small_n_exact;
          Alcotest.test_case "merge combines moments exactly" `Quick
            test_p2_merge;
        ] );
  ]
