(* Partitioned CHURN test layer: shard-count invariance of the
   multi-partition workload (the digest and every rendered UNITES report
   must not depend on how many domains execute it) across the admission,
   steering, chaos and wire knobs, rejection of configurations the
   workload cannot run, the P² streaming quantile estimator against
   exact order statistics and, bit for bit, against a per-sample
   reference, and the allocation cost of UNITES observation. *)

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

(* ------------------------------------------------------------------ *)
(* P² bit-exactness against a reference copy of the estimator as it stood
   before its markers moved into one flat block and constant runs were
   deferred: one record of four 5-float arrays per target quantile,
   every marker updated on every sample past the fifth. *)

module Ref_p2 = struct
  type m = { pq : float; h : float array; np : float array; nd : float array; dn : float array }

  let create_m q =
    {
      pq = q;
      h = Array.make 5 0.0;
      np = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      nd = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      dn = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
    }

  let add_m m x =
    let k =
      if x < m.h.(0) then begin
        m.h.(0) <- x;
        0
      end
      else if x >= m.h.(4) then begin
        m.h.(4) <- x;
        3
      end
      else begin
        let k = ref 0 in
        for i = 1 to 3 do
          if x >= m.h.(i) then k := i
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      m.np.(i) <- m.np.(i) +. 1.0
    done;
    for i = 0 to 4 do
      m.nd.(i) <- m.nd.(i) +. m.dn.(i)
    done;
    for i = 1 to 3 do
      let d = m.nd.(i) -. m.np.(i) in
      if
        (d >= 1.0 && m.np.(i + 1) -. m.np.(i) > 1.0)
        || (d <= -1.0 && m.np.(i - 1) -. m.np.(i) < -1.0)
      then begin
        let s = if d >= 0.0 then 1.0 else -1.0 in
        let hi = m.h.(i) and hp = m.h.(i + 1) and hm = m.h.(i - 1) in
        let ni = m.np.(i) and np1 = m.np.(i + 1) and nm1 = m.np.(i - 1) in
        let parabolic =
          hi
          +. s /. (np1 -. nm1)
             *. (((ni -. nm1 +. s) *. (hp -. hi) /. (np1 -. ni))
                +. ((np1 -. ni -. s) *. (hi -. hm) /. (ni -. nm1)))
        in
        let next =
          if hm < parabolic && parabolic < hp then parabolic
          else if s > 0.0 then hi +. ((hp -. hi) /. (np1 -. ni))
          else hi -. ((hm -. hi) /. (nm1 -. ni))
        in
        m.h.(i) <- next;
        m.np.(i) <- ni +. s
      end
    done

  (* n, then mean, m2, sum, min, max as [Stats] keeps them. *)
  type t = { mutable n : int; q : float array; head : float array; mutable ms : m array }

  let create () =
    { n = 0; q = [| 0.0; 0.0; 0.0; infinity; neg_infinity |]; head = Array.make 5 0.0; ms = [||] }

  let add t x =
    t.n <- t.n + 1;
    let q = t.q in
    q.(2) <- q.(2) +. x;
    let delta = x -. q.(0) in
    q.(0) <- q.(0) +. (delta /. float_of_int t.n);
    q.(1) <- q.(1) +. (delta *. (x -. q.(0)));
    if x < q.(3) then q.(3) <- x;
    if x > q.(4) then q.(4) <- x;
    if t.n <= 5 then begin
      t.head.(t.n - 1) <- x;
      if t.n = 5 then begin
        let sorted = Array.copy t.head in
        Array.sort Float.compare sorted;
        t.ms <- Array.map create_m [| 0.50; 0.95; 0.99 |];
        Array.iter (fun m -> Array.blit sorted 0 m.h 0 5) t.ms
      end
    end
    else Array.iter (fun m -> add_m m x) t.ms

  let interp_sorted xs q =
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let pos = q *. float_of_int (Array.length xs - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then xs.(lo)
    else
      let w = pos -. float_of_int lo in
      (xs.(lo) *. (1.0 -. w)) +. (xs.(hi) *. w)

  let sorted_prefix xs len =
    let s = Array.sub xs 0 len in
    Array.sort Float.compare s;
    s

  let p2_quantile t q =
    let mn = t.q.(3) and mx = t.q.(4) in
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let nm = Array.length t.ms in
    let x0 = ref 0.0 and y0 = ref mn and level = ref mn in
    let result = ref mx and i = ref 0 in
    while !i <= nm do
      let last = !i = nm in
      let x1 = if last then 1.0 else t.ms.(!i).pq in
      let y1 =
        if last then mx
        else begin
          level := Float.max !level (Float.min mx t.ms.(!i).h.(2));
          !level
        end
      in
      if q <= x1 then begin
        result :=
          (if x1 -. !x0 <= 0.0 then y1
           else !y0 +. ((q -. !x0) /. (x1 -. !x0) *. (y1 -. !y0)));
        i := nm + 1
      end
      else begin
        x0 := x1;
        y0 := y1;
        incr i
      end
    done;
    !result

  let quantile t q =
    if t.n = 0 then 0.0
    else if t.n <= 5 then interp_sorted (sorted_prefix t.head t.n) q
    else p2_quantile t q

  let summarize t : Stats.summary =
    if t.n = 0 then
      { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
    else
      let mean = t.q.(0) in
      let stddev = sqrt (if t.n < 2 then nan else t.q.(1) /. float_of_int (t.n - 1)) in
      let p50, p95, p99 =
        if t.n = 1 then (t.head.(0), t.head.(0), t.head.(0))
        else if t.n <= 5 then
          let s = sorted_prefix t.head t.n in
          (interp_sorted s 0.50, interp_sorted s 0.95, interp_sorted s 0.99)
        else (p2_quantile t 0.50, p2_quantile t 0.95, p2_quantile t 0.99)
      in
      { n = t.n; mean; stddev; min = t.q.(3); max = t.q.(4); p50; p95; p99 }

  let feed_into t src =
    if src.n > 0 then
      if src.n <= 5 then Array.iter (add t) (Array.sub src.head 0 src.n)
      else begin
        let k = min src.n 64 in
        for j = 0 to k - 1 do
          add t (quantile src ((float_of_int j +. 0.5) /. float_of_int k))
        done
      end

  let merge a b =
    let t = create () in
    feed_into t a;
    feed_into t b;
    t.n <- a.n + b.n;
    t.q.(2) <- a.q.(2) +. b.q.(2);
    if t.n > 0 then begin
      let na = float_of_int a.n and nb = float_of_int b.n in
      let am = a.q.(0) and bm = b.q.(0) in
      let delta = bm -. am in
      t.q.(0) <- ((na *. am) +. (nb *. bm)) /. (na +. nb);
      t.q.(1) <- a.q.(1) +. b.q.(1) +. (delta *. delta *. na *. nb /. (na +. nb))
    end;
    t.q.(3) <- Float.min a.q.(3) b.q.(3);
    t.q.(4) <- Float.max a.q.(4) b.q.(4);
    t
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_summary (a : Stats.summary) (b : Stats.summary) =
  a.n = b.n
  && List.for_all2 same_bits
       [ a.mean; a.stddev; a.min; a.max; a.p50; a.p95; a.p99 ]
       [ b.mean; b.stddev; b.min; b.max; b.p50; b.p95; b.p99 ]

let probe_qs = [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let same_as_ref s r =
  same_summary (Stats.summarize s) (Ref_p2.summarize r)
  && List.for_all (fun q -> same_bits (Stats.quantile s q) (Ref_p2.quantile r q)) probe_qs

(* Streams of constant runs — lengths 1 to 5, 6 (the first marker step)
   and 200 — that diverge into one another, over values that break
   naive deferral: ±0, ±infinity, NaN and tiny ones.  After every run
   and for the merge of the two halves, summaries and quantiles must
   carry the reference's exact bits. *)
let prop_p2_bit_exact =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 1e-7; 1.0; -2.5 ];
        float_range (-100.0) 100.0;
      ]
  in
  let run = pair value (oneofl [ 1; 2; 3; 4; 5; 6; 200 ]) in
  QCheck2.Test.make ~name:"P2 matches the per-sample reference bit for bit" ~count:300
    ~print:(fun runs ->
      String.concat "; " (List.map (fun (v, n) -> Printf.sprintf "%h x%d" v n) runs))
    (list_size (int_range 1 8) run)
    (fun runs ->
      let feed s r (v, n) =
        for _ = 1 to n do
          Stats.add s v;
          Ref_p2.add r v
        done;
        same_as_ref s r
      in
      let half = List.length runs / 2 in
      let sa = Stats.create ~estimator:Stats.P2 () and ra = Ref_p2.create () in
      let sb = Stats.create ~estimator:Stats.P2 () and rb = Ref_p2.create () in
      List.for_all Fun.id
        (List.mapi (fun i run -> if i < half then feed sa ra run else feed sb rb run) runs)
      && same_as_ref (Stats.merge sa sb) (Ref_p2.merge ra rb)
      && same_as_ref (Stats.merge sb sa) (Ref_p2.merge rb ra))

(* ------------------------------------------------------------------ *)
(* UNITES observation cost guard *)

(* Minor words that 100k observations allocate once every cell exists:
   64 sessions interleaved two observations at a time over six metrics,
   with [count]'s constant 1.0 on one of them.  The samples are boxed
   before measuring (a float array would box each one it hands out). *)
let observe_words ?session_cap ?(restrict = false) () =
  let engine = Engine.create () in
  let u = Unites.create ~estimator:Stats.P2 ?session_cap engine in
  if restrict then
    for id = 1 to 64 do
      if id mod 4 = 0 then Unites.restrict_session u ~id [ Unites.Jitter; Unites.Host_cpu ]
    done;
  let metrics =
    [| Unites.Throughput; Unites.Jitter; Unites.Host_cpu; Unites.Demux_probes; Unites.Rtt |]
  in
  let values = Array.init 13 (fun i -> Some (0.25 *. float_of_int (i * i))) in
  let pass () =
    for i = 0 to 99_999 do
      let session = 1 + (i / 2 mod 64) in
      if i mod 6 = 5 then Unites.count u ~session Unites.Segments_sent
      else
        match values.(i mod 13) with
        | Some v -> Unites.observe u ~session metrics.(i mod 6) v
        | None -> ()
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  Gc.minor_words () -. before

let test_observe_alloc () =
  List.iter
    (fun (case, words) ->
      if words <> 0.0 then
        Alcotest.failf "%s: 100k observations allocated %.0f minor words (expected 0)" case
          words)
    [
      ("uncapped", observe_words ());
      ("capped at 16", observe_words ~session_cap:16 ());
      ("TMC-restricted", observe_words ~restrict:true ());
    ]

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
        ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_p2_bit_exact ] );
    ( "unites.observe_alloc",
      [
        Alcotest.test_case "observation allocates nothing once cells exist"
          `Quick test_observe_alloc;
      ] );
  ]
