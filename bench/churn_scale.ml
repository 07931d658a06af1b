(* e11_swarm_scale / e13_megaswarm_scale / e15_gigaswarm — the CHURN
   workload at scale.

   e11 runs one partition (a single client/server host pair) carrying
   100 / 1k / 10k concurrent sessions through the full MANTTS
   open/transfer/close path.  Per scale it reports sessions opened and
   events fired per wall-clock second, the deterministic demux cost
   (connection-table probes per lookup) and the table occupancy from the
   UNITES "swarm" whitebox session.  The same seed must give the same
   digest on a rerun and across a [Fleet.map ~jobs:4] replay; a
   wall-clock micro times [Conntable.find] at 100 / 1k / 10k live
   connections (p99 at 10k <= 2x the 100-session value); an overload
   phase under a too-small admission policy checks that every refused or
   degraded open is accounted in UNITES.

   e13 spreads the churn across four partitions joined by a WAN and
   executes them over OCaml 5 domains with SHARD.  Per scale it reports
   events/s plus the tick-cost breakdown of the O(active) control plane
   (monitor ticks and monitors walked, coalesced time-wait sweeps, demux
   probes).  Allocation is staged (build / schedule / sim / reduce), so
   the headline words-per-event figure is the sim stage — the event hot
   path — asserted under a ceiling here and by a tier-1 guard test.
   Rendering the UNITES reports is a stage of its own (wall seconds,
   minor words, words per line), held under a words-per-line ceiling the
   same way.  The 10k configuration runs at --shards 1 and 4 (2 in smoke): digest and
   every rendered per-partition UNITES report must be byte-identical.

   e15 pushes the e13 workload through scale decades up to one million
   sessions with bounded memory: opens are staggered at a constant
   ~10k/s so the live population stays flat, and a UNITES session cap
   folds the metric tail into one overflow bucket.  Each decade records
   events/s, sim-stage words/event, live heap after a forced major cycle
   and the SHARD window counters. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_workloads

(* Set by main.ml's --smoke flag. *)
let smoke = ref false

let pf = Format.printf

(* The render stage: every partition's UNITES report, timed apart from
   the run. *)
type render = {
  render_s : float;
  render_words : float;  (* minor words *)
  render_lines : int;
}

type scale_result = {
  sessions : int;
  shards : int;
  outcome : Churn.outcome;
  reports : string list;  (* rendered UNITES reports (e13/e15 only) *)
  render : render;  (* zero when the reports are not rendered *)
  elapsed_s : float;
  minor_words_per_event : float;  (* sim stage, coordinating domain *)
  heap_words_live : int;  (* live major words after a forced full cycle *)
}

let render_reports outcome =
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let reports = Churn.unites_reports outcome in
  let render_s = Unix.gettimeofday () -. t0 in
  let render_words = Gc.minor_words () -. w0 in
  let render_lines =
    List.fold_left
      (fun acc r -> String.fold_left (fun n c -> if c = '\n' then n + 1 else n) acc r)
      0 reports
  in
  (reports, { render_s; render_words; render_lines })

let words_per_line r =
  if r.render_lines = 0 then 0.0 else r.render_words /. float_of_int r.render_lines

let run_scale ?(reports = false) cfg =
  (* Level the field between measurements: without this, a run scheduled
     after a bigger one pays rent on the predecessor's bloated major
     heap, and the x1-vs-xN wall comparison measures run order. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let outcome = Churn.run cfg in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (* The partitioned experiments keep the rendered reports (their parity
     witness) and let the repositories go: a decade's metric tables would
     otherwise dominate its live-heap measurement. *)
  let (reports, render), outcome =
    if reports then (render_reports outcome, { outcome with Churn.unites = [] })
    else (([], { render_s = 0.0; render_words = 0.0; render_lines = 0 }), outcome)
  in
  let sim_words = List.assoc "sim" outcome.Churn.stage_minor_words in
  Gc.full_major ();
  {
    sessions = cfg.Churn.sessions;
    shards = cfg.Churn.shards;
    outcome;
    reports;
    render;
    elapsed_s;
    minor_words_per_event =
      (if outcome.Churn.events_fired > 0 then
         sim_words /. float_of_int outcome.Churn.events_fired
       else 0.0);
    heap_words_live = (Gc.quick_stat ()).Gc.heap_words;
  }

let per_sec r n = if r.elapsed_s <= 0.0 then 0.0 else float_of_int n /. r.elapsed_s
let events_per_sec r = per_sec r r.outcome.Churn.events_fired
let per t w = if t = 0 then 0.0 else float_of_int w /. float_of_int t

(* The workload's digest and the rendered UNITES reports must not depend
   on the shard count. *)
let parity_check a b =
  Util.shape_check
    (Printf.sprintf "digest identical at --shards %d vs --shards %d (0x%Lx)"
       a.shards b.shards a.outcome.Churn.digest)
    (Int64.equal a.outcome.Churn.digest b.outcome.Churn.digest);
  Util.shape_check "per-partition UNITES reports byte-identical"
    (a.reports = b.reports)

(* -------------------------------------------------------------- e11 *)

(* The UNITES swarm whitebox session, presented on its own: at ten
   thousand registered sessions the full [Unites.report] would be pages
   of per-session lines. *)
let swarm_report (o : Churn.outcome) =
  let u = List.hd o.Churn.unites in
  pf "  UNITES swarm session:@.";
  List.iter
    (fun m ->
      match Unites.stats u ~session:Unites.swarm_session m with
      | None -> ()
      | Some s ->
        pf "    %-16s n=%-6d total=%-9.0f mean=%.3f p50=%.3f p95=%.3f p99=%.3f \
            max=%.3f@."
          (Unites.metric_name m) s.Stats.n (s.Stats.mean *. float_of_int s.Stats.n)
          s.Stats.mean s.Stats.p50 s.Stats.p95 s.Stats.p99 s.Stats.max)
    [
      Unites.Sessions_open;
      Unites.Sessions_refused;
      Unites.Sessions_degraded;
      Unites.Demux_probes;
      Unites.Table_occupancy;
      Unites.Timewait_drops;
    ]

type micro_result = { live : int; capacity : int; p50_ns : float; p99_ns : float }

let demux_micro ~live =
  let t = Conntable.create () in
  for k = 1 to live do
    Conntable.insert t ~key:k ~half_open:false k
  done;
  let rng = Rng.create 0xC0FFEE in
  let per_batch = if !smoke then 20_000 else 50_000 in
  let batches = if !smoke then 20 else 50 in
  let keys = Array.init per_batch (fun _ -> 1 + Rng.int rng live) in
  (* The sink defeats dead-code elimination of the measured loop. *)
  let sink = ref 0 in
  for i = 0 to per_batch - 1 do
    sink := !sink + Conntable.find t (Array.unsafe_get keys i)
  done;
  let ns = Array.make batches 0.0 in
  for b = 0 to batches - 1 do
    let t0 = Unix.gettimeofday () in
    for i = 0 to per_batch - 1 do
      sink := !sink + Conntable.find t (Array.unsafe_get keys i)
    done;
    ns.(b) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int per_batch
  done;
  ignore (Sys.opaque_identity !sink);
  Array.sort compare ns;
  let at q = ns.(min (batches - 1) (int_of_float (q *. float_of_int (batches - 1)))) in
  { live; capacity = Conntable.capacity t; p50_ns = at 0.5; p99_ns = at 0.99 }

let e11_swarm_scale () =
  let seed = 0x5A11 in
  let scales = if !smoke then [ 100; 500 ] else [ 100; 1_000; 10_000 ] in
  let config sessions = Churn.default_config ~sessions ~seed in
  pf "@.== e11_swarm_scale: %s-session dispatcher churn%s ==@."
    (string_of_int (List.fold_left max 0 scales))
    (if !smoke then " [smoke]" else "");
  let results = List.map (fun sessions -> run_scale (config sessions)) scales in
  List.iter
    (fun r ->
      let o = r.outcome in
      pf
        "  %6d sessions: %7.0f sessions/s  %9.0f ev/s  demux probes mean %.3f \
         p99 %.0f  occupancy p99 %.2f  peak live %d@."
        r.sessions (per_sec r o.Churn.admitted) (events_per_sec r)
        o.Churn.demux_probes_mean o.Churn.demux_probes_p99 o.Churn.occupancy_p99
        o.Churn.peak_live)
    results;
  let largest = List.nth results (List.length results - 1) in
  swarm_report largest.outcome;

  (* Determinism: double run at the largest scale, and four domains
     replaying the identical config via FLEET. *)
  let digest sessions = (Churn.run (config sessions)).Churn.digest in
  let stable = digest largest.sessions = largest.outcome.Churn.digest in
  Util.shape_check
    (Printf.sprintf "same seed, %d sessions: identical trace digest on rerun"
       largest.sessions)
    stable;
  let fleet_sessions = List.nth scales (min 1 (List.length scales - 1)) in
  let reference = digest fleet_sessions in
  let fleet_ok =
    Array.for_all (Int64.equal reference)
      (Adaptive_fleet.Fleet.map ~jobs:4 digest (Array.make 4 fleet_sessions))
  in
  Util.shape_check
    (Printf.sprintf "jobs=4 fleet replay, %d sessions: all digests identical"
       fleet_sessions)
    fleet_ok;

  (* Wall-clock demux micro: the O(1) criterion, a single-shot timing
     that prints but does not gate. *)
  let micro = List.map (fun live -> demux_micro ~live) scales in
  List.iter
    (fun m ->
      pf "  micro: find over %5d live conns (capacity %6d): p50 %5.2f ns/op  \
          p99 %5.2f ns/op@."
        m.live m.capacity m.p50_ns m.p99_ns)
    micro;
  let first = List.hd micro in
  let last = List.nth micro (List.length micro - 1) in
  let ratio = last.p99_ns /. first.p99_ns in
  Util.timing_check
    (Printf.sprintf
       "demux p99 ns/op at %d sessions <= 2x the %d-session value (%.2fx)"
       last.live first.live ratio)
    (ratio <= 2.0);

  (* Overload: a policy sized well under the offered load must refuse or
     degrade, and every such decision must be accounted in UNITES. *)
  let over_sessions = fleet_sessions in
  let policy =
    {
      Mantts.soft_sessions = over_sessions / 4;
      hard_sessions = over_sessions / 2;
      max_cpu_backlog = Time.ms 50;
    }
  in
  let over = Churn.run { (config over_sessions) with Churn.admission = Some policy } in
  pf "  overload (%d sessions, soft %d hard %d): admitted %d degraded %d \
      refused %d@."
    over_sessions policy.Mantts.soft_sessions policy.Mantts.hard_sessions
    over.Churn.admitted over.Churn.degraded over.Churn.refused;
  swarm_report over;
  let counted m =
    let u = List.hd over.Churn.unites in
    int_of_float (Unites.total u ~session:Unites.swarm_session m)
  in
  Util.shape_check "overload refuses or degrades sessions"
    (over.Churn.refused > 0 || over.Churn.degraded > 0);
  Util.shape_check "refusals accounted in UNITES swarm session"
    (counted Unites.Sessions_refused = over.Churn.refused);
  Util.shape_check "degradations accounted in UNITES swarm session"
    (counted Unites.Sessions_degraded = over.Churn.degraded);
  Util.shape_check "admissions accounted in UNITES swarm session"
    (counted Unites.Sessions_open = over.Churn.admitted);
  Util.shape_check "peak live sessions stayed under the hard threshold"
    (over.Churn.peak_live <= policy.Mantts.hard_sessions)

(* ------------------------------------------------- e13 / e15 common *)

(* Four partitions, one churn round, P² quantiles. *)
let partitioned ~sessions ~shards ~seed =
  { (Churn.default_config ~sessions ~seed) with
    Churn.partitions = 4;
    shards;
    churn_rounds = 1;
    estimator = Stats.P2 }

let report_scale r =
  let o = r.outcome in
  pf
    "  %7d sessions x%d shard(s): %9.0f ev/s  wall %6.2f s  monitor \
     %.1f/tick  tw %.1f/sweep  demux mean %.3f  alloc %.0f w/ev (sim)@."
    r.sessions r.shards (events_per_sec r) r.elapsed_s
    (per o.Churn.monitor_ticks o.Churn.monitor_walked)
    (per o.Churn.tw_sweeps o.Churn.tw_expired)
    o.Churn.demux_probes_mean r.minor_words_per_event;
  if r.render.render_lines > 0 then
    pf "           render: %d lines in %.3f s, %.0f words/line@."
      r.render.render_lines r.render.render_s (words_per_line r.render)

let alloc_ceiling_words_per_event = 150.0

(* Minor words per rendered UNITES report line; the tier-1 test
   unites.report_alloc holds the library to the same ceiling. *)
let render_ceiling_words_per_line = 150.0

(* ------------------------------------------------------------- e13 *)

let e13_megaswarm_scale () =
  let seed = 0x4D53 in
  let parity_sessions = 10_000 in
  let parity_shards = if !smoke then 2 else 4 in
  let scales = if !smoke then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let cores = Domain.recommended_domain_count () in
  Util.heading
    (Printf.sprintf "E13 — MEGASWARM: partitioned churn across domains%s"
       (if !smoke then " [smoke]" else ""));
  pf "  %d core(s) available@." cores;

  (* Scale sweep, single-sharded: the workload cost itself. *)
  let results =
    List.map
      (fun sessions -> run_scale ~reports:true (partitioned ~sessions ~shards:1 ~seed))
      scales
  in
  List.iter report_scale results;

  (* O(active) control plane: the monitored share is a fixed fraction of
     the population, so the per-tick working set tracks the {e live}
     monitored sessions — it must stay under the concurrent peak and far
     under the total churned population (closed sessions cost zero). *)
  let first = List.hd results in
  let last = List.nth results (List.length results - 1) in
  let walked_per_tick r =
    per r.outcome.Churn.monitor_ticks r.outcome.Churn.monitor_walked
  in
  Util.shape_check
    (Printf.sprintf
       "monitor tick walks only live monitors (%.1f/tick, peak live %d, %d \
        opens)"
       (walked_per_tick last) last.outcome.Churn.peak_live
       last.outcome.Churn.admitted)
    (List.for_all
       (fun r ->
         walked_per_tick r <= float_of_int r.outcome.Churn.peak_live
         && walked_per_tick r *. 10.0 <= float_of_int r.outcome.Churn.admitted)
       results);
  Util.shape_check "time-wait sweeps coalesce many expiries per firing"
    (List.for_all
       (fun r ->
         r.outcome.Churn.tw_expired = 0
         || r.outcome.Churn.tw_sweeps < r.outcome.Churn.tw_expired)
       results);
  Util.shape_check
    (Printf.sprintf "demux probes stay flat at the largest scale (mean %.3f)"
       last.outcome.Churn.demux_probes_mean)
    (last.outcome.Churn.demux_probes_mean < 4.0);
  Util.shape_check
    (Printf.sprintf
       "allocation per event does not grow with scale (%.0f vs %.0f words/ev)"
       last.minor_words_per_event first.minor_words_per_event)
    (last.minor_words_per_event <= 1.5 *. first.minor_words_per_event);
  let ten_k =
    match List.find_opt (fun r -> r.sessions = parity_sessions) results with
    | Some r -> r
    | None -> run_scale ~reports:true (partitioned ~sessions:parity_sessions ~shards:1 ~seed)
  in
  Util.shape_check
    (Printf.sprintf
       "hot-path allocation under the ceiling (%.0f <= %.0f words/event at \
        10k)"
       ten_k.minor_words_per_event alloc_ceiling_words_per_event)
    (ten_k.minor_words_per_event <= alloc_ceiling_words_per_event);

  Util.shape_check
    (Printf.sprintf
       "report rendering under %.0f words/line at every scale (%.0f at %d \
        sessions)"
       render_ceiling_words_per_line (words_per_line last.render) last.sessions)
    (List.for_all
       (fun r -> words_per_line r.render <= render_ceiling_words_per_line)
       results);

  (* Shard parity at the pinned scale. *)
  let sharded =
    run_scale ~reports:true
      (partitioned ~sessions:parity_sessions ~shards:parity_shards ~seed)
  in
  report_scale sharded;
  parity_check ten_k sharded;

  (* Honest speedup: only a real number when the hardware could have
     delivered one. *)
  if cores < parity_shards || sharded.elapsed_s <= 0.0 then
    pf "  speedup: n/a (%d core(s) available < %d shard(s))@." cores parity_shards
  else
    pf "  speedup %.2fx at %d shard(s)@."
      (ten_k.elapsed_s /. sharded.elapsed_s)
      parity_shards

(* ------------------------------------------------------------- e15 *)

(* GIGASWARM decade configuration: constant ~10k opens/s whatever the
   total, so the live population — and with the UNITES session cap, the
   metric tables — stay flat while the cumulative churn grows to 1M. *)
let giga_config ~sessions ~shards ~seed =
  {
    (partitioned ~sessions ~shards ~seed) with
    Churn.open_window = Time.sec (float_of_int sessions /. 10_000.0);
    session_cap = Some 20_000;
  }

let e15_gigaswarm () =
  let seed = 0x47494741 (* "GIGA" *) in
  let decades = if !smoke then [ 50_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  Util.heading
    (Printf.sprintf "E15 — GIGASWARM: scale decades to 1M sessions%s"
       (if !smoke then " [smoke]" else ""));
  pf "  %d core(s) available@." (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun sessions ->
        let r = run_scale ~reports:true (giga_config ~sessions ~shards:1 ~seed) in
        report_scale r;
        pf
          "           windows=%d skipped=%d (%.0f events/window)  live heap \
           %.1f MB@."
          r.outcome.Churn.sync_windows r.outcome.Churn.sync_skipped
          (per r.outcome.Churn.sync_windows r.outcome.Churn.events_fired)
          (float_of_int r.heap_words_live *. 8.0 /. 1e6);
        r)
      decades
  in
  (* Bounded memory: churned-through sessions must not accumulate
     transport state anywhere (conntable, UNITES, time-wait, goodput
     contracts).  The generator's own slot table is O(sessions) with a
     small constant, so the invariant is that live heap {e per session}
     falls steeply across decades: everything else is flat in the
     total. *)
  let first = List.hd results in
  let last = List.nth results (List.length results - 1) in
  let per_session r =
    float_of_int r.heap_words_live *. 8.0 /. float_of_int (max r.sessions 1)
  in
  Util.shape_check
    (Printf.sprintf
       "live heap sublinear across decades (%.0f B/session at %d vs %.0f \
        B/session at %d; %.1f MB total)"
       (per_session last) last.sessions (per_session first) first.sessions
       (float_of_int last.heap_words_live *. 8.0 /. 1e6))
    (last.sessions = first.sessions || per_session last <= per_session first /. 4.0);
  Util.shape_check
    (Printf.sprintf "hot-path allocation flat at scale (%.0f vs %.0f words/event)"
       last.minor_words_per_event first.minor_words_per_event)
    (last.minor_words_per_event
    <= Float.max (1.5 *. first.minor_words_per_event) alloc_ceiling_words_per_event);
  (* Parity spot-check on the smallest decade. *)
  let parity_shards = 2 in
  let parity =
    run_scale ~reports:true
      (giga_config ~sessions:first.sessions ~shards:parity_shards ~seed)
  in
  parity_check first parity
