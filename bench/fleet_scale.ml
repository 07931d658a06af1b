(* e10_fleet_scale — FLEET campaign scaling and determinism.

   Runs the e9-style chaos campaign (randomized fault schedules against
   the full two-session stack, cycling the three interoperation
   environments) twice: sequentially, and sharded across domains by
   FLEET.  The parallel run must be byte-identical — same per-run
   FNV-1a trace hashes, same rendered UNITES reports, same combined
   campaign digest — and the wall-clock ratio is the measured speedup.

   The determinism checks are exact and hold on any machine; the
   speedup criterion (>= 2x at 4 domains) needs >= 4 hardware cores —
   the run prints how many were available so a single-core run is
   legible as such. *)

open Adaptive_chaos
open Adaptive_fleet

let smoke = ref false

let wall () = Unix.gettimeofday ()

type run = {
  r_wall_s : float;
  r_events : int;
  r_hash : int64;
  r_reports : (int * string) list;
  r_failures : int;
}

let measure ~jobs ~seed ~schedules =
  let t0 = wall () in
  let report = Soak.soak ~jobs ~seed ~schedules () in
  let r_wall_s = wall () -. t0 in
  let outcomes = report.Soak.r_outcomes in
  {
    r_wall_s;
    r_events = List.fold_left (fun a o -> a + o.Soak.o_events) 0 outcomes;
    r_hash = Fleet.combine_hashes (List.map (fun o -> o.Soak.o_hash) outcomes);
    r_reports = List.mapi (fun i o -> (i, o.Soak.o_unites)) outcomes;
    r_failures = List.length report.Soak.r_failures;
  }

let events_per_sec r =
  if r.r_wall_s <= 0.0 then 0.0 else float_of_int r.r_events /. r.r_wall_s

let pf = Format.printf

let report_run label r =
  pf "  %-12s %8d events  %8.3f s wall  %9.0f ev/s  digest 0x%016Lx@." label
    r.r_events r.r_wall_s (events_per_sec r) r.r_hash

let e10_fleet_scale () =
  Util.heading "E10 — FLEET: deterministic parallel campaign execution";
  let schedules = if !smoke then 12 else 48 in
  let seed = 4242 in
  let jobs = if !Util.jobs > 1 then !Util.jobs else 4 in
  let cores = Domain.recommended_domain_count () in
  pf "  campaign: %d chaos schedule(s), base seed %d, %d job(s), %d core(s) available%s@."
    schedules seed jobs cores
    (if !smoke then " [smoke]" else "");
  let seq = measure ~jobs:1 ~seed ~schedules in
  let par = measure ~jobs ~seed ~schedules in
  report_run "jobs=1" seq;
  report_run (Printf.sprintf "jobs=%d" jobs) par;
  let mismatches = Fleet.check_identical seq.r_reports par.r_reports in
  (* Honest reporting: a wall-clock ratio from a machine with fewer
     cores than jobs measures domain overhead, not speedup — report
     n/a with a reason instead of a misleading number. *)
  let speedup =
    if cores < jobs then None
    else if par.r_wall_s > 0.0 then Some (seq.r_wall_s /. par.r_wall_s)
    else None
  in
  (match speedup with
  | Some s ->
    pf "  speedup %.2fx wall-clock (criterion >= 2.0 needs >= 4 cores: %s)@." s
      (if s >= 2.0 then "PASS" else if cores < 4 then "N/A on this machine" else "FAIL")
  | None ->
    pf "  speedup: n/a (%d core(s) available < %d job(s))@." cores jobs);
  Util.shape_check "no invariant violations in either run"
    (seq.r_failures = 0 && par.r_failures = 0);
  Util.shape_check
    (Printf.sprintf "parallel campaign digest matches sequential (0x%016Lx)" seq.r_hash)
    (Int64.equal seq.r_hash par.r_hash);
  Util.shape_check "every rendered UNITES report byte-identical" (mismatches = []);
  List.iter
    (fun (i, _, _) -> pf "  MISMATCH at run %d@." i)
    mismatches
