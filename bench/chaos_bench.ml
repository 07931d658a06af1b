(* E9 — the chaos soak: randomized fault schedules against a full
   two-session stack in three interoperation environments, with the
   invariant checker watching every delivery, counter and policy
   decision (§4.1.2's implicit-reconfiguration triggers, exercised
   adversarially).  Also self-tests the failure machinery: a sabotaged
   run must be caught and shrink to a one-fault minimal repro. *)

open Adaptive_sim
open Adaptive_chaos

let smoke = ref false

let e9_chaos () =
  Util.heading "E9 — chaos soak: fault injection under invariant checking (§4.1.2)";
  let schedules = if !smoke then 25 else 210 in
  let seed = 4242 in
  let jobs = !Util.jobs in
  Util.row "soaking %d randomized schedule(s), base seed %d, environments %s, %d job(s)@."
    schedules seed
    (String.concat ", " (List.map Soak.environment_name Soak.all_environments))
    jobs;
  let report = Soak.soak ~jobs ~seed ~schedules () in
  let outcomes = report.Soak.r_outcomes in
  let injected =
    List.fold_left (fun acc o -> acc + o.Soak.o_injected) 0 outcomes
  in
  let delivered =
    List.fold_left (fun acc o -> acc + o.Soak.o_delivered) 0 outcomes
  in
  Util.row "  %d fault(s) injected, %d application deliveries, %d failure(s)@."
    injected delivered
    (List.length report.Soak.r_failures);
  List.iter
    (fun env ->
      let mine =
        List.filter (fun o -> o.Soak.o_env = env) outcomes
      in
      let faults = List.fold_left (fun a o -> a + o.Soak.o_injected) 0 mine in
      let failovers = List.fold_left (fun a o -> a + o.Soak.o_failovers) 0 mine in
      let switches = List.fold_left (fun a o -> a + o.Soak.o_switches) 0 mine in
      Util.row "  %-10s %3d run(s) %4d fault(s) %4d failover(s) %4d switch(es)@."
        (Soak.environment_name env)
        (List.length mine) faults failovers switches)
    Soak.all_environments;
  (* Per-class injection counts and time-to-recover distributions. *)
  Util.row "@.  %-17s %9s %10s %10s %10s %10s@." "fault class" "injected"
    "recovered" "ttr p50" "ttr p95" "ttr max";
  let all_recoveries = List.concat_map (fun o -> o.Soak.o_recoveries) outcomes in
  let classes_covered = ref 0 in
  List.iter
    (fun cls ->
      let count =
        List.fold_left
          (fun acc o ->
            acc
            + List.length
                (List.filter (fun f -> f.Fault.cls = cls) o.Soak.o_schedule))
          0 outcomes
      in
      if count > 0 then incr classes_covered;
      let ttrs =
        List.sort compare
          (List.filter_map
             (fun (c, ttr) -> if c = cls then Some ttr else None)
             all_recoveries)
      in
      let n = List.length ttrs in
      let pct q =
        if n = 0 then 0.0 else List.nth ttrs (min (n - 1) (n * q / 100))
      in
      Util.row "  %-17s %9d %10d %9.3fs %9.3fs %9.3fs@." (Fault.class_name cls)
        count n (pct 50) (pct 95) (pct 100))
    Fault.all_classes;
  (match outcomes with
  | first :: _ ->
    Util.row "@.sample run (seed %d, %s) UNITES report:@.%s@." first.Soak.o_seed
      (Soak.environment_name first.Soak.o_env)
      first.Soak.o_unites
  | [] -> ());
  List.iter
    (fun ((o : Soak.outcome), (s : Soak.shrink_result)) ->
      Format.printf "@.FAILURE:@.%a@." Soak.pp_repro o;
      List.iter
        (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
        o.Soak.o_violations;
      Format.printf "minimal repro (%d -> %d fault(s), %d re-run(s)):@.%a@."
        s.Soak.s_original
        (List.length s.Soak.s_minimal)
        s.Soak.s_runs Soak.pp_repro s.Soak.s_outcome)
    report.Soak.r_failures;
  Util.shape_check
    (Printf.sprintf "all invariants hold across %d randomized schedules" schedules)
    (report.Soak.r_failures = []);
  Util.shape_check "every fault class exercised" (!classes_covered = 8);
  Util.shape_check "recoveries observed after faults" (all_recoveries <> []);
  (* Replay determinism: the same seed must reproduce the same schedule
     and the same trace hash, bit for bit. *)
  let a = Soak.run_one ~env:Soak.Campus ~seed:4242 () in
  let b = Soak.run_one ~env:Soak.Campus ~seed:4242 () in
  Util.shape_check "replay: same seed, same schedule, same trace hash"
    (a.Soak.o_schedule = b.Soak.o_schedule
    && Int64.equal a.Soak.o_hash b.Soak.o_hash
    && a.Soak.o_delivered = b.Soak.o_delivered);
  (* Shrinker self-test: a planted violation on the one ber_burst in a
     five-fault schedule must be detected and shrink to that fault. *)
  let f cls start =
    {
      Fault.cls;
      start = Time.ms start;
      duration = Time.ms 800;
      target = 0;
      intensity = 0.5;
    }
  in
  let sabotage_schedule =
    [
      f Fault.Link_down 1600;
      f Fault.Congestion_storm 2400;
      f Fault.Ber_burst 3200;
      f Fault.Host_stall 4000;
      f Fault.Mtu_shrink 4800;
    ]
  in
  let failing =
    Soak.run_schedule ~sabotage:true ~env:Soak.Campus ~seed:5 sabotage_schedule
  in
  let shrunk =
    Soak.shrink ~sabotage:true ~env:Soak.Campus ~seed:5 sabotage_schedule
  in
  Format.printf "@.sabotage self-test shrink (%d re-runs):@.%a@."
    shrunk.Soak.s_runs Soak.pp_repro shrunk.Soak.s_outcome;
  Util.shape_check "sabotaged run is caught" (not (Soak.ok failing));
  Util.shape_check "shrinks 5 faults to the 1 sabotaged ber_burst"
    (match shrunk.Soak.s_minimal with
    | [ m ] -> m.Fault.cls = Fault.Ber_burst
    | _ -> false)
