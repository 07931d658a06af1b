(* adaptive — a command-line front end for the ADAPTIVE reproduction.

   Subcommands:
     apps                      list the Table 1 applications
     networks                  list the network profiles
     classify  -a APP -n NET   run MANTTS stages I+II and print the result
     run       -a APP -n NET   simulate the application over the network
                               and print the UNITES report
     chaos                     randomized fault-injection soaks, optionally
                               sharded across domains (--jobs)
     churn                     many-session churn, optionally partitioned
                               across domains

   Example:
     adaptive_cli run -a voice -n satellite -d 10 *)

open Adaptive_sim
open Adaptive_net
open Adaptive_core
open Adaptive_workloads

(* ----------------------------------------------------------- catalogs *)

let apps =
  [
    ("voice", Workloads.Voice_conversation);
    ("teleconference", Workloads.Teleconferencing);
    ("video", Workloads.Video_compressed);
    ("video-raw", Workloads.Video_raw);
    ("control", Workloads.Manufacturing_control);
    ("ftp", Workloads.File_transfer);
    ("telnet", Workloads.Telnet);
    ("oltp", Workloads.Oltp);
    ("rfs", Workloads.Remote_file_service);
  ]

let networks =
  [
    ("lan", Profiles.lan_path);
    ("campus", Profiles.campus_path);
    ("internet", Profiles.internet_path);
    ("bisdn", Profiles.bisdn_path);
    ("atm-lfn", Profiles.atm_lfn_path);
    ("satellite", Profiles.satellite_path);
  ]

let list_apps () =
  List.iter
    (fun (key, app) ->
      let q = Workloads.qos app in
      Format.printf "%-14s %-30s %-30s avg %.0f kb/s@." key (Workloads.name app)
        (Tsc.name (Workloads.expected_tsc app))
        (q.Qos.avg_bps /. 1e3))
    apps

let list_networks () =
  List.iter
    (fun (key, path) ->
      let hops = path () in
      let prop =
        List.fold_left (fun acc l -> Time.add acc (Link.propagation l)) Time.zero hops
      in
      let bottleneck =
        List.fold_left (fun acc l -> Float.min acc (Link.bandwidth_bps l)) infinity hops
      in
      Format.printf "%-10s %d hop(s), bottleneck %.0f Mb/s, one-way propagation %s@."
        key (List.length hops) (bottleneck /. 1e6) (Time.to_string prop))
    networks

(* ------------------------------------------------------------ scenarios *)

let build app path_fn =
  let stack = Adaptive.create_stack ~seed:97 () in
  let src = Adaptive.add_host stack "local" in
  let receivers = Workloads.multicast_receivers app in
  let dsts =
    List.init receivers (fun i ->
        let r = Adaptive.add_host stack (Printf.sprintf "remote%d" i) in
        Adaptive.connect_hosts stack src r (path_fn ());
        r)
  in
  List.iter
    (fun r -> Workloads.install_server app (Mantts.entity stack.Adaptive.mantts r))
    dsts;
  (stack, src, dsts)

let classify app path_fn =
  let stack, src, dsts = build app path_fn in
  let acd = Acd.make ~participants:dsts ~qos:(Workloads.qos app) () in
  let tsc = Mantts.classify acd in
  let scs = Mantts.derive_scs stack.Adaptive.mantts ~src acd tsc in
  let path = Mantts.sample_paths stack.Adaptive.mantts ~src acd in
  Format.printf "application    : %s@." (Workloads.name app);
  Format.printf "stage I  (TSC) : %s@." (Tsc.name tsc);
  Format.printf
    "network state  : mtu %d B, bottleneck %.1f Mb/s, rtt %s, worst BER %.0e@."
    path.Mantts.mtu
    (path.Mantts.bottleneck_bps /. 1e6)
    (Time.to_string path.Mantts.rtt)
    path.Mantts.worst_ber;
  Format.printf "stage II (SCS) : %a@." Scs.pp scs;
  `Ok ()

let run_scenario app path_fn duration =
  let stack, src, dsts = build app path_fn in
  let acd = Acd.make ~participants:dsts ~qos:(Workloads.qos app) () in
  let session = Mantts.open_session stack.Adaptive.mantts ~src ~acd ~name:"cli" () in
  Format.printf "configuration: %a@." Scs.pp (Session.scs session);
  let driver =
    Workloads.drive stack.Adaptive.engine stack.Adaptive.rng ~session app
      ~stop_at:(Time.sec duration)
  in
  Adaptive.run stack ~until:(Time.sec (duration +. 5.0));
  Mantts.close_session stack.Adaptive.mantts session;
  Adaptive.run stack ~until:(Time.sec (duration +. 30.0));
  Format.printf "@.application sent %d message(s), %d byte(s)@."
    (Workloads.messages_sent driver) (Workloads.bytes_sent driver);
  (match Mantts.adaptations stack.Adaptive.mantts with
  | [] -> ()
  | log ->
    Format.printf "@.adaptations:@.";
    List.iter (fun (at, _, what) -> Format.printf "  [%s] %s@." (Time.to_string at) what) log);
  Format.printf "@.%a@." Unites.report stack.Adaptive.unites;
  `Ok ()

(* --------------------------------------------------------------- chaos *)

let run_chaos schedules seed seeds env sabotage jobs =
  let module Soak = Adaptive_chaos.Soak in
  let module Invariant = Adaptive_chaos.Invariant in
  let module Fault = Adaptive_chaos.Fault in
  let environments =
    match env with None -> Soak.all_environments | Some e -> [ e ]
  in
  let schedules =
    match seeds with Some l -> List.length l | None -> schedules
  in
  Format.printf
    "chaos soak: %d schedule(s), base seed %d, environments %s, %d job(s)%s@."
    schedules seed
    (String.concat "," (List.map Soak.environment_name environments))
    jobs
    (if sabotage then ", sabotage enabled" else "");
  let progress i (o : Soak.outcome) =
    Format.printf
      "  run %3d  seed=%-6d env=%-9s faults=%2d recovered=%2d failovers=%2d \
       switches=%2d delivered=%5d  %s@."
      i o.Soak.o_seed
      (Soak.environment_name o.Soak.o_env)
      o.Soak.o_injected
      (List.length o.Soak.o_recoveries)
      o.Soak.o_failovers o.Soak.o_switches o.Soak.o_delivered
      (if Soak.ok o then "ok" else "VIOLATION")
  in
  let report =
    Soak.soak ~sabotage ~environments ?seeds ~progress ~jobs ~seed
      ~schedules ()
  in
  let injected =
    List.fold_left (fun acc o -> acc + o.Soak.o_injected) 0 report.Soak.r_outcomes
  in
  Format.printf "@.%d run(s), %d fault(s) injected, %d failure(s)@."
    report.Soak.r_runs injected
    (List.length report.Soak.r_failures);
  List.iter
    (fun cls ->
      let ttrs =
        List.concat_map
          (fun o ->
            List.filter_map
              (fun (c, ttr) -> if c = cls then Some ttr else None)
              o.Soak.o_recoveries)
          report.Soak.r_outcomes
      in
      if ttrs <> [] then
        let n = List.length ttrs in
        let mean = List.fold_left ( +. ) 0.0 ttrs /. float_of_int n in
        let worst = List.fold_left Float.max 0.0 ttrs in
        Format.printf "  %-16s %3d recovered, time-to-recover mean %.3fs worst %.3fs@."
          (Fault.class_name cls) n mean worst)
    Fault.all_classes;
  List.iter
    (fun ((o : Soak.outcome), (s : Soak.shrink_result)) ->
      Format.printf "@.FAILURE:@.%a@." Soak.pp_repro o;
      List.iter
        (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
        o.Soak.o_violations;
      Format.printf "shrunk %d -> %d fault(s) in %d re-run(s); minimal repro:@.%a@."
        s.Soak.s_original
        (List.length s.Soak.s_minimal)
        s.Soak.s_runs Soak.pp_repro s.Soak.s_outcome)
    report.Soak.r_failures;
  if report.Soak.r_failures = [] then `Ok () else `Error (false, "invariant violations found")

(* --------------------------------------------------------------- churn *)

(* The whitebox pseudo-sessions a churn run fills, with the metrics worth
   printing from each. *)
let whitebox =
  [
    ( "swarm",
      Unites.swarm_session,
      [
        Unites.Sessions_open; Sessions_refused; Sessions_degraded; Demux_probes;
        Table_occupancy; Timewait_drops;
      ] );
    ( "wire",
      Unites.wire_session,
      [
        Unites.Wire_encodes; Wire_decodes; Wire_rejects; Wire_fused_sums;
        Wire_pool_reuse;
      ] );
    ( "steer",
      Unites.steer_session,
      [ Unites.Steer_swaps; Steer_blocked; Steer_time_in_config ] );
  ]

let print_whitebox (o : Churn.outcome) =
  List.iteri
    (fun p u ->
      List.iter
        (fun (label, session, metrics) ->
          let rows =
            List.filter_map
              (fun m -> Option.map (fun s -> (m, s)) (Unites.stats u ~session m))
              metrics
          in
          if rows <> [] then begin
            Format.printf "UNITES %s session (partition %d):@." label p;
            List.iter
              (fun (m, s) ->
                Format.printf
                  "  %-22s n=%-6d mean=%.3f p50=%.3f p99=%.3f max=%.3f@."
                  (Unites.metric_name m) s.Stats.n s.Stats.mean s.Stats.p50
                  s.Stats.p99 s.Stats.max)
              rows
          end)
        whitebox)
    o.Churn.unites

(* The churn workload (e11-e15): one host pair by default, [--partitions]
   joined by a WAN and executed over [--shards] domains.  [--parity]
   re-runs the same configuration single-sharded and in value mode and
   checks the digest — and, unless the run was wire-true, every rendered
   UNITES report — byte-for-byte: neither the shard count nor the wire
   path may change a result. *)
let run_churn (cfg : Churn.config) parity =
  match Churn.validate cfg with
  | Error msg -> `Error (false, "invalid churn configuration: " ^ msg)
  | Ok cfg ->
    Format.printf
      "churn: %d session slot(s), %d partition(s), %d shard(s), %d churn \
       round(s), seed %d@."
      cfg.Churn.sessions cfg.Churn.partitions cfg.Churn.shards
      cfg.Churn.churn_rounds cfg.Churn.seed;
    let t0 = Unix.gettimeofday () in
    let o = Churn.run cfg in
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "%a@." Churn.pp_outcome o;
    print_whitebox o;
    List.iter
      (fun v -> Format.printf "violation: %a@." Adaptive_chaos.Invariant.pp_violation v)
      o.Churn.violations;
    Format.printf "wall %.3f s (%.0f admitted sessions/s, %.0f events/s)@." wall
      (if wall > 0.0 then float_of_int o.Churn.admitted /. wall else 0.0)
      (if wall > 0.0 then float_of_int o.Churn.events_fired /. wall else 0.0);
    if o.Churn.violations <> [] then `Error (false, "invariant violations found")
    else if not parity then `Ok ()
    else begin
      Format.printf "@.parity: re-running with --shards 1 in value mode...@.";
      let o1 = Churn.run { cfg with Churn.shards = 1; wire = false } in
      let digests = Int64.equal o.Churn.digest o1.Churn.digest in
      let unites =
        cfg.Churn.wire || Churn.unites_reports o = Churn.unites_reports o1
      in
      Format.printf "digests %s; UNITES reports %s@."
        (if digests then "match" else "DIFFER")
        (if cfg.Churn.wire then "not compared (wire session)"
         else if unites then "byte-identical"
         else "DIFFER");
      if digests && unites then `Ok ()
      else `Error (false, "run diverged from the single-shard value-mode baseline")
    end

(* ------------------------------------------------------------- cmdliner *)

open Cmdliner

let app_conv =
  let parse s =
    match List.assoc_opt s apps with
    | Some app -> Ok app
    | None -> Error (`Msg (Printf.sprintf "unknown application %S (try 'apps')" s))
  in
  let print fmt app =
    let key, _ = List.find (fun (_, a) -> a = app) apps in
    Format.pp_print_string fmt key
  in
  Arg.conv (parse, print)

let network_conv =
  let parse s =
    match List.assoc_opt s networks with
    | Some path -> Ok path
    | None -> Error (`Msg (Printf.sprintf "unknown network %S (try 'networks')" s))
  in
  let print fmt path =
    match List.find_opt (fun (_, p) -> p == path) networks with
    | Some (key, _) -> Format.pp_print_string fmt key
    | None -> Format.pp_print_string fmt "<custom>"
  in
  Arg.conv (parse, print)

let app_arg =
  Arg.(
    required
    & opt (some app_conv) None
    & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application workload (see 'apps').")

let network_arg =
  Arg.(
    value
    & opt network_conv Profiles.lan_path
    & info [ "n"; "network" ] ~docv:"NET" ~doc:"Network profile (see 'networks').")

(* A simulated duration must be a positive, finite number of seconds:
   zero, negative and nan durations are usage errors. *)
let positive_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when x > 0.0 && Float.is_finite x -> Ok x
    | Ok _ ->
      Error (`Msg (Printf.sprintf "expected a positive, finite number, got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let duration_arg =
  Arg.(
    value
    & opt positive_float 5.0
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Simulated traffic duration.")

let env_conv =
  let parse s =
    match Adaptive_chaos.Soak.environment_of_name s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown environment %S (campus, internet, satellite)" s))
  in
  let print fmt e =
    Format.pp_print_string fmt (Adaptive_chaos.Soak.environment_name e)
  in
  Arg.conv (parse, print)

(* Run and domain counts: zero or a negative count is a usage
   error (exit 124 with a message), not an exception deep inside a run. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > 0 -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let non_negative_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 0 -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "expected a non-negative integer, got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let schedules_arg =
  Arg.(
    value
    & opt positive_int 25
    & info [ "schedules" ] ~docv:"N" ~doc:"Randomized fault schedules to run.")

let seed_arg =
  Arg.(
    value
    & opt int 4242
    & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed; run $(i,i) uses SEED+$(i,i).")

let env_arg =
  Arg.(
    value
    & opt (some env_conv) None
    & info [ "e"; "env" ] ~docv:"ENV"
        ~doc:"Restrict to one environment (default: cycle through all three).")

let sabotage_arg =
  Arg.(
    value
    & flag
    & info [ "sabotage" ]
        ~doc:
          "Plant a violation on every ber_burst application — self-test of \
           detection and shrinking.")

let jobs_arg =
  Arg.(
    value
    & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard runs across $(docv) domains via FLEET; output is \
           byte-identical to --jobs 1.")

(* An explicit seed list names at least one seed: [--seeds=] is a usage
   error, not a zero-run soak.  Repeats are legal — the environment
   cycles by run index, so a repeated seed runs in another environment. *)
let seed_list =
  let parse s =
    match Arg.conv_parser Arg.(list int) s with
    | Ok [] -> Error (`Msg "expected at least one seed")
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.(list int))

let seeds_arg =
  Arg.(
    value
    & opt (some seed_list) None
    & info [ "seeds" ] ~docv:"S1,S2,..."
        ~doc:
          "Explicit comma-separated seed list, overriding the derived \
           seeds (and the run count).")

let apps_cmd =
  Cmd.v (Cmd.info "apps" ~doc:"List the Table 1 application workloads")
    Term.(const list_apps $ const ())

let networks_cmd =
  Cmd.v (Cmd.info "networks" ~doc:"List the network profiles")
    Term.(const list_networks $ const ())

let classify_cmd =
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Run MANTTS stages I and II for an application over a network")
    Term.(ret (const classify $ app_arg $ network_arg))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate the application over the network and report")
    Term.(ret (const run_scenario $ app_arg $ network_arg $ duration_arg))

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run randomized fault-injection soaks with invariant checking; shrink \
          and print a minimal repro for any violation")
    Term.(
      ret
        (const run_chaos $ schedules_arg $ seed_arg $ seeds_arg $ env_arg
       $ sabotage_arg $ jobs_arg))

(* One term builds the whole [Churn.config]: every flag maps to one
   config field, and everything else keeps [Churn.default_config]. *)
let churn_config =
  let int_opt name ~docv ~default doc =
    Arg.(value & opt int default & info [ name ] ~docv ~doc)
  in
  let make sessions partitions shards churn_rounds seed soft hard wire steer
      chaos_seed spread_ms cap =
    let admission =
      match (soft, hard) with
      | None, None -> None
      | _ ->
        let hard = Option.value hard ~default:sessions in
        Some
          {
            Mantts.soft_sessions = Option.value soft ~default:hard;
            hard_sessions = hard;
            max_cpu_backlog = Time.ms 50;
          }
    in
    let chaos =
      Option.map
        (fun s ->
          Adaptive_chaos.Fault.random_schedule ~rng:(Rng.create s)
            ~classes:Adaptive_chaos.Fault.[ Ber_burst; Congestion_storm; Route_flap ]
            ())
        chaos_seed
    in
    {
      (Churn.default_config ~sessions ~seed) with
      Churn.partitions;
      shards;
      churn_rounds;
      admission;
      wire;
      steer = (if steer then Some Steer.default_policy else None);
      chaos;
      check_invariants = steer || chaos <> None;
      wan_spread = Time.ms spread_ms;
      session_cap = (if cap > 0 then Some cap else None);
    }
  in
  let soft_hard name what =
    Arg.(
      value
      & opt (some int) None
      & info [ name ] ~docv:"N"
          ~doc:(Printf.sprintf "Admission %s threshold: past $(docv) live \
                                sessions new opens are %s." name what))
  in
  Term.(
    const make
    $ int_opt "sessions" ~docv:"N" ~default:1000 "Session slots to churn."
    $ int_opt "partitions" ~docv:"P" ~default:1
        "Logical partitions joined by a WAN (part of the workload, \
         independent of the shard count)."
    $ int_opt "shards" ~docv:"N" ~default:1
        "Execution domains; any value produces the same digest and UNITES \
         output."
    $ int_opt "churn" ~docv:"N" ~default:2
        "Close/reopen cycles per slot after the first open."
    $ seed_arg
    $ soft_hard "soft" "negotiated down to a lighter configuration"
    $ soft_hard "hard" "refused"
    $ Arg.(
        value & flag
        & info [ "wire" ]
            ~doc:
              "Run in wire-true mode: every PDU crosses the network as real \
               bytes through the fused zero-copy codec path (one partition \
               only: a frame lease cannot cross partitions).")
    $ Arg.(
        value & flag
        & info [ "steer" ]
            ~doc:
              "Put every admitted session under the STEER closed-loop policy \
               engine: loss-driven ARQ swaps, burst-loss FEC, congestion \
               rate backoff and idle shedding, each gated by hysteresis and \
               the 500 ms reconfigure cooldown.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "chaos-seed" ] ~docv:"SEED"
            ~doc:
              "Install a seeded random ber-burst / congestion-storm / \
               route-flap schedule against every partition's LAN — the \
               backdrop the steered population adapts to.")
    $ int_opt "spread" ~docv:"MS" ~default:0
        "Maximum extra per-pair WAN latency in milliseconds: each ordered \
         partition pair gets a deterministic latency in [base, base + \
         spread], and SHARD synchronizes on the matching per-pair lookahead \
         matrix.  0 keeps the uniform WAN."
    $ Arg.(
        value
        & opt non_negative_int 0
        & info [ "cap" ] ~docv:"N"
            ~doc:
              "Track at most N distinct sessions per partition in UNITES; \
               the rest fold into one overflow bucket (totals preserved, \
               digest unchanged).  0 disables the cap."))

let churn_cmd =
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Churn session slots through open → transfer → close across the \
          Table 1 mix — on one host pair, or across several partitions \
          joined by a WAN and executed over OCaml domains with conservative \
          barrier-window synchronization — and print the whitebox report; \
          --soft/--hard install MANTTS admission control")
    Term.(
      ret
        (const run_churn $ churn_config
        $ Arg.(
            value & flag
            & info [ "parity" ]
                ~doc:
                  "Re-run the configuration with --shards 1 in value mode and \
                   check the digest (and, without --wire, every UNITES \
                   report) byte-for-byte.")))

let main =
  Cmd.group
    (Cmd.info "adaptive_cli" ~version:"1.0"
       ~doc:"The ADAPTIVE transport system reproduction")
    [ apps_cmd; networks_cmd; classify_cmd; run_cmd; chaos_cmd; churn_cmd ]

let () = exit (Cmd.eval main)
