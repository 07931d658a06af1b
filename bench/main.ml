(* Benchmark and experiment harness for the ADAPTIVE reproduction.

   Regenerates every table and figure of the paper, plus one experiment
   per quantitative claim.  Run everything:

     dune exec bench/main.exe

   or a single experiment:

     dune exec bench/main.exe -- --only e3_fec
     dune exec bench/main.exe -- --list

   [--smoke] shrinks the workloads that honor it (e8-e15) so CI can
   exercise the harness quickly; the eight [@*-smoke] dune aliases in
   bench/dune run one experiment each that way.  [--jobs N] shards the
   replication-style experiments (e7, e9, e10) across N domains via
   FLEET; [--seeds a,b,c] overrides the seed list the replication
   experiments sweep.

   Every experiment prints [shape:] self-checks; the process exits 1
   after its experiments if any check failed (checks on single-shot
   wall-clock timings print but do not count). *)

open Bench_harness

let registry =
  [
    ("table1", Tables.table1);
    ("table2", Tables.table2);
    ("fig1", Figures.fig1);
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig6", Figures.fig6);
    ("e1_weight", Experiments.e1_weight);
    ("e2_recovery", Experiments.e2_recovery);
    ("e3_fec", Experiments.e3_fec);
    ("e4_preserve", Experiments.e4_preserve);
    ("e5_reconfig", Experiments.e5_reconfig);
    ("e6_window", Experiments.e6_window);
    ("e7_replicate", Experiments.e7_replicate);
    ("e8_engine_scale", Engine_scale.e8_engine_scale);
    ("e9_chaos", Chaos_bench.e9_chaos);
    ("e10_fleet_scale", Fleet_scale.e10_fleet_scale);
    ("e11_swarm_scale", Churn_scale.e11_swarm_scale);
    ("e12_wire_path", Wire_path.e12_wire_path);
    ("e13_megaswarm_scale", Churn_scale.e13_megaswarm_scale);
    ("e14_steer", Steer_bench.e14_steer);
    ("e15_gigaswarm", Churn_scale.e15_gigaswarm);
    ("a1_detection", Ablations.a1_detection);
    ("a2_fec_group", Ablations.a2_fec_group);
    ("a3_ack_delay", Ablations.a3_ack_delay);
    ("a4_layering", Ablations.a4_layering);
    ("fig45_micro", Micro.fig45_and_micro);
  ]

(* A later registration silently shadowing an earlier one is exactly the
   kind of bug that makes an experiment "pass" by running the wrong
   code; refuse to start instead. *)
let () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (id, _) ->
      if Hashtbl.mem seen id then begin
        Printf.eprintf "duplicate experiment registration: %S\n" id;
        exit 2
      end;
      Hashtbl.add seen id ())
    registry

let usage () =
  prerr_endline
    "usage: main.exe [--smoke] [--jobs N] [--seeds a,b,c] [--list | --only ID \
     [--only ID ...]]";
  exit 1

let () =
  let action = ref `All in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      Engine_scale.smoke := true;
      Chaos_bench.smoke := true;
      Fleet_scale.smoke := true;
      Churn_scale.smoke := true;
      Wire_path.smoke := true;
      Steer_bench.smoke := true;
      parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> Util.jobs := n
      | _ ->
        Printf.eprintf "--jobs: expected a positive integer, got %S\n" n;
        exit 1);
      parse rest
    | "--seeds" :: s :: rest ->
      (match Util.parse_seed_list s with
      | Some seeds -> Util.seeds_override := Some seeds
      | None ->
        Printf.eprintf "--seeds: expected a comma-separated integer list, got %S\n" s;
        exit 1);
      parse rest
    | "--list" :: rest ->
      action := `List;
      parse rest
    | "--only" :: id :: rest ->
      (* Repeatable: several experiments run in one process, in the
         order given. *)
      (action :=
         match !action with
         | `Only ids -> `Only (ids @ [ id ])
         | _ -> `Only [ id ]);
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !action with
  | `List -> List.iter (fun (id, _) -> print_endline id) registry
  | `Only ids ->
    List.iter
      (fun id ->
        match List.assoc_opt id registry with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; try --list\n" id;
          exit 1)
      ids
  | `All ->
    Format.printf
      "ADAPTIVE reproduction — experiment harness (all tables, figures and claims)@.";
    List.iter (fun (_, f) -> f ()) registry);
  if !Util.shape_failures > 0 then begin
    Printf.eprintf "%d shape check(s) failed\n" !Util.shape_failures;
    exit 1
  end
