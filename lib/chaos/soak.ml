open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

type environment = Campus | Internet | Satellite

let all_environments = [ Campus; Internet; Satellite ]

let environment_name = function
  | Campus -> "campus"
  | Internet -> "internet"
  | Satellite -> "satellite"

let environment_of_name = function
  | "campus" -> Some Campus
  | "internet" -> Some Internet
  | "satellite" -> Some Satellite
  | _ -> None

let env_index = function Campus -> 0 | Internet -> 1 | Satellite -> 2

let primary_path = function
  | Campus -> Profiles.campus_path ()
  | Internet -> Profiles.internet_path ()
  | Satellite -> Profiles.satellite_path ()

let duration = Time.sec 16.0
let liveness_bound = Time.sec 10.0

let schedule_of_seed ~env ~seed =
  (* Independent generator: the stack's own draws (loss, jitter) never
     perturb the fault pattern, so a schedule is a pure function of
     (seed, env) — [Rng.split_ix] derives the environment's stream from
     the seed's generator without sharing or reseeding anything a
     parallel campaign task could race on. *)
  let rng = Rng.split_ix (Rng.create (seed * 8191)) (env_index env) in
  Fault.random_schedule ~rng ~first:(Time.ms 1500)
    ~last:(Time.sec (0.75 *. Time.to_sec duration))
    ()

type outcome = {
  o_seed : int;
  o_env : environment;
  o_schedule : Fault.schedule;
  o_violations : Invariant.violation list;
  o_hash : int64;
  o_dropped : int;
  o_injected : int;
  o_recoveries : (Fault.fault_class * float) list;
  o_failovers : int;
  o_delivered : int;
  o_switches : int;
  o_events : int;
  o_wire : Session.Wire.report option;
  o_unites : string;
}

let ok o = o.o_violations = []

let bulk_qos =
  {
    Qos.default with
    Qos.avg_bps = 2e6;
    peak_bps = 4e6;
    duration = Some (Time.sec 60.0);
  }

let media_qos =
  {
    Qos.default with
    Qos.avg_bps = 1.5e6;
    peak_bps = 6e6;
    max_latency = Some (Time.ms 300);
    max_jitter = Some (Time.ms 40);
    loss_tolerance = 0.05;
    realtime = true;
    isochronous = true;
    duration = Some (Time.sec 60.0);
  }

let run_schedule ?(sabotage = false) ?(wire = false) ~env ~seed schedule =
  let stack = Adaptive.create_stack ~seed () in
  let wire_handle =
    if wire then Some (Session.Wire.install stack.Adaptive.net) else None
  in
  let engine = stack.Adaptive.engine in
  let trace = Trace.create ~log_capacity:512 () in
  Unites.attach_trace stack.Adaptive.unites trace;
  let host_a = Host.create engine and host_b = Host.create engine in
  let a = Adaptive.add_host ~host_cpu:host_a stack "alpha" in
  let b = Adaptive.add_host ~host_cpu:host_b stack "beta" in
  let primary = primary_path env in
  let backup =
    [
      Profiles.custom ~name:"chaos-backup" ~bandwidth_bps:5e6
        ~propagation:(Time.ms 40) ~ber:1e-7 ~mtu:1500 ();
    ]
  in
  let routing = Routing.create engine stack.Adaptive.topology in
  Routing.set_symmetric_candidates routing ~a ~b [ primary; backup ];
  let route_monitor = Routing.monitor ~every:(Time.ms 50) routing in
  let capacity =
    List.fold_left
      (fun acc l -> Float.max acc (Link.bandwidth_bps l))
      (Link.bandwidth_bps (List.hd backup))
      [ List.hd primary ]
  in
  let checker =
    Invariant.create ~engine ~unites:stack.Adaptive.unites
      ~mantts:stack.Adaptive.mantts ~trace ~liveness_bound ~capacity_bps:capacity
      ()
  in
  let mantts = stack.Adaptive.mantts in
  Invariant.attach_dispatcher checker (Mantts.dispatcher (Mantts.entity mantts a));
  Invariant.attach_dispatcher checker (Mantts.dispatcher (Mantts.entity mantts b));
  let delivered = ref 0 in
  Mantts.set_app_handler (Mantts.entity mantts b) (fun _ _ -> incr delivered);
  let bulk =
    Mantts.open_session mantts ~name:"bulk" ~src:a
      ~acd:(Acd.make ~participants:[ b ] ~qos:bulk_qos ())
      ()
  in
  let media =
    Mantts.open_session mantts ~name:"media" ~src:a
      ~acd:(Acd.make ~participants:[ b ] ~qos:media_qos ())
      ()
  in
  Invariant.track_sender checker ~label:"bulk" bulk;
  Invariant.track_sender checker ~label:"media" media;
  let pace session ~bytes ~every ~from =
    let rec step at =
      if at <= duration then
        ignore
          (Engine.schedule engine ~at (fun () ->
               if Session.state session = Session.Established then
                 Session.send session ~bytes ();
               step (Time.add at every)))
    in
    step from
  in
  pace bulk ~bytes:4000 ~every:(Time.ms 50) ~from:(Time.ms 200);
  pace media ~bytes:2000 ~every:(Time.ms 33) ~from:(Time.ms 233);
  let fault_env =
    {
      Fault.links = primary;
      tail_links = [];
      hosts = [ host_a; host_b ];
      routing = Some routing;
    }
  in
  let on_apply =
    if sabotage then
      Some
        (fun (f : Fault.fault) ->
          if f.Fault.cls = Fault.Ber_burst then
            Invariant.inject_violation checker
              ~detail:"sabotage: planted on ber_burst application")
    else None
  in
  let injector =
    Fault.install ~engine ~trace ~unites:stack.Adaptive.unites ?on_apply
      fault_env schedule
  in
  Invariant.set_injector checker injector;
  Invariant.start checker;
  Adaptive.run stack ~until:(Time.add duration (Time.add liveness_bound (Time.ms 500)));
  Invariant.finish checker;
  Engine.Timer.cancel route_monitor;
  let switches =
    List.length
      (List.filter
         (fun (_, _, desc) ->
           String.length desc >= 7 && String.sub desc 0 7 = "switch ")
         (Mantts.adaptations mantts))
  in
  Option.iter
    (fun h -> Session.Wire.observe h stack.Adaptive.unites)
    wire_handle;
  {
    o_seed = seed;
    o_env = env;
    o_schedule = schedule;
    o_violations = Invariant.violations checker;
    o_hash = Trace.hash trace;
    o_dropped = Trace.dropped trace;
    o_injected = Fault.injected injector;
    o_recoveries = Fault.recoveries injector;
    o_failovers = Routing.failovers routing;
    o_delivered = !delivered;
    o_switches = switches;
    o_events = Engine.events_fired engine;
    o_wire = Option.map Session.Wire.report wire_handle;
    o_unites = Format.asprintf "%a" Unites.report stack.Adaptive.unites;
  }

let run_one ?sabotage ?wire ~env ~seed () =
  run_schedule ?sabotage ?wire ~env ~seed (schedule_of_seed ~env ~seed)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

type shrink_result = {
  s_original : int;
  s_minimal : Fault.schedule;
  s_runs : int;
  s_outcome : outcome;
}

let min_shrunk_duration = Time.ms 100

let shrink ?(sabotage = false) ?wire ~env ~seed schedule =
  let runs = ref 0 in
  let fails sched =
    incr runs;
    not (ok (run_schedule ~sabotage ?wire ~env ~seed sched))
  in
  (* Drop-one passes to a fixed point: removing any single fault must
     make the failure disappear before we stop. *)
  let rec drop_pass sched =
    let n = List.length sched in
    let rec try_at i =
      if i >= n then sched
      else
        let candidate = List.filteri (fun j _ -> j <> i) sched in
        if candidate <> [] && fails candidate then drop_pass candidate
        else try_at (i + 1)
    in
    if n <= 1 then sched else try_at 0
  in
  (* Then halve each surviving fault's duration while the failure
     persists. *)
  let halve_pass sched =
    let rec try_at i sched =
      if i >= List.length sched then sched
      else
        let f = List.nth sched i in
        if f.Fault.duration > min_shrunk_duration then begin
          let f' =
            {
              f with
              Fault.duration =
                Time.max min_shrunk_duration (f.Fault.duration / 2);
            }
          in
          let candidate = List.mapi (fun j g -> if j = i then f' else g) sched in
          if fails candidate then try_at i candidate else try_at (i + 1) sched
        end
        else try_at (i + 1) sched
    in
    try_at 0 sched
  in
  let minimal = halve_pass (drop_pass schedule) in
  let s_outcome = run_schedule ~sabotage ?wire ~env ~seed minimal in
  { s_original = List.length schedule; s_minimal = minimal; s_runs = !runs; s_outcome }

let pp_repro fmt o =
  Format.fprintf fmt
    "@[<v>repro: seed=%d env=%s hash=0x%016Lx faults=%d@,%a@]" o.o_seed
    (environment_name o.o_env) o.o_hash
    (List.length o.o_schedule)
    Fault.pp_schedule o.o_schedule

(* ------------------------------------------------------------------ *)
(* Soak *)

type report = {
  r_runs : int;
  r_outcomes : outcome list;
  r_failures : (outcome * shrink_result) list;
}

(* The soak's run list: seed [seed + i] unless an explicit seed list
   overrides it (the CLI's --seeds flag), environment cycling through
   [environments] by run index either way. *)
let run_grid ~environments ~seeds ~seed ~schedules =
  let run_seeds =
    match seeds with
    | Some l -> Array.of_list l
    | None -> Array.init schedules (fun i -> seed + i)
  in
  Array.mapi
    (fun i s -> (s, List.nth environments (i mod List.length environments)))
    run_seeds

let soak ?(sabotage = false) ?wire ?(environments = all_environments) ?seeds
    ?progress ~jobs ~seed ~schedules () =
  if environments = [] then invalid_arg "Soak.soak: no environments";
  (* Each task is a complete isolated run: fresh stack, fresh engine,
     fresh RNGs; the shrinker for a failing run executes inside the same
     task, so the report needs no cross-task state. *)
  let settled =
    Adaptive_fleet.Fleet.map ~jobs
      (fun (run_seed, env) ->
        let o = run_one ~sabotage ?wire ~env ~seed:run_seed () in
        let s =
          if ok o then None
          else Some (shrink ~sabotage ?wire ~env ~seed:run_seed o.o_schedule)
        in
        (o, s))
      (run_grid ~environments ~seeds ~seed ~schedules)
  in
  (* Reduce in run order: progress lines, outcome order and failure
     order are the same at every job count, byte for byte. *)
  Option.iter (fun f -> Array.iteri (fun i (o, _) -> f i o) settled) progress;
  let settled = Array.to_list settled in
  {
    r_runs = List.length settled;
    r_outcomes = List.map fst settled;
    r_failures =
      List.filter_map (fun (o, s) -> Option.map (fun s -> (o, s)) s) settled;
  }
