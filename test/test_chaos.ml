(* Tests for the chaos subsystem: schedule generation, replay
   determinism, the invariant oracles and the shrinker. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------- schedules *)

let test_schedule_deterministic () =
  let draw () =
    Fault.random_schedule ~rng:(Rng.create 99) ()
  in
  let a = draw () and b = draw () in
  check_int "same length" (List.length a) (List.length b);
  check_bool "identical" true (a = b)

let test_schedule_properties () =
  let rng = Rng.create 7 in
  for _ = 1 to 20 do
    let first = Time.ms 1500 and last = Time.sec 12.0 in
    let s = Fault.random_schedule ~rng:(Rng.split rng) ~first ~last () in
    List.iter
      (fun (f : Fault.fault) ->
        check_bool "start in window" true (f.Fault.start > first && f.Fault.start <= last);
        check_bool "duration floor" true (f.Fault.duration >= Time.ms 200);
        check_bool "duration cap" true
          (f.Fault.duration
          <= (if f.Fault.cls = Fault.Partition then Time.ms 1500 else Time.ms 2500));
        check_bool "intensity in [0,1)" true
          (f.Fault.intensity >= 0.0 && f.Fault.intensity < 1.0))
      s;
    let sorted = List.sort (fun a b -> compare a.Fault.start b.Fault.start) s in
    check_bool "sorted by start" true
      (List.map (fun f -> f.Fault.start) s
      = List.map (fun f -> f.Fault.start) sorted)
  done

let test_schedule_of_seed_stable () =
  let schedule env = (Soak.run_one ~env ~seed:11 ()).Soak.o_schedule in
  let a = schedule Soak.Campus and b = schedule Soak.Campus in
  let c = schedule Soak.Internet in
  check_bool "same (seed, env) -> same schedule" true (a = b);
  check_bool "env perturbs the draw" true (a <> c)

(* ------------------------------------------------------ determinism *)

let test_replay_determinism () =
  let run () = Soak.run_one ~env:Soak.Campus ~seed:4242 () in
  let a = run () and b = run () in
  check_bool "no violations" true (Soak.ok a && Soak.ok b);
  check_bool "same schedule" true (a.Soak.o_schedule = b.Soak.o_schedule);
  Alcotest.(check int64) "same trace hash" a.Soak.o_hash b.Soak.o_hash;
  check_int "same delivery count" a.Soak.o_delivered b.Soak.o_delivered;
  check_int "same faults injected" a.Soak.o_injected b.Soak.o_injected

(* --------------------------------------------------------- oracles *)

let mk_checker () =
  let engine = Engine.create () in
  let unites = Unites.create engine in
  Invariant.create ~engine ~unites ()

let observe c ?(ordered = true) ?(reliable = true) ?(detected = true)
    ?(damaged = false) seq =
  Invariant.observe c ~label:"s" ~key:1 ~ordered ~reliable ~detected
    ~at:Time.zero ~seq ~damaged

let kinds c = List.map (fun v -> v.Invariant.kind) (Invariant.violations c)

let test_oracle_clean_stream () =
  let c = mk_checker () in
  List.iter (observe c) [ 0; 1; 2; 3 ];
  check_int "no violations" 0 (List.length (Invariant.violations c))

let test_oracle_duplicate () =
  let c = mk_checker () in
  List.iter (observe c) [ 0; 1; 1 ];
  check_bool "duplicate flagged" true (kinds c = [ Invariant.Duplicate_delivery ])

let test_oracle_out_of_order () =
  let c = mk_checker () in
  List.iter (observe c) [ 0; 1; 2; 1 ];
  check_bool "regression flagged" true
    (List.mem Invariant.Out_of_order (kinds c))

let test_oracle_gap () =
  let c = mk_checker () in
  List.iter (observe c) [ 0; 1; 4 ];
  check_bool "gap flagged" true (kinds c = [ Invariant.Delivery_gap ])

let test_oracle_first_seq () =
  let c = mk_checker () in
  observe c 3;
  check_bool "nonzero first seq flagged" true (kinds c = [ Invariant.Delivery_gap ])

let test_oracle_unreliable_gaps_allowed () =
  let c = mk_checker () in
  List.iter (observe c ~reliable:false) [ 2; 5; 9 ];
  check_int "gaps tolerated for unreliable stream" 0
    (List.length (Invariant.violations c));
  (* Once unreliable, a later reliable segue must not re-arm gap checks. *)
  observe c ~reliable:true 20;
  check_int "no retroactive gap check after segue" 0
    (List.length (Invariant.violations c))

let test_oracle_undetected_corruption () =
  let c = mk_checker () in
  observe c ~damaged:true ~detected:true 0;
  check_bool "damaged despite detection flagged" true
    (kinds c = [ Invariant.Undetected_corruption ]);
  let c2 = mk_checker () in
  observe c2 ~damaged:true ~detected:false 0;
  check_int "damage without detection configured is allowed" 0
    (List.length (Invariant.violations c2))

(* ------------------------------------------------------------ sweep *)

(* The 100 ms sweep audits UNITES counters and the MANTTS switch log.
   Engine events plant the faults between the sweeps at 100 and 200 ms. *)

let at engine ms f = ignore (Engine.schedule engine ~at:(Time.ms ms) f)

let test_sweep_counter_regression () =
  let engine = Engine.create () in
  let unites = Unites.create engine in
  Unites.register_session unites ~id:7 ~name:"bulk";
  let deliver bytes () =
    Unites.observe unites ~session:7 Unites.Bytes_delivered bytes
  in
  (* The first total predates the checker; its fall must still count. *)
  deliver 1000.0 ();
  let c = Invariant.create ~engine ~unites () in
  Invariant.start c;
  at engine 150 (deliver (-400.0));
  Engine.run engine ~until:(Time.ms 350);
  Invariant.finish c;
  match Invariant.violations c with
  | [ v ] ->
    check_bool "counter regression" true (v.Invariant.kind = Invariant.Counter_regression);
    Alcotest.(check string) "label" "session-7" v.Invariant.label;
    check_bool "flagged at the next sweep" true (v.Invariant.at = Time.ms 200)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_sweep_policy_flapping () =
  let open Adaptive_net in
  let stack = Adaptive.create_stack ~seed:3 () in
  let a = Adaptive.add_host stack "a" in
  let b = Adaptive.add_host stack "b" in
  Adaptive.connect_hosts stack a b (Profiles.lan_path ());
  let mantts = stack.Adaptive.mantts in
  let s =
    Session.connect (Mantts.dispatcher (Mantts.entity mantts a)) ~peers:[ b ]
      ~scs:Scs.default ()
  in
  let engine = stack.Adaptive.engine in
  let c = Invariant.create ~engine ~unites:stack.Adaptive.unites ~mantts () in
  Invariant.start c;
  at engine 150 (fun () -> Mantts.note_switch mantts s "switch recovery gbn->sr");
  at engine 250 (fun () -> Mantts.note_switch mantts s "switch recovery sr->gbn");
  Engine.run engine ~until:(Time.ms 400);
  Invariant.finish c;
  match
    List.filter
      (fun v -> v.Invariant.kind = Invariant.Policy_flapping)
      (Invariant.violations c)
  with
  | [ v ] ->
    Alcotest.(check string) "label"
      (Printf.sprintf "session-%d" (Session.id s))
      v.Invariant.label
  | vs -> Alcotest.failf "expected one flapping violation, got %d" (List.length vs)

(* Guard for the O(writes) sweep: 5,000 idle sessions written before the
   checker starts must cost every sweep after the first nothing.  100
   such sweeps allocate ~900 words against a 40,000-word ceiling; a
   sweep that walks every registered session allocates ~85 words per
   session per sweep, about 43M words here. *)
let test_sweep_ignores_idle_sessions () =
  let engine = Engine.create () in
  let unites = Unites.create engine in
  let idle = 5_000 in
  for id = 1 to idle do
    Unites.register_session unites ~id ~name:"idle";
    List.iter
      (fun m -> Unites.count unites ~session:id m)
      [ Unites.Segments_sent; Unites.Segments_delivered; Unites.Acks_sent ]
  done;
  let active = idle + 1 in
  Unites.register_session unites ~id:active ~name:"active";
  let journalled () =
    let n = ref 0 in
    Unites.journal_drain unites (fun ~cell:_ ~session:_ _ _ -> incr n);
    !n
  in
  let c = Invariant.create ~engine ~unites () in
  Unites.count unites ~session:active Unites.Segments_sent;
  check_int "an unstarted checker journals nothing" 0 (journalled ());
  Invariant.start c;
  (* The first sweep takes in the cells written before the start. *)
  Engine.run engine ~until:(Time.ms 100);
  for k = 1 to 100 do
    at engine ((100 * k) + 50) (fun () ->
        Unites.count unites ~session:active Unites.Segments_sent)
  done;
  let before = Gc.minor_words () in
  Engine.run engine ~until:(Time.ms 10_100);
  let words = Gc.minor_words () -. before in
  Invariant.finish c;
  check_int "no violations" 0 (List.length (Invariant.violations c));
  if words > 40_000.0 then
    Alcotest.failf
      "100 sweeps over %d idle sessions allocated %.0f minor words \
       (ceiling 40000): the sweep walks idle sessions again"
      idle words;
  Unites.count unites ~session:active Unites.Segments_sent;
  check_int "a finished checker journals nothing" 0 (journalled ())

(* --------------------------------------------------------- liveness *)

(* A two-host stack over one slow link: a single Link_down fault heals,
   and [kill_after_heal] then fails the link permanently from outside the
   injector.  Every injected fault is healed, the sender holds a backlog,
   yet nothing is ever delivered again — the genuine wedge the liveness
   oracle exists to catch.  Without the kill the transfer recovers after
   RTO backoff and the same oracle must stay silent (exoneration). *)
let run_liveness ~kill_after_heal =
  let open Adaptive_net in
  let open Adaptive_mech in
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" in
  let b = Topology.add_host topo "b" in
  let link =
    Link.create ~bandwidth_bps:1e6 ~propagation:(Time.us 50) ~queue_pkts:64
      ~mtu:1500 ()
  in
  Topology.set_symmetric_route topo ~a ~b [ link ];
  let net = Network.create engine ~rng:(Rng.create 5) topo in
  let unites = Unites.create engine in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Sliding_window { window = 16 };
      recovery = Params.Go_back_n;
      reporting = Params.Cumulative_ack { delay = Time.ms 1 };
      recv_buffer_segments = 32;
      segment_bytes = 1000;
      initial_rto = Time.ms 50;
    }
  in
  let mk_disp addr =
    let disp =
      Session.Dispatcher.create net ~addr ~host:(Host.zero_cost engine) ~unites
    in
    Session.Dispatcher.set_acceptor disp (fun ~src:_ ~conn:_ ~proposal ->
        let scs = match proposal with Some proposed -> proposed | None -> scs in
        Session.Dispatcher.Accept
          { scs; name = "acc"; on_deliver = None });
    disp
  in
  let disp_a = mk_disp a and disp_b = mk_disp b in
  let checker =
    Invariant.create ~engine ~unites ~liveness_bound:(Time.ms 500) ()
  in
  Invariant.attach_dispatcher checker disp_a;
  Invariant.attach_dispatcher checker disp_b;
  let s = Session.connect disp_a ~peers:[ b ] ~scs () in
  Invariant.track_sender checker ~label:"wedge" s;
  Session.send s ~bytes:500_000 ();
  let env =
    { Fault.links = [ link ]; tail_links = []; hosts = []; routing = None }
  in
  let schedule =
    [
      {
        Fault.cls = Fault.Link_down;
        start = Time.ms 300;
        duration = Time.ms 200;
        target = 0;
        intensity = 0.5;
      };
    ]
  in
  let inj = Fault.install ~engine ~unites env schedule in
  Invariant.set_injector checker inj;
  Invariant.start checker;
  (* 2 ms after the heal: no segment can transit the 8 ms-per-packet link
     in between, so the heal's watch never sees a delivery. *)
  if kill_after_heal then
    ignore (Engine.schedule engine ~at:(Time.ms 502) (fun () -> Link.fail link));
  Engine.run engine ~until:(Time.sec 5.0);
  Invariant.finish checker;
  Invariant.violations checker

let test_liveness_catches_wedge () =
  let vs = run_liveness ~kill_after_heal:true in
  check_bool "wedge flagged" true
    (List.exists (fun v -> v.Invariant.kind = Invariant.Liveness_stall) vs)

let test_liveness_recovery_exonerated () =
  check_int "recovered run is clean" 0
    (List.length (run_liveness ~kill_after_heal:false))

(* -------------------------------------------------------- shrinking *)

let test_shrink_to_sabotage () =
  (* Five faults, exactly one ber_burst; sabotage plants a violation on
     every ber_burst application, so the minimal repro must be that one
     fault with its duration halved to the floor. *)
  let f cls start =
    {
      Fault.cls;
      start = Time.ms start;
      duration = Time.ms 800;
      target = 0;
      intensity = 0.5;
    }
  in
  let schedule =
    [
      f Fault.Link_down 1600;
      f Fault.Congestion_storm 2400;
      f Fault.Ber_burst 3200;
      f Fault.Host_stall 4000;
      f Fault.Mtu_shrink 4800;
    ]
  in
  let failing = Soak.run_schedule ~sabotage:true ~env:Soak.Campus ~seed:5 schedule in
  check_bool "sabotaged run fails" true (not (Soak.ok failing));
  check_bool "sabotage recorded" true
    (List.exists
       (fun v -> v.Invariant.kind = Invariant.Injected_sabotage)
       failing.Soak.o_violations);
  let r = Soak.shrink ~sabotage:true ~env:Soak.Campus ~seed:5 schedule in
  check_int "original size recorded" 5 r.Soak.s_original;
  check_int "shrinks to one fault" 1 (List.length r.Soak.s_minimal);
  (match r.Soak.s_minimal with
  | [ m ] ->
    check_bool "the ber_burst survives" true (m.Fault.cls = Fault.Ber_burst);
    check_bool "duration halved to the floor" true (m.Fault.duration = Time.ms 100)
  | _ -> Alcotest.fail "expected a single-fault repro");
  check_bool "minimal repro still fails" true (not (Soak.ok r.Soak.s_outcome))

(* ------------------------------------------------------ wire-true soak *)

(* A bit-error storm under wire-true mode: corruption lands on the real
   frame bytes, so it must be caught by the in-place checksum verify
   ([decode_view]) and counted as wire rejects — never delivered as a
   damaged PDU, and therefore never able to trip the
   undetected-corruption oracle. *)
let test_wire_ber_burst_soak () =
  let burst start =
    {
      Fault.cls = Fault.Ber_burst;
      start = Time.ms start;
      duration = Time.ms 2500;
      target = 0;
      intensity = 0.9;
    }
  in
  let schedule = [ burst 500; burst 3500 ] in
  let o = Soak.run_schedule ~wire:true ~env:Soak.Campus ~seed:21 schedule in
  let w =
    match o.Soak.o_wire with
    | Some w -> w
    | None -> Alcotest.fail "wire-true run carried no wire report"
  in
  check_bool "the storm actually corrupted frames" true
    (w.Session.Wire.rejects > 0);
  check_bool "every arriving frame was either decoded or rejected" true
    (w.Session.Wire.decodes + w.Session.Wire.rejects <= w.Session.Wire.encodes
    && w.Session.Wire.decodes > 0);
  check_bool "no undetected corruption under wire-true mode" true
    (not
       (List.exists
          (fun v -> v.Invariant.kind = Invariant.Undetected_corruption)
          o.Soak.o_violations));
  check_bool "soak passes all oracles" true (Soak.ok o);
  (* Frame-level determinism: the wire path replays bit-for-bit. *)
  let o2 = Soak.run_schedule ~wire:true ~env:Soak.Campus ~seed:21 schedule in
  Alcotest.(check int64) "same trace hash" o.Soak.o_hash o2.Soak.o_hash;
  check_bool "same reject count" true
    (match o2.Soak.o_wire with
    | Some w2 -> w2.Session.Wire.rejects = w.Session.Wire.rejects
    | None -> false)

let suite =
  [
    ( "chaos.schedule",
      [
        Alcotest.test_case "equal rng states draw equal schedules" `Quick
          test_schedule_deterministic;
        Alcotest.test_case "windows, caps and ordering" `Quick
          test_schedule_properties;
        Alcotest.test_case "schedule is a pure function of (seed, env)" `Quick
          test_schedule_of_seed_stable;
      ] );
    ( "chaos.replay",
      [
        Alcotest.test_case "same seed, same schedule, same trace hash" `Slow
          test_replay_determinism;
      ] );
    ( "chaos.oracle",
      [
        Alcotest.test_case "clean stream" `Quick test_oracle_clean_stream;
        Alcotest.test_case "duplicate delivery" `Quick test_oracle_duplicate;
        Alcotest.test_case "out of order" `Quick test_oracle_out_of_order;
        Alcotest.test_case "delivery gap" `Quick test_oracle_gap;
        Alcotest.test_case "nonzero first sequence" `Quick test_oracle_first_seq;
        Alcotest.test_case "unreliable streams may skip" `Quick
          test_oracle_unreliable_gaps_allowed;
        Alcotest.test_case "undetected corruption" `Quick
          test_oracle_undetected_corruption;
      ] );
    ( "chaos.sweep",
      [
        Alcotest.test_case "a falling counter is flagged at the next sweep"
          `Quick test_sweep_counter_regression;
        Alcotest.test_case "switches 100 ms apart are flapping" `Quick
          test_sweep_policy_flapping;
        Alcotest.test_case "idle sessions cost the sweep nothing" `Quick
          test_sweep_ignores_idle_sessions;
      ] );
    ( "chaos.liveness",
      [
        Alcotest.test_case "a wedged session is caught at finish" `Quick
          test_liveness_catches_wedge;
        Alcotest.test_case "slow recovery after backoff is exonerated" `Quick
          test_liveness_recovery_exonerated;
      ] );
    ( "chaos.wire",
      [
        Alcotest.test_case "ber burst is caught at decode_view" `Slow
          test_wire_ber_burst_soak;
      ] );
    ( "chaos.shrink",
      [
        Alcotest.test_case "sabotaged schedule shrinks to one fault" `Slow
          test_shrink_to_sabotage;
      ] );
  ]
