(* Reproductions of the behaviours behind the paper's figures: the
   architecture pipeline (Fig 1), the MANTTS transformation model (Fig 2),
   connection configuration alternatives (Fig 3), and the UNITES
   measurement subsystem (Fig 6).  The TKO binding/dispatch trade-offs of
   Figs 4–5 are measured by the Bechamel micro-benchmarks in Micro. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_workloads

(* --------------------------------------------------------------- fig 1 *)

let fig1 () =
  Util.heading "Figure 1 — one session through MANTTS -> TKO -> UNITES";
  let p = Util.make_pair (Profiles.campus_path ()) in
  let acd =
    Acd.make ~participants:[ p.Util.dst ] ~qos:(Workloads.qos Workloads.File_transfer) ()
  in
  (* MANTTS: three-stage transformation. *)
  let tsc = Mantts.classify acd in
  Util.row "MANTTS stage I   : QoS -> %s@." (Tsc.name tsc);
  let scs = Mantts.derive_scs p.Util.stack.Adaptive.mantts ~src:p.Util.src acd tsc in
  Util.row "MANTTS stage II  : TSC + network state -> %a@." Scs.pp scs;
  let session =
    Mantts.open_session p.Util.stack.Adaptive.mantts ~src:p.Util.src ~acd ~name:"fig1" ()
  in
  Util.row "MANTTS stage III : TKO synthesis (template: %s)@."
    (match (Session.context session).Tko.binding with
    | Tko.Static_template name | Tko.Reconfigurable_template name -> name
    | Tko.Synthesized -> "none, dynamic binding");
  Session.send session ~bytes:2_000_000 ();
  Adaptive.run p.Util.stack ~until:(Time.sec 20.0);
  Mantts.close_session p.Util.stack.Adaptive.mantts session;
  Adaptive.run p.Util.stack ~until:(Time.sec 30.0);
  let u = p.Util.stack.Adaptive.unites in
  let id = Session.id session in
  Util.row "TKO              : %d segue(s); %d peer(s); state machine closed cleanly: %b@."
    (Session.context session).Tko.segue_count
    (List.length (Session.peers session))
    (Session.state session = Session.Closed);
  Util.row "UNITES           : %d whitebox samples over %d metrics@."
    (Unites.whitebox_samples u)
    (List.length
       (List.filter (fun m -> Unites.stats u ~session:id m <> None) Unites.all_metrics));
  Util.shape_check "data flowed through all three subsystems"
    (Util.delivered_bytes p.Util.stack = 2_000_000.0
    && Unites.whitebox_samples u > 0)

(* --------------------------------------------------------------- fig 2 *)

let fig2 () =
  Util.heading "Figure 2 — transformation matrix: (service class x network) -> SCS";
  let networks =
    [
      ("lan", Profiles.lan_path);
      ("internet", Profiles.internet_path);
      ("b-isdn", Profiles.bisdn_path);
      ("satellite", Profiles.satellite_path);
    ]
  in
  let representatives =
    [
      Workloads.Voice_conversation;
      Workloads.Video_compressed;
      Workloads.Manufacturing_control;
      Workloads.File_transfer;
    ]
  in
  Util.row "%-26s %-10s %-9s %-12s %-10s %-9s %-12s@." "class (representative)" "network"
    "conn" "transmission" "recovery" "reporting" "delivery";
  Util.rule 100;
  let fec_on_satellite = ref false and window_on_lfn = ref false in
  List.iter
    (fun app ->
      List.iter
        (fun (net_name, path) ->
          let p = Util.make_pair (path ()) in
          let acd = Acd.make ~participants:[ p.Util.dst ] ~qos:(Workloads.qos app) () in
          let tsc = Mantts.classify acd in
          let scs = Mantts.derive_scs p.Util.stack.Adaptive.mantts ~src:p.Util.src acd tsc in
          (match (app, net_name, scs.Scs.recovery) with
          | Workloads.Video_compressed, "satellite", Params.Forward_error_correction _ ->
            fec_on_satellite := true
          | Workloads.File_transfer, "b-isdn", _ -> (
            match scs.Scs.transmission with
            | Params.Sliding_window { window } when window > 64 -> window_on_lfn := true
            | _ -> ())
          | _ -> ());
          Util.row "%-26s %-10s %-9s %-12s %-9s %-10s %-12s@."
            (Workloads.name app) net_name
            (Params.connection_to_string scs.Scs.connection)
            (match scs.Scs.transmission with
            | Params.Sliding_window { window } -> Printf.sprintf "win:%d" window
            | Params.Rate_based { rate_bps; _ } ->
              Printf.sprintf "rate:%.1fM" (rate_bps /. 1e6)
            | Params.Stop_and_wait -> "stopwait")
            (Params.recovery_to_string scs.Scs.recovery)
            (Params.reporting_to_string scs.Scs.reporting
            |> fun s -> if String.length s > 10 then String.sub s 0 10 else s)
            (match scs.Scs.delivery with
            | Params.Playout { target } -> Printf.sprintf "play:%s" (Time.to_string target)
            | Params.As_available -> "asap"))
        networks)
    representatives;
  Util.rule 100;
  Util.shape_check "media over satellite selects forward error correction" !fec_on_satellite;
  Util.shape_check "bulk over the LFN selects a scaled window" !window_on_lfn

(* --------------------------------------------------------------- fig 3 *)

let fig3 () =
  Util.heading
    "Figure 3 — connection configuration: implicit vs explicit negotiation";
  let networks =
    [
      ("lan", Profiles.lan_path);
      ("internet", Profiles.internet_path);
      ("satellite", Profiles.satellite_path);
    ]
  in
  let time_to_first conn path =
    let p = Util.make_pair (path ()) in
    let scs =
      { Scs.default with Scs.connection = conn; segment_bytes = 500; initial_rto = Time.ms 900 }
    in
    let first = ref None in
    let disp =
      Mantts.dispatcher (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.src)
    in
    Mantts.set_app_handler
      (Mantts.entity p.Util.stack.Adaptive.mantts p.Util.dst)
      (fun _ d -> if !first = None then first := Some d.Session.delivered_at);
    let s = Session.connect disp ~peers:[ p.Util.dst ] ~scs () in
    Session.send s ~bytes:400 ();
    Adaptive.run p.Util.stack ~until:(Time.sec 5.0);
    Session.close ~graceful:false s;
    match !first with Some t -> t | None -> Time.sec 99.0
  in
  Util.row "%-10s %14s %14s %14s %20s@." "network" "implicit" "2-way" "3-way"
    "explicit penalty";
  Util.rule 80;
  let saves = ref true in
  List.iter
    (fun (name, path) ->
      let t_imp = time_to_first Params.Implicit path in
      let t_2w = time_to_first Params.Two_way path in
      let t_3w = time_to_first Params.Three_way path in
      if t_2w <= t_imp then saves := false;
      Util.row "%-10s %14s %14s %14s %17s@." name (Time.to_string t_imp)
        (Time.to_string t_2w) (Time.to_string t_3w)
        (Time.to_string (Time.diff t_2w t_imp)))
    networks;
  Util.rule 80;
  Util.shape_check "implicit setup saves about one round trip everywhere" !saves

(* --------------------------------------------------------------- fig 6 *)

let fig6 () =
  Util.heading "Figure 6 — UNITES: blackbox vs whitebox metric collection";
  let run whitebox =
    let stack = Adaptive.create_stack ~seed:4242 ~whitebox () in
    let a = Adaptive.add_host stack "a" in
    let b = Adaptive.add_host stack "b" in
    (* A fast LAN so the 1992-class host CPU is the bottleneck and the
       per-probe instrumentation cost is visible in the transfer time. *)
    Adaptive.connect_hosts stack a b [ Profiles.fddi () ];
    (* Completion measured at the application, independently of whitebox
       collection. *)
    let finished = ref Time.zero in
    Mantts.set_app_handler (Mantts.entity stack.Adaptive.mantts b) (fun _ d ->
        finished := Time.max !finished d.Session.delivered_at);
    let acd = Acd.make ~participants:[ b ] ~qos:Qos.default () in
    let s = Mantts.open_session stack.Adaptive.mantts ~src:a ~acd ~name:"fig6" () in
    Session.send s ~bytes:1_000_000 ();
    let wall0 = Sys.time () in
    Adaptive.run stack ~until:(Time.sec 20.0);
    let wall = Sys.time () -. wall0 in
    Mantts.close_session stack.Adaptive.mantts s;
    Adaptive.run stack ~until:(Time.sec 30.0);
    (stack, Session.id s, wall, Time.to_sec !finished)
  in
  let on, id, wall_on, finish_on = run true in
  let off, _, wall_off, finish_off = run false in
  Util.row "whitebox on : %5d samples recorded, transfer %.4f s, %.3f s wall clock@."
    (Unites.whitebox_samples on.Adaptive.unites) finish_on wall_on;
  Util.row "whitebox off: %5d samples recorded, transfer %.4f s, %.3f s wall clock@."
    (Unites.whitebox_samples off.Adaptive.unites) finish_off wall_off;
  Util.row "instrumentation cost: +%.2f%% transfer time@."
    (100.0 *. (finish_on -. finish_off) /. finish_off);
  (match Unites.stats on.Adaptive.unites ~session:id Unites.Jitter with
  | Some s ->
    Util.row "whitebox jitter metric: mean %.3f ms (degree of jitter, §4.3)@."
      (s.Stats.mean *. 1e3)
  | None -> ());
  Util.row "@.per-session report (instrumented run):@.";
  Format.printf "%a@." Unites.report on.Adaptive.unites;
  let bb_survives = Unites.aggregate off.Adaptive.unites Unites.Rtt <> None in
  Util.shape_check "blackbox metrics survive with instrumentation off" bb_survives;
  Util.shape_check "whitebox collection fully disabled when off"
    (Unites.whitebox_samples off.Adaptive.unites = 0);
  Util.shape_check "instrumentation overhead is real but small"
    (finish_on > finish_off && finish_on < 1.2 *. finish_off)
