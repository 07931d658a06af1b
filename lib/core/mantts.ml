open Adaptive_sim
open Adaptive_buf
open Adaptive_net
open Adaptive_mech

type entity = {
  e_disp : Session.Dispatcher.dispatcher;
  e_pool : Pool.t;
  mutable e_app : Session.t -> Session.delivery -> unit;
}

type rule_state = {
  rule : Acd.tsa_rule;
  mutable fired : bool;
  mutable streak : int; (* consecutive samples the condition held *)
}

(* A condition must hold for this many consecutive monitor samples before
   its action fires, and reconfigurations are spaced by a cooldown, so
   transient self-induced queueing cannot flap mechanisms. *)
let debounce_samples = 3
let reconfigure_cooldown = Time.ms 500

type monitor = {
  m_session : Session.t;
  m_acd : Acd.t;
  m_src : Network.addr;
  m_rules : rule_state list;
  m_base_rate : float option;
  m_playout_allowance : Time.t option;
  m_latency_bound : Time.t option;
      (* jitter + burst budget above the path's one-way delay, fixed at
         configuration time; the playout point is re-derived around the
         *current* one-way delay when routes change *)
  mutable m_route : string list;
  mutable m_last_change : Time.t;
  m_notify : Session.t -> string -> unit;
  m_monitored : bool;
      (* very-short-duration sessions keep a monitor record (so
         renegotiation and sync groups can find them) but are skipped by
         the shared policy tick *)
  mutable m_dead : bool;
      (* set when the session closes; the dense tick array skips dead
         entries and compacts them out lazily, so a close is O(1) and
         the tick never scans the historical population *)
}

(* MANTTS admission control (§4.1.1 "reasonable values" under pressure):
   past [soft_sessions] live sessions — or once the host's receive
   backlog exceeds [max_cpu_backlog] — new ACDs are negotiated down to a
   lighter configuration; past [hard_sessions] they are refused. *)
type admission_policy = {
  soft_sessions : int;
  hard_sessions : int;
  max_cpu_backlog : Time.t;
}

type admission = Admitted | Degraded | Refused

type t = {
  net : Pdu.t Network.t;
  t_engine : Engine.t;
  t_unites : Unites.t;
  entities : (Network.addr, entity) Hashtbl.t;
  monitors : (int, monitor) Hashtbl.t; (* keyed by session id *)
  (* The shared tick's working set: monitored monitors in insertion
     order.  Session ids are allocated monotonically, so appending keeps
     the array sorted by id — the order the tick has always used — with
     no per-tick rebuild or sort.  Closed entries are marked dead in
     place and compacted out once they outnumber the live ones. *)
  mutable mon_arr : monitor option array;
  mutable mon_len : int;
  mutable mon_dead : int;
  mutable sync_groups : int list list; (* session-id groups to keep aligned *)
  mutable adaptation_log : (Time.t * int * string) list; (* newest first *)
  mutable adaptation_count : int; (* length of [adaptation_log] *)
  (* All policy monitors share one tick timer, armed only while monitors
     exist: 10k short-lived sessions schedule no monitor events at all,
     and long-lived ones cost one engine event per interval total. *)
  mutable monitor_timer : Engine.Timer.timer option;
  (* Tick-cost telemetry: shared-tick firings and live monitors walked,
     cumulative since creation.  walked / ticks is the per-tick working
     set — the number the O(active) claim is about. *)
  mutable tick_rounds : int;
  mutable tick_walked : int;
  mutable admission : admission_policy option;
  (* Network snapshots shared across one monitor tick.  All monitors on
     a path read identical link state within a tick instant — no
     transmission can run between their callbacks — so the first monitor
     pays for the sample and the rest reuse it.  Cleared on tick entry
     AND exit, so out-of-tick callers always sample fresh state. *)
  path_cache : (int * int, Network.hop_state list) Hashtbl.t;
  rtt_cache : (int * int, Time.t option) Hashtbl.t;
  (* Synthesis memo (Stage I+II): everything derive_scs reads — path MTU,
     raw bandwidth, BER, propagation RTT, hop count — is a static link or
     route property, so repeated opens with an identical (source, ACD)
     pair derive the identical SCS until some link or route parameter
     mutates.  [dc_gen] pins the {!Topology.generation} the cache was
     filled under; any route edit or routed-link mutation invalidates
     wholesale, which keeps chaos-driven parameter changes (BER bursts,
     MTU shrinks, failures) visible to the very next open.  The value carries the
     sampled path RTT so the playout-allowance computation does not need
     to re-sample the path. *)
  derive_cache : (int * Acd.t, Scs.t * Time.t) Hashtbl.t;
  mutable dc_gen : int;
  (* builtin_rules output is a pure function of (SCS, QoS) and its rule
     records are immutable, so sessions share one list per shape; the
     per-session mutable fired/streak state lives in the wrapper records
     built at open time. *)
  rules_cache : (Scs.t * Qos.t, Acd.tsa_rule list) Hashtbl.t;
}

let memo_bound = 512

let monitor_interval = Time.ms 100

(* §4.1.1: "it is not generally useful to dynamically reconfigure sessions
   that have very low duration" — sessions declaring less than this skip
   the policy monitor entirely. *)
let min_monitored_duration = Time.sec 2.0

let create ~net ~unites () =
  {
    net;
    t_engine = Network.engine net;
    t_unites = unites;
    entities = Hashtbl.create 8;
    monitors = Hashtbl.create 64;
    mon_arr = Array.make 16 None;
    mon_len = 0;
    mon_dead = 0;
    sync_groups = [];
    adaptation_log = [];
    adaptation_count = 0;
    monitor_timer = None;
    tick_rounds = 0;
    tick_walked = 0;
    admission = None;
    path_cache = Hashtbl.create 16;
    rtt_cache = Hashtbl.create 16;
    derive_cache = Hashtbl.create 64;
    dc_gen = Topology.generation (Network.topology net);
    rules_cache = Hashtbl.create 64;
  }

let engine t = t.t_engine
let network t = t.net
let unites t = t.t_unites
let set_admission t policy = t.admission <- policy
let tick_stats t = (t.tick_rounds, t.tick_walked)

(* ------------------------------------------------------------------ *)
(* Dense monitored-set maintenance *)

let mon_append t mon =
  if t.mon_len = Array.length t.mon_arr then begin
    let next = Array.make (2 * t.mon_len) None in
    Array.blit t.mon_arr 0 next 0 t.mon_len;
    t.mon_arr <- next
  end;
  t.mon_arr.(t.mon_len) <- Some mon;
  t.mon_len <- t.mon_len + 1

let mon_mark_dead t mon =
  if not mon.m_dead then begin
    mon.m_dead <- true;
    if mon.m_monitored then t.mon_dead <- t.mon_dead + 1
  end

(* Stable in-place compaction: keeps insertion (= id) order so the tick's
   iteration order is identical to the historical sorted walk. *)
let mon_compact t =
  if t.mon_dead * 2 > t.mon_len then begin
    let w = ref 0 in
    for r = 0 to t.mon_len - 1 do
      match t.mon_arr.(r) with
      | Some mon when not mon.m_dead ->
        t.mon_arr.(!w) <- t.mon_arr.(r);
        incr w
      | Some _ | None -> ()
    done;
    for i = !w to t.mon_len - 1 do
      t.mon_arr.(i) <- None
    done;
    t.mon_len <- !w;
    t.mon_dead <- 0
  end

(* A session can be torn down without [close_session] (setup give-up,
   peer-initiated Fin); the dispatcher's close hook retires the monitor
   record the moment the endpoint leaves the live set. *)
let retire_monitor t session =
  let id = Session.id session in
  match Hashtbl.find_opt t.monitors id with
  | Some mon when mon.m_session == session ->
    mon_mark_dead t mon;
    Hashtbl.remove t.monitors id
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Admission control *)

(* Lighten a configuration without changing its correctness contract:
   reliability, ordering, duplicate handling and delivery semantics are
   preserved; window, pacing rate, receive commitment, checksum strength
   and scheduling priority are cut down. *)
let degrade_scs (scs : Scs.t) =
  let transmission =
    match scs.Scs.transmission with
    | Params.Sliding_window { window } ->
      Params.Sliding_window { window = max 2 (min window 4) }
    | Params.Rate_based { rate_bps; burst } ->
      Params.Rate_based
        { rate_bps = Float.max 64e3 (rate_bps /. 2.0); burst = min burst 2 }
    | Params.Stop_and_wait -> Params.Stop_and_wait
  in
  let congestion =
    match (scs.Scs.congestion, transmission) with
    | Params.Slow_start { initial; _ }, Params.Sliding_window { window } ->
      Params.Slow_start { initial = min initial 2; threshold = max 2 (window / 2) }
    | (c, _) -> c
  in
  {
    scs with
    Scs.transmission;
    congestion;
    detection =
      (match scs.Scs.detection with
      | Params.Crc32 -> Params.Internet_checksum
      | d -> d);
    recv_buffer_segments = max 4 (min scs.Scs.recv_buffer_segments 8);
    priority = max scs.Scs.priority 6;
  }

let admission_decision t entity =
  match t.admission with
  | None -> Admitted
  | Some pol ->
    let disp = entity.e_disp in
    let live = Session.Dispatcher.session_count disp in
    if live >= pol.hard_sessions then Refused
    else
      let backlog =
        Time.diff
          (Host.busy_until (Session.Dispatcher.host disp))
          (Engine.now t.t_engine)
      in
      if live >= pol.soft_sessions || backlog > pol.max_cpu_backlog then Degraded
      else Admitted

let count_admission t = function
  | Admitted -> ()
  | Degraded ->
    Unites.count t.t_unites ~session:Unites.swarm_session Unites.Sessions_degraded
  | Refused ->
    Unites.count t.t_unites ~session:Unites.swarm_session Unites.Sessions_refused

(* ------------------------------------------------------------------ *)
(* Entities and negotiation *)

let default_accept_scs = { Scs.default with Scs.connection = Params.Implicit }

let add_host ?host ?(buffer_segments = 4096) t ~addr =
  let host = match host with Some h -> h | None -> Host.create t.t_engine in
  let disp = Session.Dispatcher.create t.net ~addr ~host ~unites:t.t_unites in
  let entity =
    {
      e_disp = disp;
      e_pool = Pool.create ~buffers:buffer_segments ~size:2048;
      e_app = (fun _ _ -> ());
    }
  in
  (* The passive-open policy: clamp the proposal's receive buffer to the
     resources this host can still commit — the pool minus what every live
     session already holds — accept, and let the initiator adopt the
     counter-proposal from the Syn_ack blob.  Closed sessions disappear
     from the dispatcher, so their buffers return automatically
     (§4.1.3's release of allocated resources). *)
  Session.Dispatcher.set_acceptor disp (fun ~src:_ ~conn ~proposal ->
      (* The passive side applies the policy but does not count the
         decision: the initiating entity already charged this attempt to
         the swarm session, and charging both ends would double-count. *)
      match admission_decision t entity with
      | Refused -> Session.Dispatcher.Reject
      | decision ->
      let proposed =
        match (proposal, decision) with
        | Some scs, Admitted -> scs
        | Some scs, (Degraded | Refused) -> degrade_scs scs
        | None, Admitted -> default_accept_scs
        (* Under pressure the default accept is the swarm-lite template:
           the counter-proposal to a lighter configuration. *)
        | None, (Degraded | Refused) -> (
          match Tko.Templates.find Tko.Templates.swarm_lite with
          | Some (_, scs) -> scs
          | None -> degrade_scs default_accept_scs)
      in
      let committed = Session.Dispatcher.committed_recv_segments disp in
      let available = max 4 (Pool.capacity entity.e_pool - committed) in
      let final =
        if proposed.Scs.recv_buffer_segments <= available then proposed
        else { proposed with Scs.recv_buffer_segments = available }
      in
      Session.Dispatcher.Accept
        {
          scs = final;
          name = Printf.sprintf "accept-%d" conn;
          on_deliver = Some (fun session d -> entity.e_app session d);
        });
  Session.Dispatcher.set_on_close disp (fun session -> retire_monitor t session);
  Hashtbl.replace t.entities addr entity;
  entity

let entity t addr =
  match Hashtbl.find_opt t.entities addr with
  | Some e -> e
  | None -> raise Not_found

let dispatcher e = e.e_disp
let set_app_handler e f = e.e_app <- f

(* ------------------------------------------------------------------ *)
(* Stage I *)

let classify (acd : Acd.t) =
  match acd.Acd.explicit_tsc with
  | Some tsc -> tsc
  | None -> Tsc.classify acd.Acd.qos

(* ------------------------------------------------------------------ *)
(* Network sampling (the MANTTS-NMI of Figure 2) *)

type path_characteristics = {
  mtu : int;
  bottleneck_bps : float;
  worst_ber : float;
  rtt : Time.t;
  utilization : float;
  hop_count : int;
}

let sample_paths t ~src (acd : Acd.t) =
  let fold acc dst =
    let hops = Network.path_state t.net ~src ~dst in
    let rtt =
      match Network.rtt_estimate t.net ~src ~dst ~bytes:1024 with
      | Some r -> r
      | None -> Time.ms 100
    in
    List.fold_left
      (fun acc (h : Network.hop_state) ->
        {
          acc with
          mtu = min acc.mtu h.Network.hop_mtu;
          bottleneck_bps = Float.min acc.bottleneck_bps h.Network.bandwidth;
          worst_ber = Float.max acc.worst_ber h.Network.hop_ber;
          utilization = Float.max acc.utilization h.Network.utilization;
        })
      { acc with rtt = Time.max acc.rtt rtt; hop_count = max acc.hop_count (List.length hops) }
      hops
  in
  let init =
    {
      mtu = 65535;
      bottleneck_bps = infinity;
      worst_ber = 0.0;
      rtt = Time.zero;
      utilization = 0.0;
      hop_count = 0;
    }
  in
  let sampled = List.fold_left fold init acd.Acd.participants in
  if sampled.hop_count = 0 then
    { sampled with mtu = 1500; bottleneck_bps = 10e6; rtt = Time.ms 10 }
  else sampled

(* ------------------------------------------------------------------ *)
(* Stage II *)

let header_allowance = 64

let derive_scs_of_path (acd : Acd.t) tsc (path : path_characteristics) =
  let qos = acd.Acd.qos in
  let pol = Tsc.policies tsc qos in
  let segment_bytes = max 64 (path.mtu - header_allowance) in
  let bdp_segments =
    let bits = path.bottleneck_bps *. Time.to_sec path.rtt in
    max 1 (int_of_float (bits /. 8.0 /. float_of_int segment_bytes))
  in
  let multicast = List.length acd.Acd.participants > 1 in
  (* Error detection: strength follows reliability needs and channel
     quality. *)
  let detection =
    if qos.Qos.loss_tolerance <= 0.0 then
      if path.worst_ber > 1e-8 then Params.Crc32 else Params.Internet_checksum
    else Params.Internet_checksum
  in
  (* Error recovery: the §3(C) policy space. *)
  let recovery =
    if pol.Tsc.full_reliability then
      if multicast || path.rtt > Time.ms 50 || bdp_segments > 64 then
        Params.Selective_repeat
      else Params.Go_back_n
    else if path.rtt > Time.ms 150 then Params.Forward_error_correction { group = 8 }
    else if qos.Qos.loss_tolerance < 0.02 && not pol.Tsc.playout_smoothing then
      Params.Selective_repeat
    else Params.No_recovery
  in
  (* Error reporting follows recovery. *)
  let reporting =
    match recovery with
    | Params.No_recovery -> Params.No_report
    | Params.Forward_error_correction _ ->
      if pol.Tsc.playout_smoothing then Params.No_report else Params.Nack_on_gap
    | Params.Selective_repeat ->
      if multicast then Params.Nack_on_gap
      else
        Params.Selective_ack
          { delay = (if qos.Qos.interactive then Time.zero else Time.ms 2) }
    | Params.Go_back_n ->
      Params.Cumulative_ack
        { delay = (if qos.Qos.interactive then Time.zero else Time.ms 2) }
  in
  (* Transmission control. *)
  (* A pacer faster than the narrowest hop only fills queues; reconcile
     the requested rate with the sampled bottleneck. *)
  let rate_cap = 0.9 *. path.bottleneck_bps in
  let transmission =
    if pol.Tsc.rate_paced then
      Params.Rate_based
        { rate_bps = Float.min rate_cap (Float.max qos.Qos.peak_bps 64e3); burst = 4 }
    else if multicast then
      Params.Rate_based
        { rate_bps = Float.min rate_cap (Float.max qos.Qos.peak_bps 1e6); burst = 8 }
    else
      (* Headroom over the raw bandwidth-delay product: the estimate
         excludes host processing and delayed acks, which dominate the
         effective RTT on short paths. *)
      let window = min 1024 (max 8 (4 * bdp_segments)) in
      let window = if qos.Qos.interactive then min window 8 else window in
      Params.Sliding_window { window }
  in
  let congestion =
    match transmission with
    | Params.Sliding_window { window } when pol.Tsc.congestion_responsive && path.hop_count > 1
      -> Params.Slow_start { initial = 2; threshold = max 2 (window / 2) }
    | Params.Sliding_window _ | Params.Rate_based _ | Params.Stop_and_wait ->
      Params.No_congestion_control
  in
  let delivery =
    if pol.Tsc.playout_smoothing then
      (* The playout point must absorb the path's one-way delay plus a
         jitter allowance; a bound tighter than the path itself can
         deliver would discard everything as late. *)
      let one_way = path.rtt / 2 in
      let jitter_allowance =
        match qos.Qos.max_jitter with
        | Some j -> Time.max (Time.ms 10) (2 * j)
        | None -> Time.ms 40
      in
      (* Bursty media drains a peak frame through the paced bottleneck
         slower than it was produced; budget one 33 ms DCM frame at the
         peak rate being drained at the paced rate. *)
      let burst_drain =
        match transmission with
        | Params.Rate_based { rate_bps; _ } when qos.Qos.peak_bps > rate_bps ->
          Time.sec (qos.Qos.peak_bps *. 0.033 /. rate_bps)
        | Params.Rate_based _ | Params.Sliding_window _ | Params.Stop_and_wait ->
          Time.zero
      in
      let wanted = Time.add one_way (Time.add jitter_allowance burst_drain) in
      (* Conversational media must never buffer past its latency bound:
         data that old is useless, so late discard is correct.
         Distributional media prefers deeper buffering (a renegotiated,
         lower QoS) over discard. *)
      let capped =
        match qos.Qos.max_latency with
        | Some bound when qos.Qos.interactive -> Time.min wanted bound
        | Some _ | None -> wanted
      in
      Params.Playout { target = capped }
    else Params.As_available
  in
  let connection =
    if pol.Tsc.fast_setup then Params.Implicit
    else if pol.Tsc.full_reliability && not qos.Qos.isochronous then Params.Three_way
    else Params.Two_way
  in
  let recv_buffer =
    let needed =
      match transmission with
      | Params.Sliding_window { window } -> 2 * window
      | Params.Rate_based _ -> max 64 (2 * bdp_segments)
      | Params.Stop_and_wait -> 4
    in
    min 4096 (max 4 needed)
  in
  let initial_rto =
    Time.max (Time.ms 20) (Time.min (Time.sec 3.0) (4 * path.rtt))
  in
  {
    Scs.connection;
    transmission;
    congestion;
    detection;
    reporting;
    recovery;
    ordering = (if qos.Qos.ordered then Params.Ordered else Params.Unordered);
    duplicates =
      (if qos.Qos.duplicate_sensitive then Params.Drop_duplicates
       else Params.Accept_duplicates);
    delivery;
    segment_bytes;
    recv_buffer_segments = recv_buffer;
    priority = (if qos.Qos.priority || pol.Tsc.priority_scheduling then 1 else 4);
    initial_rto;
  }

let derive_scs t ~src (acd : Acd.t) tsc =
  derive_scs_of_path acd tsc (sample_paths t ~src acd)

(* Memoized Stage II for the open path: returns the derived SCS and the
   sampled path RTT.  Sound because every derive_scs input is a static
   link/route property (see [derive_cache]); the generation check makes
   any Link/Topology mutation flush the memo before it can serve stale
   shapes. *)
let derived t ~src (acd : Acd.t) tsc =
  let gen = Topology.generation (Network.topology t.net) in
  if t.dc_gen <> gen then begin
    Hashtbl.reset t.derive_cache;
    t.dc_gen <- gen
  end;
  match Hashtbl.find t.derive_cache (src, acd) with
  | hit -> hit
  | exception Not_found ->
    let path = sample_paths t ~src acd in
    let hit = (derive_scs_of_path acd tsc path, path.rtt) in
    if Hashtbl.length t.derive_cache >= memo_bound then
      Hashtbl.reset t.derive_cache;
    Hashtbl.add t.derive_cache (src, acd) hit;
    hit

(* ------------------------------------------------------------------ *)
(* Built-in adaptation policies (§3(C)) *)

let builtin_rules (scs : Scs.t) (qos : Qos.t) =
  let arq = Scs.reliable scs in
  let rules = ref [] in
  let add condition action = rules := { Acd.condition; action; once = false } :: !rules in
  (* Example 1: congestion drives go-back-n <-> selective repeat. *)
  if arq then begin
    add (Acd.Congestion_above 0.55) (Acd.Switch_recovery Params.Selective_repeat);
    if scs.Scs.recovery = Params.Go_back_n then
      add (Acd.Congestion_below 0.25) (Acd.Switch_recovery Params.Go_back_n)
  end;
  (* Example 2: long-delay routes drive retransmission -> FEC for
     loss-tolerant traffic; the original scheme is restored only when
     every reason for parity protection has cleared. *)
  if qos.Qos.loss_tolerance > 0.0 then begin
    add (Acd.Rtt_above (Time.ms 150))
      (Acd.Switch_recovery (Params.Forward_error_correction { group = 8 }));
    add
      (Acd.All_of [ Acd.Rtt_below (Time.ms 80); Acd.Congestion_below 0.30 ])
      (Acd.Switch_recovery scs.Scs.recovery)
  end;
  (* Rate-paced sessions adjust the inter-PDU gap under congestion. *)
  (match scs.Scs.transmission with
  | Params.Rate_based _ ->
    add (Acd.Congestion_above 0.70) (Acd.Scale_rate 0.75);
    add (Acd.Congestion_below 0.30) (Acd.Scale_rate 1.20)
  | Params.Sliding_window _ | Params.Stop_and_wait -> ());
  (* Loss-tolerant media cannot retransmit; protect it with dense parity
     while heavy cross traffic causes congestive loss (the long-delay rule
     above covers the high-RTT region, so keep the two disjoint). *)
  if (not arq) && qos.Qos.loss_tolerance > 0.0 then
    add
      (Acd.All_of [ Acd.Congestion_above 0.75; Acd.Rtt_below (Time.ms 150) ])
      (Acd.Switch_recovery (Params.Forward_error_correction { group = 4 }));
  List.rev !rules

(* ------------------------------------------------------------------ *)
(* Condition evaluation and action application *)

let cached_path_state t ~src ~dst =
  match Hashtbl.find_opt t.path_cache (src, dst) with
  | Some hops -> hops
  | None ->
    let hops = Network.path_state t.net ~src ~dst in
    Hashtbl.add t.path_cache (src, dst) hops;
    hops

let cached_rtt_estimate t ~src ~dst =
  match Hashtbl.find_opt t.rtt_cache (src, dst) with
  | Some r -> r
  | None ->
    let r = Network.rtt_estimate t.net ~src ~dst ~bytes:1024 in
    Hashtbl.add t.rtt_cache (src, dst) r;
    r

let clear_path_caches t =
  Hashtbl.reset t.path_cache;
  Hashtbl.reset t.rtt_cache

(* Congestion means cross traffic: a session pacing near the bottleneck's
   capacity must not read its own queueing as a reason to back off. *)
let worst_utilization t ~src session =
  List.fold_left
    (fun acc dst ->
      List.fold_left
        (fun acc (h : Network.hop_state) -> Float.max acc h.Network.cross_traffic)
        acc
        (cached_path_state t ~src ~dst))
    0.0 (Session.peers session)

let route_names t ~src session =
  List.concat_map
    (fun dst ->
      List.map
        (fun (h : Network.hop_state) -> h.Network.link_name)
        (cached_path_state t ~src ~dst))
    (Session.peers session)

(* Sessions without acknowledgment traffic have no measured RTT; fall back
   to the network monitor's estimate — base path delay plus the current
   forward queueing backlog, so congestion shows up in the delay signal
   the way a measured RTT would show it. *)
let session_rtt t mon =
  match Session.smoothed_rtt mon.m_session with
  | Some rtt -> Some rtt
  | None ->
    List.fold_left
      (fun acc dst ->
        match cached_rtt_estimate t ~src:mon.m_src ~dst with
        | Some base ->
          let queueing =
            List.fold_left
              (fun acc (h : Network.hop_state) -> Time.add acc h.Network.queue_delay)
              Time.zero
              (cached_path_state t ~src:mon.m_src ~dst)
          in
          let rtt = Time.add base queueing in
          Some (match acc with Some a -> Time.max a rtt | None -> rtt)
        | None -> acc)
      None (Session.peers mon.m_session)

let rec condition_holds t mon = function
  | Acd.Loss_rate_above bound -> Session.loss_rate_estimate mon.m_session > bound
  | Acd.Rtt_above bound -> (
    match session_rtt t mon with Some rtt -> rtt > bound | None -> false)
  | Acd.Rtt_below bound -> (
    match session_rtt t mon with Some rtt -> rtt < bound | None -> false)
  | Acd.Congestion_above bound -> worst_utilization t ~src:mon.m_src mon.m_session > bound
  | Acd.Congestion_below bound -> worst_utilization t ~src:mon.m_src mon.m_session < bound
  | Acd.Receivers_above n -> List.length (Session.peers mon.m_session) > n
  | Acd.Receivers_below n -> List.length (Session.peers mon.m_session) < n
  | Acd.Route_changed ->
    let current = route_names t ~src:mon.m_src mon.m_session in
    current <> mon.m_route
  | Acd.All_of cs -> List.for_all (condition_holds t mon) cs
  | Acd.Any_of cs -> List.exists (condition_holds t mon) cs

let log_adaptation t session text =
  t.adaptation_log <-
    (Engine.now t.t_engine, Session.id session, text) :: t.adaptation_log;
  t.adaptation_count <- t.adaptation_count + 1

let apply_action t mon on_notify action =
  let session = mon.m_session in
  let cur = Session.scs session in
  let described = Acd.action_to_string action in
  match action with
  | Acd.Notify_application msg ->
    on_notify session msg;
    log_adaptation t session ("notified application: " ^ msg);
    true
  | Acd.Switch_recovery _ | Acd.Switch_reporting _ | Acd.Switch_transmission _
  | Acd.Scale_rate _ | Acd.Adjust_playout _ -> (
  let target =
    match action with
    | Acd.Switch_recovery r ->
      if cur.Scs.recovery = r then None else Some { cur with Scs.recovery = r }
    | Acd.Switch_reporting r ->
      if cur.Scs.reporting = r then None else Some { cur with Scs.reporting = r }
    | Acd.Switch_transmission x ->
      if cur.Scs.transmission = x then None else Some { cur with Scs.transmission = x }
    | Acd.Scale_rate factor -> (
      match (cur.Scs.transmission, mon.m_base_rate) with
      | Params.Rate_based { rate_bps; burst }, Some base ->
        let next = Float.min base (Float.max (0.25 *. base) (rate_bps *. factor)) in
        if Float.abs (next -. rate_bps) < 1.0 then None
        else Some { cur with Scs.transmission = Params.Rate_based { rate_bps = next; burst } }
      | (Params.Rate_based _ | Params.Sliding_window _ | Params.Stop_and_wait), _ -> None)
    | Acd.Adjust_playout target -> (
      match cur.Scs.delivery with
      | Params.Playout { target = old } when old <> target ->
        Some { cur with Scs.delivery = Params.Playout { target } }
      | Params.Playout _ | Params.As_available -> None)
    | Acd.Notify_application _ -> None
  in
  match target with
  | None -> false
  | Some next -> (
    match Session.reconfigure session next with
    | Ok [] -> false
    | Ok _ ->
      log_adaptation t session described;
      true
    | Error e ->
      log_adaptation t session ("failed: " ^ described ^ " (" ^ e ^ ")");
      false))

(* Continuous SCS-parameter policy: keep the playout point tracking the
   path's one-way delay (plus the fixed jitter/burst allowance) so a route
   change does not turn every frame late — the "Adjust the SCS" case of
   §4.1.2. *)
let rederive_playout t mon on_notify =
  match (mon.m_playout_allowance, (Session.scs mon.m_session).Scs.delivery) with
  | Some allowance, Params.Playout { target } -> (
    match session_rtt t mon with
    | Some rtt ->
      let backlog = Session.backlog_delay mon.m_session in
      let wanted = Time.add (Time.add (rtt / 2) allowance) backlog in
      let wanted =
        match mon.m_latency_bound with
        | Some bound -> Time.min wanted bound
        | None -> wanted
      in
      let slack = Time.max (Time.ms 20) (target / 4) in
      if abs (Time.diff wanted target) > slack then
        ignore (apply_action t mon on_notify (Acd.Adjust_playout wanted))
    | None -> ())
  | (Some _ | None), _ -> ()

(* Lift every grouped member's playout point to the group maximum so
   related streams stay in step.  Groups whose members have all closed
   are dropped on the way, so long-running systems do not re-walk the
   ghosts of finished synchronization sets every tick. *)
let align_sync_groups t =
  t.sync_groups <-
    List.filter
      (fun group ->
        List.exists (fun id -> Hashtbl.mem t.monitors id) group)
      t.sync_groups;
  List.iter
    (fun group ->
      let members =
        List.filter_map (fun id -> Hashtbl.find_opt t.monitors id) group
      in
      let target_of mon =
        match (Session.scs mon.m_session).Scs.delivery with
        | Params.Playout { target } -> Some target
        | Params.As_available -> None
      in
      let slowest =
        List.fold_left
          (fun acc mon ->
            match target_of mon with Some v -> Time.max acc v | None -> acc)
          Time.zero members
      in
      if slowest > Time.zero then
        List.iter
          (fun mon ->
            match target_of mon with
            | Some current when current < slowest ->
              let session = mon.m_session in
              let cur = Session.scs session in
              (match
                 Session.reconfigure session
                   { cur with Scs.delivery = Params.Playout { target = slowest } }
               with
              | Ok (_ :: _) ->
                log_adaptation t session
                  (Printf.sprintf "synchronized playout to %s"
                     (Time.to_string slowest))
              | Ok [] | Error _ -> ())
            | Some _ | None -> ())
          members)
    t.sync_groups

let monitor_tick t mon on_notify () =
  if Session.state mon.m_session = Session.Closed then ()
  else begin
    let now = Engine.now t.t_engine in
    let cooled = Time.diff now mon.m_last_change >= reconfigure_cooldown in
    if cooled then begin
      rederive_playout t mon on_notify;
      align_sync_groups t
    end;
    List.iter
      (fun rs ->
        if not rs.fired then
          if condition_holds t mon rs.rule.Acd.condition then begin
            rs.streak <- rs.streak + 1;
            (* Notifications are edge-triggered: once per episode of the
               condition holding.  Reconfigurations are level-triggered
               (idempotent through segue) so parameter adjustments like
               rate scaling can iterate. *)
            let notify =
              match rs.rule.Acd.action with
              | Acd.Notify_application _ -> true
              | Acd.Switch_recovery _ | Acd.Switch_reporting _
              | Acd.Switch_transmission _ | Acd.Scale_rate _ | Acd.Adjust_playout _ ->
                false
            in
            let eligible =
              if notify then rs.streak = debounce_samples
              else rs.streak >= debounce_samples && cooled
            in
            if eligible then begin
              let applied = apply_action t mon on_notify rs.rule.Acd.action in
              if applied && not notify then begin
                mon.m_last_change <- now;
                rs.streak <- 0
              end;
              if applied && rs.rule.Acd.once then rs.fired <- true
            end
          end
          else rs.streak <- 0)
      mon.m_rules;
    (* Refresh the route snapshot after evaluating Route_changed rules. *)
    mon.m_route <- route_names t ~src:mon.m_src mon.m_session
  end

(* One shared tick walks every live monitor (session-id order, so runs
   are deterministic), so the engine carries a single recurring event
   regardless of session count.  The timer is re-armed only while
   monitored sessions remain. *)
let rec arm_monitor_timer t =
  if not (Engine.Timer.pending t.monitor_timer) then
    t.monitor_timer <-
      Engine.Timer.restart t.t_engine t.monitor_timer ~delay:monitor_interval
        shared_monitor_tick t

and shared_monitor_tick t =
  t.tick_rounds <- t.tick_rounds + 1;
  clear_path_caches t;
  mon_compact t;
  (* Walk the dense monitored set in insertion (= session id) order; dead
     entries cost one flag test.  Closing retired the monitor through the
     dispatcher hook already — the state check is a backstop for any
     teardown path that bypassed it. *)
  for i = 0 to t.mon_len - 1 do
    match t.mon_arr.(i) with
    | Some mon when not mon.m_dead ->
      t.tick_walked <- t.tick_walked + 1;
      if Session.state mon.m_session = Session.Closed then retire_monitor t mon.m_session
      else monitor_tick t mon mon.m_notify ()
    | Some _ | None -> ()
  done;
  clear_path_caches t;
  if t.mon_len > t.mon_dead then arm_monitor_timer t

(* ------------------------------------------------------------------ *)
(* Session lifecycle *)

let try_open_session ?name ?on_deliver ?on_notify ?scs_transform t ~src ~acd () =
  let e = entity t src in
  let decision = admission_decision t e in
  count_admission t decision;
  match decision with
  | Refused ->
    Error
      (Printf.sprintf
         "admission refused: %d live sessions at host %d exceed the hard limit"
         (Session.Dispatcher.session_count e.e_disp)
         src)
  | (Admitted | Degraded) as decision ->
  let tsc = classify acd in
  let scs, path_rtt = derived t ~src acd tsc in
  let scs = if decision = Degraded then degrade_scs scs else scs in
  (* Experiment hook: pin population-wide configuration choices (the
     static-baseline arms of the steering experiments) after derivation
     and degradation but before synthesis. *)
  let scs = match scs_transform with Some f -> f scs | None -> scs in
  let monitored =
    match acd.Acd.qos.Qos.duration with
    | Some d -> d >= min_monitored_duration
    | None -> true
  in
  (* Stage III: consult the template cache for a pre-assembled match. *)
  let binding =
    match Tko.Templates.lookup_scs scs with
    | Some (binding, _) -> Some binding
    | None -> Some Tko.Synthesized
  in
  let session =
    Session.connect ?name ?binding ?on_deliver e.e_disp ~peers:acd.Acd.participants
      ~scs ()
  in
  (* Honor the descriptor's Transport Measurement Component. *)
  (
  Unites.restrict_session t.t_unites ~id:(Session.id session) acd.Acd.tmc.Acd.collect);
  let on_notify = match on_notify with Some f -> f | None -> fun _ _ -> () in
  let rules =
    let base =
      match Hashtbl.find t.rules_cache (scs, acd.Acd.qos) with
      | rs -> rs
      | exception Not_found ->
        let rs = builtin_rules scs acd.Acd.qos in
        if Hashtbl.length t.rules_cache >= memo_bound then
          Hashtbl.reset t.rules_cache;
        Hashtbl.add t.rules_cache (scs, acd.Acd.qos) rs;
        rs
    in
    List.map (fun rule -> { rule; fired = false; streak = 0 }) (acd.Acd.tsa @ base)
  in
  let base_rate =
    match scs.Scs.transmission with
    | Params.Rate_based { rate_bps; _ } -> Some rate_bps
    | Params.Sliding_window _ | Params.Stop_and_wait -> None
  in
  let playout_allowance =
    match scs.Scs.delivery with
    | Params.Playout { target } ->
      Some (Time.max (Time.ms 10) (Time.diff target (path_rtt / 2)))
    | Params.As_available -> None
  in
  let mon =
    {
      m_session = session;
      m_acd = acd;
      m_src = src;
      m_rules = rules;
      m_base_rate = base_rate;
      m_playout_allowance = playout_allowance;
      m_latency_bound =
        (if acd.Acd.qos.Qos.interactive then acd.Acd.qos.Qos.max_latency else None);
      m_route = [];
      m_last_change = Time.zero;
      m_notify = on_notify;
      m_monitored = monitored;
      m_dead = false;
    }
  in
  (
  mon.m_route <- route_names t ~src session);
  Hashtbl.replace t.monitors (Session.id session) mon;
  if monitored then begin
    mon_append t mon;
    arm_monitor_timer t
  end;
  Ok (session, decision)

let open_session ?name ?on_deliver ?on_notify ?scs_transform t ~src ~acd () =
  match try_open_session ?name ?on_deliver ?on_notify ?scs_transform t ~src ~acd () with
  | Ok (session, _) -> session
  | Error reason -> failwith ("Mantts.open_session: " ^ reason)

let close_session ?graceful t session =
  retire_monitor t session;
  Session.close ?graceful session

let renegotiate ?acd t session =
  match Hashtbl.find_opt t.monitors (Session.id session) with
  | None -> Error "session has no MANTTS monitor (not opened via open_session?)"
  | Some mon ->
    let acd = match acd with Some a -> a | None -> mon.m_acd in
    let tsc = classify acd in
    let next = derive_scs t ~src:mon.m_src acd tsc in
    (* Keep the connection-management choice already in force: handshakes
       cannot be retroactively changed. *)
    let next = { next with Scs.connection = (Session.scs session).Scs.connection } in
    (match Session.reconfigure session next with
    | Ok [] -> Ok []
    | Ok changed ->
      log_adaptation t session
        (Printf.sprintf "renegotiated to %s (%s)" (Tsc.name tsc)
           (String.concat ", " changed));
      Ok changed
    | Error e -> Error e)

let synchronize t sessions =
  let ids = List.map Session.id sessions in
  t.sync_groups <- ids :: t.sync_groups;
  align_sync_groups t

let adaptations t = List.rev t.adaptation_log

(* The [count - seen] newest entries are the head of the newest-first
   log; reversing just that prefix yields them oldest first. *)
let adaptations_since t seen =
  let rec take n log acc =
    match log with
    | entry :: older when n > 0 -> take (n - 1) older (entry :: acc)
    | _ -> acc
  in
  take (t.adaptation_count - seen) t.adaptation_log []

(* External steering engines share the per-session anti-flapping clock
   with the built-in monitor: both read and advance [m_last_change], so
   the combined switch stream respects one cooldown. *)
let last_reconfigured t session =
  match Hashtbl.find_opt t.monitors (Session.id session) with
  | None -> None
  | Some mon -> Some mon.m_last_change

let note_switch t session text =
  (match Hashtbl.find_opt t.monitors (Session.id session) with
  | Some mon -> mon.m_last_change <- Engine.now t.t_engine
  | None -> ());
  log_adaptation t session text
