open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_chaos
open Adaptive_fleet

type config = {
  sessions : int;
  partitions : int;
  shards : int;
  churn_rounds : int;
  seed : int;
  payload_bytes : int;
  open_window : Time.t;
  admission : Mantts.admission_policy option;
  monitored_share : int;
  cross_share : int;
  wan_latency : Time.t;
  wan_spread : Time.t;
  session_cap : int option;
  wire : bool;
  estimator : Stats.estimator;
  steer : Steer.policy option;
  chaos : Fault.schedule option;
  check_invariants : bool;
  scs_transform : (Scs.t -> Scs.t) option;
  link_bps : float;
  link_mtu : int;
  link_queue_pkts : int;
  host_speed : float;
}

let default_config ~sessions ~seed =
  {
    sessions;
    partitions = 1;
    shards = 1;
    churn_rounds = 2;
    seed;
    payload_bytes = 2000;
    open_window = Time.sec 1.0;
    admission = None;
    monitored_share = 10;
    cross_share = 16;
    wan_latency = Time.ms 5;
    wan_spread = Time.zero;
    session_cap = None;
    wire = false;
    (* Reservoir is the golden default; the goldens pin its quantiles.
       Large partitioned runs switch to [Stats.P2] for flat metric memory. *)
    estimator = Stats.Reservoir;
    steer = None;
    chaos = None;
    check_invariants = false;
    scs_transform = None;
    link_bps = 1e9;
    link_mtu = 65535;
    link_queue_pkts = 4096;
    host_speed = 1.0;
  }

(* Cross-partition sessions need a partner partition and a non-zero share. *)
let cross_traffic cfg = cfg.partitions > 1 && cfg.cross_share > 0

let validate cfg =
  let positive t = Time.compare t Time.zero > 0 in
  let checks =
    [
      (cfg.sessions > 0, "sessions must be positive");
      (cfg.partitions >= 1, "partitions must be >= 1");
      (cfg.shards >= 1, "shards must be >= 1");
      (cfg.churn_rounds >= 0, "churn_rounds must be >= 0");
      (cfg.payload_bytes > 0, "payload_bytes must be positive");
      (Time.compare cfg.open_window Time.zero >= 0, "open_window must be >= 0");
      (cfg.monitored_share >= 0, "monitored_share must be >= 0");
      (cfg.cross_share >= 0, "cross_share must be >= 0");
      ( positive cfg.wan_latency,
        "wan_latency must be positive: it is the conservative lookahead" );
      (Time.compare cfg.wan_spread Time.zero >= 0, "wan_spread must be >= 0");
      ( (match cfg.session_cap with Some cap -> cap > 0 | None -> true),
        "session_cap must be positive" );
      ( (match cfg.admission with
        | Some p ->
          0 <= p.Mantts.soft_sessions
          && p.Mantts.soft_sessions <= p.Mantts.hard_sessions
          && Time.compare p.Mantts.max_cpu_backlog Time.zero >= 0
        | None -> true),
        "admission policy needs 0 <= soft_sessions <= hard_sessions and \
         max_cpu_backlog >= 0" );
      (cfg.link_bps > 0.0, "link_bps must be positive");
      (cfg.link_mtu > 0, "link_mtu must be positive");
      (cfg.link_queue_pkts > 0, "link_queue_pkts must be positive");
      (cfg.host_speed > 0.0, "host_speed must be positive");
      ( not (cfg.wire && cross_traffic cfg),
        "wire-true mode cannot carry cross-partition sessions (a frame lease \
         cannot cross a partition boundary): set cross_share = 0 or \
         partitions = 1" );
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error msg
  | None -> Ok cfg

(* Deterministic per-pair one-way WAN latency: the base plus a spread
   term that depends only on the ordered (src, dst) pair, so SHARD's
   per-pair lookahead matrix and the stamped arrival times agree by
   construction at every shard count.  [wan_spread = zero] collapses to
   the uniform-latency WAN. *)
let pair_latency cfg ~src ~dst =
  if cfg.wan_spread = Time.zero then cfg.wan_latency
  else Time.add cfg.wan_latency (((31 * src) + (17 * dst)) mod (cfg.wan_spread + 1))

type outcome = {
  offered : int;
  admitted : int;
  degraded : int;
  refused : int;
  closed : int;
  cross_opened : int;
  delivered_msgs : int;
  delivered_bytes : int;
  goodput_bytes : int;
  wan_exchanged : int;
  peak_live : int;
  events_fired : int;
  sim_time : Time.t;
  digest : int64;
  partition_digests : int64 list;
  demux_probes_mean : float;
  demux_probes_p99 : float;
  occupancy_p99 : float;
  table_capacity : int;
  timewait_drops : int;
  monitor_ticks : int;
  monitor_walked : int;
  tw_sweeps : int;
  tw_expired : int;
  sync_windows : int;
  sync_skipped : int;
  stage_minor_words : (string * float) list;
  wire_report : Session.Wire.report option;
  steer_stats : (int * int) option;
  faults_injected : int;
  violations : Invariant.violation list;
  unites : Unites.t list;
}

(* Cross-partition PDUs travel the WAN as plain values: the frame, its
   size, and the addresses as the {e receiver} must see them.  Virtual
   addresses above [wan_base] name (partition, role) pairs; they are
   routeless in every local topology, so the dispatcher's replies to a
   remote peer leave through the same remote hook that delivered it. *)
let wan_base = 0x10000

(* Virtual address of (partition, role): role 0 = client, 1 = server. *)
let virtual_addr ~partition ~role = wan_base + (partition * 2) + role

type wan_msg = {
  w_src : Network.addr;  (* virtual (partition, role) of the sender *)
  w_dst : Network.addr;  (* real address in the destination partition *)
  w_bytes : int;
  w_sent : Time.t;
  w_pdu : Pdu.t;
}

(* Goodput contract of one open connection.  Both endpoints share the
   wire connection id, so the client side records what the session
   promised its application and the server side counts what arrived. *)
type contract = { requested : int; tolerant : bool; mutable got : int }

type partition = {
  index : int;
  stack : Adaptive.stack;
  client : Network.addr;
  server : Network.addr;
  trace : Trace.t;
  wire_handle : Session.Wire.handle option;
  steer : Steer.t option;  (* partition-local: never crosses a barrier *)
  checker : Invariant.t option;
  injector : Fault.injector option;
  (* Connections whose contract is still open.  A settled contract
     leaves the table, so it holds the live and the never-completed
     connections, not every connection the run opened. *)
  contracts : (int, contract) Hashtbl.t;
  mutable outbox : (Time.t * int * wan_msg) list;  (* newest first *)
  mutable offered : int;
  mutable admitted : int;
  mutable degraded : int;
  mutable refused : int;
  mutable cross : int;
  mutable delivered_msgs : int;
  mutable delivered_bytes : int;
  mutable goodput : int;
  mutable peak_live : int;
}

(* A modern host CPU: the 1992 defaults (100 us/packet) would serialize
   10k sessions' traffic into minutes of simulated backlog and measure the
   host model, not the dispatcher.  [speed] scales it further: the two
   endpoints stand for a whole population of hosts, so benches that scale
   the link with the session count scale the CPU the same way — at
   2 us/packet a fixed host saturates near 140k pkts/s and quietly
   becomes the experiment.  The speed knob lives in [Host] itself so it
   also divides the per-byte checksum work the session layer charges —
   pre-scaling only the constructor costs here would leave that charge
   as an unscaled floor (~18 us per full-size checksummed frame, a
   ~55k pkts/s ceiling no matter how fast the host claims to be). *)
let fast_host ~speed engine =
  Host.create ~per_packet:(Time.us 2) ~per_byte_copy:(Time.ns 1) ~copies:1 ~speed
    engine

(* Short-declared sessions (the bulk) skip the MANTTS policy monitor;
   every [monitored_share]-th is long-declared and keeps one. *)
let short_duration = Time.ms 600
let long_duration = Time.minutes 2

let cross_scs = { Scs.default with Scs.connection = Params.Implicit }

(* Loss-tolerant classes use whatever arrived (capped at the request); a
   fully-reliable transfer counts only once all of it arrived — a file
   with holes is not partial goodput, it is waste. *)
let credit p conn bytes =
  match Hashtbl.find p.contracts conn with
  | c ->
    c.got <- c.got + bytes;
    if c.got >= c.requested then begin
      p.goodput <- p.goodput + c.requested;
      Hashtbl.remove p.contracts conn
    end
  | exception Not_found -> ()

let unsettled_goodput p =
  Hashtbl.fold
    (fun _ c acc -> if c.tolerant then acc + c.got else acc)
    p.contracts 0

let build_partition cfg ~index ~seed =
  let stack =
    Adaptive.create_stack ~seed ~metric_reservoir:64
      ~metric_estimator:cfg.estimator ()
  in
  let engine = stack.Adaptive.engine in
  let unites = stack.Adaptive.unites in
  let mantts = Adaptive.mantts stack in
  (* Stripe connection ids by partition so a cross-partition session can
     never collide with a local one in the remote connection table — and
     so the id space is identical however many shards execute. *)
  Network.set_conn_stripe stack.Adaptive.net ~stride:cfg.partitions ~offset:index;
  let wire_handle =
    if cfg.wire then Some (Session.Wire.install stack.Adaptive.net) else None
  in
  Mantts.set_admission mantts cfg.admission;
  let client_cpu = fast_host ~speed:cfg.host_speed engine
  and server_cpu = fast_host ~speed:cfg.host_speed engine in
  let client = Adaptive.add_host ~host_cpu:client_cpu stack "swarm-client" in
  let server = Adaptive.add_host ~host_cpu:server_cpu stack "swarm-server" in
  let lan =
    Profiles.custom ~name:"swarm-lan" ~bandwidth_bps:cfg.link_bps
      ~propagation:(Time.us 50) ~queue_pkts:cfg.link_queue_pkts
      ~mtu:cfg.link_mtu ()
  in
  Adaptive.connect_hosts stack client server [ lan ];
  let trace = Trace.create ~log_capacity:256 () in
  Unites.attach_trace unites trace;
  (* Memory bound for huge runs: cap the per-session metric population
     so the UNITES tables — and the rendered report — stay O(cap).
     Overflowed sessions fold into one shared bucket; totals are
     preserved, and UNITES routing never reaches the trace digest. *)
  Option.iter (Unites.set_session_cap unites) cfg.session_cap;
  let client_disp = Mantts.dispatcher (Mantts.entity mantts client) in
  let server_disp = Mantts.dispatcher (Mantts.entity mantts server) in
  let steer = Option.map (fun policy -> Steer.create ~policy mantts) cfg.steer in
  let checker =
    if cfg.check_invariants then
      (* No [?trace]: the checker's per-delivery events would swamp the
         digest; violations surface through [violations] instead. *)
      Some (Invariant.create ~engine ~unites ~mantts ())
    else None
  in
  let injector =
    Option.map
      (fun schedule ->
        Fault.install ~engine ~trace ~unites
          { Fault.links = [ lan ]; tail_links = [];
            hosts = [ client_cpu; server_cpu ]; routing = None }
          schedule)
      cfg.chaos
  in
  (match (checker, injector) with
  | Some c, Some inj -> Invariant.set_injector c inj
  | (Some _ | None), _ -> ());
  Option.iter
    (fun c ->
      Invariant.attach_dispatcher c client_disp;
      Invariant.attach_dispatcher c server_disp;
      Invariant.start c)
    checker;
  let p =
    {
      index;
      stack;
      client;
      server;
      trace;
      wire_handle;
      steer;
      checker;
      injector;
      contracts = Hashtbl.create 1024;
      outbox = [];
      offered = 0;
      admitted = 0;
      degraded = 0;
      refused = 0;
      cross = 0;
      delivered_msgs = 0;
      delivered_bytes = 0;
      goodput = 0;
      peak_live = 0;
    }
  in
  Mantts.set_app_handler (Mantts.entity mantts server) (fun session d ->
      let conn = Session.id session and bytes = d.Session.bytes in
      p.delivered_msgs <- p.delivered_msgs + 1;
      p.delivered_bytes <- p.delivered_bytes + bytes;
      credit p conn bytes;
      (* Same bytes as [Printf.sprintf "%d:%d"] without the format
         interpreter: this string is folded into the trace digest per
         delivered message. *)
      Trace.event trace ~at:d.Session.delivered_at ~category:"deliver"
        ~detail:(string_of_int conn ^ ":" ^ string_of_int bytes));
  p

(* Install partition [p]'s remote hook: map the unrouted virtual
   destination to (partition, real address), the real source to its
   virtual name, stamp the WAN arrival, and queue for the next barrier. *)
let install_wan cfg parts p =
  let engine = p.stack.Adaptive.engine in
  Network.set_remote p.stack.Adaptive.net (fun ~src ~dst ~bytes pdu ->
      if dst >= wan_base && dst < wan_base + (cfg.partitions * 2) then begin
        let target = (dst - wan_base) / 2 in
        let dest = parts.(target) in
        let real_dst =
          if (dst - wan_base) mod 2 = 1 then dest.server else dest.client
        in
        let src_role = if src = p.server then 1 else 0 in
        let now = Engine.now engine in
        (* SHARD's first window is the only one that also executes its
           own start instant, so a PDU sent at t = 0 would land exactly
           on a minimum-latency destination's horizon; every later send
           is strictly after its window's start.  Stamp t = 0 sends as if
           sent 1 ns late so every arrival clears the lookahead. *)
        let sent = Time.max now (Time.ns 1) in
        p.outbox <-
          ( Time.add sent (pair_latency cfg ~src:p.index ~dst:target),
            target,
            {
              w_src = virtual_addr ~partition:p.index ~role:src_role;
              w_dst = real_dst;
              w_bytes = bytes;
              w_sent = now;
              w_pdu = pdu;
            } )
          :: p.outbox
      end)

(* Partition [p] owns the global slots p, p+P, p+2P, …: global slot
   [g = slot * P + p] opens at [g * open_window / sessions] and draws
   from the stream [g * 131 + round] of one seed-wide generator, so
   offered load and every per-session draw are the same ones a single
   partition would make for that slot. *)
let schedule_opens cfg p =
  let engine = p.stack.Adaptive.engine in
  let mantts = Adaptive.mantts p.stack in
  let client_disp = Mantts.dispatcher (Mantts.entity mantts p.client) in
  let base_rng = Rng.create (cfg.seed lxor 0x53574152 (* "SWAR" *)) in
  let apps = Array.of_list Workloads.all in
  let napps = Array.length apps in
  (* One ACD per (application, monitored) shape, shared across every open:
     descriptors are immutable and MANTTS only reads them, and handing the
     same physical value back makes the MANTTS synthesis memo's structural
     key comparison short-circuit on pointer equality. *)
  let acd_cache = Array.make (2 * napps) None in
  let acd_for g =
    let app_ix = g mod napps in
    let monitored = cfg.monitored_share > 0 && g mod cfg.monitored_share = 0 in
    let key = (2 * app_ix) + Bool.to_int monitored in
    match acd_cache.(key) with
    | Some acd -> acd
    | None ->
      let qos =
        {
          (Workloads.qos apps.(app_ix)) with
          Qos.duration = Some (if monitored then long_duration else short_duration);
        }
      in
      (* Keep per-session whitebox collection to setup latency only: at
         ten thousand sessions, unrestricted per-session instrumentation
         would dominate memory, and the swarm pseudo-session already
         captures the system-level picture. *)
      let acd =
        Acd.make
          ~tmc:{ Acd.collect = [ Unites.Setup_latency ]; sample_every = Time.sec 1.0 }
          ~participants:[ p.server ] ~qos ()
      in
      acd_cache.(key) <- Some acd;
      acd
  in
  let trace category detail =
    Trace.event p.trace ~at:(Engine.now engine) ~category ~detail
  in
  (* Every [cross_share]-th local slot also opens one session to the next
     partition's server (ring order) on its first round. *)
  let open_cross g =
    p.cross <- p.cross + 1;
    let peer = virtual_addr ~partition:((p.index + 1) mod cfg.partitions) ~role:1 in
    let session =
      Session.connect ~name:("xsw-" ^ string_of_int g) client_disp ~peers:[ peer ]
        ~scs:cross_scs ()
    in
    trace "xopen" (string_of_int (Session.id session));
    Session.send session ~bytes:(max 64 (cfg.payload_bytes / 2)) ();
    Engine.schedule_anon engine
      ~at:(Time.add (Engine.now engine) short_duration)
      (fun () ->
        trace "xclose" (string_of_int (Session.id session));
        Session.close session)
  in
  let rec attempt g round ~at =
    Engine.schedule_anon engine ~at (fun () -> open_now g round)
  and open_now g round =
    p.offered <- p.offered + 1;
    let rng = Rng.split_ix base_rng ((g * 131) + round) in
    let name = "sw-" ^ string_of_int g ^ "-" ^ string_of_int round in
    let acd = acd_for g in
    let tolerant = acd.Acd.qos.Qos.loss_tolerance > 0.0 in
    let lifetime = Time.ms (300 + Rng.int rng 500) in
    (match
       Mantts.try_open_session ~name ?scs_transform:cfg.scs_transform mantts
         ~src:p.client ~acd ()
     with
    | Error _ ->
      p.refused <- p.refused + 1;
      trace "refuse" (string_of_int g);
      (* Offered load keeps pressing: retry the slot's next round. *)
      if round < cfg.churn_rounds then
        attempt g (round + 1) ~at:(Time.add (Engine.now engine) (Time.ms 200))
    | Ok (session, decision) ->
      let id = Session.id session in
      p.admitted <- p.admitted + 1;
      if decision = Mantts.Degraded then begin
        p.degraded <- p.degraded + 1;
        trace "degrade" (string_of_int id)
      end;
      trace "open" (string_of_int id);
      Option.iter (fun st -> Steer.watch st session ~loss_tolerant:tolerant) p.steer;
      let live = Session.Dispatcher.session_count client_disp in
      if live > p.peak_live then p.peak_live <- live;
      let bytes = max 64 ((cfg.payload_bytes / 2) + Rng.int rng cfg.payload_bytes) in
      Hashtbl.replace p.contracts id { requested = bytes; tolerant; got = 0 };
      Session.send session ~bytes ();
      Engine.schedule_anon engine
        ~at:(Time.add (Engine.now engine) lifetime)
        (fun () ->
          trace "close" (string_of_int id);
          Mantts.close_session mantts session;
          if round < cfg.churn_rounds then
            attempt g (round + 1) ~at:(Time.add (Engine.now engine) (Time.ms 100))));
    if cross_traffic cfg && g / cfg.partitions mod cfg.cross_share = 0 && round = 0 then
      open_cross g
  in
  let g = ref p.index in
  while !g < cfg.sessions do
    attempt !g 0 ~at:(!g * cfg.open_window / cfg.sessions);
    g := !g + cfg.partitions
  done

let run cfg =
  let cfg =
    match validate cfg with Ok c -> c | Error msg -> invalid_arg ("Churn.run: " ^ msg)
  in
  (* Partition 0 runs on the master seed itself, so one partition is
     exactly the single-stack run of the same seed. *)
  let seeds = Array.of_list (Fleet.seeds_of ~master:cfg.seed ~n:cfg.partitions) in
  seeds.(0) <- cfg.seed;
  (* Stage allocation accounting: minor words on the coordinating domain
     per phase.  Authoritative at shards = 1 (OCaml 5 GC counters are
     per-domain); at shards > 1 the sim stage misses worker-domain
     allocation and is a lower bound.  The split keeps the hot-path
     figure (sim) separate from one-time setup and the reduction. *)
  let w0 = Gc.minor_words () in
  let parts =
    Array.init cfg.partitions (fun index ->
        build_partition cfg ~index ~seed:seeds.(index))
  in
  if cross_traffic cfg then Array.iter (install_wan cfg parts) parts;
  let w_build = Gc.minor_words () in
  Array.iter (schedule_opens cfg) parts;
  let w_sched = Gc.minor_words () in
  (* Generous ceiling; the run quiesces long before it in practice. *)
  let horizon =
    Time.add cfg.open_window (Time.sec (3.0 *. float_of_int (cfg.churn_rounds + 1)))
  in
  let engine i = parts.(i).stack.Adaptive.engine in
  let shard =
    Shard.create
      ~pair_lookahead:(pair_latency cfg)
      ~next_deadline:(fun i -> Engine.next_deadline (engine i))
      ~lookahead:cfg.wan_latency ~partitions:cfg.partitions
      ~run_to:(fun i until -> Engine.run ~until (engine i))
      ~drain:(fun i ->
        let msgs = List.rev parts.(i).outbox in
        parts.(i).outbox <- [];
        List.map
          (fun (at, dst, m) -> { Shard.out_at = at; out_dst = dst; out_payload = m })
          msgs)
      ~inject:(fun i ~at ~src:_ m ->
        let net = parts.(i).stack.Adaptive.net in
        Engine.schedule_anon (engine i) ~at (fun () ->
            Network.deliver_remote net ~src:m.w_src ~dst:m.w_dst ~bytes:m.w_bytes
              ~sent_at:m.w_sent m.w_pdu))
      ()
  in
  let wan_exchanged = Shard.run shard ~shards:cfg.shards ~until:horizon in
  (* A quiescent barrier jumps straight to the horizon without running
     the engines there; bring every clock to the common end time. *)
  Array.iter
    (fun p ->
      Engine.run ~until:horizon p.stack.Adaptive.engine;
      Option.iter Invariant.finish p.checker)
    parts;
  let sync = Shard.last_stats shard in
  let w_sim = Gc.minor_words () in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 parts in
  let worst f = Array.fold_left (fun acc p -> Float.max acc (f p)) 0.0 parts in
  let swarm_stats m p =
    Option.value
      ~default:(Stats.summarize (Stats.create ~reservoir:8 ()))
      (Unites.stats p.stack.Adaptive.unites ~session:Unites.swarm_session m)
  in
  let dispatchers p =
    let mantts = Adaptive.mantts p.stack in
    List.map
      (fun a -> Mantts.dispatcher (Mantts.entity mantts a))
      [ p.client; p.server ]
  in
  let tw_sum pick p =
    List.fold_left
      (fun acc d -> acc + pick (Session.Dispatcher.tw_sweep_stats d))
      0 (dispatchers p)
  in
  let tick pick p = pick (Mantts.tick_stats (Adaptive.mantts p.stack)) in
  let wire_handles =
    List.filter_map
      (fun p -> Option.map (fun h -> (h, p.stack.Adaptive.unites)) p.wire_handle)
      (Array.to_list parts)
  in
  List.iter (fun (h, unites) -> Session.Wire.observe h unites) wire_handles;
  let wire_report =
    match List.map (fun (h, _) -> Session.Wire.report h) wire_handles with
    | [] -> None
    | r :: rest ->
      Some
        (List.fold_left
           (fun (a : Session.Wire.report) (b : Session.Wire.report) ->
             {
               Session.Wire.encodes = a.encodes + b.encodes;
               decodes = a.decodes + b.decodes;
               rejects = a.rejects + b.rejects;
               fused_sums = a.fused_sums + b.fused_sums;
               pool_reuse_rate = Float.min a.pool_reuse_rate b.pool_reuse_rate;
             })
           r rest)
  in
  let steer_count f p = match p.steer with Some st -> f st | None -> 0 in
  let digests = Array.to_list (Array.map (fun p -> Trace.hash p.trace) parts) in
  let outcome =
    {
      offered = sum (fun p -> p.offered);
      admitted = sum (fun p -> p.admitted);
      degraded = sum (fun p -> p.degraded);
      refused = sum (fun p -> p.refused);
      closed = sum (fun p -> Trace.counter p.trace "close");
      cross_opened = sum (fun p -> p.cross);
      delivered_msgs = sum (fun p -> p.delivered_msgs);
      delivered_bytes = sum (fun p -> p.delivered_bytes);
      goodput_bytes = sum (fun p -> p.goodput + unsettled_goodput p);
      wan_exchanged;
      peak_live = Array.fold_left (fun acc p -> max acc p.peak_live) 0 parts;
      events_fired = sum (fun p -> Engine.events_fired p.stack.Adaptive.engine);
      sim_time = horizon;
      (* One partition's digest is its own trace hash, so a one-partition
         run carries the single-stack digest. *)
      digest = (match digests with [ d ] -> d | ds -> Fleet.combine_hashes ds);
      partition_digests = digests;
      demux_probes_mean =
        worst (fun p -> (swarm_stats Unites.Demux_probes p).Stats.mean);
      demux_probes_p99 =
        worst (fun p -> (swarm_stats Unites.Demux_probes p).Stats.p99);
      occupancy_p99 =
        worst (fun p -> (swarm_stats Unites.Table_occupancy p).Stats.p99);
      table_capacity =
        Array.fold_left
          (fun acc p ->
            max acc (Session.Dispatcher.table_capacity (List.hd (dispatchers p))))
          0 parts;
      timewait_drops =
        sum (fun p ->
            int_of_float
              (Unites.total p.stack.Adaptive.unites ~session:Unites.swarm_session
                 Unites.Timewait_drops));
      monitor_ticks = sum (tick fst);
      monitor_walked = sum (tick snd);
      tw_sweeps = sum (tw_sum fst);
      tw_expired = sum (tw_sum snd);
      sync_windows = sync.Shard.windows;
      sync_skipped = sync.Shard.skipped_spans;
      stage_minor_words = [];
      wire_report;
      steer_stats =
        Option.map
          (fun _ ->
            (sum (steer_count Steer.swap_count), sum (steer_count Steer.blocked_count)))
          cfg.steer;
      faults_injected =
        sum (fun p -> match p.injector with Some i -> Fault.injected i | None -> 0);
      violations =
        List.concat_map
          (fun p -> match p.checker with Some c -> Invariant.violations c | None -> [])
          (Array.to_list parts);
      unites = Array.to_list (Array.map (fun p -> p.stack.Adaptive.unites) parts);
    }
  in
  {
    outcome with
    stage_minor_words =
      [
        ("build", w_build -. w0);
        ("schedule", w_sched -. w_build);
        ("sim", w_sim -. w_sched);
        ("reduce", Gc.minor_words () -. w_sim);
      ];
  }

let unites_reports (o : outcome) =
  List.mapi (fun i u -> Format.asprintf "partition %d@.%a" i Unites.report u) o.unites

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt
    "@[<v>churn: offered=%d admitted=%d degraded=%d refused=%d closed=%d \
     cross=%d@,\
     delivered: %d msgs, %d bytes; peak live=%d; table capacity=%d@,\
     demux probes: mean=%.3f p99=%.0f; occupancy p99=%.3f; timewait drops=%d@,\
     monitor ticks=%d walked=%d; tw sweeps=%d expired=%d@,\
     partitions=%d wan msgs=%d; sync windows=%d skipped=%d@,\
     events=%d sim_time=%a digest=0x%Lx"
    o.offered o.admitted o.degraded o.refused o.closed o.cross_opened
    o.delivered_msgs o.delivered_bytes o.peak_live o.table_capacity
    o.demux_probes_mean o.demux_probes_p99 o.occupancy_p99 o.timewait_drops
    o.monitor_ticks o.monitor_walked o.tw_sweeps o.tw_expired
    (List.length o.partition_digests) o.wan_exchanged o.sync_windows
    o.sync_skipped o.events_fired Time.pp o.sim_time o.digest;
  Option.iter
    (fun w ->
      Format.fprintf fmt
        "@,wire: encodes=%d decodes=%d rejects=%d fused_sums=%d pool_reuse=%.3f"
        w.Session.Wire.encodes w.Session.Wire.decodes w.Session.Wire.rejects
        w.Session.Wire.fused_sums w.Session.Wire.pool_reuse_rate)
    o.wire_report;
  Option.iter
    (fun (applied, blocked) ->
      Format.fprintf fmt
        "@,steer: swaps=%d blocked=%d faults=%d violations=%d goodput=%d"
        applied blocked o.faults_injected (List.length o.violations)
        o.goodput_bytes)
    o.steer_stats;
  Format.fprintf fmt "@]"
