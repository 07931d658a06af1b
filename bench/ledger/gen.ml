(* The ledger's load generator.

   Each workload is a set of partitions — a complete ADAPTIVE stack per
   partition: engine, two hosts joined by one link, MANTTS, UNITES —
   driven by an open-loop schedule.  Slot [g] opens its round [r] at a
   fixed simulated instant, whatever happened to its earlier sessions;
   inside a session, transfer is closed-loop by the transport's window.
   Partitions exchange WAN traffic through SHARD's barrier windows.

   The generator calls only stack-level APIs (Adaptive, Mantts, Session,
   Engine, Network, Shard, Fault, Invariant, Steer, Unites) plus the data
   types they take, and witnesses behaviour with its own FNV-1a digest
   over every open, delivery and close. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_chaos
open Adaptive_fleet

(* 64-bit FNV-1a over the little-endian bytes of each folded int.  The
   state lives in a [Bytes] so that folding allocates nothing. *)
module Fnv = struct
  let prime = 0x100000001b3L

  let create () =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 0xcbf29ce484222325L;
    b

  let byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) prime

  let int t x =
    let h = ref (Bytes.get_int64_le t 0) in
    for i = 0 to 7 do
      h := byte !h ((x lsr (8 * i)) land 0xff)
    done;
    Bytes.set_int64_le t 0 !h

  let string t s =
    let h = ref (Bytes.get_int64_le t 0) in
    String.iter (fun c -> h := byte !h (Char.code c)) s;
    Bytes.set_int64_le t 0 !h

  let value t = Bytes.get_int64_le t 0
end

(* Digest record tags. *)
let tag_open = 1
let tag_close = 2
let tag_refuse = 3
let tag_wan_open = 4
let tag_wan_close = 5
let tag_deliver = 6

(* ------------------------------------------------------------ workloads *)

type sizes =
  | Spread of int  (* uniform in [mean/2, 3*mean/2), at least 64 bytes *)
  | Alternate of int * int  (* even slots the first, odd slots the second *)

type shape = {
  name : string;
  partitions : int;
  shards : int;
  slots : int;  (* session slots over all partitions *)
  rounds : int;  (* opens per slot *)
  open_window : Time.t;  (* each round's opens spread over one window *)
  life_min : Time.t;
  life_span_ms : int;  (* lifetime = life_min + uniform [0, life_span_ms) ms *)
  msgs : int;  (* messages per session *)
  msg_interval : Time.t;
  sizes : sizes;
  mtu : int;
  link_bps : float;
  queue_pkts : int;
  host_speed : float;
  monitored_every : int;  (* every Nth slot declares a long session *)
  wan_every : int;  (* every Nth slot also opens a WAN session (0 = none) *)
  wan_spread : Time.t;
  unites_cap : int option;
  tmc_setup_only : bool;  (* per-session whitebox limited to setup latency *)
  apps : int array;  (* indices into [profiles], cycled by slot *)
  wire : bool;
  steer : bool;
  chaos : bool;
  oracle : bool;
}

(* Application profiles after the paper's Table 1, so Stage I/II
   derivation sees the usual mix of classes. *)
let profiles =
  [|
    (* voice *)
    {
      Qos.default with
      Qos.avg_bps = 64e3;
      peak_bps = 64e3;
      max_latency = Some (Time.ms 200);
      max_jitter = Some (Time.ms 15);
      loss_tolerance = 0.05;
      ordered = false;
      duplicate_sensitive = false;
      isochronous = true;
      interactive = true;
      realtime = true;
    };
    (* compressed video *)
    {
      Qos.default with
      Qos.avg_bps = 6e6;
      peak_bps = 24e6;
      max_latency = Some (Time.ms 300);
      max_jitter = Some (Time.ms 40);
      loss_tolerance = 0.02;
      ordered = false;
      duplicate_sensitive = false;
      isochronous = true;
      realtime = true;
      priority = true;
    };
    (* manufacturing control *)
    {
      Qos.default with
      Qos.avg_bps = 400e3;
      peak_bps = 1e6;
      max_latency = Some (Time.ms 50);
      loss_tolerance = 0.001;
      realtime = true;
      priority = true;
    };
    (* file transfer *)
    { Qos.default with Qos.avg_bps = 2e6; peak_bps = 2.4e6 };
    (* telnet *)
    {
      Qos.default with
      Qos.avg_bps = 200.0;
      peak_bps = 2e3;
      max_latency = Some (Time.ms 250);
      max_jitter = Some (Time.ms 400);
      interactive = true;
      priority = true;
    };
    (* transaction processing *)
    {
      Qos.default with
      Qos.avg_bps = 20e3;
      peak_bps = 200e3;
      max_latency = Some (Time.ms 300);
      max_jitter = Some (Time.ms 500);
      interactive = true;
    };
    (* bulk stream, with headroom over a 1400-byte message every 4 ms *)
    { Qos.default with Qos.avg_bps = 8e6; peak_bps = 10e6 };
  |]

let bulk_stream = 6

(* e14's two bit-error bursts against the partition's link.  e14's
   congestion storm and route flap are left out: a connection request
   is retried only 5 times at a fixed initial RTO (20 ms on this LAN),
   so any outage or queueing delay past ~120 ms fails every handshake
   started inside it, and a benchmark workload must not fail
   operations. *)
let backdrop : Fault.schedule =
  let f cls start duration intensity =
    { Fault.cls; start; duration; target = 0; intensity }
  in
  [
    f Fault.Ber_burst (Time.ms 600) (Time.ms 1500) 0.8;
    f Fault.Ber_burst (Time.sec 3.9) (Time.ms 1200) 1.0;
  ]

type size = Full | Smoke

let workloads = [ "churn"; "bulk-wire"; "steer-chaos"; "wan-shards" ]

let base =
  {
    name = "";
    partitions = 1;
    shards = 1;
    slots = 1;
    rounds = 1;
    open_window = Time.sec 1.0;
    life_min = Time.ms 300;
    life_span_ms = 500;
    msgs = 1;
    msg_interval = Time.ms 1;
    sizes = Spread 2000;
    mtu = 65535;
    link_bps = 1e9;
    queue_pkts = 4096;
    host_speed = 1.0;
    monitored_every = 10;
    wan_every = 0;
    wan_spread = Time.zero;
    unites_cap = None;
    tmc_setup_only = true;
    apps = [| 0; 1; 2; 3; 4; 5 |];
    wire = false;
    steer = false;
    chaos = false;
    oracle = false;
  }

let shape ?(size = Full) name =
  let pick full smoke = match size with Full -> full | Smoke -> smoke in
  match name with
  | "churn" ->
    (* 10k opens/s of short single-segment sessions over 4 partitions. *)
    let slots = pick 24_000 400 in
    let window = Time.sec (float_of_int slots /. 10_000.) in
    {
      base with
      name;
      partitions = 4;
      slots;
      rounds = 2;
      open_window = window;
      wan_every = 16;
      unites_cap = Some (pick 5_000 50);
    }
  | "bulk-wire" ->
    (* Long-lived streams on a 1 Gb/s, 1500-byte-MTU link, wire-true:
       half the sessions send 64-byte messages, half 1400-byte ones,
       each one message every 4 ms (about 360 Mb/s offered). *)
    let stream = pick (Time.sec 2.0) (Time.ms 100) in
    {
      base with
      name;
      slots = pick 256 16;
      open_window = Time.ms 10;
      life_min = Time.add stream (Time.ms 200);
      life_span_ms = 1;
      msgs = stream / Time.ms 4;
      msg_interval = Time.ms 4;
      sizes = Alternate (64, 1400);
      mtu = 1500;
      monitored_every = 1;
      tmc_setup_only = false;
      apps = [| bulk_stream |];
      wire = true;
    }
  | "steer-chaos" ->
    (* e14's steered arm: link, queue and host CPU scale with the slot
       count, 6-18 KB transfers, 7 rounds under the fault backdrop.
       Value mode: wire mode under chaos raises in Session.Wire (see
       README.md). *)
    let slots = pick 1000 60 in
    {
      base with
      name;
      slots;
      rounds = 7;
      sizes = Spread 12_000;
      mtu = 1500;
      link_bps = 250e3 *. float_of_int slots;
      queue_pkts = 4096 * slots / 200;
      host_speed = float_of_int slots /. 200.;
      monitored_every = 0;
      steer = true;
      chaos = true;
      oracle = true;
    }
  | "wan-shards" ->
    (* 8 partitions on 2 domains, a WAN session on every 2nd slot over
       per-pair latencies of 5-8 ms. *)
    let slots = pick 16_000 400 in
    let window = Time.sec (float_of_int slots /. 20_000.) in
    {
      base with
      name;
      partitions = 8;
      shards = 2;
      slots;
      rounds = 2;
      open_window = window;
      wan_every = 2;
      wan_spread = Time.ms 3;
      unites_cap = Some (pick 500 50);
    }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The twin of each ablation pair differs from its workload in exactly
   one knob; the digests must agree. *)
let twin sh =
  match sh.name with
  | "bulk-wire" -> Some ("value", { sh with wire = false })
  | "steer-chaos" -> Some ("no-oracle", { sh with oracle = false })
  | "wan-shards" -> Some ("shards-1", { sh with shards = 1 })
  | _ -> None

(* ------------------------------------------------------------ partitions *)

type contract = {
  c_slot : int;
  c_tolerant : bool;
  c_opened : Time.t;
  mutable c_asked : int;
}

(* Cross-partition PDUs as values: the frame, its size and the
   addresses as the receiver must see them. *)
type wan_msg = {
  w_src : Network.addr;
  w_dst : Network.addr;
  w_bytes : int;
  w_sent : Time.t;
  w_pdu : Pdu.t;
}

type part = {
  ix : int;
  stack : Adaptive.stack;
  engine : Engine.t;
  mantts : Mantts.t;
  client : Network.addr;
  server : Network.addr;
  client_disp : Session.Dispatcher.dispatcher;
  server_disp : Session.Dispatcher.dispatcher;
  wire : Session.Wire.handle option;
  steer : Steer.t option;
  oracle : Invariant.t option;
  injector : Fault.injector option;
  digest : Bytes.t;
  base_rng : Rng.t;
  acds : Acd.t option array;
  contracts : (int, contract) Hashtbl.t;  (* sessions this partition opened *)
  received : (int, int ref) Hashtbl.t;  (* bytes delivered here, by conn *)
  setup_lat : Hist.t;
  deliv_lat : Hist.t;
  mutable outbox : (Time.t * int * wan_msg) list;  (* newest first *)
  mutable window_words : float;  (* minor words allocated inside run_to *)
  mutable offered : int;
  mutable admitted : int;
  mutable refused : int;
  mutable wan_opened : int;
  mutable never_established : int;
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable delivered_msgs : int;
  mutable delivered_bytes : int;
  mutable last_delivery : Time.t;
}

let wan_base = 0x10000
let virtual_addr ~partition ~role = wan_base + (partition * 2) + role
let wan_scs = { Scs.default with Scs.connection = Params.Implicit }
let wan_life = Time.ms 600
let short_duration = Time.ms 600
let long_duration = Time.minutes 2

(* Base one-way WAN latency, and SHARD's lookahead floor. *)
let wan_latency = Time.ms 5

let pair_latency sh ~src ~dst =
  if sh.wan_spread = Time.zero then wan_latency
  else Time.add wan_latency (((31 * src) + (17 * dst)) mod (sh.wan_spread + 1))

let slot_of p conn =
  match Hashtbl.find_opt p.contracts conn with Some c -> c.c_slot | None -> -1

let on_deliver p session (d : Session.delivery) =
  let id = Session.id session in
  Span.enter Span.app_deliver (if !Span.enabled then slot_of p id else -1);
  Fnv.int p.digest tag_deliver;
  Fnv.int p.digest id;
  Fnv.int p.digest d.Session.bytes;
  Fnv.int p.digest d.Session.delivered_at;
  p.delivered_msgs <- p.delivered_msgs + 1;
  p.delivered_bytes <- p.delivered_bytes + d.Session.bytes;
  Hist.add p.deliv_lat (d.Session.delivered_at - d.Session.app_stamp);
  (match Hashtbl.find p.received id with
  | r -> r := !r + d.Session.bytes
  | exception Not_found -> Hashtbl.add p.received id (ref d.Session.bytes));
  if d.Session.delivered_at > p.last_delivery then
    p.last_delivery <- d.Session.delivered_at;
  Span.leave ()

let partition_seed ~seed ix = Rng.int (Rng.split_ix (Rng.create seed) ix) (1 lsl 30)

let build_part sh ~seed ix =
  let stack =
    Adaptive.create_stack ~seed:(partition_seed ~seed ix) ~metric_reservoir:64
      ~metric_estimator:Stats.P2 ()
  in
  let engine = stack.Adaptive.engine in
  let unites = stack.Adaptive.unites in
  if sh.partitions > 1 then
    Network.set_conn_stripe stack.Adaptive.net ~stride:sh.partitions ~offset:ix;
  let wire = if sh.wire then Some (Session.Wire.install stack.Adaptive.net) else None in
  let cpu () =
    Host.create ~per_packet:(Time.us 2) ~per_byte_copy:(Time.ns 1) ~copies:1
      ~speed:sh.host_speed engine
  in
  let client_cpu = cpu () and server_cpu = cpu () in
  let client = Adaptive.add_host ~host_cpu:client_cpu stack "client" in
  let server = Adaptive.add_host ~host_cpu:server_cpu stack "server" in
  let lan =
    Profiles.custom ~name:"lan" ~bandwidth_bps:sh.link_bps ~propagation:(Time.us 50)
      ~queue_pkts:sh.queue_pkts ~mtu:sh.mtu ()
  in
  Adaptive.connect_hosts stack client server [ lan ];
  Option.iter (Unites.set_session_cap unites) sh.unites_cap;
  let mantts = Adaptive.mantts stack in
  let client_disp = Mantts.dispatcher (Mantts.entity mantts client) in
  let server_disp = Mantts.dispatcher (Mantts.entity mantts server) in
  let steer =
    if sh.steer then Some (Steer.create ~policy:Steer.default_policy mantts) else None
  in
  let injector =
    if sh.chaos then
      Some
        (Fault.install ~engine ~unites
           { Fault.links = [ lan ]; tail_links = []; hosts = [ client_cpu; server_cpu ];
             routing = None }
           backdrop)
    else None
  in
  let oracle =
    if sh.oracle then begin
      let c = Invariant.create ~engine ~unites ~mantts () in
      Option.iter (Invariant.set_injector c) injector;
      Invariant.attach_dispatcher c client_disp;
      Invariant.attach_dispatcher c server_disp;
      Invariant.start c;
      Some c
    end
    else None
  in
  let p =
    {
      ix;
      stack;
      engine;
      mantts;
      client;
      server;
      client_disp;
      server_disp;
      wire;
      steer;
      oracle;
      injector;
      digest = Fnv.create ();
      base_rng = Rng.create (seed lxor 0x4C454447 (* "LEDG" *));
      acds = Array.make (2 * Array.length profiles) None;
      contracts = Hashtbl.create 1024;
      received = Hashtbl.create 1024;
      setup_lat = Hist.create ();
      deliv_lat = Hist.create ();
      outbox = [];
      window_words = 0.0;
      offered = 0;
      admitted = 0;
      refused = 0;
      wan_opened = 0;
      never_established = 0;
      sent_msgs = 0;
      sent_bytes = 0;
      delivered_msgs = 0;
      delivered_bytes = 0;
      last_delivery = Time.zero;
    }
  in
  Mantts.set_app_handler (Mantts.entity mantts server) (on_deliver p);
  p

(* Partition [p]'s remote hook: map the virtual destination to
   (partition, real address), stamp the WAN arrival, queue it for the
   next barrier. *)
let install_wan sh parts p =
  Network.set_remote p.stack.Adaptive.net (fun ~src ~dst ~bytes pdu ->
      if dst >= wan_base && dst < wan_base + (sh.partitions * 2) then begin
        let target = (dst - wan_base) / 2 in
        let dest = parts.(target) in
        let real_dst = if (dst - wan_base) mod 2 = 1 then dest.server else dest.client in
        let src_role = if src = p.server then 1 else 0 in
        let now = Engine.now p.engine in
        p.outbox <-
          ( Time.add now (pair_latency sh ~src:p.ix ~dst:target),
            target,
            {
              w_src = virtual_addr ~partition:p.ix ~role:src_role;
              w_dst = real_dst;
              w_bytes = bytes;
              w_sent = now;
              w_pdu = pdu;
            } )
          :: p.outbox
      end)

(* ------------------------------------------------------------ schedule *)

let acd_for sh p g =
  let app = sh.apps.(g mod Array.length sh.apps) in
  let monitored = sh.monitored_every > 0 && g mod sh.monitored_every = 0 in
  let key = (2 * app) + Bool.to_int monitored in
  match p.acds.(key) with
  | Some acd -> acd
  | None ->
    let qos =
      {
        profiles.(app) with
        Qos.duration = Some (if monitored then long_duration else short_duration);
      }
    in
    let tmc =
      if sh.tmc_setup_only then
        { Acd.collect = [ Unites.Setup_latency ]; sample_every = Time.sec 1.0 }
      else Acd.default_tmc
    in
    let acd = Acd.make ~tmc ~participants:[ p.server ] ~qos () in
    p.acds.(key) <- Some acd;
    acd

let msg_bytes sh rng g =
  match sh.sizes with
  | Spread mean -> max 64 ((mean / 2) + Rng.int rng mean)
  | Alternate (a, b) -> if g mod 2 = 0 then a else b

(* Every random draw for slot [g] comes from stream [g * 128 + k] of the
   partition's generator: k = round for an open, 126 for the slot's
   phase, 127 for its WAN session. *)
let slot_rng p g k = Rng.split_ix p.base_rng ((g * 128) + k)

(* Round [r] of slot [g]: the slot's share of the open window plus a
   seeded phase inside that share. *)
let open_at sh p g r =
  let share = sh.open_window / sh.slots in
  1 + (r * sh.open_window) + (g * share) + Rng.int (slot_rng p g 126) (max 1 share)

let send p s c ~bytes =
  Span.enter Span.session_send c.c_slot;
  Session.send s ~bytes ();
  Span.leave ();
  c.c_asked <- c.c_asked + bytes;
  p.sent_msgs <- p.sent_msgs + 1;
  p.sent_bytes <- p.sent_bytes + bytes

let check_established p s c =
  match Session.established_at s with
  | Some t -> Hist.add p.setup_lat (t - c.c_opened)
  | None -> p.never_established <- p.never_established + 1

let open_wan sh p g =
  let peer = virtual_addr ~partition:((p.ix + 1) mod sh.partitions) ~role:1 in
  let name = "w-" ^ string_of_int p.ix ^ "-" ^ string_of_int g in
  let s = Session.connect ~name p.client_disp ~peers:[ peer ] ~scs:wan_scs () in
  let id = Session.id s in
  p.wan_opened <- p.wan_opened + 1;
  Fnv.int p.digest tag_wan_open;
  Fnv.int p.digest id;
  let c = { c_slot = g; c_tolerant = false; c_opened = Engine.now p.engine; c_asked = 0 } in
  Hashtbl.replace p.contracts id c;
  send p s c ~bytes:(max 64 (msg_bytes sh (slot_rng p g 127) g / 2));
  Engine.schedule_anon p.engine ~at:(Time.add (Engine.now p.engine) wan_life) (fun () ->
      Fnv.int p.digest tag_wan_close;
      Fnv.int p.digest id;
      check_established p s c;
      Session.close s)

let rec schedule_open sh p g r =
  Engine.schedule_anon p.engine ~at:(open_at sh p g r) (fun () -> open_now sh p g r)

and open_now sh p g r =
  (* Open loop: the next round is due at a fixed instant whatever
     becomes of this one. *)
  if r + 1 < sh.rounds then schedule_open sh p g (r + 1);
  p.offered <- p.offered + 1;
  let rng = slot_rng p g r in
  let acd = acd_for sh p g in
  let name =
    "s-" ^ string_of_int p.ix ^ "-" ^ string_of_int g ^ "-" ^ string_of_int r
  in
  Span.enter Span.mantts_open g;
  let opened = Mantts.try_open_session ~name p.mantts ~src:p.client ~acd () in
  Span.leave ();
  (match opened with
  | Error _ ->
    p.refused <- p.refused + 1;
    Fnv.int p.digest tag_refuse;
    Fnv.int p.digest g;
    Fnv.int p.digest r
  | Ok (s, _) ->
    p.admitted <- p.admitted + 1;
    let id = Session.id s in
    Fnv.int p.digest tag_open;
    Fnv.int p.digest id;
    Fnv.int p.digest g;
    Fnv.int p.digest r;
    let tolerant = acd.Acd.qos.Qos.loss_tolerance > 0.0 in
    let now = Engine.now p.engine in
    let c = { c_slot = g; c_tolerant = tolerant; c_opened = now; c_asked = 0 } in
    Hashtbl.replace p.contracts id c;
    Option.iter
      (fun st ->
        Span.enter Span.steer_watch g;
        Steer.watch st s ~loss_tolerant:tolerant;
        Span.leave ())
      p.steer;
    let bytes = msg_bytes sh rng g in
    send p s c ~bytes;
    let rec next i =
      if i < sh.msgs then
        Engine.schedule_anon p.engine ~at:(now + (i * sh.msg_interval)) (fun () ->
            send p s c ~bytes;
            next (i + 1))
    in
    next 1;
    let lifetime = Time.add sh.life_min (Time.ms (Rng.int rng sh.life_span_ms)) in
    Engine.schedule_anon p.engine ~at:(Time.add now lifetime) (fun () ->
        Span.enter Span.mantts_close g;
        Mantts.close_session p.mantts s;
        Span.leave ();
        Fnv.int p.digest tag_close;
        Fnv.int p.digest id;
        check_established p s c));
  if sh.wan_every > 0 && g mod sh.wan_every = 0 && r = 0 then open_wan sh p g

let horizon sh =
  let last_open = sh.rounds * sh.open_window in
  Time.add last_open
    (Time.add sh.life_min (Time.add (Time.ms sh.life_span_ms) (Time.sec 3.0)))

(* ------------------------------------------------------------ one run *)

type timing = {
  wall_s : float;
  setup_s : float;
  sim_s : float;
  report_s : float;
  setup_words : float;
  sim_words : float;
  report_words : float;
  major_collections : int;
}

type outcome = {
  shape : shape;
  seed : int;
  timing : timing;
  offered : int;
  admitted : int;
  refused : int;
  wan_opened : int;
  never_established : int;
  incomplete_reliable : int;
  sent_msgs : int;
  sent_bytes : int;
  delivered_msgs : int;
  delivered_bytes : int;
  goodput_bytes : int;
  last_delivery : Time.t;
  setup_p99 : Time.t;
  delivery_p99 : Time.t;
  digest : int64;
  report_digest : int64;
  report_bytes : int;
  events : int;
  wheel_hit_rate : float;
  overflow_inserts : int;
  cascades : int;
  monitor_ticks : int;
  monitor_walked : int;
  probes_mean : float;
  tw_sweeps : int;
  tw_expired : int;
  wire : Session.Wire.report option;
  retransmissions : int;
  steer_swaps : int;
  steer_blocked : int;
  violations : Invariant.violation list;
  faults : int;
  windows : int;
  skipped : int;
  exchanged : int;
  shard_wall_s : float array;
}

let failed o = o.refused + o.never_established + o.incomplete_reliable
let attempted o = o.offered + o.wan_opened

(* Contract goodput over simulated time: loss-tolerant sessions count
   what arrived up to what they sent, reliable ones all or nothing. *)
let goodput_mbps o =
  let dt = Time.to_sec o.last_delivery in
  if dt <= 0.0 then 0.0 else float_of_int (8 * o.goodput_bytes) /. dt /. 1e6

let clock () = float_of_int (Span.now_ns ()) *. 1e-9

let run ?(traced = false) ~seed sh =
  let stat0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  Span.enter Span.setup 0;
  Span.enter Span.setup_build 0;
  let parts = Array.init sh.partitions (build_part sh ~seed) in
  if sh.partitions > 1 then Array.iter (install_wan sh parts) parts;
  Span.leave ();
  Span.enter Span.setup_schedule 0;
  Array.iter
    (fun p ->
      let g = ref p.ix in
      while !g < sh.slots do
        schedule_open sh p !g 0;
        g := !g + sh.partitions
      done)
    parts;
  Span.leave ();
  Span.leave ();
  let w1 = Gc.minor_words () in
  let t1 = clock () in
  Span.enter Span.sim 0;
  let until = horizon sh in
  let run_to i until =
    let p = parts.(i) in
    Span.enter Span.shard_window i;
    let w = Gc.minor_words () in
    Engine.run ~until p.engine;
    p.window_words <- p.window_words +. (Gc.minor_words () -. w);
    Span.leave ()
  in
  let windows, skipped, exchanged, shard_wall_s =
    if sh.partitions = 1 then (run_to 0 until; (0, 0, 0, [||]))
    else begin
      let shard =
        Shard.create
          ~pair_lookahead:(fun ~src ~dst -> pair_latency sh ~src ~dst)
          ~next_deadline:(fun i -> Engine.next_deadline parts.(i).engine)
          ?clock:(if traced then Some clock else None)
          ~lookahead:wan_latency ~partitions:sh.partitions ~run_to
          ~drain:(fun i ->
            Span.enter Span.shard_drain i;
            let p = parts.(i) in
            let msgs =
              List.rev_map
                (fun (at, dst, m) -> { Shard.out_at = at; out_dst = dst; out_payload = m })
                p.outbox
            in
            p.outbox <- [];
            Span.leave ();
            msgs)
          ~inject:(fun i ~at ~src:_ m ->
            Span.enter Span.shard_inject i;
            let p = parts.(i) in
            Engine.schedule_anon p.engine ~at (fun () ->
                Span.enter Span.net_deliver_remote i;
                Network.deliver_remote p.stack.Adaptive.net ~src:m.w_src ~dst:m.w_dst
                  ~bytes:m.w_bytes ~sent_at:m.w_sent m.w_pdu;
                Span.leave ());
            Span.leave ())
          ()
      in
      let exchanged = Shard.run shard ~shards:sh.shards ~until in
      let st = Shard.last_stats shard in
      (st.Shard.windows, st.Shard.skipped_spans, exchanged, st.Shard.shard_wall_s)
    end
  in
  Array.iter (fun p -> Option.iter Invariant.finish p.oracle) parts;
  Span.leave ();
  let w2 = Gc.minor_words () in
  let t2 = clock () in
  (* Partition i ran on the coordinating domain iff i mod shards = 0;
     the others' window allocation is invisible to this domain's
     counter, so add it from the per-window deltas. *)
  let remote_words =
    Array.fold_left
      (fun acc p -> if p.ix mod sh.shards <> 0 then acc +. p.window_words else acc)
      0.0 parts
  in
  Span.enter Span.report 0;
  let report_digest = Fnv.create () in
  let report_bytes = ref 0 in
  Array.iter
    (fun p ->
      Span.enter Span.report_unites p.ix;
      Option.iter (fun h -> Session.Wire.observe h p.stack.Adaptive.unites) p.wire;
      let text = Format.asprintf "partition %d@.%a" p.ix Unites.report p.stack.Adaptive.unites in
      Span.leave ();
      report_bytes := !report_bytes + String.length text;
      Fnv.string report_digest text)
    parts;
  let received id =
    Array.fold_left
      (fun acc q -> match Hashtbl.find_opt q.received id with Some r -> acc + !r | None -> acc)
      0 parts
  in
  let goodput = ref 0 and incomplete = ref 0 in
  Array.iter
    (fun p ->
      Hashtbl.iter
        (fun id c ->
          let got = received id in
          if c.c_tolerant then goodput := !goodput + min got c.c_asked
          else if got >= c.c_asked then goodput := !goodput + c.c_asked
          else incr incomplete)
        p.contracts)
    parts;
  let digest = Fnv.create () in
  Array.iter (fun (p : part) -> Fnv.int digest (Int64.to_int (Fnv.value p.digest))) parts;
  let setup_lat = Hist.create () and deliv_lat = Hist.create () in
  Array.iter
    (fun p ->
      Hist.merge_into ~dst:setup_lat p.setup_lat;
      Hist.merge_into ~dst:deliv_lat p.deliv_lat)
    parts;
  Span.leave ();
  let w3 = Gc.minor_words () in
  let t3 = clock () in
  let stat1 = Gc.quick_stat () in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 parts in
  let counters p = Engine.counters p.engine in
  let inserts p =
    let c = counters p in
    c.Engine.wheel_inserts + c.Engine.ready_inserts + c.Engine.overflow_inserts
  in
  let probes =
    Array.fold_left
      (fun (n, total) p ->
        match
          Unites.stats p.stack.Adaptive.unites ~session:Unites.swarm_session
            Unites.Demux_probes
        with
        | Some s -> (n + s.Stats.n, total +. (s.Stats.mean *. float_of_int s.Stats.n))
        | None -> (n, total))
      (0, 0.0) parts
  in
  let tw f =
    sum (fun p ->
        f (Session.Dispatcher.tw_sweep_stats p.client_disp)
        + f (Session.Dispatcher.tw_sweep_stats p.server_disp))
  in
  {
    shape = sh;
    seed;
    timing =
      {
        wall_s = t3 -. t0;
        setup_s = t1 -. t0;
        sim_s = t2 -. t1;
        report_s = t3 -. t2;
        setup_words = w1 -. w0;
        sim_words = w2 -. w1 +. remote_words;
        report_words = w3 -. w2;
        major_collections =
          stat1.Gc.major_collections - stat0.Gc.major_collections;
      };
    offered = sum (fun p -> p.offered);
    admitted = sum (fun p -> p.admitted);
    refused = sum (fun p -> p.refused);
    wan_opened = sum (fun p -> p.wan_opened);
    never_established = sum (fun p -> p.never_established);
    incomplete_reliable = !incomplete;
    sent_msgs = sum (fun p -> p.sent_msgs);
    sent_bytes = sum (fun p -> p.sent_bytes);
    delivered_msgs = sum (fun p -> p.delivered_msgs);
    delivered_bytes = sum (fun p -> p.delivered_bytes);
    goodput_bytes = !goodput;
    last_delivery = Array.fold_left (fun acc (p : part) -> Time.max acc p.last_delivery) 0 parts;
    setup_p99 = Hist.quantile setup_lat 0.99;
    delivery_p99 = Hist.quantile deliv_lat 0.99;
    digest = Fnv.value digest;
    report_digest = Fnv.value report_digest;
    report_bytes = !report_bytes;
    events = sum (fun p -> (counters p).Engine.events_fired);
    wheel_hit_rate =
      (let total = sum inserts in
       if total = 0 then 0.0
       else float_of_int (sum (fun p -> (counters p).Engine.wheel_inserts)) /. float_of_int total);
    overflow_inserts = sum (fun p -> (counters p).Engine.overflow_inserts);
    cascades = sum (fun p -> (counters p).Engine.cascades);
    monitor_ticks = sum (fun p -> fst (Mantts.tick_stats p.mantts));
    monitor_walked = sum (fun p -> snd (Mantts.tick_stats p.mantts));
    probes_mean =
      (let n, total = probes in
       if n = 0 then 0.0 else total /. float_of_int n);
    tw_sweeps = tw fst;
    tw_expired = tw snd;
    wire = Option.map Session.Wire.report parts.(0).wire;
    retransmissions =
      sum (fun p ->
          int_of_float (Unites.aggregate_total p.stack.Adaptive.unites Unites.Retransmissions));
    steer_swaps = sum (fun p -> match p.steer with Some st -> Steer.swap_count st | None -> 0);
    steer_blocked =
      sum (fun p -> match p.steer with Some st -> Steer.blocked_count st | None -> 0);
    violations =
      List.concat_map
        (fun p -> match p.oracle with Some c -> Invariant.violations c | None -> [])
        (Array.to_list parts);
    faults = sum (fun p -> match p.injector with Some i -> Fault.injected i | None -> 0);
    windows;
    skipped;
    exchanged;
    shard_wall_s;
  }

(* In-run checks every outcome must pass: conservation of opens and
   bytes, a silent oracle, and no failed operation. *)
let checks o =
  [
    ( "offered = admitted + refused",
      o.offered = o.admitted + o.refused );
    ("delivered bytes <= sent bytes", o.delivered_bytes <= o.sent_bytes);
    ("goodput bytes <= sent bytes", o.goodput_bytes <= o.sent_bytes);
    ("oracle silent", o.violations = []);
    ("no failed operation", failed o = 0);
    ("sessions delivered data", o.delivered_msgs > 0);
  ]
