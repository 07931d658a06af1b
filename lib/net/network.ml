open Adaptive_sim
open Adaptive_buf

type addr = Topology.addr

type 'm recv = {
  payload : 'm;
  src : addr;
  dst : addr;
  wire_bytes : int;
  sent_at : Time.t;
  received_at : Time.t;
  corrupted : bool;
}

type stats = {
  sent : int;
  delivered : int;
  dropped_queue : int;
  dropped_down : int;
  dropped_no_route : int;
  dropped_mtu : int;
  corrupted : int;
  bytes_sent : int;
}

type wire_stats = {
  wire_encoded : int;
  wire_decoded : int;
  wire_rejected : int;
}

(* Wire-true mode: PDUs cross the network as real bytes in leased
   buffers.  The hooks keep the network parametric in ['m] — the
   transport above supplies the codec; the network owns frame lifetime
   (the lease) and per-receiver corruption. *)
type 'm wire = {
  wh_encode : 'm -> int -> Pool.lease;
  wh_decode : Bytes.t -> int -> int -> 'm option;
  wh_release : Pool.lease -> unit;
  mutable wh_encoded : int;
  mutable wh_decoded : int;
  mutable wh_rejected : int;
}

type 'm t = {
  engine : Engine.t;
  rng : Rng.t;
  topology : Topology.t;
  handlers : ('m recv -> unit) Inttbl.t; (* keyed by address *)
  mutable wire : 'm wire option;
  mutable remote : (src:addr -> dst:addr -> bytes:int -> 'm -> unit) option;
  mutable s_sent : int;
  mutable s_delivered : int;
  mutable s_dropped_queue : int;
  mutable s_dropped_down : int;
  mutable s_dropped_no_route : int;
  mutable s_dropped_mtu : int;
  mutable s_corrupted : int;
  mutable s_bytes_sent : int;
  mutable s_conn_counter : int;
  mutable conn_stride : int;
  mutable conn_offset : int;
}

let create engine ~rng topology =
  {
    engine;
    rng;
    topology;
    handlers = Inttbl.create 16;
    wire = None;
    remote = None;
    s_sent = 0;
    s_delivered = 0;
    s_dropped_queue = 0;
    s_dropped_down = 0;
    s_dropped_no_route = 0;
    s_dropped_mtu = 0;
    s_corrupted = 0;
    s_bytes_sent = 0;
    s_conn_counter = 0;
    conn_stride = 1;
    conn_offset = 0;
  }

let fresh_conn_id t =
  t.s_conn_counter <- t.s_conn_counter + 1;
  ((t.s_conn_counter - 1) * t.conn_stride) + t.conn_offset + 1

let set_conn_stripe t ~stride ~offset =
  if stride < 1 then invalid_arg "Network.set_conn_stripe: stride must be >= 1";
  if offset < 0 || offset >= stride then
    invalid_arg "Network.set_conn_stripe: offset must be in [0, stride)";
  if t.s_conn_counter > 0 then
    invalid_arg "Network.set_conn_stripe: connection ids already allocated";
  t.conn_stride <- stride;
  t.conn_offset <- offset

let engine t = t.engine
let topology t = t.topology

let set_wire t ~encode ~decode ~release =
  if t.remote <> None then
    invalid_arg "Network.set_wire: incompatible with a remote-delivery hook";
  t.wire <-
    Some
      {
        wh_encode = encode;
        wh_decode = decode;
        wh_release = release;
        wh_encoded = 0;
        wh_decoded = 0;
        wh_rejected = 0;
      }

let wire_stats t =
  Option.map
    (fun w ->
      {
        wire_encoded = w.wh_encoded;
        wire_decoded = w.wh_decoded;
        wire_rejected = w.wh_rejected;
      })
    t.wire
let attach t addr handler = Inttbl.replace t.handlers addr handler

(* Remote delivery: a shard coordinator owns the path between this
   network and its peers, so packets to unrouted destinations are handed
   over instead of dropped, and arrivals from other partitions are
   delivered through the normal handler path.  Wire-true mode is
   value-incompatible with hand-over (the frame lease cannot cross a
   domain boundary), so the two hooks are mutually exclusive. *)
let set_remote t f =
  if t.wire <> None then
    invalid_arg "Network.set_remote: incompatible with wire-true mode";
  t.remote <- Some f

let deliver_remote t ~src ~dst ~bytes ~sent_at payload =
  match Inttbl.find_opt t.handlers dst with
  | None -> ()
  | Some handler ->
    t.s_delivered <- t.s_delivered + 1;
    handler
      {
        payload;
        src;
        dst;
        wire_bytes = bytes;
        sent_at;
        received_at = Engine.now t.engine;
        corrupted = false;
      }

(* Walk the hop list, reusing cached verdicts for links this packet has
   already crossed (multicast replication at branch points).  Returns the
   delivery time and corruption flag, or the drop cause. *)
type outcome =
  | Arrives of Time.t * bool
  | Lost_queue
  | Lost_down
  | Lost_mtu

(* [cache] memoizes per-link verdicts across a multicast fan-out so a
   shared upstream hop is transmitted once; unicast sends pass [None]
   and skip the association list entirely.  A top-level function rather
   than a local closure, so a walk allocates no environment per packet. *)
let rec walk t ~cache ~lframe ~now ~bytes arrival corrupted = function
  | [] -> Arrives (arrival, corrupted)
  | link :: rest -> (
    if bytes > Link.mtu link then Lost_mtu
    else
      let verdict =
        match cache with
        | None -> Link.transmit link ?frame:lframe ~rng:t.rng ~now ~arrival ~bytes ()
        | Some cache -> (
          match List.assq_opt link !cache with
          | Some v -> v
          | None ->
            let v = Link.transmit link ?frame:lframe ~rng:t.rng ~now ~arrival ~bytes () in
            cache := (link, v) :: !cache;
            v)
      in
      match verdict with
      | Link.Transmitted { departs; corrupted = c } ->
        walk t ~cache ~lframe ~now ~bytes departs (corrupted || c) rest
      | Link.Dropped_queue -> Lost_queue
      | Link.Dropped_down -> Lost_down)

let traverse t ~cache ~frame ~bytes hops =
  let now = Engine.now t.engine in
  let lframe =
    match frame with
    | Some lease -> Some (Pool.lease_buf lease, 0, bytes)
    | None -> None
  in
  walk t ~cache ~lframe ~now ~bytes now false hops

(* Wire-true delivery: decode this receiver's copy of the frame at
   arrival.  Corruption is applied here rather than inside the link
   because multicast replicates the frame at branch points — a bit error
   on one branch must not damage the copy another receiver reads.  A
   single flipped bit is always caught by the Internet checksum, so a
   corrupted frame either fails the codec's verification or fails to
   parse at all; both count as wire rejects and the PDU is never
   delivered. *)
let deliver_wire t w ~src ~dst ~bytes ~sent_at ~at ~corrupted lease =
  Pool.retain lease;
  Engine.schedule_anon t.engine ~at (fun () ->
         let buf = Pool.lease_buf lease in
         let buf =
           if not corrupted then buf
           else begin
             (* Sole holder (plus this delivery): flip in place.  Shared
                frame: flip a private copy. *)
             let target =
               if Pool.lease_refs lease = 1 then buf else Bytes.sub buf 0 bytes
             in
             let bit = Rng.int t.rng (bytes * 8) in
             let byte = bit lsr 3 in
             Bytes.set_uint8 target byte
               (Bytes.get_uint8 target byte lxor (1 lsl (bit land 7)));
             target
           end
         in
         (match w.wh_decode buf 0 bytes with
         | None -> w.wh_rejected <- w.wh_rejected + 1
         | Some payload -> (
           w.wh_decoded <- w.wh_decoded + 1;
           match Inttbl.find_opt t.handlers dst with
           | None -> ()
           | Some handler ->
             t.s_delivered <- t.s_delivered + 1;
             handler
               {
                 payload;
                 src;
                 dst;
                 wire_bytes = bytes;
                 sent_at;
                 received_at = at;
                 corrupted;
               }));
         w.wh_release lease)

let deliver t ~src ~dst ~bytes ~sent_at ~frame payload outcome =
  match outcome with
  | Lost_queue -> t.s_dropped_queue <- t.s_dropped_queue + 1
  | Lost_down -> t.s_dropped_down <- t.s_dropped_down + 1
  | Lost_mtu -> t.s_dropped_mtu <- t.s_dropped_mtu + 1
  | Arrives (at, corrupted) -> (
    if corrupted then t.s_corrupted <- t.s_corrupted + 1;
    match (t.wire, frame) with
    | Some w, Some lease ->
      deliver_wire t w ~src ~dst ~bytes ~sent_at ~at ~corrupted lease
    | _ ->
      Engine.schedule_anon t.engine ~at (fun () ->
          match Inttbl.find_opt t.handlers dst with
          | None -> ()
          | Some handler ->
            t.s_delivered <- t.s_delivered + 1;
            handler
              {
                payload;
                src;
                dst;
                wire_bytes = bytes;
                sent_at;
                received_at = at;
                corrupted;
              }))

let send_on_cache t ~cache ~frame ~src ~dst ~bytes payload =
  match Topology.route t.topology ~src ~dst with
  | None -> (
    match t.remote with
    | Some hand_over -> hand_over ~src ~dst ~bytes payload
    | None -> t.s_dropped_no_route <- t.s_dropped_no_route + 1)
  | Some hops ->
    let sent_at = Engine.now t.engine in
    deliver t ~src ~dst ~bytes ~sent_at ~frame payload
      (traverse t ~cache ~frame ~bytes hops)

(* Serialize the PDU into a leased wire buffer once per injection; the
   sender's reference is dropped after the fan-out, so the buffer
   returns to the pool when the last scheduled delivery releases it. *)
let encode_frame t ~bytes payload =
  match t.wire with
  | None -> None
  | Some w ->
    let lease = w.wh_encode payload bytes in
    w.wh_encoded <- w.wh_encoded + 1;
    Some lease

let release_frame t frame =
  match (t.wire, frame) with
  | Some w, Some lease -> w.wh_release lease
  | _ -> ()

let send t ~src ~dst ~bytes payload =
  if bytes <= 0 then invalid_arg "Network.send: non-positive size";
  t.s_sent <- t.s_sent + 1;
  t.s_bytes_sent <- t.s_bytes_sent + bytes;
  let frame = encode_frame t ~bytes payload in
  (
  send_on_cache t ~cache:None ~frame ~src ~dst ~bytes payload);
  release_frame t frame

let multicast t ~src ~dsts ~bytes payload =
  if bytes <= 0 then invalid_arg "Network.multicast: non-positive size";
  t.s_sent <- t.s_sent + 1;
  t.s_bytes_sent <- t.s_bytes_sent + bytes;
  let cache = Some (ref []) in
  let frame = encode_frame t ~bytes payload in
  List.iter (fun dst -> send_on_cache t ~cache ~frame ~src ~dst ~bytes payload) dsts;
  release_frame t frame

let stats t =
  {
    sent = t.s_sent;
    delivered = t.s_delivered;
    dropped_queue = t.s_dropped_queue;
    dropped_down = t.s_dropped_down;
    dropped_no_route = t.s_dropped_no_route;
    dropped_mtu = t.s_dropped_mtu;
    corrupted = t.s_corrupted;
    bytes_sent = t.s_bytes_sent;
  }

type hop_state = {
  link_name : string;
  bandwidth : float;
  utilization : float;
  cross_traffic : float;
  queue_delay : Time.t;
  hop_ber : float;
  hop_mtu : int;
  up : bool;
}

let path_state t ~src ~dst =
  match Topology.route t.topology ~src ~dst with
  | None -> []
  | Some hops ->
    let now = Engine.now t.engine in
    let snapshot link =
      {
        link_name = Link.name link;
        bandwidth = Link.bandwidth_bps link;
        utilization = Link.utilization_estimate link ~now;
        cross_traffic = Link.background_utilization link;
        queue_delay = Link.queue_delay_estimate link ~now;
        hop_ber = Link.ber link;
        hop_mtu = Link.mtu link;
        up = Link.is_up link;
      }
    in
    List.map snapshot hops

let one_way_estimate hops bytes =
  List.fold_left
    (fun acc link ->
      Time.add acc
        (Time.add (Link.propagation link)
           (Time.of_rate ~bits:(bytes * 8) ~bps:(Link.bandwidth_bps link))))
    Time.zero hops

let rtt_estimate t ~src ~dst ~bytes =
  match (Topology.route t.topology ~src ~dst, Topology.route t.topology ~src:dst ~dst:src) with
  | Some fwd, Some back ->
    Some (Time.add (one_way_estimate fwd bytes) (one_way_estimate back bytes))
  | Some fwd, None -> Some (Time.add (one_way_estimate fwd bytes) (one_way_estimate fwd bytes))
  | None, _ -> None
