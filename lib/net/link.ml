open Adaptive_sim

type stats = {
  accepted : int;
  dropped_queue : int;
  dropped_down : int;
  corrupted : int;
  bytes_carried : int;
}

type t = {
  name : string;
  bandwidth_bps : float;
  propagation : Time.t;
  queue_pkts : int;
  mutable ber : float;
  mutable mtu : int;
  mutable busy_until : Time.t;
  mutable background : float;
  mutable up : bool;
  mutable gen : int;
  mutable accepted : int;
  mutable dropped_queue : int;
  mutable dropped_down : int;
  mutable corrupted_count : int;
  mutable bytes_carried : int;
}

(* Atomic: default names must stay unique when parallel campaign tasks
   (lib/fleet) build their stacks concurrently. *)
let counter = Atomic.make 0

let create ?name ~bandwidth_bps ~propagation ?(queue_pkts = 64) ?(ber = 0.0)
    ?(mtu = 65535) () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: non-positive bandwidth";
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "link%d" (1 + Atomic.fetch_and_add counter 1)
  in
  {
    name;
    bandwidth_bps;
    propagation;
    queue_pkts;
    ber;
    mtu;
    busy_until = Time.zero;
    background = 0.0;
    up = true;
    gen = 0;
    accepted = 0;
    dropped_queue = 0;
    dropped_down = 0;
    corrupted_count = 0;
    bytes_carried = 0;
  }

let name t = t.name
let bandwidth_bps t = t.bandwidth_bps
let propagation t = t.propagation
let mtu t = t.mtu
let ber t = t.ber
let queue_capacity t = t.queue_pkts

(* Every mutation of a parameter that feeds path characterization bumps
   [gen]; {!Topology.generation} sums it over routed links. *)
let touch t = t.gen <- t.gen + 1
let generation t = t.gen

let set_background_utilization t u =
  touch t;
  t.background <- Float.max 0.0 (Float.min 0.98 u)

let background_utilization t = t.background

let fail t = touch t; t.up <- false
let repair t = touch t; t.up <- true
let is_up t = t.up

let set_ber t ber = touch t; t.ber <- Float.max 0.0 ber

let set_mtu t mtu =
  if mtu <= 0 then invalid_arg "Link.set_mtu: non-positive MTU";
  touch t;
  t.mtu <- mtu

let effective_bps t = t.bandwidth_bps *. (1.0 -. t.background)

let serialization t bytes = Time.of_rate ~bits:(bytes * 8) ~bps:(effective_bps t)

type verdict =
  | Transmitted of { departs : Time.t; corrupted : bool }
  | Dropped_queue
  | Dropped_down

(* Congestive random early loss ramps up as cross traffic saturates the
   queue: zero below 70% utilization, then quadratic up to 25% at 98%. *)
let congestive_loss_probability u =
  if u <= 0.70 then 0.0
  else
    let x = (u -. 0.70) /. 0.28 in
    0.25 *. x *. x

let transmit t ?frame ~rng ~now:_ ~arrival ~bytes () =
  (* Wire-true invariant: when the caller threads the physical frame
     through the hop, the accounted size and the byte image must agree —
     accounting drift between the simulator's [bytes] and the codec's
     output is a bug, not a modeling choice. *)
  (match frame with
  | Some (fb, foff, flen) ->
    if flen <> bytes then
      invalid_arg "Link.transmit: frame length disagrees with accounted bytes";
    if foff < 0 || foff + flen > Bytes.length fb then
      invalid_arg "Link.transmit: frame slice out of range"
  | None -> ());
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    Dropped_down
  end
  else begin
    let ser = serialization t bytes in
    let start = Time.max arrival t.busy_until in
    let wait = Time.diff start arrival in
    (* The queue holds [queue_pkts] full-size packets' worth of service
       time regardless of the arriving packet's own size — otherwise a
       small acknowledgment waiting behind one data packet would already
       count as overflow. *)
    let queue_limit = t.queue_pkts * Stdlib.max 1 (serialization t t.mtu) in
    let early_drop = Rng.bernoulli rng (congestive_loss_probability t.background) in
    if wait > queue_limit || early_drop then begin
      t.dropped_queue <- t.dropped_queue + 1;
      Dropped_queue
    end
    else begin
      t.busy_until <- Time.add start ser;
      t.accepted <- t.accepted + 1;
      t.bytes_carried <- t.bytes_carried + bytes;
      let p_clean = (1.0 -. t.ber) ** float_of_int (bytes * 8) in
      let corrupted = Rng.bernoulli rng (1.0 -. p_clean) in
      if corrupted then t.corrupted_count <- t.corrupted_count + 1;
      Transmitted { departs = Time.add t.busy_until t.propagation; corrupted }
    end
  end

let utilization_estimate t ~now =
  let backlog = Time.diff t.busy_until now in
  let fg = if backlog <= 0 then 0.0 else Float.min 1.0 (float_of_int backlog /. 1e7) in
  Float.min 1.0 (t.background +. (fg *. (1.0 -. t.background)))

let queue_delay_estimate t ~now = Time.max 0 (Time.diff t.busy_until now)

let stats t =
  {
    accepted = t.accepted;
    dropped_queue = t.dropped_queue;
    dropped_down = t.dropped_down;
    corrupted = t.corrupted_count;
    bytes_carried = t.bytes_carried;
  }
