open Adaptive_sim

type t = {
  engine : Engine.t;
  per_packet : Time.t;
  per_byte_copy : Time.t;
  speed : float;
  copy_count : int;
  mutable busy : Time.t;
  mutable busy_expedited : Time.t;
  mutable accumulated : Time.t;
  mutable packet_count : int;
  mutable stall_extra : Time.t;
}

let create ?(per_packet = Time.us 100) ?(per_byte_copy = Time.ns 25) ?(copies = 2)
    ?(speed = 1.0) engine =
  if speed <= 0.0 then invalid_arg "Host.create: non-positive speed";
  {
    engine;
    per_packet;
    per_byte_copy;
    speed;
    copy_count = copies;
    busy = Time.zero;
    busy_expedited = Time.zero;
    accumulated = Time.zero;
    packet_count = 0;
    stall_extra = Time.zero;
  }

let zero_cost engine = create ~per_packet:Time.zero ~per_byte_copy:Time.zero ~copies:0 engine

let process t ~bytes ?(extra = Time.zero) ?(expedited = false) () =
  let now = Engine.now t.engine in
  let nominal =
    Time.add t.per_packet
      (Time.add t.stall_extra
         (Time.add extra (t.copy_count * bytes * t.per_byte_copy)))
  in
  (* [speed] divides the WHOLE per-packet cost — including the caller's
     [extra] (checksum verification, instrumentation) and fault stalls.
     Scaling only the fixed components would leave the per-byte extras
     as an unscaled floor that quietly becomes the binding constraint of
     population-scale experiments. *)
  let cost =
    if t.speed = 1.0 then nominal
    else
      Time.ns
        (Stdlib.max 0
           (int_of_float (Float.round (float_of_int nominal /. t.speed))))
  in
  t.accumulated <- Time.add t.accumulated cost;
  t.packet_count <- t.packet_count + 1;
  if expedited then begin
    (* Jumps the bulk backlog; bulk work completes no earlier than the
       expedited work that preempted it. *)
    let start = Time.max now t.busy_expedited in
    let finish = Time.add start cost in
    t.busy_expedited <- finish;
    t.busy <- Time.max t.busy finish;
    finish
  end
  else begin
    let start = Time.max now t.busy in
    let finish = Time.add start cost in
    t.busy <- finish;
    finish
  end

let set_stall t extra = t.stall_extra <- Time.max Time.zero extra
let busy_until t = t.busy
let total_busy t = t.accumulated
let packets t = t.packet_count
