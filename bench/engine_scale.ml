(* e8_engine_scale — scheduler scalability and allocation discipline.

   Models the timer churn of 10k concurrent transport sessions: every
   session owns a retransmission-style timer that re-arms itself on each
   expiry, and a quarter of expiries also reschedule a random peer's
   timer (the ack-cancels-retransmission pattern).  Delays are drawn
   mostly inside the wheel horizon with a heavy tail reaching the
   overflow heap.

   The identical deterministic workload is driven through two engines:

   - [wheel] — lib/sim's hierarchical timer wheel (the default backend);
   - [heap]  — the same engine forced onto its pure-heap backend.

   Reports events/sec and minor-heap words allocated per fired event.
   The comparison against the pre-wheel engine this one replaced (34.8
   words/event at 10k sessions, ~7500x the wheel's) is a recorded
   result, not re-run: see DESIGN.md §7. *)

open Adaptive_sim

(* Set by main.ml's --smoke flag: shrink the workload so the @bench-smoke
   alias finishes in seconds. *)
let smoke = ref false

module type ENGINE = sig
  type t
  type timer

  val create : unit -> t
  val run : ?until:Time.t -> ?max_events:int -> t -> unit
  val events_fired : t -> int
  val one_shot : t -> delay:Time.t -> (unit -> unit) -> timer
  val reschedule : timer -> delay:Time.t -> unit
end

module Wheel_engine = struct
  include Engine

  let create () = Engine.create ~backend:`Wheel ()
  type timer = Engine.Timer.timer

  let one_shot = Engine.Timer.one_shot
  let reschedule = Engine.Timer.reschedule
end

module Heap_engine = struct
  include Engine

  let create () = Engine.create ~backend:`Heap ()
  type timer = Engine.Timer.timer

  let one_shot = Engine.Timer.one_shot
  let reschedule = Engine.Timer.reschedule
end

type stats = {
  fired : int;
  elapsed_s : float;
  minor_words : float;
}

let words_per_event s = s.minor_words /. float_of_int (max 1 s.fired)

let events_per_sec s =
  if s.elapsed_s <= 0.0 then 0.0 else float_of_int s.fired /. s.elapsed_s

(* Session timer delays: mostly sub-10ms (wheel level 0/1), a tail into
   hundreds of ms (level 1), and a sliver of seconds-scale timeouts that
   land in the overflow heap. *)
let pick_delay rng =
  let p = Rng.float rng 1.0 in
  if p < 0.85 then Rng.int_in rng (Time.us 100) (Time.ms 10)
  else if p < 0.98 then Rng.int_in rng (Time.ms 10) (Time.ms 500)
  else Rng.int_in rng (Time.sec 3.0) (Time.sec 8.0)

module Churn (E : ENGINE) = struct
  (* Returns the engine too so callers can read backend-specific counters
     (E.t is left transparent on purpose). *)
  let run ~sessions ~fires ~seed =
    let rng = Rng.create seed in
    let engine = E.create () in
    let timers = Array.make sessions None in
    (* Pre-draw all randomness: the RNG itself allocates (boxed int64
       state words), and drawing inside the expiry callbacks would charge
       identical workload noise to every backend, drowning the engine
       difference the experiment is after.  The tables are consumed in
       fire order, which the equivalence property test pins to be the
       same for every backend, so each one sees the identical schedule. *)
    let mask = 0xFFFF in
    let delays = Array.init (mask + 1) (fun _ -> pick_delay rng) in
    let peers =
      Array.init (mask + 1) (fun _ ->
          if Rng.bernoulli rng 0.25 then Rng.int rng sessions else -1)
    in
    let didx = ref 0 and pidx = ref 0 in
    for i = 0 to sessions - 1 do
      let expire () =
        (match timers.(i) with
        | Some tm ->
          E.reschedule tm ~delay:delays.(!didx land mask);
          incr didx
        | None -> ());
        let j = peers.(!pidx land mask) in
        incr pidx;
        if j >= 0 then
          match timers.(j) with
          | Some tm ->
            E.reschedule tm ~delay:delays.(!didx land mask);
            incr didx
          | None -> ()
      in
      timers.(i) <- Some (E.one_shot engine ~delay:delays.(!didx land mask) expire);
      incr didx
    done;
    (* Setup (timer records, closures, initial inserts) is excluded: the
       criterion is about the steady-state churn path. *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    E.run ~max_events:fires engine;
    let elapsed_s = Sys.time () -. t0 in
    let minor_words = Gc.minor_words () -. w0 in
    ( {
        fired = E.events_fired engine;
        elapsed_s;
        minor_words;
      },
      engine )
end

module Churn_wheel = Churn (Wheel_engine)
module Churn_heap = Churn (Heap_engine)

let pf = Format.printf

let report name s =
  pf "  %-6s %9d events  %8.0f ev/s  %10.0f minor words  %6.2f words/event@."
    name s.fired (events_per_sec s) s.minor_words (words_per_event s)

(* Microbenchmark: the bare timer re-arm path — a single self-rescheduling
   timer with a fixed short delay, no churn, no randomness in the loop. *)
let micro_rearm () =
  let fires = if !smoke then 20_000 else 500_000 in
  pf "  micro: single timer, %d rearm+fire cycles, fixed 1ms delay@." fires;
  let measure name create one_shot reschedule run fired =
    let engine = create () in
    let tm = ref None in
    tm := Some (one_shot engine ~delay:(Time.ms 1) (fun () ->
        match !tm with Some t -> reschedule t ~delay:(Time.ms 1) | None -> ()));
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    run engine;
    let dt = Sys.time () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let n = float_of_int (fired engine) in
    pf "  %-6s %7.1f ns/cycle  %6.2f words/cycle@." name
      (dt *. 1e9 /. n) (dw /. n)
  in
  measure "wheel" Wheel_engine.create Wheel_engine.one_shot
    Wheel_engine.reschedule
    (fun e -> Wheel_engine.run ~max_events:fires e)
    Wheel_engine.events_fired;
  measure "heap" Heap_engine.create Heap_engine.one_shot Heap_engine.reschedule
    (fun e -> Heap_engine.run ~max_events:fires e)
    Heap_engine.events_fired

let e8_engine_scale () =
  let sessions = if !smoke then 500 else 10_000 in
  let fires = if !smoke then 10_000 else 300_000 in
  let seed = 0xADA9 in
  pf "@.== e8_engine_scale: timer churn of %d concurrent sessions (%d events)%s ==@."
    sessions fires (if !smoke then " [smoke]" else "");
  let wheel, wheel_engine = Churn_wheel.run ~sessions ~fires ~seed in
  let heap, _ = Churn_heap.run ~sessions ~fires ~seed in
  report "wheel" wheel;
  report "heap" heap;
  pf "  wheel hit rate %.3f, cancelled ratio %.3f@."
    (Engine.wheel_hit_rate wheel_engine)
    (Engine.cancelled_ratio wheel_engine);
  Util.shape_check
    (Printf.sprintf "wheel steady state allocates < 1 word/event (%.3f)"
       (words_per_event wheel))
    (words_per_event wheel < 1.0);
  micro_rearm ()
