(* Discrete-event engine: hierarchical timer wheel + heap tiers.

   Transport workloads arm far more timers than they expire: every
   in-flight segment re-arms a retransmission timer that is almost always
   cancelled by an acknowledgment first.  The event queue is therefore
   organized in three tiers:

   - [ready]   — a small binary heap ordered by (deadline, seq) holding
                 only events at or below the wheel watermark tick; the
                 next event to fire is always its root.
   - wheel     — two levels of 256 slots (2^16 ns ≈ 65 µs ticks, so
                 level 0 spans ~16.8 ms and level 1 ~4.3 s) of
                 doubly-linked lists.  Insert and cancel are O(1); a
                 cancelled timer is unlinked immediately and never touches
                 a heap.
   - [overflow]— a heap for events beyond the wheel horizon.  Cancelled
                 entries in either heap die lazily and are compacted out
                 eagerly once they exceed half the heap.

   Events are ordered globally by (deadline, seq) with [seq] assigned at
   (re)schedule time, so the wheel path fires the exact sequence the pure
   heap path would — the equivalence property test in [test_sim.ml]
   checks this on randomized schedule/cancel/reschedule workloads.

   An event is an int id into a slab of parallel arrays: its deadline,
   seq, tier location and wheel-list links are [int array] slots, and
   its action sits in one closure array.  Heap entries, wheel
   slot heads, list links and the free list are all ids, so linking,
   unlinking and sifting store no pointer: in OCaml 5 every pointer store
   into a mutable block runs the write barrier ([caml_modify]), and
   during a major mark phase darkens the value it overwrites.  The only
   pointer stores per event are writing its action at schedule and
   clearing it at fire or cancel.

   An id is freed (pushed on a LIFO free list) the moment its event fires
   or is cancelled, so the slab is as large as the peak number of pending
   events.  Freeing sets the id's seq to [dead].  Seqs are never reused,
   so the seq is the id's generation stamp: a heap entry, handle or
   timer holding an (id, seq) pair reads stale once the event fires or
   is cancelled, and stays stale after the id is reused. *)

let slot_bits = 8
let num_slots = 1 lsl slot_bits
let slot_mask = num_slots - 1
let tick_shift = 16

(* Locations an event can occupy. *)
let loc_none = -1
let loc_ready = -2
let loc_overflow = -3

(* The empty link: no event, or the end of a list. *)
let nil = -1

(* The seq of a free id; every scheduled event's seq is >= 0. *)
let dead = -1

let initial_slots = 64
let noop () = ()

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  use_wheel : bool;
  ready : Heap.t;
  mutable ready_dead : int;
  overflow : Heap.t;
  mutable overflow_dead : int;
  (* the event slab, indexed by id *)
  mutable deadline : Time.t array;
  mutable seq : int array; (* assigned per (re)schedule; [dead] when free *)
  mutable loc : int array; (* loc_* or wheel position [level*256 + slot] *)
  mutable prev : int array; (* wheel-slot list links *)
  mutable next : int array; (* wheel-slot list links; free-list link *)
  mutable action : (unit -> unit) array;
  mutable free : int; (* head of the free-id list *)
  slots : int array; (* list heads; [0,256): level 0; [256,512): level 1 *)
  mutable c0 : int; (* events resident in level 0 *)
  mutable c1 : int; (* events resident in level 1 *)
  mutable wtick : int; (* watermark: events at ticks <= wtick are in [ready] *)
  mutable live_count : int;
  mutable fired : int;
  (* whitebox counters *)
  mutable rearmed : int;
  mutable wheel_inserts : int;
  mutable ready_inserts : int;
  mutable overflow_inserts : int;
  mutable wheel_cancels : int;
  mutable lazy_cancels : int;
  mutable cascades : int;
  mutable compactions : int;
}

type handle = { engine : t; id : int; stamp : int (* the event's seq *) }

(* Chain ids [lo, hi) onto the free list, lowest id on top. *)
let free_range t lo hi =
  for id = hi - 1 downto lo do
    t.next.(id) <- t.free;
    t.free <- id
  done

let create ?(backend = `Wheel) () =
  let t =
    {
      clock = Time.zero;
      next_seq = 0;
      use_wheel = (backend = `Wheel);
      ready = Heap.create ();
      ready_dead = 0;
      overflow = Heap.create ();
      overflow_dead = 0;
      deadline = Array.make initial_slots 0;
      seq = Array.make initial_slots dead;
      loc = Array.make initial_slots loc_none;
      prev = Array.make initial_slots nil;
      next = Array.make initial_slots nil;
      action = Array.make initial_slots noop;
      free = nil;
      slots = Array.make (2 * num_slots) nil;
      c0 = 0;
      c1 = 0;
      wtick = 0;
      live_count = 0;
      fired = 0;
      rearmed = 0;
      wheel_inserts = 0;
      ready_inserts = 0;
      overflow_inserts = 0;
      wheel_cancels = 0;
      lazy_cancels = 0;
      cascades = 0;
      compactions = 0;
    }
  in
  free_range t 0 initial_slots;
  t

let now t = t.clock

(* Double the slab and chain the new ids onto the (empty) free list. *)
let grow t =
  let n = Array.length t.seq in
  t.deadline <- Heap.extend t.deadline (2 * n) ~fill:0;
  t.seq <- Heap.extend t.seq (2 * n) ~fill:dead;
  t.loc <- Heap.extend t.loc (2 * n) ~fill:loc_none;
  t.prev <- Heap.extend t.prev (2 * n) ~fill:nil;
  t.next <- Heap.extend t.next (2 * n) ~fill:nil;
  let action = Array.make (2 * n) noop in
  Array.blit t.action 0 action 0 n;
  t.action <- action;
  free_range t n (2 * n)

(* Take an id off the free list and give it [f]. *)
let alloc t f =
  if t.free = nil then grow t;
  let id = t.free in
  t.free <- t.next.(id);
  t.next.(id) <- nil;
  t.action.(id) <- f;
  id

(* Return a fired or cancelled id.  Its seq is already [dead]. *)
let release t id =
  t.loc.(id) <- loc_none;
  t.action.(id) <- noop;
  t.next.(id) <- t.free;
  t.free <- id

(* ------------------------------------------------------------ wheel ops *)

let wheel_link t id pos =
  let head = t.slots.(pos) in
  t.prev.(id) <- nil;
  t.next.(id) <- head;
  if head <> nil then t.prev.(head) <- id;
  t.slots.(pos) <- id;
  t.loc.(id) <- pos

let wheel_unlink t id =
  let pos = t.loc.(id) and p = t.prev.(id) and n = t.next.(id) in
  if p = nil then t.slots.(pos) <- n else t.next.(p) <- n;
  if n <> nil then t.prev.(n) <- p;
  t.prev.(id) <- nil;
  t.next.(id) <- nil;
  t.loc.(id) <- loc_none;
  if pos < num_slots then t.c0 <- t.c0 - 1 else t.c1 <- t.c1 - 1

let push_ready t id =
  Heap.push t.ready ~key:t.deadline.(id) ~seq:t.seq.(id) id;
  t.loc.(id) <- loc_ready

(* Route a freshly (re)armed event to its tier. *)
let enqueue t id =
  if not t.use_wheel then begin
    push_ready t id;
    t.ready_inserts <- t.ready_inserts + 1
  end
  else begin
    let tk = Time.ticks t.deadline.(id) ~shift:tick_shift in
    if tk <= t.wtick then begin
      push_ready t id;
      t.ready_inserts <- t.ready_inserts + 1
    end
    else begin
      let rel = tk - t.wtick in
      if rel <= num_slots then begin
        wheel_link t id (tk land slot_mask);
        t.c0 <- t.c0 + 1;
        t.wheel_inserts <- t.wheel_inserts + 1
      end
      else if rel <= num_slots * num_slots then begin
        wheel_link t id (num_slots + ((tk asr slot_bits) land slot_mask));
        t.c1 <- t.c1 + 1;
        t.wheel_inserts <- t.wheel_inserts + 1
      end
      else begin
        Heap.push t.overflow ~key:t.deadline.(id) ~seq:t.seq.(id) id;
        t.loc.(id) <- loc_overflow;
        t.overflow_inserts <- t.overflow_inserts + 1
      end
    end
  end

(* ------------------------------------------------- cancellation + GC *)

let dead_pending t = t.ready_dead + t.overflow_dead

(* A heap entry is live while its id still carries the entry's seq. *)
let compact t heap ~keep_stat =
  Heap.filter_in_place heap ~f:(fun _key sq id -> t.seq.(id) = sq);
  t.compactions <- t.compactions + 1;
  keep_stat ()

let maybe_compact_ready t =
  if t.ready_dead > 64 && 2 * t.ready_dead > Heap.length t.ready then
    compact t t.ready ~keep_stat:(fun () -> t.ready_dead <- 0)

let maybe_compact_overflow t =
  if t.overflow_dead > 64 && 2 * t.overflow_dead > Heap.length t.overflow then
    compact t t.overflow ~keep_stat:(fun () -> t.overflow_dead <- 0)

(* Cancel a pending event and free its id.  The seq dies first, so a
   compaction triggered here already sweeps the id's heap entry. *)
let cancel_event t id =
  t.seq.(id) <- dead;
  t.live_count <- t.live_count - 1;
  let loc = t.loc.(id) in
  if loc >= 0 then begin
    wheel_unlink t id;
    t.wheel_cancels <- t.wheel_cancels + 1
  end
  else if loc = loc_ready then begin
    t.ready_dead <- t.ready_dead + 1;
    t.lazy_cancels <- t.lazy_cancels + 1;
    maybe_compact_ready t
  end
  else if loc = loc_overflow then begin
    t.overflow_dead <- t.overflow_dead + 1;
    t.lazy_cancels <- t.lazy_cancels + 1;
    maybe_compact_overflow t
  end;
  release t id

(* ------------------------------------------------------------- refill *)

let ready_live t = Heap.length t.ready - t.ready_dead

(* Pull overflow entries that have come inside the watermark. *)
let drain_overflow t =
  while
    (not (Heap.is_empty t.overflow))
    && Time.ticks (Heap.top_key t.overflow) ~shift:tick_shift <= t.wtick
  do
    let id = Heap.top_value t.overflow in
    let sq = Heap.top_seq t.overflow in
    Heap.drop_top t.overflow;
    if t.seq.(id) = sq then push_ready t id
    else t.overflow_dead <- t.overflow_dead - 1
  done

(* Move every event of an expired level-0 slot into [ready]; all entries
   of one slot share a single tick, which equals [t.wtick] when called. *)
let flush_l0_slot t pos =
  let id = ref t.slots.(pos) in
  t.slots.(pos) <- nil;
  while !id <> nil do
    let cur = !id in
    id := t.next.(cur);
    t.prev.(cur) <- nil;
    t.next.(cur) <- nil;
    t.c0 <- t.c0 - 1;
    push_ready t cur
  done

(* Redistribute the level-1 slot whose 256-tick window starts at
   [t.wtick]: ticks equal to the watermark go to [ready], the rest fan
   out into level 0. *)
let cascade_l1 t =
  let pos = num_slots + ((t.wtick asr slot_bits) land slot_mask) in
  let id = ref t.slots.(pos) in
  t.slots.(pos) <- nil;
  if !id <> nil then t.cascades <- t.cascades + 1;
  while !id <> nil do
    let cur = !id in
    id := t.next.(cur);
    t.prev.(cur) <- nil;
    t.next.(cur) <- nil;
    t.c1 <- t.c1 - 1;
    let tk = Time.ticks t.deadline.(cur) ~shift:tick_shift in
    if tk <= t.wtick then push_ready t cur
    else begin
      wheel_link t cur (tk land slot_mask);
      t.c0 <- t.c0 + 1
    end
  done

(* Advance the watermark until [ready] holds a live event (or nothing is
   queued outside it).  Each iteration jumps to the next candidate tick:
   the earliest occupied level-0 slot, the next level-1 cascade boundary,
   or the earliest overflow entry — whichever comes first. *)
let refill t =
  if t.use_wheel then
    while
      ready_live t = 0 && (t.c0 > 0 || t.c1 > 0 || not (Heap.is_empty t.overflow))
    do
      if t.c0 = 0 && t.c1 = 0 then begin
        (* Wheels empty: jump straight to the overflow's earliest tick. *)
        let tk = Time.ticks (Heap.top_key t.overflow) ~shift:tick_shift in
        if tk > t.wtick then t.wtick <- tk;
        drain_overflow t
      end
      else begin
        let boundary = ((t.wtick asr slot_bits) + 1) lsl slot_bits in
        let target = ref boundary in
        if t.c0 > 0 then begin
          let d = ref 1 in
          let limit = boundary - t.wtick in
          let found = ref 0 in
          while !found = 0 && !d <= limit do
            let tk = t.wtick + !d in
            if t.slots.(tk land slot_mask) <> nil then found := tk;
            incr d
          done;
          if !found <> 0 then target := !found
        end;
        if not (Heap.is_empty t.overflow) then begin
          let otk = Time.ticks (Heap.top_key t.overflow) ~shift:tick_shift in
          if otk < !target then target := otk
        end;
        t.wtick <- !target;
        if !target = boundary then cascade_l1 t;
        flush_l0_slot t (!target land slot_mask);
        drain_overflow t
      end
    done

(* Deadline of the next live event, or [max_int] when none is pending.
   Stale heads of [ready] are discarded on the way. *)
let next_live_deadline t =
  if ready_live t = 0 then refill t;
  if ready_live t = 0 then max_int
  else begin
    while t.seq.(Heap.top_value t.ready) <> Heap.top_seq t.ready do
      Heap.drop_top t.ready;
      t.ready_dead <- t.ready_dead - 1
    done;
    Heap.top_key t.ready
  end

(* ---------------------------------------------------------- scheduling *)

(* Schedule [f] at [at] under a fresh id. *)
let schedule_fn t ~at f =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  let id = alloc t f in
  t.deadline.(id) <- at;
  t.seq.(id) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
  enqueue t id;
  id

let schedule t ~at f =
  let id = schedule_fn t ~at f in
  { engine = t; id; stamp = t.seq.(id) }

(* Fire-and-forget scheduling: no handle, so nothing is allocated per
   event.  The hot data paths (packet delivery, ingress dispatch)
   schedule hundreds of thousands of these. *)
let schedule_anon t ~at f = ignore (schedule_fn t ~at f : int)

let schedule_after t ~delay f = schedule t ~at:(Time.add t.clock delay) f

(* The id carries the event's seq exactly while the event is pending. *)
let is_pending h = h.engine.seq.(h.id) = h.stamp
let cancel h = if is_pending h then cancel_event h.engine h.id

let rec pop_live t =
  let id = Heap.top_value t.ready in
  let sq = Heap.top_seq t.ready in
  Heap.drop_top t.ready;
  if t.seq.(id) = sq then id
  else begin
    t.ready_dead <- t.ready_dead - 1;
    pop_live t
  end

let step t =
  if ready_live t = 0 then refill t;
  if ready_live t = 0 then false
  else begin
    let id = pop_live t in
    t.live_count <- t.live_count - 1;
    t.clock <- t.deadline.(id);
    t.fired <- t.fired + 1;
    let action = t.action.(id) in
    (* Free before running: the action may re-enter the scheduler and
       take this very id. *)
    t.seq.(id) <- dead;
    release t id;
    action ();
    true
  end

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let limit = match until with None -> max_int | Some l -> l in
  let continue () =
    !budget > 0
    &&
    let at = next_live_deadline t in
    at <> max_int && at <= limit
  in
  while continue () do
    if step t then decr budget
  done;
  match until with
  | Some l when t.clock < l && !budget > 0 -> t.clock <- l
  | Some _ | None -> ()

let pending_events t = t.live_count
let events_fired t = t.fired

let next_deadline t =
  match next_live_deadline t with
  | d when d = max_int -> None
  | d -> Some d

(* --------------------------------------------------- whitebox counters *)

type counters = {
  events_fired : int;
  timers_rearmed : int;
  wheel_inserts : int;
  ready_inserts : int;
  overflow_inserts : int;
  wheel_cancels : int;
  lazy_cancels : int;
  cascades : int;
  compactions : int;
  dead_entries : int;
  event_slots : int;
}

let counters t =
  {
    events_fired = t.fired;
    timers_rearmed = t.rearmed;
    wheel_inserts = t.wheel_inserts;
    ready_inserts = t.ready_inserts;
    overflow_inserts = t.overflow_inserts;
    wheel_cancels = t.wheel_cancels;
    lazy_cancels = t.lazy_cancels;
    cascades = t.cascades;
    compactions = t.compactions;
    dead_entries = dead_pending t;
    event_slots = Array.length t.seq;
  }

let wheel_hit_rate (t : t) =
  let total = t.wheel_inserts + t.ready_inserts + t.overflow_inserts in
  if total = 0 then 0.0 else float_of_int t.wheel_inserts /. float_of_int total

let cancelled_ratio (t : t) =
  let queued = Heap.length t.ready + Heap.length t.overflow + t.c0 + t.c1 in
  if queued = 0 then 0.0 else float_of_int (dead_pending t) /. float_of_int queued

(* -------------------------------------------------------------- timers *)

module Timer = struct
  type timer = {
    engine : t;
    mutable id : int; (* the id of the timer's latest arm *)
    mutable stamp : int; (* the seq of its latest arm *)
    mutable period : Time.t; (* 0 = one-shot *)
    mutable count : int;
    callback : unit -> unit;
    fire : unit -> unit; (* [expire] of this timer, built once *)
  }

  let is_active timer = timer.engine.seq.(timer.id) = timer.stamp
  let pending = function Some timer -> is_active timer | None -> false

  let arm timer ~at =
    let t = timer.engine in
    let id = schedule_fn t ~at timer.fire in
    timer.id <- id;
    timer.stamp <- t.seq.(id)

  (* Arm the timer under a fresh id with its own closure: fresh seq, no
     allocation. *)
  let rearm timer delay =
    let t = timer.engine in
    t.rearmed <- t.rearmed + 1;
    arm timer ~at:(Time.add t.clock delay)

  let expire timer =
    timer.count <- timer.count + 1;
    (* Periodic timers re-arm before the callback runs, so events the
       callback schedules at the same instant fire after the next tick —
       same FIFO order as the seed engine. *)
    if timer.period > 0 then rearm timer timer.period;
    timer.callback ()

  let make engine ~period ~delay f =
    let rec timer =
      { engine; id = 0; stamp = dead; period; count = 0; callback = f;
        fire = (fun () -> expire timer) }
    in
    arm timer ~at:(Time.add engine.clock delay);
    timer

  let one_shot engine ~delay f = make engine ~period:0 ~delay f

  let periodic engine ~interval f =
    if interval <= 0 then invalid_arg "Timer.periodic: non-positive interval";
    make engine ~period:interval ~delay:interval f

  let cancel timer =
    if is_active timer then cancel_event timer.engine timer.id;
    timer.period <- 0

  let reschedule timer ~delay =
    if is_active timer then cancel_event timer.engine timer.id;
    rearm timer delay

  let restart engine cell ~delay handler x =
    match cell with
    | Some timer ->
      reschedule timer ~delay;
      cell
    | None -> Some (one_shot engine ~delay (fun () -> handler x))

  let expirations timer = timer.count
end
