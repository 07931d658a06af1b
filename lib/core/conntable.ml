open Adaptive_sim

type entry_state = Half_open | Open | Time_wait

(* Slot states, kept as raw ints in a flat array so the probe loop touches
   one immediate-typed array per step. *)
let s_free = 0
let s_tomb = 1
let s_half = 2
let s_open = 3
let s_wait = 4

type 'a t = {
  mutable keys : int array;
  mutable states : int array;
  mutable values : 'a option array;
  mutable expiry : Time.t array; (* meaningful only for time-wait slots *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* half-open + open *)
  mutable half : int;
  mutable waiting : int;
  mutable tombs : int;
  mutable last_probes : int;
  (* Time-wait FIFO: [retire] appends (key, expiry) to a ring so the
     sweeper pops expired entries from the front — O(expired) per sweep
     instead of a full O(capacity) slot scan.  Expiries are pushed in
     non-decreasing order in practice (a constant quarantine added to the
     monotone clock); an out-of-order entry is still expired correctly,
     just no earlier than the entries queued ahead of it. *)
  mutable twq_keys : int array;
  mutable twq_exp : Time.t array;
  mutable twq_head : int;
  mutable twq_len : int;
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(initial_capacity = 16) () =
  let cap = pow2 (max 8 initial_capacity) 8 in
  {
    keys = Array.make cap 0;
    states = Array.make cap s_free;
    values = Array.make cap None;
    expiry = Array.make cap Time.zero;
    mask = cap - 1;
    live = 0;
    half = 0;
    waiting = 0;
    tombs = 0;
    last_probes = 0;
    twq_keys = Array.make 16 0;
    twq_exp = Array.make 16 Time.zero;
    twq_head = 0;
    twq_len = 0;
  }

let capacity t = t.mask + 1
let live_count t = t.live
let half_open_count t = t.half
let time_wait_count t = t.waiting
let occupancy t = float_of_int (t.live + t.waiting) /. float_of_int (capacity t)
let last_probes t = t.last_probes

(* Fibonacci-style multiplicative hash: connection ids are small dense
   integers, so a plain mask would cluster them into consecutive slots. *)
let slot_of t key = key * 0x2545F4914F6CDD1D land t.mask

(* The table is kept under 3/4 combined occupancy, so an empty slot always
   terminates the probe loop. *)
let find t key =
  let mask = t.mask in
  let states = t.states in
  let keys = t.keys in
  let i = ref (slot_of t key) in
  let probes = ref 1 in
  let result = ref (-2) in
  while !result = -2 do
    let s = Array.unsafe_get states !i in
    if s = s_free then result := -1
    else if s <> s_tomb && Array.unsafe_get keys !i = key then result := !i
    else begin
      i := (!i + 1) land mask;
      incr probes
    end
  done;
  t.last_probes <- !probes;
  !result

(* Same probe loop as [find] but without touching the demux telemetry:
   maintenance lookups (the time-wait sweeper) must not count as
   application demux work. *)
let find_silent t key =
  let mask = t.mask in
  let states = t.states in
  let keys = t.keys in
  let i = ref (slot_of t key) in
  let result = ref (-2) in
  while !result = -2 do
    let s = Array.unsafe_get states !i in
    if s = s_free then result := -1
    else if s <> s_tomb && Array.unsafe_get keys !i = key then result := !i
    else i := (!i + 1) land mask
  done;
  !result

let slot_state t slot =
  match t.states.(slot) with
  | 2 -> Half_open
  | 3 -> Open
  | 4 -> Time_wait
  | _ -> invalid_arg "Conntable.slot_state: empty slot"

let slot_value t slot =
  match t.values.(slot) with
  | Some v -> v
  | None -> invalid_arg "Conntable.slot_value: no live value at slot"

let find_live t key =
  let slot = find t key in
  if slot < 0 then None
  else match t.values.(slot) with Some _ as v -> v | None -> None

(* Locate the slot where [key] lives or should be inserted: an existing
   entry wins; otherwise the first tombstone on the probe path is reused. *)
let insertion_slot t key =
  let mask = t.mask in
  let i = ref (slot_of t key) in
  let first_tomb = ref (-1) in
  let result = ref (-2) in
  while !result = -2 do
    let s = t.states.(!i) in
    if s = s_free then result := (if !first_tomb >= 0 then !first_tomb else !i)
    else if s = s_tomb then begin
      if !first_tomb < 0 then first_tomb := !i;
      i := (!i + 1) land mask
    end
    else if t.keys.(!i) = key then result := !i
    else i := (!i + 1) land mask
  done;
  !result

let clear_slot t slot =
  (match t.states.(slot) with
  | 2 ->
    t.half <- t.half - 1;
    t.live <- t.live - 1
  | 3 -> t.live <- t.live - 1
  | 4 -> t.waiting <- t.waiting - 1
  | _ -> ());
  t.values.(slot) <- None

let rehash t cap =
  let old_states = t.states and old_keys = t.keys in
  let old_values = t.values and old_expiry = t.expiry in
  t.keys <- Array.make cap 0;
  t.states <- Array.make cap s_free;
  t.values <- Array.make cap None;
  t.expiry <- Array.make cap Time.zero;
  t.mask <- cap - 1;
  t.tombs <- 0;
  Array.iteri
    (fun i s ->
      if s >= s_half then begin
        let slot = insertion_slot t old_keys.(i) in
        t.keys.(slot) <- old_keys.(i);
        t.states.(slot) <- s;
        t.values.(slot) <- old_values.(i);
        t.expiry.(slot) <- old_expiry.(i)
      end)
    old_states

(* Tombstones count toward the 3/4 limit (they lengthen probes), but only
   entries still held justify more room: under churn the tombstones of
   long-gone sessions would otherwise double the table once per doubling
   of sessions ever opened.  So when live and time-wait entries fill less
   than half the table, rehash in place to drop the tombstones. *)
let maybe_grow t =
  let cap = t.mask + 1 in
  if (t.live + t.waiting + t.tombs) * 4 >= cap * 3 then
    rehash t (if (t.live + t.waiting) * 2 < cap then cap else cap * 2)

let insert t ~key ~half_open v =
  maybe_grow t;
  let slot = insertion_slot t key in
  (match t.states.(slot) with
  | s when s = s_tomb -> t.tombs <- t.tombs - 1
  | s when s >= s_half -> clear_slot t slot
  | _ -> ());
  t.keys.(slot) <- key;
  t.states.(slot) <- (if half_open then s_half else s_open);
  t.values.(slot) <- Some v;
  t.live <- t.live + 1;
  if half_open then t.half <- t.half + 1

let promote t key =
  let slot = find t key in
  if slot >= 0 && t.states.(slot) = s_half then begin
    t.states.(slot) <- s_open;
    t.half <- t.half - 1
  end

let twq_push t key expiry =
  let cap = Array.length t.twq_keys in
  if t.twq_len = cap then begin
    let keys = Array.make (cap * 2) 0 in
    let exp = Array.make (cap * 2) Time.zero in
    for i = 0 to t.twq_len - 1 do
      keys.(i) <- t.twq_keys.((t.twq_head + i) land (cap - 1));
      exp.(i) <- t.twq_exp.((t.twq_head + i) land (cap - 1))
    done;
    t.twq_keys <- keys;
    t.twq_exp <- exp;
    t.twq_head <- 0
  end;
  let tail = (t.twq_head + t.twq_len) land (Array.length t.twq_keys - 1) in
  t.twq_keys.(tail) <- key;
  t.twq_exp.(tail) <- expiry;
  t.twq_len <- t.twq_len + 1

let retire t ~key ~expiry =
  let slot = find_silent t key in
  if slot >= 0 && t.states.(slot) >= s_half && t.states.(slot) <> s_wait then begin
    clear_slot t slot;
    t.states.(slot) <- s_wait;
    t.waiting <- t.waiting + 1;
    t.expiry.(slot) <- expiry;
    twq_push t key expiry
  end

(* Pop expired entries off the FIFO front.  A queue entry may be stale —
   its key re-inserted or re-retired since — so the slot must still be in
   time-wait with an expiry that has actually passed before it is freed;
   a later re-retire has its own queue entry. *)
let sweep t ~now =
  let expired = ref 0 in
  let continue = ref true in
  while !continue && t.twq_len > 0 do
    let mask = Array.length t.twq_keys - 1 in
    let head = t.twq_head land mask in
    if Time.compare t.twq_exp.(head) now <= 0 then begin
      let key = t.twq_keys.(head) in
      t.twq_head <- (t.twq_head + 1) land mask;
      t.twq_len <- t.twq_len - 1;
      let slot = find_silent t key in
      if
        slot >= 0
        && t.states.(slot) = s_wait
        && Time.compare t.expiry.(slot) now <= 0
      then begin
        t.states.(slot) <- s_tomb;
        t.tombs <- t.tombs + 1;
        t.waiting <- t.waiting - 1;
        incr expired
      end
    end
    else continue := false
  done;
  !expired
