open Adaptive_sim

type 'm outgoing = {
  out_at : Time.t;
  out_dst : int;
  out_payload : 'm;
}

type stats = {
  windows : int;
  skipped_spans : int;
  exchanged : int;
  shard_wall_s : float array;
}

type 'm t = {
  window : Time.t;  (* W: minimum lookahead over all ordered pairs *)
  delta : Time.t array;  (* delta.(d): min over sources s<>d of L[s,d] *)
  partitions : int;
  run_to : int -> Time.t -> unit;
  drain : int -> 'm outgoing list;
  inject : int -> at:Time.t -> src:int -> 'm -> unit;
  next_deadline : (int -> Time.t option) option;
  clock : (unit -> float) option;
  (* Exchange batch, reused across windows.  Keys live in parallel int
     arrays ([Time.t] is an int count of nanoseconds) so a barrier sorts
     a reusable index permutation instead of building and sorting a
     fresh tuple list every window.  Unused slots keep [b_at = max_int]
     so they sink to the tail of the sort. *)
  mutable b_at : int array;
  mutable b_src : int array;
  mutable b_seq : int array;
  mutable b_ix : int array;
  mutable b_msg : 'm outgoing array;  (* length 0 until the first batch *)
  mutable st_windows : int;
  mutable st_skipped : int;
  mutable st_exchanged : int;
  mutable st_wall : float array;
}

let create ?pair_lookahead ?next_deadline ?clock ~lookahead ~partitions ~run_to
    ~drain ~inject () =
  if Time.compare lookahead Time.zero <= 0 then
    invalid_arg
      "Shard.create: lookahead must be positive — a zero-lookahead \
       cross-partition link admits no conservative synchronization window";
  if partitions < 1 then invalid_arg "Shard.create: partitions must be >= 1";
  (* Per-pair lookaheads refine the classical single-L window: the
     barrier still paces at the matrix minimum W, but each destination
     [d] may run ahead to [B + delta.(d)], the minimum over its incoming
     pairs — never less than W, so heterogeneous latencies only widen
     windows. *)
  let pair s d =
    match pair_lookahead with Some f -> f ~src:s ~dst:d | None -> lookahead
  in
  let delta = Array.make partitions lookahead in
  let window = ref lookahead in
  if partitions > 1 then begin
    for d = 0 to partitions - 1 do
      let m = ref max_int in
      for s = 0 to partitions - 1 do
        if s <> d then begin
          let l = pair s d in
          if Time.compare l Time.zero <= 0 then
            invalid_arg
              "Shard.create: per-pair lookahead must be positive — a \
               zero-lookahead cross-partition link admits no conservative \
               synchronization window";
          if Time.compare l !m < 0 then m := l
        end
      done;
      delta.(d) <- !m
    done;
    window := Array.fold_left Time.min delta.(0) delta
  end;
  {
    window = !window;
    delta;
    partitions;
    run_to;
    drain;
    inject;
    next_deadline;
    clock;
    b_at = [||];
    b_src = [||];
    b_seq = [||];
    b_ix = [||];
    b_msg = [||];
    st_windows = 0;
    st_skipped = 0;
    st_exchanged = 0;
    st_wall = [||];
  }

let ensure_capacity t n first =
  let cap = Array.length t.b_msg in
  if cap < n then begin
    let cap' = max 64 (max n (2 * cap)) in
    t.b_at <- Array.make cap' max_int;
    t.b_src <- Array.make cap' 0;
    t.b_seq <- Array.make cap' 0;
    t.b_ix <- Array.make cap' 0;
    t.b_msg <- Array.make cap' first
  end

(* One barrier exchange: drain every partition in index order, stamp each
   message with its (source, outbox position), and inject the union in
   canonical (arrival, source, sequence) order.  The sort key is total
   over distinct messages, so the injection order — and therefore every
   same-timestamp tie-break inside the destination engines — is the same
   whatever shard grouping produced the outboxes.

   [horizon d] is the simulated time partition [d] has already executed
   through in the window that just ran; the lookahead contract requires
   every arrival to land strictly beyond its destination's horizon. *)
let exchange t ~horizon =
  let n = ref 0 in
  let first = ref None in
  for p = 0 to t.partitions - 1 do
    let msgs = t.drain p in
    if msgs <> [] && !first = None then first := Some (List.hd msgs);
    (* Stage into the batch, growing it on first contact with this
       window's volume. *)
    List.iter
      (fun m ->
        ensure_capacity t (!n + 1) m;
        t.b_at.(!n) <- m.out_at;
        t.b_src.(!n) <- p;
        t.b_msg.(!n) <- m;
        incr n)
      msgs
  done;
  let n = !n in
  if n = 0 then 0
  else begin
    (* Outbox sequence numbers restart per source partition. *)
    let seq = ref 0 in
    let cur_src = ref (-1) in
    for i = 0 to n - 1 do
      if t.b_src.(i) <> !cur_src then begin
        cur_src := t.b_src.(i);
        seq := 0
      end;
      t.b_seq.(i) <- !seq;
      incr seq
    done;
    let cap = Array.length t.b_ix in
    for i = 0 to cap - 1 do
      t.b_ix.(i) <- i;
      if i >= n then t.b_at.(i) <- max_int
    done;
    let at = t.b_at and src = t.b_src and sq = t.b_seq in
    Array.sort
      (fun i j ->
        let c = compare at.(i) at.(j) in
        if c <> 0 then c
        else
          let c = compare src.(i) src.(j) in
          if c <> 0 then c else compare sq.(i) sq.(j))
      t.b_ix;
    for k = 0 to n - 1 do
      let i = t.b_ix.(k) in
      let m = t.b_msg.(i) in
      let a = t.b_at.(i) in
      if Time.compare a (horizon m.out_dst) <= 0 then
        failwith
          (Printf.sprintf
             "Shard.run: lookahead violated — partition %d emitted a message \
              arriving at %s, inside the window that just ran (ended %s); \
              every cross-partition path must have latency >= the lookahead"
             t.b_src.(i)
             (Format.asprintf "%a" Time.pp a)
             (Format.asprintf "%a" Time.pp (horizon m.out_dst)));
      if m.out_dst < 0 || m.out_dst >= t.partitions then
        failwith
          (Printf.sprintf "Shard.run: message addressed to unknown partition %d"
             m.out_dst);
      t.inject m.out_dst ~at:a ~src:t.b_src.(i) m.out_payload
    done;
    (* Drop payload references so a quiet stretch does not keep the last
       busy window's messages alive. *)
    (match !first with
    | Some f -> Array.fill t.b_msg 0 (Array.length t.b_msg) f
    | None -> ());
    n
  end

let run_on_pool t ~pool ~shards ~until =
  (* Fixed partition->shard grouping, round-robin.  The grouping affects
     only which domain executes a partition, never the result. *)
  let groups = Array.make shards [] in
  for p = t.partitions - 1 downto 0 do
    groups.(p mod shards) <- p :: groups.(p mod shards)
  done;
  let tagged = Array.mapi (fun i g -> (i, g)) groups in
  t.st_windows <- 0;
  t.st_skipped <- 0;
  t.st_exchanged <- 0;
  t.st_wall <- Array.make shards 0.0;
  let barrier = ref Time.zero in
  while Time.compare !barrier until < 0 do
    (* Each destination runs ahead to its own incoming-lookahead horizon:
       a message generated by [s] inside this window is generated after
       [B - W + delta.(s)], so it arrives after
       [B - W + delta.(s) + L[s,d] >= B + delta.(d)] — strictly beyond
       everything the destination executes here. *)
    let b = !barrier in
    let horizon d = Time.min until (Time.add b t.delta.(d)) in
    let exec (gi, group) =
      match t.clock with
      | None -> List.iter (fun p -> t.run_to p (horizon p)) group
      | Some c ->
        let t0 = c () in
        List.iter (fun p -> t.run_to p (horizon p)) group;
        (* Distinct slot per shard: no cross-domain contention. *)
        t.st_wall.(gi) <- t.st_wall.(gi) +. (c () -. t0)
    in
    (* Shards 1.. go to worker domains; shard 0 runs right here — the
       coordinating domain would otherwise sleep through every window,
       which on a single core turns each barrier into a pure context
       switch. *)
    let futures =
      Array.init (shards - 1) (fun i ->
          Pool.submit pool (fun () -> exec tagged.(i + 1)))
    in
    exec tagged.(0);
    Array.iter Pool.await futures;
    t.st_windows <- t.st_windows + 1;
    let n = exchange t ~horizon in
    t.st_exchanged <- t.st_exchanged + n;
    let step = Time.add b t.window in
    (* Skip-empty fast path: a barrier that exchanged nothing proves no
       cross-partition message is in flight, so every future event is
       already sitting in some partition's queue.  Jump the barrier to
       one window before the earliest pending deadline anywhere: the
       skipped span contains no events and no traffic, and the jump is a
       function of global engine state only, so it is identical at every
       shard count. *)
    let next =
      if n > 0 then step
      else
        match t.next_deadline with
        | None -> step
        | Some nd ->
          let earliest = ref max_int in
          for d = 0 to t.partitions - 1 do
            match nd d with
            | None -> ()
            | Some x -> if Time.compare x !earliest < 0 then earliest := x
          done;
          if !earliest = max_int then until (* quiescent: nothing will fire *)
          else
            let jump = Time.diff !earliest t.window in
            if Time.compare jump step > 0 then begin
              t.st_skipped <- t.st_skipped + 1;
              Time.min until jump
            end
            else step
    in
    barrier := next
  done;
  t.st_exchanged

let run t ~shards ~until =
  if shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  (* One pool for the whole run: a window is a few hundred microseconds
     of work, so spawning domains per window would dominate it. *)
  Pool.with_pool ~jobs:shards (fun pool -> run_on_pool t ~pool ~shards ~until)

let last_stats t =
  {
    windows = t.st_windows;
    skipped_spans = t.st_skipped;
    exchanged = t.st_exchanged;
    shard_wall_s = Array.copy t.st_wall;
  }
