type estimator = Reservoir | P2

(* The P² algorithm (Jain & Chlamtac 1985): one 5-marker structure per
   target quantile, updated in O(1) per observation with no stored
   samples.  The markers track the running estimate of the quantile and
   of four bracketing positions; heights move by parabolic (falling back
   to linear) interpolation as desired marker positions drift.

   Marker targets are exactly the quantiles {!summary} reports.  A P²
   accumulator keeps all its floats in the one array [t.q]: the moments
   at [0..4] (see [q_mean]), the first five samples at [p2_head ..
   p2_head+4], the deferral count described at {!add} at [p2_run], and,
   from the fifth sample on, the three marker structures.  Marker [j]
   (target [p2_targets.(j)]) owns [b .. b+19] with [b = p2_base + 20j],
   holding its heights at [+0..4], actual positions (1-based) at
   [+5..9], desired positions at [+10..14] and desired-position
   increments at [+15..19].  The array starts at [p2_base] floats and
   grows once, to [p2_size], at the fifth sample.  Index arithmetic is
   written inline: a helper closure per field would cost a call per
   access in builds without cross-module inlining. *)
let p2_targets = [| 0.50; 0.95; 0.99 |]

let p2_head = 5
let p2_run = 10
let p2_base = 11
let p2_size = p2_base + 60

(* [x] has the bits of [c], which is finite and not [-0.0]. *)
let continues_run c x =
  x = c && c -. c = 0.0 && (c <> 0.0 || not (Float.sign_bit c || Float.sign_bit x))

(* The full-size array for the fifth sample: [q] copied, and the markers
   seeded from its five samples in ascending order. *)
let p2_grow q =
  let mk = Array.make p2_size 0.0 in
  Array.blit q 0 mk 0 p2_base;
  let sorted5 = Array.sub q p2_head 5 in
  Array.sort Float.compare sorted5;
  for j = 0 to 2 do
    let b = p2_base + (20 * j) and q = p2_targets.(j) in
    Array.blit sorted5 0 mk b 5;
    for i = 0 to 4 do
      mk.(b + 5 + i) <- float_of_int (i + 1)
    done;
    mk.(b + 10) <- 1.0;
    mk.(b + 11) <- 1.0 +. (2.0 *. q);
    mk.(b + 12) <- 1.0 +. (4.0 *. q);
    mk.(b + 13) <- 3.0 +. (2.0 *. q);
    mk.(b + 14) <- 5.0;
    mk.(b + 15) <- 0.0;
    mk.(b + 16) <- q /. 2.0;
    mk.(b + 17) <- q;
    mk.(b + 18) <- (1.0 +. q) /. 2.0;
    mk.(b + 19) <- 1.0
  done;
  let c = sorted5.(0) in
  mk.(p2_run) <- (if Array.for_all (continues_run c) sorted5 then 0.0 else -1.0);
  mk

let p2_add mk x =
  for j = 0 to 2 do
    let b = p2_base + (20 * j) in
    let k =
      if x < Array.unsafe_get mk b then begin
        Array.unsafe_set mk b x;
        0
      end
      else if x >= Array.unsafe_get mk (b + 4) then begin
        Array.unsafe_set mk (b + 4) x;
        3
      end
      else begin
        let k = ref 0 in
        for i = 1 to 3 do
          if x >= Array.unsafe_get mk (b + i) then k := i
        done;
        !k
      end
    in
    for i = b + 6 + k to b + 9 do
      Array.unsafe_set mk i (Array.unsafe_get mk i +. 1.0)
    done;
    for i = b + 10 to b + 14 do
      Array.unsafe_set mk i (Array.unsafe_get mk i +. Array.unsafe_get mk (i + 5))
    done;
    for i = b + 1 to b + 3 do
      (* [i] is the height slot; its position is at [i + 5], its desired
         position at [i + 10]. *)
      let ni = Array.unsafe_get mk (i + 5) in
      let np1 = Array.unsafe_get mk (i + 6) and nm1 = Array.unsafe_get mk (i + 4) in
      let d = Array.unsafe_get mk (i + 10) -. ni in
      if (d >= 1.0 && np1 -. ni > 1.0) || (d <= -1.0 && nm1 -. ni < -1.0) then begin
        let s = if d >= 0.0 then 1.0 else -1.0 in
        let hi = Array.unsafe_get mk i
        and hp = Array.unsafe_get mk (i + 1)
        and hm = Array.unsafe_get mk (i - 1) in
        let parabolic =
          hi
          +. s /. (np1 -. nm1)
             *. (((ni -. nm1 +. s) *. (hp -. hi) /. (np1 -. ni))
                +. ((np1 -. ni -. s) *. (hi -. hm) /. (ni -. nm1)))
        in
        let next =
          if hm < parabolic && parabolic < hp then parabolic
          else if s > 0.0 then hi +. ((hp -. hi) /. (np1 -. ni))
          else hi -. ((hm -. hi) /. (nm1 -. ni))
        in
        Array.unsafe_set mk i next;
        Array.unsafe_set mk (i + 5) (ni +. s)
      end
    done
  done

(* [c] is a parameter so that it is boxed once, not once per add. *)
let p2_replay mk c n =
  for _ = 1 to n do
    p2_add mk c
  done

(* P² work on constant streams is deferred.  While every sample so far
   has the bits of one finite value [c] other than [-0.0], every marker
   height is [c], and adding [c] again leaves each height bit-identical:
   the parabolic and linear steps compute [c +. 0.0] or [c -. 0.0], and
   only the marker positions move.  So past the fifth sample such adds
   are only counted, in [q.(p2_run)]; the first differing sample replays
   them, same operations in the same order, before its own update.
   Every read (quantiles, summaries, merges) looks at heights and
   extrema only, so it is exact with adds still pending.  The count is
   [-1.0] once the stream has two distinct values, or when [c] is NaN,
   infinite ([inf -. inf] is NaN) or [-0.0] ([-0.0 +. 0.0] is [+0.0]).

   A reservoir keeps its sample outside [q]; a P² accumulator is the
   record and its one float array.  Scalar moments live in a float
   array rather than mutable record fields: a record mixing [n : int]
   with mutable floats keeps the floats boxed, so every [add] would
   allocate three fresh boxes on the minor heap.  Float-array stores
   are unboxed and run no write barrier. *)
type store =
  | Res of { data : float array; mutable stored : int; rng : Rng.t }
  | Stream

type t = { mutable n : int; mutable q : float array; store : store }

let q_mean = 0
and q_m2 = 1
and q_sum = 2
and q_mn = 3
and q_mx = 4

let create ?(estimator = Reservoir) ?(reservoir = 8192) ?(seed = 0x5747) () =
  match estimator with
  | Reservoir ->
    { n = 0; q = [| 0.0; 0.0; 0.0; infinity; neg_infinity |];
      store = Res { data = Array.make reservoir 0.0; stored = 0; rng = Rng.create seed } }
  | P2 ->
    (* The markers materialize once five observations arrive: most
       per-session accumulators in a churning swarm see a handful of
       samples, and the 60 marker floats would dominate short-lived
       sessions' allocation. *)
    let q = Array.make p2_base 0.0 in
    q.(q_mn) <- infinity;
    q.(q_mx) <- neg_infinity;
    { n = 0; q; store = Stream }

let estimator_kind t = match t.store with Res _ -> Reservoir | Stream -> P2

let reservoir_capacity t =
  match t.store with Res r -> Array.length r.data | Stream -> 8

let add t x =
  t.n <- t.n + 1;
  let q = t.q in
  q.(q_sum) <- q.(q_sum) +. x;
  let delta = x -. q.(q_mean) in
  q.(q_mean) <- q.(q_mean) +. (delta /. float_of_int t.n);
  q.(q_m2) <- q.(q_m2) +. (delta *. (x -. q.(q_mean)));
  if x < q.(q_mn) then q.(q_mn) <- x;
  if x > q.(q_mx) then q.(q_mx) <- x;
  match t.store with
  | Res r ->
    let cap = Array.length r.data in
    if r.stored < cap then begin
      r.data.(r.stored) <- x;
      r.stored <- r.stored + 1
    end
    else
      (* Vitter's algorithm R keeps a uniform sample of the stream. *)
      let j = Rng.int r.rng t.n in
      if j < cap then r.data.(j) <- x
  | Stream ->
    if t.n <= 5 then begin
      q.(p2_head + t.n - 1) <- x;
      if t.n = 5 then t.q <- p2_grow q
    end
    else begin
      let c = q.(p2_head) in
      let run = q.(p2_run) in
      (* A run is live only for an eligible [c], so bit equality is the
         whole test; it is spelt out here because a call would box [c]. *)
      if run >= 0.0 && x = c && (c <> 0.0 || not (Float.sign_bit x)) then
        q.(p2_run) <- run +. 1.0
      else begin
        if run > 0.0 then p2_replay q c (int_of_float run);
        q.(p2_run) <- -1.0;
        p2_add q x
      end
    end

let count t = t.n
let total t = t.q.(q_sum)
let mean t = if t.n = 0 then nan else t.q.(q_mean)
let variance t = if t.n < 2 then nan else t.q.(q_m2) /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then nan else t.q.(q_mn)
let max_value t = if t.n = 0 then nan else t.q.(q_mx)

(* Linear interpolation at [q] in an ascending sample. *)
let interp_sorted xs q =
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let pos = q *. float_of_int (Array.length xs - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then xs.(lo)
  else
    let w = pos -. float_of_int lo in
    (xs.(lo) *. (1.0 -. w)) +. (xs.(hi) *. w)

let sorted_sub xs off len =
  let s = Array.sub xs off len in
  Array.sort Float.compare s;
  s

(* P² read-out: piecewise-linear through (0, min), the marker estimates,
   and (1, max).  Running max keeps the curve monotone even if marker
   heights cross on an adversarial stream.  The points are walked in
   place rather than collected as tuples. *)
let p2_quantile t q =
  let mk = t.q in
  let mn = mk.(q_mn) and mx = mk.(q_mx) in
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let nm = Array.length p2_targets in
  let x0 = ref 0.0 and y0 = ref mn and level = ref mn in
  let result = ref mx and i = ref 0 in
  while !i <= nm do
    let last = !i = nm in
    let x1 = if last then 1.0 else Array.unsafe_get p2_targets !i in
    let y1 =
      if last then mx
      else begin
        level := Float.max !level (Float.min mx (Array.unsafe_get mk (p2_base + (20 * !i) + 2)));
        !level
      end
    in
    if q <= x1 then begin
      result :=
        (if x1 -. !x0 <= 0.0 then y1
         else !y0 +. ((q -. !x0) /. (x1 -. !x0) *. (y1 -. !y0)));
      i := nm + 1
    end
    else begin
      x0 := x1;
      y0 := y1;
      incr i
    end
  done;
  !result

let quantile t q =
  match t.store with
  | Res r ->
    if r.stored = 0 then 0.0 else interp_sorted (sorted_sub r.data 0 r.stored) q
  | Stream ->
    if t.n = 0 then 0.0
    else if t.n <= 5 then interp_sorted (sorted_sub t.q p2_head t.n) q
    else p2_quantile t q

(* Deterministically re-feed one accumulator's distribution sketch into
   another.  Reservoirs replay their stored sample; P² sketches replay a
   bounded number of reconstructed quantile points, so merging stays O(1)
   in the source stream length (the moments are corrected exactly by the
   caller either way). *)
let feed_into t src =
  match src.store with
  | Res r -> Array.iter (add t) (Array.sub r.data 0 r.stored)
  | Stream ->
    if src.n > 0 then
      if src.n <= 5 then Array.iter (add t) (Array.sub src.q p2_head src.n)
      else begin
        let k = min src.n 64 in
        for j = 0 to k - 1 do
          add t (quantile src ((float_of_int j +. 0.5) /. float_of_int k))
        done
      end

let merge a b =
  let t =
    create ~estimator:(estimator_kind a) ~reservoir:(reservoir_capacity a) ()
  in
  feed_into t a;
  feed_into t b;
  (* Correct the exact moments, which the sketches would only approximate. *)
  t.n <- a.n + b.n;
  t.q.(q_sum) <- a.q.(q_sum) +. b.q.(q_sum);
  if t.n > 0 then begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let am = a.q.(q_mean) and bm = b.q.(q_mean) in
    let delta = bm -. am in
    t.q.(q_mean) <- ((na *. am) +. (nb *. bm)) /. (na +. nb);
    t.q.(q_m2) <-
      a.q.(q_m2) +. b.q.(q_m2) +. (delta *. delta *. na *. nb /. (na +. nb))
  end;
  t.q.(q_mn) <- Float.min a.q.(q_mn) b.q.(q_mn);
  t.q.(q_mx) <- Float.max a.q.(q_mx) b.q.(q_mx);
  t

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize (t : t) =
  if t.n = 0 then
    (* An empty accumulator has a defined (all-zero) summary rather than
       a NaN-riddled one, so downstream rendering and JSON stay sane. *)
    { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0;
      p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    let with_quantiles p50 p95 p99 =
      { n = t.n; mean = mean t; stddev = stddev t; min = min_value t;
        max = max_value t; p50; p95; p99 }
    in
    let of_sample xs off len =
      if len = 0 then with_quantiles 0.0 0.0 0.0
      else if len = 1 then
        (* Not [min]: a lone NaN sample leaves [min] at infinity. *)
        let x = xs.(off) in
        with_quantiles x x x
      else
        (* One sort serves all three quantiles. *)
        let s = sorted_sub xs off len in
        with_quantiles (interp_sorted s 0.50) (interp_sorted s 0.95)
          (interp_sorted s 0.99)
    in
    match t.store with
    | Res r -> of_sample r.data 0 r.stored
    | Stream when t.n <= 5 -> of_sample t.q p2_head t.n
    | Stream ->
      with_quantiles (p2_quantile t 0.50) (p2_quantile t 0.95) (p2_quantile t 0.99)

external format_float : string -> float -> string = "caml_format_float"

let summary_labels = [| " mean="; " sd="; " min="; " p50="; " p95="; " p99="; " max=" |]

(* Exactly what [Printf] produces for
   ["n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g"]:
   [%.4g] is [caml_format_float "%.4g"], called directly rather than
   through a format interpreter that rebuilds the "%.4g" string per
   value.  A field with the bit pattern of an earlier one (an n = 1 line
   repeats its sample six times) reuses that field's string. *)
let add_summary b s =
  let v = [| s.mean; s.stddev; s.min; s.p50; s.p95; s.p99; s.max |] in
  let text = Array.make 7 "" in
  Buffer.add_string b "n=";
  Buffer.add_string b (string_of_int s.n);
  for j = 0 to 6 do
    let bits = Int64.bits_of_float v.(j) in
    let i = ref 0 in
    while !i < j && Int64.bits_of_float v.(!i) <> bits do
      incr i
    done;
    text.(j) <- (if !i < j then text.(!i) else format_float "%.4g" v.(j));
    Buffer.add_string b summary_labels.(j);
    Buffer.add_string b text.(j)
  done
