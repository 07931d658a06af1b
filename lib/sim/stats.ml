type estimator = Reservoir | P2

(* The P² algorithm (Jain & Chlamtac 1985): one 5-marker structure per
   target quantile, updated in O(1) per observation with no stored
   samples.  The markers track the running estimate of the quantile and
   of four bracketing positions; heights move by parabolic (falling back
   to linear) interpolation as desired marker positions drift. *)
type p2m = {
  pq : float;  (* target quantile *)
  h : float array;  (* 5 marker heights *)
  np : float array;  (* actual marker positions, 1-based *)
  nd : float array;  (* desired marker positions *)
  dn : float array;  (* desired-position increments *)
}

let p2m_create q =
  {
    pq = q;
    h = Array.make 5 0.0;
    np = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
    nd = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
    dn = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
  }

let p2m_init m sorted5 =
  Array.blit sorted5 0 m.h 0 5;
  m.np.(0) <- 1.0;
  m.np.(1) <- 2.0;
  m.np.(2) <- 3.0;
  m.np.(3) <- 4.0;
  m.np.(4) <- 5.0;
  m.nd.(0) <- 1.0;
  m.nd.(1) <- 1.0 +. (2.0 *. m.pq);
  m.nd.(2) <- 1.0 +. (4.0 *. m.pq);
  m.nd.(3) <- 3.0 +. (2.0 *. m.pq);
  m.nd.(4) <- 5.0

let p2m_add m x =
  let k =
    if x < m.h.(0) then begin
      m.h.(0) <- x;
      0
    end
    else if x >= m.h.(4) then begin
      m.h.(4) <- x;
      3
    end
    else begin
      let k = ref 0 in
      for i = 1 to 3 do
        if x >= m.h.(i) then k := i
      done;
      !k
    end
  in
  for i = k + 1 to 4 do
    m.np.(i) <- m.np.(i) +. 1.0
  done;
  for i = 0 to 4 do
    m.nd.(i) <- m.nd.(i) +. m.dn.(i)
  done;
  for i = 1 to 3 do
    let d = m.nd.(i) -. m.np.(i) in
    if
      (d >= 1.0 && m.np.(i + 1) -. m.np.(i) > 1.0)
      || (d <= -1.0 && m.np.(i - 1) -. m.np.(i) < -1.0)
    then begin
      let s = if d >= 0.0 then 1.0 else -1.0 in
      let hi = m.h.(i) and hp = m.h.(i + 1) and hm = m.h.(i - 1) in
      let ni = m.np.(i) and np1 = m.np.(i + 1) and nm1 = m.np.(i - 1) in
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
      m.h.(i) <- next;
      m.np.(i) <- ni +. s
    end
  done

(* Marker targets: exactly the quantiles {!summary} reports. *)
let p2_targets = [| 0.50; 0.95; 0.99 |]

type store =
  | Res of { data : float array; mutable stored : int; rng : Rng.t }
  | Stream of { head : float array; mutable markers : p2m array }

(* Scalar moments live in a float array rather than mutable record
   fields: a record mixing [n : int] with mutable floats keeps the
   floats boxed, so every [add] would allocate three fresh boxes on the
   minor heap.  Float-array stores are unboxed, making [add] for the
   moment scalars allocation-free on the hot path. *)
type t = { mutable n : int; q : float array; store : store }

let q_mean = 0
and q_m2 = 1
and q_sum = 2
and q_mn = 3
and q_mx = 4

let create ?(estimator = Reservoir) ?(reservoir = 8192) ?(seed = 0x5747) () =
  let store =
    match estimator with
    | Reservoir ->
      Res { data = Array.make reservoir 0.0; stored = 0; rng = Rng.create seed }
    | P2 ->
      (* Markers materialize lazily once five observations arrive: most
         per-session accumulators in a churning swarm see a handful of
         samples, and the three 5-marker structures are ~100 words that
         would dominate short-lived sessions' allocation. *)
      Stream { head = Array.make 5 0.0; markers = [||] }
  in
  { n = 0; q = [| 0.0; 0.0; 0.0; infinity; neg_infinity |]; store }

let estimator_kind t = match t.store with Res _ -> Reservoir | Stream _ -> P2

let reservoir_capacity t =
  match t.store with Res r -> Array.length r.data | Stream _ -> 8

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
  | Stream s ->
    if t.n <= 5 then begin
      s.head.(t.n - 1) <- x;
      if t.n = 5 then begin
        let sorted = Array.copy s.head in
        Array.sort Float.compare sorted;
        if s.markers = [||] then s.markers <- Array.map p2m_create p2_targets;
        Array.iter (fun m -> p2m_init m sorted) s.markers
      end
    end
    else
      (* Explicit loop: [Array.iter] with a closure capturing [x] would
         allocate on every single observation. *)
      let ms = s.markers in
      for i = 0 to Array.length ms - 1 do
        p2m_add (Array.unsafe_get ms i) x
      done

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

let sorted_prefix xs len =
  let s = Array.sub xs 0 len in
  Array.sort Float.compare s;
  s

(* P² read-out: piecewise-linear through (0, min), the marker estimates,
   and (1, max).  Running max keeps the curve monotone even if marker
   heights cross on an adversarial stream.  The points are walked in
   place rather than collected as tuples. *)
let p2_quantile t ms q =
  let mn = t.q.(q_mn) and mx = t.q.(q_mx) in
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let nm = Array.length ms in
  let x0 = ref 0.0 and y0 = ref mn and level = ref mn in
  let result = ref mx and i = ref 0 in
  while !i <= nm do
    let last = !i = nm in
    let x1 = if last then 1.0 else (Array.unsafe_get ms !i).pq in
    let y1 =
      if last then mx
      else begin
        level := Float.max !level (Float.min mx (Array.unsafe_get ms !i).h.(2));
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
    if r.stored = 0 then 0.0 else interp_sorted (sorted_prefix r.data r.stored) q
  | Stream s ->
    if t.n = 0 then 0.0
    else if t.n <= 5 then interp_sorted (sorted_prefix s.head t.n) q
    else p2_quantile t s.markers q

(* Deterministically re-feed one accumulator's distribution sketch into
   another.  Reservoirs replay their stored sample; P² sketches replay a
   bounded number of reconstructed quantile points, so merging stays O(1)
   in the source stream length (the moments are corrected exactly by the
   caller either way). *)
let feed_into t src =
  match src.store with
  | Res r -> Array.iter (add t) (Array.sub r.data 0 r.stored)
  | Stream s ->
    if src.n > 0 then
      if src.n <= 5 then Array.iter (add t) (Array.sub s.head 0 src.n)
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

let clear t =
  t.n <- 0;
  t.q.(q_mean) <- 0.0;
  t.q.(q_m2) <- 0.0;
  t.q.(q_sum) <- 0.0;
  t.q.(q_mn) <- infinity;
  t.q.(q_mx) <- neg_infinity;
  match t.store with
  | Res r -> r.stored <- 0
  | Stream _ ->
    (* The head buffer refills and the markers re-initialize once five
       fresh observations arrive; [n] gates every read until then. *)
    ()

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
    let of_sample xs len =
      if len = 0 then with_quantiles 0.0 0.0 0.0
      else if len = 1 then
        (* Not [min]: a lone NaN sample leaves [min] at infinity. *)
        let x = xs.(0) in
        with_quantiles x x x
      else
        (* One sort serves all three quantiles. *)
        let s = sorted_prefix xs len in
        with_quantiles (interp_sorted s 0.50) (interp_sorted s 0.95)
          (interp_sorted s 0.99)
    in
    match t.store with
    | Res r -> of_sample r.data r.stored
    | Stream s when t.n <= 5 -> of_sample s.head t.n
    | Stream s ->
      with_quantiles (p2_quantile t s.markers 0.50)
        (p2_quantile t s.markers 0.95) (p2_quantile t s.markers 0.99)

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
