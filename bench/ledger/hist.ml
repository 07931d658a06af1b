(* Log-linear histogram over non-negative ints (nanoseconds, in every
   use here).  Values below 2^(sub_bits+1) are counted exactly; larger
   ones fall into one of 2^sub_bits sub-buckets per power of two, so a
   quantile read back is within 1/128 (0.8%) of a recorded value and the
   memory is fixed whatever the sample count.  Counting is exact and
   order-independent, so a quantile of simulated latencies is a
   deterministic function of the run. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let buckets = ((62 - sub_bits) * sub) + (2 * sub)

type t = { counts : int array; mutable n : int; mutable max_v : int }

let create () = { counts = Array.make buckets 0; n = 0; max_v = 0 }

(* Index of the highest set bit of [v > 0]. *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then (v := !v lsr 32; r := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < 2 * sub then v
  else
    let e = msb v in
    ((e - sub_bits) * sub) + (v lsr (e - sub_bits))

(* Midpoint of the values that map to bucket [i]. *)
let value_of i =
  if i < 2 * sub then i
  else
    let e = (i / sub) + sub_bits - 1 in
    let m = (i mod sub) + sub in
    let lo = m lsl (e - sub_bits) in
    lo + ((1 lsl (e - sub_bits)) / 2)

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if v > t.max_v then t.max_v <- v

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

(* Nearest-rank quantile: the smallest bucket whose cumulative count
   reaches ceil(q * n), clamped to the largest value seen; 0 when empty. *)
let quantile t q =
  if t.n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let i = ref 0 and acc = ref t.counts.(0) in
    while !acc < rank do
      incr i;
      acc := !acc + t.counts.(!i)
    done;
    min (value_of !i) t.max_v
  end
