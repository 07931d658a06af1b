(* SplitMix64 (Steele, Lea & Flood 2014) on two 32-bit limbs held as
   immediate ints.  [Int64] arithmetic boxes every intermediate value —
   at two Bernoulli draws per link transmission the boxed implementation
   cost ~60 minor words per packet on the hot path.  All limb products
   are formed from 16-bit halves so nothing approaches the 63-bit
   overflow boundary, and a draw is allocation-free.  Bit-for-bit
   identical to the boxed version: [bits64] reassembles the canonical
   [Int64] on demand, and the trace digests of seeded runs are
   unchanged.

   [r_hi]/[r_lo] are the mixer's output cell: OCaml cannot return two
   ints without allocating a pair, so [step] deposits the mixed output
   into the generator's own record and callers read it immediately. *)

type t = {
  mutable s_hi : int;
  mutable s_lo : int;
  mutable r_hi : int;
  mutable r_lo : int;
}

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* mix64 multipliers *)
let m1_hi = 0xBF58476D
let m1_lo = 0x1CE4E5B9
let m2_hi = 0x94D049BB
let m2_lo = 0x133111EB

(* (a_hi,a_lo) * (b_hi,b_lo) mod 2^64 via 16-bit half-limbs: every
   column sum stays below 2^34, far from overflow. *)
let mul_hi a_hi a_lo b_hi b_lo =
  let a0 = a_lo land mask16 and a1 = a_lo lsr 16 in
  let a2 = a_hi land mask16 and a3 = a_hi lsr 16 in
  let b0 = b_lo land mask16 and b1 = b_lo lsr 16 in
  let b2 = b_hi land mask16 and b3 = b_hi lsr 16 in
  let c0 = a0 * b0 in
  let c1 = (a1 * b0) + (a0 * b1) in
  let c2 = (a2 * b0) + (a1 * b1) + (a0 * b2) in
  let c3 = (a3 * b0) + (a2 * b1) + (a1 * b2) + (a0 * b3) in
  let low = c0 + ((c1 land mask16) lsl 16) in
  ((c1 lsr 16) + c2 + ((c3 land mask16) lsl 16) + (low lsr 32)) land mask32

let mul_lo a_lo b_lo =
  let a0 = a_lo land mask16 and a1 = a_lo lsr 16 in
  let b0 = b_lo land mask16 and b1 = b_lo lsr 16 in
  let c0 = a0 * b0 in
  let c1 = (a1 * b0) + (a0 * b1) in
  (c0 + ((c1 land mask16) lsl 16)) land mask32

(* Logical right shift of the 64-bit value (z_hi, z_lo), 0 < k < 32. *)
let xs_hi z_hi k = z_hi lsr k

let xs_lo z_hi z_lo k =
  ((z_lo lsr k) lor ((z_hi land ((1 lsl k) - 1)) lsl (32 - k))) land mask32

(* mix64: z ^= z>>30; z *= m1; z ^= z>>27; z *= m2; z ^= z>>31.
   Deposits the result in [dst.r_hi]/[dst.r_lo]. *)
let mix_into dst z_hi z_lo =
  let z_lo' = z_lo lxor xs_lo z_hi z_lo 30 in
  let z_hi' = z_hi lxor xs_hi z_hi 30 in
  let p_hi = mul_hi z_hi' z_lo' m1_hi m1_lo in
  let p_lo = mul_lo z_lo' m1_lo in
  let q_lo = p_lo lxor xs_lo p_hi p_lo 27 in
  let q_hi = p_hi lxor xs_hi p_hi 27 in
  let r_hi = mul_hi q_hi q_lo m2_hi m2_lo in
  let r_lo = mul_lo q_lo m2_lo in
  dst.r_lo <- r_lo lxor xs_lo r_hi r_lo 31;
  dst.r_hi <- r_hi lxor xs_hi r_hi 31

let create seed =
  (* mix64 (Int64.of_int seed): the limbs are the seed's two's-complement
     32-bit halves. *)
  let t = { s_hi = 0; s_lo = 0; r_hi = 0; r_lo = 0 } in
  mix_into t ((seed asr 32) land mask32) (seed land mask32);
  t.s_hi <- t.r_hi;
  t.s_lo <- t.r_lo;
  t

(* Advance: state <- state + gamma (mod 2^64); mix into the output
   cell. *)
let step t =
  let low = t.s_lo + gamma_lo in
  let lo = low land mask32 in
  let hi = (t.s_hi + gamma_hi + (low lsr 32)) land mask32 in
  t.s_lo <- lo;
  t.s_hi <- hi;
  mix_into t hi lo

let bits64 t =
  step t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.r_hi) 32)
    (Int64.of_int t.r_lo)

let split t =
  step t;
  { s_hi = t.r_hi; s_lo = t.r_lo; r_hi = 0; r_lo = 0 }

let split_ix t i =
  if i < 0 then invalid_arg "Rng.split_ix: negative index";
  (* Jump (i+1) gammas ahead of the current state and scramble: a pure
     function of (state, i), so deriving stream i never advances [t] and
     two tasks with distinct indices get decorrelated streams.  (The
     output cell is scratch, so clobbering it does not count as
     advancing.) *)
  let k = i + 1 in
  let k_hi = (k asr 32) land mask32 and k_lo = k land mask32 in
  let j_hi = mul_hi gamma_hi gamma_lo k_hi k_lo in
  let j_lo = mul_lo gamma_lo k_lo in
  let low = t.s_lo + j_lo in
  let lo = low land mask32 in
  let hi = (t.s_hi + j_hi + (low lsr 32)) land mask32 in
  mix_into t hi lo;
  { s_hi = t.r_hi; s_lo = t.r_lo; r_hi = 0; r_lo = 0 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  step t;
  (* [Int64.logand (bits64 t) (Int64.of_int max_int)] in limb form:
     OCaml's max_int is 2^62 - 1, so keep the low 30 bits of the high
     limb. *)
  let v = ((t.r_hi land 0x3FFFFFFF) lsl 32) lor t.r_lo in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 high bits give a uniform double in [0,1):
     (output lsr 11) = r_hi * 2^21 + (r_lo lsr 11), exact in a double. *)
  step t;
  let v = (float_of_int t.r_hi *. 2097152.0) +. float_of_int (t.r_lo lsr 11) in
  v /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))
