type entry = { at : Time.t; category : string; detail : string }

type t = {
  counters : (string, int ref) Hashtbl.t;
  log : entry Queue.t;
  capacity : int;
  mutable dropped : int;
  mutable h_hi : int; (* FNV state, top 32 bits *)
  mutable h_lo : int; (* FNV state, low 32 bits *)
}

(* FNV-1a, 64-bit.  The running hash folds in every event (whether or not
   the bounded log retained it), so two runs with identical event streams
   hash identically even after the log wraps.

   The state lives in two 32-bit limbs held as immediate ints: [Int64]
   arithmetic boxes every intermediate value, which made hashing cost
   ~9 words *per byte* on the event hot path.  The FNV prime
   0x100000001b3 factors into limbs 0x100 and 0x1b3, so every limb
   product stays far below 62 bits and the whole fold is allocation-free.
   [hash] reassembles the canonical [Int64] on demand — the rendered
   digests are bit-identical to the boxed implementation. *)
let mask32 = 0xFFFFFFFF
let fnv_offset_hi = 0xcbf29ce4
let fnv_offset_lo = 0x84222325

let create ?(log_capacity = 4096) () =
  {
    counters = Hashtbl.create 32;
    log = Queue.create ();
    capacity = log_capacity;
    dropped = 0;
    h_hi = fnv_offset_hi;
    h_lo = fnv_offset_lo;
  }

(* One FNV-1a step: state <- (state xor byte) * prime, mod 2^64. *)
let fold_byte t b =
  let lo = t.h_lo lxor (b land 0xff) in
  let hi = t.h_hi in
  let p0 = lo * 0x1b3 in
  let mid = (lo * 0x100) + (hi * 0x1b3) + (p0 lsr 32) in
  t.h_lo <- p0 land mask32;
  t.h_hi <- mid land mask32

let fold_string t s =
  for i = 0 to String.length s - 1 do
    fold_byte t (Char.code (String.unsafe_get s i))
  done

let fold_int t n =
  for shift = 0 to 7 do
    fold_byte t ((n lsr (shift * 8)) land 0xff)
  done

let count t name =
  match Hashtbl.find t.counters name with
  | r -> incr r
  | exception Not_found -> Hashtbl.add t.counters name (ref 1)

let event t ~at ~category ~detail =
  count t category;
  fold_int t at;
  fold_string t category;
  fold_string t detail;
  if t.capacity > 0 then begin
    if Queue.length t.log >= t.capacity then begin
      ignore (Queue.pop t.log);
      t.dropped <- t.dropped + 1
    end;
    Queue.push { at; category; detail } t.log
  end
  else t.dropped <- t.dropped + 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dropped t = t.dropped
let hash t =
  Int64.logor
    (Int64.shift_left (Int64.of_int t.h_hi) 32)
    (Int64.of_int t.h_lo)
