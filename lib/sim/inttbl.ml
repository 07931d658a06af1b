(* Linear probing over a power-of-two key array.  [min_int] marks a free
   slot; a slot's value is [None] exactly when its key is free, so a
   lookup can return the slot's option as it stands. *)

let free = min_int

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable shift : int; (* 63 - log2 (capacity) *)
  mutable count : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make cap =
  {
    keys = Array.make cap free;
    vals = Array.make cap None;
    shift = 63 - log2 cap;
    count = 0;
  }

(* At most half full: twice the hint, rounded up to a power of two. *)
let create n =
  let rec up c = if c >= 2 * n then c else up (2 * c) in
  make (up 8)

(* Multiplicative hashing keeps the product's top bits: keys that differ
   only in their high bits, such as packed pairs, still spread. *)
let slot t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

let index t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (slot t key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> free
  do
    i := (!i + 1) land mask
  done;
  !i

let find_opt t key = Array.unsafe_get t.vals (index t key)
let mem t key = key <> free && Array.unsafe_get t.keys (index t key) = key

let rec replace t key v =
  if key = free then invalid_arg "Inttbl.replace: min_int is not a key";
  let i = index t key in
  if t.keys.(i) = key then t.vals.(i) <- Some v
  else if 2 * (t.count + 1) > Array.length t.keys then begin
    let old_keys = t.keys and old_vals = t.vals in
    let bigger = make (2 * Array.length old_keys) in
    t.keys <- bigger.keys;
    t.vals <- bigger.vals;
    t.shift <- bigger.shift;
    t.count <- 0;
    Array.iteri
      (fun j k -> match old_vals.(j) with Some v -> replace t k v | None -> ())
      old_keys;
    replace t key v
  end
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- Some v;
    t.count <- t.count + 1
  end

(* Backward-shift deletion: each later entry of the run whose home slot
   lies at or before the hole moves into it, so every remaining key stays
   reachable from its home without tombstones. *)
let remove t key =
  let i = index t key in
  if key <> free && t.keys.(i) = key then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> free do
      if (!j - slot t keys.(!j)) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- free;
    vals.(!hole) <- None;
    t.count <- t.count - 1
  end

let reset t =
  Array.fill t.keys 0 (Array.length t.keys) free;
  Array.fill t.vals 0 (Array.length t.vals) None;
  t.count <- 0

let limit = 1 lsl 31

let pair a b =
  if a < 0 || a >= limit || b < 0 || b >= limit then
    invalid_arg "Inttbl.pair: component outside [0, 2^31)";
  (a lsl 31) lor b
