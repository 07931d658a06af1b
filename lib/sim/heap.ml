(* Flat-array binary min-heap of int payloads.

   Keys, tie-break sequence numbers and payloads live in three parallel
   int arrays, so no operation stores a pointer.  The sift loops move a
   hole rather than swapping: the entry being placed is held in locals
   and written once, at its final index. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let is_empty h = h.size = 0
let length h = h.size

(* Copied by a loop: [Array.blit] into a major-heap array runs the write
   barrier per element even for ints. *)
let extend (a : int array) n ~fill =
  if n < Array.length a then invalid_arg "Heap.extend: shorter than the source";
  let b = Array.make n fill in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let grow h =
  let cap = Array.length h.keys in
  if h.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    h.keys <- extend h.keys ncap ~fill:0;
    h.seqs <- extend h.seqs ncap ~fill:0;
    h.vals <- extend h.vals ncap ~fill:0
  end

(* Place entry [(k, s, v)] at or above the hole [i], moving each parent
   that orders after it (by key, then sequence) down into the hole. *)
let sift_up h i k s v =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if k < kp || (k = kp && s < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set vals !i v

(* Place entry [(k, s, v)] at or below the hole [i], moving the smaller
   child up into the hole while it orders before the entry. *)
let sift_down h i k s v =
  let keys = h.keys and seqs = h.seqs and vals = h.vals and n = h.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let kl = Array.unsafe_get keys l and kr = Array.unsafe_get keys r in
          if kr < kl || (kr = kl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let kc = Array.unsafe_get keys c in
      if kc < k || (kc = k && Array.unsafe_get seqs c < s) then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set vals !i v

let push h ~key ~seq v =
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) key seq v

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let top_seq h =
  if h.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  h.seqs.(0)

let top_value h =
  if h.size = 0 then invalid_arg "Heap.top_value: empty heap";
  h.vals.(0)

let drop_top h =
  if h.size = 0 then invalid_arg "Heap.drop_top: empty heap";
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down h 0 h.keys.(n) h.seqs.(n) h.vals.(n)

let filter_in_place h ~f =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if f h.keys.(i) h.seqs.(i) h.vals.(i) then begin
      let j = !kept in
      h.keys.(j) <- h.keys.(i);
      h.seqs.(j) <- h.seqs.(i);
      h.vals.(j) <- h.vals.(i);
      incr kept
    end
  done;
  h.size <- !kept;
  (* Floyd heap construction: O(n). *)
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i h.keys.(i) h.seqs.(i) h.vals.(i)
  done
