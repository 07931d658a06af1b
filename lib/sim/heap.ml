(* Flat-array binary min-heap.

   Keys, tie-break sequence numbers and values live in three parallel
   arrays so that a push allocates no per-entry box and a pop on the
   internal path ([top_key]/[top_value]/[drop_top]) allocates nothing at
   all.  The option-returning [pop] remains as the convenient front
   door. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let is_empty h = h.size = 0
let length h = h.size

(* Order by key, then sequence number: equal-key entries come out in
   ascending [seq] order, which the engine uses for FIFO tie-breaks. *)
let less h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  ki < kj || (ki = kj && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let grow h filler =
  let cap = Array.length h.keys in
  if h.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nk = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nv = Array.make ncap filler in
    Array.blit h.keys 0 nk 0 h.size;
    Array.blit h.seqs 0 ns 0 h.size;
    Array.blit h.vals 0 nv 0 h.size;
    h.keys <- nk;
    h.seqs <- ns;
    h.vals <- nv
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h l !smallest then smallest := l;
  if r < h.size && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push_seq h ~key ~seq value =
  grow h value;
  h.keys.(h.size) <- key;
  h.seqs.(h.size) <- seq;
  h.vals.(h.size) <- value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let push h ~key value =
  let seq = h.next_seq in
  h.next_seq <- h.next_seq + 1;
  push_seq h ~key ~seq value

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
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    sift_down h 0
  end;
  (* Drop the vacated slot's reference so popped entries don't pin their
     payload (the root's value is live inside the heap anyway). *)
  if h.size > 0 then h.vals.(h.size) <- h.vals.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    drop_top h;
    Some (k, v)
  end

let filter_in_place h ~f =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if f h.keys.(i) h.seqs.(i) h.vals.(i) then begin
      let j = !kept in
      if j <> i then begin
        h.keys.(j) <- h.keys.(i);
        h.seqs.(j) <- h.seqs.(i);
        h.vals.(j) <- h.vals.(i)
      end;
      incr kept
    end
  done;
  (* Release references past the new end. *)
  if !kept > 0 then
    for i = !kept to h.size - 1 do
      h.vals.(i) <- h.vals.(0)
    done;
  h.size <- !kept;
  (* Floyd heap construction: O(n). *)
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done
