open Adaptive_sim

type entry = {
  seg : Pdu.seg;
  mutable sent_at : Time.t;
  mutable retries : int;
  mutable sacked : bool;
}

(* Ring buffer keyed by sequence number modulo a power-of-two capacity.
   The previous Map.Make(Int) representation re-allocated O(log n) tree
   nodes on every track and rebuilt the whole map on every cumulative
   ack ([Imap.partition]) — on the per-PDU hot path that tree churn was
   one of the dominant minor-allocation sources at swarm scale.  The
   ring stores one [entry option] per outstanding seq: a track costs one
   entry and one [Some]; a cumulative ack clears slots in place.

   Invariant: every present seq lies in [low, high); [high - low] never
   exceeds capacity (the ring grows by doubling). *)
type t = {
  mutable ring : entry option array;
  mutable low : int; (* smallest possibly-present seq *)
  mutable high : int; (* 1 + largest tracked seq ([low] when empty) *)
  mutable count : int;
  mutable bytes : int;
}

let create () =
  { ring = Array.make 16 None; low = 0; high = 0; count = 0; bytes = 0 }

let in_flight t = t.count
let bytes_in_flight t = t.bytes
let is_empty t = t.count = 0

let slot t seq = seq land (Array.length t.ring - 1)
let get t seq = t.ring.(slot t seq)

(* Ensure capacity covers [lo, hi] and rehome present entries. *)
let ensure t lo hi =
  let need = hi - lo + 1 in
  if need > Array.length t.ring then begin
    let cap = ref (Array.length t.ring) in
    while !cap < need do
      cap := !cap * 2
    done;
    let fresh = Array.make !cap None in
    for seq = t.low to t.high - 1 do
      match get t seq with
      | None -> ()
      | Some _ as e -> fresh.(seq land (!cap - 1)) <- e
    done;
    t.ring <- fresh
  end

let track t seg ~at =
  let seq = seg.Pdu.seq in
  if t.count = 0 then begin
    t.low <- seq;
    t.high <- seq
  end;
  let lo = min t.low seq and hi = max (t.high - 1) seq in
  ensure t lo hi;
  t.low <- lo;
  t.high <- hi + 1;
  (match get t seq with
  | Some e -> t.bytes <- t.bytes - e.seg.Pdu.seg_bytes
  | None -> t.count <- t.count + 1);
  t.ring.(slot t seq) <- Some { seg; sent_at = at; retries = 0; sacked = false };
  t.bytes <- t.bytes + seg.Pdu.seg_bytes

let in_range t seq = seq >= t.low && seq < t.high
let find t seq = if in_range t seq then get t seq else None

let touch t seq ~at =
  match find t seq with
  | None -> ()
  | Some e ->
    e.sent_at <- at;
    e.retries <- e.retries + 1

let on_cumulative_ack t ~cum =
  if t.count = 0 || cum <= t.low then []
  else begin
    let hi = min cum t.high in
    let acc = ref [] in
    for seq = hi - 1 downto t.low do
      match get t seq with
      | None -> ()
      | Some e ->
        acc := e :: !acc;
        t.ring.(slot t seq) <- None;
        t.count <- t.count - 1;
        t.bytes <- t.bytes - e.seg.Pdu.seg_bytes
    done;
    t.low <- max t.low (min cum t.high);
    if t.high < t.low then t.high <- t.low;
    !acc
  end

let mark_sacked t seqs =
  List.iter
    (fun seq -> match find t seq with Some e -> e.sacked <- true | None -> ())
    seqs

let unsacked_from t from =
  let acc = ref [] in
  for seq = t.high - 1 downto max from t.low do
    match get t seq with
    | Some e when not e.sacked -> acc := e.seg :: !acc
    | Some _ | None -> ()
  done;
  !acc

let unsacked_missing t seqs =
  List.filter_map
    (fun seq ->
      match find t seq with
      | Some e when not e.sacked -> Some e.seg
      | Some _ | None -> None)
    (List.sort_uniq compare seqs)

let iter t f =
  for seq = t.low to t.high - 1 do
    match get t seq with Some e -> f e | None -> ()
  done
