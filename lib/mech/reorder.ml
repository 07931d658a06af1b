type verdict = Deliver of Pdu.seg list | Buffered | Duplicate

(* Ring buffer of out-of-order segments keyed by sequence number modulo
   a power-of-two capacity.  Replaces a Map.Make(Int) whose node churn
   (add/remove per segment, full scans for gaps) dominated receiver-side
   allocation on the per-PDU hot path.

   Invariant: every buffered seq lies in [expected, highest]; the span
   never exceeds capacity (the ring grows by doubling). *)
type t = {
  ordering : Params.ordering;
  duplicates : Params.duplicates;
  mutable expected : int;
  mutable ring : Pdu.seg option array; (* received with seq >= expected *)
  mutable highest : int;
  mutable stored : int; (* buffered segments in [expected, highest] *)
}

let create ?(start = 0) ~ordering ~duplicates () =
  {
    ordering;
    duplicates;
    expected = start;
    ring = Array.make 2 None;
    highest = start - 1;
    stored = 0;
  }

let expected t = t.expected
let highest_seen t = t.highest

let slot t seq = seq land (Array.length t.ring - 1)
let get t seq = t.ring.(slot t seq)
let present t seq = seq >= t.expected && seq <= t.highest && get t seq <> None
let seen t seq = seq < t.expected || present t seq

(* Ensure capacity covers [expected, hi] and rehome buffered segments. *)
let ensure t hi =
  let need = hi - t.expected + 1 in
  if need > Array.length t.ring then begin
    let cap = ref (Array.length t.ring) in
    while !cap < need do
      cap := !cap * 2
    done;
    let fresh = Array.make !cap None in
    for seq = t.expected to t.highest do
      match get t seq with
      | None -> ()
      | Some _ as s -> fresh.(seq land (!cap - 1)) <- s
    done;
    t.ring <- fresh
  end

(* Advance the cumulative point over any contiguous run now present,
   removing the run from the buffer and returning it in order. *)
let drain_run t =
  let rec take acc =
    if t.expected > t.highest then List.rev acc
    else
      match get t t.expected with
      | None -> List.rev acc
      | Some seg ->
        t.ring.(slot t t.expected) <- None;
        t.stored <- t.stored - 1;
        t.expected <- t.expected + 1;
        take (seg :: acc)
  in
  take []

let offer t (seg : Pdu.seg) =
  let dup = seen t seg.Pdu.seq in
  if dup && t.duplicates = Params.Drop_duplicates then Duplicate
  else if dup then Deliver [ seg ]
  else begin
    let seq = seg.Pdu.seq in
    if seq > t.highest then begin
      ensure t seq;
      t.highest <- seq
    end;
    t.ring.(slot t seq) <- Some seg;
    t.stored <- t.stored + 1;
    match t.ordering with
    | Params.Unordered ->
      (* Release immediately, but keep cumulative bookkeeping for acks. *)
      let _ = drain_run t in
      Deliver [ seg ]
    | Params.Ordered ->
      let run = drain_run t in
      if run = [] then Buffered else Deliver run
  end

let missing t =
  let rec gaps seq acc =
    if seq > t.highest then List.rev acc
    else if get t seq <> None then gaps (seq + 1) acc
    else gaps (seq + 1) (seq :: acc)
  in
  gaps t.expected []

(* [drain_run] leaves [expected] empty, so by the invariant a gap exists
   exactly when something above the cumulative point has been seen. *)
let has_gap t = t.highest >= t.expected

let sack_list t =
  let acc = ref [] in
  for seq = t.highest downto t.expected do
    if get t seq <> None then acc := seq :: !acc
  done;
  !acc

let advance_past_gap t =
  let rec first seq =
    if seq > t.highest then None
    else if get t seq <> None then Some seq
    else first (seq + 1)
  in
  match first t.expected with
  | None -> (0, [])
  | Some seq when seq <= t.expected -> (0, [])
  | Some seq ->
    let skipped = seq - t.expected in
    t.expected <- seq;
    (skipped, drain_run t)

let buffered_count t =
  match t.ordering with Params.Unordered -> 0 | Params.Ordered -> t.stored
