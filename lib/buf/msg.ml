type segment = { base : Bytes.t; off : int; len : int }

(* [dlen] and [hlen] cache the region lengths.  They stay valid because
   the segment list is never mutated in place — every operation that
   changes the data region builds a fresh record (and knows the new
   length in O(1)) — and the header stack only changes through
   [push]/[pop], which adjust [hlen] incrementally. *)
type t = {
  mutable headers : string list;
  mutable hlen : int;
  data : segment list;
  dlen : int;
}

(* Atomic: process-wide copy accounting must not tear or lose updates
   when parallel campaign tasks (lib/fleet) run the copy paths. *)
let copies_counter = Atomic.make 0

let physical_copies () = Atomic.get copies_counter

let reset_copy_counters () = Atomic.set copies_counter 0

let of_bytes b =
  let n = Bytes.length b in
  { headers = []; hlen = 0; data = [ { base = b; off = 0; len = n } ]; dlen = n }

let of_string s = of_bytes (Bytes.of_string s)

let of_bytes_slice b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Msg.of_bytes_slice";
  { headers = []; hlen = 0; data = [ { base = b; off; len } ]; dlen = len }
let data_length m = m.dlen
let header_length m = m.hlen

let push m h =
  m.headers <- h :: m.headers;
  m.hlen <- m.hlen + String.length h

let pop m =
  match m.headers with
  | [] -> None
  | h :: rest ->
    m.headers <- rest;
    m.hlen <- m.hlen - String.length h;
    Some h

let split m n =
  if n < 0 || n > m.dlen then invalid_arg "Msg.split: index out of range";
  let rec take acc remaining segs =
    if remaining = 0 then (List.rev acc, segs)
    else
      match segs with
      | [] -> (List.rev acc, [])
      | s :: rest ->
        if s.len <= remaining then take (s :: acc) (remaining - s.len) rest
        else
          let first = { s with len = remaining } in
          let second = { s with off = s.off + remaining; len = s.len - remaining } in
          (List.rev (first :: acc), second :: rest)
  in
  let front, back = take [] n m.data in
  ( { headers = m.headers; hlen = m.hlen; data = front; dlen = n },
    { headers = []; hlen = 0; data = back; dlen = m.dlen - n } )

let fragment m ~mtu =
  if mtu <= 0 then invalid_arg "Msg.fragment: non-positive MTU";
  let rec cut acc rest =
    if rest.dlen = 0 then List.rev acc
    else if rest.dlen <= mtu then
      List.rev ({ headers = []; hlen = 0; data = rest.data; dlen = rest.dlen } :: acc)
    else
      let piece, remainder =
        split { headers = []; hlen = 0; data = rest.data; dlen = rest.dlen } mtu
      in
      cut (piece :: acc) remainder
  in
  cut [] { headers = []; hlen = 0; data = m.data; dlen = m.dlen }

let concat ms =
  {
    headers = [];
    hlen = 0;
    data = List.concat_map (fun m -> m.data) ms;
    dlen = List.fold_left (fun acc m -> acc + m.dlen) 0 ms;
  }

let blit_segments segs dst off =
  let pos = ref off in
  List.iter
    (fun s ->
      Bytes.blit s.base s.off dst !pos s.len;
      pos := !pos + s.len)
    segs

(* One counted physical copy into a private single-segment message: how a
   payload decoded out of a leased wire buffer outlives the lease. *)
let detach m =
  let n = m.dlen in
  let b = Bytes.create n in
  blit_segments m.data b 0;
  Atomic.incr copies_counter;
  { headers = m.headers; hlen = m.hlen; data = [ { base = b; off = 0; len = n } ]; dlen = n }

let data_to_string m =
  let n = m.dlen in
  let b = Bytes.create n in
  blit_segments m.data b 0;
  Atomic.incr copies_counter;
  Bytes.unsafe_to_string b

(* Top-level recursion, not [List.iter] with a wrapper lambda: the
   wire-true encoder runs this per data PDU, and the wrapper closure
   would be the only allocation on that path. *)
let rec iter_segs f = function
  | [] -> ()
  | s :: rest ->
    f s.base s.off s.len;
    iter_segs f rest

let iter_data m f = iter_segs f m.data
