type t = {
  size : int;
  cap : int;
  mutable free_list : Bytes.t list;
  mutable used : int;
  mutable miss_count : int;
  mutable lease_hit_count : int;
  mutable lease_fresh_count : int;
}

let create ~buffers ~size =
  if buffers < 0 || size <= 0 then invalid_arg "Pool.create";
  {
    size;
    cap = buffers;
    free_list = List.init buffers (fun _ -> Bytes.create size);
    used = 0;
    miss_count = 0;
    lease_hit_count = 0;
    lease_fresh_count = 0;
  }

let capacity t = t.cap
let in_use t = t.used
let misses t = t.miss_count

(* Only [release] returns buffers, once per pooled lease, so the free list
   never exceeds the capacity. *)
let alloc t =
  match t.free_list with
  | [] ->
    t.miss_count <- t.miss_count + 1;
    None
  | b :: rest ->
    t.free_list <- rest;
    t.used <- t.used + 1;
    Some b

let free t b =
  t.used <- t.used - 1;
  t.free_list <- b :: t.free_list

(* ------------------------------------------------------------ leases *)

type lease = { lbuf : Bytes.t; mutable refs : int; pooled : bool }

let lease t ~min_bytes =
  if min_bytes < 0 then invalid_arg "Pool.lease";
  if min_bytes <= t.size then
    match alloc t with
    | Some b ->
      t.lease_hit_count <- t.lease_hit_count + 1;
      { lbuf = b; refs = 1; pooled = true }
    | None ->
      t.lease_fresh_count <- t.lease_fresh_count + 1;
      { lbuf = Bytes.create t.size; refs = 1; pooled = false }
  else begin
    (* Oversized request: the pool's buffers cannot hold it. *)
    t.lease_fresh_count <- t.lease_fresh_count + 1;
    { lbuf = Bytes.create min_bytes; refs = 1; pooled = false }
  end

let lease_buf l =
  if l.refs <= 0 then invalid_arg "Pool.lease_buf: lease already released";
  l.lbuf

let lease_refs l = l.refs

let retain l =
  if l.refs <= 0 then invalid_arg "Pool.retain: lease already released";
  l.refs <- l.refs + 1

let release t l =
  if l.refs <= 0 then invalid_arg "Pool.release: lease already released";
  l.refs <- l.refs - 1;
  if l.refs = 0 && l.pooled then free t l.lbuf

let lease_hits t = t.lease_hit_count
let lease_fresh t = t.lease_fresh_count
