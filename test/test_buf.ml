(* Tests for the buffer-management substrate: Msg (TKO_Message), Checksum,
   Pool. *)

open Adaptive_buf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ Msg *)

let test_msg_create () =
  let m = Msg.of_bytes (Bytes.make 100 '\000') in
  check_int "data" 100 (Msg.data_length m);
  check_int "headers" 0 (Msg.header_length m);
  let m2 = Msg.of_string "hello" in
  check_int "of_string" 5 (Msg.data_length m2);
  check_str "content" "hello" (Msg.data_to_string m2)

let test_msg_push_pop () =
  let m = Msg.of_string "payload" in
  Msg.push m "tcp|";
  Msg.push m "ip|";
  Msg.push m "eth|";
  check_int "header bytes" 11 (Msg.header_length m);
  Alcotest.(check (option string)) "pop eth" (Some "eth|") (Msg.pop m);
  Alcotest.(check (option string)) "pop ip" (Some "ip|") (Msg.pop m);
  Alcotest.(check (option string)) "pop tcp" (Some "tcp|") (Msg.pop m);
  Alcotest.(check (option string)) "pop empty" None (Msg.pop m);
  check_int "data untouched" 7 (Msg.data_length m)

let test_msg_fragment_concat () =
  let m = Msg.of_string "0123456789abcdef" in
  let frags = Msg.fragment m ~mtu:5 in
  check_int "fragment count" 4 (List.length frags);
  Alcotest.(check (list int)) "fragment sizes" [ 5; 5; 5; 1 ]
    (List.map Msg.data_length frags);
  let whole = Msg.concat frags in
  check_str "reassembled" "0123456789abcdef" (Msg.data_to_string whole);
  Alcotest.check_raises "bad mtu" (Invalid_argument "Msg.fragment: non-positive MTU")
    (fun () -> ignore (Msg.fragment m ~mtu:0))

let test_msg_copy_sharing () =
  let base = Bytes.of_string "shared" in
  let m = Msg.of_bytes base in
  let c = List.hd (Msg.fragment m ~mtu:6) in
  Msg.push c "X";
  check_int "fragment header independent" 0 (Msg.header_length m);
  check_int "fragment has header" 1 (Msg.header_length c);
  (* Data bytes are shared: mutating the base is visible through both. *)
  Bytes.set base 0 'S';
  check_str "original sees change" "Shared" (Msg.data_to_string m);
  check_str "fragment sees change" "Shared" (Msg.data_to_string c)

let test_msg_copy_counters () =
  Msg.reset_copy_counters ();
  let m = Msg.of_string "0123456789" in
  ignore (Msg.concat (Msg.fragment m ~mtu:3));
  check_int "logical ops copy nothing" 0 (Msg.physical_copies ());
  ignore (Msg.data_to_string m);
  check_int "materialize counts" 1 (Msg.physical_copies ());
  ignore (Msg.detach m);
  check_int "detach counts" 2 (Msg.physical_copies ());
  Msg.reset_copy_counters ();
  check_int "reset" 0 (Msg.physical_copies ())

let test_msg_iter_data () =
  let m = Msg.of_string "abcdef" in
  let back = Msg.concat (List.tl (Msg.fragment m ~mtu:2)) in
  let collected = Buffer.create 8 in
  Msg.iter_data back (fun b off len -> Buffer.add_subbytes collected b off len);
  check_str "iter over segments" "cdef" (Buffer.contents collected)

let test_msg_of_bytes_slice () =
  let base = Bytes.of_string "0123456789" in
  let m = Msg.of_bytes_slice base ~off:2 ~len:5 in
  check_int "slice length" 5 (Msg.data_length m);
  check_str "slice content" "23456" (Msg.data_to_string m);
  (* The slice is a view: base mutations show through. *)
  Bytes.set base 3 'X';
  check_str "aliases base" "2X456" (Msg.data_to_string m);
  Alcotest.check_raises "overrun" (Invalid_argument "Msg.of_bytes_slice")
    (fun () -> ignore (Msg.of_bytes_slice base ~off:8 ~len:3));
  Alcotest.check_raises "negative" (Invalid_argument "Msg.of_bytes_slice")
    (fun () -> ignore (Msg.of_bytes_slice base ~off:(-1) ~len:2))

let test_msg_detach () =
  let base = Bytes.of_string "leased frame bytes" in
  let view = Msg.of_bytes_slice base ~off:7 ~len:5 in
  Msg.reset_copy_counters ();
  let owned = Msg.detach view in
  check_int "detach is one counted copy" 1 (Msg.physical_copies ());
  check_str "same content" "frame" (Msg.data_to_string owned);
  (* The detached message survives the lease's buffer being recycled. *)
  Bytes.fill base 0 (Bytes.length base) '\000';
  check_str "independent of base" "frame" (Msg.data_to_string owned);
  check_str "view sees the recycle" "\000\000\000\000\000" (Msg.data_to_string view)

let prop_fragment_roundtrip =
  QCheck2.Test.make ~name:"fragment/concat is the identity" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 200)) (int_range 1 32))
    (fun (s, mtu) ->
      let m = Msg.of_string s in
      Msg.data_to_string (Msg.concat (Msg.fragment m ~mtu)) = s)

let prop_push_pop_roundtrip =
  QCheck2.Test.make ~name:"push then pop returns headers LIFO" ~count:200
    QCheck2.Gen.(list_size (int_range 0 10) (string_size (int_range 1 8)))
    (fun headers ->
      let m = Msg.of_string "data" in
      List.iter (Msg.push m) headers;
      let popped = List.filter_map (fun _ -> Msg.pop m) headers in
      popped = List.rev headers)

(* ------------------------------------------------------------- Checksum *)

let test_internet_known_vector () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum ~220d *)
  let data = String.init 8 (fun i -> Char.chr (List.nth [ 0x00; 0x01; 0xf2; 0x03; 0xf4; 0xf5; 0xf6; 0xf7 ] i)) in
  check_int "rfc1071" 0x220D (Checksum.internet data)

let test_internet_odd_length () =
  let even = Checksum.internet "ab" in
  let odd = Checksum.internet "ab\000" in
  check_int "trailing zero pad equivalent" even odd

let test_crc32_known_vector () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Checksum.crc32 "123456789")

let test_checksum_detects_flip () =
  let s = "The quick brown fox jumps over the lazy dog" in
  let flipped = Bytes.of_string s in
  Bytes.set flipped 7 (Char.chr (Char.code (Bytes.get flipped 7) lxor 0x40));
  check_bool "internet detects" true
    (Checksum.internet s <> Checksum.internet (Bytes.to_string flipped));
  check_bool "crc detects" true
    (Checksum.crc32 s <> Checksum.crc32 (Bytes.to_string flipped))

let prop_internet_msg_fragmentation_invariant =
  QCheck2.Test.make ~name:"internet_msg is invariant under fragmentation" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 128)) (int_range 1 16))
    (fun (s, mtu) ->
      let whole = Checksum.internet s in
      let m = Msg.concat (Msg.fragment (Msg.of_string s) ~mtu) in
      Checksum.internet_msg m = whole)

let prop_crc32_msg_fragmentation_invariant =
  QCheck2.Test.make ~name:"crc32_msg is invariant under fragmentation" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 128)) (int_range 1 16))
    (fun (s, mtu) ->
      let whole = Checksum.crc32 s in
      let m = Msg.concat (Msg.fragment (Msg.of_string s) ~mtu) in
      Checksum.crc32_msg m = whole)

let prop_crc_bit_flip =
  QCheck2.Test.make ~name:"crc32 detects any single bit flip" ~count:300
    QCheck2.Gen.(string_size (int_range 1 64))
    (fun s ->
      let b = Bytes.of_string s in
      let i = (String.length s * 7) mod String.length s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Checksum.crc32 s <> Checksum.crc32 (Bytes.to_string b))

(* Byte-at-a-time reference implementations the word-at-a-time folds in
   Checksum must agree with. *)

let ref_internet s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Bytes.get_uint8 b !i lsl 8) + Bytes.get_uint8 b (!i + 1);
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let ref_crc32 s =
  let poly = 0xEDB88320 in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := poly lxor (!c lsr 1) else c := !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_internet_matches_bytewise_reference =
  QCheck2.Test.make ~name:"word-at-a-time internet = byte-wise reference"
    ~count:500
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s -> Checksum.internet s = ref_internet s)

let prop_crc32_matches_bytewise_reference =
  QCheck2.Test.make ~name:"slicing-by-8 crc32 = byte-wise reference" ~count:500
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s -> Checksum.crc32 s = ref_crc32 s)

let prop_internet_msg_odd_segments =
  (* Odd-length segments force the cross-boundary carry path. *)
  QCheck2.Test.make ~name:"internet_msg carries across odd segment splits"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 8) (string_size (int_range 0 33)))
    (fun pieces ->
      let m = Msg.concat (List.map Msg.of_string pieces) in
      Checksum.internet_msg m = ref_internet (String.concat "" pieces))

let prop_crc32_msg_odd_segments =
  QCheck2.Test.make ~name:"crc32_msg over segments = byte-wise reference"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 8) (string_size (int_range 0 33)))
    (fun pieces ->
      let m = Msg.concat (List.map Msg.of_string pieces) in
      Checksum.crc32_msg m = ref_crc32 (String.concat "" pieces))

(* Fused running sums: the packed-state [sum_*] operations must agree
   with copy-then-[internet] over any chunking — including odd-length
   chunks (which exercise the pending-byte carry) and nonzero offsets
   (which exercise the unaligned bulk loop). *)

(* Cut [s] into chunks whose lengths are drawn from [cuts]. *)
let chunked s cuts =
  let n = String.length s in
  let rec go pos cuts acc =
    if pos >= n then List.rev acc
    else
      match cuts with
      | [] -> List.rev ((pos, n - pos) :: acc)
      | c :: rest ->
        let len = min (1 + c) (n - pos) in
        go (pos + len) rest ((pos, len) :: acc)
  in
  go 0 cuts []

let gen_string_and_cuts =
  QCheck2.Gen.(
    pair
      (string_size (int_range 0 300))
      (list_size (int_range 0 12) (int_range 0 37)))

let prop_sum_add_chunked_matches_internet =
  QCheck2.Test.make
    ~name:"sum_add over any chunking = internet of the whole" ~count:500
    gen_string_and_cuts
    (fun (s, cuts) ->
      let b = Bytes.of_string s in
      let st =
        List.fold_left
          (fun st (off, len) -> Checksum.sum_add st b off len)
          Checksum.sum_init (chunked s cuts)
      in
      Checksum.sum_finish st = Checksum.internet s)

let prop_sum_into_matches_copy_then_internet =
  (* The satellite property: fused copy+sum = Bytes.blit then
     [internet], for odd lengths and offset starts on both sides. *)
  QCheck2.Test.make
    ~name:"sum_into = blit + internet (odd lengths, offset starts)"
    ~count:500
    QCheck2.Gen.(pair gen_string_and_cuts (pair (int_range 0 7) (int_range 0 7)))
    (fun ((s, cuts), (src_pad, dst_pad)) ->
      let n = String.length s in
      (* Embed the source at [src_pad] so bulk loops start unaligned. *)
      let src = Bytes.make (src_pad + n) '\xAA' in
      Bytes.blit_string s 0 src src_pad n;
      let dst = Bytes.make (dst_pad + n) '\x55' in
      let st =
        List.fold_left
          (fun st (off, len) ->
            Checksum.sum_into st ~src ~src_off:(src_pad + off) ~dst
              ~dst_off:(dst_pad + off) ~len)
          Checksum.sum_init (chunked s cuts)
      in
      Checksum.sum_finish st = Checksum.internet s
      && Bytes.sub_string dst dst_pad n = s)

let prop_sum_skip2_is_two_zero_bytes =
  QCheck2.Test.make
    ~name:"sum_skip2 = sum_add of two zero bytes at any parity" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (string_size (int_range 0 64)))
    (fun (before, after) ->
      let b1 = Bytes.of_string before and b2 = Bytes.of_string after in
      let zz = Bytes.make 2 '\000' in
      let via_skip =
        Checksum.sum_add
          (Checksum.sum_skip2
             (Checksum.sum_add Checksum.sum_init b1 0 (Bytes.length b1)))
          b2 0 (Bytes.length b2)
      in
      let via_zeros =
        Checksum.sum_add
          (Checksum.sum_add
             (Checksum.sum_add Checksum.sum_init b1 0 (Bytes.length b1))
             zz 0 2)
          b2 0 (Bytes.length b2)
      in
      Checksum.sum_finish via_skip = Checksum.sum_finish via_zeros)

let test_sum_into_bounds () =
  let src = Bytes.create 8 and dst = Bytes.create 8 in
  Alcotest.check_raises "src overrun" (Invalid_argument "Checksum.sum_into")
    (fun () ->
      ignore
        (Checksum.sum_into Checksum.sum_init ~src ~src_off:4 ~dst ~dst_off:0
           ~len:5));
  Alcotest.check_raises "dst overrun" (Invalid_argument "Checksum.sum_into")
    (fun () ->
      ignore
        (Checksum.sum_into Checksum.sum_init ~src ~src_off:0 ~dst ~dst_off:4
           ~len:5));
  Alcotest.check_raises "negative len" (Invalid_argument "Checksum.sum_add")
    (fun () -> ignore (Checksum.sum_add Checksum.sum_init src 0 (-1)))

(* Cached lengths: [data_length]/[header_length] are O(1) fields now;
   check they always agree with a recount over the actual regions. *)

let recounted_data_length m =
  let n = ref 0 in
  Msg.iter_data m (fun _ _ len -> n := !n + len);
  !n

let prop_msg_cached_data_length =
  QCheck2.Test.make ~name:"cached data_length survives split/fragment/concat"
    ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 120)) (int_range 1 17))
    (fun (s, mtu) ->
      let m = Msg.of_string s in
      let n = String.length s in
      let frags = Msg.fragment m ~mtu in
      let whole = Msg.concat (m :: frags) in
      Msg.data_length m = recounted_data_length m
      && List.for_all (fun f -> Msg.data_length f = recounted_data_length f) frags
      && Msg.data_length whole = 2 * n)

let prop_msg_cached_header_length =
  QCheck2.Test.make ~name:"cached header_length tracks push/pop" ~count:300
    QCheck2.Gen.(list_size (int_range 0 12) (string_size (int_range 0 9)))
    (fun headers ->
      let m = Msg.of_string "payload" in
      List.iter (Msg.push m) headers;
      let full = List.fold_left (fun a h -> a + String.length h) 0 headers in
      let ok_pushed = Msg.header_length m = full in
      let popped = match Msg.pop m with None -> 0 | Some h -> String.length h in
      ok_pushed && Msg.header_length m = full - popped)

(* ------------------------------------------------------------------ Pool *)

let available p = Pool.capacity p - Pool.in_use p

let test_pool_alloc_free () =
  let p = Pool.create ~buffers:2 ~size:64 in
  check_int "capacity" 2 (Pool.capacity p);
  check_int "available" 2 (available p);
  let a = Pool.lease p ~min_bytes:64 in
  let _b = Pool.lease p ~min_bytes:64 in
  check_int "in use" 2 (Pool.in_use p);
  check_int "leases served by the pool" 2 (Pool.lease_hits p);
  let c = Pool.lease p ~min_bytes:64 in
  check_int "exhausted: served fresh" 1 (Pool.lease_fresh p);
  check_int "miss recorded" 1 (Pool.misses p);
  Pool.release p c;
  check_int "fresh buffer not pooled" 0 (available p);
  Pool.release p a;
  check_int "available again" 1 (available p);
  let _d = Pool.lease p ~min_bytes:64 in
  check_int "re-lease served by the pool" 3 (Pool.lease_hits p)

let test_pool_free_errors () =
  let p = Pool.create ~buffers:1 ~size:32 in
  let l = Pool.lease p ~min_bytes:32 in
  Pool.release p l;
  Alcotest.check_raises "double release" (Invalid_argument "Pool.release: lease already released")
    (fun () -> Pool.release p l);
  check_int "failed release leaves the free count alone" 1 (available p);
  check_int "and the in-use count" 0 (Pool.in_use p)

let test_pool_buffer_size () =
  let p = Pool.create ~buffers:1 ~size:128 in
  let l = Pool.lease p ~min_bytes:1 in
  check_int "pool buffers have the pool's size" 128 (Bytes.length (Pool.lease_buf l))

let test_pool_count_invariant () =
  (* [in_use] is a maintained counter; hammer a deterministic
     lease/release pattern, past exhaustion, and check it against the
     pooled leases actually held (a lease is pooled when it moved
     [lease_hits]) at every step. *)
  let p = Pool.create ~buffers:8 ~size:4 in
  let held = ref [] in
  for i = 0 to 999 do
    (if i land 3 <> 0 then begin
       let hits = Pool.lease_hits p in
       let l = Pool.lease p ~min_bytes:4 in
       held := (l, Pool.lease_hits p > hits) :: !held
     end
     else
       match !held with
       | (l, _) :: rest ->
         held := rest;
         Pool.release p l
       | [] -> ());
    let pooled = List.length (List.filter snd !held) in
    if Pool.in_use p <> pooled || available p < 0 then
      Alcotest.failf "counter drift at step %d: %d in use, %d pooled leases held, cap %d" i
        (Pool.in_use p) pooled (Pool.capacity p)
  done;
  check_int "every buffer in use" 8 (Pool.in_use p);
  List.iter (fun (l, _) -> Pool.release p l) !held;
  check_int "all returned" 8 (available p)

(* ------------------------------------------------------------ Pool leases *)

let test_lease_reuse () =
  let p = Pool.create ~buffers:2 ~size:64 in
  let l1 = Pool.lease p ~min_bytes:32 in
  check_int "pool served" 1 (Pool.lease_hits p);
  check_int "one ref" 1 (Pool.lease_refs l1);
  check_int "taken from free list" 1 (available p);
  let b1 = Pool.lease_buf l1 in
  Pool.release p l1;
  check_int "returned on final release" 2 (available p);
  (* The recycled buffer comes straight back for the next frame. *)
  let l2 = Pool.lease p ~min_bytes:32 in
  check_bool "same physical buffer reused" true (Pool.lease_buf l2 == b1);
  check_int "still zero fresh" 0 (Pool.lease_fresh p);
  Pool.release p l2

let test_lease_refcount () =
  let p = Pool.create ~buffers:1 ~size:16 in
  let l = Pool.lease p ~min_bytes:8 in
  Pool.retain l;
  Pool.retain l;
  check_int "three holders" 3 (Pool.lease_refs l);
  Pool.release p l;
  Pool.release p l;
  check_int "buffer still held" 0 (available p);
  check_bool "still readable" true (Bytes.length (Pool.lease_buf l) = 16);
  Pool.release p l;
  check_int "final release returns it" 1 (available p);
  check_int "refs exhausted" 0 (Pool.lease_refs l)

let test_lease_double_release () =
  let p = Pool.create ~buffers:1 ~size:16 in
  let l = Pool.lease p ~min_bytes:8 in
  Pool.release p l;
  Alcotest.check_raises "double free" (Invalid_argument "Pool.release: lease already released")
    (fun () -> Pool.release p l);
  Alcotest.check_raises "use after free" (Invalid_argument "Pool.lease_buf: lease already released")
    (fun () -> ignore (Pool.lease_buf l));
  Alcotest.check_raises "retain after free" (Invalid_argument "Pool.retain: lease already released")
    (fun () -> Pool.retain l)

let test_lease_fresh_fallbacks () =
  let p = Pool.create ~buffers:1 ~size:32 in
  (* Oversized request: fresh buffer sized to the request. *)
  let big = Pool.lease p ~min_bytes:100 in
  check_int "oversized is fresh" 1 (Pool.lease_fresh p);
  check_bool "sized to request" true (Bytes.length (Pool.lease_buf big) >= 100);
  check_int "pool untouched" 1 (available p);
  (* Exhaustion: pool empty, so fresh again (and an alloc miss). *)
  let a = Pool.lease p ~min_bytes:8 in
  let b = Pool.lease p ~min_bytes:8 in
  check_int "second lease fresh on empty pool" 2 (Pool.lease_fresh p);
  check_bool "exhaustion counted as miss" true (Pool.misses p >= 1);
  Pool.release p a;
  check_int "pooled buffer comes back" 1 (available p);
  Pool.release p b;
  Pool.release p big;
  check_int "fresh buffers are not pooled on release" 1 (available p)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "buf.msg",
      [
        Alcotest.test_case "create and lengths" `Quick test_msg_create;
        Alcotest.test_case "header push/pop" `Quick test_msg_push_pop;
        Alcotest.test_case "fragment and concat" `Quick test_msg_fragment_concat;
        Alcotest.test_case "lazy copy shares payload" `Quick test_msg_copy_sharing;
        Alcotest.test_case "copy counters" `Quick test_msg_copy_counters;
        Alcotest.test_case "iter_data" `Quick test_msg_iter_data;
        Alcotest.test_case "of_bytes_slice views" `Quick test_msg_of_bytes_slice;
        Alcotest.test_case "detach copies out of a lease" `Quick test_msg_detach;
      ]
      @ qsuite
          [
            prop_fragment_roundtrip;
            prop_push_pop_roundtrip;
            prop_msg_cached_data_length;
            prop_msg_cached_header_length;
          ] );
    ( "buf.checksum",
      [
        Alcotest.test_case "internet RFC vector" `Quick test_internet_known_vector;
        Alcotest.test_case "internet odd length" `Quick test_internet_odd_length;
        Alcotest.test_case "crc32 check value" `Quick test_crc32_known_vector;
        Alcotest.test_case "detects bit flips" `Quick test_checksum_detects_flip;
        Alcotest.test_case "sum_into/sum_add bounds" `Quick test_sum_into_bounds;
      ]
      @ qsuite
          [
            prop_internet_msg_fragmentation_invariant;
            prop_crc32_msg_fragmentation_invariant;
            prop_crc_bit_flip;
            prop_internet_matches_bytewise_reference;
            prop_crc32_matches_bytewise_reference;
            prop_internet_msg_odd_segments;
            prop_crc32_msg_odd_segments;
            prop_sum_add_chunked_matches_internet;
            prop_sum_into_matches_copy_then_internet;
            prop_sum_skip2_is_two_zero_bytes;
          ] );
    ( "buf.pool",
      [
        Alcotest.test_case "alloc and free" `Quick test_pool_alloc_free;
        Alcotest.test_case "free errors" `Quick test_pool_free_errors;
        Alcotest.test_case "buffer size" `Quick test_pool_buffer_size;
        Alcotest.test_case "free-count accounting invariant" `Quick
          test_pool_count_invariant;
        Alcotest.test_case "lease reuse" `Quick test_lease_reuse;
        Alcotest.test_case "lease refcounts" `Quick test_lease_refcount;
        Alcotest.test_case "lease double release" `Quick test_lease_double_release;
        Alcotest.test_case "lease fresh fallbacks" `Quick test_lease_fresh_fallbacks;
      ] );
  ]
