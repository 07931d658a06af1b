(* Error-detection codes, computed word-at-a-time.

   Both hot folds stride 8 bytes per iteration with a byte tail:

   - the Internet checksum reads four 16-bit big-endian words per step
     with [Bytes.get_uint16_be] (unboxed immediate ints, unlike the
     boxed [get_int64_*] accessors) and defers the ones'-complement
     folding to the end;
   - CRC-32 uses the slicing-by-8 technique: eight derived 256-entry
     tables let one step consume 8 input bytes with 8 table lookups.
     The state is kept in a plain [int] (the polynomial is 32 bits) so
     the loop never allocates an [Int32].

   The byte-at-a-time folds remain as the tail path, and the test suite
   asserts equality against byte-wise reference implementations on
   randomized inputs, including odd lengths and odd segment splits. *)

(* ------------------------------------------------ Internet checksum *)

(* Ones'-complement sum of 16-bit big-endian words starting on an even
   word boundary within [b.[off .. off+len)]. *)
let internet_fold acc b off len =
  let sum = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    sum :=
      !sum
      + Bytes.get_uint16_be b !i
      + Bytes.get_uint16_be b (!i + 2)
      + Bytes.get_uint16_be b (!i + 4)
      + Bytes.get_uint16_be b (!i + 6);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  !sum

let internet_finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let internet s =
  let b = Bytes.unsafe_of_string s in
  internet_finish (internet_fold 0 b 0 (Bytes.length b))

let internet_msg m =
  (* Pair bytes into 16-bit words across segment boundaries by carrying
     the leftover high byte of an odd-length segment into the next. *)
  let sum = ref 0 in
  let pending = ref (-1) in
  Msg.iter_data m (fun b off len ->
      let i = ref off in
      let stop = off + len in
      if !pending >= 0 && !i < stop then begin
        sum := !sum + ((!pending lsl 8) lor Bytes.get_uint8 b !i);
        pending := -1;
        incr i
      end;
      while !i + 8 <= stop do
        sum :=
          !sum
          + Bytes.get_uint16_be b !i
          + Bytes.get_uint16_be b (!i + 2)
          + Bytes.get_uint16_be b (!i + 4)
          + Bytes.get_uint16_be b (!i + 6);
        i := !i + 8
      done;
      while !i + 2 <= stop do
        sum := !sum + Bytes.get_uint16_be b !i;
        i := !i + 2
      done;
      if !i < stop then pending := Bytes.get_uint8 b !i);
  if !pending >= 0 then sum := !sum + (!pending lsl 8);
  internet_finish !sum

(* ----------------------------------------------- fused running sums *)

(* The running state packs (partial sum, pending high byte) into one
   immediate int: [(sum lsl 9) lor (pending + 1)] with pending in
   [-1, 255].  The sum is partially folded (16-bit chunks re-added) at
   the end of every operation, so the packed value never approaches the
   63-bit range no matter how many bytes are summed.  Keeping the state
   unboxed is what lets the codec thread it through a whole encode pass
   without allocating. *)

let sum_init = 0

let[@inline] pack sum pending =
  let s = (sum land 0xFFFF) + (sum lsr 16) in
  (s lsl 9) lor (pending + 1)

(* Unaligned 16-bit native-endian access without per-word bounds checks;
   every call site validates the whole range up front.  The bulk loops
   below accumulate {e native}-endian word sums and convert once per
   range: the ones'-complement sum is byte-order independent up to a
   byte swap of the folded result (RFC 1071 §2(B)), because the
   end-around-carry addition commutes with byte rotation. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

let[@inline] fold16 x =
  let s = ref x in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

(* A native-endian word sum's contribution to the big-endian stream sum.
   Congruent mod 0xFFFF rather than equal — the final fold absorbs the
   difference. *)
let[@inline] native_sum_be x =
  if Sys.big_endian then x
  else
    let f = fold16 x in
    ((f land 0xFF) lsl 8) lor (f lsr 8)

let sum_add state b off len =
  if len < 0 || off < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.sum_add";
  let sum = ref (state lsr 9) in
  let pending = ref ((state land 0x1FF) - 1) in
  let i = ref off in
  let stop = off + len in
  if !pending >= 0 && !i < stop then begin
    sum := !sum + ((!pending lsl 8) lor Bytes.get_uint8 b !i);
    pending := -1;
    incr i
  end;
  let n0 = ref 0 and n1 = ref 0 in
  let lim = stop - 16 in
  while !i <= lim do
    n0 :=
      !n0 + unsafe_get16 b !i
      + unsafe_get16 b (!i + 2)
      + unsafe_get16 b (!i + 4)
      + unsafe_get16 b (!i + 6);
    n1 :=
      !n1
      + unsafe_get16 b (!i + 8)
      + unsafe_get16 b (!i + 10)
      + unsafe_get16 b (!i + 12)
      + unsafe_get16 b (!i + 14);
    i := !i + 16
  done;
  sum := !sum + native_sum_be (!n0 + !n1);
  while !i + 2 <= stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then pending := Bytes.get_uint8 b !i;
  pack !sum !pending

(* Advance the state as if two zero bytes were summed: how a zeroed
   checksum field is folded in without writing zeros into a buffer the
   caller may not own.  Zero bytes contribute nothing to the sum, but
   they do shift word-pairing parity, which [pending] records. *)
let sum_skip2 state =
  let pending = (state land 0x1FF) - 1 in
  if pending < 0 then state
  else
    let sum = (state lsr 9) + (pending lsl 8) in
    pack sum 0

let sum_into state ~src ~src_off ~dst ~dst_off ~len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > Bytes.length src
    || dst_off + len > Bytes.length dst
  then invalid_arg "Checksum.sum_into";
  let sum = ref (state lsr 9) in
  let pending = ref ((state land 0x1FF) - 1) in
  let i = ref 0 in
  if !pending >= 0 && len > 0 then begin
    let v = Bytes.get_uint8 src src_off in
    Bytes.set_uint8 dst dst_off v;
    sum := !sum + ((!pending lsl 8) lor v);
    pending := -1;
    incr i
  end;
  (* Bulk: one [Bytes.blit] (memcpy) then the word sum over the
     just-written, cache-resident destination.  Interleaving 16-bit
     loads and stores in one loop measures ~2x slower than letting the
     copy run at memcpy speed and folding the sum over hot lines — the
     data is still traversed exactly once at memory-hierarchy cost, with
     no intermediate buffer. *)
  let bulk = (len - !i) land lnot 15 in
  if bulk > 0 then begin
    Bytes.blit src (src_off + !i) dst (dst_off + !i) bulk;
    let n0 = ref 0 and n1 = ref 0 in
    let j = ref (dst_off + !i) in
    let lim = dst_off + !i + bulk - 16 in
    while !j <= lim do
      n0 :=
        !n0 + unsafe_get16 dst !j
        + unsafe_get16 dst (!j + 2)
        + unsafe_get16 dst (!j + 4)
        + unsafe_get16 dst (!j + 6);
      n1 :=
        !n1
        + unsafe_get16 dst (!j + 8)
        + unsafe_get16 dst (!j + 10)
        + unsafe_get16 dst (!j + 12)
        + unsafe_get16 dst (!j + 14);
      j := !j + 16
    done;
    sum := !sum + native_sum_be (!n0 + !n1);
    i := !i + bulk
  end;
  while !i + 2 <= len do
    let w = Bytes.get_uint16_be src (src_off + !i) in
    Bytes.set_uint16_be dst (dst_off + !i) w;
    sum := !sum + w;
    i := !i + 2
  done;
  if !i < len then begin
    let v = Bytes.get_uint8 src (src_off + !i) in
    Bytes.set_uint8 dst (dst_off + !i) v;
    pending := v
  end;
  pack !sum !pending

let sum_finish state =
  let sum = state lsr 9 in
  let pending = (state land 0x1FF) - 1 in
  internet_finish (if pending >= 0 then sum + (pending lsl 8) else sum)

(* --------------------------------------------------------------- CRC *)

let crc_poly = 0xEDB88320

(* Slicing tables: [slice.(k).(v)] is the CRC of byte [v] followed by
   [k] zero bytes.  [slice.(0)] is the classic byte-at-a-time table.
   Built eagerly at module init: a toplevel [lazy] forced from several
   domains at once is unsafe, and parallel campaign workers (lib/fleet)
   all run CRC paths. *)
let slice_tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := crc_poly lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  let tables = Array.make 8 t0 in
  for k = 1 to 7 do
    let prev = tables.(k - 1) in
    tables.(k) <-
      Array.init 256 (fun n -> t0.(prev.(n) land 0xFF) lxor (prev.(n) lsr 8))
  done;
  tables

let crc32_fold_int acc b off len =
  let tables = slice_tables in
  let t0 = tables.(0)
  and t1 = tables.(1)
  and t2 = tables.(2)
  and t3 = tables.(3)
  and t4 = tables.(4)
  and t5 = tables.(5)
  and t6 = tables.(6)
  and t7 = tables.(7) in
  let c = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let one =
      !c
      lxor (Bytes.get_uint16_le b !i lor (Bytes.get_uint16_le b (!i + 2) lsl 16))
    in
    let two =
      Bytes.get_uint16_le b (!i + 4) lor (Bytes.get_uint16_le b (!i + 6) lsl 16)
    in
    c :=
      t7.(one land 0xFF)
      lxor t6.((one lsr 8) land 0xFF)
      lxor t5.((one lsr 16) land 0xFF)
      lxor t4.((one lsr 24) land 0xFF)
      lxor t3.(two land 0xFF)
      lxor t2.((two lsr 8) land 0xFF)
      lxor t1.((two lsr 16) land 0xFF)
      lxor t0.((two lsr 24) land 0xFF);
    i := !i + 8
  done;
  while !i < stop do
    c := t0.((!c lxor Bytes.get_uint8 b !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let crc32 s =
  let b = Bytes.unsafe_of_string s in
  Int32.of_int (crc32_fold_int 0xFFFFFFFF b 0 (Bytes.length b) lxor 0xFFFFFFFF)

let crc32_msg m =
  let acc = ref 0xFFFFFFFF in
  Msg.iter_data m (fun b off len -> acc := crc32_fold_int !acc b off len);
  Int32.of_int (!acc lxor 0xFFFFFFFF)
