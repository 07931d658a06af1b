open Adaptive_buf

type error = Truncated | Bad_type of int | Bad_checksum

let error_to_string = function
  | Truncated -> "truncated packet"
  | Bad_type t -> Printf.sprintf "unknown PDU type %d" t
  | Bad_checksum -> "checksum verification failed"

(* Type tags. *)
let t_data = 1
let t_parity = 2
let t_ack = 3
let t_nack = 4
let t_syn = 5
let t_syn_ack = 6
let t_ack_of_syn = 7
let t_fin = 8
let t_fin_ack = 9
let t_signal = 10
let t_signal_ack = 11

let set_u8 b off v = Bytes.set_uint8 b off (v land 0xff)
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let set_u64 b off v = Bytes.set_int64_be b off (Int64.of_int v)
let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_be
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* Checksum over the whole packet with the checksum field zeroed.  For
   payload-bearing PDUs the field is the 2-byte trailer; control PDUs keep
   it at offset 2. *)
let checksum_offset b =
  match get_u8 b 0 with
  | t when t = t_data || t = t_parity -> Bytes.length b - 2
  | _ -> 2

let seal b =
  let off = checksum_offset b in
  set_u16 b off 0;
  set_u16 b off (Checksum.internet (Bytes.unsafe_to_string b))

let verify b =
  let off = checksum_offset b in
  let found = get_u16 b off in
  set_u16 b off 0;
  let expect = Checksum.internet (Bytes.unsafe_to_string b) in
  set_u16 b off found;
  found = expect

(* ------------------------------------------------------------- encode *)

let rec encode_bytes (pdu : Pdu.t) =
  let b = Bytes.make (Pdu.wire_bytes pdu) '\000' in
  (match pdu with
  | Pdu.Data { conn; seg; retransmit; tx_stamp } ->
    set_u8 b 0 t_data;
    set_u8 b 1
      ((if seg.Pdu.app_last then 1 else 0) lor if retransmit then 2 else 0);
    set_u16 b 2 seg.Pdu.seg_bytes;
    set_u32 b 4 conn;
    set_u32 b 8 seg.Pdu.seq;
    set_u64 b 12 seg.Pdu.app_stamp;
    set_u64 b 20 tx_stamp;
    (* Same contract as [encode_into]: a longer payload is an error; a
       shorter or absent one leaves [b]'s zero filler in place. *)
    Option.iter
      (fun m ->
        let payload = Msg.data_to_string m in
        if String.length payload > seg.Pdu.seg_bytes then
          invalid_arg "Codec.encode: payload exceeds declared length";
        Bytes.blit_string payload 0 b 30 (String.length payload))
      seg.Pdu.payload
  | Pdu.Parity { conn; group_start; group_len; covered; parity } ->
    let block =
      match parity with
      | Some m -> Msg.data_to_string m
      | None ->
        String.make (List.fold_left (fun acc s -> max acc s.Pdu.seg_bytes) 0 covered) '\000'
    in
    set_u8 b 0 t_parity;
    set_u8 b 1 (List.length covered);
    set_u16 b 2 (String.length block);
    set_u32 b 4 conn;
    set_u32 b 8 group_start;
    set_u16 b 12 group_len;
    List.iteri
      (fun i (s : Pdu.seg) ->
        let off = 14 + (16 * i) in
        set_u32 b off s.Pdu.seq;
        set_u16 b (off + 4) s.Pdu.seg_bytes;
        set_u8 b (off + 6) (if s.Pdu.app_last then 1 else 0);
        set_u64 b (off + 8) s.Pdu.app_stamp)
      covered;
    Bytes.blit_string block 0 b (14 + (16 * List.length covered)) (String.length block)
  | Pdu.Ack { conn; cum; window; sack; echo } ->
    set_u8 b 0 t_ack;
    set_u8 b 1 (List.length sack);
    set_u32 b 4 conn;
    set_u32 b 8 cum;
    set_u32 b 12 window;
    set_u64 b 16 echo;
    List.iteri (fun i s -> set_u32 b (24 + (4 * i)) s) sack
  | Pdu.Nack { conn; missing } ->
    set_u8 b 0 t_nack;
    set_u8 b 1 (List.length missing);
    set_u32 b 4 conn;
    List.iteri (fun i s -> set_u32 b (12 + (4 * i)) s) missing
  | Pdu.Syn { conn; blob; first } ->
    let inner = match first with Some p -> encode_bytes p | None -> Bytes.empty in
    set_u8 b 0 t_syn;
    set_u8 b 1 (if first = None then 0 else 1);
    set_u32 b 4 conn;
    set_u32 b 8 (String.length blob);
    set_u32 b 12 (Bytes.length inner);
    Bytes.blit_string blob 0 b 24 (String.length blob);
    Bytes.blit inner 0 b (24 + String.length blob) (Bytes.length inner)
  | Pdu.Syn_ack { conn; accepted; blob } ->
    set_u8 b 0 t_syn_ack;
    set_u8 b 1 (if accepted then 1 else 0);
    set_u32 b 4 conn;
    set_u32 b 8 (String.length blob);
    Bytes.blit_string blob 0 b 24 (String.length blob)
  | Pdu.Ack_of_syn { conn } ->
    set_u8 b 0 t_ack_of_syn;
    set_u32 b 4 conn
  | Pdu.Fin { conn; graceful } ->
    set_u8 b 0 t_fin;
    set_u8 b 1 (if graceful then 1 else 0);
    set_u32 b 4 conn
  | Pdu.Fin_ack { conn } ->
    set_u8 b 0 t_fin_ack;
    set_u32 b 4 conn
  | Pdu.Signal { conn; blob } ->
    set_u8 b 0 t_signal;
    set_u32 b 4 conn;
    set_u32 b 8 (String.length blob);
    Bytes.blit_string blob 0 b 16 (String.length blob)
  | Pdu.Signal_ack { conn; blob } ->
    set_u8 b 0 t_signal_ack;
    set_u32 b 4 conn;
    set_u32 b 8 (String.length blob);
    Bytes.blit_string blob 0 b 16 (String.length blob));
  seal b;
  b

let encode pdu = Bytes.unsafe_to_string (encode_bytes pdu)

(* ------------------------------------------------------------- decode *)

let sub_string b off len = Bytes.sub_string b off len

let rec decode_body b =
  let len = Bytes.length b in
  if len < 8 then Error Truncated
  else
    let tag = get_u8 b 0 in
    let conn = get_u32 b 4 in
    let need n = if len < n then Error Truncated else Ok () in
    let ( let* ) = Result.bind in
    if tag = t_data then
      let* () = need 32 in
      let plen = get_u16 b 2 in
      let* () = need (32 + plen) in
      let flags = get_u8 b 1 in
      Ok
        (Pdu.Data
           {
             conn;
             seg =
               Pdu.seg ~seq:(get_u32 b 8) ~bytes:plen
                 ~stamp:(get_u64 b 12)
                 ~last:(flags land 1 = 1)
                 ~payload:(Msg.of_string (sub_string b 30 plen))
                 ();
             retransmit = flags land 2 = 2;
             tx_stamp = get_u64 b 20;
           })
    else if tag = t_parity then
      let count = get_u8 b 1 in
      let plen = get_u16 b 2 in
      let* () = need (16 + (16 * count) + plen) in
      let covered =
        List.init count (fun i ->
            let off = 14 + (16 * i) in
            Pdu.seg ~seq:(get_u32 b off)
              ~bytes:(get_u16 b (off + 4))
              ~last:(get_u8 b (off + 6) = 1)
              ~stamp:(get_u64 b (off + 8))
              ())
      in
      Ok
        (Pdu.Parity
           {
             conn;
             group_start = get_u32 b 8;
             group_len = get_u16 b 12;
             covered;
             parity = Some (Msg.of_string (sub_string b (14 + (16 * count)) plen));
           })
    else if tag = t_ack then
      let count = get_u8 b 1 in
      let* () = need (24 + (4 * count)) in
      Ok
        (Pdu.Ack
           {
             conn;
             cum = get_u32 b 8;
             window = get_u32 b 12;
             echo = get_u64 b 16;
             sack = List.init count (fun i -> get_u32 b (24 + (4 * i)));
           })
    else if tag = t_nack then
      let count = get_u8 b 1 in
      let* () = need (12 + (4 * count)) in
      Ok (Pdu.Nack { conn; missing = List.init count (fun i -> get_u32 b (12 + (4 * i))) })
    else if tag = t_syn then
      let* () = need 24 in
      let blob_len = get_u32 b 8 in
      let inner_len = get_u32 b 12 in
      let* () = need (24 + blob_len + inner_len) in
      let* first =
        if get_u8 b 1 = 0 then Ok None
        else
          let* inner = decode_body (Bytes.sub b (24 + blob_len) inner_len) in
          Ok (Some inner)
      in
      Ok (Pdu.Syn { conn; blob = sub_string b 24 blob_len; first })
    else if tag = t_syn_ack then
      let* () = need 24 in
      let blob_len = get_u32 b 8 in
      let* () = need (24 + blob_len) in
      Ok (Pdu.Syn_ack { conn; accepted = get_u8 b 1 = 1; blob = sub_string b 24 blob_len })
    else if tag = t_ack_of_syn then Ok (Pdu.Ack_of_syn { conn })
    else if tag = t_fin then Ok (Pdu.Fin { conn; graceful = get_u8 b 1 = 1 })
    else if tag = t_fin_ack then Ok (Pdu.Fin_ack { conn })
    else if tag = t_signal || tag = t_signal_ack then begin
      let* () = need 16 in
      let blob_len = get_u32 b 8 in
      let* () = need (16 + blob_len) in
      let blob = sub_string b 16 blob_len in
      if tag = t_signal then Ok (Pdu.Signal { conn; blob })
      else Ok (Pdu.Signal_ack { conn; blob })
    end
    else Error (Bad_type tag)

let decode s =
  let b = Bytes.of_string s in
  if Bytes.length b < 8 then Error Truncated
  else if not (verify b) then Error Bad_checksum
  else decode_body b

(* --------------------------------------------------- wire-true paths *)

(* Field writers over plain immediate ints.  The [set_u32]/[set_u64]
   helpers above go through boxed [Int32.t]/[Int64.t], which costs an
   allocation per call without flambda; the wire-true encoder must stay
   allocation-free, so it assembles the same big-endian bytes
   from unboxed 16-bit halves.  Values are non-negative and below 2^62,
   so the byte images agree with the boxed writers. *)
let set_u32i b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let set_u64i b off v =
  set_u32i b off ((v lsr 32) land 0xFFFFFFFF);
  set_u32i b (off + 4) v

(* Reusable encoder state: one record per wire-mode network, so
   the hot paths mutate fields instead of allocating.  [copy_seg] is the
   one [Msg.iter_data] callback, built once — creating a closure per
   encode would put words on the minor heap for every data PDU. *)
type wire = {
  mutable wbuf : Bytes.t;
  mutable wpos : int;
  mutable wsum : int;
  mutable fused : int;
  copy_seg : Bytes.t -> int -> int -> unit;
}

let wire_state () =
  let rec st =
    {
      wbuf = Bytes.empty;
      wpos = 0;
      wsum = Checksum.sum_init;
      fused = 0;
      copy_seg =
        (fun src src_off len ->
          st.wsum <-
            Checksum.sum_into st.wsum ~src ~src_off ~dst:st.wbuf
              ~dst_off:st.wpos ~len;
          st.wpos <- st.wpos + len);
    }
  in
  st

let fused_sums st = st.fused

(* Copy a message into [b] at [pos] while folding it into the running
   sum — the single fused pass.  Trailing zero filler (absent payloads,
   parity blocks shorter than the declared maximum) is not summed: zero
   bytes contribute nothing to a ones'-complement sum wherever the word
   pairing falls. *)
let fused_payload st msg b pos sum ~declared =
  match msg with
  | Some m ->
    st.wbuf <- b;
    st.wpos <- pos;
    st.wsum <- sum;
    Msg.iter_data m st.copy_seg;
    st.fused <- st.fused + 1;
    let actual = st.wpos - pos in
    if actual > declared then
      invalid_arg "Codec.encode_into: payload exceeds declared length";
    if actual < declared then Bytes.fill b (pos + actual) (declared - actual) '\000';
    st.wsum
  | None ->
    Bytes.fill b pos declared '\000';
    sum

let encode_into st (pdu : Pdu.t) b ~off =
  let len = Pdu.wire_bytes pdu in
  if off < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.encode_into: buffer too small";
  (match pdu with
  | Pdu.Data { conn; seg; retransmit; tx_stamp } ->
    let plen = seg.Pdu.seg_bytes in
    Bytes.set_uint8 b off t_data;
    Bytes.set_uint8 b (off + 1)
      ((if seg.Pdu.app_last then 1 else 0) lor if retransmit then 2 else 0);
    Bytes.set_uint16_be b (off + 2) plen;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) seg.Pdu.seq;
    set_u64i b (off + 12) seg.Pdu.app_stamp;
    set_u64i b (off + 20) tx_stamp;
    Bytes.set_uint16_be b (off + 28) 0;
    let sum = Checksum.sum_add Checksum.sum_init b off 30 in
    let sum = fused_payload st seg.Pdu.payload b (off + 30) sum ~declared:plen in
    Bytes.set_uint16_be b (off + 30 + plen)
      (Checksum.sum_finish (Checksum.sum_skip2 sum))
  | Pdu.Parity { conn; group_start; group_len; covered; parity } ->
    let count = List.length covered in
    let declared = Pdu.payload_bytes pdu in
    let plen =
      match parity with Some m -> Msg.data_length m | None -> declared
    in
    let pstart = off + 14 + (16 * count) in
    Bytes.set_uint8 b off t_parity;
    Bytes.set_uint8 b (off + 1) count;
    Bytes.set_uint16_be b (off + 2) plen;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) group_start;
    Bytes.set_uint16_be b (off + 12) group_len;
    List.iteri
      (fun i (s : Pdu.seg) ->
        let eo = off + 14 + (16 * i) in
        set_u32i b eo s.Pdu.seq;
        Bytes.set_uint16_be b (eo + 4) s.Pdu.seg_bytes;
        Bytes.set_uint8 b (eo + 6) (if s.Pdu.app_last then 1 else 0);
        Bytes.set_uint8 b (eo + 7) 0;
        set_u64i b (eo + 8) s.Pdu.app_stamp)
      covered;
    let sum = Checksum.sum_add Checksum.sum_init b off (pstart - off) in
    let sum = fused_payload st parity b pstart sum ~declared in
    Bytes.set_uint16_be b (off + len - 2)
      (Checksum.sum_finish (Checksum.sum_skip2 sum))
  | Pdu.Ack { conn; cum; window; sack; echo } ->
    Bytes.set_uint8 b off t_ack;
    Bytes.set_uint8 b (off + 1) (List.length sack);
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) cum;
    set_u32i b (off + 12) window;
    set_u64i b (off + 16) echo;
    List.iteri (fun i s -> set_u32i b (off + 24 + (4 * i)) s) sack;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Nack { conn; missing } ->
    Bytes.set_uint8 b off t_nack;
    Bytes.set_uint8 b (off + 1) (List.length missing);
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) 0;
    List.iteri (fun i s -> set_u32i b (off + 12 + (4 * i)) s) missing;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Syn { conn; blob; first } ->
    (* The nested first PDU is sealed separately, exactly as the string
       codec does; connection setup is not a steady-state path, so the
       intermediate bytes are acceptable here. *)
    let inner = match first with Some p -> encode_bytes p | None -> Bytes.empty in
    let blen = String.length blob in
    Bytes.set_uint8 b off t_syn;
    Bytes.set_uint8 b (off + 1) (if first = None then 0 else 1);
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) blen;
    set_u32i b (off + 12) (Bytes.length inner);
    set_u64i b (off + 16) 0;
    Bytes.blit_string blob 0 b (off + 24) blen;
    Bytes.blit inner 0 b (off + 24 + blen) (Bytes.length inner);
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Syn_ack { conn; accepted; blob } ->
    let blen = String.length blob in
    Bytes.set_uint8 b off t_syn_ack;
    Bytes.set_uint8 b (off + 1) (if accepted then 1 else 0);
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) blen;
    set_u32i b (off + 12) 0;
    set_u64i b (off + 16) 0;
    Bytes.blit_string blob 0 b (off + 24) blen;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Ack_of_syn { conn } ->
    Bytes.set_uint8 b off t_ack_of_syn;
    Bytes.set_uint8 b (off + 1) 0;
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) 0;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Fin { conn; graceful } ->
    Bytes.set_uint8 b off t_fin;
    Bytes.set_uint8 b (off + 1) (if graceful then 1 else 0);
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) 0;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Fin_ack { conn } ->
    Bytes.set_uint8 b off t_fin_ack;
    Bytes.set_uint8 b (off + 1) 0;
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) 0;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len))
  | Pdu.Signal { conn; blob } | Pdu.Signal_ack { conn; blob } ->
    let blen = String.length blob in
    Bytes.set_uint8 b off
      (match pdu with Pdu.Signal _ -> t_signal | _ -> t_signal_ack);
    Bytes.set_uint8 b (off + 1) 0;
    Bytes.set_uint16_be b (off + 2) 0;
    set_u32i b (off + 4) conn;
    set_u32i b (off + 8) blen;
    set_u32i b (off + 12) 0;
    Bytes.blit_string blob 0 b (off + 16) blen;
    Bytes.set_uint16_be b (off + 2)
      (Checksum.sum_finish (Checksum.sum_add Checksum.sum_init b off len)));
  len

(* In-place verification: sum the ranges either side of the checksum
   field and fold the field in as two zero bytes ({!Checksum.sum_skip2}),
   so shared buffers are never written.  Byte-equivalent to [verify]. *)
let verify_view b ~off ~len =
  let coff =
    match Bytes.get_uint8 b off with
    | t when t = t_data || t = t_parity -> len - 2
    | _ -> 2
  in
  let found = Bytes.get_uint16_be b (off + coff) in
  let st = Checksum.sum_add Checksum.sum_init b off coff in
  let st = Checksum.sum_skip2 st in
  let st = Checksum.sum_add st b (off + coff + 2) (len - coff - 2) in
  found = Checksum.sum_finish st

let decode_body_view b ~off ~len =
  if len < 8 then Error Truncated
  else
    let tag = get_u8 b off in
    let conn = get_u32 b (off + 4) in
    let need n = if len < n then Error Truncated else Ok () in
    let ( let* ) = Result.bind in
    if tag = t_data then
      let* () = need 32 in
      let plen = get_u16 b (off + 2) in
      let* () = need (32 + plen) in
      let flags = get_u8 b (off + 1) in
      Ok
        (Pdu.Data
           {
             conn;
             seg =
               Pdu.seg
                 ~seq:(get_u32 b (off + 8))
                 ~bytes:plen
                 ~stamp:(get_u64 b (off + 12))
                 ~last:(flags land 1 = 1)
                 ~payload:(Msg.of_bytes_slice b ~off:(off + 30) ~len:plen)
                 ();
             retransmit = flags land 2 = 2;
             tx_stamp = get_u64 b (off + 20);
           })
    else if tag = t_parity then
      let count = get_u8 b (off + 1) in
      let plen = get_u16 b (off + 2) in
      let* () = need (16 + (16 * count) + plen) in
      let covered =
        List.init count (fun i ->
            let eo = off + 14 + (16 * i) in
            Pdu.seg
              ~seq:(get_u32 b eo)
              ~bytes:(get_u16 b (eo + 4))
              ~last:(get_u8 b (eo + 6) = 1)
              ~stamp:(get_u64 b (eo + 8))
              ())
      in
      Ok
        (Pdu.Parity
           {
             conn;
             group_start = get_u32 b (off + 8);
             group_len = get_u16 b (off + 12);
             covered;
             parity =
               Some (Msg.of_bytes_slice b ~off:(off + 14 + (16 * count)) ~len:plen);
           })
    else if tag = t_ack then
      let count = get_u8 b (off + 1) in
      let* () = need (24 + (4 * count)) in
      Ok
        (Pdu.Ack
           {
             conn;
             cum = get_u32 b (off + 8);
             window = get_u32 b (off + 12);
             echo = get_u64 b (off + 16);
             sack = List.init count (fun i -> get_u32 b (off + 24 + (4 * i)));
           })
    else if tag = t_nack then
      let count = get_u8 b (off + 1) in
      let* () = need (12 + (4 * count)) in
      Ok
        (Pdu.Nack
           { conn; missing = List.init count (fun i -> get_u32 b (off + 12 + (4 * i))) })
    else if tag = t_syn then
      let* () = need 24 in
      let blob_len = get_u32 b (off + 8) in
      let inner_len = get_u32 b (off + 12) in
      let* () = need (24 + blob_len + inner_len) in
      let* first =
        if get_u8 b (off + 1) = 0 then Ok None
        else
          let* inner = decode_body (Bytes.sub b (off + 24 + blob_len) inner_len) in
          Ok (Some inner)
      in
      Ok (Pdu.Syn { conn; blob = sub_string b (off + 24) blob_len; first })
    else if tag = t_syn_ack then
      let* () = need 24 in
      let blob_len = get_u32 b (off + 8) in
      let* () = need (24 + blob_len) in
      Ok
        (Pdu.Syn_ack
           {
             conn;
             accepted = get_u8 b (off + 1) = 1;
             blob = sub_string b (off + 24) blob_len;
           })
    else if tag = t_ack_of_syn then Ok (Pdu.Ack_of_syn { conn })
    else if tag = t_fin then Ok (Pdu.Fin { conn; graceful = get_u8 b (off + 1) = 1 })
    else if tag = t_fin_ack then Ok (Pdu.Fin_ack { conn })
    else if tag = t_signal || tag = t_signal_ack then begin
      let* () = need 16 in
      let blob_len = get_u32 b (off + 8) in
      let* () = need (16 + blob_len) in
      let blob = sub_string b (off + 16) blob_len in
      if tag = t_signal then Ok (Pdu.Signal { conn; blob })
      else Ok (Pdu.Signal_ack { conn; blob })
    end
    else Error (Bad_type tag)

let decode_view b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.decode_view";
  if len < 8 then Error Truncated
  else if not (verify_view b ~off ~len) then Error Bad_checksum
  else decode_body_view b ~off ~len
