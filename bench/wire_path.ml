(* e12_wire_path — the wire-true zero-copy data path (WIRE).

   Three layers of evidence that the fused single-pass encode+checksum
   path is both faster and exact:

   1. Micro: serialize the same data PDU through the string codec
      ([Codec.encode]: blit pass + checksum pass + a fresh string per
      PDU) and through the fused path ([Codec.encode_into]: one pass
      into a reused wire buffer).  Reported per path: bytes/s, minor
      words per PDU, and Msg-counted physical copies per PDU.  The
      acceptance criteria are fused >= 2x string-codec bytes/s, and
      0 minor words per PDU at steady state for [encode_into] — asserted
      via [Gc.minor_words] deltas over the timed loop.  The string and
      in-place ([Codec.decode_view]) decoders necessarily allocate their
      result PDU; their (small, constant) words/PDU are reported for
      contrast.

   2. Wire-true runs: the SWARM churn workload executed in wire-true
      mode on its lossless LAN must produce the FNV-1a trace digest of
      the value-mode run — the wire hooks add zero simulated time and
      no extra random draws — and the digest must hold on a rerun and
      across a [Fleet.map ~jobs:4] replay on separate domains.

   3. Wire whitebox: every injected frame is accounted (encodes =
      decodes on the lossless link, zero rejects), and the buffer pool
      serves the steady state from reuse rather than fresh allocation. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_mech
open Adaptive_core
open Adaptive_workloads

(* Set by main.ml's --smoke flag: shorter loops, smaller swarm. *)
let smoke = ref false

let pf = Format.printf

(* ------------------------------------------------------------- micro *)

let payload_bytes = 1400

let make_data () =
  let payload =
    Msg.of_string
      (String.init payload_bytes (fun i -> Char.chr (((i * 131) + 17) land 0xff)))
  in
  Pdu.Data
    {
      conn = 7;
      seg =
        Pdu.seg ~payload ~last:false ~stamp:(Time.us 123) ~seq:42
          ~bytes:payload_bytes ();
      retransmit = false;
      tx_stamp = Time.us 456;
    }

type micro_result = {
  label : string;
  bytes_per_sec : float;
  words_per_pdu : float;
  copies_per_pdu : float;
}

(* Time [iters] runs of [f], reading the minor-word and Msg-copy
   counters around the loop.  [Gc.minor_words] itself boxes a float; at
   the loop lengths used here that is < 0.001 words/PDU of noise. *)
let measure ~label ~iters ~pdu_bytes f =
  for _ = 1 to 1000 do
    f ()
  done;
  Msg.reset_copy_counters ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = float_of_int iters in
  {
    label;
    bytes_per_sec =
      (if elapsed <= 0.0 then 0.0 else float_of_int (iters * pdu_bytes) /. elapsed);
    words_per_pdu = words /. n;
    copies_per_pdu = float_of_int (Msg.physical_copies ()) /. n;
  }

let report_micro r =
  pf "  %-24s %8.1f MB/s  %10.4f words/PDU  %6.3f copies/PDU@." r.label
    (r.bytes_per_sec /. 1e6) r.words_per_pdu r.copies_per_pdu

(* ---------------------------------------------------------------- e12 *)

let e12_wire_path () =
  let iters = if !smoke then 50_000 else 200_000 in
  pf "@.== e12_wire_path: fused single-pass encode+checksum%s ==@."
    (if !smoke then " [smoke]" else "");

  let pdu = make_data () in
  let wire_len = Pdu.wire_bytes pdu in
  let st = Codec.wire_state () in
  let buf = Bytes.create (wire_len + 64) in

  (* Encode paths. *)
  let enc_string =
    measure ~label:"encode (string codec)" ~iters ~pdu_bytes:wire_len (fun () ->
        ignore (Sys.opaque_identity (Codec.encode pdu)))
  in
  let enc_fused =
    measure ~label:"encode_into (fused)" ~iters ~pdu_bytes:wire_len (fun () ->
        ignore (Sys.opaque_identity (Codec.encode_into st pdu buf ~off:0)))
  in

  (* Decode paths, over the image the fused encoder just produced. *)
  let image = String.sub (Bytes.unsafe_to_string buf) 0 wire_len in
  let dec_string =
    measure ~label:"decode (string codec)" ~iters ~pdu_bytes:wire_len (fun () ->
        match Codec.decode image with
        | Ok _ -> ()
        | Error _ -> failwith "e12: string decode failed")
  in
  let dec_view =
    measure ~label:"decode_view (in place)" ~iters ~pdu_bytes:wire_len (fun () ->
        match Codec.decode_view buf ~off:0 ~len:wire_len with
        | Ok _ -> ()
        | Error _ -> failwith "e12: decode_view failed")
  in
  let micro = [ enc_string; enc_fused; dec_string; dec_view ] in
  List.iter report_micro micro;

  let enc_ratio = enc_fused.bytes_per_sec /. enc_string.bytes_per_sec in
  Util.timing_check
    (Printf.sprintf "fused encode >= 2x string-codec bytes/s (%.2fx)" enc_ratio)
    (enc_ratio >= 2.0);
  (* "Zero minor words per data PDU at steady state": the only
     allocation tolerated over the loop is the float box Gc.minor_words
     itself costs, far under 0.01 words/PDU. *)
  Util.shape_check
    (Printf.sprintf "encode_into allocates 0 words/PDU (%.4f)"
       enc_fused.words_per_pdu)
    (enc_fused.words_per_pdu < 0.01);
  Util.shape_check
    (Printf.sprintf "fused path performs no counted payload copies (%.3f)"
       enc_fused.copies_per_pdu)
    (enc_fused.copies_per_pdu = 0.0);
  Util.shape_check
    (Printf.sprintf "fused checksums happened in the copy pass (%d)"
       (Codec.fused_sums st))
    (Codec.fused_sums st > 0);

  (* Wire-true vs value mode on the lossless SWARM LAN. *)
  let sessions = if !smoke then 200 else 1_000 in
  let seed = 0xE12 in
  let value_cfg = Churn.default_config ~sessions ~seed in
  let wire_cfg = { value_cfg with Churn.wire = true } in
  let value_o = Churn.run value_cfg in
  let wire_o = Churn.run wire_cfg in
  pf "  value mode: digest=0x%Lx  wire mode: digest=0x%Lx@." value_o.Churn.digest
    wire_o.Churn.digest;
  (match wire_o.Churn.wire_report with
  | None -> ()
  | Some w ->
    pf "  wire: encodes=%d decodes=%d rejects=%d fused_sums=%d pool_reuse=%.3f@."
      w.Session.Wire.encodes w.Session.Wire.decodes w.Session.Wire.rejects
      w.Session.Wire.fused_sums w.Session.Wire.pool_reuse_rate);
  Util.shape_check "wire-true digest equals value-mode digest (lossless)"
    (wire_o.Churn.digest = value_o.Churn.digest);
  let wire_o2 = Churn.run wire_cfg in
  Util.shape_check "wire-true rerun: identical digest"
    (wire_o2.Churn.digest = wire_o.Churn.digest);
  let digests =
    Adaptive_fleet.Fleet.map ~jobs:4
      (fun cfg -> (Churn.run cfg).Churn.digest)
      (Array.make 4 wire_cfg)
  in
  Util.shape_check "jobs=4 fleet replay: all wire digests identical"
    (Array.for_all (fun d -> d = wire_o.Churn.digest) digests);
  let wr =
    match wire_o.Churn.wire_report with
    | Some w -> w
    | None -> failwith "e12: wire run produced no wire report"
  in
  Util.shape_check "lossless link: every encoded frame decoded, none rejected"
    (wr.Session.Wire.encodes = wr.Session.Wire.decodes
    && wr.Session.Wire.rejects = 0);
  Util.shape_check
    (Printf.sprintf "frame leases mostly pool-served (reuse %.3f)"
       wr.Session.Wire.pool_reuse_rate)
    (wr.Session.Wire.pool_reuse_rate >= 0.5)
