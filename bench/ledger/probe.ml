(* Probes: short timed loops over single public functions, on inputs
   shaped like the workloads' (striped connection ids, 64- and
   1400-byte data segments).  Each probe reports the median over
   [batches] batches of nanoseconds per call. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_mech
open Adaptive_core

let batches = 7

let ns_per_call ~iters f =
  f (iters / 10);
  let samples =
    Array.init batches (fun _ ->
        let t0 = Span.now_ns () in
        f iters;
        float_of_int (Span.now_ns () - t0) /. float_of_int iters)
  in
  Array.sort compare samples;
  samples.(batches / 2)

let engine_dispatch () =
  let e = Engine.create () in
  let noop () = () in
  ns_per_call ~iters:200_000 (fun n ->
      for _ = 1 to n do
        Engine.schedule_anon e ~at:(Engine.now e + 1) noop;
        ignore (Engine.step e)
      done)

(* A table holding 4096 live connections striped over 8 partitions, the
   shape of a wan-shards dispatcher; lookups cycle through every key. *)
let conntable_find () =
  let live = 4096 and stride = 8 in
  let t = Conntable.create () in
  for k = 0 to live - 1 do
    Conntable.insert t ~key:((k * stride) + 1) ~half_open:false k
  done;
  let hits = ref 0 in
  let ns =
    ns_per_call ~iters:400_000 (fun n ->
        for i = 1 to n do
          if Conntable.find t (((i land (live - 1)) * stride) + 1) >= 0 then incr hits
        done)
  in
  if !hits = 0 then failwith "probe.conntable: no key found";
  ns

let data_pdu bytes =
  let payload = Msg.of_string (String.init bytes (fun i -> Char.chr ((i * 131) land 0xff))) in
  Pdu.Data
    {
      conn = 7;
      seg = Pdu.seg ~payload ~last:true ~stamp:(Time.us 123) ~seq:42 ~bytes ();
      retransmit = false;
      tx_stamp = Time.us 456;
    }

let encode_into bytes =
  let st = Codec.wire_state () in
  let pdu = data_pdu bytes in
  let buf = Bytes.create 2048 in
  ns_per_call ~iters:200_000 (fun n ->
      for _ = 1 to n do
        ignore (Codec.encode_into st pdu buf ~off:0)
      done)

let decode_view bytes =
  let st = Codec.wire_state () in
  let buf = Bytes.create 2048 in
  let len = Codec.encode_into st (data_pdu bytes) buf ~off:0 in
  ns_per_call ~iters:200_000 (fun n ->
      for _ = 1 to n do
        match Codec.decode_view buf ~off:0 ~len with
        | Ok _ -> ()
        | Error e -> failwith ("probe.codec: " ^ Codec.error_to_string e)
      done)

let p2_add () =
  let s = Stats.create ~estimator:Stats.P2 () in
  let x = ref 0.0 in
  ns_per_call ~iters:400_000 (fun n ->
      for _ = 1 to n do
        x := Float.rem (!x +. 0.618034) 1.0;
        Stats.add s !x
      done)

let all () =
  [
    ("probe.engine.dispatch_ns", engine_dispatch ());
    ("probe.conntable.find_ns", conntable_find ());
    ("probe.codec.encode_into_ns_64", encode_into 64);
    ("probe.codec.encode_into_ns_1400", encode_into 1400);
    ("probe.codec.decode_view_ns_1400", decode_view 1400);
    ("probe.stats.p2_add_ns", p2_add ());
  ]
