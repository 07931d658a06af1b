(* Tests for the real-bytes data path: payload-bearing segments, XOR
   parity reconstruction, and end-to-end integrity. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_net
open Adaptive_mech
open Adaptive_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let payload_seg ?last seq s =
  Pdu.seg ?last ~seq ~bytes:(String.length s) ~payload:(Msg.of_string s) ()

(* -------------------------------------------------------------- Fec XOR *)

let test_parity_of_xor () =
  let group = [ payload_seg 0 "abcd"; payload_seg 1 "xy"; payload_seg 2 "1234" ] in
  match Fec.parity_of group with
  | None -> Alcotest.fail "expected parity"
  | Some parity ->
    let p = Msg.data_to_string parity in
    check_int "padded to longest" 4 (String.length p);
    (* Byte 0: 'a' ^ 'x' ^ '1'. *)
    check_int "xor byte"
      (Char.code 'a' lxor Char.code 'x' lxor Char.code '1')
      (Char.code p.[0]);
    (* Byte 2: 'c' ^ 0 ^ '3'. *)
    check_int "padding is zero" (Char.code 'c' lxor Char.code '3') (Char.code p.[2])

let test_parity_of_requires_all_payloads () =
  let group = [ payload_seg 0 "abcd"; Pdu.seg ~seq:1 ~bytes:4 () ] in
  check_bool "metadata-only group has no parity" true (Fec.parity_of group = None)

let test_fec_rebuilds_actual_bytes () =
  let members = [ payload_seg 0 "hello"; payload_seg 1 "world!!"; payload_seg 2 "123" ] in
  let parity = Fec.parity_of members in
  let r = Fec.Receiver.create () in
  (* Seq 1 is lost; the others arrive. *)
  ignore (Fec.Receiver.on_data r (List.nth members 0));
  ignore (Fec.Receiver.on_data r (List.nth members 2));
  let covered = List.map Pdu.strip_payload members in
  match Fec.Receiver.on_parity r ~covered ~parity with
  | [ rebuilt ] ->
    check_int "right seq" 1 rebuilt.Pdu.seq;
    (match rebuilt.Pdu.payload with
    | Some m -> check_str "actual bytes recovered" "world!!" (Msg.data_to_string m)
    | None -> Alcotest.fail "expected reconstructed payload")
  | _ -> Alcotest.fail "expected one reconstruction"

let test_fec_metadata_only_without_parity_block () =
  let members = [ payload_seg 0 "aa"; payload_seg 1 "bb" ] in
  let r = Fec.Receiver.create () in
  ignore (Fec.Receiver.on_data r (List.nth members 0));
  match Fec.Receiver.on_parity r ~covered:(List.map Pdu.strip_payload members) ~parity:None with
  | [ rebuilt ] -> check_bool "no bytes without parity block" true (rebuilt.Pdu.payload = None)
  | _ -> Alcotest.fail "expected one reconstruction"

let prop_fec_xor_roundtrip =
  QCheck2.Test.make ~name:"XOR parity reconstructs any single missing payload"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 2 6)
        (list_size (int_range 2 6) (string_size ~gen:printable (int_range 1 32))))
    (fun (lost_ix, payloads) ->
      let payloads = if payloads = [] then [ "x" ] else payloads in
      let lost_ix = lost_ix mod List.length payloads in
      let members = List.mapi payload_seg payloads in
      let parity = Fec.parity_of members in
      let r = Fec.Receiver.create () in
      List.iteri (fun i s -> if i <> lost_ix then ignore (Fec.Receiver.on_data r s)) members;
      match Fec.Receiver.on_parity r ~covered:(List.map Pdu.strip_payload members) ~parity with
      | [ rebuilt ] -> (
        match rebuilt.Pdu.payload with
        | Some m -> Msg.data_to_string m = List.nth payloads lost_ix
        | None -> false)
      | _ -> List.length payloads < 2)

(* -------------------------------------------------------- end to end *)

let lan ?(ber = 0.0) ?(queue = 64) () =
  [ Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:queue ~ber ~mtu:1500 () ]

type rig = {
  engine : Engine.t;
  received : (int * string) list ref; (* seq, bytes *)
  disp_a : Session.Dispatcher.dispatcher;
  b : Network.addr;
}

let make_rig ?(seed = 77) path =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  Topology.set_symmetric_route topo ~a ~b path;
  let net = Network.create engine ~rng:(Rng.create seed) topo in
  let unites = Unites.create engine in
  let received = ref [] in
  let mk addr =
    let d = Session.Dispatcher.create net ~addr ~host:(Host.zero_cost engine) ~unites in
    Session.Dispatcher.set_acceptor d (fun ~src:_ ~conn ~proposal ->
        Session.Dispatcher.Accept
          {
            scs = Option.value ~default:Scs.default proposal;
            name = Printf.sprintf "p-%d" conn;
            on_deliver =
              Some
                (fun _ del ->
                  let bytes =
                    match del.Session.payload with
                    | Some m -> Msg.data_to_string m
                    | None -> ""
                  in
                  received := (del.Session.seq, bytes) :: !received);
          });
    d
  in
  let disp_a = mk a in
  ignore (mk b);
  { engine; received; disp_a; b }

let reassemble rig =
  List.sort compare !(rig.received) |> List.map snd |> String.concat ""

let lorem n =
  String.init n (fun i -> Char.chr (32 + ((i * 131 + (i / 95)) mod 95)))

let test_payload_end_to_end_clean () =
  let rig = make_rig (lan ()) in
  let text = lorem 10_000 in
  let scs = { Scs.default with Scs.segment_bytes = 1000 } in
  let s = Session.connect rig.disp_a ~peers:[ rig.b ] ~scs () in
  Session.send s ~bytes:(String.length text) ~payload:(Msg.of_string text) ();
  Engine.run rig.engine ~until:(Time.sec 10.0);
  Session.close s;
  Engine.run rig.engine ~until:(Time.sec 20.0);
  check_str "bytes identical end to end" text (reassemble rig)

let test_payload_survives_loss_and_retransmission () =
  let rig = make_rig (lan ~queue:3 ()) in
  let text = lorem 50_000 in
  let scs =
    {
      Scs.default with
      Scs.transmission = Params.Sliding_window { window = 16 };
      recovery = Params.Selective_repeat;
      reporting = Params.Selective_ack { delay = Time.ms 1 };
      segment_bytes = 1000;
      recv_buffer_segments = 32;
      initial_rto = Time.ms 50;
    }
  in
  let s = Session.connect rig.disp_a ~peers:[ rig.b ] ~scs () in
  Session.send s ~bytes:(String.length text) ~payload:(Msg.of_string text) ();
  Engine.run rig.engine ~until:(Time.sec 60.0);
  Session.close s;
  Engine.run rig.engine ~until:(Time.sec 120.0);
  check_str "bytes identical despite drops and retransmission" text (reassemble rig)

let test_payload_fec_recovers_bytes () =
  let rig = make_rig (lan ~ber:3e-6 ()) in
  let text = lorem 60_000 in
  let scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 4e6; burst = 8 };
      reporting = Params.No_report;
      recovery = Params.Forward_error_correction { group = 4 };
      ordering = Params.Ordered;
      segment_bytes = 1000;
    }
  in
  let s = Session.connect rig.disp_a ~peers:[ rig.b ] ~scs () in
  Engine.run rig.engine ~until:(Time.ms 50);
  Session.send s ~bytes:(String.length text) ~payload:(Msg.of_string text) ();
  Engine.run rig.engine ~until:(Time.sec 20.0);
  (* Some segments were corrupted and recovered from parity: every byte
     string we did receive must match the original at its position. *)
  let ok =
    List.for_all
      (fun (seq, bytes) ->
        let off = seq * 1000 in
        off + String.length bytes <= String.length text
        && String.sub text off (String.length bytes) = bytes)
      !(rig.received)
  in
  check_bool "all delivered bytes match their position" true ok;
  check_bool "most of the stream arrived" true
    (List.length !(rig.received) > 55);
  Session.close ~graceful:false s

let test_payload_damage_reaches_app_without_detection () =
  let rig = make_rig ~seed:5 (lan ~ber:8e-6 ()) in
  let text = lorem 60_000 in
  let scs =
    {
      Scs.default with
      Scs.detection = Params.No_detection;
      segment_bytes = 1000;
      recv_buffer_segments = 64;
    }
  in
  let s = Session.connect rig.disp_a ~peers:[ rig.b ] ~scs () in
  Session.send s ~bytes:(String.length text) ~payload:(Msg.of_string text) ();
  Engine.run rig.engine ~until:(Time.sec 30.0);
  Session.close ~graceful:false s;
  Engine.run rig.engine ~until:(Time.sec 40.0);
  (* Everything arrives (reliable), but at least one segment's bytes must
     differ from what was sent — silently. *)
  let mismatches =
    List.filter
      (fun (seq, bytes) ->
        let off = seq * 1000 in
        off + String.length bytes > String.length text
        || String.sub text off (String.length bytes) <> bytes)
      !(rig.received)
  in
  check_bool "undetected corruption damaged the data" true (mismatches <> []);
  check_str "but lengths line up"
    (String.concat "" (List.map (fun _ -> "") mismatches))
    "";
  check_int "stream length preserved" (String.length text)
    (String.length (reassemble rig))

let test_send_payload_length_mismatch () =
  let rig = make_rig (lan ()) in
  let s = Session.connect rig.disp_a ~peers:[ rig.b ] ~scs:Scs.default () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Session.send: payload length disagrees with bytes") (fun () ->
      Session.send s ~bytes:10 ~payload:(Msg.of_string "abc") ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "payload.fec",
      [
        Alcotest.test_case "parity is padded XOR" `Quick test_parity_of_xor;
        Alcotest.test_case "parity needs every payload" `Quick
          test_parity_of_requires_all_payloads;
        Alcotest.test_case "rebuilds actual bytes" `Quick test_fec_rebuilds_actual_bytes;
        Alcotest.test_case "metadata-only without block" `Quick
          test_fec_metadata_only_without_parity_block;
      ]
      @ qsuite [ prop_fec_xor_roundtrip ] );
    ( "payload.session",
      [
        Alcotest.test_case "clean end to end" `Quick test_payload_end_to_end_clean;
        Alcotest.test_case "survives loss + retransmission" `Quick
          test_payload_survives_loss_and_retransmission;
        Alcotest.test_case "FEC recovers real bytes" `Quick test_payload_fec_recovers_bytes;
        Alcotest.test_case "undetected damage reaches the app" `Quick
          test_payload_damage_reaches_app_without_detection;
        Alcotest.test_case "length mismatch rejected" `Quick
          test_send_payload_length_mismatch;
      ] );
  ]
