open Adaptive_sim

type seg = {
  seq : int;
  seg_bytes : int;
  app_stamp : Time.t;
  app_last : bool;
  payload : Adaptive_buf.Msg.t option;
}

let seg ?payload ?(last = false) ?(stamp = Time.zero) ~seq ~bytes () =
  (match payload with
  | Some m when Adaptive_buf.Msg.data_length m <> bytes ->
    invalid_arg "Pdu.seg: payload length disagrees with bytes"
  | Some _ | None -> ());
  { seq; seg_bytes = bytes; app_stamp = stamp; app_last = last; payload }

let strip_payload s = { s with payload = None }

type t =
  | Data of { conn : int; seg : seg; retransmit : bool; tx_stamp : Time.t }
  | Parity of {
      conn : int;
      group_start : int;
      group_len : int;
      covered : seg list;
      parity : Adaptive_buf.Msg.t option;
    }
  | Ack of { conn : int; cum : int; window : int; sack : int list; echo : Time.t }
  | Nack of { conn : int; missing : int list }
  | Syn of { conn : int; blob : string; first : t option }
  | Syn_ack of { conn : int; accepted : bool; blob : string }
  | Ack_of_syn of { conn : int }
  | Fin of { conn : int; graceful : bool }
  | Fin_ack of { conn : int }
  | Signal of { conn : int; blob : string }
  | Signal_ack of { conn : int; blob : string }

let conn_id = function
  | Data { conn; _ }
  | Parity { conn; _ }
  | Ack { conn; _ }
  | Nack { conn; _ }
  | Syn { conn; _ }
  | Syn_ack { conn; _ }
  | Ack_of_syn { conn }
  | Fin { conn; _ }
  | Fin_ack { conn }
  | Signal { conn; _ }
  | Signal_ack { conn; _ } -> conn

(* Sizes follow the concrete wire layout in {!Codec}: word-aligned
   headers, 2-byte checksum (in the trailer for payload-bearing PDUs), a
   full 8-byte timestamp on data. *)
let rec header_bytes = function
  | Data _ -> 32
  | Parity { covered; _ } -> 16 + (16 * List.length covered)
  | Ack { sack; _ } -> 24 + (4 * List.length sack)
  | Nack { missing; _ } -> 12 + (4 * List.length missing)
  | Syn { blob; first; _ } ->
    24 + String.length blob
    + (match first with Some p -> header_bytes p + payload_bytes p | None -> 0)
  | Syn_ack { blob; _ } -> 24 + String.length blob
  | Ack_of_syn _ -> 12
  | Fin _ -> 12
  | Fin_ack _ -> 12
  | Signal { blob; _ } -> 16 + String.length blob
  | Signal_ack { blob; _ } -> 16 + String.length blob

and payload_bytes = function
  | Data { seg; _ } -> seg.seg_bytes
  | Parity { covered; _ } ->
    List.fold_left (fun acc s -> max acc s.seg_bytes) 0 covered
  | Syn _ | Ack _ | Nack _ | Syn_ack _ | Ack_of_syn _ | Fin _ | Fin_ack _
  | Signal _ | Signal_ack _ -> 0

let wire_bytes p = header_bytes p + payload_bytes p
