open Adaptive_sim
open Adaptive_mech

type t = {
  connection : Params.connection;
  transmission : Params.transmission;
  congestion : Params.congestion_window;
  detection : Params.detection;
  reporting : Params.reporting;
  recovery : Params.recovery;
  ordering : Params.ordering;
  duplicates : Params.duplicates;
  delivery : Params.delivery;
  segment_bytes : int;
  recv_buffer_segments : int;
  priority : int;
  initial_rto : Time.t;
}

let default =
  {
    connection = Params.Three_way;
    transmission = Params.Sliding_window { window = 8 };
    congestion = Params.No_congestion_control;
    detection = Params.Internet_checksum;
    reporting = Params.Cumulative_ack { delay = Time.ms 2 };
    recovery = Params.Go_back_n;
    ordering = Params.Ordered;
    duplicates = Params.Drop_duplicates;
    delivery = Params.As_available;
    segment_bytes = 1460;
    recv_buffer_segments = 64;
    priority = 4;
    initial_rto = Time.sec 1.0;
  }

(* Blobs are ;-separated key=value lists.  Component encodings come from
   Params; the scalar parameters are appended. *)
let to_blob t =
  String.concat ";"
    [
      "conn=" ^ Params.connection_to_string t.connection;
      "tx=" ^ Params.transmission_to_string t.transmission;
      "cc=" ^ Params.congestion_window_to_string t.congestion;
      "det=" ^ Params.detection_to_string t.detection;
      "rep=" ^ Params.reporting_to_string t.reporting;
      "rec=" ^ Params.recovery_to_string t.recovery;
      "ord=" ^ Params.ordering_to_string t.ordering;
      "dup=" ^ Params.duplicates_to_string t.duplicates;
      "del=" ^ Params.delivery_to_string t.delivery;
      "seg=" ^ string_of_int t.segment_bytes;
      "buf=" ^ string_of_int t.recv_buffer_segments;
      "pri=" ^ string_of_int t.priority;
      "rto=" ^ string_of_int t.initial_rto;
    ]

let of_blob blob =
  let kvs =
    List.filter_map
      (fun part ->
        match String.index_opt part '=' with
        | None -> None
        | Some i ->
          Some
            ( String.sub part 0 i,
              String.sub part (i + 1) (String.length part - i - 1) ))
      (String.split_on_char ';' blob)
  in
  let find k = List.assoc_opt k kvs in
  let ( let* ) = Option.bind in
  let* conn = Option.bind (find "conn") Params.connection_of_string in
  let* tx = Option.bind (find "tx") Params.transmission_of_string in
  let* cc = Option.bind (find "cc") Params.congestion_window_of_string in
  let* det = Option.bind (find "det") Params.detection_of_string in
  let* rep = Option.bind (find "rep") Params.reporting_of_string in
  let* rec_ = Option.bind (find "rec") Params.recovery_of_string in
  let* ord = Option.bind (find "ord") Params.ordering_of_string in
  let* dup = Option.bind (find "dup") Params.duplicates_of_string in
  let* del = Option.bind (find "del") Params.delivery_of_string in
  let* seg = Option.bind (find "seg") int_of_string_opt in
  let* buf = Option.bind (find "buf") int_of_string_opt in
  let* pri = Option.bind (find "pri") int_of_string_opt in
  let* rto = Option.bind (find "rto") int_of_string_opt in
  let t =
    {
      connection = conn;
      transmission = tx;
      congestion = cc;
      detection = det;
      reporting = rep;
      recovery = rec_;
      ordering = ord;
      duplicates = dup;
      delivery = del;
      segment_bytes = seg;
      recv_buffer_segments = buf;
      priority = pri;
      initial_rto = rto;
    }
  in
  (* A blob comes off the wire: a value no mechanism can run is as
     malformed as a missing field.  The codec writes a segment size in
     16 bits. *)
  let playout_ok =
    match del with
    | Params.Playout { target } -> target >= 0 && target <= Time.sec 3600.0
    | Params.As_available -> true
  in
  (* The initial RTO paces re-NACKs and gap skips unclamped, so it must
     lie in the range [Rtt] clamps every RTO to. *)
  if
    Transmission.runnable tx cc && Recovery.runnable rec_ && Reporting.runnable rep
    && seg >= 1 && seg <= 0xFFFF
    && rto >= Time.ms 10 && rto <= Time.sec 60.0
    && playout_ok
  then Some t
  else None

(* Structural equality.  The previous definition compared serialized
   blobs, which built ~2.9k words of strings per template-cache probe —
   the single largest allocation source at swarm scale.  Every field is
   an immediate or a variant of immediates/floats, so polymorphic
   equality is allocation-free and decides the same relation. *)
let equal (a : t) (b : t) = a = b

let component_names a b =
  List.filter_map
    (fun (name, differs) -> if differs then Some name else None)
    [
      ("connection", a.connection <> b.connection);
      ("transmission", a.transmission <> b.transmission);
      ("congestion", a.congestion <> b.congestion);
      ("detection", a.detection <> b.detection);
      ("reporting", a.reporting <> b.reporting);
      ("recovery", a.recovery <> b.recovery);
      ("ordering", a.ordering <> b.ordering);
      ("duplicates", a.duplicates <> b.duplicates);
      ("delivery", a.delivery <> b.delivery);
      ("segment_bytes", a.segment_bytes <> b.segment_bytes);
      ("recv_buffer", a.recv_buffer_segments <> b.recv_buffer_segments);
      ("priority", a.priority <> b.priority);
      ("initial_rto", a.initial_rto <> b.initial_rto);
    ]

let pp fmt t =
  Format.fprintf fmt "%a/%a/%a/%a/%a/%a/%a/%a/%a seg=%d buf=%d pri=%d"
    Params.pp_connection t.connection Params.pp_transmission t.transmission
    Params.pp_congestion_window t.congestion Params.pp_detection t.detection
    Params.pp_reporting t.reporting Params.pp_recovery t.recovery
    Params.pp_ordering t.ordering Params.pp_duplicates t.duplicates
    Params.pp_delivery t.delivery t.segment_bytes t.recv_buffer_segments
    t.priority

let reliable t =
  match t.recovery with
  | Params.Go_back_n | Params.Selective_repeat -> true
  | Params.No_recovery | Params.Forward_error_correction _ -> false
