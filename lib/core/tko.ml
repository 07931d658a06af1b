open Adaptive_sim
open Adaptive_mech

type binding =
  | Static_template of string
  | Reconfigurable_template of string
  | Synthesized

type context = {
  binding : binding;
  mutable scs : Scs.t;
  window : Window.t;
  rtt : Rtt.t;
  mutable reorder : Reorder.t;
  mutable playout : Playout.t option;
  mutable segue_count : int;
  connection : Connection.t;
  transmission : Transmission.t;
  recovery : Recovery.t;
  reporting : Reporting.t;
}

let instantiate_playout (scs : Scs.t) =
  match scs.Scs.delivery with
  | Params.Playout { target } -> Some (Playout.create ~target)
  | Params.As_available -> None

let synthesize ?(binding = Synthesized) (scs : Scs.t) =
  {
    binding;
    scs;
    window = Window.create ();
    rtt = Rtt.create ~initial_rto:scs.Scs.initial_rto ();
    reorder =
      Reorder.create ~ordering:scs.Scs.ordering ~duplicates:scs.Scs.duplicates ();
    playout = instantiate_playout scs;
    segue_count = 0;
    connection = Connection.create scs.Scs.connection;
    transmission =
      Transmission.create scs.Scs.transmission scs.Scs.congestion
        ~segment_bytes:scs.Scs.segment_bytes ~peer_window:scs.Scs.recv_buffer_segments;
    recovery = Recovery.create scs.Scs.recovery;
    reporting = Reporting.create scs.Scs.reporting scs.Scs.detection;
  }

let segue ctx (next : Scs.t) =
  match ctx.binding with
  | Static_template name ->
    Error (Printf.sprintf "context bound to static template %S cannot segue" name)
  | Reconfigurable_template _ | Synthesized ->
    let changed = Scs.component_names ctx.scs next in
    if changed = [] then Ok []
    else begin
      Transmission.rebind ctx.transmission next.Scs.transmission next.Scs.congestion
        ~segment_bytes:next.Scs.segment_bytes;
      (* Delivery: adjust the playout point in place when possible so
         released/discard statistics survive. *)
      (match (ctx.playout, next.Scs.delivery) with
      | Some p, Params.Playout { target } -> Playout.set_target p target
      | _, _ -> ctx.playout <- instantiate_playout next);
      (* Ordering/duplicates changes need a fresh sequencing buffer only
         if the discipline itself changed. *)
      if
        ctx.scs.Scs.ordering <> next.Scs.ordering
        || ctx.scs.Scs.duplicates <> next.Scs.duplicates
      then
        (* Carry the cumulative point forward so no segment is delivered
           twice or skipped. *)
        ctx.reorder <-
          Reorder.create ~start:(Reorder.expected ctx.reorder) ~ordering:next.Scs.ordering
            ~duplicates:next.Scs.duplicates ();
      Connection.rebind ctx.connection next.Scs.connection;
      Recovery.rebind ctx.recovery next.Scs.recovery;
      Reporting.rebind ctx.reporting next.Scs.reporting next.Scs.detection;
      ctx.scs <- next;
      ctx.segue_count <- ctx.segue_count + 1;
      Ok changed
    end

module Templates = struct
  let tcp_compatible = "tcp-compatible"
  let udp_compatible = "udp-compatible"
  let media_stream = "media-stream"
  let bulk_lfn = "bulk-lfn"
  let transaction = "transaction"
  let reliable_multicast = "reliable-multicast"
  let swarm_lite = "swarm-lite"

  let tcp_scs =
    {
      Scs.default with
      Scs.connection = Params.Three_way;
      transmission = Params.Sliding_window { window = 44 (* 64 KiB / 1460 *) };
      congestion = Params.Slow_start { initial = 1; threshold = 22 };
      detection = Params.Internet_checksum;
      reporting = Params.Cumulative_ack { delay = Time.ms 2 };
      recovery = Params.Go_back_n;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.As_available;
      recv_buffer_segments = 44;
    }

  let udp_scs =
    {
      Scs.default with
      Scs.connection = Params.Implicit;
      transmission = Params.Rate_based { rate_bps = 100e6; burst = 16 };
      congestion = Params.No_congestion_control;
      detection = Params.Internet_checksum;
      reporting = Params.No_report;
      recovery = Params.No_recovery;
      ordering = Params.Unordered;
      duplicates = Params.Accept_duplicates;
      delivery = Params.As_available;
    }

  let media_scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 1.5e6; burst = 4 };
      congestion = Params.No_congestion_control;
      detection = Params.Internet_checksum;
      reporting = Params.No_report;
      recovery = Params.No_recovery;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.Playout { target = Time.ms 80 };
    }

  let bulk_lfn_scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Sliding_window { window = 512 };
      congestion = Params.Slow_start { initial = 4; threshold = 256 };
      detection = Params.Crc32;
      reporting = Params.Selective_ack { delay = Time.ms 2 };
      recovery = Params.Selective_repeat;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.As_available;
      recv_buffer_segments = 512;
    }

  let transaction_scs =
    {
      Scs.default with
      Scs.connection = Params.Implicit;
      transmission = Params.Sliding_window { window = 8 };
      congestion = Params.No_congestion_control;
      detection = Params.Internet_checksum;
      reporting = Params.Cumulative_ack { delay = Time.ms 1 };
      recovery = Params.Selective_repeat;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.As_available;
    }

  (* Minimal-footprint configuration MANTTS falls back to under admission
     pressure: reliable and ordered (so degraded sessions stay correct)
     but with a tiny window, small receive commitment and background
     priority. *)
  let swarm_lite_scs =
    {
      Scs.default with
      Scs.connection = Params.Implicit;
      transmission = Params.Sliding_window { window = 4 };
      congestion = Params.No_congestion_control;
      detection = Params.Internet_checksum;
      reporting = Params.Cumulative_ack { delay = Time.ms 2 };
      recovery = Params.Go_back_n;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.As_available;
      recv_buffer_segments = 4;
      priority = 6;
    }

  let reliable_multicast_scs =
    {
      Scs.default with
      Scs.connection = Params.Two_way;
      transmission = Params.Rate_based { rate_bps = 2e6; burst = 8 };
      congestion = Params.No_congestion_control;
      detection = Params.Internet_checksum;
      reporting = Params.Nack_on_gap;
      recovery = Params.Selective_repeat;
      ordering = Params.Ordered;
      duplicates = Params.Drop_duplicates;
      delivery = Params.As_available;
    }

  let entries =
    [
      (tcp_compatible, (Static_template tcp_compatible, tcp_scs));
      (udp_compatible, (Static_template udp_compatible, udp_scs));
      (media_stream, (Reconfigurable_template media_stream, media_scs));
      (bulk_lfn, (Reconfigurable_template bulk_lfn, bulk_lfn_scs));
      (transaction, (Reconfigurable_template transaction, transaction_scs));
      ( reliable_multicast,
        (Reconfigurable_template reliable_multicast, reliable_multicast_scs) );
      (swarm_lite, (Reconfigurable_template swarm_lite, swarm_lite_scs));
    ]

  let names = List.map fst entries
  let find name = List.assoc_opt name entries

  let lookup_scs scs =
    List.find_map
      (fun (name, (binding, template_scs)) ->
        if Scs.equal scs template_scs then Some (binding, name) else None)
      entries
end
