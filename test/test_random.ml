(* Randomized end-to-end properties: whatever the loss regime, recovery
   scheme, connection style and reconfiguration point, reliable sessions
   deliver their stream exactly once and in order. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

type outcome = {
  delivered_bytes : int;
  seqs : int list; (* in delivery order *)
  closed : bool;
}

(* One self-contained transfer under the given conditions. *)
let run_transfer ~seed ~ber ~queue ~recovery ~reporting ~connection ~window
    ~transfer ~segue_at_ms ~segue_to () =
  let engine = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  Topology.set_symmetric_route topo ~a ~b
    [
      Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 50) ~queue_pkts:queue
        ~ber ~mtu:1500 ();
    ];
  let net = Network.create engine ~rng:(Rng.create seed) topo in
  let unites = Unites.create engine in
  let seqs = ref [] and bytes = ref 0 in
  let mk addr =
    let d = Session.Dispatcher.create net ~addr ~host:(Host.zero_cost engine) ~unites in
    Session.Dispatcher.set_acceptor d (fun ~src:_ ~conn ~proposal ->
        Session.Dispatcher.Accept
          {
            scs = Option.value ~default:Scs.default proposal;
            name = Printf.sprintf "r-%d" conn;
            on_deliver =
              Some
                (fun _ del ->
                  seqs := del.Session.seq :: !seqs;
                  bytes := !bytes + del.Session.bytes);
          });
    d
  in
  let da = mk a in
  ignore (mk b);
  let scs =
    {
      Scs.default with
      Scs.connection;
      transmission = Params.Sliding_window { window };
      recovery;
      reporting;
      recv_buffer_segments = 2 * window;
      segment_bytes = 1000;
      initial_rto = Time.ms 40;
    }
  in
  let s = Session.connect da ~peers:[ b ] ~scs () in
  Session.send s ~bytes:transfer ();
  (match segue_to with
  | Some (rec2, rep2) ->
    ignore
      (Engine.schedule engine ~at:(Time.ms segue_at_ms) (fun () ->
           if Session.state s = Session.Established then
             ignore
               (Session.reconfigure s { scs with Scs.recovery = rec2; reporting = rep2 })))
  | None -> ());
  Engine.run engine ~until:(Time.sec 120.0);
  Session.close s;
  Engine.run engine ~until:(Time.sec 240.0);
  {
    delivered_bytes = !bytes;
    seqs = List.rev !seqs;
    closed = Session.state s = Session.Closed;
  }

let arq_schemes =
  [
    (Params.Go_back_n, Params.Cumulative_ack { delay = Time.ms 1 });
    (Params.Go_back_n, Params.Cumulative_ack { delay = Time.zero });
    (Params.Selective_repeat, Params.Selective_ack { delay = Time.ms 1 });
    (Params.Selective_repeat, Params.Selective_ack { delay = Time.zero });
  ]

let gen_conditions =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* scheme_ix = int_range 0 3 in
    let* ber_ix = int_range 0 2 in
    let* queue = int_range 3 64 in
    let* window = int_range 2 48 in
    let* conn_ix = int_range 0 2 in
    let* transfer_kb = int_range 10 120 in
    return (seed, scheme_ix, ber_ix, queue, window, conn_ix, transfer_kb))

let decode (seed, scheme_ix, ber_ix, queue, window, conn_ix, transfer_kb) =
  let recovery, reporting = List.nth arq_schemes scheme_ix in
  let ber = List.nth [ 0.0; 1e-6; 5e-6 ] ber_ix in
  let connection = List.nth [ Params.Implicit; Params.Two_way; Params.Three_way ] conn_ix in
  (seed, recovery, reporting, ber, queue, window, connection, transfer_kb * 1000)

let exactly_once_in_order outcome transfer =
  outcome.delivered_bytes = transfer
  && outcome.seqs = List.init (List.length outcome.seqs) Fun.id

let prop_reliable_exactly_once =
  QCheck2.Test.make
    ~name:"reliable transfer delivers exactly once, in order, then closes"
    ~count:30 gen_conditions
    (fun conditions ->
      let seed, recovery, reporting, ber, queue, window, connection, transfer =
        decode conditions
      in
      let o =
        run_transfer ~seed ~ber ~queue ~recovery ~reporting ~connection ~window
          ~transfer ~segue_at_ms:0 ~segue_to:None ()
      in
      exactly_once_in_order o transfer && o.closed)

let prop_segue_preserves_stream =
  QCheck2.Test.make
    ~name:"recovery segue at any time preserves exactly-once in-order delivery"
    ~count:30
    QCheck2.Gen.(pair gen_conditions (int_range 1 400))
    (fun (conditions, segue_at_ms) ->
      let seed, recovery, reporting, ber, queue, window, connection, transfer =
        decode conditions
      in
      (* Switch to the other ARQ scheme mid-flight. *)
      let segue_to =
        match recovery with
        | Params.Go_back_n ->
          Some (Params.Selective_repeat, Params.Selective_ack { delay = Time.ms 1 })
        | _ -> Some (Params.Go_back_n, Params.Cumulative_ack { delay = Time.ms 1 })
      in
      let o =
        run_transfer ~seed ~ber ~queue ~recovery ~reporting ~connection ~window
          ~transfer ~segue_at_ms ~segue_to ()
      in
      exactly_once_in_order o transfer && o.closed)

let suite =
  [
    ( "random.session",
      List.map QCheck_alcotest.to_alcotest
        [ prop_reliable_exactly_once; prop_segue_preserves_stream ] );
  ]
