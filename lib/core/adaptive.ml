open Adaptive_sim
open Adaptive_net
open Adaptive_mech

type stack = {
  engine : Engine.t;
  rng : Rng.t;
  topology : Topology.t;
  net : Pdu.t Network.t;
  unites : Unites.t;
  mantts : Mantts.t;
}

let create_stack ?(seed = 1) ?(whitebox = true) ?metric_reservoir
    ?metric_estimator () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topology = Topology.create () in
  let net = Network.create engine ~rng:(Rng.split rng) topology in
  let unites =
    Unites.create ~whitebox ?reservoir:metric_reservoir
      ?estimator:metric_estimator engine
  in
  (* MANTTS draws nothing, but callers hand [rng] to [Workloads.drive]
     after this, so the split stays: without it every stream drawn later
     would move. *)
  ignore (Rng.split rng);
  let mantts = Mantts.create ~net ~unites () in
  { engine; rng; topology; net; unites; mantts }

let mantts stack = stack.mantts

let add_host ?host_cpu ?buffer_segments stack name =
  let addr = Topology.add_host stack.topology name in
  ignore (Mantts.add_host ?host:host_cpu ?buffer_segments stack.mantts ~addr);
  addr

let connect_hosts stack a b hops =
  Topology.set_symmetric_route stack.topology ~a ~b hops

let run ?until stack = Engine.run ?until stack.engine
let now stack = Engine.now stack.engine
