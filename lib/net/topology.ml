open Adaptive_sim

type addr = int

type t = {
  mutable names : string list; (* reversed registration order *)
  routes : Link.t list Inttbl.t; (* keyed by [Inttbl.pair src dst] *)
  mutable edits : int; (* route installs and replacements *)
  mutable used : Link.t list; (* every link any route has held *)
}

let create () = { names = []; routes = Inttbl.create 16; edits = 0; used = [] }

let add_host t name =
  let addr = List.length t.names in
  t.names <- name :: t.names;
  addr

let set_route t ~src ~dst hops =
  if hops = [] then invalid_arg "Topology.set_route: empty route";
  t.edits <- t.edits + 1;
  List.iter (fun l -> if not (List.memq l t.used) then t.used <- l :: t.used) hops;
  Inttbl.replace t.routes (Inttbl.pair src dst) hops

(* Links leave [used] only with the topology, so the sum never falls back
   to an earlier value: equal generations mean no edit in between. *)
let generation t =
  List.fold_left (fun acc l -> acc + Link.generation l) t.edits t.used

(* Full duplex: the reverse direction gets its own transmitter and queue. *)
let mirror_link l =
  Link.create
    ~name:(Link.name l ^ "~rev")
    ~bandwidth_bps:(Link.bandwidth_bps l) ~propagation:(Link.propagation l)
    ~queue_pkts:(Link.queue_capacity l) ~ber:(Link.ber l) ~mtu:(Link.mtu l) ()

let set_symmetric_route t ~a ~b hops =
  set_route t ~src:a ~dst:b hops;
  set_route t ~src:b ~dst:a (List.rev_map mirror_link hops)

let route t ~src ~dst = Inttbl.find_opt t.routes (Inttbl.pair src dst)

let on_route t ~src ~dst f =
  match route t ~src ~dst with
  | None -> None
  | Some hops -> Some (f hops)

let path_mtu t ~src ~dst =
  on_route t ~src ~dst (fun hops ->
      List.fold_left (fun acc l -> min acc (Link.mtu l)) max_int hops)
