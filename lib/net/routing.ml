open Adaptive_sim

type entry = { candidates : Link.t list list; mutable active : int }

type t = {
  engine : Engine.t;
  topology : Topology.t;
  table : (Topology.addr * Topology.addr, entry) Hashtbl.t;
  mutable change_count : int;
  mutable changes : (Time.t * Topology.addr * Topology.addr * int) list; (* newest first *)
}

let create engine topology =
  { engine; topology; table = Hashtbl.create 16; change_count = 0; changes = [] }

let path_live hops = List.for_all Link.is_up hops

(* Index of the most preferred fully-live candidate; the most preferred
   one when everything is down (traffic will black-hole there, which is
   what a broken network does). *)
let best_candidate candidates =
  let rec scan i = function
    | [] -> 0
    | hops :: rest -> if path_live hops then i else scan (i + 1) rest
  in
  scan 0 candidates

let install t ~src ~dst entry index =
  entry.active <- index;
  Topology.set_route t.topology ~src ~dst (List.nth entry.candidates index)

let set_candidates t ~src ~dst candidates =
  if candidates = [] || List.exists (fun p -> p = []) candidates then
    invalid_arg "Routing.set_symmetric_candidates: empty candidate list or path";
  let entry = { candidates; active = best_candidate candidates } in
  Hashtbl.replace t.table (src, dst) entry;
  install t ~src ~dst entry entry.active

let set_symmetric_candidates t ~a ~b candidates =
  set_candidates t ~src:a ~dst:b candidates;
  set_candidates t ~src:b ~dst:a
    (List.map (fun hops -> List.rev_map Topology.mirror_link hops) candidates)

let reevaluate t =
  Hashtbl.iter
    (fun (src, dst) entry ->
      let best = best_candidate entry.candidates in
      if best <> entry.active then begin
        install t ~src ~dst entry best;
        t.change_count <- t.change_count + 1;
        t.changes <- (Engine.now t.engine, src, dst, best) :: t.changes
      end)
    t.table

let monitor ?(every = Time.ms 250) t =
  Engine.Timer.periodic t.engine ~interval:every (fun () -> reevaluate t)

let links t =
  let seen = ref [] in
  Hashtbl.iter
    (fun _ entry ->
      List.iter
        (List.iter (fun l -> if not (List.memq l !seen) then seen := l :: !seen))
        entry.candidates)
    t.table;
  List.rev !seen

let failovers t = t.change_count
let log t = List.rev t.changes
