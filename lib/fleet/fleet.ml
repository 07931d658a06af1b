open Adaptive_sim
module Pool = Pool

(* --------------------------------------------------------------- map *)

let map ~jobs f arr =
  if Array.length arr = 0 then [||]
  else
    Pool.with_pool ~jobs (fun pool ->
        let futures = Array.map (fun x -> Pool.submit pool (fun () -> f x)) arr in
        (* Await in input order: the reduction point where parallel
           execution becomes order-preserving again. *)
        Array.map Pool.await futures)

(* -------------------------------------------------------------- seeds *)

let seeds_of ~master ~n =
  if n < 0 then invalid_arg "Fleet.seeds_of: negative count";
  let base = Rng.create master in
  let seen = Hashtbl.create (2 * n) in
  let rec fresh i attempt =
    (* split_ix is a pure function of (state, index): stream [i] is the
       same whatever order — or domain — asks for it.  Collisions are
       ~2^-62 per pair; re-derive from a shifted index if one occurs. *)
    let s =
      Int64.to_int
        (Int64.logand
           (Rng.bits64 (Rng.split_ix base ((attempt * n) + i)))
           0x3FFFFFFFFFFFFFFFL)
    in
    if Hashtbl.mem seen s then fresh i (attempt + 1)
    else begin
      Hashtbl.add seen s ();
      s
    end
  in
  List.init n (fun i -> fresh i 0)

(* ---------------------------------------------------------- reduction *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let combine_hashes hashes =
  List.fold_left
    (fun acc h ->
      let acc = ref acc in
      for shift = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical h (shift * 8)) 0xFFL in
        acc := Int64.mul (Int64.logxor !acc byte) fnv_prime
      done;
      !acc)
    fnv_offset hashes

let check_identical a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (i, s) -> Hashtbl.replace tbl i (s, "")) a;
  List.iter
    (fun (i, s) ->
      match Hashtbl.find_opt tbl i with
      | Some (sa, _) -> Hashtbl.replace tbl i (sa, s)
      | None -> Hashtbl.replace tbl i ("", s))
    b;
  Hashtbl.fold (fun i (sa, sb) acc -> if String.equal sa sb then acc else (i, sa, sb) :: acc) tbl []
  |> List.sort compare
