open Adaptive_sim

type replication = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  half_width : float;
}

let median_of values =
  let sorted = List.sort Float.compare values in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let validate_seeds ~what seeds =
  if seeds = [] then invalid_arg (what ^ ": no seeds");
  let sorted = List.sort_uniq compare seeds in
  if List.length sorted <> List.length seeds then
    invalid_arg (what ^ ": duplicate seeds (replicas would be identical)")

(* The reduction is a sequential fold over [values] in seed order, so a
   parallel run that preserves value order produces the bit-identical
   record (float summation order matters). *)
let summarize values =
  let stats = Stats.create () in
  List.iter (Stats.add stats) values;
  let n = Stats.count stats in
  let stddev = if n < 2 then 0.0 else Stats.stddev stats in
  {
    n;
    mean = Stats.mean stats;
    median = median_of values;
    stddev;
    half_width = (if n < 2 then 0.0 else 2.0 *. stddev /. sqrt (float_of_int n));
  }

let replicate ~jobs ~seeds f =
  validate_seeds ~what:"Lab.replicate" seeds;
  summarize
    (Array.to_list
       (Adaptive_fleet.Fleet.map ~jobs (fun seed -> f ~seed) (Array.of_list seeds)))

let default_seeds = [ 11; 211; 3011; 40111; 500111 ]

let distinguishable a b =
  Float.abs (a.mean -. b.mean) > a.half_width +. b.half_width

let pp fmt r =
  Format.fprintf fmt "%.3g ± %.2g (med %.3g, n=%d)" r.mean r.half_width r.median r.n

let compare_table ~label_a ~label_b ~rows fmt () =
  Format.fprintf fmt "%-14s %22s %22s %16s@." "" label_a label_b "verdict";
  List.iter
    (fun (name, a, b) ->
      Format.fprintf fmt "%-14s %22s %22s %16s@." name
        (Format.asprintf "%a" pp a)
        (Format.asprintf "%a" pp b)
        (if distinguishable a b then
           if a.mean > b.mean then label_a ^ " higher" else label_b ^ " higher"
         else "indistinct"))
    rows
