(* Tests for FLEET: the domain pool, the order-preserving map, seed
   derivation, and the property the subsystem exists for — parallel runs
   are byte-identical to sequential ones. *)

open Adaptive_fleet
open Adaptive_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- pool *)

let test_pool_basic () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let futs = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
      let got = List.map Pool.await futs in
      check_bool "all results in submit order" true
        (got = List.init 20 (fun i -> i * i)))

let test_pool_sequential_inline () =
  (* jobs = 1 spawns no domain: the thunk runs inline at submit, on this
     very domain — provable through a shared ref without any locking. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let r = ref 0 in
      let f = Pool.submit pool (fun () -> r := 41; !r + 1) in
      check_int "ran at submit" 41 !r;
      check_int "await returns value" 42 (Pool.await f))

exception Boom of string

let test_pool_exception_propagation () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let good = Pool.submit pool (fun () -> "fine") in
      let bad = Pool.submit pool (fun () -> raise (Boom "task failed")) in
      Alcotest.(check string) "healthy task unaffected" "fine" (Pool.await good);
      (match Pool.await bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom msg ->
        Alcotest.(check string) "original exception payload" "task failed" msg);
      (* A failed task must not poison the pool. *)
      check_int "pool still serves" 7 (Pool.await (Pool.submit pool (fun () -> 7))))

let test_pool_shutdown () =
  (* [with_pool] shuts the pool down as [f] returns, with the eight
     futures still unawaited. *)
  let escaped = ref None in
  let futs =
    Pool.with_pool ~jobs:2 (fun pool ->
        escaped := Some pool;
        List.init 8 (fun i -> Pool.submit pool (fun () -> i)))
  in
  let pool = Option.get !escaped in
  check_bool "queued work drained before join" true
    (List.map Pool.await futs = List.init 8 Fun.id);
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> 0)))

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be positive") (fun () ->
      Pool.with_pool ~jobs:0 ignore)

(* -------------------------------------------------------------- map *)

let test_map_order_preserving () =
  let input = Array.init 50 (fun i -> i) in
  let seq = Fleet.map ~jobs:1 (fun i -> i * 3) input in
  let par = Fleet.map ~jobs:4 (fun i -> i * 3) input in
  check_bool "parallel map equals sequential" true (seq = par);
  check_bool "order preserved" true (par = Array.init 50 (fun i -> i * 3))

let test_map_empty () =
  check_int "empty array maps to empty" 0
    (Array.length (Fleet.map ~jobs:4 (fun i -> i) [||]))

(* ------------------------------------------------------------ seeds *)

let test_seeds_of () =
  let a = Fleet.seeds_of ~master:123 ~n:64 in
  check_int "requested count" 64 (List.length a);
  check_int "duplicate-free" 64 (List.length (List.sort_uniq compare a));
  check_bool "non-negative" true (List.for_all (fun s -> s >= 0) a);
  check_bool "reproducible" true (a = Fleet.seeds_of ~master:123 ~n:64);
  check_bool "master perturbs the list" true
    (a <> Fleet.seeds_of ~master:124 ~n:64)

(* -------------------------------------------------------- reduction *)

let test_combine_hashes () =
  let h = [ 1L; 2L; 3L ] in
  check_bool "deterministic" true
    (Fleet.combine_hashes h = Fleet.combine_hashes h);
  check_bool "order-sensitive" true
    (Fleet.combine_hashes h <> Fleet.combine_hashes [ 3L; 2L; 1L ]);
  check_bool "length-sensitive" true
    (Fleet.combine_hashes h <> Fleet.combine_hashes [ 1L; 2L ])

let test_check_identical () =
  let a = [ (0, "x"); (1, "y") ] in
  check_int "identical runs, no mismatch" 0
    (List.length (Fleet.check_identical a a));
  (match Fleet.check_identical a [ (0, "x"); (1, "z") ] with
  | [ (1, "y", "z") ] -> ()
  | _ -> Alcotest.fail "expected exactly the index-1 mismatch");
  (match Fleet.check_identical a [ (0, "x") ] with
  | [ (1, "y", "") ] -> ()
  | _ -> Alcotest.fail "missing index compares against the empty string")

(* ------------------------------------------ end-to-end determinism *)

(* The acceptance property: an e9-style chaos campaign run at jobs=4
   produces the same FNV-1a trace hashes, the same campaign digest and
   the same rendered UNITES reports as jobs=1 — bit for bit. *)
let soak_fingerprint report =
  let hashes = List.map (fun o -> o.Soak.o_hash) report.Soak.r_outcomes in
  let reports =
    List.mapi (fun i o -> (i, o.Soak.o_unites)) report.Soak.r_outcomes
  in
  (Fleet.combine_hashes hashes, reports)

let test_soak_jobs_identical () =
  let run jobs =
    let order = ref [] in
    let progress i _ = order := i :: !order in
    let report = Soak.soak ~progress ~jobs ~seed:4242 ~schedules:6 () in
    check_bool
      (Printf.sprintf "progress fires in run order at jobs=%d" jobs)
      true
      (List.rev !order = List.init 6 Fun.id);
    report
  in
  let seq = run 1 and par = run 4 in
  check_int "same run count" seq.Soak.r_runs par.Soak.r_runs;
  let seq_digest, seq_reports = soak_fingerprint seq in
  let par_digest, par_reports = soak_fingerprint par in
  Alcotest.(check int64) "campaign digests identical" seq_digest par_digest;
  check_int "every UNITES report byte-identical" 0
    (List.length (Fleet.check_identical seq_reports par_reports));
  check_bool "outcome streams identical" true
    (List.map2
       (fun a b ->
         a.Soak.o_seed = b.Soak.o_seed
         && a.Soak.o_hash = b.Soak.o_hash
         && a.Soak.o_delivered = b.Soak.o_delivered
         && a.Soak.o_injected = b.Soak.o_injected
         && a.Soak.o_events = b.Soak.o_events)
       seq.Soak.r_outcomes par.Soak.r_outcomes
    |> List.for_all Fun.id)

let test_soak_no_environments () =
  Alcotest.check_raises "empty environment list rejected"
    (Invalid_argument "Soak.soak: no environments") (fun () ->
      ignore (Soak.soak ~environments:[] ~jobs:1 ~seed:1 ~schedules:1 ()))

let test_replicate_jobs_identical () =
  let open Adaptive_core in
  let f ~seed = float_of_int (seed * seed) +. 0.125 in
  let seeds = List.init 9 (fun i -> 100 + i) in
  let seq = Lab.replicate ~jobs:1 ~seeds f in
  let par = Lab.replicate ~jobs:4 ~seeds f in
  (* Bit-identical, not approximately equal: the parallel reducer folds
     in seed order, so even float summation order matches. *)
  check_bool "summary bit-identical" true (seq = par)

let suite =
  [
    ( "fleet.pool",
      [
        Alcotest.test_case "submit/await across domains" `Quick test_pool_basic;
        Alcotest.test_case "jobs=1 runs inline" `Quick
          test_pool_sequential_inline;
        Alcotest.test_case "task exceptions re-raised at await" `Quick
          test_pool_exception_propagation;
        Alcotest.test_case "shutdown drains, joins, is idempotent" `Quick
          test_pool_shutdown;
        Alcotest.test_case "non-positive jobs rejected" `Quick
          test_pool_invalid_jobs;
      ] );
    ( "fleet.map",
      [
        Alcotest.test_case "parallel map preserves input order" `Quick
          test_map_order_preserving;
        Alcotest.test_case "empty input" `Quick test_map_empty;
      ] );
    ( "fleet.campaign",
      [
        Alcotest.test_case "seeds_of is spread and reproducible" `Quick
          test_seeds_of;
      ] );
    ( "fleet.reduce",
      [
        Alcotest.test_case "hash folding" `Quick test_combine_hashes;
        Alcotest.test_case "report comparison" `Quick test_check_identical;
      ] );
    ( "fleet.determinism",
      [
        Alcotest.test_case
          "chaos campaign: jobs=4 byte-identical to jobs=1" `Slow
          test_soak_jobs_identical;
        Alcotest.test_case "soak rejects an empty environment list" `Quick
          test_soak_no_environments;
        Alcotest.test_case "jobs=4 bit-identical to jobs=1" `Quick
          test_replicate_jobs_identical;
      ] );
  ]
