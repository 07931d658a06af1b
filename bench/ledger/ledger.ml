(* LEDGER — the repository's benchmark.

     ledger.exe run     [--workload W|all] [--seed N] [--reps 5] [--out F.jsonl]
     ledger.exe trace   [--workload W|all] [--seed N] [--trace F.json] [--out F.jsonl]
     ledger.exe compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
     ledger.exe --smoke [--benchmark BENCHMARK.json]
     ledger.exe bench   --workload W --seed N --seconds S --trace 0|1

   [run] measures end-to-end metrics with tracing off: per workload one
   discarded warm-up rep, then [--reps] reps, each in a fresh process so
   that no rep inherits a predecessor's heap or memo caches.  [trace]
   makes one traced run per workload plus the ablation twins and probes,
   and prints the per-layer metrics.  [bench] is the same pair behind
   the one-line JSON result contract of BENCHMARK.json.  A failed
   in-run check makes every mode exit non-zero. *)

open Adaptive_sim

let default_seed = 42

(* ------------------------------------------------------------ env *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let status_field key =
  match read_file "/proc/self/status" with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)

(* CPUs this process may run on (what nproc prints). *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
    List.fold_left
      (fun acc range ->
        match List.map int_of_string_opt (String.split_on_char '-' range) with
        | [ Some _ ] -> acc + 1
        | [ Some a; Some b ] -> acc + (b - a + 1)
        | _ -> acc)
      0 (String.split_on_char ',' l)

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some k -> k /. 1024. | None -> 0.0)
    | [] -> 0.0)
  | None -> 0.0

(* HEAD of the checkout, read from .git directly (no git process, and
   nothing outside the working directory); "none" outside a clone. *)
let git_head () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some h -> (
    let h = String.trim h in
    match String.split_on_char ' ' h with
    | [ "ref:"; r ] -> (
      match read_file (".git/" ^ r) with
      | Some x -> String.trim x
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "none"
        | Some p ->
          String.split_on_char '\n' p
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
          |> Option.value ~default:"none"))
    | _ -> h)

let env_fields () =
  [
    ("env.nproc", Json.int (nproc ()));
    ("env.recommended_domains", Json.int (Domain.recommended_domain_count ()));
    ("env.ocaml", Json.Str Sys.ocaml_version);
    ("env.ocamlrunparam", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ("env.git_head", Json.Str (git_head ()));
  ]

(* ------------------------------------------------------------ metrics *)

type metric = { name : string; unit : string; higher : bool }

let m name unit higher = { name; unit; higher }

(* End-to-end, per workload, tracing off. *)
let end_to_end =
  [
    m "wall_s" "s" false;
    m "setup_s" "s" false;
    m "sim_s" "s" false;
    m "report_s" "s" false;
    m "peak_rss_mb" "MB" false;
    m "goodput_sim_mbps" "Mb/s" true;
    m "setup_latency_sim_p99_ms" "ms" false;
    m "delivery_latency_sim_p99_ms" "ms" false;
    m "failed_ratio" "ratio" false;
  ]

(* The end-to-end metrics BENCHMARK.json lists.  The other three are
   printed by [run] and compared exactly by [compare]: [failed_ratio] is
   0 on every passing run (the result line carries failures as "failed"), and
   the two p99 latencies are model constants on three of the four
   workloads (LAN handshake, playout point), the same for every seed. *)
let in_benchmark mt =
  not
    (List.mem mt.name
       [ "failed_ratio"; "setup_latency_sim_p99_ms"; "delivery_latency_sim_p99_ms" ])

(* Bounds of the end-to-end metrics BENCHMARK.json leaves out: failed
   operations may not grow at all, and the two simulated latencies get
   1%, like the simulated goodput beside them. *)
let unlisted_bound = function "failed_ratio" -> 0.0 | _ -> 0.01

(* Spans whose per-call duration distribution is worth reading. *)
let spans =
  [
    ("setup.build", false); ("setup.schedule", false); ("mantts.open", true);
    ("session.send", true); ("mantts.close", true); ("steer.watch", true);
    ("app.deliver", true); ("net.deliver_remote", true); ("shard.window", true);
    ("shard.drain", false); ("shard.inject", false); ("report.unites", false);
  ]

let per_layer =
  List.concat_map
    (fun (s, q) ->
      [ m (s ^ ".calls") "count" false; m (s ^ ".self_s") "s" false ]
      @ if q then [ m (s ^ ".p50_us") "us" false; m (s ^ ".p99_us") "us" false ] else [])
    spans
  @ [
      m "engine.events" "count" false;
      m "engine.events_per_s" "1/s" true;
      m "engine.wheel_hit_rate" "ratio" true;
      m "engine.overflow_inserts" "count" false;
      m "engine.cascades" "count" false;
      m "sim.minor_words_per_event" "words" false;
      m "gc.major_collections" "count" false;
      m "probe.engine.dispatch_ns" "ns" false;
      m "mantts.refused" "count" false;
      m "mantts.monitor_walked_per_tick" "count" false;
      m "conntable.probes_mean" "count" false;
      m "conntable.tw_expired_per_sweep" "count" true;
      m "probe.conntable.find_ns" "ns" false;
      m "unites.report_bytes" "bytes" false;
      m "report.minor_words" "words" false;
      m "codec.encodes" "count" false;
      m "codec.decodes" "count" false;
      m "codec.rejects" "count" false;
      m "pool.reuse_rate" "ratio" true;
      m "codec.wire_s" "s" false;
      m "probe.codec.encode_into_ns_64" "ns" false;
      m "probe.codec.encode_into_ns_1400" "ns" false;
      m "probe.codec.decode_view_ns_1400" "ns" false;
      m "probe.stats.p2_add_ns" "ns" false;
      m "session.retransmissions" "count" false;
      m "session.delivered_bytes" "bytes" true;
      m "steer.swaps" "count" false;
      m "steer.blocked" "count" false;
      m "invariant.oracle_s" "s" false;
      m "invariant.violations" "count" false;
      m "fault.injected" "count" false;
      m "shard.windows" "count" false;
      m "shard.skipped" "count" true;
      m "shard.exchanged" "count" false;
      m "shard.events_per_window" "count" true;
      m "shard.window_s.0" "s" false;
      m "shard.window_s.1" "s" false;
      m "shard.barrier_s" "s" false;
      m "shard.parallel_speedup" "ratio" true;
      m "setup.minor_words" "words" false;
      m "trace.overhead_s" "s" false;
    ]

(* Record fields that are pure functions of (workload, seed): two runs
   of one commit must agree on them exactly. *)
let deterministic =
  [
    "digest"; "report_digest"; "unites.report_bytes"; "offered"; "admitted";
    "mantts.refused"; "wan_opened"; "never_established"; "incomplete_reliable";
    "sent_msgs"; "sent_bytes"; "delivered_msgs"; "session.delivered_bytes";
    "goodput_bytes"; "goodput_sim_mbps"; "setup_latency_sim_p99_ms";
    "delivery_latency_sim_p99_ms"; "failed"; "failed_ratio"; "engine.events";
    "engine.wheel_hit_rate"; "engine.overflow_inserts"; "engine.cascades";
    "mantts.open.calls"; "mantts.monitor_walked_per_tick"; "conntable.probes_mean";
    "conntable.tw_expired_per_sweep"; "codec.encodes"; "codec.decodes";
    "codec.rejects"; "pool.reuse_rate"; "session.retransmissions"; "steer.swaps";
    "steer.blocked"; "invariant.violations"; "fault.injected"; "shard.windows";
    "shard.skipped"; "shard.exchanged";
  ]

(* ------------------------------------------------------------ records *)

let hex d = Json.Str (Printf.sprintf "%016Lx" d)
let num f = Json.Num f
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let outcome_fields (o : Gen.outcome) =
  let t = o.Gen.timing in
  let wire f = match o.Gen.wire with Some w -> f w | None -> 0 in
  [
    ("wall_s", num t.Gen.wall_s);
    ("setup_s", num t.Gen.setup_s);
    ("sim_s", num t.Gen.sim_s);
    ("report_s", num t.Gen.report_s);
    ("peak_rss_mb", num (peak_rss_mb ()));
    ("goodput_sim_mbps", num (Gen.goodput_mbps o));
    ("setup_latency_sim_p99_ms", num (Time.to_ms o.Gen.setup_p99));
    ("delivery_latency_sim_p99_ms", num (Time.to_ms o.Gen.delivery_p99));
    ("failed_ratio", num (ratio (Gen.failed o) (Gen.attempted o)));
    ("attempted", Json.int (Gen.attempted o));
    ("failed", Json.int (Gen.failed o));
    ("digest", hex o.Gen.digest);
    ("report_digest", hex o.Gen.report_digest);
    ("unites.report_bytes", Json.int o.Gen.report_bytes);
    ("offered", Json.int o.Gen.offered);
    ("admitted", Json.int o.Gen.admitted);
    ("mantts.open.calls", Json.int o.Gen.offered);
    ("mantts.refused", Json.int o.Gen.refused);
    ("wan_opened", Json.int o.Gen.wan_opened);
    ("never_established", Json.int o.Gen.never_established);
    ("incomplete_reliable", Json.int o.Gen.incomplete_reliable);
    ("sent_msgs", Json.int o.Gen.sent_msgs);
    ("sent_bytes", Json.int o.Gen.sent_bytes);
    ("delivered_msgs", Json.int o.Gen.delivered_msgs);
    ("session.delivered_bytes", Json.int o.Gen.delivered_bytes);
    ("goodput_bytes", Json.int o.Gen.goodput_bytes);
    ("engine.events", Json.int o.Gen.events);
    ("engine.events_per_s", num (float_of_int o.Gen.events /. t.Gen.sim_s));
    ("engine.wheel_hit_rate", num o.Gen.wheel_hit_rate);
    ("engine.overflow_inserts", Json.int o.Gen.overflow_inserts);
    ("engine.cascades", Json.int o.Gen.cascades);
    ("sim.minor_words_per_event", num (t.Gen.sim_words /. float_of_int (max 1 o.Gen.events)));
    ("setup.minor_words", num t.Gen.setup_words);
    ("report.minor_words", num t.Gen.report_words);
    ("gc.major_collections", Json.int t.Gen.major_collections);
    ("mantts.monitor_walked_per_tick", num (ratio o.Gen.monitor_walked o.Gen.monitor_ticks));
    ("conntable.probes_mean", num o.Gen.probes_mean);
    ("conntable.tw_expired_per_sweep", num (ratio o.Gen.tw_expired o.Gen.tw_sweeps));
    ("codec.encodes", Json.int (wire (fun w -> w.Adaptive_core.Session.Wire.encodes)));
    ("codec.decodes", Json.int (wire (fun w -> w.Adaptive_core.Session.Wire.decodes)));
    ("codec.rejects", Json.int (wire (fun w -> w.Adaptive_core.Session.Wire.rejects)));
    ( "pool.reuse_rate",
      num
        (match o.Gen.wire with
        | Some w -> w.Adaptive_core.Session.Wire.pool_reuse_rate
        | None -> 0.0) );
    ("session.retransmissions", Json.int o.Gen.retransmissions);
    ("steer.swaps", Json.int o.Gen.steer_swaps);
    ("steer.blocked", Json.int o.Gen.steer_blocked);
    ("invariant.violations", Json.int (List.length o.Gen.violations));
    ("fault.injected", Json.int o.Gen.faults);
    ("shard.windows", Json.int o.Gen.windows);
    ("shard.skipped", Json.int o.Gen.skipped);
    ("shard.exchanged", Json.int o.Gen.exchanged);
  ]

let secs ns = float_of_int ns *. 1e-9

(* Span aggregates and the self-time accounting checks of a traced run. *)
let span_fields (o : Gen.outcome) =
  let agg = Array.init Span.count Span.aggregate in
  let total i = secs agg.(i).Span.a_total_ns in
  let fields =
    List.concat
      (List.init Span.count (fun i ->
           let a = agg.(i) and n = Span.names.(i) in
           let q p =
             if a.Span.a_calls = 0 then 0.0
             else float_of_int (Hist.quantile a.Span.a_hist p) /. 1e3
           in
           [
             (n ^ ".calls", Json.int a.Span.a_calls);
             (n ^ ".total_s", num (secs a.Span.a_total_ns));
             (n ^ ".self_s", num (secs a.Span.a_self_ns));
             (n ^ ".p50_us", num (q 0.5));
             (* A p99 needs ten calls beyond it. *)
             (n ^ ".p99_us", num (if a.Span.a_calls >= 1000 then q 0.99 else 0.0));
           ]))
  in
  let sim = total Span.sim in
  let stages = total Span.setup +. total Span.sim +. total Span.report in
  let wall = o.Gen.timing.Gen.wall_s in
  let coordinator = (Domain.self () :> int) in
  let windows = Span.per_domain_total Span.shard_window in
  let shard_wall i =
    if Array.length o.Gen.shard_wall_s > i then o.Gen.shard_wall_s.(i)
    else if i = 0 then total Span.shard_window
    else 0.0
  in
  let failures =
    (if Float.abs (stages -. wall) > 0.02 *. wall then
       [ Printf.sprintf "setup+sim+report %.4fs vs wall %.4fs" stages wall ]
     else [])
    @ List.filter_map
        (fun (d, ns) ->
          let own = secs ns in
          let accounted =
            if d = coordinator then
              own +. total Span.shard_drain +. total Span.shard_inject
              +. secs agg.(Span.sim).Span.a_self_ns
            else own
          in
          if (d = coordinator && Float.abs (accounted -. sim) > 0.02 *. sim)
             || accounted > 1.02 *. sim
          then Some (Printf.sprintf "domain %d: window spans %.4fs vs sim %.4fs" d accounted sim)
          else None)
        windows
  in
  ( fields
    @ [
        ("shard.barrier_s", num (secs agg.(Span.sim).Span.a_self_ns));
        ("shard.window_s.0", num (shard_wall 0));
        ("shard.window_s.1", num (shard_wall 1));
        ("shard.events_per_window", num (ratio o.Gen.events o.Gen.windows));
      ],
    failures )

let record ~rep ~variant ~traced (o : Gen.outcome) =
  let span, span_failures = if traced then span_fields o else ([], []) in
  let failures =
    List.filter_map (fun (name, ok) -> if ok then None else Some name) (Gen.checks o)
    @ span_failures
  in
  ( Json.Obj
      ([
         ("kind", Json.Str "rep");
         ("workload", Json.Str o.Gen.shape.Gen.name);
         ("variant", Json.Str variant);
         ("seed", Json.int o.Gen.seed);
         ("rep", Json.int rep);
         ("traced", Json.Bool traced);
       ]
      @ env_fields () @ outcome_fields o @ span
      @ [ ("failed_checks", Json.Arr (List.map (fun s -> Json.Str s) failures)) ]),
    failures )

(* ------------------------------------------------------------ statistics *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) (exclusive
   method) computes them. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let mm = ld + 1 in
      let j = max 1 (min (ld - 1) (i * mm / 4)) in
      let delta = (i * mm) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------ processes *)

type rep = { fields : (string * Json.t) list; ok : bool }

let get r k = match List.assoc_opt k r.fields with Some (Json.Num f) -> f | _ -> nan
let get_str r k = match List.assoc_opt k r.fields with Some (Json.Str s) -> s | _ -> ""

let last_line s =
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s) with
  | [] -> None
  | l -> Some (List.nth l (List.length l - 1))

(* Run one rep in a fresh process and read back its record. *)
let child_rep ?(variant = "") ?(traced = false) ?chrome ~workload ~seed
    ~rep () =
  let args =
    [ "child"; "--workload"; workload; "--seed"; string_of_int seed; "--rep";
      string_of_int rep ]
    @ (if variant = "" then [] else [ "--variant"; variant ])
    @ (if traced then [ "--traced" ] else [])
    @ match chrome with Some f -> [ "--chrome"; f ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let fields =
    match Option.map Json.parse (last_line out) with
    | Some (Json.Obj kvs) -> kvs
    | _ | (exception Json.Parse_error _) -> []
  in
  { fields; ok = status = Unix.WEXITED 0 && fields <> [] }

let append_records path reps =
  match path with
  | None -> ()
  | Some p ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
    List.iter (fun r -> output_string oc (Json.to_string (Json.Obj r.fields) ^ "\n")) reps;
    close_out oc

(* Every rep of one (workload, seed) must agree on every deterministic
   field. *)
let determinism_failures reps =
  match reps with
  | [] -> []
  | r0 :: rest ->
    List.concat_map
      (fun r ->
        List.filter_map
          (fun k ->
            if List.assoc_opt k r.fields = List.assoc_opt k r0.fields then None
            else Some (Printf.sprintf "rep %g differs from rep %g in %s" (get r "rep") (get r0 "rep") k))
          deterministic)
      rest

let failed_checks r =
  match List.assoc_opt "failed_checks" r.fields with
  | Some (Json.Arr l) -> List.filter_map Json.to_str l
  | _ -> if r.ok then [] else [ "child process failed" ]

(* ------------------------------------------------------------ run *)

(* One warm-up rep, then measured reps until both [reps] are done and
   [seconds] have passed (capped at [max_reps]).  Returns the measured
   reps and every failure seen. *)
let measure ~workload ~seed ~reps ~seconds ~max_reps () =
  let warm = child_rep ~workload ~seed ~rep:0 () in
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i > max_reps || (i > reps && Unix.gettimeofday () -. t0 >= seconds) then List.rev acc
    else go (i + 1) (child_rep ~workload ~seed ~rep:i () :: acc)
  in
  let measured = go 1 [] in
  let failures =
    List.concat_map
      (fun r -> List.map (fun f -> Printf.sprintf "rep %g: %s" (get r "rep") f) (failed_checks r))
      (warm :: measured)
    @ determinism_failures (warm :: measured)
  in
  (measured, failures)

let print_e2e workload reps =
  Printf.printf "\n%s (n=%d, seed %s)\n" workload (List.length reps)
    (match reps with r :: _ -> Printf.sprintf "%g" (get r "seed") | [] -> "-");
  Printf.printf "  %-30s %-7s %12s %12s %12s %12s %12s\n" "metric" "unit" "median" "min" "max"
    "q1" "q3";
  List.iter
    (fun mt ->
      let xs = List.map (fun r -> get r mt.name) reps in
      let q1, q3 = quartiles xs in
      Printf.printf "  %-30s %-7s %12.6g %12.6g %12.6g %12.6g %12.6g\n" mt.name mt.unit
        (median xs)
        (List.fold_left Float.min infinity xs)
        (List.fold_left Float.max neg_infinity xs)
        q1 q3)
    end_to_end

let report_failures label failures =
  List.iter (fun f -> Printf.printf "  FAIL %s: %s\n" label f) failures

let cmd_run ~workloads ~seed ~reps ~out =
  let ok =
    List.for_all Fun.id @@ List.map
      (fun w ->
        let measured, failures =
          measure ~workload:w ~seed ~reps ~seconds:0.0 ~max_reps:reps ()
        in
        append_records out measured;
        print_e2e w measured;
        report_failures w failures;
        failures = [])
      workloads
  in
  Printf.printf "\nin-run checks: %s\n" (if ok then "all passed" else "FAILED");
  ok

(* ------------------------------------------------------------ trace *)

let trace_reps = 3

(* Per-layer metrics of one workload: the traced run for spans, untraced
   reps for counts and times, the ablation twin, and the probes. *)
let trace_workload ?chrome ~workload ~seed () =
  let untraced = List.init trace_reps (fun i -> child_rep ~workload ~seed ~rep:(i + 1) ()) in
  let traced = child_rep ~traced:true ?chrome ~workload ~seed ~rep:0 () in
  let twin_name = Option.map fst (Gen.twin (Gen.shape workload)) in
  let twins =
    match twin_name with
    | Some v ->
      List.init trace_reps (fun i -> child_rep ~variant:v ~workload ~seed ~rep:(i + 1) ())
    | None -> []
  in
  let u0 = List.hd untraced in
  let med reps k = median (List.map (fun r -> get r k) reps) in
  let same k a b = List.assoc_opt k a.fields = List.assoc_opt k b.fields in
  let failures =
    List.concat_map
      (fun r -> List.map (fun f -> get_str r "variant" ^ ": " ^ f) (failed_checks r))
      ((traced :: untraced) @ twins)
    @ determinism_failures untraced
    @ determinism_failures twins
    @ (if same "digest" traced u0 then [] else [ "traced digest differs from untraced" ])
    @ (match twins with
      | t :: _ ->
        (if same "digest" t u0 then [] else [ "ablation twin digest differs" ])
        @
        if workload = "wan-shards" && not (same "report_digest" t u0) then
          [ "shards 1 vs 2: UNITES reports differ" ]
        else []
      | [] -> [])
  in
  let sim_u = med untraced "sim_s" and sim_twin = med twins "sim_s" in
  let derived =
    [
      ("codec.wire_s", if workload = "bulk-wire" then sim_u -. sim_twin else 0.0);
      ("invariant.oracle_s", if workload = "steer-chaos" then sim_u -. sim_twin else 0.0);
      ("shard.parallel_speedup", if workload = "wan-shards" then sim_twin /. sim_u else 0.0);
      ("trace.overhead_s", get traced "wall_s" -. med untraced "wall_s");
    ]
  in
  let probes = Probe.all () in
  (* Times and allocation from the untraced medians, spans from the
     traced run, counts from either (they are identical). *)
  let from_untraced =
    [ "engine.events_per_s"; "sim.minor_words_per_event"; "gc.major_collections";
      "report.minor_words"; "setup.minor_words" ]
  in
  let value mt =
    match List.assoc_opt mt.name derived with
    | Some v -> v
    | None -> (
      match List.assoc_opt mt.name probes with
      | Some v -> v
      | None -> if List.mem mt.name from_untraced then med untraced mt.name else get traced mt.name)
  in
  let metrics = List.map (fun mt -> (mt, value mt)) per_layer in
  let missing = List.filter (fun (_, v) -> Float.is_nan v) metrics in
  let failures =
    failures @ List.map (fun (mt, _) -> "metric not produced: " ^ mt.name) missing
  in
  (metrics, failures, traced, untraced @ twins)

let print_layers workload metrics =
  Printf.printf "\n%s per-layer\n" workload;
  List.iter
    (fun (mt, v) -> Printf.printf "  %-36s %-6s %16.6g\n" mt.name mt.unit v)
    metrics

let cmd_trace ~workloads ~seed ~chrome ~out =
  let ok =
    List.for_all Fun.id @@ List.map
      (fun w ->
        let chrome =
          Option.map
            (fun f -> if List.length workloads = 1 then f else Filename.remove_extension f ^ "." ^ w ^ ".json")
            chrome
        in
        let metrics, failures, traced, others = trace_workload ?chrome ~workload:w ~seed () in
        append_records out (traced :: others);
        print_layers w metrics;
        Printf.printf "  accounting: setup %.4f + sim %.4f + report %.4f s vs wall %.4f s\n"
          (get traced "setup.total_s") (get traced "sim.total_s") (get traced "report.total_s")
          (get traced "wall_s");
        Option.iter (Printf.printf "  chrome trace: %s\n") chrome;
        report_failures w failures;
        failures = [])
      workloads
  in
  Printf.printf "\nin-run checks: %s\n" (if ok then "all passed" else "FAILED");
  ok

(* ------------------------------------------------------------ compare *)

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match Json.parse line with
           | Json.Obj kvs -> Some { fields = kvs; ok = true }
           | _ -> None)
  |> List.filter (fun r ->
         get_str r "kind" = "rep" && get_str r "variant" = ""
         && List.assoc_opt "traced" r.fields = Some (Json.Bool false))

let benchmark_bounds path =
  let listed =
    match Option.map Json.parse (read_file path) with
    | Some j -> (
      match Json.member "end_to_end" j with
      | Some (Json.Arr l) ->
        List.filter_map
          (fun e ->
            match
              ( Option.bind (Json.member "name" e) Json.to_str,
                Option.bind (Json.member "bound" e) Json.to_num )
            with
            | Some n, Some b -> Some (n, b)
            | _ -> None)
          l
      | _ -> [])
    | None -> failwith ("compare: cannot read " ^ path)
  in
  List.map
    (fun mt ->
      match List.assoc_opt mt.name listed with
      | Some b -> (mt.name, b)
      | None when in_benchmark mt -> failwith (path ^ " has no bound for " ^ mt.name)
      | None -> (mt.name, unlisted_bound mt.name))
    end_to_end

let cmd_compare ~benchmark a_path b_path =
  let bounds = benchmark_bounds benchmark in
  let bound name = List.assoc name bounds in
  let a = read_records a_path and b = read_records b_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> get_str r "workload") (a @ b))
  in
  let bad = ref 0 in
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> get_str r "workload" = w) a in
      let rb = List.filter (fun r -> get_str r "workload" = w) b in
      Printf.printf "\n%s (A n=%d, B n=%d)\n" w (List.length ra) (List.length rb);
      Printf.printf "  %-30s %-6s %12s %12s %12s | %12s %12s %12s  %s\n" "metric" "unit"
        "A q1" "A median" "A q3" "B q1" "B median" "B q3" "verdict";
      List.iter
        (fun mt ->
          let xa = List.map (fun r -> get r mt.name) ra in
          let xb = List.map (fun r -> get r mt.name) rb in
          let ma = median xa and mb = median xb in
          let a1, a3 = quartiles xa and b1, b3 = quartiles xb in
          let bd = bound mt.name in
          let worse = if mt.higher then ma -. mb else mb -. ma in
          let spread q1 q3 med = if med = 0.0 then q3 -. q1 else (q3 -. q1) /. Float.abs med in
          let verdict =
            if ra = [] || rb = [] then "missing"
            else if worse > bd *. Float.abs ma then "REGRESSED"
            else if bd > 0.0 && (spread a1 a3 ma > bd || spread b1 b3 mb > bd) then "UNRESOLVED"
            else "ok"
          in
          if verdict <> "ok" then incr bad;
          Printf.printf "  %-30s %-6s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s (bound %g)\n"
            mt.name mt.unit a1 ma a3 b1 mb b3 verdict bd)
        end_to_end;
      (* Deterministic fields, seed by seed. *)
      let seeds = List.sort_uniq compare (List.map (fun r -> get r "seed") (ra @ rb)) in
      List.iter
        (fun s ->
          match
            ( List.find_opt (fun r -> get r "seed" = s) ra,
              List.find_opt (fun r -> get r "seed" = s) rb )
          with
          | Some x, Some y ->
            let diffs =
              List.filter
                (fun k -> List.assoc_opt k x.fields <> List.assoc_opt k y.fields)
                deterministic
            in
            bad := !bad + List.length diffs;
            if diffs = [] then
              Printf.printf "  seed %g: %d deterministic fields identical\n" s
                (List.length deterministic)
            else
              Printf.printf "  seed %g: DETERMINISTIC FIELDS DIFFER: %s\n" s
                (String.concat ", " diffs)
          | _ -> Printf.printf "  seed %g: only on one side, not compared exactly\n" s)
        seeds)
    workloads;
  Printf.printf "\n%s\n"
    (if !bad = 0 then "no regressed or unresolved metric; deterministic fields identical"
     else Printf.sprintf "%d finding(s)" !bad);
  !bad = 0

(* ------------------------------------------------------------ smoke *)

(* Exact per-layer counts of the smoke-size workloads at the default
   seed: engine.events, mantts.open.calls, codec.encodes, shard.windows,
   steer.swaps, invariant.violations.  Deterministic, so any change to
   them is a behaviour change somewhere in the stack. *)
let pinned =
  [
    ("churn", [ 16692; 800; 0; 166; 0; 0 ]);
    ("bulk-wire", [ 3466; 16; 880; 0; 0; 0 ]);
    ("steer-chaos", [ 32131; 420; 0; 0; 207; 0 ]);
    ("wan-shards", [ 20131; 800; 0; 182; 0; 0 ]);
  ]

let pinned_names =
  [ "engine.events"; "mantts.open.calls"; "codec.encodes"; "shard.windows"; "steer.swaps";
    "invariant.violations" ]

(* BENCHMARK.json must name exactly the metrics this program emits. *)
let benchmark_consistency path =
  match read_file path with
  | None -> [ "cannot read " ^ path ]
  | Some s ->
    let j = Json.parse s in
    let names key =
      match Json.member key j with
      | Some (Json.Arr l) -> List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str) l
      | _ -> []
    in
    let expect key ours =
      let theirs = names key in
      List.filter_map
        (fun n -> if List.mem n theirs then None else Some (key ^ " lacks " ^ n))
        ours
      @ List.filter_map
          (fun n -> if List.mem n ours then None else Some (key ^ " names unknown " ^ n))
          theirs
    in
    expect "end_to_end"
      (List.map (fun mt -> mt.name) (List.filter in_benchmark end_to_end))
    @ expect "per_layer" (List.map (fun mt -> mt.name) per_layer)
    @ expect "workloads" Gen.workloads

let cmd_smoke ~benchmark =
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun w ->
      let sh = Gen.shape ~size:Gen.Smoke w in
      let o = Gen.run ~seed:default_seed sh in
      List.iter (fun (name, ok) -> if not ok then fail "%s: %s" w name) (Gen.checks o);
      let fields = outcome_fields o in
      let count k =
        match List.assoc_opt k fields with Some (Json.Num f) -> int_of_float f | _ -> -1
      in
      let got = List.map count pinned_names in
      let want = List.assoc w pinned in
      if got <> want then
        fail "%s: pinned counts (%s) = [%s], expected [%s]" w
          (String.concat ", " pinned_names)
          (String.concat "; " (List.map string_of_int got))
          (String.concat "; " (List.map string_of_int want));
      (match Gen.twin sh with
      | Some (v, twin) ->
        let t = Gen.run ~seed:default_seed twin in
        if t.Gen.digest <> o.Gen.digest then fail "%s: %s twin digest differs" w v;
        if w = "wan-shards" && t.Gen.report_digest <> o.Gen.report_digest then
          fail "%s: shards 1 vs 2 UNITES reports differ" w
      | None -> ());
      Printf.printf "smoke %-12s events=%d opens=%d digest=%016Lx\n%!" w o.Gen.events
        o.Gen.offered o.Gen.digest)
    Gen.workloads;
  Option.iter
    (fun path -> List.iter (fail "%s") (benchmark_consistency path))
    benchmark;
  List.iter (Printf.printf "FAIL %s\n") (List.rev !failures);
  Printf.printf "smoke: %s in %.2fs\n"
    (if !failures = [] then "all checks passed" else "FAILED")
    (Unix.gettimeofday () -. t0);
  !failures = []

(* ------------------------------------------------------------ bench *)

(* The BENCHMARK.json contract: the last stdout line is one JSON object
   with correct/attempted/failed and every end_to_end (trace 0) or
   per_layer (trace 1) metric. *)
let cmd_bench ~workload ~seed ~seconds ~trace =
  let result ~correct ~attempted ~failed metrics =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.int attempted);
        ("failed", Json.int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (mt, v) -> (mt.name, Json.Obj [ ("value", num v); ("unit", Json.Str mt.unit) ]))
               metrics) );
      ]
  in
  let sum reps k = List.fold_left (fun acc r -> acc + int_of_float (get r k)) 0 reps in
  let correct, out =
    if trace then begin
      let metrics, failures, traced, _ = trace_workload ~workload ~seed () in
      report_failures workload failures;
      ( failures = [],
        result ~correct:(failures = []) ~attempted:(max 1 (sum [ traced ] "attempted"))
          ~failed:(sum [ traced ] "failed") metrics )
    end
    else begin
      let measured, failures =
        measure ~workload ~seed ~reps:3 ~seconds ~max_reps:60 ()
      in
      report_failures workload failures;
      let metrics =
        List.map
          (fun mt -> (mt, median (List.map (fun r -> get r mt.name) measured)))
          (List.filter in_benchmark end_to_end)
      in
      ( failures = [],
        result ~correct:(failures = []) ~attempted:(max 1 (sum measured "attempted"))
          ~failed:(sum measured "failed") metrics )
    end
  in
  print_endline (Json.to_string out);
  correct

(* ------------------------------------------------------------ main *)

let cmd_child ~workload ~seed ~rep ~variant ~traced ~chrome =
  let sh = Gen.shape workload in
  let sh =
    if variant = "" then sh
    else
      match Gen.twin sh with
      | Some (v, t) when v = variant -> t
      | _ -> invalid_arg ("no variant " ^ variant ^ " for " ^ workload)
  in
  Span.enabled := traced;
  let o = Gen.run ~traced ~seed sh in
  Option.iter Span.write_chrome chrome;
  let r, failures = record ~rep ~variant ~traced o in
  print_endline (Json.to_string r);
  failures = []

let usage () =
  prerr_endline
    "usage: ledger.exe (run|trace|compare A B|bench|--smoke) [--workload W|all] [--seed N]\n\
    \       [--reps N] [--seconds S] [--trace 0|1|FILE] [--out F.jsonl] [--benchmark F]";
  exit 2

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let cmd, rest =
    match argv with
    | c :: rest when String.length c > 0 && c.[0] <> '-' -> (c, rest)
    | _ -> ("", argv)
  in
  let flags = [ "--smoke"; "--traced" ] in
  let rec parse opts pos = function
    | [] -> (opts, List.rev pos)
    | f :: rest when List.mem f flags -> parse ((f, "") :: opts) pos rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((k, v) :: opts) pos rest
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
    | p :: rest -> parse opts (p :: pos) rest
  in
  let opts, pos = parse [] [] rest in
  let opt k = List.assoc_opt k opts in
  let int_opt k d =
    match opt k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let seed = int_opt "--seed" default_seed in
  let workload_opt = Option.value ~default:"all" (opt "--workload") in
  let workloads =
    if workload_opt = "all" then Gen.workloads
    else if List.mem workload_opt Gen.workloads then [ workload_opt ]
    else usage ()
  in
  let ok =
    match cmd with
    | "" when opt "--smoke" <> None -> cmd_smoke ~benchmark:(opt "--benchmark")
    | "child" ->
      cmd_child ~workload:(List.hd workloads) ~seed ~rep:(int_opt "--rep" 0)
        ~variant:(Option.value ~default:"" (opt "--variant"))
        ~traced:(opt "--traced" <> None) ~chrome:(opt "--chrome")
    | "run" -> cmd_run ~workloads ~seed ~reps:(int_opt "--reps" 5) ~out:(opt "--out")
    | "trace" -> cmd_trace ~workloads ~seed ~chrome:(opt "--trace") ~out:(opt "--out")
    | "compare" -> (
      match pos with
      | [ a; b ] ->
        cmd_compare ~benchmark:(Option.value ~default:"BENCHMARK.json" (opt "--benchmark")) a b
      | _ -> usage ())
    | "bench" ->
      if List.length workloads <> 1 then usage ();
      cmd_bench ~workload:(List.hd workloads) ~seed
        ~seconds:(float_of_int (int_opt "--seconds" 10))
        ~trace:(int_opt "--trace" 0 = 1)
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
