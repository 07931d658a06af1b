open Adaptive_sim

type metric =
  | Throughput
  | Rtt
  | Setup_latency
  | Delivery_latency
  | Jitter
  | Segments_sent
  | Segments_delivered
  | Bytes_delivered
  | Retransmissions
  | Timeouts
  | Dup_segments
  | Corrupt_detected
  | Corrupt_delivered
  | Late_discards
  | Losses_unrecovered
  | Fec_parity_sent
  | Fec_recovered
  | Acks_sent
  | Nacks_sent
  | Control_pdus
  | Reconfigurations
  | Window_size
  | Host_cpu
  | Sched_events_fired
  | Sched_timers_rearmed
  | Sched_cancelled_ratio
  | Sched_wheel_hit_rate
  | Faults_injected
  | Fault_recovery
  | Sessions_open
  | Sessions_refused
  | Sessions_degraded
  | Demux_probes
  | Table_occupancy
  | Timewait_drops
  | Wire_encodes
  | Wire_decodes
  | Wire_rejects
  | Wire_fused_sums
  | Wire_pool_reuse
  | Steer_swaps
  | Steer_blocked
  | Steer_time_in_config

type kind = Blackbox | Whitebox

let metric_kind = function
  | Throughput | Rtt -> Blackbox
  | Setup_latency | Delivery_latency | Jitter | Segments_sent | Segments_delivered
  | Bytes_delivered | Retransmissions | Timeouts | Dup_segments | Corrupt_detected
  | Corrupt_delivered | Late_discards | Losses_unrecovered | Fec_parity_sent
  | Fec_recovered | Acks_sent | Nacks_sent | Control_pdus | Reconfigurations
  | Window_size | Host_cpu | Sched_events_fired | Sched_timers_rearmed
  | Sched_cancelled_ratio | Sched_wheel_hit_rate | Faults_injected
  | Fault_recovery | Sessions_open | Sessions_refused | Sessions_degraded
  | Demux_probes | Table_occupancy | Timewait_drops | Wire_encodes
  | Wire_decodes | Wire_rejects | Wire_fused_sums | Wire_pool_reuse
  | Steer_swaps | Steer_blocked | Steer_time_in_config -> Whitebox

let metric_name = function
  | Throughput -> "throughput_bps"
  | Rtt -> "rtt_s"
  | Setup_latency -> "setup_latency_s"
  | Delivery_latency -> "delivery_latency_s"
  | Jitter -> "jitter_s"
  | Segments_sent -> "segments_sent"
  | Segments_delivered -> "segments_delivered"
  | Bytes_delivered -> "bytes_delivered"
  | Retransmissions -> "retransmissions"
  | Timeouts -> "timeouts"
  | Dup_segments -> "dup_segments"
  | Corrupt_detected -> "corrupt_detected"
  | Corrupt_delivered -> "corrupt_delivered"
  | Late_discards -> "late_discards"
  | Losses_unrecovered -> "losses_unrecovered"
  | Fec_parity_sent -> "fec_parity_sent"
  | Fec_recovered -> "fec_recovered"
  | Acks_sent -> "acks_sent"
  | Nacks_sent -> "nacks_sent"
  | Control_pdus -> "control_pdus"
  | Reconfigurations -> "reconfigurations"
  | Window_size -> "window_size"
  | Host_cpu -> "host_cpu_s"
  | Sched_events_fired -> "sched_events_fired"
  | Sched_timers_rearmed -> "sched_timers_rearmed"
  | Sched_cancelled_ratio -> "sched_cancelled_ratio"
  | Sched_wheel_hit_rate -> "sched_wheel_hit_rate"
  | Faults_injected -> "faults_injected"
  | Fault_recovery -> "fault_recovery_s"
  | Sessions_open -> "sessions_open"
  | Sessions_refused -> "sessions_refused"
  | Sessions_degraded -> "sessions_degraded"
  | Demux_probes -> "demux_probes"
  | Table_occupancy -> "table_occupancy"
  | Timewait_drops -> "timewait_drops"
  | Wire_encodes -> "wire_encodes"
  | Wire_decodes -> "wire_decodes"
  | Wire_rejects -> "wire_rejects"
  | Wire_fused_sums -> "wire_fused_sums"
  | Wire_pool_reuse -> "wire_pool_reuse"
  | Steer_swaps -> "steer_swaps"
  | Steer_blocked -> "steer_blocked"
  | Steer_time_in_config -> "steer_time_in_config_s"

let all_metrics =
  [
    Throughput;
    Rtt;
    Setup_latency;
    Delivery_latency;
    Jitter;
    Segments_sent;
    Segments_delivered;
    Bytes_delivered;
    Retransmissions;
    Timeouts;
    Dup_segments;
    Corrupt_detected;
    Corrupt_delivered;
    Late_discards;
    Losses_unrecovered;
    Fec_parity_sent;
    Fec_recovered;
    Acks_sent;
    Nacks_sent;
    Control_pdus;
    Reconfigurations;
    Window_size;
    Host_cpu;
    Sched_events_fired;
    Sched_timers_rearmed;
    Sched_cancelled_ratio;
    Sched_wheel_hit_rate;
    Faults_injected;
    Fault_recovery;
    Sessions_open;
    Sessions_refused;
    Sessions_degraded;
    Demux_probes;
    Table_occupancy;
    Timewait_drops;
    Wire_encodes;
    Wire_decodes;
    Wire_rejects;
    Wire_fused_sums;
    Wire_pool_reuse;
    Steer_swaps;
    Steer_blocked;
    Steer_time_in_config;
  ]

(* Dense metric indexing: the hot path keys accumulators by the packed
   int [(session lsl 6) lor metric_index] instead of an [(int * metric)]
   tuple, so a lookup allocates nothing.  The index order must match
   {!all_metrics}. *)
let metric_index = function
  | Throughput -> 0
  | Rtt -> 1
  | Setup_latency -> 2
  | Delivery_latency -> 3
  | Jitter -> 4
  | Segments_sent -> 5
  | Segments_delivered -> 6
  | Bytes_delivered -> 7
  | Retransmissions -> 8
  | Timeouts -> 9
  | Dup_segments -> 10
  | Corrupt_detected -> 11
  | Corrupt_delivered -> 12
  | Late_discards -> 13
  | Losses_unrecovered -> 14
  | Fec_parity_sent -> 15
  | Fec_recovered -> 16
  | Acks_sent -> 17
  | Nacks_sent -> 18
  | Control_pdus -> 19
  | Reconfigurations -> 20
  | Window_size -> 21
  | Host_cpu -> 22
  | Sched_events_fired -> 23
  | Sched_timers_rearmed -> 24
  | Sched_cancelled_ratio -> 25
  | Sched_wheel_hit_rate -> 26
  | Faults_injected -> 27
  | Fault_recovery -> 28
  | Sessions_open -> 29
  | Sessions_refused -> 30
  | Sessions_degraded -> 31
  | Demux_probes -> 32
  | Table_occupancy -> 33
  | Timewait_drops -> 34
  | Wire_encodes -> 35
  | Wire_decodes -> 36
  | Wire_rejects -> 37
  | Wire_fused_sums -> 38
  | Wire_pool_reuse -> 39
  | Steer_swaps -> 40
  | Steer_blocked -> 41
  | Steer_time_in_config -> 42

let key session mi = (session lsl 6) lor mi
let key_metric k = k land 63

let is_whitebox =
  Array.of_list
    (List.map (fun m -> metric_kind m = Whitebox) all_metrics)

(* One tracked (routed) session: whether a session cap admitted it, its
   TMC whitebox mask (-1 when unrestricted) and a row of the cells it
   has recorded, [len] (metric index, cell) pairs in [mis] (one byte per
   index) and [row].  A cell, everything recorded for one (session,
   metric), is its accumulator.  Every cell is created through its
   session's row, so a metric missing from the row has no cell.  A
   session observed before any cap was set has a track but was never
   admitted. *)
type track = {
  mutable admitted : bool;
  mutable mask : int;
  mutable mis : Bytes.t;
  mutable row : Stats.t array;
  mutable len : int;
}

type t = {
  engine : Engine.t;
  mutable whitebox : bool;
  res_size : int; (* per-accumulator reservoir bound *)
  estimator : Stats.estimator; (* quantile sketch for every accumulator *)
  cells : (int, Stats.t) Hashtbl.t; (* packed (session, metric) key *)
  names : (int, string) Hashtbl.t;
  tracks : (int, track) Hashtbl.t; (* routed session id *)
  mutable session_cap : int; (* individually tracked real sessions *)
  mutable tracked : int; (* real sessions admitted under the cap *)
  mutable whitebox_count : int;
  (* last scheduler counter values folded into the repository, so each
     [sample_scheduler] observes the delta since the previous sample *)
  mutable sched_fired_seen : int;
  mutable sched_rearmed_seen : int;
  mutable trace : Trace.t option;
  (* Write journal: packed keys of recorded cells whose metric bit is set
     in [journal_mask] (0 = journalling off), in write order. *)
  mutable journal_mask : int;
  mutable journal : int array;
  mutable journal_len : int;
  (* The last session observed, resolved once: its raw id, routed id and
     track.  [cached = false] forces the next observation to resolve
     afresh. *)
  mutable cached : bool;
  mutable c_raw : int;
  mutable c_id : int;
  mutable c_track : track;
}

(* Scheduler observations live under a reserved pseudo-session: real
   connection ids are handed out starting from 1. *)
let scheduler_session = 0

(* Fault-injection observations likewise live under a reserved
   pseudo-session: faults belong to the run, not to any one connection. *)
let chaos_session = -1

(* Many-session scale observations (admission control, demux probes,
   table occupancy) likewise describe the host's dispatcher as a whole. *)
let swarm_session = -2

(* Wire-true data-path observations (encode/decode/reject counts, fused
   checksum passes, pool reuse) describe the codec and buffer pool of a
   whole stack, not any one connection. *)
let wire_session = -3

(* Closed-loop steering observations (swap counts, cooldown blocks,
   time-in-config) describe the STEER policy engine of a whole stack. *)
let steer_session = -4

(* When a session cap is set, real sessions past the cap share this
   pseudo-session: totals stay exact while per-session state stays
   bounded at GIGASWARM scale. *)
let overflow_session = -5

let create ?(whitebox = true) ?(reservoir = 8192)
    ?(estimator = Stats.Reservoir) ?(session_cap = max_int) engine =
  {
    engine;
    whitebox;
    res_size = max 8 reservoir;
    estimator;
    cells = Hashtbl.create 64;
    names = Hashtbl.create 16;
    tracks = Hashtbl.create 16;
    session_cap = max 1 session_cap;
    tracked = 0;
    whitebox_count = 0;
    sched_fired_seen = 0;
    sched_rearmed_seen = 0;
    trace = None;
    journal_mask = 0;
    journal = [||];
    journal_len = 0;
    cached = false;
    c_raw = 0;
    c_id = 0;
    c_track = { admitted = false; mask = -1; mis = Bytes.empty; row = [||]; len = 0 };
  }

let set_session_cap t n =
  t.session_cap <- max 1 n;
  t.cached <- false

let track t id =
  match Hashtbl.find t.tracks id with
  | tr -> tr
  | exception Not_found ->
    let tr = { admitted = false; mask = -1; mis = Bytes.empty; row = [||]; len = 0 } in
    Hashtbl.add t.tracks id tr;
    tr

(* Whether [session] is a real session routed under a cap. *)
let capped t session = session > 0 && t.session_cap <> max_int

(* Route a not yet admitted real session under a cap.  The first
   [session_cap] distinct real sessions (in deterministic first-contact
   order) are admitted and tracked individually; later ones fold into
   [overflow_session].  Only admitted sessions get a track here, so the
   track table stays bounded by the cap. *)
let admit t session =
  if t.tracked < t.session_cap then begin
    t.tracked <- t.tracked + 1;
    (track t session).admitted <- true;
    session
  end
  else begin
    if not (Hashtbl.mem t.names overflow_session) then
      Hashtbl.replace t.names overflow_session "overflow";
    overflow_session
  end

(* Route a session id to the id it is tracked under. *)
let route t session =
  if not (capped t session) then session
  else
    match Hashtbl.find t.tracks session with
    | tr when tr.admitted -> session
    | _ | (exception Not_found) -> admit t session

let whitebox_enabled t = t.whitebox
let register_session t ~id ~name =
  (* First registration wins: the initiator names the session; the
     responder's acceptance label is secondary.  Overflow-routed
     sessions are not named individually, so the name table stays
     bounded under a session cap. *)
  let id = route t id in
  if id <> overflow_session && not (Hashtbl.mem t.names id) then
    Hashtbl.add t.names id name

let mask_of metrics =
  List.fold_left (fun acc m -> acc lor (1 lsl metric_index m)) 0 metrics

let restrict_session t ~id metrics =
  let id = route t id in
  if id = overflow_session then begin
    (* Overflowed sessions share one restriction mask: the union of
       their TMCs.  Deterministic (first-contact order) and bounded. *)
    match mask_of metrics with
    | 0 -> ()
    | m ->
      let tr = track t id in
      tr.mask <- (if tr.mask = -1 then 0 else tr.mask) lor m
  end
  else if metrics = [] then
    Option.iter (fun tr -> tr.mask <- -1) (Hashtbl.find_opt t.tracks id)
  else (track t id).mask <- mask_of metrics

let journal_push t k =
  if t.journal_len = Array.length t.journal then begin
    let grown = Array.make (max 256 (2 * t.journal_len)) 0 in
    Array.blit t.journal 0 grown 0 t.journal_len;
    t.journal <- grown
  end;
  Array.unsafe_set t.journal t.journal_len k;
  t.journal_len <- t.journal_len + 1

(* Make [session] the cached one.  A new session is always a cache miss,
   so it is routed, and admitted under a cap, at its first observation:
   admission stays in first-contact order.  A session that already has
   its own track and needs no admission costs one table lookup. *)
let resolve t session =
  t.cached <- true;
  t.c_raw <- session;
  match Hashtbl.find t.tracks session with
  | tr when tr.admitted || not (capped t session) ->
    t.c_id <- session;
    t.c_track <- tr
  | _ | (exception Not_found) ->
    let id = if capped t session then admit t session else session in
    t.c_id <- id;
    t.c_track <- track t id

let row_push tr mi c =
  if tr.len = Array.length tr.row then begin
    let n = max 4 (2 * tr.len) in
    let mis = Bytes.create n and row = Array.make n c in
    Bytes.blit tr.mis 0 mis 0 tr.len;
    Array.blit tr.row 0 row 0 tr.len;
    tr.mis <- mis;
    tr.row <- row
  end;
  Bytes.unsafe_set tr.mis tr.len (Char.unsafe_chr mi);
  Array.unsafe_set tr.row tr.len c;
  tr.len <- tr.len + 1

(* The only place a total changes, so the journal sees every change.  A
   cell is created, with its first sample, the first time its key is
   recorded, and enters [cells] then: table order is first-record order. *)
let record t mi v =
  let tr = t.c_track in
  let i = ref 0 in
  while !i < tr.len && Char.code (Bytes.unsafe_get tr.mis !i) <> mi do
    incr i
  done;
  if !i < tr.len then Stats.add (Array.unsafe_get tr.row !i) v
  else begin
    let c = Stats.create ~estimator:t.estimator ~reservoir:t.res_size () in
    Stats.add c v;
    Hashtbl.add t.cells (key t.c_id mi) c;
    row_push tr mi c
  end;
  if t.journal_mask land (1 lsl mi) <> 0 then journal_push t (key t.c_id mi)

let observe t ~session m v =
  let mi = metric_index m in
  if Array.unsafe_get is_whitebox mi then begin
    if t.whitebox then begin
      if not (t.cached && session = t.c_raw) then resolve t session;
      if t.c_track.mask land (1 lsl mi) <> 0 then begin
        t.whitebox_count <- t.whitebox_count + 1;
        record t mi v
      end
    end
  end
  else begin
    if not (t.cached && session = t.c_raw) then resolve t session;
    record t mi v
  end

let count t ~session m = observe t ~session m 1.0

let stats t ~session m =
  Option.map Stats.summarize (Hashtbl.find_opt t.cells (key session (metric_index m)))

let total t ~session m =
  match Hashtbl.find t.cells (key session (metric_index m)) with
  | c -> Stats.total c
  | exception Not_found -> 0.0

let metric_of_index = Array.of_list all_metrics

let journal_start t metrics =
  let mask = mask_of metrics in
  t.journal_mask <- mask;
  t.journal_len <- 0;
  (* Cells that already hold a total enter once, so the first drain sees
     them as a full walk would. *)
  Hashtbl.iter
    (fun k _ -> if mask land (1 lsl key_metric k) <> 0 then journal_push t k)
    t.cells

let journal_stop t =
  t.journal_mask <- 0;
  t.journal <- [||];
  t.journal_len <- 0

let journal_drain t f =
  let i = ref 0 in
  while !i < t.journal_len do
    let k = Array.unsafe_get t.journal !i in
    f ~cell:k ~session:(k asr 6)
      (Array.unsafe_get metric_of_index (key_metric k))
      (Stats.total (Hashtbl.find t.cells k));
    incr i
  done;
  t.journal_len <- 0

let aggregate_acc t m =
  let mi = metric_index m in
  Hashtbl.fold
    (fun k c acc ->
      if key_metric k = mi then
        match acc with None -> Some c | Some a -> Some (Stats.merge a c)
      else acc)
    t.cells None

let aggregate t m = Option.map Stats.summarize (aggregate_acc t m)

(* The total [aggregate_acc] would carry, without building it: the same
   cells in the same table order, summed as [Stats.merge] sums them —
   the first cell's total as is, then [acc +. total] per further cell. *)
let aggregate_total t m =
  let mi = metric_index m in
  let sum = ref 0.0 and seen = ref false in
  Hashtbl.iter
    (fun k c ->
      if key_metric k = mi then begin
        sum := if !seen then !sum +. Stats.total c else Stats.total c;
        seen := true
      end)
    t.cells;
  !sum

let whitebox_samples t = t.whitebox_count
let attach_trace t trace = t.trace <- Some trace
let attached_trace t = t.trace

let sample_scheduler t =
  if t.whitebox then begin
    register_session t ~id:scheduler_session ~name:"scheduler";
    let c = Engine.counters t.engine in
    let d_fired = c.Engine.events_fired - t.sched_fired_seen in
    let d_rearmed = c.Engine.timers_rearmed - t.sched_rearmed_seen in
    t.sched_fired_seen <- c.Engine.events_fired;
    t.sched_rearmed_seen <- c.Engine.timers_rearmed;
    if d_fired > 0 then
      observe t ~session:scheduler_session Sched_events_fired (float_of_int d_fired);
    if d_rearmed > 0 then
      observe t ~session:scheduler_session Sched_timers_rearmed
        (float_of_int d_rearmed);
    observe t ~session:scheduler_session Sched_cancelled_ratio
      (Engine.cancelled_ratio t.engine);
    observe t ~session:scheduler_session Sched_wheel_hit_rate
      (Engine.wheel_hit_rate t.engine)
  end

(* The fixed head of each metric's report line. *)
let line_head =
  Array.of_list
    (List.map
       (fun m ->
         Printf.sprintf "  %-20s [%s] " (metric_name m)
           (match metric_kind m with Blackbox -> "bb" | Whitebox -> "wb"))
       all_metrics)

let sorted_keys tbl =
  let a = Array.make (Hashtbl.length tbl) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      a.(!i) <- k;
      incr i)
    tbl;
  Array.sort Int.compare a;
  a

let report fmt t =
  (* Fold the engine's current scheduler counters in so the report always
     shows scheduler overhead next to the transport metrics. *)
  sample_scheduler t;
  (* Named sessions in id order, and cell keys in (session, metric
     index) order: a session's lines are a run of [keys], so each
     rendered metric costs one lookup. *)
  let ids = sorted_keys t.names and keys = sorted_keys t.cells in
  let cells = Array.length keys in
  (* One session's block at a time goes to [fmt], so the whole report is
     never held twice.  The block's last newline is a Format newline: it
     leaves the formatter at the start of a line, where it expects the
     next block, and a block printed at its full width is written out at
     once rather than queued until the caller flushes. *)
  let b = Buffer.create 4096 in
  let flush () =
    if Buffer.length b > 0 then begin
      Format.pp_print_string fmt (Buffer.sub b 0 (Buffer.length b - 1));
      Format.pp_force_newline fmt ();
      Buffer.clear b
    end
  in
  Printf.bprintf b "UNITES metric repository (t=%s, whitebox=%b)\n"
    (Time.to_string (Engine.now t.engine)) t.whitebox;
  let next = ref 0 in
  Array.iter
    (fun id ->
      (* Cells of sessions never named are not reported. *)
      while !next < cells && keys.(!next) asr 6 < id do
        incr next
      done;
      Buffer.add_string b "session ";
      Buffer.add_string b (string_of_int id);
      Buffer.add_string b " (";
      Buffer.add_string b (Hashtbl.find t.names id);
      Buffer.add_string b "):\n";
      while !next < cells && keys.(!next) asr 6 = id do
        let k = keys.(!next) in
        Buffer.add_string b line_head.(key_metric k);
        Stats.add_summary b (Stats.summarize (Hashtbl.find t.cells k));
        Buffer.add_char b '\n';
        incr next
      done;
      flush ())
    ids;
  (match t.trace with
  | None -> ()
  | Some trace ->
    Printf.bprintf b "trace (dropped log entries: %d):\n" (Trace.dropped trace);
    List.iter
      (fun (name, n) -> Printf.bprintf b "  %-28s %d\n" name n)
      (Trace.counters trace));
  flush ()
