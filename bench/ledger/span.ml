(* Outside-in spans: the generator brackets each call it makes into a
   layer's public functions with [enter]/[leave].  Nothing inside lib/
   is instrumented, so a span's self time is the layer's cost as seen
   from its caller, minus the spans nested inside it (the generator's
   own callbacks, which the layer invokes).

   Recording is per domain: each domain owns a stack of open spans,
   running aggregates per span name (calls, total and self nanoseconds,
   a duration histogram) and a buffer of written spans.  Aggregates see
   every span; at most [cap] spans, across all domains, are written for
   the Chrome trace.  With [enabled] false, [enter]/[leave] are a load
   and a branch. *)

let setup = 0
let setup_build = 1
let setup_schedule = 2
let sim = 3
let mantts_open = 4
let session_send = 5
let mantts_close = 6
let steer_watch = 7
let app_deliver = 8
let net_deliver_remote = 9
let shard_window = 10
let shard_drain = 11
let shard_inject = 12
let report = 13
let report_unites = 14

let names =
  [| "setup"; "setup.build"; "setup.schedule"; "sim"; "mantts.open";
     "session.send"; "mantts.close"; "steer.watch"; "app.deliver";
     "net.deliver_remote"; "shard.window"; "shard.drain"; "shard.inject";
     "report"; "report.unites" |]

let count = Array.length names

(* Chrome trace track (tid) of each span: one per layer. *)
let layers =
  [| "stage"; "setup"; "core.mantts"; "core.session"; "core.steer"; "net";
     "fleet.shard"; "core.unites" |]

let layer_of =
  [| 0; 1; 1; 0; 2; 3; 2; 4; 3; 5; 6; 6; 6; 0; 7 |]

let enabled = ref false
let cap = 200_000
let written = Atomic.make 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_depth = 64

type recorder = {
  dom : int;
  mutable depth : int;
  mutable next_id : int;
  s_name : int array;
  s_start : int array;
  s_child : int array;
  s_slot : int array;
  s_id : int array;
  calls : int array;
  total : int array;
  self : int array;
  hists : Hist.t array;
  mutable w_n : int;
  mutable w : int array;  (* 6 ints per written span, see [record] *)
}

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          dom = (Domain.self () :> int);
          depth = 0;
          next_id = 0;
          s_name = Array.make max_depth 0;
          s_start = Array.make max_depth 0;
          s_child = Array.make max_depth 0;
          s_slot = Array.make max_depth 0;
          s_id = Array.make max_depth 0;
          calls = Array.make count 0;
          total = Array.make count 0;
          self = Array.make count 0;
          hists = Array.init count (fun _ -> Hist.create ());
          w_n = 0;
          w = [||];
        }
      in
      Mutex.protect registry_lock (fun () -> registry := r :: !registry);
      r)

let enter_on r name slot =
  let d = r.depth in
  if d >= max_depth then failwith "Span.enter: nesting too deep";
  r.depth <- d + 1;
  r.s_name.(d) <- name;
  r.s_slot.(d) <- slot;
  r.s_child.(d) <- 0;
  r.s_id.(d) <- (r.dom lsl 40) lor r.next_id;
  r.next_id <- r.next_id + 1;
  r.s_start.(d) <- now_ns ()

let record r ~name ~start ~stop ~slot ~id ~parent =
  if Atomic.get written < cap && Atomic.fetch_and_add written 1 < cap then begin
    if (r.w_n + 1) * 6 > Array.length r.w then begin
      let w = Array.make (max 6144 (2 * Array.length r.w)) 0 in
      Array.blit r.w 0 w 0 (r.w_n * 6);
      r.w <- w
    end;
    let o = r.w_n * 6 in
    r.w.(o) <- name;
    r.w.(o + 1) <- start;
    r.w.(o + 2) <- stop;
    r.w.(o + 3) <- slot;
    r.w.(o + 4) <- id;
    r.w.(o + 5) <- parent;
    r.w_n <- r.w_n + 1
  end

let leave_on r =
  let stop = now_ns () in
  let d = r.depth - 1 in
  r.depth <- d;
  let name = r.s_name.(d) in
  let start = r.s_start.(d) in
  let dur = stop - start in
  if d > 0 then r.s_child.(d - 1) <- r.s_child.(d - 1) + dur;
  r.calls.(name) <- r.calls.(name) + 1;
  r.total.(name) <- r.total.(name) + dur;
  r.self.(name) <- r.self.(name) + (dur - r.s_child.(d));
  Hist.add r.hists.(name) dur;
  record r ~name ~start ~stop ~slot:r.s_slot.(d) ~id:r.s_id.(d)
    ~parent:(if d > 0 then r.s_id.(d - 1) else -1)

let[@inline] enter name slot =
  if !enabled then enter_on (Domain.DLS.get key) name slot

let[@inline] leave () = if !enabled then leave_on (Domain.DLS.get key)

let recorders () = Mutex.protect registry_lock (fun () -> !registry)

type agg = { a_calls : int; a_total_ns : int; a_self_ns : int; a_hist : Hist.t }

(* Aggregates for one span name, summed over every domain. *)
let aggregate name =
  let h = Hist.create () in
  let calls, total, self =
    List.fold_left
      (fun (c, t, s) r ->
        Hist.merge_into ~dst:h r.hists.(name);
        (c + r.calls.(name), t + r.total.(name), s + r.self.(name)))
      (0, 0, 0) (recorders ())
  in
  { a_calls = calls; a_total_ns = total; a_self_ns = self; a_hist = h }

(* Total nanoseconds of span [name] recorded on each domain that
   recorded any span: [(domain, ns)] in domain order. *)
let per_domain_total name =
  recorders ()
  |> List.map (fun r -> (r.dom, r.total.(name)))
  |> List.sort compare

(* Chrome trace-event JSON: one process per domain, one thread (track)
   per layer, complete ("X") events in microseconds from the first span. *)
let write_chrome path =
  let rs = List.sort (fun a b -> compare a.dom b.dom) (recorders ()) in
  let t0 =
    List.fold_left
      (fun acc r ->
        let m = ref acc in
        for i = 0 to r.w_n - 1 do
          m := min !m r.w.((i * 6) + 1)
        done;
        !m)
      max_int rs
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  List.iter
    (fun r ->
      sep ();
      Printf.fprintf oc
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"domain %d\"}}"
        r.dom r.dom;
      Array.iteri
        (fun tid layer ->
          sep ();
          Printf.fprintf oc
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
            r.dom tid layer)
        layers;
      for i = 0 to r.w_n - 1 do
        let o = i * 6 in
        let name = r.w.(o) in
        sep ();
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"slot\":%d,\"id\":%d,\"parent\":%d}}"
          names.(name) r.dom layer_of.(name)
          (float_of_int (r.w.(o + 1) - t0) /. 1e3)
          (float_of_int (r.w.(o + 2) - r.w.(o + 1)) /. 1e3)
          r.w.(o + 3) r.w.(o + 4) r.w.(o + 5)
      done)
    rs;
  output_string oc "]}\n";
  close_out oc
