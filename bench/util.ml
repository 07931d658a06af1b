(* Shared helpers for the experiment harness: scenario builders, traffic
   drivers and table formatting. *)

open Adaptive_sim
open Adaptive_net
open Adaptive_core

(* All table/figure output funnels through this formatter so the golden
   tests can capture a table byte-for-byte instead of scraping stdout. *)
let out = ref Format.std_formatter

let fprintf fmt = Format.fprintf !out fmt

let with_captured f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let saved = !out in
  out := fmt;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush fmt ();
      out := saved)
    f;
  Buffer.contents buf

(* ------------------------------------------------------------ tables *)

let rule width = fprintf "%s@." (String.make width '-')

let heading title =
  fprintf "@.=== %s@." title;
  rule 72

let row fmt = Format.fprintf !out fmt

let print_shape label ok =
  fprintf "shape: %-58s %s@." label (if ok then "OK" else "MISMATCH")

(* Failed shape checks so far in this process: main.exe exits 1 after
   its experiments when any failed, so every check gates the harness. *)
let shape_failures = ref 0

let shape_check label ok =
  if not ok then incr shape_failures;
  print_shape label ok

(* A check whose inputs are single-shot wall-clock timings prints like
   any other but does not gate: one noisy run on a busy host must not
   fail the harness. *)
let timing_check = print_shape

(* ----------------------------------------------------- harness flags *)

(* Set by main.ml: --jobs N shards the experiments that replicate across
   seeds/schedules (e7, e9, e10) over N domains via FLEET. *)
let jobs = ref 1

(* Set by main.ml: --seeds a,b,c overrides the replication seed list the
   seed-sweeping experiments draw from. *)
let seeds_override : int list option ref = ref None

let replication_seeds () =
  match !seeds_override with
  | Some seeds -> seeds
  | None -> Lab.default_seeds

let parse_seed_list s =
  match
    String.split_on_char ',' s
    |> List.filter (fun tok -> tok <> "")
    |> List.map int_of_string
  with
  | [] -> None
  | seeds -> Some seeds
  | exception Failure _ -> None

(* ------------------------------------------------------- scenarios *)

type pair = {
  stack : Adaptive.stack;
  src : Network.addr;
  dst : Network.addr;
  hops : Link.t list;
}

let make_pair ?(seed = 4242) ?host_cpu hops =
  let stack = Adaptive.create_stack ~seed () in
  let mk () =
    match host_cpu with
    | Some f -> Some (f stack.Adaptive.engine)
    | None -> None
  in
  let src = Adaptive.add_host ?host_cpu:(mk ()) stack "src" in
  let dst = Adaptive.add_host ?host_cpu:(mk ()) stack "dst" in
  Adaptive.connect_hosts stack src dst hops;
  { stack; src; dst; hops }

(* A star topology: one sender, [n] receivers behind a shared access
   link. *)
let make_star ?(seed = 4242) ~receivers () =
  let stack = Adaptive.create_stack ~seed () in
  let src = Adaptive.add_host stack "src" in
  let access =
    Link.create ~name:"access" ~bandwidth_bps:10e6 ~propagation:(Time.us 5)
      ~queue_pkts:256 ~mtu:1500 ()
  in
  let dsts =
    List.init receivers (fun i ->
        let r = Adaptive.add_host stack (Printf.sprintf "r%d" i) in
        let tail =
          Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:256
            ~mtu:1500 ()
        in
        Topology.set_route stack.Adaptive.topology ~src ~dst:r [ access; tail ];
        Topology.set_route stack.Adaptive.topology ~src:r ~dst:src
          [
            Link.create ~bandwidth_bps:10e6 ~propagation:(Time.us 5) ~queue_pkts:256
              ~mtu:1500 ();
          ];
        r)
  in
  (stack, src, dsts, access)

(* --------------------------------------------------------- metrics *)

let goodput_bps stack =
  let u = stack.Adaptive.unites in
  let delivered = Unites.aggregate_total u Unites.Bytes_delivered in
  match Unites.aggregate u Unites.Delivery_latency with
  | Some s when s.Stats.max > 0.0 -> delivered *. 8.0 /. s.Stats.max
  | Some _ | None -> 0.0

let delivered_bytes stack =
  Unites.aggregate_total stack.Adaptive.unites Unites.Bytes_delivered

let total stack m = Unites.aggregate_total stack.Adaptive.unites m

let latency_summary stack =
  Unites.aggregate stack.Adaptive.unites Unites.Delivery_latency

let mbps v = v /. 1e6
