open Adaptive_sim

type state = Opening | Established | Closing | Closed

type t = {
  mutable scheme : Params.connection;
  mutable state : state;
  mutable pending : int list; (* peers whose answer is awaited *)
  mutable retries : int; (* request timeouts so far *)
  mutable syn_timer : Engine.Timer.timer option;
  mutable fin_timer : Engine.Timer.timer option;
}

(* A connection request is retried this many times, one [initial_rto]
   apart, before the initiator gives up. *)
let max_retries = 5

let create scheme =
  { scheme; state = Opening; pending = []; retries = 0; syn_timer = None; fin_timer = None }

let rebind t scheme = t.scheme <- scheme
let state t = t.state
let pending t = t.pending
let accept t = t.state <- Established

let start t ~peers =
  match t.scheme with
  | Params.Implicit -> false
  | Params.Two_way | Params.Three_way ->
    t.pending <- peers;
    true

let invite t peer =
  if t.pending = [] then t.retries <- 0;
  t.pending <- peer :: t.pending

let forget t peer =
  t.pending <- List.filter (fun p -> p <> peer) t.pending;
  if t.pending <> [] then false
  else begin
    Option.iter Engine.Timer.cancel t.syn_timer;
    t.syn_timer <- None;
    true
  end

let await_answer t engine ~initial_rto handler x =
  t.syn_timer <- Engine.Timer.restart engine t.syn_timer ~delay:initial_rto handler x

type timeout = Resend | Give_up

(* The timer runs only while some peer is pending: [forget] and [release]
   stop it. *)
let request_timeout t =
  t.retries <- t.retries + 1;
  if t.retries > max_retries then Give_up else Resend

let answered t ~from = forget t from

let confirms t = t.scheme = Params.Three_way

let establish t =
  if t.state <> Opening then false
  else begin
    t.state <- Established;
    true
  end

let closing t = t.state <- Closing

let await_fin_ack t engine ~rto handler x =
  t.fin_timer <- Engine.Timer.restart engine t.fin_timer ~delay:rto handler x

let release t =
  let was_live = t.state <> Closed in
  t.state <- Closed;
  Option.iter Engine.Timer.cancel t.syn_timer;
  Option.iter Engine.Timer.cancel t.fin_timer;
  t.syn_timer <- None;
  t.fin_timer <- None;
  was_live
