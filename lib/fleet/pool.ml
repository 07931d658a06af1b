(* Bounded work-queue domain pool.

   One mutex guards the queue and every future's cell; workers and
   awaiters block on two condition variables (queue activity, future
   completion).  Campaign tasks are coarse — whole simulation runs, tens
   of milliseconds each — so a single coarse lock costs nothing
   measurable and keeps the memory model obvious: every write to a
   future happens-before the await that reads it, via the mutex. *)

type 'a state = Pending | Value of 'a | Error of exn * Printexc.raw_backtrace

type 'a future = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

type task = Task : 'a future * (unit -> 'a) -> task

type t = {
  p_jobs : int;
  p_bound : int;
  p_mutex : Mutex.t;
  p_nonempty : Condition.t; (* queue gained work or closed *)
  p_nonfull : Condition.t; (* queue lost work *)
  p_queue : task Queue.t;
  mutable p_closed : bool;
  mutable p_domains : unit Domain.t list;
}

let fill fut result =
  Mutex.lock fut.f_mutex;
  fut.f_state <- result;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_mutex

let run_task (Task (fut, thunk)) =
  let result =
    match thunk () with
    | v -> Value v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  fill fut result

let worker t () =
  let rec loop () =
    Mutex.lock t.p_mutex;
    while Queue.is_empty t.p_queue && not t.p_closed do
      Condition.wait t.p_nonempty t.p_mutex
    done;
    match Queue.take_opt t.p_queue with
    | Some task ->
      Condition.signal t.p_nonfull;
      Mutex.unlock t.p_mutex;
      run_task task;
      loop ()
    | None ->
      (* closed and drained *)
      Mutex.unlock t.p_mutex
  in
  loop ()

let create ~jobs () =
  if jobs <= 0 then invalid_arg "Pool.create: jobs must be positive";
  let t =
    {
      p_jobs = jobs;
      p_bound = 4 * jobs;
      p_mutex = Mutex.create ();
      p_nonempty = Condition.create ();
      p_nonfull = Condition.create ();
      p_queue = Queue.create ();
      p_closed = false;
      p_domains = [];
    }
  in
  if jobs > 1 then
    t.p_domains <- List.init jobs (fun _ -> Domain.spawn (worker t));
  t

let submit t thunk =
  let fut =
    { f_mutex = Mutex.create (); f_cond = Condition.create (); f_state = Pending }
  in
  let task = Task (fut, thunk) in
  if t.p_jobs <= 1 then begin
    if t.p_closed then invalid_arg "Pool.submit: pool is shut down";
    run_task task
  end
  else begin
    Mutex.lock t.p_mutex;
    while Queue.length t.p_queue >= t.p_bound && not t.p_closed do
      Condition.wait t.p_nonfull t.p_mutex
    done;
    if t.p_closed then begin
      Mutex.unlock t.p_mutex;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.add task t.p_queue;
    Condition.signal t.p_nonempty;
    Mutex.unlock t.p_mutex
  end;
  fut

let await fut =
  Mutex.lock fut.f_mutex;
  while (match fut.f_state with Pending -> true | _ -> false) do
    Condition.wait fut.f_cond fut.f_mutex
  done;
  let state = fut.f_state in
  Mutex.unlock fut.f_mutex;
  match state with
  | Value v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown t =
  Mutex.lock t.p_mutex;
  let domains = t.p_domains in
  t.p_closed <- true;
  t.p_domains <- [];
  Condition.broadcast t.p_nonempty;
  Condition.broadcast t.p_nonfull;
  Mutex.unlock t.p_mutex;
  List.iter Domain.join domains

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
