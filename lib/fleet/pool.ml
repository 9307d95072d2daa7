exception Fuel_exhausted
exception Timed_out
exception Cancelled

type budget = {
  fuel : int option;
  deadline : float option;  (* absolute, Unix.gettimeofday *)
  cancel : (unit -> bool) option;
  mutable used : int;
}

(* [n] units at once: the cancel hook is polled whenever [used]
   crosses a multiple of 256 and the deadline a multiple of 1024, so
   ticking one unit at a time polls on every 256th and 1024th unit. *)
let tick b n =
  let before = b.used in
  let used = before + n in
  b.used <- used;
  (match b.fuel with
  | Some f when used > f -> raise Fuel_exhausted
  | _ -> ());
  (match b.cancel with
  | Some cancelled when before lsr 8 <> used lsr 8 && cancelled () ->
    raise Cancelled
  | _ -> ());
  match b.deadline with
  | Some d when before lsr 10 <> used lsr 10 && Unix.gettimeofday () > d ->
    raise Timed_out
  | _ -> ()

let run_guarded ?fuel ?timeout_ms ?cancel f x =
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
      timeout_ms
  in
  let b = { fuel; deadline; cancel; used = 0 } in
  match
    (* A task already cancelled when its slot comes up never starts. *)
    match cancel with
    | Some cancelled when cancelled () -> raise Cancelled
    | _ -> f b x
  with
  | v -> Ok v
  | exception Fuel_exhausted ->
    Error
      (Printf.sprintf "fuel exhausted after %d ticks" (Option.get fuel))
  | exception Timed_out ->
    Error (Printf.sprintf "timed out after %dms" (Option.get timeout_ms))
  | exception Cancelled -> Error "cancelled"
  | exception e -> Error (Printexc.to_string e)

let run_sequential ?fuel ?timeout_ms ?cancel f xs =
  List.map (run_guarded ?fuel ?timeout_ms ?cancel f) xs

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable alive : bool;
  mutable workers : unit Domain.t list;
}

(* Workers drain the queue even after [stop] is raised, so a shutdown
   never abandons submitted work; they exit once the queue is empty
   and the stop flag is up. Tasks never raise: [map] wraps each in
   its own result slot. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ~jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Fleet.Pool.create: jobs must be >= 1 (got %d)" jobs);
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stop = false;
      alive = true;
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = List.length t.workers

let check_alive t fn =
  if not t.alive then invalid_arg ("Fleet.Pool." ^ fn ^ ": pool is shut down")

let map ?fuel ?timeout_ms ?cancel t f xs =
  check_alive t "map";
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n (Error "task never ran") in
    let remaining = ref n in
    let all_done = Condition.create () in
    let task i () =
      results.(i) <- run_guarded ?fuel ?timeout_ms ?cancel f items.(i);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work_available;
    while !remaining > 0 do
      Condition.wait all_done t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.to_list results
  end

let shutdown t =
  if t.alive then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.alive <- false
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
