type t = {
  jobs : int;
  mutex : Mutex.t;
  (* One condition carries both "work arrived" and "a task finished": every
     waiter re-checks its own predicate after waking, so sharing is safe and
     keeps the hot path to a single broadcast. *)
  wakeup : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t array;
  mutable closed : bool;
}

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let worker_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    let rec await () =
      if not (Queue.is_empty t.queue) then begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        Some task
      end
      else if t.closed then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.wakeup t.mutex;
        await ()
      end
    in
    match await () with
    | Some task ->
        task ();
        next ()
    | None -> ()
  in
  next ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wakeup = Condition.create ();
      queue = Queue.create ();
      workers = [||];
      closed = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  let workers =
    locked t (fun () ->
        if t.closed then [||]
        else begin
          t.closed <- true;
          Condition.broadcast t.wakeup;
          let w = t.workers in
          t.workers <- [||];
          w
        end)
  in
  Array.iter Domain.join workers

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_list t thunks =
  match thunks with
  | [] -> []
  | _ when t.jobs = 1 && not t.closed -> List.map (fun f -> f ()) thunks
  | _ ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      (* Tracing context is captured once at submission: spans opened inside
         a task parent to whatever span was open here, whichever domain the
         task lands on. 0 (no span / tracing off) makes the wrapper free. *)
      let span_ctx = Raqo_obs.Trace.current () in
      (* Each slot is written once, by whichever domain ran the task; the
         submitter only reads a slot after the mutex-protected [remaining]
         counter reached zero, which orders the writes before the reads. *)
      let results : ('a, exn) result option array = Array.make n None in
      let remaining = ref n in
      let task i () =
        let r =
          match Raqo_obs.Trace.with_context span_ctx thunks.(i) with
          | v -> Ok v
          | exception e -> Error e
        in
        results.(i) <- Some r;
        locked t (fun () ->
            decr remaining;
            Condition.broadcast t.wakeup)
      in
      locked t (fun () ->
          if t.closed then invalid_arg "Pool.run_list: pool is shut down";
          for i = 0 to n - 1 do
            Queue.push (task i) t.queue
          done;
          Condition.broadcast t.wakeup);
      (* Help: the submitter drains queued tasks (its own batch's or, when
         nested, anyone's) instead of blocking a domain doing nothing. *)
      let rec help () =
        Mutex.lock t.mutex;
        if !remaining = 0 then Mutex.unlock t.mutex
        else if not (Queue.is_empty t.queue) then begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          task ();
          help ()
        end
        else begin
          (* Queue empty but tasks still in flight on workers: wait for a
             completion (or for nested work to appear). *)
          Condition.wait t.wakeup t.mutex;
          Mutex.unlock t.mutex;
          help ()
        end
      in
      help ();
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false)
           results)

let parallel_map t f xs = run_list t (List.map (fun x () -> f x) xs)
