(* A fixed-size pool of OCaml 5 domains executing opaque jobs from a
   shared queue. Hand-rolled on Domain/Mutex/Condition (the toolchain has
   no domainslib): workers block on a condition variable when idle, so a
   parked pool costs nothing but the OS threads.

   The submitting domain is itself one of the execution lanes: [run_all]
   enqueues the jobs, then drains the queue alongside the workers and
   finally blocks until its own batch is complete. A pool of width [n]
   therefore spawns only [n - 1] workers, and width 1 degenerates to
   plain sequential execution with no spawned domain at all. Jobs must be
   self-contained — in particular they must not submit to the same
   pool. *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
}

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue do
    Condition.wait t.nonempty t.m
  done;
  let job = Queue.pop t.queue in
  Mutex.unlock t.m;
  job ();
  worker_loop t

let create ~domains =
  let t =
    { m = Mutex.create (); nonempty = Condition.create (); queue = Queue.create () }
  in
  for _ = 2 to domains do
    ignore (Domain.spawn (fun () -> worker_loop t))
  done;
  t

let run_all t jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
      (* completion is tracked per batch, so concurrent [run_all] calls on
         a shared pool each wait for exactly their own jobs *)
      let done_m = Mutex.create () in
      let done_cv = Condition.create () in
      let pending = ref (List.length jobs) in
      let wrap job () =
        (* jobs are expected to capture their own exceptions; a leak here
           must not strand the batch, so completion is signalled
           unconditionally *)
        (try job () with _ -> ());
        Mutex.lock done_m;
        decr pending;
        if !pending = 0 then Condition.signal done_cv;
        Mutex.unlock done_m
      in
      Mutex.lock t.m;
      List.iter (fun j -> Queue.push (wrap j) t.queue) jobs;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m;
      (* the caller works the queue too: with [domains = n] there are
         exactly n lanes of execution, and a 1-worker pool cannot deadlock
         waiting for itself *)
      let rec help () =
        Mutex.lock t.m;
        if Queue.is_empty t.queue then Mutex.unlock t.m
        else begin
          let job = Queue.pop t.queue in
          Mutex.unlock t.m;
          job ();
          help ()
        end
      in
      help ();
      Mutex.lock done_m;
      while !pending > 0 do
        Condition.wait done_cv done_m
      done;
      Mutex.unlock done_m

(* Process-wide shared pools, one per width, never shut down: tests create
   many short-lived servers, and a pool per server would accumulate OS
   threads, so everyone asking for the same width shares one pool for the
   life of the process. *)
let shared_m = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  let domains = max 1 domains in
  Mutex.lock shared_m;
  let t =
    match Hashtbl.find_opt shared_pools domains with
    | Some t -> t
    | None ->
        let t = create ~domains in
        Hashtbl.replace shared_pools domains t;
        t
  in
  Mutex.unlock shared_m;
  t
