(** Parallel checking driver (see parcheck.mli for the contract).

    One task per procedure, each a {!Check.Checker.check_fundef}
    against its own overlay of the program, which the domains share
    read-only.

    Scheduling is work-stealing: every task has an [Atomic] claim flag,
    each worker owns a contiguous range of the task array and drains it
    in order, then scans the other ranges from their far end for
    unclaimed tasks ([tasks_stolen] telemetry).  Results land
    positionally, so the returned list is identical for every [jobs]
    value — including [jobs = 1], which runs the same per-task code on
    the calling domain without spawning.

    Worker domains are kept warm in a process-wide pool ({!Pool}) and
    reused across runs ([pool_reuses] telemetry): repeated checking —
    the incremental server, the differential harness, benchmarks — skips
    the domain spawn/teardown cost and keeps per-domain caches (the
    [Sref] intern tables) alive. *)

module Diag = Cfront.Diag

let default_jobs () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* The warm domain pool                                                *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type worker = {
    m : Mutex.t;
    c : Condition.t;  (** signals both job arrival and job completion *)
    mutable job : (unit -> unit) option;
    mutable stop : bool;
    mutable dom : unit Domain.t option;
  }

  (* OCaml caps live domains at 128; leave headroom for transient spawns
     (oversubscribed [-j], nested [map_tasks]) and the main domain. *)
  let max_workers = 63

  let rec worker_loop (w : worker) : unit =
    Mutex.lock w.m;
    while Option.is_none w.job && not w.stop do
      Condition.wait w.c w.m
    done;
    match w.job with
    | Some job ->
        Mutex.unlock w.m;
        (try job () with _ -> () (* jobs capture their own exceptions *));
        Mutex.lock w.m;
        w.job <- None;
        Condition.broadcast w.c;
        Mutex.unlock w.m;
        worker_loop w
    | None -> Mutex.unlock w.m (* stop requested *)

  let lock = Mutex.create ()
  let idle : worker list ref = ref []
  let created = ref 0

  let spawn_worker () =
    let w =
      {
        m = Mutex.create ();
        c = Condition.create ();
        job = None;
        stop = false;
        dom = None;
      }
    in
    w.dom <- Some (Domain.spawn (fun () -> worker_loop w));
    w

  (** Take up to [k] workers: parked ones first (ticking [pool_reuses]
      per reused worker), then fresh spawns up to {!max_workers} total.
      May return fewer than [k]; the caller covers the rest with
      transient domains.  Concurrent or nested acquisitions simply find
      a smaller (possibly empty) stock — never a deadlock. *)
  let acquire (k : int) : worker list =
    Mutex.lock lock;
    let acc = ref [] in
    let taken = ref 0 in
    let continue = ref true in
    while !taken < k && !continue do
      match !idle with
      | w :: rest ->
          idle := rest;
          Telemetry.Counter.tick Telemetry.c_pool_reuses;
          acc := w :: !acc;
          incr taken
      | [] ->
          if !created < max_workers then begin
            incr created;
            acc := spawn_worker () :: !acc;
            incr taken
          end
          else continue := false
    done;
    Mutex.unlock lock;
    !acc

  (** Hand a job to an idle (acquired) worker. *)
  let submit (w : worker) (job : unit -> unit) : unit =
    Mutex.lock w.m;
    w.job <- Some job;
    Condition.broadcast w.c;
    Mutex.unlock w.m

  (** Block until the worker's current job has completed.  The mutex
      handshake orders the job's writes before the caller's subsequent
      reads. *)
  let await (w : worker) : unit =
    Mutex.lock w.m;
    while not (Option.is_none w.job) do
      Condition.wait w.c w.m
    done;
    Mutex.unlock w.m

  (** Park the workers back in the stock (they must be idle). *)
  let release (ws : worker list) : unit =
    Mutex.lock lock;
    List.iter (fun w -> idle := w :: !idle) ws;
    Mutex.unlock lock

  (** Stop and join every parked worker (process exit). *)
  let shutdown () =
    Mutex.lock lock;
    let ws = !idle in
    idle := [];
    Mutex.unlock lock;
    List.iter
      (fun w ->
        Mutex.lock w.m;
        w.stop <- true;
        Condition.broadcast w.c;
        Mutex.unlock w.m;
        Option.iter Domain.join w.dom)
      ws

  let () = at_exit shutdown
end

(* ------------------------------------------------------------------ *)
(* Work-stealing map                                                   *)
(* ------------------------------------------------------------------ *)

let map_tasks ?(oversubscribe = false) ~jobs (n : int) (f : int -> 'a) :
    'a array =
  if n = 0 then [||]
  else begin
    let jobs = max 1 (min jobs n) in
    (* [-j] is an upper bound, not a demand: running more worker domains
       than the machine has cores buys no parallelism and is actively
       hostile to OCaml 5's stop-the-world minor collector (every minor
       collection handshakes with every running domain, and on an
       oversubscribed machine each handshake is a scheduler round-trip).
       Results are positional, so the worker count never changes the
       output.  [oversubscribe] lifts the cap for tests that need the
       pool machinery exercised regardless of the host's core count. *)
    let workers =
      if oversubscribe then jobs
      else max 1 (min jobs (Domain.recommended_domain_count ()))
    in
    if workers <= 1 then Array.init n f
    else begin
      let results = Array.make n None in
      let claimed = Array.init n (fun _ -> Atomic.make false) in
      (* worker [w] owns the contiguous range [lo w, hi w): task order
         is preserved when nothing is stolen, and a steal victimizes the
         far end of another range, away from where its owner is working *)
      let lo w = w * n / workers and hi w = (w + 1) * n / workers in
      let run_range w =
        for i = lo w to hi w - 1 do
          if Atomic.compare_and_set claimed.(i) false true then
            results.(i) <- Some (f i)
        done;
        for d = 1 to workers - 1 do
          let v = (w + d) mod workers in
          for i = hi v - 1 downto lo v do
            if Atomic.compare_and_set claimed.(i) false true then begin
              Telemetry.Counter.tick Telemetry.c_tasks_stolen;
              results.(i) <- Some (f i)
            end
          done
        done
      in
      let helpers = workers - 1 in
      let errors = Array.make helpers None in
      let snapshots = Array.make helpers None in
      let job_for w () =
        (* helper domains may be warm pool workers carrying a previous
           run's recording: start clean, hand the run's telemetry back
           for the caller to merge after the handshake *)
        try
          Telemetry.reset ();
          run_range w;
          snapshots.(w - 1) <- Some (Telemetry.snapshot ())
        with e -> errors.(w - 1) <- Some e
      in
      let pool_ws = Pool.acquire helpers in
      let n_pool = List.length pool_ws in
      List.iteri (fun i w -> Pool.submit w (job_for (i + 1))) pool_ws;
      let transients =
        Array.init (helpers - n_pool) (fun i ->
            Domain.spawn (job_for (n_pool + 1 + i)))
      in
      (* the calling domain is worker 0: it drains its own range (and
         steals) instead of blocking, ticking telemetry directly *)
      let main_exn = (try run_range 0; None with e -> Some e) in
      Array.iter Domain.join transients;
      List.iter Pool.await pool_ws;
      Pool.release pool_ws;
      Array.iter (Option.iter Telemetry.absorb) snapshots;
      (match main_exn with Some e -> raise e | None -> ());
      Array.iter (function Some e -> raise e | None -> ()) errors;
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* every claim flag was won by someone *))
        results
    end
  end

(* ------------------------------------------------------------------ *)
(* Program checking                                                    *)
(* ------------------------------------------------------------------ *)

let task_count (prog : Sema.program) : int = List.length (Sema.fundefs prog)

let check_program ?(jobs = 1) (prog : Sema.program) : Diag.t list =
  Check.Checker.check_program ~map:(fun n f -> map_tasks ~jobs n f) prog
