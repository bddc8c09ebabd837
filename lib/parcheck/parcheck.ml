(** Parallel checking driver (see parcheck.mli for the contract).

    The unit of work is one {e procedure}: checking a procedure whose
    body cannot mutate the shared program environment ({!Ir.mutates_env})
    reads the post-sema program strictly read-only, so those tasks run
    against the original program shared across domains — no
    {!Sema.copy_for_check} per task.  The few procedures that {e can}
    mutate the environment (block-scope [typedef]/[extern], inline
    tag-registering types) keep the old granularity: their whole file is
    one task checked against a private copy, at every [jobs] value, so
    within-file symbol visibility matches the previous driver exactly.

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
module Flags = Annot.Flags

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

let map_tasks ?(oversubscribe = false) ~jobs (n : int)
    (f : par:bool -> int -> 'a) : 'a array =
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
    if workers <= 1 then Array.init n (fun i -> f ~par:false i)
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
            results.(i) <- Some (f ~par:true i)
        done;
        for d = 1 to workers - 1 do
          let v = (w + d) mod workers in
          for i = hi v - 1 downto lo v do
            if Atomic.compare_and_set claimed.(i) false true then begin
              Telemetry.Counter.tick Telemetry.c_tasks_stolen;
              results.(i) <- Some (f ~par:true i)
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

(* Group (funsig, fundef) pairs by defining file, preserving the source
   order of files and of procedures within a file. *)
let tasks_of_program (prog : Sema.program) :
    (string * (Sema.funsig * Cfront.Ast.fundef) list) array =
  let tbl : (string, (Sema.funsig * Cfront.Ast.fundef) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun ((fs : Sema.funsig), _ as pair) ->
      let file = fs.Sema.fs_loc.Cfront.Loc.file in
      match Hashtbl.find_opt tbl file with
      | Some cell -> cell := pair :: !cell
      | None ->
          Hashtbl.add tbl file (ref [ pair ]);
          order := file :: !order)
    (Sema.fundefs prog);
  Array.of_list
    (List.rev_map
       (fun file -> (file, List.rev !(Hashtbl.find tbl file)))
       !order)

type check_task =
  | Proc of Sema.funsig * Cfront.Ast.fundef
      (** shares the program read-only across domains *)
  | File of (Sema.funsig * Cfront.Ast.fundef) list
      (** checked in order against a private {!Sema.copy_for_check} *)

(* A file whose procedures can mutate the environment stays one task
   (private copy, old granularity and old within-file visibility);
   everything else fans out per procedure.  The rule depends only on the
   input program — never on [jobs] — so every [-j] value schedules the
   same task list. *)
let check_tasks (prog : Sema.program) : check_task array =
  tasks_of_program prog |> Array.to_list
  |> List.concat_map (fun (_file, fds) ->
         if List.exists (fun (_, f) -> Ir.mutates_env f) fds then [ File fds ]
         else List.map (fun (fs, f) -> Proc (fs, f)) fds)
  |> Array.of_list

let task_count (prog : Sema.program) : int = Array.length (check_tasks prog)

let check_program ?(jobs = 1) (prog : Sema.program) : Diag.t list =
  let tasks = check_tasks prog in
  (* [+xproc]: derive the effect-summary table bottom-up over the call
     graph BEFORE fanning out — the SCC fixpoint is inherently
     sequential (callees before callers), and precomputing it leaves the
     per-procedure tasks reading the finished table strictly read-only,
     so the work-stealing schedule stays free to run procedures in any
     order while every [-j] value consults identical summaries. *)
  let summaries =
    if prog.Sema.flags.Flags.xproc then Some (Summary.of_program prog)
    else None
  in
  let run_task ~par:_ i =
    let coll = Diag.Collector.create () in
    (match tasks.(i) with
    | Proc (fs, f) ->
        Check.Checker.check_fundef ~diags:coll ?summaries prog fs f
    | File fds ->
        (* the copy guards the shared tables against this task's own
           mutations (concurrent or not: [-j 1] takes the same path so
           diagnostics cannot depend on the job count) *)
        let local = Sema.copy_for_check prog in
        List.iter
          (fun (fs, f) ->
            Check.Checker.check_fundef ~diags:coll ?summaries local fs f)
          fds);
    Diag.Collector.all coll
  in
  let results = map_tasks ~jobs (Array.length tasks) run_task in
  List.concat (Array.to_list results)
