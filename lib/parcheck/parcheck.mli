(** Parallel checking driver: run the per-procedure checker over a
    program on a pool of OCaml 5 domains ([olclint -j N]).

    One task per procedure, each a {!Check.Checker.check_fundef}: a body
    checks against its own {!Sema.for_check} overlay of the post-sema
    program, which the domains share read-only.
    Tasks are scheduled by work-stealing (per-task atomic claim flags
    over contiguous per-worker ranges) on a process-wide pool of warm
    worker domains that is reused across runs; each worker records
    telemetry locally and the recordings are merged back
    ({!Telemetry.absorb}) before returning.

    {b Determinism guarantee.}  The returned diagnostics — contents and
    order — are identical for every [jobs] value: the task list depends
    only on the input program, each task's result depends only on that
    program and the task's own overlay, and results are
    concatenated in task order regardless of which domain ran what.
    [jobs = 1] runs the same per-task code on the calling domain
    without spawning anything, exactly as {!Check.Checker.check_program}
    does. *)

val default_jobs : unit -> int
(** {!Domain.recommended_domain_count} — what [-j 0] resolves to. *)

val map_tasks :
  ?oversubscribe:bool -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_tasks ~jobs n f] evaluates [f i] for [i = 0..n-1] on at most
    [jobs] concurrent domains (the calling domain counts as one and
    works too) and returns the results positionally, so the output never
    depends on domain scheduling.  [jobs] is an upper bound twice over:
    it is clamped to the task count and to the machine's core count
    ({!Domain.recommended_domain_count}) — extra domains beyond the
    cores buy no parallelism and tax every minor collection, and the
    positional results make the worker count unobservable in the
    output.  [oversubscribe] (default [false]) lifts the core-count
    clamp for tests that must exercise the pool machinery on any host.
    Helper domains come from the warm pool when available
    ([pool_reuses] telemetry) and are parked again afterwards; tasks
    left unclaimed in one worker's range are stolen by idle workers
    ([tasks_stolen]).  Tasks may run concurrently, so [f] must not
    write state another task reads.  Worker telemetry recordings are
    merged into the caller before returning.  Reused by the
    differential-testing harness and the incremental server. *)

val task_count : Sema.program -> int
(** Number of tasks {!check_program} runs for this program: one per
    function definition (benchmark reporting). *)

val check_program : ?jobs:int -> Sema.program -> Cfront.Diag.t list
(** {!Check.Checker.check_program} on at most [jobs] (default 1)
    concurrent domains: the same diagnostics in the same order for
    every [jobs] value.  Frontend/sema diagnostics already collected in
    the program are untouched (still in [prog.diags]); {!Check.finish}
    combines, sorts and splits them for output. *)
