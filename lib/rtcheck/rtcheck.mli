(** Run-time memory checking — the dynamic baseline of the paper's
    comparison (dmalloc, mprof, Purify; Section 1).

    [run] interprets a program on the instrumented heap and reports the
    errors observed on the executed path, an end-of-run leak report with
    global-reachability marking, and an mprof-style allocation profile. *)

module Layout = Layout
module Heap = Heap
module Interp = Interp

(** Why a run stopped before the program exited.  The limit cases are
    expected terminations under a resource budget; [Aunsupported] means
    the interpreter gave up on a construct — the differential oracle
    treats only the latter as a harness bug.  Errors detected before the
    cut-off are still reported in [errors]. *)
type abort =
  | Astep_limit of string  (** [max_steps] exhausted *)
  | Aerror_limit of string  (** [max_errors] exhausted *)
  | Aunsupported of string  (** unsupported construct / harness failure *)

type result = {
  errors : Heap.error list;  (** detection order *)
  leaks : Heap.leak list;  (** live heap blocks at exit *)
  output : string;  (** collected stdout *)
  exit_code : int option;  (** [None] when the run was aborted *)
  aborted : abort option;
  steps : int;
  heap_allocs : int;
  heap_frees : int;
  alloc_requests : int;
      (** heap allocation requests seen, including any injected failure;
          sizes an OOM fault-injection sweep *)
  profile : (Cfront.Loc.t * Heap.site_stats) list;  (** heaviest first *)
}

val run :
  ?entry:string -> ?max_steps:int -> ?max_errors:int -> ?oom_fail:int ->
  Sema.program -> result
(** Interpret [prog] from [entry] (default ["main"]); [max_steps] bounds
    execution so looping programs terminate.  [oom_fail] forces heap
    allocation request #n (1-based) to fail once — OOM fault injection
    for the out-of-memory paths static checking reasons about. *)

val pp_summary : Format.formatter -> result -> unit
val pp_profile : Format.formatter -> result -> unit
