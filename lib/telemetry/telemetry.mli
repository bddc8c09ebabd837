(** Pipeline observability: per-phase timers, counters and hierarchical
    spans, with near-zero overhead when disabled.

    Every stage of the checking pipeline (lex, parse, sema, per-procedure
    check, interpretation) wraps its work in {!with_span}; hot paths bump
    {!Counter.t} handles.  All hooks first test a single [bool ref] — when
    telemetry is off (the default) an instrumented call costs one load and
    one branch, no clock reads, no allocation — so instrumentation can
    stay in release builds, exactly like LCLint's own [-stats] style
    accounting.

    Timers use the wall clock; elapsed times are clamped at zero so a
    clock step backwards can never produce a negative (non-monotonic)
    phase time.  The recorder is {e domain-local}: every domain (the main
    one and each [-j] worker) accumulates spans and counter values into
    its own state, and the parallel driver merges worker recordings into
    the main domain with {!snapshot}/{!absorb} after joining them.
    Counter handles are registered in one shared (mutex-guarded) table so
    the per-domain value slots line up across domains.  The reporters
    ({!counters}, {!pp_stats}, {!to_json}, …) read the calling domain's
    state — call them on the main domain after absorbing.
    {!set_enabled} must only be toggled while no worker domains run.

    {!Json} re-exports the hand-rolled JSON encoder shared by the
    [-json] diagnostic records and {!to_json}. *)

module Json = Json

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop the calling domain's recorded spans and zero its counters
    (registrations survive). *)

(** {1 Cross-domain merge} *)

type snapshot
(** A domain's complete recording (span forest + counter values). *)

val snapshot : unit -> snapshot
(** Capture the calling domain's recording (does not clear it).  A [-j]
    worker calls this as its last act; the result is joined back to the
    main domain. *)

val absorb : snapshot -> unit
(** Merge a snapshot into the calling domain: counter values add up,
    the snapshot's root spans are appended to the local forest.  Works
    even while telemetry is disabled (a disabled run's snapshot is
    empty, so this is then a no-op in effect). *)

(** {1 Spans} *)

(** A completed span: a named, timed region of the pipeline.  [sp_file]
    carries the source file a phase worked on; [sp_label] an optional
    fine-grained tag (the procedure name for per-procedure check
    spans). *)
type span = {
  sp_name : string;
  sp_file : string option;
  sp_label : string option;
  sp_secs : float;
  sp_children : span list;  (** completion order *)
}

val with_span : ?file:string -> ?label:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records it as a child of the
    innermost open span (or as a root).  Exceptions close the span and
    propagate.  When disabled this is exactly [f ()]. *)

val now : unit -> float
(** The wall clock the spans are timed with, in seconds. *)

val record_span : ?file:string -> string -> float -> unit
(** [record_span name secs] records a phase its caller has already
    timed, as a completed childless span of [secs] seconds (clamped at
    zero) under the innermost open span (or as a root).  For work too
    finely interleaved with another phase to wrap in {!with_span}: the
    parser times each token pull and records the sum as the lex phase.
    When disabled this does nothing. *)

val spans : unit -> span list
(** Completed root spans, in completion order. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) the counter named [name].  Call once at
      module initialization and keep the handle: {!tick} on a handle is
      branch-plus-increment, no table lookup. *)

  val tick : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

val count : string -> int -> unit
(** Dynamic-name counting (one table lookup when enabled); used for
    open-ended families like per-category diagnostic counts. *)

val counters : unit -> (string * int) list
(** Every registered counter with a non-zero value, sorted by name. *)

(** {1 Well-known names}

    The pipeline's standard phase and counter names, shared by the
    instrumentation sites and the reporters. *)

val phase_lex : string
val phase_parse : string
val phase_sema : string
val phase_infer : string
val phase_check : string
val phase_interp : string

val c_tokens : Counter.t
val c_ast_nodes : Counter.t
val c_procedures : Counter.t
val c_store_ops : Counter.t

val c_store_ops_elided : Counter.t
(** Store writes skipped because the new refstate was indistinguishable
    from the existing binding (see docs/performance.md). *)

val c_srefs_interned : Counter.t
(** Distinct storage references hash-consed by the checker's [Sref]
    intern table (fresh entries only; hits are free). *)

val c_infer_rounds : Counter.t
(** Fixpoint rounds executed by the annotation-inference pass. *)

val c_infer_summaries : Counter.t
(** Per-procedure summaries (re)computed during inference. *)

val c_infer_annots : Counter.t
(** Annotations accepted (installed) by inference. *)

val c_infer_candidates : Counter.t
(** Candidates produced by the ranker pipeline (counted at every
    generation, so re-ranking after an acceptance counts again). *)

val c_infer_probes_skipped : Counter.t
(** Ranked candidates never probed because the per-function probe
    budget ([-infer-budget]) was exhausted first. *)

val c_suppressed : Counter.t
(** Diagnostics silenced by stylized suppression comments. *)

val c_difftest_trials : Counter.t
(** Differential trials executed (one trial = one generated program
    through both engines). *)

val c_difftest_findings : Counter.t
(** Divergences recorded by the differential oracle (all kinds,
    blind spots included). *)

val c_difftest_checks : Counter.t
(** Re-validation runs performed by the delta-debugging reducer. *)

val c_loop_fixpoint_iters : Counter.t
(** Loop-body re-analyses performed by the [+loopexec] fixpoint engine
    (one tick per iteration of any loop's fixpoint computation). *)

val c_loop_widenings : Counter.t
(** Fixpoint rounds whose widened loop-entry store changed (i.e. the
    back edge contributed new abstract states). *)

val c_loop_bailouts : Counter.t
(** Loops whose fixpoint failed to converge within the [-loopiter]
    bound and fell back to the zero-or-one-times heuristic. *)

val c_incr_hits : Counter.t
(** Incremental-service summary-cache hits: functions whose cached check
    result was reused (validated in place or adopted from a persisted
    cache by key). *)

val c_incr_misses : Counter.t
(** Incremental-service summary-cache misses: functions whose cached
    result could not be validated and had to be scheduled for
    re-checking. *)

val c_incr_invalidations : Counter.t
(** Cache entries dropped by explicit [invalidate] requests or by a
    changed source file / flag set. *)

val c_incr_rechecked : Counter.t
(** Functions actually re-checked by the incremental service (misses
    that were not satisfied by the persisted key cache). *)

val c_incr_validated : Counter.t
(** Incremental-service cache entries whose validity a request tested:
    every function on a full revalidation, only the swapped-in bodies
    and the callers of a moved summary on a patched request, none on a
    clean one. *)

val c_oom_injections : Counter.t
(** Heap allocation requests forced to fail by the runtime checker's
    OOM fault-injection schedule. *)

val c_tasks_stolen : Counter.t
(** Per-procedure checking tasks a parallel worker claimed from another
    worker's range after draining its own (the work-stealing driver). *)

val c_pool_reuses : Counter.t
(** Warm worker domains reused from the persistent checking pool
    instead of being spawned (one tick per reused worker per run). *)

val c_summary_funcs : Counter.t
(** Functions given an interprocedural effect summary ([+xproc]). *)

val c_summary_rounds : Counter.t
(** Fixpoint rounds over call-graph SCCs during summary propagation. *)

val c_summary_top : Counter.t
(** Summaries forced to ⊤ (recursive components that failed to converge
    within the round bound, or bodies with opaque control flow). *)

val c_summary_consults : Counter.t
(** Call-site slots where the checker consulted a callee summary
    because no explicit or inferred annotation was present. *)

val c_summary_clashes : Counter.t
(** [summaryclash] diagnostics: a computed summary contradicting an
    explicit annotation. *)

val diag_counter_prefix : string
(** Diagnostic counts are recorded as [diag.<category>]. *)

val registered_counters : unit -> string list
(** Every counter name registered so far (fixed handles and any dynamic
    names seen), sorted; the doc-drift gate compares this against the
    counter table in docs/diagnostics.md. *)

(** {1 Reports} *)

(** One row of the per-file per-phase aggregation. *)
type phase_row = {
  ph_file : string;
  ph_phase : string;
  ph_calls : int;
  ph_secs : float;
}

val phase_rows : unit -> phase_row list
(** Aggregate every recorded span by (file, name), ordered by first
    appearance of the file and the pipeline order of phases. *)

val pp_stats : Format.formatter -> unit -> unit
(** Human summary: counters, total time per phase, and the slowest
    labelled spans (procedures). *)

val pp_timings : Format.formatter -> unit -> unit
(** Per-file per-phase table of {!phase_rows}. *)

val to_json : unit -> Json.t
(** The whole recording — phases, counters and the span forest — as one
    JSON object (the benchmark harness writes this as
    [BENCH_phases.json]). *)
