(** Differential soundness oracle: fuzz the static checker against the
    run-time baseline.

    A {e trial} generates a seeded program ({!Progen}), runs both
    engines and classifies every divergence.  The oracle's contract is
    the paper's soundness claim restricted to its declared blind spots
    (footnote 8 and Section 7): a run-time error with no static witness
    is a {e soundness gap} unless its error class is a declared blind
    spot; a static diagnostic on a clean program is a {e precision
    regression}; a crash or unsupported-construct abort in either
    engine is a {e harness bug}.

    Divergent trials feed a delta-debugging reducer (drop modules, then
    functions, then statements, re-validating the divergence after
    every candidate edit) whose minimized reproducers — source plus a
    JSON triage record — are checked into [test/regressions/] and
    replayed by the test suite. *)

(** {1 Trials} *)

type trial = {
  t_seed : int;
  t_modules : int;
  t_fns : int;
  t_bugs : Progen.bug_kind list;  (** empty = clean (precision) trial *)
  t_coverage : float;
  t_max_steps : int;
}

val trial_of_seed : int -> trial
(** Deterministic trial parameters for one fuzz seed: sweeps module
    counts, bug mixes and driver coverage; every fourth seed is a clean
    program probing for precision regressions. *)

(** {1 Divergence taxonomy} *)

type divergence_kind =
  | Soundness_gap  (** run-time error with no static witness *)
  | Blind_spot  (** gap the paper declares and we pin with tests *)
  | Precision_regression  (** static diagnostic on a clean program *)
  | Harness_bug  (** crash / unsupported abort / baseline miss *)

val kind_string : divergence_kind -> string

type finding = {
  f_kind : divergence_kind;
  f_class : string;  (** {!Rtcheck.Heap.error_class} vocabulary *)
  f_file : string;  (** file the divergence anchors to *)
  f_detail : string;
}

val pp_finding : Format.formatter -> finding -> unit

(** A declared blind spot: an error class the static checker misses by
    design, with the flag that recovers it (when one exists) and the
    regression test pinning the miss. *)
type blind_spot = {
  bs_class : string;
  bs_recover : string option;  (** flag restoring detection, if any *)
  bs_cite : string;  (** test pinning the miss, ["file: suite/case"] *)
}

val blind_spots : Annot.Flags.t -> blind_spot list
(** The classes excused under [flags]: [free-offset] / [free-static]
    unless their recovery flags are set, [global-leak] always, the
    loop-carried [loop-leak] / [loop-use-after-free] /
    [loop-null-deref] classes unless [+loopexec] is set, plus the
    out-of-scope [bounds] and [bad-arg] classes. *)

(** {1 Classification} *)

type verdict = {
  v_findings : finding list;  (** deduplicated by (kind, class, file) *)
  v_static_reports : int;
  v_dynamic_errors : int;
  v_dynamic_leaks : int;
}

val classify :
  ?flags:Annot.Flags.t -> ?max_steps:int -> ?oom_fail:int -> Progen.program ->
  verdict
(** Run both engines over [p] and classify the divergences.  Engine
    exceptions and unsupported-construct aborts become [Harness_bug]
    findings rather than escaping; step/error-limit aborts are expected
    terminations and the errors observed before the cut-off still
    count.

    [oom_fail] forces heap allocation request #n to fail on the dynamic
    side (the fault-injection sweep).  On such runs, end-of-run leaks
    are assessed only when the program still exited 0 — a run that
    bailed out of the injected failure legitimately leaves its held
    blocks behind — and the seeded-metadata cross-check is skipped,
    since its expectations describe ordinary executions. *)

type outcome = { o_trial : trial; o_verdict : verdict }

val sweep :
  ?jobs:int -> ?flags:Annot.Flags.t -> trial list -> outcome list
(** Run independent trials on a {!Parcheck.map_tasks} domain pool;
    results are positional, so the output is identical for every
    [jobs]. *)

val gaps : outcome list -> finding list
(** Soundness gaps, precision regressions and harness bugs across a
    sweep — everything except excused blind spots. *)

val run_trial_oom :
  ?flags:Annot.Flags.t -> ?limit:int -> trial -> (int * verdict) list
(** Generate a trial's program and classify it once per heap
    allocation request with that request forced to fail ([limit] caps
    the schedule); the request count comes from a baseline run, so the
    schedule covers every reached site. *)

val oom_gaps : (int * verdict) list -> finding list
(** Everything except excused blind spots, across an OOM sweep. *)

(** {1 Reduction} *)

val reduce :
  ?flags:Annot.Flags.t -> ?max_steps:int -> ?budget:int ->
  key:finding -> Progen.program -> Progen.program
(** Greedy delta debugging: drop whole modules, then whole functions,
    then single statements, keeping an edit only if the program still
    classifies with a finding matching [key] on (kind, class, file) and
    surfaces no divergence absent from the original program (a shrink
    must not wander onto a different bug).
    [budget] caps re-validation runs (default 400); the input program
    is returned unchanged if it does not itself exhibit [key]. *)

(** {1 Regression corpus} *)

val render_repro : Progen.program -> string
(** One concatenated source text with [/* === file: <name> === */]
    markers, the on-disk format of [test/regressions/*.c]. *)

val parse_repro : string -> (string * string) list
(** Inverse of {!render_repro}. *)

val write_regression :
  dir:string -> name:string -> trial:trial -> finding -> Progen.program ->
  unit
(** Write [<dir>/<name>.c] (the minimized program) and
    [<dir>/<name>.json] (the triage record: trial parameters, the
    divergence key, seeded-bug metadata, and for blind spots the
    recovery flag and citing test). *)

type replayed = {
  r_name : string;
  r_expected : finding;  (** the divergence key from the triage record *)
  r_recover : string option;  (** blind spot's recovery flag, if any *)
  r_verdict : verdict;  (** fresh classification of the reproducer *)
  r_matched : bool;  (** key still present in [r_verdict] *)
}

val replay : ?flags:Annot.Flags.t -> string -> (replayed, string) result
(** Replay one [<name>.c] reproducer (its [.json] sibling supplies the
    expected key and the seeded-bug metadata); [Error] on unreadable or
    malformed artifacts. *)
