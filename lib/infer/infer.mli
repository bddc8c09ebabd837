(** Interprocedural annotation inference: a bottom-up call-graph
    fixpoint that synthesizes Appendix-B annotations ([only], [notnull],
    [null], [out]) for unannotated pointer slots of defined functions.

    Each candidate annotation is {e probed}: installed into the symbol
    table, the owning function re-checked against a scratch collector,
    and kept only when the body discharges the annotation's obligations
    (no new diagnostics) and — for return-value claims — every observed
    exit state actually exhibits the property.  Accepted annotations
    carry the {!Annot.mark_inferred} provenance bit and are visible to
    callers checked later (and to recursive calls within a strongly
    connected component, which iterates to a fixpoint with conservative
    retraction).  See [docs/inference.md] for the full algorithm. *)

module Ranker = Ranker
(** Candidate sources for the probe engine (name/shape heuristics, the
    exhaustive grid, external suggesters). *)

(** An annotatable interface slot of a function. *)
type slot = Ranker.slot = Sret | Sparam of int

(** One accepted annotation: the Appendix-B keyword [fd_word] on slot
    [fd_slot] of function [fd_fun] (declared at [fd_loc]). *)
type finding = {
  fd_fun : string;
  fd_slot : slot;
  fd_word : string;
  fd_loc : Cfront.Loc.t;
}

type outcome = {
  out_findings : finding list;  (** acceptance order *)
  out_rounds : int;  (** fixpoint rounds across all components *)
  out_sccs : int;  (** strongly connected components visited *)
  out_procedures : int;  (** defined procedures considered *)
  out_probes : int;
      (** candidate decisions made; one already known under the same
          installed signatures runs no check *)
  out_skipped : int;  (** ranked candidates skipped by the probe budget *)
}

val run :
  ?max_rounds:int ->
  ?rankers:Ranker.t list ->
  ?budget:int ->
  Sema.program ->
  outcome
(** Run inference over every defined function.  Mutates the program's
    symbol table: accepted annotations stay installed (marked inferred),
    so a subsequent {!Check.Checker.check_program} checks against them.
    [max_rounds] caps the per-component fixpoint iteration.

    Candidates come from {!Ranker.pipeline} over [rankers] (default
    {!Ranker.default}) and are probed highest-prior-first.  [budget]
    caps {e rejected} probes per function across its component's
    fixpoint: when that many of a function's candidates have failed,
    the remaining lower-ranked tail is skipped in this and every later
    pass (counted in [out_skipped] and the [infer_probes_skipped]
    telemetry counter).  Acceptances never count against the budget.
    Omitted, every ranked candidate is re-probed each round. *)

val render : Sema.program -> outcome -> string
(** One line per function that gained annotations, in source order:
    [file:line: annotated-prototype]. *)

val render_patch :
  Sema.program -> outcome -> read:(string -> string option) -> string
(** A ready-to-apply header patch for the outcome: one unified-diff
    style single-line hunk per newly annotated definition, splicing the
    accepted [/*@word inferred@*/] markers (the [inferred] word records
    machine provenance, so {!strip_annotations} leaves applied patches
    alone) into the definition's opening source line, grouped by file in
    source order.  [read] supplies original
    file contents by name.  Definitions whose opening line cannot be
    respliced (folded signatures) degrade to [# manual:] comment lines
    carrying the annotated prototype. *)

val strip_annotations : string -> string
(** Replace every [/*@...@*/] span in C source with spaces (newlines
    kept, so locations survive).  Used by the benchmark harness and the
    tests to hide hand annotations before re-deriving them.  Spans whose
    word list carries the [inferred] provenance marker are preserved:
    they were produced by a previous inference pass, so stripping and
    re-inferring already-inferred headers stays idempotent. *)
