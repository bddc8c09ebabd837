(** Candidate rankers: pluggable sources of scored annotation
    candidates for {!Infer}.  A ranker only {e proposes} — every
    candidate is still probed (installed, re-checked, gated) by the
    sound verification core, so a bad ranker costs probes, never
    soundness.  See [docs/inference.md] for the pipeline semantics. *)

(** An annotatable interface slot of a function (re-exported by
    {!Infer} as [Infer.slot]). *)
type slot = Sret | Sparam of int

val equal_slot : slot -> slot -> bool

(** A scored proposal: Appendix-B word [rc_word] on slot [rc_slot],
    with prior confidence [rc_prior] in [0, 1].  Higher priors are
    probed first. *)
type candidate = { rc_slot : slot; rc_word : string; rc_prior : float }

(** A ranker: maps a function (current signature plus, when the
    function is defined, its body) to candidates.  The signature seen
    is the {e live} symbol-table entry, so annotations accepted earlier
    in the bottom-up pass are already visible. *)
type t = {
  rk_name : string;
  rk_rank :
    Sema.program ->
    Sema.funsig ->
    Cfront.Ast.fundef option ->
    candidate list;
}

val grid : t
(** The exhaustive candidate grid the original engine probed, at a
    uniform low prior: [out]/[only]/[null] per pointer parameter and
    [only]/[notnull] on a pointer return.  Alone (and unbudgeted) it
    reproduces the legacy exhaustive behavior, probe for probe. *)

val names : t
(** Naming-convention heuristics: a [create]/[new]/[make]/[dup]/
    [clone]/[copy]/[alloc] affix token proposes an [only] return; a
    [free]/[destroy]/[release]/[dispose]/[del]/[drop]/[kill] affix
    token proposes [only] on a sole pointer parameter.  Matching is by
    whole ['_']-separated token (trailing digits stripped), so
    [recreate_buffer] and [freelist_pop] do not fire. *)

val shapes : t
(** Body-shape heuristics: stores-only parameters propose [out],
    unconditionally dereferenced parameters propose [notnull],
    demonstrably null-tolerant parameters propose [null]; functions
    returning fresh allocations propose an [only] return, with
    [notnull] when the allocation failure path provably exits and
    [null] when the wrapper passes NULL through. *)

val of_spec : name:string -> string -> (t, string) result
(** Parse an external-suggester file ([-ranker-spec FILE]): one
    candidate per line, [function slot word [prior]], where slot is
    [ret] or [paramN] ([pN] accepted), word is an inferable Appendix-B
    keyword and the optional prior defaults to 0.95.  [#] starts a
    comment.  [Error msg] on the first malformed line. *)

val default : t list
(** [names; shapes; grid] — heuristics first, the exhaustive grid as
    the low-prior tail. *)

val pipeline :
  t list ->
  Sema.program ->
  Sema.funsig ->
  Cfront.Ast.fundef option ->
  candidate list
(** Merge the rankers' candidates: drop those the signature no longer
    admits (a non-pointer slot, a refcount-qualified or exposed one, a
    filled category, or [out] beside [only] on one parameter), coalesce
    duplicate (slot, word) proposals keeping the highest prior, and
    sort highest-prior-first (ties in grid order: parameters by index
    with [out]/[only]/[null], then the return).  Deterministic for a
    given signature, body and ranker list. *)
