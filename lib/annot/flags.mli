(** Checking flags (LCLint's [+name]/[-name] convention).

    Reproduces the flags the paper relies on: implicit annotations and
    [-allimponly] (Section 6), GC mode (Section 3), the unknown-array-index
    treatment (Section 2), assumed-[out] parameters (Appendix B), and the
    post-paper [+freeoffset]/[+freestatic] extensions (footnote 8).  The
    [guards]/[aliastrack] toggles exist for the ablation experiments. *)

type t = {
  implicit_only_returns : bool;
  implicit_only_globals : bool;
  implicit_only_fields : bool;
  implicit_temp_params : bool;
  implicit_out_params : bool;
  gc_mode : bool;
  indep_array_elements : bool;
  check_null : bool;
  check_def : bool;
  check_alloc : bool;
  check_alias : bool;
  check_use_released : bool;
  free_offset : bool;
  free_static : bool;
  warn_unrecognized_annot : bool;
  guard_refinement : bool;
  alias_tracking : bool;
  infer_constraints : bool;
      (** [+inferconstraints]: run annotation inference before checking *)
  loop_exec : bool;
      (** [+loopexec]: analyse loop bodies to a store fixpoint with
          widening instead of the zero-or-one-times heuristic *)
  loop_iter : int;
      (** [loopiter=N]: iteration bound for the [+loopexec] fixpoint
          before bailing out to the heuristic (default 8) *)
  alloc_model : bool;
      (** [+allocmodel]: path-sensitive allocator-family semantics
          (realloc NULL-branch resurrection, [realloclost]) *)
  xproc : bool;
      (** [+xproc]: consult interprocedural effect summaries at call
          sites whose slot has no explicit or inferred annotation
          (explicit annotations always win) *)
}

val default : t

val allimponly_off : t -> t
(** The paper's [-allimponly] run: no implicit [only] annotations, so
    every transfer of fresh storage surfaces (Section 6). *)

type flag_error = Unknown_flag of string

val apply_all : t -> string list -> (t, flag_error) result

val canonical : t -> string
(** Canonical one-line rendering of a flag record (every field in a
    fixed order).  Equal flag records render identically regardless of
    the command line that produced them; the incremental summary cache
    uses this as the flag component of its keys. *)

val flag_names : string list
(** Every recognized flag name. *)

val suggest : string -> string option
(** The known flag nearest to a mistyped name, when close enough to be a
    plausible typo (used by the CLI's unknown-flag error path). *)
