(** Synthetic C program generation (deterministic in [seed]).

    Stands in for Section 7's 100k-line self-check subject: sized clean
    programs with the same structural mix (abstract types with
    create/destroy/accessor/worker functions, annotated interfaces, a
    driver), plus controlled bug seeding for the static-vs-run-time
    detection experiments. *)

(** The seeded bug classes (Section 7's residual-bug discussion plus the
    classes both tools aim at). *)
type bug_kind =
  | Bleak
  | Buse_after_free
  | Bdouble_free
  | Bnull_deref  (** hides on the malloc-failure path *)
  | Buse_undef
  | Bfree_offset  (** static misses by default (footnote 8) *)
  | Bfree_static  (** static misses by default (footnote 8) *)
  | Bglobal_leak  (** invisible to the intraprocedural checker *)
  | Bloop_leak  (** alloc per iteration, freed once after the loop *)
  | Bloop_use_after_free  (** released in the body, used across the back edge *)
  | Bloop_null_deref  (** re-nulled mid-loop, dereferenced next iteration *)
  | Brealloc_lost
      (** [p = realloc(p, n)] — lost exactly when the allocation fails;
          caught statically under [+allocmodel] *)
  | Boom_leak  (** held storage leaked on an allocation-failure bail path *)
  | Brefcount_leak  (** [newref] return with no reference behind it *)
  | Brefcount_use
      (** a stashed uncounted borrow outlives the counted reference *)
  | Bxproc_callee_free
      (** an unannotated helper frees its parameter, the caller reads it
          afterwards; caught statically only under [+xproc] *)
  | Bxproc_callee_free_df
      (** an unannotated helper frees its parameter, the caller frees it
          again; caught under [+xproc] *)
  | Bxproc_cond_release
      (** an unannotated helper frees its parameter on one branch, the
          caller frees unconditionally; caught under [+xproc] *)
  | Bxproc_escape_store
      (** an unannotated helper stashes its parameter in a global, the
          caller frees then reads it back; caught under [+xproc] *)

val all_bug_kinds : bug_kind list
val bug_kind_string : bug_kind -> string

val loop_carried : bug_kind -> bool
(** Needs a loop back edge to manifest — invisible to the paper's
    zero-or-one-times heuristic, statically detectable only under
    [+loopexec]. *)

type seeded = {
  sb_kind : bug_kind;
  sb_module : int;
  sb_fn : string;
  sb_executed : bool;  (** does the generated driver call the carrier? *)
}

val sb_file : seeded -> string
(** The file carrying a seeded bug (["m<N>.c"]). *)

type program = {
  files : (string * string) list;  (** (name, text), dependency order *)
  seeded : seeded list;
  loc : int;  (** total source lines *)
}

val of_files : ?seeded:seeded list -> (string * string) list -> program
(** Rebuild a program around an edited file set (the reduction hook used
    by the difftest shrinker); [seeded] entries whose module file is
    gone are dropped, [loc] is recomputed. *)

val expected_static : flags:Annot.Flags.t -> bug_kind -> bool
(** Should the static checker flag this bug class under [flags]?
    [false] exactly for the declared blind spots: [Bfree_offset] /
    [Bfree_static] / [Bloop_*] / [Brealloc_lost] / [Bxproc_*] without
    their recovery flags, and [Bglobal_leak] / [Brefcount_use]
    always. *)

val expected_dynamic : executed:bool -> bug_kind -> [ `Error | `Leak | `Nothing ]
(** What the run-time baseline observes: a heap error, an end-of-run
    leak, or nothing (unexecuted carriers, and the null dereference that
    hides on the untaken malloc-failure path). *)

val generate :
  ?seed:int -> ?modules:int -> ?fns_per_module:int -> ?annotated:bool ->
  ?rich:bool -> ?bugs:bug_kind list -> ?coverage:float -> unit -> program
(** Generate a program.  [bugs] are assigned to modules round-robin;
    [coverage] is the fraction of bug carriers the driver executes.
    [rich] (with [annotated]) additionally declares the properties the
    generated bodies already prove — [notnull] on unconditionally
    dereferenced parameters and never-null allocating returns — the
    fuller ground truth the inference benchmark strips and re-derives;
    default output is byte-identical to [rich:false]. *)

val analyse : ?flags:Annot.Flags.t -> program -> Sema.program
(** Parse and analyse into a fresh stdlib environment. *)

val static_check : ?flags:Annot.Flags.t -> program -> Check.result

val dynamic_check :
  ?flags:Annot.Flags.t -> ?max_steps:int -> ?oom_fail:int -> program ->
  Rtcheck.result
(** [max_steps] bounds the interpreter (the fuzzer's [-timeout-steps]);
    [oom_fail] forces heap allocation request #n to fail once (the OOM
    injection sweep). *)
