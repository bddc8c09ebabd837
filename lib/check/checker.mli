(** The memory checker: per-procedure abstract interpretation driven by
    interface annotations (paper, Sections 2 and 5).

    Properties reproduced from the paper: each function is checked
    independently against the annotations of what it calls; loops are
    analysed as executing zero or one times (no fixpoints); guard
    refinements track null tests (including [truenull]/[falsenull]);
    confluence points merge branch states and report irreconcilable ones;
    parameters are modelled as a local variable aliasing the externally
    visible reference ([l] vs [argl]).

    Diagnostics accumulate in the program's collector; most callers want
    the {!Check} facade instead. *)

(** Raw abstract state at one procedure exit, observed before the exit
    checks replace anomalous states with error markers.  Annotation
    inference abstracts these observations into per-procedure summaries. *)
type exit_info = {
  xi_loc : Cfront.Loc.t;
  xi_ret : (State.nullstate * State.allocstate) option;
      (** the returned value's states, when a pointer value is returned *)
  xi_params : (State.defstate * State.allocstate) array;
      (** externally visible view of each parameter, by index *)
}

val check_fundef :
  ?diags:Cfront.Diag.Collector.t ->
  ?exit_obs:(exit_info -> unit) ->
  ?summaries:Summary.table ->
  Sema.program -> Sema.funsig -> Cfront.Ast.fundef -> unit
(** Check one function definition against its interface.  [diags]
    redirects messages to a scratch collector (inference probes);
    [exit_obs] is called at every reachable exit with the raw state
    (summary extraction); [summaries] supplies interprocedural effect
    summaries, consulted at unannotated call-site slots when the
    program's flags enable [+xproc] (pass the {!Summary.of_program}
    table; without it [+xproc] has no effect on this procedure). *)

(** {1 The task plan}

    Every whole-program driver checks through one plan, so the way
    procedures are grouped and scheduled never changes a diagnostic. *)

type task =
  | Proc of (Sema.funsig * Cfront.Ast.fundef)
      (** reads the program in place; safe to share across domains *)
  | File of (Sema.funsig * Cfront.Ast.fundef) list
      (** a whole file, checked in order against one
          {!Sema.copy_for_check} copy *)

val task_procs : task -> (Sema.funsig * Cfront.Ast.fundef) list
(** The procedures a task checks, in order. *)

val plan :
  ?replaced:Cfront.Ast.fundef list ->
  Sema.program -> (Sema.funsig * Cfront.Ast.fundef) list -> task array
(** [plan prog defs] plans the checking of [defs], a definition-order
    subset of [Sema.fundefs prog].  A file holding one of [defs] is
    checked whole, as a [File] task in place of its first procedure,
    when any of its current bodies, or any of the [replaced] bodies
    (what an in-place edit swapped out) of that file, can register
    declarations ({!Ir.mutates_env}); each other procedure is a [Proc]
    task.  Costs O([defs] + definitions of the files holding them) once
    {!Sema.fundefs_in}'s index is built. *)

val check_task :
  ?summaries:Summary.table -> Sema.program -> task -> Cfront.Diag.t list list
(** Check one task; one diagnostic list per {!task_procs} entry.  A
    [File] task's copy collects what sema reports while checking (a
    block-scope redeclaration, an unknown type name) as well, and that
    too joins the result of the procedure being checked.  A [Proc] task
    only reads the program; a [File] task writes only its copy. *)

val check_program :
  ?map:(int -> (int -> Cfront.Diag.t list) -> Cfront.Diag.t list array) ->
  Sema.program -> Cfront.Diag.t list
(** Plan and check every function defined in the program and return the
    checker's diagnostics in plan order.  [map n f] runs [f 0 .. f (n-1)]
    and returns the results positionally (default: in order on the
    calling domain; [Parcheck.check_program] passes its domain pool).
    Computes the {!Summary} table first when the program's flags enable
    [+xproc].  [prog.diags] is untouched: combine with [Check.finish]. *)
