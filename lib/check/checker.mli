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
    redirects messages away from [prog.diags] (inference probes, the
    drivers' per-procedure results); [exit_obs] is called at every
    reachable exit with the raw state (summary extraction); [summaries]
    supplies interprocedural effect summaries, consulted at unannotated
    call-site slots when the program's flags enable [+xproc] (pass the
    {!Summary.of_program} table; without it [+xproc] has no effect on
    this procedure).

    A body sees the interfaces and its own declarations only (paper,
    Sections 3 and 7): it is checked against its own
    {!Sema.for_check} overlay of [prog], which takes its block-scope
    declarations and inline tags, and what sema reports while checking
    it (a block-scope redeclaration, an unknown type name) joins this
    procedure's messages in emission order.  [prog] is only read, so
    concurrent checks may share it. *)

val check_program :
  ?map:(int -> (int -> Cfront.Diag.t list) -> Cfront.Diag.t list array) ->
  Sema.program -> Cfront.Diag.t list
(** Check every function defined in the program, one {!check_fundef}
    per {!Sema.fundefs} entry, and return the checker's diagnostics in
    definition order.  [map n f] runs [f 0 .. f (n-1)] and returns the
    results positionally (default: in order on the calling domain;
    [Parcheck.check_program] passes its domain pool).  Computes the
    {!Summary} table first when the program's flags enable [+xproc].
    [prog.diags] is untouched: combine with [Check.finish]. *)
