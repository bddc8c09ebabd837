(** Top-level checking API: parse (annotations included), extract
    interfaces, check every function body, apply stylized-comment
    suppression.  Diagnostics come back in canonical emission order
    (source position, then code), as the CLI prints them. *)

module State = State
module Sref = Sref
module Store = Store
module Checker = Checker
module Suppress = Suppress
module Libspec = Libspec
module Errclass = Errclass
module Flags = Annot.Flags

type result = {
  program : Sema.program;
  reports : Cfront.Diag.t list;  (** kept diagnostics, emission order *)
  suppressed : Cfront.Diag.t list;  (** silenced by stylized comments *)
}

val finish :
  Sema.program -> Cfront.Diag.t list -> Cfront.Diag.t list * Cfront.Diag.t list
(** [finish prog check_diags] is the emission step every driver shares:
    the frontend/sema messages in [prog.diags], the errors of the
    suppression table built from [prog]'s pragmas, and [check_diags],
    sorted with {!Cfront.Diag.Collector.sort_emission} and split into
    (kept, suppressed).  The table's errors are counted in telemetry but
    never added to [prog.diags], so a long-lived program can be
    finished once per request. *)

val run_program : Sema.program -> result
(** Check every body of an analysed program ({!Checker.check_program})
    and split the diagnostics with {!finish}. *)

val run : ?flags:Flags.t -> ?into:Sema.program -> file:string -> string -> result
(** Parse and check a source string ({!Sema.analyze_string}).  [into]
    pre-loads interface libraries (see {!Libspec}) for modular
    checking. *)
