(** Top-level checking API.

    [run ~file src] performs the whole pipeline the paper describes: parse
    (annotations included), extract interfaces, check every function body
    against the interface annotations, then apply stylized-comment
    suppression.  Diagnostics come back in canonical emission order
    (source position, then code), as the CLI prints them. *)

module State = State
module Sref = Sref
module Store = Store
module Checker = Checker
module Suppress = Suppress
module Libspec = Libspec
module Errclass = Errclass

open Cfront
module Flags = Annot.Flags

type result = {
  program : Sema.program;
  reports : Diag.t list;  (** kept diagnostics, in emission order *)
  suppressed : Diag.t list;  (** diagnostics silenced by stylized comments *)
}

(** The one emission step: frontend/sema messages, suppression-table
    errors and the checker's diagnostics, in canonical emission order,
    split by the suppression table.  [prog.diags] is only read. *)
let finish (prog : Sema.program) (check_diags : Diag.t list) :
    Diag.t list * Diag.t list =
  let table, errs = Suppress.of_pragmas prog.Sema.p_pragmas in
  List.iter
    (fun d ->
      Telemetry.count (Telemetry.diag_counter_prefix ^ Diag.category d) 1)
    errs;
  Suppress.filter table
    (Diag.Collector.sort_emission
       (Diag.Collector.all prog.Sema.diags @ errs @ check_diags))

(** Check every body of an analysed program, through the emission step. *)
let run_program (program : Sema.program) : result =
  let reports, suppressed = finish program (Checker.check_program program) in
  { program; reports; suppressed }

(** Parse and check a source string.  [into] lets callers pre-load
    interface libraries (see {!Libspec}) so the unit is checked
    modularly. *)
let run ?(flags = Flags.default) ?into ~file (src : string) : result =
  run_program (Sema.analyze_string ~flags ?into ~file src)
