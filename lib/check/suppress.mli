(** Message suppression via stylized comments (paper, Sections 2 and 7):
    [/*@i@*/] silences the current line; [/*@ignore@*/] ... [/*@end@*/]
    silences a region. *)

type t
(** A suppression table built from the parser's free-standing pragmas. *)

val of_pragmas : Cfront.Ast.annot list -> t * Cfront.Diag.t list
(** Build the table; unmatched [ignore]/[end] pairs come back as
    diagnostics (code ["suppress"]). *)

val filter : t -> Cfront.Diag.t list -> Cfront.Diag.t list * Cfront.Diag.t list
(** Partition diagnostics into (kept, suppressed). *)
