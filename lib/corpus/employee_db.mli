(** The Section 6 employee database, reconstructed stage by stage.

    [stage n] is the program after fix batch [n] (0 = unannotated); the
    check of each stage reproduces the paper's iteration exactly — see the
    module implementation and test/test_corpus.ml for the mapping of runs
    to the paper's prose. *)

type file = { name : string; text : string }

val stage : int -> file list
(** The program after fix batch [n], as per-module files. *)

val max_stage : int
(** The final stage (clean under the paper's flags). *)

val line_count : int -> int
(** Total source lines of a stage. *)

val load : ?flags:Annot.Flags.t -> int -> Sema.program
(** Analyse all modules of a stage, in order, into one environment over
    the annotated standard library ({!Stdspec.load}). *)

val check : ?flags:Annot.Flags.t -> int -> Check.result
(** {!load} a stage, then check it. *)

(** Anomaly counts by the paper's categories. *)
type counts = {
  c_null : int;
  c_def : int;
  c_alloc : int;
  c_alias : int;
  c_other : int;
  c_total : int;
}

val categorize : Check.result -> counts

val paper_flags : Annot.Flags.t
(** The flags Section 6 uses: [-allimponly]. *)

val annotations_added : int -> (string * int) list
(** Annotation comments added at stage [n] relative to stage 0, counted by
    word ([null]/[out]/[only]/[unique]). *)
