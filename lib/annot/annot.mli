(** The annotation language (paper, Section 4 and Appendix B): categories,
    parsing from [/*@...@*/] comment text, per-category override rules, and
    cross-category compatibility.

    "At most one annotation in any category can be used on a given
    declaration" (Appendix B). *)

module Flags = Flags

(** Null-pointer annotations. *)
type null_annot = Null | NotNull | RelNull

(** Definition annotations. *)
type def_annot = Out | In | Partial | RelDef

(** Allocation annotations. *)
type alloc_annot = Only | Keep | Temp | Owned | Dependent | Shared

(** Exposure annotations. *)
type expose_annot = Observer | Exposed

(** A parsed annotation set as attached to one declaration. *)
type set = {
  an_null : null_annot option;
  an_def : def_annot option;
  an_alloc : alloc_annot option;
  an_expose : expose_annot option;
  an_unique : bool;
  an_returned : bool;
  an_truenull : bool;
  an_falsenull : bool;
  an_exits : bool;
  an_undef : bool;  (** globals-list only *)
  an_killed : bool;  (** globals-list only *)
  an_refcounted : bool;  (** the reference-count extension ([3]) *)
  an_newref : bool;
  an_killref : bool;
  an_tempref : bool;
  an_inferred : bool;
      (** provenance: set was (partly) synthesized by annotation inference,
          not declared in source; {!to_words} never renders it *)
}

val empty : set
val is_empty : set -> bool

val mark_inferred : set -> set
(** Stamp the inference-provenance bit (see {!type-set}). *)

val is_inferred : set -> bool

type parse_error = { pe_loc : Cfront.Loc.t; pe_text : string }

val of_annots : Cfront.Ast.annot list -> set * parse_error list
(** Interpret raw annotation comments as one declaration's set; duplicate
    categories and unknown words come back as errors. *)

val override : base:set -> decl:set -> set
(** Layer a declaration's annotations over its typedef's: per category the
    declaration wins (the [notnull]-overrides-[null] rule, Section 4). *)

val check_compat : set -> string option
(** First incompatible combination, if any ("certain combinations of
    annotations are incompatible and will produce static errors"). *)

type slot =
  | Sparam of string  (** a parameter, by name *)
  | Sreturn of string  (** the return value of the named function *)

val validate : slot:slot -> set -> string option
(** Slot-sensitive validity: the reference-count words are directional,
    so [newref] on a parameter and [killref]/[tempref] on a return slot
    are rejected with a message naming the slot. *)

val to_words : set -> string list
(** Canonical word list (the interface-library writer's form). *)
