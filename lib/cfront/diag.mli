(** Diagnostics in LCLint's two-part message shape: a primary line plus
    indented notes pointing at contributing program points (paper,
    Section 4, footnote 3). *)

type severity = Err | Warn | Info

type note = { nloc : Loc.t; ntext : string }

type t = {
  loc : Loc.t;
  severity : severity;
  code : string;
      (** stable machine-readable identifier (["nullderef"], ["mustfree"],
          ...) used by tests, suppression accounting and the flag system *)
  text : string;
  notes : note list;
  proc : string option;
      (** procedure whose check produced the message, when known *)
  inferred : bool;
      (** the producing check consulted an inference-synthesized annotation *)
}

val note : loc:Loc.t -> string -> note
val make :
  ?severity:severity -> ?notes:note list -> ?proc:string -> ?inferred:bool ->
  loc:Loc.t -> code:string -> string -> t

val category : t -> string

val to_json : ?suppressed:bool -> t -> Telemetry.Json.t
(** The machine-readable record emitted by [olclint -json]: an object
    with [file]/[line]/[column]/[severity]/[category]/[code]/[message]/
    [suppressed]/[inferred]/[notes] fields, plus [procedure] when the
    message came from a procedure check (docs/diagnostics.md documents
    the schema). *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Faithful inverse of {!to_json} (the derived [category]/[suppressed]
    fields are ignored); the incremental summary cache uses this to
    restore persisted per-function diagnostics. *)

val to_string : t -> string
(** Renders the primary line and its indented notes. *)

(** Accumulates diagnostics in emission order. *)
module Collector : sig
  type diag := t
  type t

  val create : unit -> t
  val emit : t -> diag -> unit
  val all : t -> diag list

  val sort_emission : diag list -> diag list
  (** Canonical emission order for the CLI: (file, line, column, code),
      stable beyond that — deterministic and diffable no matter how many
      files were given or how checking was parallelized. *)

end

exception Fatal of t
(** Raised for unrecoverable conditions (lexer/parser errors). *)

val fatal :
  ?notes:note list -> loc:Loc.t -> code:string ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format a message and raise {!Fatal}. *)
