(** Source locations (file, 1-based line and column). *)

type t = { file : string; line : int; col : int }

type span = { l : t; r : t }
(** A half-open region of source text. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp_span : Format.formatter -> span -> unit
val show : t -> string
val show_span : span -> string
val equal_span : span -> span -> bool
val compare_span : span -> span -> int

val dummy : t
(** A placeholder location ([line = 0]); see {!is_dummy}. *)

val is_dummy : t -> bool
val make : file:string -> line:int -> col:int -> t
val span : t -> t -> span

val pp : Format.formatter -> t -> unit
(** LCLint style: [file.c:LINE] or [file.c:LINE,COL] (column omitted when
    1, matching the paper's message excerpts). *)

val to_string : t -> string

val compare_pos : t -> t -> int
(** Total order by file, then line, then column. *)
