(** Source locations (file, 1-based line and column). *)

type t = { file : string; line : int; col : int }

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order by file, then line, then column. *)

val dummy : t
(** A placeholder location ([line = 0]); see {!is_dummy}. *)

val is_dummy : t -> bool
val make : file:string -> line:int -> col:int -> t

val pp : Format.formatter -> t -> unit
(** LCLint style: [file.c:LINE] or [file.c:LINE,COL] (column omitted when
    1, matching the paper's message excerpts). *)

val to_string : t -> string
