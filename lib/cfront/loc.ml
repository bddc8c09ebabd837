(** Source locations.

    Every token, AST node and diagnostic carries a {!t} identifying the file,
    line and column where it starts.  Lines and columns are 1-based, matching
    the message format of the original LCLint ([file.c:4,12: ...]). *)

type t = {
  file : string;  (** source file name as given to the lexer *)
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
}
[@@deriving eq, ord]
(* The derived [compare] follows the field order: file, line, column. *)

let dummy = { file = "<none>"; line = 0; col = 0 }
let is_dummy l = l.line = 0
let make ~file ~line ~col = { file; line; col }

(** [pp] prints in LCLint style: [file.c:LINE] or [file.c:LINE,COL].
    Column is omitted when 1 to match the paper's message excerpts. *)
let pp ppf t =
  if t.col <= 1 then Fmt.pf ppf "%s:%d" t.file t.line
  else Fmt.pf ppf "%s:%d,%d" t.file t.line t.col

let to_string t = Fmt.str "%a" pp t
