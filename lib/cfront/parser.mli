(** Recursive-descent parser for the C subset (C89 minus bitfields,
    K&R definitions and the preprocessor, plus LCLint annotations).

    The typedef ambiguity is resolved with a parser-maintained typedef
    table.  Annotation comments are collected as qualifiers in declaration
    position, parsed as globals lists after function signatures, and
    recorded as pragmas (suppression/control comments) elsewhere.  Parse
    errors raise {!Diag.Fatal} with code ["parse"]. *)

type t
(** Parser state. *)

val create : ?spec_mode:bool -> file:string -> Token.t array -> t
(** A parser over a token array ending with [Eof], as {!Lexer.tokenize}
    returns it.  The array is streamed into the parser the way
    {!parse_string} streams the lexer's tokens. *)

val parse_tunit : t -> Ast.tunit
(** Parse a whole translation unit. *)

val parse_topdecl : t -> Ast.topdecl
(** Parse one external declaration (function definition or declaration
    line). *)

val parse_string :
  ?spec_mode:bool -> ?typedefs:string list -> file:string -> string ->
  Ast.tunit
(** Lex and parse a source string, pulling each token from the lexer
    as the parser needs it, so the first fatal error the parser
    reaches is raised, whether a [lex] or a [parse] one.  [typedefs]
    seeds the typedef table (used when checking a module against
    previously loaded interface libraries).  [spec_mode] enables
    bare-word annotations. *)
