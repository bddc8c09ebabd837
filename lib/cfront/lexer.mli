(** Hand-written lexer for the C subset.

    Ordinary comments are discarded; annotation comments ([/*@...@*/])
    become {!Token.kind.Annot} tokens; preprocessor lines are skipped (the
    corpus is macro-free, mirroring LCLint's operation on preprocessed
    source).  Lexical errors raise {!Diag.Fatal}. *)

type t
(** Lexer state over one in-memory source buffer. *)

val create : file:string -> string -> t

val next : t -> Token.t
(** The next token; returns an [Eof]-kinded token at end of input. *)

val tokenize : file:string -> string -> Token.t list
(** Tokenize the whole input.  The result always ends with [Eof]. *)
