(** The annotated C standard library (paper, Section 4):

    {v
    null out only void *malloc (size_t size);
    void free (null out only void *ptr);
    char *strcpy (out returned unique char *s1, char *s2);
    v}

    "There is nothing special about malloc and free — their behavior can
    be described entirely in terms of the provided annotations." *)

val source : string
(** The library as annotated C (comment-form annotations). *)

val environment : ?flags:Annot.Flags.t -> unit -> Sema.program
(** A program environment pre-loaded with the standard library. *)

val load :
  ?flags:Annot.Flags.t ->
  ?no_stdlib:bool ->
  ?libs:(string * string) Seq.t ->
  ?specs:(string * string) Seq.t ->
  ?parse:(typedefs:string list -> file:string -> string -> Cfront.Ast.tunit) ->
  (string * string) Seq.t ->
  Sema.program
(** The program loader, the one way every tool builds a program from
    (name, text) pairs: the standard library ({!environment}; an empty
    program when [no_stdlib]), then the interface libraries [libs]
    ({!Check.Libspec.load}), then the LCL specifications [specs], then the
    [sources] in order through {!Sema.analyze_string}, each parsed under
    the typedef names declared before it.  [parse] replaces the parser for
    the sources (see {!Sema.analyze_string}).

    Each sequence is forced one element at a time, after the previous
    element was analysed, so a caller that reads files inside the
    sequence gets the first failure in order: a parse error
    ({!Cfront.Diag.Fatal}) in an earlier file wins over an unreadable
    later one ([Sys_error]), and the other way round. *)

val check : ?flags:Annot.Flags.t -> file:string -> string -> Check.result
(** Parse and check one source string against the standard library, with
    the emission step of {!Check.finish}: the entry point for the paper's
    examples and the library's tests. *)
