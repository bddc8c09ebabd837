(** The annotated C standard library.

    The paper's Section 4 gives the key specifications:

    {v
    null out only void *malloc (size_t size);
    void free (null out only void *ptr);
    char *strcpy (out returned unique char *s1, char *s2);
    v}

    "There is nothing special about malloc and free — their behavior can be
    described entirely in terms of the provided annotations."

    This module carries those specifications (and the rest of the library
    the corpus needs) as an annotated header, loaded into a program
    environment before user code is analysed. *)

let size_t_decl = "typedef unsigned long size_t;\n"

(** The library source, parsed by the normal frontend. *)
let source =
  size_t_decl
  ^ {|
/* --- common constants (no preprocessor: defined as enumerators) --- */
enum { FALSE = 0, TRUE = 1, EXIT_SUCCESS = 0, EXIT_FAILURE = 1, EOF = -1 };

/* --- memory management (paper, Section 4) --- */
extern /*@null@*/ /*@out@*/ /*@only@*/ void *malloc(size_t size);
extern /*@null@*/ /*@only@*/ void *calloc(size_t nmemb, size_t size);
extern /*@null@*/ /*@out@*/ /*@only@*/ void *aligned_alloc(size_t alignment, size_t size);
extern /*@null@*/ /*@only@*/ void *realloc(/*@null@*/ /*@only@*/ void *ptr, size_t size);
extern /*@null@*/ /*@only@*/ void *reallocarray(/*@null@*/ /*@only@*/ void *ptr, size_t nmemb, size_t size);
extern void free(/*@null@*/ /*@out@*/ /*@only@*/ void *ptr);

/* --- program termination --- */
extern /*@exits@*/ void exit(int status);
extern /*@exits@*/ void abort(void);

/* --- string functions --- */
extern char *strcpy(/*@out@*/ /*@returned@*/ /*@unique@*/ char *s1, char *s2);
extern char *strncpy(/*@out@*/ /*@returned@*/ /*@unique@*/ char *s1, char *s2, size_t n);
extern char *strcat(/*@returned@*/ /*@unique@*/ char *s1, char *s2);
extern char *strncat(/*@returned@*/ /*@unique@*/ char *s1, char *s2, size_t n);
extern int strcmp(char *s1, char *s2);
extern int strncmp(char *s1, char *s2, size_t n);
extern size_t strlen(char *s);
extern /*@null@*/ /*@exposed@*/ char *strchr(/*@returned@*/ char *s, int c);
extern /*@null@*/ /*@exposed@*/ char *strrchr(/*@returned@*/ char *s, int c);
extern /*@null@*/ /*@exposed@*/ char *strstr(/*@returned@*/ char *haystack, char *needle);
extern /*@null@*/ /*@only@*/ char *strdup(char *s);

/* --- memory block functions --- */
extern void *memcpy(/*@out@*/ /*@returned@*/ /*@unique@*/ void *dest, void *src, size_t n);
extern void *memmove(/*@out@*/ /*@returned@*/ void *dest, void *src, size_t n);
extern void *memset(/*@out@*/ /*@returned@*/ void *s, int c, size_t n);
extern int memcmp(void *s1, void *s2, size_t n);

/* --- stdio (a FILE is an abstract shared object) --- */
struct _iobuf { int _dummy; };
typedef struct _iobuf FILE;
extern /*@dependent@*/ FILE *stdin;
extern /*@dependent@*/ FILE *stdout;
extern /*@dependent@*/ FILE *stderr;
extern int printf(char *format, ...);
extern int fprintf(/*@temp@*/ FILE *stream, char *format, ...);
extern int sprintf(/*@out@*/ /*@unique@*/ char *str, char *format, ...);
extern int puts(char *s);
extern int putchar(int c);
extern int getchar(void);
extern /*@null@*/ /*@dependent@*/ FILE *fopen(char *path, char *mode);
extern int fclose(/*@only@*/ FILE *stream);
extern int fgetc(/*@temp@*/ FILE *stream);
extern /*@null@*/ char *fgets(/*@out@*/ /*@returned@*/ char *s, int size, /*@temp@*/ FILE *stream);
extern int fputs(char *s, /*@temp@*/ FILE *stream);
extern size_t fread(/*@out@*/ void *ptr, size_t size, size_t nmemb, /*@temp@*/ FILE *stream);
extern size_t fwrite(void *ptr, size_t size, size_t nmemb, /*@temp@*/ FILE *stream);

/* --- stdlib misc --- */
extern int atoi(char *nptr);
extern long atol(char *nptr);
extern double atof(char *nptr);
extern int abs(int j);
extern int rand(void);
extern void srand(unsigned int seed);
extern /*@null@*/ /*@observer@*/ char *getenv(char *name);

/* --- assert --- */
extern void assert(int expression);
|}

(** A program environment pre-loaded with the standard library.
    [flags] control implicit-annotation interpretation of *user* code; the
    library itself is fully annotated so flags do not change its meaning
    (its unannotated pointer returns, e.g. [strcpy], rely on [returned]).

    Library declarations are tagged with file ["<stdlib>"]. *)
let environment ?(flags = Annot.Flags.default) () : Sema.program =
  let prog = Sema.create_program ~flags ~file:"<stdlib>" () in
  ignore (Sema.analyze_string ~flags ~into:prog ~file:"<stdlib>" source);
  (* the standard library must itself be annotation-clean *)
  prog

(** The program loader (see stdspec.mli), in the order the paper's
    modular checking sees interfaces (Sections 6 and 7). *)
let load ?(flags = Annot.Flags.default) ?(no_stdlib = false)
    ?(libs = Seq.empty) ?(specs = Seq.empty) ?parse sources : Sema.program =
  let prog =
    if no_stdlib then Sema.create_program ~flags ~file:"<none>" ()
    else environment ~flags ()
  in
  Seq.iter
    (fun (file, text) ->
      ignore (Check.Libspec.load ~flags ~into:prog ~file text))
    libs;
  Seq.iter
    (fun (file, text) ->
      ignore (Sema.analyze_spec_string ~flags ~into:prog ~file text))
    specs;
  Seq.iter
    (fun (file, text) ->
      ignore (Sema.analyze_string ~flags ?parse ~into:prog ~file text))
    sources;
  prog

(** Check a source string against the standard library. *)
let check ?(flags = Annot.Flags.default) ~file src : Check.result =
  Check.run_program (load ~flags (Seq.return (file, src)))
