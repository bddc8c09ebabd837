(** A reference-counted string table: the corpus program for the
    reference-count extension the paper cites from the LCLint guide [3]
    ("Additional annotations provided for handling reference counted
    storage ...").

    The same program exercises both checkers: statically, the
    [refcounted]/[newref]/[killref]/[tempref] annotations are verified;
    dynamically, the count field is real arithmetic and the final
    [rstr_release] genuinely frees, so the interpreter's leak report
    confirms balance. *)

(** The annotated implementation (one translation unit). *)
let source =
  {|/* refstrings.c -- reference-counted shared strings */

typedef /*@refcounted@*/ struct _rstr {
  int count;
  /*@null@*/ /*@only@*/ char *text;
} rstr;

/*@newref@*/ /*@notnull@*/ rstr *rstr_create(char *text)
{
  rstr *r = (rstr *) malloc(sizeof(rstr));
  if (r == NULL) {
    exit(EXIT_FAILURE);
  }
  r->count = 1;
  r->text = strdup(text);
  return r;
}

/*@newref@*/ /*@notnull@*/ rstr *rstr_ref(/*@tempref@*/ rstr *r)
{
  r->count = r->count + 1;
  return r;
}

void rstr_release(/*@killref@*/ rstr *r)
{
  r->count = r->count - 1;
  if (r->count == 0) {
    if (r->text != NULL) {
      free(r->text);
    }
    free(r);
  }
}

int rstr_length(/*@tempref@*/ rstr *r)
{
  if (r->text == NULL) {
    return 0;
  }
  return (int) strlen(r->text);
}
|}

(** A balanced client: every reference is released; the interpreter
    confirms zero leaks. *)
let client_balanced =
  {|int main(void)
{
  rstr *a = rstr_create("shared text");
  rstr *b = rstr_ref(a);
  int n;
  n = rstr_length(b);
  rstr_release(a);
  n = n + rstr_length(b);
  rstr_release(b);
  printf("%d\n", n);
  return 0;
}
|}

(** A leaking client: the second reference is never released.  The static
    checker flags the unreleased reference; the interpreter's leak report
    shows the surviving block. *)
let client_leaky =
  {|int main(void)
{
  rstr *a = rstr_create("shared text");
  rstr *b = rstr_ref(a);
  int n;
  n = rstr_length(b);
  rstr_release(a);
  printf("%d\n", n);
  return 0;
}
|}

(** Check the implementation together with a client. *)
let check ?(flags = Annot.Flags.default) (client : string) : Check.result =
  Stdspec.check ~flags ~file:"refstrings.c" (source ^ "\n" ^ client)

(** Interpret the implementation together with a client. *)
let interpret (client : string) : Rtcheck.result =
  Rtcheck.run
    (Stdspec.load (Seq.return ("refstrings.c", source ^ "\n" ^ client)))
