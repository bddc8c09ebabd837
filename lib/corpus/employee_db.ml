(** The Section 6 employee database, reconstructed.

    The paper's example is the ~1000-line employee database program of
    Guttag & Horning's Larch book, checked through an iterative annotation
    process.  The original sources are not in the paper, so this is a
    faithful rebuild engineered to reproduce the iteration *exactly as the
    paper reports it*:

    - run 0 (no annotations): 1 null anomaly in [erc_create];
    - fix 1 adds the [null] annotation on the [vals] field →
      run 1: 3 new null anomalies (functions with requires clauses);
    - fix 2 adds the assertions and the single [out] annotation
      (found through complete-definition checking) →
      run 2 ([-allimponly]): 7 allocation anomalies — 2 returns of fresh
      storage ([erc_create], [erc_sprint]), 4 assignments of fresh storage
      to fields of the static [eref_pool], 1 [free] of an implicitly temp
      parameter ([erc_final]);
    - fix 3 adds 5 [only] annotations (2 returns, 2 pool fields,
      1 parameter) → run 3: 6 propagated anomalies;
    - fix 4 adds 6 [only] annotations (3 returns, 1 parameter, 2 globals)
      → run 4: 2 further propagated anomalies + 3 driver leaks;
    - fix 5 adds the last 2 [only] annotations and 3 [free] calls →
      run 5: the remaining 3 driver leaks (6 in total, as in the paper);
    - fix 6 adds the remaining releases → run 6: 1 aliasing anomaly
      ([strcpy] in [employee_setName]);
    - fix 7 adds the [unique] qualifier → run 7: clean.

    Annotation totals match the paper's summary: 15 annotations —
    1 [null], 1 [out], 13 [only] (and the [unique], which the paper's
    total also leaves uncounted).  With implicit annotations enabled, only
    the 2 parameter [only]s are needed.

    [stage n] returns the program after fix [n] (stage 0 = unannotated). *)

type file = { name : string; text : string }

let a cond s = if cond then s ^ " " else ""

(* stage gates *)
let s1 n = n >= 1 (* null on vals *)
let s2 n = n >= 2 (* asserts + out *)
let s3 n = n >= 3 (* first 5 only *)
let s4 n = n >= 4 (* next 6 only *)
let s5 n = n >= 5 (* last 2 only + 3 frees *)
let s6 n = n >= 6 (* remaining releases *)
let s7 n = n >= 7 (* unique *)

let employee_c n =
  Printf.sprintf
    {|/* employee.c -- employee abstract type */

typedef enum { GENDER_UNKNOWN, MALE, FEMALE } gender;
typedef enum { MGR, NONMGR } job;

typedef struct {
  int ssNum;
  char name[20];
  int salary;
  gender gen;
  job j;
} employee;

void employee_init(%semployee *e, int ssNum, int salary)
{
  e->ssNum = ssNum;
  e->salary = salary;
  e->gen = GENDER_UNKNOWN;
  e->j = NONMGR;
  e->name[0] = '\0';
}

int employee_setName(employee *e, %schar *na)
{
  if (strlen(na) > (size_t) 19) {
    return FALSE;
  }
  strcpy(e->name, na);
  return TRUE;
}

int employee_equal(employee *e1, employee *e2)
{
  return (e1->ssNum == e2->ssNum) && (strcmp(e1->name, e2->name) == 0);
}
|}
    (a (s2 n) "/*@out@*/") (a (s7 n) "/*@unique@*/")

let eref_c n =
  Printf.sprintf
    {|/* eref.c -- employee references: indices into a static pool */

typedef int eref;

typedef struct {
  /*@reldef@*/ %semployee *conts;
  %sint *status;
  int size;
} erefPool;

static erefPool eref_pool;

void eref_initMod(void) /*@globals undef eref_pool@*/
{
  int i;
  eref_pool.conts = (employee *) malloc((size_t) 16 * sizeof(employee));
  eref_pool.status = (int *) malloc((size_t) 16 * sizeof(int));
  eref_pool.size = 16;
  if (eref_pool.conts == NULL || eref_pool.status == NULL) {
    exit(EXIT_FAILURE);
  }
  for (i = 0; i < 16; i++) {
    eref_pool.status[i] = 0;
  }
}

eref eref_alloc(void) /*@globals eref_pool@*/
{
  int i;
  i = 0;
  while (i < eref_pool.size && eref_pool.status[i] == 1) {
    i = i + 1;
  }
  if (i == eref_pool.size) {
    eref_pool.conts = (employee *)
      realloc(eref_pool.conts, (size_t) (2 * eref_pool.size) * sizeof(employee));
    eref_pool.status = (int *)
      realloc(eref_pool.status, (size_t) (2 * eref_pool.size) * sizeof(int));
    if (eref_pool.conts == NULL || eref_pool.status == NULL) {
      exit(EXIT_FAILURE);
    }
    for (i = eref_pool.size; i < 2 * eref_pool.size; i++) {
      eref_pool.status[i] = 0;
    }
    i = eref_pool.size;
    eref_pool.size = 2 * eref_pool.size;
  }
  eref_pool.status[i] = 1;
  return i;
}

void eref_free(eref er) /*@globals eref_pool@*/
{
  eref_pool.status[er] = 0;
}

employee *eref_get(eref er) /*@globals eref_pool@*/
{
  return &eref_pool.conts[er];
}
|}
    (a (s3 n) "/*@only@*/") (a (s3 n) "/*@only@*/")

let erc_c n =
  Printf.sprintf
    {|/* erc.c -- employee reference collections (linked lists of erefs) */

typedef struct _ercElem {
  eref val;
  struct _ercElem *next;
} ercElem;

typedef struct {
  %sercElem *vals;
  int size;
} ercInfo;

typedef ercInfo *erc;

void error(char *s)
{
  fprintf(stderr, "%%s\n", s);
}

%serc erc_create(void)
{
  erc c = (erc) malloc(sizeof(*c));

  if (c == NULL) {
    error("malloc returned null");
    exit(EXIT_FAILURE);
  }

  c->vals = NULL;
  c->size = 0;
  return c;
}

/* requires: erc_size(c) > 0 */
eref erc_choose(erc c)
{
%s  return c->vals->val;
}

/* requires: erc_size(c) > 0 */
void erc_deleteFirst(erc c)
{
  ercElem *e;
%s  e = c->vals;
  c->vals = e->next;
  c->size = c->size - 1;
  free(e);
}

/* requires: erc_size(c1) > 0 */
void erc_join(erc c1, erc c2)
{
  ercElem *t;
  ercElem *e;
%s  t = c1->vals;
  while (t->next != NULL) {
    t = t->next;
  }
  e = c2->vals;
  while (e != NULL) {
    t = t->next;
    e = e->next;
  }
}

int erc_member(eref er, erc c)
{
  ercElem *e;
  e = c->vals;
  while (e != NULL) {
    if (e->val == er) {
      return TRUE;
    }
    e = e->next;
  }
  return FALSE;
}

void erc_insert(erc c, eref er)
{
  ercElem *e = (ercElem *) malloc(sizeof(ercElem));
  if (e == NULL) {
    exit(EXIT_FAILURE);
  }
  e->val = er;
  e->next = c->vals;
  c->vals = e;
  c->size = c->size + 1;
}

int erc_delete(erc c, eref er)
{
  ercElem *e;
  ercElem *prev;
  e = c->vals;
  prev = NULL;
  while (e != NULL) {
    if (e->val == er) {
      if (prev == NULL) {
        c->vals = e->next;
      } else {
        prev->next = e->next;
      }
      free(e);
      c->size = c->size - 1;
      return TRUE;
    }
    prev = e;
    e = e->next;
  }
  return FALSE;
}

int erc_size(erc c)
{
  return c->size;
}

void erc_clear(erc c)
{
  while (c->vals != NULL) {
    ercElem *e;
    e = c->vals;
    c->vals = e->next;
    free(e);
    c->size = c->size - 1;
  }
}

%schar *erc_sprint(erc c)
{
  char *result = (char *) malloc((size_t) (c->size * 16 + 2));
  ercElem *elem;
  char buf[20];
  if (result == NULL) {
    exit(EXIT_FAILURE);
  }
  result[0] = '\0';
  elem = c->vals;
  while (elem != NULL) {
    sprintf(buf, "%%d ", elem->val);
    strcat(result, buf);
    elem = elem->next;
  }
  return result;
}

void erc_final(%serc c)
{
  erc_clear(c);
  free(c);
}
|}
    (a (s1 n) "/*@null@*/")
    (a (s3 n) "/*@only@*/")
    (if s2 n then "  assert(c->vals != NULL);\n" else "")
    (if s2 n then "  assert(c->vals != NULL);\n" else "")
    (if s2 n then "  assert(c1->vals != NULL);\n" else "")
    (a (s3 n) "/*@only@*/")
    (a (s3 n) "/*@only@*/")

let empset_c n =
  Printf.sprintf
    {|/* empset.c -- sets of employees, built on erc */

typedef erc empset;

%sempset empset_create(void)
{
  return erc_create();
}

void empset_final(%sempset s)
{
  erc_final(s);
}

int empset_member(eref er, empset s)
{
  return erc_member(er, s);
}

void empset_insert(empset s, eref er)
{
  if (!erc_member(er, s)) {
    erc_insert(s, er);
  }
}

int empset_delete(empset s, eref er)
{
  return erc_delete(s, er);
}

int empset_size(empset s)
{
  return erc_size(s);
}

%sempset empset_union(empset s1, empset s2)
{
  empset r = erc_create();
  ercElem *e;
  e = s1->vals;
  while (e != NULL) {
    empset_insert(r, e->val);
    e = e->next;
  }
  e = s2->vals;
  while (e != NULL) {
    empset_insert(r, e->val);
    e = e->next;
  }
  return r;
}

%schar *empset_sprint(empset s)
{
  return erc_sprint(s);
}
|}
    (a (s4 n) "/*@only@*/") (a (s4 n) "/*@only@*/") (a (s4 n) "/*@only@*/")
    (a (s4 n) "/*@only@*/")

let dbase_c n =
  Printf.sprintf
    {|/* dbase.c -- the employee database */

static %serc db_low;
static %serc db_high;

void dbase_initMod(void) /*@globals undef db_low; undef db_high@*/
{
  db_low = erc_create();
  db_high = erc_create();
}

void dbase_hire(int ssNum, int salary, char *na)
  /*@globals db_low; db_high; eref_pool@*/
{
  eref er = eref_alloc();
  employee *e = eref_get(er);
  employee_init(e, ssNum, salary);
  if (employee_setName(e, na) == FALSE) {
    error("name too long");
  }
  if (salary < 1000) {
    erc_insert(db_low, er);
  } else {
    erc_insert(db_high, er);
  }
}

int dbase_fire(int ssNum) /*@globals db_low; db_high; eref_pool@*/
{
  ercElem *e;
  e = db_low->vals;
  while (e != NULL) {
    employee *emp = eref_get(e->val);
    if (emp->ssNum == ssNum) {
      eref_free(e->val);
      return erc_delete(db_low, e->val);
    }
    e = e->next;
  }
  e = db_high->vals;
  while (e != NULL) {
    employee *emp = eref_get(e->val);
    if (emp->ssNum == ssNum) {
      eref_free(e->val);
      return erc_delete(db_high, e->val);
    }
    e = e->next;
  }
  return FALSE;
}

%sempset dbase_query(int lo, int hi)
  /*@globals db_low; db_high; eref_pool@*/
{
  empset r = empset_create();
  ercElem *e;
  e = db_low->vals;
  while (e != NULL) {
    employee *emp = eref_get(e->val);
    if (emp->salary >= lo && emp->salary <= hi) {
      empset_insert(r, e->val);
    }
    e = e->next;
  }
  e = db_high->vals;
  while (e != NULL) {
    employee *emp = eref_get(e->val);
    if (emp->salary >= lo && emp->salary <= hi) {
      empset_insert(r, e->val);
    }
    e = e->next;
  }
  return r;
}

%sempset dbase_select(job j) /*@globals db_low; db_high; eref_pool@*/
{
  empset r = empset_create();
  ercElem *e;
  e = db_high->vals;
  while (e != NULL) {
    employee *emp = eref_get(e->val);
    if (emp->j == j) {
      empset_insert(r, e->val);
    }
    e = e->next;
  }
  return r;
}
|}
    (a (s4 n) "/*@only@*/") (a (s4 n) "/*@only@*/") (a (s5 n) "/*@only@*/")
    (a (s5 n) "/*@only@*/")

let drive_c n =
  Printf.sprintf
    {|/* drive.c -- test driver */

int main(void)
{
  char *s;
  empset q1;
  empset q2;
  employee tmp;

  eref_initMod();
  dbase_initMod();

  employee_init(&tmp, 99, 2500);
  if (employee_setName(&tmp, "test record") == FALSE) {
    error("bad name");
  }

  dbase_hire(1, 500, "alice");
  dbase_hire(2, 1500, "bob");
  dbase_hire(3, 800, "carol");

  q1 = dbase_query(0, 999);
  s = empset_sprint(q1);
  printf("low: %%s\n", s);
%s  s = empset_sprint(q1);
  printf("again: %%s\n", s);
%s%s  q1 = dbase_query(1000, 9999);
  q2 = dbase_select(MGR);
  s = empset_sprint(q2);
  printf("mgrs: %%s\n", s);
%s%s%s  return 0;
}
|}
    (if s5 n then "  free(s);\n" else "")
    (if s5 n then "  free(s);\n" else "")
    (if s6 n then "  empset_final(q1);\n" else "")
    (if s5 n then "  free(s);\n" else "")
    (if s6 n then "  empset_final(q1);\n" else "")
    (if s6 n then "  empset_final(q2);\n" else "")

(** The program after fix batch [n] (0 = unannotated), as the paper's
    per-module files. *)
let stage (n : int) : file list =
  [
    { name = "employee.c"; text = employee_c n };
    { name = "eref.c"; text = eref_c n };
    { name = "erc.c"; text = erc_c n };
    { name = "empset.c"; text = empset_c n };
    { name = "dbase.c"; text = dbase_c n };
    { name = "drive.c"; text = drive_c n };
  ]

let max_stage = 7

(** Total line count of a stage (the paper quotes ~1000 lines). *)
let line_count n =
  List.fold_left
    (fun acc f ->
      acc + List.length (String.split_on_char '\n' f.text))
    0 (stage n)

(** Analyse one stage's modules, in order, into one program over the
    annotated standard library. *)
let load ?(flags = Annot.Flags.default) (n : int) : Sema.program =
  Stdspec.load ~flags
    (Seq.map (fun f -> (f.name, f.text)) (List.to_seq (stage n)))

(** Check one stage: all modules analysed into one program environment over
    the annotated standard library, then checked.  Returns the combined
    result. *)
let check ?(flags = Annot.Flags.default) (n : int) : Check.result =
  (* analyse every module first (interfaces), then check; LCLint sees each
     module's interface through headers, which sequential analysis models *)
  Check.run_program (load ~flags n)

(** Anomaly counts per category for one stage, under the paper's
    expository flags ([-allimponly]). *)
type counts = {
  c_null : int;  (** null-pointer anomalies *)
  c_def : int;  (** definition anomalies *)
  c_alloc : int;  (** allocation anomalies (leaks, bad transfers) *)
  c_alias : int;  (** aliasing anomalies *)
  c_other : int;
  c_total : int;
}

let categorize (r : Check.result) : counts =
  List.fold_left
    (fun c (d : Cfront.Diag.t) ->
      let c = { c with c_total = c.c_total + 1 } in
      match Cfront.Diag.category d with
      | "null" -> { c with c_null = c.c_null + 1 }
      | "definition" -> { c with c_def = c.c_def + 1 }
      | "allocation" -> { c with c_alloc = c.c_alloc + 1 }
      | "alias" -> { c with c_alias = c.c_alias + 1 }
      | _ -> { c with c_other = c.c_other + 1 })
    { c_null = 0; c_def = 0; c_alloc = 0; c_alias = 0; c_other = 0; c_total = 0 }
    r.Check.reports

(** The flags the paper's Section 6 iteration uses: implicit [only]
    annotations disabled. *)
let paper_flags = Annot.Flags.(allimponly_off default)

(** Number of annotation comments added at stage [n] relative to stage 0,
    by annotation word. *)
let annotations_added (n : int) : (string * int) list =
  let count_word w files =
    List.fold_left
      (fun acc f ->
        let re = Str.regexp_string ("/*@" ^ w ^ "@*/") in
        let rec go i acc =
          match Str.search_forward re f.text i with
          | i' -> go (i' + 1) (acc + 1)
          | exception Not_found -> acc
        in
        go 0 acc)
      0 files
  in
  let base = stage 0 and cur = stage n in
  [ "null"; "out"; "only"; "unique" ]
  |> List.map (fun w -> (w, count_word w cur - count_word w base))
