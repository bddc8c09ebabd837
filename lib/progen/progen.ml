(** Synthetic C program generation.

    Section 7 evaluates LCLint on its own 100k-line sources, which we do
    not have; this generator produces programs with the same structural
    mix — abstract types with create/destroy/accessor/worker functions,
    annotated interfaces, cross-module call chains, a driver — at any
    requested size, plus controlled *bug seeding* for the
    static-vs-run-time detection experiments.

    Everything is deterministic in [seed]. *)

type rng = { mutable s : int }

let mk_rng seed = { s = (seed * 2654435761) land 0x3FFFFFFF }

let next r =
  r.s <- ((r.s * 1103515245) + 12345) land 0x3FFFFFFF;
  r.s

let rand_int r n = if n <= 0 then 0 else next r mod n

(** The bug classes used in the detection matrix (Section 7's residual-bug
    discussion plus the classes both tools aim at). *)
type bug_kind =
  | Bleak  (** storage never released (reassignment or drop) *)
  | Buse_after_free
  | Bdouble_free
  | Bnull_deref  (** missing null check on a malloc result *)
  | Buse_undef  (** read of an uninitialized field *)
  | Bfree_offset  (** free of an interior pointer (static misses by default) *)
  | Bfree_static  (** free of static storage (static misses by default) *)
  | Bglobal_leak
      (** storage reachable from a global, never freed before exit
          (static cannot see this; run-time leak checkers can) *)
  | Bloop_leak
      (** alloc on every loop iteration, freed only once after the loop:
          invisible to the zero-or-one-times heuristic, caught under
          [+loopexec] *)
  | Bloop_use_after_free
      (** storage released inside a loop body and used again on the next
          trip around the back edge *)
  | Bloop_null_deref
      (** pointer re-nulled inside a loop, dereferenced on a later
          iteration *)
  | Brealloc_lost
      (** [p = realloc(p, n)]: the only reference overwritten with a
          result that may be null — storage lost exactly when the
          allocation fails (caught under [+allocmodel]; manifests
          dynamically only under OOM injection) *)
  | Boom_leak
      (** held storage leaked on the bail path of a later allocation
          failure (static catches the unreleased path; manifests
          dynamically only under OOM injection) *)
  | Brefcount_leak
      (** a [newref] function returns storage with no reference to give
          out: the count balance is broken (static-only; no run-time
          manifestation) *)
  | Brefcount_use
      (** a borrowed (uncounted) reference stashed through a helper
          outlives the last counted reference: use after free at run
          time, invisible to the intraprocedural checker *)
  | Bxproc_callee_free
      (** an unannotated helper frees its parameter; the caller reads it
          afterwards — use after free at run time, invisible without the
          [+xproc] effect summaries *)
  | Bxproc_callee_free_df
      (** an unannotated helper frees its parameter; the caller frees it
          again — double free at run time, caught under [+xproc] *)
  | Bxproc_cond_release
      (** an unannotated helper frees its parameter on one branch only;
          the caller frees unconditionally — double free when the branch
          is taken, caught under [+xproc] (conditional-release effect) *)
  | Bxproc_escape_store
      (** an unannotated helper stashes its parameter in a global; the
          caller frees the storage and reads it back through the global
          — use after free at run time, caught under [+xproc] (escape
          effect → [escapefree]) *)

let all_bug_kinds =
  [
    Bleak; Buse_after_free; Bdouble_free; Bnull_deref; Buse_undef;
    Bfree_offset; Bfree_static; Bglobal_leak; Bloop_leak;
    Bloop_use_after_free; Bloop_null_deref; Brealloc_lost; Boom_leak;
    Brefcount_leak; Brefcount_use; Bxproc_callee_free;
    Bxproc_callee_free_df; Bxproc_cond_release; Bxproc_escape_store;
  ]

let bug_kind_string = function
  | Bleak -> "leak"
  | Buse_after_free -> "use-after-free"
  | Bdouble_free -> "double-free"
  | Bnull_deref -> "null-deref"
  | Buse_undef -> "use-undef"
  | Bfree_offset -> "free-offset"
  | Bfree_static -> "free-static"
  | Bglobal_leak -> "global-leak"
  | Bloop_leak -> "loop-leak"
  | Bloop_use_after_free -> "loop-use-after-free"
  | Bloop_null_deref -> "loop-null-deref"
  | Brealloc_lost -> "realloc-lost"
  | Boom_leak -> "oom-leak"
  | Brefcount_leak -> "refcount-leak"
  | Brefcount_use -> "refcount-use"
  | Bxproc_callee_free -> "xproc-callee-free"
  | Bxproc_callee_free_df -> "xproc-callee-free-df"
  | Bxproc_cond_release -> "xproc-cond-release"
  | Bxproc_escape_store -> "xproc-escape-store"

(** Does this bug class need a loop back edge to manifest?  These are
    invisible to the paper's zero-or-one-times loop heuristic and only
    detectable statically under [+loopexec]. *)
let loop_carried = function
  | Bloop_leak | Bloop_use_after_free | Bloop_null_deref -> true
  | Bleak | Buse_after_free | Bdouble_free | Bnull_deref | Buse_undef
  | Bfree_offset | Bfree_static | Bglobal_leak | Brealloc_lost | Boom_leak
  | Brefcount_leak | Brefcount_use | Bxproc_callee_free
  | Bxproc_callee_free_df | Bxproc_cond_release | Bxproc_escape_store ->
      false

(** One seeded bug: which function carries it, and whether the generated
    driver actually exercises that function (run-time tools only see
    executed bugs). *)
type seeded = {
  sb_kind : bug_kind;
  sb_module : int;
  sb_fn : string;  (** the carrier function's name *)
  sb_executed : bool;
}

type program = {
  files : (string * string) list;  (** (name, text) in dependency order *)
  seeded : seeded list;
  loc : int;  (** total source lines *)
}

let sb_file (sb : seeded) = Printf.sprintf "m%d.c" sb.sb_module

let count_lines files =
  List.fold_left
    (fun acc (_, text) -> acc + List.length (String.split_on_char '\n' text))
    0 files

(** Rebuild a program value around an edited file set — the reduction
    hook the delta-debugging shrinker uses: it drops modules, functions
    and statements from the texts and re-validates the divergence on the
    result.  [seeded] is carried over for the entries whose module file
    survived (the shrinker tracks its own divergence key anyway). *)
let of_files ?(seeded = []) (files : (string * string) list) : program =
  let kept_names = List.map fst files in
  {
    files;
    seeded = List.filter (fun sb -> List.mem (sb_file sb) kept_names) seeded;
    loc = count_lines files;
  }

(* ------------------------------------------------------------------ *)
(* Expected-detection metadata                                         *)
(* ------------------------------------------------------------------ *)

(** Should the static checker flag this seeded bug class under [flags]?
    Footnote 8's classes need the [+freeoffset]/[+freestatic]
    extensions; the global-cache leak is invisible to the
    intraprocedural analysis under any flags (the differential oracle's
    declared blind spots, pinned by test_check.ml's blind-spot suite). *)
let expected_static ~(flags : Annot.Flags.t) = function
  | Bfree_offset -> flags.Annot.Flags.free_offset
  | Bfree_static -> flags.Annot.Flags.free_static
  | Bglobal_leak -> false
  | Bloop_leak | Bloop_use_after_free | Bloop_null_deref ->
      (* loop-carried: needs the [+loopexec] fixpoint to see the back
         edge *)
      flags.Annot.Flags.loop_exec
  | Brealloc_lost ->
      (* needs the path-sensitive allocator model to see that the old
         block is still allocated on realloc's failure branch *)
      flags.Annot.Flags.alloc_model
  | Brefcount_use ->
      (* the stale borrow travels through a helper's global: invisible
         to the intraprocedural analysis under any flags *)
      false
  | Bxproc_callee_free | Bxproc_callee_free_df | Bxproc_cond_release
  | Bxproc_escape_store ->
      (* the release/escape happens inside a locally unannotated helper:
         needs the interprocedural effect summaries *)
      flags.Annot.Flags.xproc
  | Bleak | Buse_after_free | Bdouble_free | Bnull_deref | Buse_undef
  | Boom_leak | Brefcount_leak ->
      true

(** What the run-time baseline observes for this class when the driver
    executes (or skips) the carrier.  [`Error] is a detected heap error,
    [`Leak] an end-of-run leak report, [`Nothing] no observation — the
    null dereference hides on the untaken malloc-failure path even when
    the carrier runs. *)
let expected_dynamic ~(executed : bool) = function
  | _ when not executed -> `Nothing
  | Bnull_deref -> `Nothing
  | Brealloc_lost | Boom_leak ->
      (* the failure path is untaken unless an allocation is injected to
         fail (the OOM sweep) *)
      `Nothing
  | Brefcount_leak -> `Nothing
  | Bleak | Bglobal_leak | Bloop_leak -> `Leak
  | Buse_after_free | Bdouble_free | Buse_undef | Bfree_offset | Bfree_static
  | Bloop_use_after_free | Bloop_null_deref | Brefcount_use
  | Bxproc_callee_free | Bxproc_callee_free_df | Bxproc_cond_release
  | Bxproc_escape_store ->
      `Error

(* ------------------------------------------------------------------ *)
(* Module body generation                                              *)
(* ------------------------------------------------------------------ *)

let buf_add = Buffer.add_string

(** Emit one module: a record type, an annotated create/destroy pair,
    accessors, and small worker functions.  When [annotated] is false the
    memory annotations are omitted (the "starting program" of the paper's
    iteration).  [rich] additionally declares the properties the bodies
    already prove but the base templates leave implicit — [notnull] on
    unconditionally dereferenced parameters and on never-null allocating
    returns — giving the inference benchmarks a fuller ground truth to
    strip and re-derive.  [bug] optionally seeds one bug into a dedicated
    carrier function. *)
let gen_module ~rich ~annotated ~(rng : rng) ~(index : int)
    ~(fns : int) ~(bug : bug_kind option) : string * string list =
  let b = Buffer.create 4096 in
  let m = Printf.sprintf "m%d" index in
  let an s = if annotated then s ^ " " else "" in
  let rich_an s = if annotated && rich then s ^ " " else "" in
  let pf fmt = Printf.ksprintf (buf_add b) fmt in
  pf "/* module %s -- generated */\n\n" m;
  pf "typedef struct _%s_rec {\n" m;
  pf "  int id;\n";
  pf "  int weight;\n";
  pf "  %schar *label;\n" (an "/*@null@*/ /*@only@*/");
  pf "  char tag[8];\n";
  pf "} %s_rec;\n\n" m;
  (* create *)
  pf "%s%s%s_rec *%s_create(int id)\n{\n" (an "/*@only@*/")
    (rich_an "/*@notnull@*/") m m;
  pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
  pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
  pf "  r->id = id;\n";
  pf "  r->weight = id * 3 + 1;\n";
  pf "  r->label = NULL;\n";
  pf "  r->tag[0] = '\\0';\n";
  pf "  return r;\n}\n\n";
  (* set label *)
  pf "void %s_set_label(%s%s_rec *r, char *text)\n{\n" m
    (rich_an "/*@notnull@*/") m;
  pf "  if (r->label != NULL) {\n    free(r->label);\n  }\n";
  pf "  r->label = strdup(text);\n";
  pf "}\n\n";
  (* destroy *)
  pf "void %s_destroy(%s%s%s_rec *r)\n{\n" m (an "/*@only@*/")
    (rich_an "/*@notnull@*/") m;
  pf "  if (r->label != NULL) {\n    free(r->label);\n  }\n";
  pf "  free(r);\n}\n\n";
  (* accessors *)
  pf "int %s_weight(%s%s_rec *r)\n{\n  return r->weight;\n}\n\n" m
    (rich_an "/*@notnull@*/") m;
  pf "void %s_bump(%s%s_rec *r, int by)\n{\n" m (rich_an "/*@notnull@*/") m;
  pf "  r->weight = r->weight + by;\n}\n\n";
  (* worker functions with loops/branches to give the checker real work *)
  for k = 0 to max 0 (fns - 1) do
    let choice = rand_int rng 3 in
    match choice with
    | 0 ->
        pf "int %s_work%d(int n)\n{\n" m k;
        pf "  int acc;\n  int i;\n  acc = 0;\n";
        pf "  for (i = 0; i < n; i++) {\n";
        pf "    if (i %% %d == 0) {\n      acc = acc + i;\n    } else {\n      acc = acc - 1;\n    }\n"
          (2 + rand_int rng 5);
        pf "  }\n  return acc;\n}\n\n"
    | 1 ->
        pf "int %s_scan%d(%schar *s)\n{\n" m k (rich_an "/*@notnull@*/");
        pf "  int count;\n  count = 0;\n";
        pf "  while (*s != '\\0') {\n";
        pf "    if (*s == '%c') {\n      count = count + 1;\n    }\n"
          (Char.chr (Char.code 'a' + rand_int rng 26));
        pf "    s = s + 1;\n  }\n  return count;\n}\n\n"
    | _ ->
        pf "%s%s%s_rec *%s_clone%d(%s%s_rec *r)\n{\n" (an "/*@only@*/")
          (rich_an "/*@notnull@*/") m m k (rich_an "/*@notnull@*/") m;
        pf "  %s_rec *c = %s_create(r->id);\n" m m;
        pf "  c->weight = r->weight;\n";
        pf "  if (r->label != NULL) {\n";
        pf "    %s_set_label(c, r->label);\n" m;
        pf "  }\n  return c;\n}\n\n"
  done;
  (* optional archetype sections: a linked list and a string buffer,
     mirroring the data-structure mix of real C programs (and of the
     paper's employee database) *)
  if fns > 2 then begin
    pf "typedef struct _%s_node {\n" m;
    pf "  int value;\n";
    pf "  %sstruct _%s_node *next;\n" (an "/*@null@*/ /*@only@*/") m;
    pf "} %s_node;\n\n" m;
    pf "%s%s_node *%s_push(%s%s_node *head, int value)\n{\n"
      (if annotated && rich then "/*@only@*/ /*@notnull@*/ "
       else an "/*@null@*/ /*@only@*/")
      m m
      (an "/*@null@*/ /*@only@*/") m;
    pf "  %s_node *n = (%s_node *) malloc(sizeof(%s_node));\n" m m m;
    pf "  if (n == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
    pf "  n->value = value;\n";
    pf "  n->next = head;\n";
    pf "  return n;\n}\n\n";
    pf "int %s_sum(%s%s_node *head)\n{\n" m (an "/*@null@*/") m;
    pf "  int total;\n  %s_node *p;\n  total = 0;\n" m;
    pf "  p = head;\n";
    pf "  while (p != NULL) {\n";
    pf "    total = total + p->value;\n";
    pf "    p = p->next;\n";
    pf "  }\n  return total;\n}\n\n";
    (* ownership-consuming recursive destructor: the idiom the checker
       (like LCLint) can bless -- each next field is transferred to the
       recursive call before the node itself is released *)
    pf "void %s_drop(%s%s_node *head)\n{\n" m (an "/*@null@*/ /*@only@*/") m;
    pf "  if (head != NULL) {\n";
    pf "    if (head->next != NULL) {\n";
    pf "      %s_drop(head->next);\n" m;
    pf "    }\n";
    pf "    free(head);\n";
    pf "  }\n}\n\n"
  end;
  if fns > 4 then begin
    pf "%s%schar *%s_describe(%s%s_rec *r)\n{\n" (an "/*@only@*/")
      (rich_an "/*@notnull@*/") m (rich_an "/*@notnull@*/") m;
    pf "  char *buf = (char *) malloc(64);\n";
    pf "  if (buf == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
    pf "  sprintf(buf, \"rec %%d w=%%d\", r->id, r->weight);\n";
    pf "  return buf;\n}\n\n";
    pf "int %s_same_label(%s%s_rec *a, char *text)\n{\n" m
      (rich_an "/*@notnull@*/") m;
    pf "  if (a->label == NULL) {\n    return FALSE;\n  }\n";
    pf "  return strcmp(a->label, text) == 0;\n}\n\n"
  end;
  (* seeded bug carrier *)
  let carriers = ref [] in
  (match bug with
  | None -> ()
  | Some kind ->
      let fn = Printf.sprintf "%s_buggy" m in
      carriers := [ fn ];
      (match kind with
      | Bleak ->
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = %s_create(1);\n" m m;
          pf "  %s_rec *s = %s_create(2);\n" m m;
          pf "  r = s;\n" (* the first record is lost *);
          pf "  %s_destroy(r);\n}\n\n" m
      | Buse_after_free ->
          pf "int %s(void)\n{\n" fn;
          pf "  %s_rec *r = %s_create(3);\n" m m;
          pf "  %s_destroy(r);\n" m;
          pf "  return r->weight;\n}\n\n"
      | Bdouble_free ->
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = %s_create(4);\n" m m;
          pf "  free(r);\n";
          pf "  free(r);\n}\n\n"
      | Bnull_deref ->
          pf "int %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  r->id = 9;\n" (* no null check: malloc may return NULL *);
          pf "  free(r);\n  return 0;\n}\n\n"
      | Buse_undef ->
          pf "int %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  int w;\n";
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  w = r->weight;\n" (* weight never initialized *);
          pf "  free(r);\n";
          pf "  if (w > 10) {\n    return 1;\n  }\n";
          pf "  return 0;\n}\n\n"
      | Bfree_offset ->
          pf "void %s(void)\n{\n" fn;
          pf "  char *p = (char *) malloc(16);\n";
          pf "  if (p == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  p = p + 4;\n";
          pf "  free(p);\n}\n\n"
      | Bfree_static ->
          pf "void %s(void)\n{\n" fn;
          pf "  char *p = \"static text\";\n";
          pf "  free(p);\n}\n\n"
      | Bglobal_leak ->
          pf "static %s%s_rec *%s_cache;\n\n" (an "/*@null@*/ /*@only@*/") m m;
          pf "void %s(void)\n{\n" fn;
          pf "  if (%s_cache != NULL) {\n    %s_destroy(%s_cache);\n  }\n" m m m;
          pf "  %s_cache = %s_create(7);\n" m m;
          pf "}\n\n" (* never freed before exit; reachable from a global *)
      | Bloop_leak ->
          (* one block leaks per iteration except the last; a single
             forward pass over the body sees one alloc, one free *)
          pf "void %s(void)\n{\n" fn;
          pf "  char *p = NULL;\n";
          pf "  int i;\n";
          pf "  i = 0;\n";
          pf "  while (i < 3) {\n";
          pf "    p = (char *) malloc(16);\n";
          pf "    if (p == NULL) {\n      exit(EXIT_FAILURE);\n    }\n";
          pf "    i = i + 1;\n";
          pf "  }\n";
          pf "  if (p != NULL) {\n    free(p);\n  }\n}\n\n"
      | Bloop_use_after_free ->
          (* released at the bottom of the body, used again at the top of
             the next trip: only a back edge connects release to use (the
             break keeps the storage from being freed twice) *)
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  int i;\n";
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  i = 0;\n";
          pf "  while (1) {\n";
          pf "    r->weight = i;\n";
          pf "    if (i == 1) {\n      break;\n    }\n";
          pf "    free(r);\n";
          pf "    i = i + 1;\n";
          pf "  }\n}\n\n"
      | Bloop_null_deref ->
          (* re-nulled mid-loop, dereferenced on the following iteration *)
          pf "void %s(void)\n{\n" fn;
          pf "  char *p = (char *) malloc(8);\n";
          pf "  int i;\n";
          pf "  if (p == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  i = 0;\n";
          pf "  while (i < 3) {\n";
          pf "    *p = 'x';\n";
          pf "    if (i == 1) {\n      free(p);\n      p = NULL;\n    }\n";
          pf "    i = i + 1;\n";
          pf "  }\n";
          pf "  if (p != NULL) {\n    free(p);\n  }\n}\n\n"
      | Brealloc_lost ->
          (* the only reference is overwritten with the realloc result:
             nothing leaks while realloc succeeds, but the old block is
             lost exactly when the allocation fails (return instead of
             exit, so an injected failure still reaches the end-of-run
             leak report) *)
          pf "void %s(void)\n{\n" fn;
          pf "  char *p = (char *) malloc(1);\n";
          pf "  if (p == NULL) {\n    return;\n  }\n";
          pf "  p[0] = 'x';\n";
          pf "  p = (char *) realloc(p, 2);\n";
          pf "  if (p == NULL) {\n    return;\n  }\n";
          pf "  p[0] = 'y';\n";
          pf "  free(p);\n}\n\n"
      | Boom_leak ->
          (* the bail path of the second allocation forgets the first
             block; only an injected failure takes that path *)
          pf "void %s(void)\n{\n" fn;
          pf "  char *a = (char *) malloc(1);\n";
          pf "  char *b;\n";
          pf "  if (a == NULL) {\n    return;\n  }\n";
          pf "  a[0] = 'a';\n";
          pf "  b = (char *) malloc(1);\n";
          pf "  if (b == NULL) {\n    return;\n  }\n";
          pf "  b[0] = 'b';\n";
          pf "  free(a);\n";
          pf "  free(b);\n}\n\n"
      | Brefcount_leak ->
          (* a newref result with no reference behind it: the count
             balance is broken at the return *)
          pf "%schar *%s(void)\n{\n" (an "/*@newref@*/") fn;
          pf "  return \"%s-tag\";\n}\n\n" m
      | Brefcount_use ->
          (* the helper stashes an uncounted borrow in a global; the
             borrow outlives the only counted reference *)
          pf "static %s%s_rec *%s_borrowed;\n\n"
            (an "/*@null@*/ /*@dependent@*/") m m;
          pf "void %s_stash(%s%s_rec *r)\n{\n" m (an "/*@dependent@*/") m;
          pf "  %s_borrowed = r;\n}\n\n" m;
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = %s_create(6);\n" m m;
          pf "  %s_stash(r);\n" m;
          pf "  %s_destroy(r);\n" m;
          pf "  if (%s_borrowed != NULL) {\n" m;
          pf "    %s_borrowed->weight = 2;\n  }\n}\n\n" m
      (* The xproc helpers below are deliberately left unannotated even
         in annotated mode: the release/escape lives only in the helper
         body, where the default checker cannot see it from a call site. *)
      | Bxproc_callee_free ->
          pf "void %s_xrel(%s_rec *r)\n{\n  free(r);\n}\n\n" m m;
          pf "int %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  r->weight = 5;\n";
          pf "  %s_xrel(r);\n" m;
          pf "  return r->weight;\n}\n\n" (* read after the callee freed *)
      | Bxproc_callee_free_df ->
          pf "void %s_xdrop(%s_rec *r)\n{\n  free(r);\n}\n\n" m m;
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  r->weight = 1;\n";
          pf "  %s_xdrop(r);\n" m;
          pf "  free(r);\n}\n\n" (* second free of the same block *)
      | Bxproc_cond_release ->
          pf "int %s_xmaybe(%s_rec *r, int c)\n{\n" m m;
          pf "  if (c > 0) {\n    free(r);\n    return 1;\n  }\n";
          pf "  return 0;\n}\n\n";
          pf "void %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  r->weight = 3;\n";
          pf "  %s_xmaybe(r, 1);\n" m (* the releasing branch is taken *);
          pf "  free(r);\n}\n\n"
      | Bxproc_escape_store ->
          pf "static %s_rec *%s_xslot;\n\n" m m;
          pf "void %s_xkeep(%s_rec *r)\n{\n  %s_xslot = r;\n}\n\n" m m m;
          pf "int %s(void)\n{\n" fn;
          pf "  %s_rec *r = (%s_rec *) malloc(sizeof(%s_rec));\n" m m m;
          pf "  if (r == NULL) {\n    exit(EXIT_FAILURE);\n  }\n";
          pf "  r->weight = 8;\n";
          pf "  %s_xkeep(r);\n" m;
          pf "  free(r);\n";
          pf "  if (%s_xslot != NULL) {\n" m;
          pf "    return %s_xslot->weight;\n  }\n" m (* dangling read *);
          pf "  return 0;\n}\n\n"));
  (Buffer.contents b, !carriers)

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

(** Generate a program.

    - [modules]: number of modules;
    - [fns_per_module]: worker functions per module (size lever);
    - [annotated]: include the memory annotations;
    - [bugs]: bug kinds to seed, assigned to modules round-robin;
    - [coverage]: fraction (0..1) of seeded-bug carriers the driver calls
      — run-time checking sees only what runs. *)
let generate ?(seed = 42) ?(modules = 4) ?(fns_per_module = 6)
    ?(annotated = true) ?(rich = false) ?(bugs = []) ?(coverage = 1.0) () :
    program =
  let rng = mk_rng seed in
  let nbugs = List.length bugs in
  let seeded = ref [] in
  let files = ref [] in
  for i = 0 to modules - 1 do
    let bug = List.nth_opt bugs i in
    let text, carriers =
      gen_module ~rich ~annotated ~rng ~index:i ~fns:fns_per_module ~bug
    in
    files := (Printf.sprintf "m%d.c" i, text) :: !files;
    List.iter
      (fun fn ->
        match bug with
        | Some kind ->
            seeded :=
              { sb_kind = kind; sb_module = i; sb_fn = fn; sb_executed = false }
              :: !seeded
        | None -> ())
      carriers
  done;
  ignore nbugs;
  (* the driver: exercise the clean API everywhere, and a [coverage]
     fraction of the bug carriers *)
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (buf_add b) fmt in
  pf "/* driver -- generated */\n\nint main(void)\n{\n";
  pf "  int total;\n  total = 0;\n";
  for i = 0 to modules - 1 do
    let m = Printf.sprintf "m%d" i in
    pf "  {\n";
    pf "    %s_rec *r = %s_create(%d);\n" m m i;
    pf "    %s_set_label(r, \"item\");\n" m;
    pf "    %s_bump(r, %d);\n" m (1 + rand_int rng 9);
    pf "    total = total + %s_weight(r);\n" m;
    if fns_per_module > 4 then begin
      pf "    {\n      char *d = %s_describe(r);\n" m;
      pf "      printf(\"%%s\\n\", d);\n";
      pf "      free(d);\n    }\n"
    end;
    pf "    %s_destroy(r);\n" m;
    pf "  }\n";
    if fns_per_module > 2 then begin
      pf "  {\n    %s_node *head = NULL;\n" m;
      pf "    head = %s_push(head, 1);\n" m;
      pf "    head = %s_push(head, 2);\n" m;
      pf "    total = total + %s_sum(head);\n" m;
      pf "    %s_drop(head);\n  }\n" m
    end
  done;
  let n_seeded = List.length !seeded in
  let n_exec = int_of_float (ceil (coverage *. float_of_int n_seeded)) in
  let seeded_exec =
    List.mapi (fun idx sb -> { sb with sb_executed = idx < n_exec }) !seeded
  in
  List.iter
    (fun sb -> if sb.sb_executed then pf "  %s();\n" sb.sb_fn)
    seeded_exec;
  pf "  printf(\"total %%d\\n\", total);\n";
  pf "  return 0;\n}\n";
  let files = List.rev !files @ [ ("driver.c", Buffer.contents b) ] in
  { files; seeded = seeded_exec; loc = count_lines files }

(** Analyse a generated program into a fresh stdlib environment. *)
let analyse ?(flags = Annot.Flags.default) (p : program) : Sema.program =
  Stdspec.load ~flags (List.to_seq p.files)

(** Statically check a generated program; returns the kept reports. *)
let static_check ?(flags = Annot.Flags.default) (p : program) :
    Check.result =
  Check.run_program (analyse ~flags p)

(** Run a generated program under the run-time checker.  [max_steps]
    bounds execution (the fuzzer's [-timeout-steps]); [oom_fail] forces
    heap allocation request #n to fail (the OOM injection sweep). *)
let dynamic_check ?(flags = Annot.Flags.default) ?max_steps ?oom_fail
    (p : program) : Rtcheck.result =
  let prog = analyse ~flags p in
  Rtcheck.run ?max_steps ?oom_fail prog
