(* Checker behaviour tests: one case per anomaly class and per
   paper-described behaviour, plus the figures with their exact messages. *)

module Flags = Annot.Flags

let paper_flags = Flags.(allimponly_off default)

let check ?(flags = paper_flags) src = Stdspec.check ~flags ~file:"t.c" src

(* The diagnostic codes of a result, in report order. *)
let codes (r : Check.result) =
  List.map (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code) r.Check.reports

let check_codes ?flags name expected src =
  let r = check ?flags src in
  Alcotest.(check (list string)) name expected (codes r)

let has_code r code = List.mem code (codes r)

let first_message r =
  match r.Check.reports with
  | d :: _ -> d.Cfront.Diag.text
  | [] -> Alcotest.fail "expected at least one report"

(* ------------------------------------------------------------------ *)
(* The paper's figures, with their exact messages                      *)
(* ------------------------------------------------------------------ *)

let test_fig1_unannotated_clean () =
  check_codes "fig1" [] Corpus.Figures.fig1_sample

let test_fig2_message () =
  let r = check Corpus.Figures.fig2_sample_null in
  Alcotest.(check (list string)) "codes" [ "globnull" ] (codes r);
  Alcotest.(check string) "message"
    "Function returns with non-null global gname referencing null storage"
    (first_message r);
  (* the indented note points at the assignment, as in the paper *)
  match r.Check.reports with
  | [ d ] -> (
      match d.Cfront.Diag.notes with
      | [ n ] ->
          Alcotest.(check string) "note"
            "Storage gname may become null" n.Cfront.Diag.ntext;
          Alcotest.(check int) "note line" 5 n.Cfront.Diag.nloc.Cfront.Loc.line
      | _ -> Alcotest.fail "expected one note")
  | _ -> Alcotest.fail "expected one report"

let test_fig3_fixed () = check_codes "fig3" [] Corpus.Figures.fig3_sample_fixed

let test_fig4_messages () =
  let r = check Corpus.Figures.fig4_sample_only_temp in
  Alcotest.(check (list string)) "codes" [ "mustfree"; "onlytrans" ] (codes r);
  match r.Check.reports with
  | [ leak; trans ] ->
      Alcotest.(check string) "leak"
        "Only storage gname not released before assignment"
        leak.Cfront.Diag.text;
      Alcotest.(check string) "transfer"
        "Temp storage pname assigned to only storage gname"
        trans.Cfront.Diag.text
  | _ -> Alcotest.fail "expected two reports"

(* tiny substring helper *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_fig5_messages () =
  let r = check Corpus.Figures.fig5_list_addh in
  (* the two anomalies of Section 5: the kept/only confluence error on e,
     and the incomplete definition reachable from the parameter *)
  Alcotest.(check (list string)) "codes" [ "compdef"; "branchstate" ] (codes r);
  Alcotest.(check bool) "confluence mentions kept and only" true
    (List.exists
       (fun (d : Cfront.Diag.t) ->
         d.Cfront.Diag.code = "branchstate"
         && contains d.Cfront.Diag.text "kept"
         && contains d.Cfront.Diag.text "only")
       r.Check.reports)

let test_fig5_fixed () =
  check_codes "fig5 fixed" [] Corpus.Figures.fig5_list_addh_fixed

let test_fig7_erc_create () = check_codes "fig7" [] Corpus.Figures.fig7_erc_create

let test_fig8_strcpy_unique () =
  let r = check Corpus.Figures.fig8_employee_setname in
  Alcotest.(check (list string)) "codes" [ "aliasunique" ] (codes r);
  Alcotest.(check string) "message"
    "Parameter 1 (e->name) to function strcpy is declared unique but may be \
     aliased externally by parameter 2 (s)"
    (first_message r)

(* ------------------------------------------------------------------ *)
(* Null checking                                                       *)
(* ------------------------------------------------------------------ *)

let test_null_deref () =
  check_codes "deref possibly null" [ "nullderef" ]
    "void f(/*@null@*/ int *p) { *p = 1; }";
  check_codes "arrow possibly null" [ "nullderef" ]
    "typedef struct { int v; } s; int f(/*@null@*/ s *p) { return p->v; }"

(* The access part of a nullderef message names the expression form:
   [p->f] for an arrow (or [( *p).f]), [p[...]] for an index and [*p] for a
   dereference, the same whether the access is read or written. *)
let test_null_deref_renderings () =
  let message name expected src =
    Alcotest.(check (list string)) name [ expected ]
      (List.map
         (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.text)
         (check src).Check.reports)
  in
  let s = "typedef struct { int v; } s; " in
  message "arrow rvalue" "Arrow access from possibly null pointer p: p->v"
    (s ^ "int f(/*@null@*/ s *p) { return p->v; }");
  message "arrow lvalue" "Arrow access from possibly null pointer p: p->v"
    (s ^ "void f(/*@null@*/ s *p) { p->v = 1; }");
  message "star-dot" "Arrow access from possibly null pointer p: p->v"
    (s ^ "int f(/*@null@*/ s *p) { return (*p).v; }");
  message "index rvalue" "Index of possibly null pointer p: p[...]"
    "int f(/*@null@*/ int *p) { return p[2]; }";
  message "index lvalue" "Index of possibly null pointer p: p[...]"
    "void f(/*@null@*/ int *p) { p[1] = 3; }";
  message "deref rvalue" "Dereference of possibly null pointer p: *p"
    "int f(/*@null@*/ int *p) { return *p; }";
  message "deref lvalue" "Dereference of possibly null pointer p: *p"
    "void f(/*@null@*/ int *p) { *p = 1; }";
  message "deref null" "Dereference of null pointer p: *p"
    "int f(void) { int *p = 0; return *p; }"

let test_null_guards () =
  (* all the null-test forms the paper mentions *)
  check_codes "!= NULL" []
    "void f(/*@null@*/ int *p) { if (p != NULL) { *p = 1; } }";
  check_codes "== NULL else" []
    "void f(/*@null@*/ int *p) { if (p == NULL) { return; } *p = 1; }";
  check_codes "bare condition" []
    "void f(/*@null@*/ int *p) { if (p) { *p = 1; } }";
  check_codes "negated" []
    "void f(/*@null@*/ int *p) { if (!p) { return; } *p = 1; }";
  check_codes "reversed operands" []
    "void f(/*@null@*/ int *p) { if (NULL != p) { *p = 1; } }";
  check_codes "conjunction" []
    "void f(/*@null@*/ int *p, int c) { if (p != NULL && c) { *p = 1; } }"

let test_null_wrong_branch () =
  check_codes "deref on null branch" [ "nullderef" ]
    "void f(/*@null@*/ int *p) { if (p == NULL) { *p = 1; } }"

let test_truenull_falsenull () =
  check_codes "truenull guard" []
    "extern /*@truenull@*/ int isNull(/*@null@*/ char *x);\n\
     void f(/*@null@*/ char *p) { if (!isNull(p)) { *p = 'a'; } }";
  check_codes "falsenull guard" []
    "extern /*@falsenull@*/ int ok(/*@null@*/ char *x);\n\
     void f(/*@null@*/ char *p) { if (ok(p)) { *p = 'a'; } }"

let test_assert_refines () =
  check_codes "assert" []
    "void f(/*@null@*/ int *p) { assert(p != NULL); *p = 1; }"

let test_nullpass () =
  check_codes "null to notnull param" [ "nullpass" ]
    "extern void use(int *q); void f(/*@null@*/ int *p) { use(p); }";
  check_codes "null to null param ok" []
    "extern void use(/*@null@*/ int *q); void f(/*@null@*/ int *p) { use(p); }"

let test_nullret () =
  check_codes "returning possibly null" [ "nullret" ]
    "int *f(/*@null@*/ int *p) { return p; }";
  check_codes "annotated null return ok" []
    "/*@null@*/ int *f(/*@null@*/ int *p) { return p; }"

let test_relnull () =
  (* relnull: assignable from null, assumed non-null at use *)
  check_codes "relnull" []
    "typedef struct { /*@relnull@*/ char *s; } t;\n\
     void f(t *x) { x->s = NULL; }\n\
     char g(t *x) { return *x->s; }"

let test_nullderive () =
  let r =
    check
      "typedef struct { int *q; } s;\n\
       extern /*@out@*/ /*@only@*/ void *smalloc(size_t);\n\
       /*@only@*/ s *f(void) { s *p = (s *) smalloc(sizeof(s)); p->q = NULL; \
       return p; }"
  in
  Alcotest.(check bool) "nullderive reported" true (has_code r "nullderive")

(* ------------------------------------------------------------------ *)
(* Definition checking                                                 *)
(* ------------------------------------------------------------------ *)

let test_use_before_def () =
  check_codes "scalar" [ "usedef" ] "int f(void) { int x; return x; }";
  check_codes "assigned ok" [] "int f(void) { int x; x = 3; return x; }"

let test_use_undef_branch () =
  (* the paper admits this spurious case: defined on one branch only *)
  let r =
    check
      "int f(int c) { int x; if (c) { x = 1; } return x; }"
  in
  Alcotest.(check bool) "reported (unsound by design)" true (has_code r "usedef")

let test_out_param () =
  (* out params enter allocated-but-undefined and must be defined *)
  check_codes "out defined ok" []
    "void init(/*@out@*/ int *p) { *p = 0; }";
  check_codes "reading out param" [ "usedef" ]
    "int bad(/*@out@*/ int *p) { return *p; }";
  check_codes "caller passes undefined buffer" []
    "void init(/*@out@*/ int *p) { *p = 0; }\n\
     void g(void) { int x; init(&x); }"

let test_out_param_completion () =
  let r =
    check
      "typedef struct { int a; int b; } s;\n\
       void init(/*@out@*/ s *p) { p->a = 1; }"
  in
  Alcotest.(check bool) "incomplete out param" true (has_code r "compdef")

let test_compdef_at_call () =
  check_codes "undefined struct passed" [ "compdef" ]
    "typedef struct { int a; } s;\n\
     extern void use(s *p);\n\
     void f(void) { s x; use(&x); }"

let test_completion_after_malloc () =
  let r =
    check
      "typedef struct { int a; int b; } s;\n\
       /*@only@*/ s *mk(void) {\n\
       s *p = (s *) malloc(sizeof(s));\n\
       if (p == NULL) { exit(1); }\n\
       p->a = 1;\n\
       return p; }"
  in
  Alcotest.(check bool) "p->b undefined" true (has_code r "compdef");
  check_codes "fully defined ok" []
    "typedef struct { int a; int b; } s;\n\
     /*@only@*/ s *mk(void) {\n\
     s *p = (s *) malloc(sizeof(s));\n\
     if (p == NULL) { exit(1); }\n\
     p->a = 1;\n\
     p->b = 2;\n\
     return p; }"

(* ------------------------------------------------------------------ *)
(* Allocation checking                                                 *)
(* ------------------------------------------------------------------ *)

let test_leak_on_reassign () =
  check_codes "reassign" [ "mustfree" ]
    "extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(void) { char *p = mk(); p = mk(); free(p); }"

let test_leak_on_scope_exit () =
  check_codes "scope exit" [ "mustfree" ]
    "extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(void) { char *p = mk(); p[0] = 'a'; }"

let test_leak_fresh_return_unqualified () =
  check_codes "fresh returned unqualified" [ "mustfree" ]
    "char *f(void) { char *p = (char *) malloc(4); if (p == NULL) { exit(1); } \
     p[0] = 'a'; return p; }"

let test_only_return_ok () =
  (* the contents of the malloc'd block are undefined, so the return must
     also be declared out *)
  check_codes "only out return" []
    "/*@null@*/ /*@out@*/ /*@only@*/ char *f(void) { return (char *)      malloc(4); }";
  check_codes "without out the incompleteness is reported" [ "compdef" ]
    "/*@null@*/ /*@only@*/ char *f(void) { return (char *) malloc(4); }"

let test_use_after_free () =
  check_codes "uaf" [ "usereleased" ]
    "void f(void) { char *p = (char *) malloc(4); if (p == NULL) { exit(1); } \
     free(p); p[0] = 'a'; }"

let test_double_free () =
  check_codes "double free" [ "usereleased" ]
    "void f(void) { char *p = (char *) malloc(4); if (p == NULL) { exit(1); } \
     free(p); free(p); }"

let test_free_temp_param () =
  let r = check "void f(char *p) { free(p); }" in
  Alcotest.(check (list string)) "codes" [ "onlytrans" ] (codes r);
  Alcotest.(check string) "implicitly-temp wording"
    "Implicitly temp storage p passed as only param ptr of free"
    (first_message r)

let test_free_only_param_ok () =
  check_codes "only param freed" [] "void f(/*@only@*/ char *p) { free(p); }"

let test_only_param_leaked () =
  check_codes "only param ignored" [ "mustfree" ]
    "void f(/*@only@*/ char *p) { p[0] = 'a'; }"

let test_keep_param () =
  (* keep: callee takes the obligation, caller may still use *)
  check_codes "caller keeps using" []
    "extern void stash(/*@keep@*/ char *p);\n\
     extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     char f(void) { char *p = mk(); stash(p); return p[0]; }";
  check_codes "but caller may not free" [ "onlytrans" ]
    "extern void stash(/*@keep@*/ char *p);\n\
     extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(void) { char *p = mk(); stash(p); free(p); }"

let test_temp_not_transferred () =
  (* both Figure 4 messages: the overwritten only global leaks, and temp
     storage is transferred into an only reference *)
  check_codes "temp into only store" [ "mustfree"; "onlytrans" ]
    "extern /*@only@*/ char *g;\n\
     void f(/*@temp@*/ char *p) { g = p; }"

let test_guarded_free_idiom () =
  check_codes "if nonnull free" []
    "void f(/*@null@*/ /*@only@*/ char *p) { if (p != NULL) { free(p); } }"

let test_branchstate () =
  check_codes "freed on one path" [ "branchstate" ]
    "void f(/*@only@*/ char *p, int c) { if (c) { free(p); } else { p[0] = 'x'; } }"

let test_compdestroy () =
  (* footnote 5: freeing a structure whose only field is still live *)
  let r =
    check
      "typedef struct { /*@only@*/ char *s; } box;\n\
       void f(/*@only@*/ box *b) { free(b); }"
  in
  Alcotest.(check bool) "compdestroy" true (has_code r "compdestroy");
  check_codes "destroy fields first" []
    "typedef struct { /*@null@*/ /*@only@*/ char *s; } box;\n\
     void f(/*@only@*/ box *b) { if (b->s != NULL) { free(b->s); } free(b); }"

let test_statement_level_leak () =
  check_codes "unconsumed fresh result" [ "mustfree" ]
    "extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(void) { mk(); }"

let test_gc_mode () =
  (* Section 3: with a garbage collector, failure-to-free is not an error *)
  let flags = { paper_flags with Flags.gc_mode = true } in
  check_codes ~flags "no leak reports under +gc" []
    "extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(void) { char *p = mk(); p = mk(); p[0] = 'a'; }";
  (* but null checking is still on *)
  let r =
    check ~flags "void f(/*@null@*/ int *p) { *p = 1; }"
  in
  Alcotest.(check bool) "null still checked" true (has_code r "nullderef")

let test_free_offset_flagged () =
  let src =
    "void f(void) { char *p = (char *) malloc(8); if (p == NULL) { exit(1); } \
     p = p + 2; free(p); }"
  in
  (* missed with default flags (the paper's miss profile)... *)
  check_codes "missed by default" [] src;
  (* ...caught with the post-paper +freeoffset flag *)
  let r = check ~flags:{ paper_flags with Flags.free_offset = true } src in
  Alcotest.(check bool) "caught with flag" true (has_code r "freeoffset")

let test_free_static_flagged () =
  let src = "void f(void) { char *p = \"lit\"; free(p); }" in
  check_codes "missed by default" [] src;
  let r = check ~flags:{ paper_flags with Flags.free_static = true } src in
  Alcotest.(check bool) "caught with flag" true (has_code r "freestatic")

let test_free_null_ok () =
  (* "The ANSI Standard allows a null pointer to be passed to free" *)
  check_codes "free(NULL)" [] "void f(void) { free(NULL); }"

let test_realloc_pattern () =
  check_codes "realloc consumes and returns" []
    "extern /*@null@*/ /*@only@*/ char *g;\n\
     void grow(void) /*@globals g@*/ {\n\
     g = (char *) realloc(g, 64);\n\
     if (g == NULL) { exit(1); } }"

(* ------------------------------------------------------------------ *)
(* Aliasing and exposure                                               *)
(* ------------------------------------------------------------------ *)

let test_unique_violation_and_fix () =
  check_codes "two shareable params" [ "aliasunique" ]
    "extern void copy(/*@unique@*/ char *dst, char *src);\n\
     void f(char *a, char *b) { copy(a, b); }";
  (* fresh storage cannot alias anything *)
  check_codes "fresh arg ok" []
    "extern void copy(/*@out@*/ /*@unique@*/ char *dst, char *src);\n\
     extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
     void f(char *b) { char *a = mk(); copy(a, b); free(a); }";
  (* a unique parameter of the current function cannot be shared either *)
  check_codes "unique-to-unique ok" []
    "extern void copy(/*@out@*/ /*@unique@*/ char *dst, char *src);\n\
     void f(/*@unique@*/ char *a, char *b) { copy(a, b); }"

let test_returned_param () =
  check_codes "returned aliasing accepted" []
    "char *self(/*@returned@*/ char *p) { return p; }"

let test_observer_return () =
  (* observer results may not be released by the caller *)
  check_codes "freeing an observer" [ "onlytrans" ]
    "extern /*@observer@*/ /*@notnull@*/ char *peek(void);\n\
     void f(void) { char *p = peek(); free(p); }"

(* ------------------------------------------------------------------ *)
(* Globals and control flow                                            *)
(* ------------------------------------------------------------------ *)

let test_globals_undef () =
  check_codes "initializer may see undef global" []
    "int g;\n\
     void init(void) /*@globals undef g@*/ { g = 1; }";
  check_codes "without undef the global must stay defined" []
    "int g;\n\
     void touch(void) /*@globals g@*/ { g = g + 1; }"

let test_global_null_at_exit () =
  check_codes "fig2 shape" [ "globnull" ]
    "extern char *g; void f(/*@null@*/ char *p) { g = p; }"

let test_exits_functions () =
  (* an exits function terminates the path: no merge anomaly *)
  check_codes "exit cuts the path" []
    "int *f(/*@null@*/ int *p) { if (p == NULL) { exit(1); } return p; }"

let test_while_zero_or_one () =
  (* loop analysed as zero-or-one executions: no iteration fixpoint *)
  check_codes "loop accumulates" []
    "int f(int n) { int acc; int i; acc = 0; for (i = 0; i < n; i++) { acc = \
     acc + i; } return acc; }"

let test_switch_branches () =
  check_codes "switch arms independent" []
    "int f(int c) { int x; switch (c) { case 0: x = 1; break; default: x = 2; \
     } return x; }";
  (* missing default: the no-match path has x undefined *)
  let r =
    check
      "int f(int c) { int x; switch (c) { case 0: x = 1; break; } return x; }"
  in
  Alcotest.(check bool) "no-default leaves x undefined" true (has_code r "usedef")

let test_break_merges () =
  check_codes "break paths merge" []
    "int f(int n) { int i; for (i = 0; i < n; i++) { if (i == 3) { break; } } \
     return i; }"

let test_nested_loop_break_merge () =
  (* an inner break merges into the inner loop's exit, not the outer
     loop's: storage freed only on the break path must still be
     reconciled at the inner confluence *)
  check_codes "inner break stays inner" []
    "int f(int n) { int i; int j; int acc; acc = 0; for (i = 0; i < n; i++) { \
     for (j = 0; j < n; j++) { if (j == 2) { break; } acc = acc + 1; } acc = \
     acc + i; } return acc; }";
  let r =
    check
      "void f(int n) { int i; int *p = (int *) malloc(sizeof(int)); if (p == \
       NULL) { exit(1); } for (i = 0; i < n; i++) { if (i == 3) { free(p); \
       break; } } }"
  in
  (* freed on the break path, live on the fall-out path: the merge after
     the loop must surface the inconsistency rather than lose it *)
  Alcotest.(check bool) "break-path free caught" true
    (has_code r "branchstate" || has_code r "mustfree")

let test_nested_loop_continue_merge () =
  check_codes "continue merges into the next iteration" []
    "int f(int n) { int i; int j; int acc; acc = 0; for (i = 0; i < n; i++) { \
     for (j = 0; j < n; j++) { if (j == 1) { continue; } acc = acc + j; } } \
     return acc; }";
  (* storage freed before a continue is freed again by the loop body's
     other arm only if the merge is wrong; a definition made on every
     path up to the continue must survive the merge *)
  check_codes "defs before continue survive" []
    "int f(int n) { int i; int x; for (i = 0; i < n; i++) { x = i; if (x == \
     2) { continue; } x = x + 1; } return 0; }"

let test_nested_loop_break_undef () =
  (* a variable defined only after the inner break point is undefined on
     the break path; using it after the inner loop must be flagged *)
  let r =
    check
      "int f(int n) { int i; int j; int y; for (i = 0; i < n; i++) { for (j \
       = 0; j < n; j++) { if (j == 1) { break; } y = 1; } } return y; }"
  in
  Alcotest.(check bool) "undef on break path" true (has_code r "usedef")

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

let test_suppress_line () =
  let src =
    "void f(/*@null@*/ int *p) {\n  /*@i@*/ *p = 1;\n}"
  in
  let r = check src in
  Alcotest.(check (list string)) "suppressed" [] (codes r);
  Alcotest.(check int) "counted" 1 (List.length r.Check.suppressed)

let test_suppress_region () =
  let src =
    "void f(/*@null@*/ int *p, /*@null@*/ int *q) {\n\
     /*@ignore@*/\n\
     *p = 1;\n\
     *q = 2;\n\
     /*@end@*/\n\
     }"
  in
  let r = check src in
  Alcotest.(check (list string)) "suppressed" [] (codes r);
  Alcotest.(check int) "counted" 2 (List.length r.Check.suppressed)

let test_suppress_unmatched_end () =
  let r = check "/*@end@*/ int g;" in
  Alcotest.(check bool) "unmatched end reported" true (has_code r "suppress")

(* ------------------------------------------------------------------ *)
(* Implicit annotations end to end                                     *)
(* ------------------------------------------------------------------ *)

let test_implicit_only_return_clean () =
  (* with implicit only returns, the erc_create shape is clean *)
  let r = check ~flags:Flags.default Corpus.Figures.fig7_erc_create in
  Alcotest.(check (list string)) "clean" [] (codes r)

let test_annotation_error_reported () =
  let r = check "void f(/*@only@*/ /*@temp@*/ char *p) { free(p); }" in
  Alcotest.(check bool) "conflict reported" true (has_code r "annot")


(* ------------------------------------------------------------------ *)
(* Extensions: observer modification, ablation flags, spec mode        *)
(* ------------------------------------------------------------------ *)

let test_modobserver () =
  let r =
    check
      "typedef struct { int n; } box;\n\
       extern /*@observer@*/ /*@notnull@*/ box *peek(void);\n\
       void f(void) { box *b = peek(); b->n = 3; }"
  in
  Alcotest.(check bool) "modification reported" true (has_code r "modobserver")

let test_ablation_guards () =
  (* disabling guard refinement loses the Figure 3 fix *)
  let flags = { paper_flags with Flags.guard_refinement = false } in
  let r = check ~flags Corpus.Figures.fig3_sample_fixed in
  Alcotest.(check bool) "false positive without guards" true
    (r.Check.reports <> []);
  (* and the full analysis is clean *)
  check_codes "clean with guards" [] Corpus.Figures.fig3_sample_fixed

let test_ablation_aliases () =
  (* without alias tracking, exit checks cannot see what happened to the
     externally visible parameter: the clean db stage grows noise *)
  let flags = { Corpus.Employee_db.paper_flags with Flags.alias_tracking = false } in
  let r = Corpus.Employee_db.check ~flags Corpus.Employee_db.max_stage in
  let full = Corpus.Employee_db.check ~flags:Corpus.Employee_db.paper_flags
      Corpus.Employee_db.max_stage in
  Alcotest.(check int) "full analysis clean" 0 (List.length full.Check.reports);
  Alcotest.(check bool) "ablated analysis degrades" true
    (List.length r.Check.reports > 0)

(* The core of the standard library in the paper's LCL notation
   (annotations as bare words), analysed in spec mode. *)
let lcl_core = {|
typedef unsigned long size_t;

null out only void *malloc(size_t size);
null only void *calloc(size_t nmemb, size_t size);
null out only void *aligned_alloc(size_t alignment, size_t size);
null only void *realloc(null only void *ptr, size_t size);
null only void *reallocarray(null only void *ptr, size_t nmemb, size_t size);
void free(null out only void *ptr);

exits void exit(int status);
exits void abort(void);

char *strcpy(out returned unique char *s1, char *s2);
char *strcat(returned unique char *s1, char *s2);
int strcmp(char *s1, char *s2);
size_t strlen(char *s);
null only char *strdup(char *s);
|}

let lcl_environment ?(flags = Flags.default) () =
  let prog = Sema.create_program ~flags ~file:"<stdlib.lcl>" () in
  ignore
    (Sema.analyze_spec_string ~flags ~into:prog ~file:"<stdlib.lcl>" lcl_core);
  prog

let test_spec_mode_stdlib () =
  (* the LCL-notation library provides the same malloc contract *)
  let prog = lcl_environment () in
  let fs = Option.get (Sema.find_func prog "malloc") in
  let an = fs.Sema.fs_ret_annots.Sema.an in
  Alcotest.(check bool) "null out only" true
    (an.Annot.an_null = Some Annot.Null
    && an.Annot.an_def = Some Annot.Out
    && an.Annot.an_alloc = Some Annot.Only)

let test_check_against_lcl_library () =
  (* checking user code against the LCL-notation library behaves like the
     comment-notation one *)
  let flags = paper_flags in
  let prog = lcl_environment ~flags () in
  let r = Check.run ~flags ~into:prog ~file:"t.c"
      "void f(void) { char *p = (char *) malloc(4); if (p == NULL) { \
       exit(1); } p[0] = 'a'; }"
  in
  Alcotest.(check (list string)) "leak found" [ "mustfree" ] (codes r)

let extension_tests =
  [
    Alcotest.test_case "observer modification" `Quick test_modobserver;
    Alcotest.test_case "ablation: guards" `Quick test_ablation_guards;
    Alcotest.test_case "ablation: aliases" `Quick test_ablation_aliases;
    Alcotest.test_case "LCL stdlib" `Quick test_spec_mode_stdlib;
    Alcotest.test_case "check vs LCL library" `Quick test_check_against_lcl_library;
  ]


(* ------------------------------------------------------------------ *)
(* Reference counting (the [3] extension: refcounted/newref/killref)   *)
(* ------------------------------------------------------------------ *)

let rc_decls =
  "typedef /*@refcounted@*/ struct _rc { int count; int data; } *rc;\n\
   extern /*@newref@*/ /*@notnull@*/ rc rc_create(int data);\n\
   extern /*@newref@*/ /*@notnull@*/ rc rc_ref(/*@tempref@*/ rc r);\n\
   extern void rc_release(/*@killref@*/ rc r);\n"

let test_refcount_balanced () =
  check_codes "create/release balanced" []
    (rc_decls
    ^ "int f(void) { rc r = rc_create(1); int d = r->data; rc_release(r); \
       return d; }")

let test_refcount_missing_release () =
  let r =
    check (rc_decls ^ "int f(void) { rc r = rc_create(1); return r->data; }")
  in
  Alcotest.(check bool) "reference leak" true (has_code r "mustfree")

let test_refcount_double_release () =
  let r =
    check
      (rc_decls
      ^ "void f(void) { rc r = rc_create(1); rc_release(r); rc_release(r); }")
  in
  Alcotest.(check bool) "double release flagged" true (has_code r "refcount")

let test_refcount_tempref_no_consume () =
  check_codes "tempref leaves the reference live" []
    (rc_decls
    ^ "/*@newref@*/ rc dup(void) { rc r = rc_create(1); rc extra = \
       rc_ref(r); rc_release(r); return extra; }")

let test_refcount_killref_param () =
  (* a killref parameter arrives with an obligation the callee must meet *)
  check_codes "consumed" []
    (rc_decls ^ "void sink(/*@killref@*/ rc r) { rc_release(r); }");
  let r =
    check (rc_decls ^ "void sink(/*@killref@*/ rc r) { int d = r->data; }")
  in
  Alcotest.(check bool) "unconsumed killref param" true (has_code r "mustfree")

let test_refcount_incompatible_annots () =
  let r =
    check
      "typedef struct _x { int n; } *x;\n\
       extern void bad(/*@killref@*/ /*@tempref@*/ x v);"
  in
  Alcotest.(check bool) "killref+tempref rejected" true (has_code r "annot")

(* [Annot.validate] rejects reference-count annotations on the wrong
   slot with a message naming that slot *)
let test_newref_on_param () =
  let r =
    check
      "typedef struct _x { int n; } *x;\n\
       extern void bad(/*@newref@*/ x v);"
  in
  Alcotest.(check bool) "newref on a parameter rejected" true
    (has_code r "annot");
  Alcotest.(check string) "message names the parameter"
    "newref declared on parameter v: newref describes a returned \
     reference (a parameter reference is consumed with killref or \
     borrowed with tempref)"
    (first_message r)

let test_killref_on_return () =
  let r =
    check
      "typedef struct _x { int n; } *x;\n\
       extern /*@killref@*/ x bad(void);"
  in
  Alcotest.(check bool) "killref on a return slot rejected" true
    (has_code r "annot");
  Alcotest.(check string) "message names the function"
    "killref declared on the return value of bad: killref consumes a \
     parameter reference (a returned new reference is declared newref)"
    (first_message r)

let refcount_tests =
  [
    Alcotest.test_case "balanced" `Quick test_refcount_balanced;
    Alcotest.test_case "missing release" `Quick test_refcount_missing_release;
    Alcotest.test_case "double release" `Quick test_refcount_double_release;
    Alcotest.test_case "tempref" `Quick test_refcount_tempref_no_consume;
    Alcotest.test_case "killref param" `Quick test_refcount_killref_param;
    Alcotest.test_case "incompatible" `Quick test_refcount_incompatible_annots;
    Alcotest.test_case "newref on param" `Quick test_newref_on_param;
    Alcotest.test_case "killref on return" `Quick test_killref_on_return;
  ]

(* ------------------------------------------------------------------ *)
(* The allocator model (+allocmodel): path-sensitive realloc           *)
(* ------------------------------------------------------------------ *)

(* [p = realloc(p, n)] with [p] the only live reference: on the
   NULL-return branch the old block is still allocated but its last
   reference is gone.  Under the paper's only/null modeling the [only]
   argument is consumed on every path, so the defaults stay silent; the
   allocator model reports it as [realloclost]. *)
let lost_realloc_src =
  "void f(void) {\n\
  \  char *p = (char *) malloc(1);\n\
  \  if (p == NULL) { exit(1); }\n\
  \  p[0] = 'x';\n\
  \  p = (char *) realloc(p, 2);\n\
  \  if (p == NULL) { exit(1); }\n\
  \  free(p);\n\
   }\n"

let am_flags = { Flags.default with Flags.alloc_model = true }

let test_allocmodel_realloc_lost () =
  check_codes ~flags:Flags.default "missed by default" [] lost_realloc_src;
  let r = check ~flags:am_flags lost_realloc_src in
  Alcotest.(check (list string)) "codes" [ "realloclost" ] (codes r);
  match r.Check.reports with
  | [ d ] -> (
      Alcotest.(check string) "message"
        "Last reference p to the pre-realloc block overwritten with the \
         result of realloc: storage is lost if the allocation fails \
         (memory leak)"
        d.Cfront.Diag.text;
      Alcotest.(check int) "line" 5 d.Cfront.Diag.loc.Cfront.Loc.line;
      match d.Cfront.Diag.notes with
      | [ n ] ->
          Alcotest.(check string) "note"
            "Result of realloc may be null while storage p is still \
             allocated"
            n.Cfront.Diag.ntext
      | _ -> Alcotest.fail "expected one note")
  | _ -> Alcotest.fail "expected one report"

let test_allocmodel_realloc_tmp_ok () =
  (* the idiomatic fix keeps a second reference across the call *)
  check_codes ~flags:am_flags "tmp idiom stays clean" []
    "void f(void) {\n\
    \  char *p = (char *) malloc(1);\n\
    \  char *tmp;\n\
    \  if (p == NULL) { exit(1); }\n\
    \  p[0] = 'x';\n\
    \  tmp = (char *) realloc(p, 2);\n\
    \  if (tmp == NULL) { free(p); exit(1); }\n\
    \  p = tmp;\n\
    \  free(p);\n\
     }\n"

let test_allocmodel_reallocarray_lost () =
  let r =
    check ~flags:am_flags
      "void f(void) {\n\
      \  char *p = (char *) malloc(1);\n\
      \  if (p == NULL) { exit(1); }\n\
      \  p[0] = 'x';\n\
      \  p = (char *) reallocarray(p, 2, 1);\n\
      \  if (p == NULL) { exit(1); }\n\
      \  free(p);\n\
       }\n"
  in
  Alcotest.(check (list string)) "codes" [ "realloclost" ] (codes r);
  Alcotest.(check string) "message names reallocarray"
    "Last reference p to the pre-realloc block overwritten with the \
     result of reallocarray: storage is lost if the allocation fails \
     (memory leak)"
    (first_message r)

let test_calloc_zero_bookkeeping () =
  (* calloc's result arrives zeroed, so reading it is defined ... *)
  check_codes "calloc result readable" []
    "int g(void) {\n\
    \  int *p = (int *) calloc(4, sizeof(int));\n\
    \  int v;\n\
    \  if (p == NULL) { exit(1); }\n\
    \  v = *p;\n\
    \  free(p);\n\
    \  return v;\n\
     }\n";
  (* ... while malloc's does not *)
  let r =
    check
      "int g(void) {\n\
      \  int *p = (int *) malloc(16);\n\
      \  int v;\n\
      \  if (p == NULL) { exit(1); }\n\
      \  v = *p;\n\
      \  free(p);\n\
      \  return v;\n\
       }\n"
  in
  Alcotest.(check bool) "malloc result undefined" true (has_code r "usedef")

let test_aligned_alloc_modeled () =
  check_codes "aligned_alloc alloc/free balanced" []
    "void f(void) {\n\
    \  char *p = (char *) aligned_alloc(16, 32);\n\
    \  if (p == NULL) { exit(1); }\n\
    \  p[0] = 'x';\n\
    \  free(p);\n\
     }\n";
  let r =
    check
      "void f(void) {\n\
      \  char *p = (char *) aligned_alloc(16, 32);\n\
      \  if (p == NULL) { exit(1); }\n\
      \  p[0] = 'x';\n\
       }\n"
  in
  Alcotest.(check bool) "aligned_alloc result carries only" true
    (has_code r "mustfree")

let allocmodel_tests =
  [
    Alcotest.test_case "realloc lost" `Quick test_allocmodel_realloc_lost;
    Alcotest.test_case "realloc tmp ok" `Quick test_allocmodel_realloc_tmp_ok;
    Alcotest.test_case "reallocarray lost" `Quick
      test_allocmodel_reallocarray_lost;
    Alcotest.test_case "calloc zeroed" `Quick test_calloc_zero_bookkeeping;
    Alcotest.test_case "aligned_alloc" `Quick test_aligned_alloc_modeled;
  ]

(* ------------------------------------------------------------------ *)
(* The refstrings corpus gate (the [3] extension, end to end)          *)
(* ------------------------------------------------------------------ *)

let test_refstrings_balanced_gate () =
  let r = Corpus.Refstrings.check Corpus.Refstrings.client_balanced in
  Alcotest.(check (list string)) "refstrings + balanced client" [] (codes r)

let test_refstrings_leaky_gate () =
  let r = Corpus.Refstrings.check Corpus.Refstrings.client_leaky in
  Alcotest.(check (list string)) "codes" [ "mustfree" ] (codes r);
  match r.Check.reports with
  | [ d ] -> (
      Alcotest.(check string) "message"
        "Only storage b not released before scope exit" d.Cfront.Diag.text;
      Alcotest.(check int) "line" 52 d.Cfront.Diag.loc.Cfront.Loc.line;
      match d.Cfront.Diag.notes with
      | [ n ] ->
          Alcotest.(check string) "note" "Storage b becomes only"
            n.Cfront.Diag.ntext;
          Alcotest.(check int) "note line" 47
            n.Cfront.Diag.nloc.Cfront.Loc.line
      | _ -> Alcotest.fail "expected one note")
  | _ -> Alcotest.fail "expected one report"

let refstrings_gate_tests =
  [
    Alcotest.test_case "balanced" `Quick test_refstrings_balanced_gate;
    Alcotest.test_case "leaky" `Quick test_refstrings_leaky_gate;
  ]


(* ------------------------------------------------------------------ *)
(* Modifies clauses (Section 2's "constraints on what may be modified") *)
(* ------------------------------------------------------------------ *)

let test_modifies_respected () =
  check_codes "listed modification ok" []
    "int g;\nvoid bump(void) /*@globals g@*/ /*@modifies g@*/ { g = g + 1; }"

let test_modifies_violation () =
  let r =
    check
      "int g1;\nint g2;\nvoid touch(void) /*@globals g1; g2@*/ /*@modifies \
       g1@*/ { g1 = 1; g2 = 2; }"
  in
  Alcotest.(check bool) "undocumented modification" true (has_code r "modifies")

let test_modifies_nothing () =
  check_codes "pure function ok" []
    "int pure(int x) /*@modifies nothing@*/ { int y; y = x + 1; return y; }";
  let r =
    check
      "int g;\nvoid bad(void) /*@globals g@*/ /*@modifies nothing@*/ { g = \
       1; }"
  in
  Alcotest.(check bool) "nothing means nothing" true (has_code r "modifies")

let test_modifies_locals_free () =
  (* locals are never externally visible: no constraint *)
  check_codes "locals unconstrained" []
    "int f(void) /*@modifies nothing@*/ { int a; a = 1; a = 2; return a; }"

let modifies_tests =
  [
    Alcotest.test_case "respected" `Quick test_modifies_respected;
    Alcotest.test_case "violation" `Quick test_modifies_violation;
    Alcotest.test_case "nothing" `Quick test_modifies_nothing;
    Alcotest.test_case "locals free" `Quick test_modifies_locals_free;
  ]

(* ------------------------------------------------------------------ *)
(* Declared blind spots (footnote 8 / Section 7)                       *)
(* ------------------------------------------------------------------ *)

(* The differential oracle (lib/difftest) excuses exactly these error
   classes, and its [blind_spots] entries cite the cases below by name
   ("test_check.ml: blind-spots/<case>").  Each case pins the
   default-flags miss on a minimal program; where a recovery flag
   exists it also pins the catch, and where none does it pins that the
   footnote-8 flags do NOT help.  If one of these starts failing, the
   checker's miss profile changed and Difftest.blind_spots (plus
   docs/testing.md's taxonomy) must change with it. *)

type blind_spot_case = {
  bc_name : string;  (** = the suffix of the oracle's [bs_cite] *)
  bc_src : string;
  bc_default_codes : string list;
      (** exact codes under default flags — usually nothing at all; the
          loop-carried cases surface only a path-merge [branchstate],
          never the witnessing error class *)
  bc_recover : (Flags.t * string) option;
      (** recovery flags and the code they surface, when any exist *)
}

let blind_spot_cases =
  [
    {
      bc_name = "free-offset";
      bc_src =
        "void f(void) { char *p = (char *) malloc(8); if (p == NULL) { \
         exit(1); } p = p + 2; free(p); }";
      bc_default_codes = [];
      bc_recover =
        Some ({ Flags.default with Flags.free_offset = true }, "freeoffset");
    };
    {
      bc_name = "free-static";
      bc_src = "void f(void) { char *p = \"lit\"; free(p); }";
      bc_default_codes = [];
      bc_recover =
        Some ({ Flags.default with Flags.free_static = true }, "freestatic");
    };
    {
      bc_name = "global-leak";
      bc_src =
        "typedef struct _rec { int id; } rec;\n\
         static /*@null@*/ /*@only@*/ rec *cache;\n\
         /*@only@*/ rec *mk(void) {\n\
        \  rec *r = (rec *) malloc(sizeof(rec));\n\
        \  if (r == NULL) { exit(1); }\n\
        \  r->id = 1;\n\
        \  return r;\n\
         }\n\
         void stash(void) {\n\
        \  if (cache != NULL) { free(cache); }\n\
        \  cache = mk();\n\
         }\n";
      bc_default_codes = [];
      bc_recover = None;
    };
    (* the loop-carried classes: each needs a loop back edge to manifest,
       which the paper's zero-or-one-times heuristic never follows
       (Section 5: "loop bodies are analyzed as though they execute
       either zero or one times") *)
    {
      bc_name = "loop-leak";
      bc_src =
        "void f(void) { char *p = NULL; int i; i = 0; while (i < 3) { p = \
         (char *) malloc(16); if (p == NULL) { exit(1); } i = i + 1; } if (p \
         != NULL) { free(p); } }";
      bc_default_codes = [];
      bc_recover =
        Some ({ Flags.default with Flags.loop_exec = true }, "mustfree");
    };
    {
      bc_name = "loop-use-after-free";
      bc_src =
        "typedef struct _rec { int w; } rec;\n\
         void f(void) { rec *r = (rec *) malloc(sizeof(rec)); int i; if (r \
         == NULL) { exit(1); } i = 0; while (1) { r->w = i; if (i == 1) { \
         break; } free(r); i = i + 1; } }";
      bc_default_codes = [ "branchstate"; "branchstate" ];
      bc_recover =
        Some ({ Flags.default with Flags.loop_exec = true }, "usereleased");
    };
    {
      bc_name = "loop-null-deref";
      bc_src =
        "void f(void) { char *p = (char *) malloc(8); int i; if (p == NULL) \
         { exit(1); } i = 0; while (i < 3) { *p = 'x'; if (i == 1) { \
         free(p); p = NULL; } i = i + 1; } if (p != NULL) { free(p); } }";
      bc_default_codes = [ "branchstate" ];
      bc_recover =
        Some ({ Flags.default with Flags.loop_exec = true }, "nullderef");
    };
    (* the lost-realloc leak lives on the allocation-failure path the
       only/null modeling cannot distinguish: the only argument is
       consumed on every path, so without the allocator model the
       overwrite looks like an ordinary transfer *)
    {
      bc_name = "realloc-lost";
      bc_src = lost_realloc_src;
      bc_default_codes = [];
      bc_recover = Some (am_flags, "realloclost");
    };
    (* cross-function blind spots: the release hides in a locally
       unannotated callee, so the default call-site transfer has no
       annotation to act on; [+xproc] derives the effect bottom-up (the
       helper-internal [onlytrans] is leak-class noise, never the
       witnessing error class) *)
    {
      bc_name = "xproc-use-after-free";
      bc_src =
        "void drop(char *r) { free(r); }\n\
         int f(void) {\n\
        \  char *p = (char *) malloc(1);\n\
        \  if (p == NULL) { return 1; }\n\
        \  p[0] = 'x';\n\
        \  drop(p);\n\
        \  int v = p[0];\n\
        \  return v;\n\
         }\n";
      bc_default_codes = [ "onlytrans"; "mustfree" ];
      bc_recover =
        Some ({ Flags.default with Flags.xproc = true }, "usereleased");
    };
    {
      bc_name = "xproc-double-free";
      bc_src =
        "void drop(char *r) { free(r); }\n\
         void g(void) {\n\
        \  char *p = (char *) malloc(1);\n\
        \  if (p == NULL) { exit(1); }\n\
        \  p[0] = 'x';\n\
        \  drop(p);\n\
        \  free(p);\n\
         }\n";
      bc_default_codes = [ "onlytrans" ];
      bc_recover =
        Some ({ Flags.default with Flags.xproc = true }, "usereleased");
    };
    (* a borrowed (dependent) alias used after the last reference is
       released: the refcount extension tracks reference balance, not
       alias lifetimes, so no flag recovers this one *)
    {
      bc_name = "refcount-use";
      bc_src =
        "typedef /*@refcounted@*/ struct _rc { int count; int data; } *rc;\n\
         extern /*@newref@*/ /*@notnull@*/ rc rc_create(int data);\n\
         extern void rc_release(/*@killref@*/ rc r);\n\
         static /*@null@*/ /*@dependent@*/ rc borrowed;\n\
         void stash(/*@dependent@*/ rc r) { borrowed = r; }\n\
         int f(void) {\n\
        \  rc r = rc_create(1);\n\
        \  stash(r);\n\
        \  rc_release(r);\n\
        \  if (borrowed != NULL) { return borrowed->data; }\n\
        \  return 0;\n\
         }\n";
      bc_default_codes = [];
      bc_recover = None;
    };
  ]

let test_blind_spot (c : blind_spot_case) () =
  (* missed under the oracle's flags (plain defaults, not paper_flags):
     the pinned default codes never include the witnessing class *)
  check_codes ~flags:Flags.default (c.bc_name ^ ": missed by default")
    c.bc_default_codes c.bc_src;
  (match c.bc_recover with
  | Some (flags, code) ->
      let r = check ~flags c.bc_src in
      Alcotest.(check bool)
        (c.bc_name ^ ": caught under the recovery flag")
        true (has_code r code)
  | None ->
      (* no recovery exists: the footnote-8 flags must not surface it *)
      check_codes
        ~flags:
          { Flags.default with Flags.free_offset = true; free_static = true }
        (c.bc_name ^ ": unrecoverable")
        [] c.bc_src);
  (* the oracle must excuse this class and cite this very case *)
  match
    List.find_opt
      (fun (bs : Difftest.blind_spot) -> bs.Difftest.bs_class = c.bc_name)
      (Difftest.blind_spots Flags.default)
  with
  | None ->
      Alcotest.failf "Difftest.blind_spots does not excuse %s" c.bc_name
  | Some bs ->
      Alcotest.(check string)
        (c.bc_name ^ ": oracle cites this test")
        ("test_check.ml: blind-spots/" ^ c.bc_name)
        bs.Difftest.bs_cite

let blind_spot_tests =
  List.map
    (fun c -> Alcotest.test_case c.bc_name `Quick (test_blind_spot c))
    blind_spot_cases

(* ------------------------------------------------------------------ *)
(* +loopexec: loop bodies re-analysed to a store fixpoint              *)
(* ------------------------------------------------------------------ *)

let loopexec_flags = { Flags.default with Flags.loop_exec = true }

(* a clean linked-list walk: the derivation [n = n->next] would grow an
   unbounded sref chain without the depth cap, and the def/null states
   oscillate until widened *)
let list_walk_src =
  "typedef struct _node { int v; /*@null@*/ struct _node *next; } node;\n\
   int sum(/*@null@*/ /*@temp@*/ node *n) {\n\
  \  int s;\n\
  \  s = 0;\n\
  \  while (n != NULL) {\n\
  \    s = s + n->v;\n\
  \    n = n->next;\n\
  \  }\n\
  \  return s;\n\
   }\n"

let loop_leak_src =
  "void f(void) { char *p = NULL; int i; i = 0; while (i < 3) { p = (char \
   *) malloc(16); if (p == NULL) { exit(1); } i = i + 1; } if (p != NULL) { \
   free(p); } }"

(* run [f] with telemetry collection on, returning (result, counter
   deltas for the three loop counters) *)
let with_loop_counters f =
  Telemetry.set_enabled true;
  let read () =
    Telemetry.Counter.
      ( value Telemetry.c_loop_fixpoint_iters,
        value Telemetry.c_loop_widenings,
        value Telemetry.c_loop_bailouts )
  in
  let i0, w0, b0 = read () in
  let r = f () in
  let i1, w1, b1 = read () in
  Telemetry.set_enabled false;
  (r, (i1 - i0, w1 - w0, b1 - b0))

let test_loopexec_convergence () =
  (* the list walk converges within the default bound, stays silent, and
     the sref depth cap keeps the chase finite (no bailout) *)
  let r, (iters, widenings, bailouts) =
    with_loop_counters (fun () -> check ~flags:loopexec_flags list_walk_src)
  in
  Alcotest.(check (list string)) "clean walk stays clean" [] (codes r);
  Alcotest.(check bool) "at least one fixpoint round" true (iters >= 1);
  Alcotest.(check bool) "within the default bound" true
    (iters <= Flags.default.Flags.loop_iter);
  Alcotest.(check bool) "the entry store widened at least once" true
    (widenings >= 1);
  Alcotest.(check int) "no bailout" 0 bailouts

let test_loopexec_bailout () =
  (* an iteration bound of 1 cannot reach the fixpoint: the loop must
     bail out (counted) and reproduce the heuristic's verdict exactly *)
  let tight = { loopexec_flags with Flags.loop_iter = 1 } in
  let r, (_, _, bailouts) =
    with_loop_counters (fun () -> check ~flags:tight loop_leak_src)
  in
  Alcotest.(check bool) "bailout counted" true (bailouts >= 1);
  let r0 = check ~flags:Flags.default loop_leak_src in
  Alcotest.(check (list string)) "bailout reproduces the heuristic"
    (codes r0) (codes r)

let test_loopexec_widen_oscillating_null () =
  (* p is notnull on loop entry and re-nulled on one body path: the
     null states oscillate until widened to possnull, at which point the
     dereference at the top of the body is flagged *)
  let r =
    check ~flags:loopexec_flags
      "void f(void) { char *p = (char *) malloc(8); int i; if (p == NULL) { \
       exit(1); } i = 0; while (i < 3) { *p = 'x'; if (i == 1) { free(p); p \
       = NULL; } i = i + 1; } if (p != NULL) { free(p); } }"
  in
  Alcotest.(check bool) "re-null across the back edge caught" true
    (has_code r "nullderef")

let test_loopexec_continue_feeds_back_edge () =
  (* storage freed only on a continue path must reach the next
     iteration's entry: the use at the top of the body is then a use of
     released storage *)
  let r =
    check ~flags:loopexec_flags
      "void f(void) { char *p = (char *) malloc(8); int i; if (p == NULL) { \
       exit(1); } i = 0; while (i < 3) { *p = 'x'; if (i == 0) { free(p); i \
       = i + 1; continue; } i = i + 1; } }"
  in
  Alcotest.(check bool) "continue store feeds the back edge" true
    (has_code r "usereleased")

let test_loopexec_break_feeds_exit () =
  (* a definition made only on the break path is undefined on the
     fall-out path: the merge at the loop exit must see both stores in
     fixpoint mode too *)
  let r =
    check ~flags:loopexec_flags
      "int f(int n) { int i; int y; i = 0; while (i < n) { if (i == 3) { y \
       = 1; break; } i = i + 1; } return y; }"
  in
  Alcotest.(check bool) "break store reaches the loop exit" true
    (has_code r "usedef")

(* the Sdo at-least-once pins: the paper treats do bodies as executing
   at least once, so anomalies inside the body must surface under the
   default heuristic, not only under +loopexec *)

let test_do_body_usedef_default () =
  let r =
    check ~flags:Flags.default
      "int f(void) { int s; int x; s = 0; do { s = s + x; } while (s < 3); \
       return s; }"
  in
  Alcotest.(check bool) "use-before-def inside a do body" true
    (has_code r "usedef")

let test_do_body_release_default () =
  check_codes ~flags:Flags.default "release inside a do body is seen" []
    "void f(void) { char *p = (char *) malloc(8); if (p == NULL) { exit(1); \
     } do { free(p); } while (0); }"

let test_do_at_least_once_loopexec () =
  let r =
    check ~flags:loopexec_flags
      "int f(void) { int s; int x; s = 0; do { s = s + x; } while (s < 3); \
       return s; }"
  in
  Alcotest.(check bool) "do body analysed at least once under +loopexec" true
    (has_code r "usedef")

(* what sema reports about a loop body is reported once, not once per
   fixpoint round: an exploratory round checks against its own overlay
   of the program, whose reports vanish with the round *)
let test_loopexec_sema_reports_once () =
  let src =
    "void z(void) { typedef int ghost_t; }\n\
     int h(void) { int i; for (i = 0; i < 3; i++) { ghost_t x; x = i; } \
     return 0; }\n"
  in
  let lines flags =
    List.map
      (fun (d : Cfront.Diag.t) ->
        Printf.sprintf "%d,%d: %s" d.Cfront.Diag.loc.Cfront.Loc.line
          d.Cfront.Diag.loc.Cfront.Loc.col d.Cfront.Diag.text)
      (check ~flags src).Check.reports
  in
  let expected = [ "2,56: unknown type name 'ghost_t'" ] in
  Alcotest.(check (list string)) "default" expected (lines paper_flags);
  Alcotest.(check (list string)) "+loopexec" expected
    (lines { paper_flags with Flags.loop_exec = true })

let loopexec_tests =
  [
    Alcotest.test_case "convergence within bound" `Quick
      test_loopexec_convergence;
    Alcotest.test_case "bailout at loopiter=1" `Quick test_loopexec_bailout;
    Alcotest.test_case "oscillating null widened" `Quick
      test_loopexec_widen_oscillating_null;
    Alcotest.test_case "continue feeds back edge" `Quick
      test_loopexec_continue_feeds_back_edge;
    Alcotest.test_case "break feeds exit" `Quick test_loopexec_break_feeds_exit;
    Alcotest.test_case "do usedef (default)" `Quick test_do_body_usedef_default;
    Alcotest.test_case "do release (default)" `Quick
      test_do_body_release_default;
    Alcotest.test_case "do at-least-once (+loopexec)" `Quick
      test_do_at_least_once_loopexec;
    Alcotest.test_case "sema reports once (+loopexec)" `Quick
      test_loopexec_sema_reports_once;
  ]

(* ------------------------------------------------------------------ *)
(* Work per body                                                       *)
(* ------------------------------------------------------------------ *)

(* Checking a body costs what that body costs, whatever else the program
   holds: a block-scope [extern] in every body must not make a check
   touch the whole program.  Minor words are deterministic, so doubling
   the bodies may at most 2.5x the words [check_program] allocates. *)
let test_block_extern_work_linear () =
  let words n =
    let src = Buffer.create (n * 48) in
    for i = 1 to n do
      Printf.bprintf src "int f%d(void) { extern int gI; return gI; }\n" i
    done;
    let prog = Sema.analyze_string ~file:"x.c" (Buffer.contents src) in
    let before = Gc.minor_words () in
    ignore (Check.Checker.check_program prog);
    Gc.minor_words () -. before
  in
  let w1000 = words 1000 in
  let w2000 = words 2000 in
  if w2000 > 2.5 *. w1000 then
    Alcotest.failf "2000 bodies allocate %.0f words, %.2fx the %.0f of 1000"
      w2000 (w2000 /. w1000) w1000

(* A dereference that reports nothing formats nothing: the nullderef
   text, and every other message text, is built only when the message is
   emitted.  A progen [mN_cloneK]-shaped body (create, copy a field, a
   guarded call, return) reports nothing, so after one warm-up call (which
   interns its references) a check allocates only the stores, values and
   scopes it keeps: at most 4000 minor words (5278 when every [p->f]
   formatted its access string).  Words, not time: they are the same on
   every run. *)
let test_quiet_check_words () =
  let src =
    "typedef struct _m_rec { int id; int weight;\n\
    \  /*@null@*/ /*@only@*/ char *label; char tag[8]; } m_rec;\n\
     /*@only@*/ m_rec *m_create(int id);\n\
     void m_set_label(m_rec *r, char *text);\n\
     /*@only@*/ m_rec *m_clone(m_rec *r)\n\
     {\n\
    \  m_rec *c = m_create(r->id);\n\
    \  c->weight = r->weight;\n\
    \  if (r->label != NULL) {\n\
    \    m_set_label(c, r->label);\n\
    \  }\n\
    \  return c;\n\
     }\n"
  in
  let prog = Stdspec.load (List.to_seq [ ("t.c", src) ]) in
  let fs, fd =
    match Sema.fundefs prog with
    | [ def ] -> def
    | _ -> Alcotest.fail "expected one definition"
  in
  let check_once () =
    let diags = Cfront.Diag.Collector.create () in
    Check.Checker.check_fundef ~diags prog fs fd;
    Cfront.Diag.Collector.all diags
  in
  Alcotest.(check int) "reports nothing" 0 (List.length (check_once ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (check_once ()));
  let words = Gc.minor_words () -. before in
  if words > 4000. then
    Alcotest.failf "a quiet clone body allocates %.0f words per check" words

let () =
  Alcotest.run "check"
    [
      ( "figures",
        [
          Alcotest.test_case "fig1 clean" `Quick test_fig1_unannotated_clean;
          Alcotest.test_case "fig2 message" `Quick test_fig2_message;
          Alcotest.test_case "fig3 fixed" `Quick test_fig3_fixed;
          Alcotest.test_case "fig4 messages" `Quick test_fig4_messages;
          Alcotest.test_case "fig5 anomalies" `Quick test_fig5_messages;
          Alcotest.test_case "fig5 fixed" `Quick test_fig5_fixed;
          Alcotest.test_case "fig7 erc_create" `Quick test_fig7_erc_create;
          Alcotest.test_case "fig8 strcpy unique" `Quick test_fig8_strcpy_unique;
        ] );
      ( "null",
        [
          Alcotest.test_case "deref" `Quick test_null_deref;
          Alcotest.test_case "access renderings" `Quick
            test_null_deref_renderings;
          Alcotest.test_case "guards" `Quick test_null_guards;
          Alcotest.test_case "wrong branch" `Quick test_null_wrong_branch;
          Alcotest.test_case "truenull/falsenull" `Quick test_truenull_falsenull;
          Alcotest.test_case "assert" `Quick test_assert_refines;
          Alcotest.test_case "nullpass" `Quick test_nullpass;
          Alcotest.test_case "nullret" `Quick test_nullret;
          Alcotest.test_case "relnull" `Quick test_relnull;
          Alcotest.test_case "nullderive" `Quick test_nullderive;
        ] );
      ( "definition",
        [
          Alcotest.test_case "use before def" `Quick test_use_before_def;
          Alcotest.test_case "branch-only def" `Quick test_use_undef_branch;
          Alcotest.test_case "out params" `Quick test_out_param;
          Alcotest.test_case "out completion" `Quick test_out_param_completion;
          Alcotest.test_case "compdef at call" `Quick test_compdef_at_call;
          Alcotest.test_case "malloc completion" `Quick test_completion_after_malloc;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "leak on reassign" `Quick test_leak_on_reassign;
          Alcotest.test_case "leak on scope exit" `Quick test_leak_on_scope_exit;
          Alcotest.test_case "fresh return unqualified" `Quick test_leak_fresh_return_unqualified;
          Alcotest.test_case "only return ok" `Quick test_only_return_ok;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "free temp param" `Quick test_free_temp_param;
          Alcotest.test_case "free only param" `Quick test_free_only_param_ok;
          Alcotest.test_case "only param leaked" `Quick test_only_param_leaked;
          Alcotest.test_case "keep param" `Quick test_keep_param;
          Alcotest.test_case "temp not transferred" `Quick test_temp_not_transferred;
          Alcotest.test_case "guarded free" `Quick test_guarded_free_idiom;
          Alcotest.test_case "branchstate" `Quick test_branchstate;
          Alcotest.test_case "compdestroy" `Quick test_compdestroy;
          Alcotest.test_case "statement-level leak" `Quick test_statement_level_leak;
          Alcotest.test_case "gc mode" `Quick test_gc_mode;
          Alcotest.test_case "free offset flag" `Quick test_free_offset_flagged;
          Alcotest.test_case "free static flag" `Quick test_free_static_flagged;
          Alcotest.test_case "free(NULL)" `Quick test_free_null_ok;
          Alcotest.test_case "realloc" `Quick test_realloc_pattern;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "unique" `Quick test_unique_violation_and_fix;
          Alcotest.test_case "returned" `Quick test_returned_param;
          Alcotest.test_case "observer" `Quick test_observer_return;
        ] );
      ( "globals-and-flow",
        [
          Alcotest.test_case "globals undef" `Quick test_globals_undef;
          Alcotest.test_case "global null at exit" `Quick test_global_null_at_exit;
          Alcotest.test_case "exits functions" `Quick test_exits_functions;
          Alcotest.test_case "while zero-or-one" `Quick test_while_zero_or_one;
          Alcotest.test_case "switch" `Quick test_switch_branches;
          Alcotest.test_case "break" `Quick test_break_merges;
          Alcotest.test_case "nested break" `Quick test_nested_loop_break_merge;
          Alcotest.test_case "nested continue" `Quick
            test_nested_loop_continue_merge;
          Alcotest.test_case "nested break undef" `Quick
            test_nested_loop_break_undef;
        ] );
      ("extensions", extension_tests);
      ("refcounting", refcount_tests);
      ("allocator-model", allocmodel_tests);
      ("refstrings", refstrings_gate_tests);
      ("modifies", modifies_tests);
      ("blind-spots", blind_spot_tests);
      ("loops", loopexec_tests);
      ( "suppression",
        [
          Alcotest.test_case "line" `Quick test_suppress_line;
          Alcotest.test_case "region" `Quick test_suppress_region;
          Alcotest.test_case "unmatched end" `Quick test_suppress_unmatched_end;
        ] );
      ( "work",
        [
          Alcotest.test_case "block-scope extern work is linear" `Quick
            test_block_extern_work_linear;
          Alcotest.test_case
            "a dereference that reports nothing formats nothing" `Quick
            test_quiet_check_words;
        ] );
      ( "implicit",
        [
          Alcotest.test_case "implicit only return" `Quick test_implicit_only_return_clean;
          Alcotest.test_case "annotation conflicts" `Quick test_annotation_error_reported;
        ] );
    ]
