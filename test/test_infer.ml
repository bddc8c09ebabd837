(* Annotation-inference tests: the call graph and its SCCs, the
   bottom-up probe engine, provenance marking, and the headline
   property — checking with inferred annotations reports strictly fewer
   spurious warnings than checking the unannotated source. *)

module Flags = Annot.Flags

let default_flags = Flags.default

let program ?(flags = default_flags) src =
  Stdspec.load ~flags (Seq.return ("t.c", src))

(* The list_plain.c walkthrough (constructor, recursive destructor, the
   paper's list_addh, a client), annotations stripped. *)
let plain_list_src =
  "typedef struct _elem { int val; struct _elem *next; } elem;\n\
   elem *elem_create(int x)\n\
   {\n\
  \  elem *e = (elem *) malloc(sizeof(elem));\n\
  \  if (e == NULL) { exit(1); }\n\
  \  e->val = x;\n\
  \  e->next = NULL;\n\
  \  return e;\n\
   }\n\
   void list_free(elem *l)\n\
   {\n\
  \  if (l != NULL) { list_free(l->next); free(l); }\n\
   }\n\
   elem *list_addh(elem *argl, int x)\n\
   {\n\
  \  elem *e;\n\
  \  elem *l = argl;\n\
  \  if (l != NULL) { while (l->next != NULL) { l = l->next; } }\n\
  \  e = elem_create(x);\n\
  \  if (l != NULL) { l->next = e; e = argl; }\n\
  \  return e;\n\
   }\n\
   int use(void)\n\
   {\n\
  \  elem *l = elem_create(3);\n\
  \  l = list_addh(l, 4);\n\
  \  list_free(l);\n\
  \  return 0;\n\
   }\n"

let mutual_src =
  "typedef struct _a { int v; struct _a *peer; } a;\n\
   void free_a(a *x);\n\
   void free_b(a *x);\n\
   void free_a(a *x) { if (x != NULL) { free_b(x->peer); free(x); } }\n\
   void free_b(a *x) { if (x != NULL) { free_a(x->peer); free(x); } }\n"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A slot as the expected finding strings spell it. *)
let slot_string = function
  | Infer.Sret -> "Sret"
  | Infer.Sparam i -> Printf.sprintf "(Sparam %d)" i

let words outcome fname slot =
  List.filter_map
    (fun (fd : Infer.finding) ->
      if
        String.equal fd.Infer.fd_fun fname
        && Infer.Ranker.equal_slot fd.Infer.fd_slot slot
      then Some fd.Infer.fd_word
      else None)
    outcome.Infer.out_findings
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)
(* ------------------------------------------------------------------ *)

let test_callgraph_edges () =
  let prog = program plain_list_src in
  let g = Summary.Callgraph.build prog in
  Alcotest.(check (list string))
    "nodes in source order"
    [ "elem_create"; "list_free"; "list_addh"; "use" ]
    g.Summary.Callgraph.cg_nodes;
  (* free/malloc/exit are library functions, not defined: no edges *)
  Alcotest.(check (list string))
    "list_free calls (self-recursion)" [ "list_free" ]
    (Summary.Callgraph.calls g "list_free");
  Alcotest.(check (list string))
    "use calls" [ "elem_create"; "list_addh"; "list_free" ]
    (Summary.Callgraph.calls g "use")

let test_callgraph_bottom_up () =
  let prog = program plain_list_src in
  let g = Summary.Callgraph.build prog in
  let comps = Summary.Callgraph.sccs g in
  (* every SCC is a singleton here; callees must precede callers *)
  let order = List.concat comps in
  let pos n =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from SCC order" n
      | x :: _ when String.equal x n -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  Alcotest.(check bool) "elem_create before list_addh" true
    (pos "elem_create" < pos "list_addh");
  Alcotest.(check bool) "list_addh before use" true
    (pos "list_addh" < pos "use");
  Alcotest.(check bool) "self-recursion detected" true
    (Summary.Callgraph.is_recursive g [ "list_free" ]);
  Alcotest.(check bool) "non-recursive singleton" false
    (Summary.Callgraph.is_recursive g [ "use" ])

let test_callgraph_mutual_scc () =
  let prog = program mutual_src in
  let g = Summary.Callgraph.build prog in
  let comps = Summary.Callgraph.sccs g in
  let mutual =
    List.find_opt (fun c -> List.length c > 1) comps
    |> Option.map (List.sort String.compare)
  in
  Alcotest.(check (option (list string)))
    "free_a and free_b share a component"
    (Some [ "free_a"; "free_b" ])
    mutual;
  (match mutual with
  | Some c ->
      Alcotest.(check bool) "marked recursive" true
        (Summary.Callgraph.is_recursive g c)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_infer_constructor_destructor () =
  let prog = program plain_list_src in
  let outcome = Infer.run prog in
  (* the constructor returns fresh, never-null storage *)
  Alcotest.(check (list string))
    "elem_create return" [ "notnull"; "only" ]
    (words outcome "elem_create" Infer.Sret);
  (* the destructor consumes its argument and tolerates null *)
  Alcotest.(check (list string))
    "list_free param" [ "null"; "only" ]
    (words outcome "list_free" (Infer.Sparam 0));
  (* list_addh returns its temp param on one path: [only] must NOT be
     claimed for the return value *)
  Alcotest.(check bool) "list_addh return is not only" false
    (List.mem "only" (words outcome "list_addh" Infer.Sret))

let test_infer_provenance_marked () =
  let prog = program plain_list_src in
  ignore (Infer.run prog);
  let fs = Option.get (Sema.find_func prog "elem_create") in
  Alcotest.(check bool) "inferred bit on return set" true
    (Annot.is_inferred fs.Sema.fs_ret_annots.Sema.an);
  let untouched = Option.get (Sema.find_func prog "use") in
  Alcotest.(check bool) "untouched slot unmarked" false
    (Annot.is_inferred untouched.Sema.fs_ret_annots.Sema.an)

let test_infer_mutual_fixpoint () =
  let prog = program mutual_src in
  let outcome = Infer.run ~max_rounds:4 prog in
  (* the component iterates but terminates well inside the cap *)
  Alcotest.(check bool) "terminates" true
    (outcome.Infer.out_rounds <= 4 * outcome.Infer.out_sccs);
  Alcotest.(check (list string))
    "free_a param" [ "null"; "only" ]
    (words outcome "free_a" (Infer.Sparam 0));
  Alcotest.(check (list string))
    "free_b param" [ "null"; "only" ]
    (words outcome "free_b" (Infer.Sparam 0))

let diag_count prog check_diags =
  List.length (Cfront.Diag.Collector.all prog.Sema.diags)
  + List.length check_diags

let test_infer_strictly_fewer_warnings () =
  (* the acceptance bar from the issue: +inferconstraints reports
     strictly fewer spurious warnings than the unannotated baseline *)
  let baseline =
    let prog = program plain_list_src in
    diag_count prog (Check.Checker.check_program prog)
  in
  let inferred =
    let prog = program plain_list_src in
    ignore (Infer.run prog);
    diag_count prog (Check.Checker.check_program prog)
  in
  Alcotest.(check bool)
    (Printf.sprintf "inferred (%d) < baseline (%d)" inferred baseline)
    true
    (inferred < baseline && baseline > 0)

let test_infer_diags_stamped () =
  let prog = program plain_list_src in
  ignore (Infer.run prog);
  let check_diags = Check.Checker.check_program prog in
  let diags = Cfront.Diag.Collector.all prog.Sema.diags @ check_diags in
  Alcotest.(check bool) "some diagnostics remain" true (diags <> []);
  List.iter
    (fun (d : Cfront.Diag.t) ->
      Alcotest.(check bool)
        ("procedure recorded for: " ^ d.Cfront.Diag.text)
        true
        (d.Cfront.Diag.proc <> None);
      Alcotest.(check bool)
        ("inferred provenance for: " ^ d.Cfront.Diag.text)
        true d.Cfront.Diag.inferred)
    diags

let test_infer_annotated_source_stable () =
  (* a fully hand-annotated interface leaves nothing for inference to
     say about filled categories, and checking output is unchanged *)
  let src =
    "typedef struct _e { int v; } e;\n\
     /*@notnull@*/ /*@only@*/ e *mk(void)\n\
     { e *p = (e *) malloc(sizeof(e)); if (p == NULL) { exit(1); } p->v = 0; \
     return p; }\n\
     void rel(/*@only@*/ /*@null@*/ e *p) { if (p != NULL) { free(p); } }\n"
  in
  let plain =
    let prog = program src in
    diag_count prog (Check.Checker.check_program prog)
  in
  let prog = program src in
  let outcome = Infer.run prog in
  Alcotest.(check int) "diagnostics unchanged" plain
    (diag_count prog (Check.Checker.check_program prog));
  List.iter
    (fun (fd : Infer.finding) ->
      Alcotest.(check bool)
        (Printf.sprintf "no alloc/null re-inference (%s %s on %s)"
           fd.Infer.fd_word
           (slot_string fd.Infer.fd_slot)
           fd.Infer.fd_fun)
        false
        (String.equal fd.Infer.fd_fun "mk" || String.equal fd.Infer.fd_fun "rel"))
    outcome.Infer.out_findings

(* ------------------------------------------------------------------ *)
(* Probe cost                                                          *)
(* ------------------------------------------------------------------ *)

(* One allocating constructor: round 1 accepts annotations and, after
   the last acceptance, rejects the candidates left; round 2 proposes
   those again under the same installed signatures and accepts nothing. *)
let one_fn_src =
  "char *dup(char *s, int n)\n\
   {\n\
  \  char *r = (char *) malloc(n);\n\
  \  if (r == NULL) { exit(1); }\n\
  \  *r = *s;\n\
  \  return r;\n\
   }\n"

(* A mutually recursive pair whose widening retracts an annotation:
   [f] gains [notnull] on its return while [g]'s return is unannotated,
   then [g] gains [null], which makes both of [f]'s [return g(..)]
   complain; the component then checks worse than it began, so [g]'s
   [null] is retracted.  [h], a component of its own after the pair,
   ends its run with rejected candidates. *)
let retract_src =
  "char *g(int k);\n\
   char *f(int k)\n\
   {\n\
  \  char *r;\n\
  \  if (k > 0) { return g(k - 1); }\n\
  \  if (k < -5) { return g(k + 1); }\n\
  \  r = (char *) malloc(4);\n\
  \  if (r == NULL) { exit(1); }\n\
  \  *r = 'a';\n\
  \  return r;\n\
   }\n\
   char *g(int k)\n\
   {\n\
  \  char *r;\n\
  \  if (k > 5) { return f(k - 1); }\n\
  \  r = (char *) malloc(4);\n\
  \  if (r == NULL) { return NULL; }\n\
  \  *r = 'b';\n\
  \  return r;\n\
   }\n\
   char h(char *p) { return *p; }\n"

(* Functions named as in [retract_src] whose candidates that program
   rejects hold here. *)
let reuse_src =
  "void h(char *p) { *p = 'x'; }\n\
   char *g(int k) { char *r = (char *) malloc(4); \
   if (r == NULL) { return NULL; } *r = 'd'; return r; }\n"

let finding_strings (o : Infer.outcome) =
  List.map
    (fun (fd : Infer.finding) ->
      Printf.sprintf "%s %s %s" fd.Infer.fd_fun
        (slot_string fd.Infer.fd_slot)
        fd.Infer.fd_word)
    o.Infer.out_findings

(* Run inference on a fresh program of [src] with telemetry on; return
   the outcome and how many checker runs it made. *)
let infer_counting ?max_rounds src =
  let prog = program src in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let o =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled false)
      (fun () -> Infer.run ?max_rounds prog)
  in
  (o, Telemetry.Counter.value Telemetry.c_infer_summaries)

let test_repeated_probe_no_check () =
  let first, round1_checks = infer_counting ~max_rounds:1 one_fn_src in
  Alcotest.(check bool)
    "round 1 accepts and rejects" true
    (first.Infer.out_findings <> []
    && first.Infer.out_probes > List.length first.Infer.out_findings);
  let o, checks = infer_counting one_fn_src in
  Alcotest.(check int) "round 2 runs no check" round1_checks checks;
  Alcotest.(check (list string))
    "findings"
    [ "dup Sret only"; "dup (Sparam 0) notnull"; "dup Sret notnull" ]
    (finding_strings o);
  Alcotest.(check int) "probes" 7 o.Infer.out_probes;
  Alcotest.(check int) "rounds" 2 o.Infer.out_rounds

(* What one run learns about rejected candidates must not reach the
   next: each program below, inferred after the other in one process,
   gives the findings a fresh process gives.  [reuse_src]'s first probe
   is [out] on [h]'s parameter, which [retract_src] rejects. *)
let test_memo_cleared () =
  let check_retract () =
    let o, _ = infer_counting retract_src in
    Alcotest.(check (list string))
      "retract_src findings"
      [ "f Sret only"; "f Sret notnull"; "h (Sparam 0) notnull" ]
      (finding_strings o);
    Alcotest.(check (pair int int)) "retract_src probes, rounds" (11, 4)
      (o.Infer.out_probes, o.Infer.out_rounds)
  in
  check_retract ();
  let o, _ = infer_counting reuse_src in
  Alcotest.(check (list string))
    "reuse_src findings"
    [ "h (Sparam 0) out"; "h (Sparam 0) notnull"; "g Sret null" ]
    (finding_strings o);
  Alcotest.(check (pair int int)) "reuse_src probes, rounds" (6, 4)
    (o.Infer.out_probes, o.Infer.out_rounds);
  check_retract ()

(* ------------------------------------------------------------------ *)
(* Annotation stripping                                                *)
(* ------------------------------------------------------------------ *)

let test_strip_annotations () =
  let src = "/*@only@*/ int *f(/*@null@*/ int *p);\nint g;\n" in
  let stripped = Infer.strip_annotations src in
  Alcotest.(check int) "length preserved" (String.length src)
    (String.length stripped);
  Alcotest.(check bool) "no annotation survives" false
    (contains ~affix:"/*@" stripped);
  Alcotest.(check string) "newlines in place"
    "           int *f(           int *p);\nint g;\n" stripped;
  (* ordinary comments are untouched *)
  Alcotest.(check string) "plain comments kept" "/* keep */ int x;"
    (Infer.strip_annotations "/* keep */ int x;")

let test_strip_roundtrip_parses () =
  let stripped = Infer.strip_annotations Corpus.Figures.fig5_list_addh in
  let prog = program stripped in
  Alcotest.(check bool) "stripped fig5 still defines list_addh" true
    (Option.is_some (Sema.find_func prog "list_addh"))

let test_strip_preserves_inferred () =
  (* spans carrying the [inferred] provenance word were written by a
     previous inference pass ( -infer-bulk patches); stripping must
     leave them alone so re-inference over applied patches stays
     idempotent, while hand spans on the same line still blank *)
  let src =
    "/*@only inferred@*/ int *f(/*@null@*/ int *p);\n\
     /*@null inferred@*/ /*@only@*/ int *g(void);\n"
  in
  let stripped = Infer.strip_annotations src in
  Alcotest.(check int) "length preserved" (String.length src)
    (String.length stripped);
  Alcotest.(check bool) "machine span on f kept" true
    (contains ~affix:"/*@only inferred@*/" stripped);
  Alcotest.(check bool) "machine span on g kept" true
    (contains ~affix:"/*@null inferred@*/" stripped);
  Alcotest.(check bool) "hand span on f blanked" false
    (contains ~affix:"/*@null@*/" stripped);
  Alcotest.(check bool) "hand span on g blanked" false
    (contains ~affix:"/*@only@*/" stripped);
  (* stripping is a fixpoint on its own output *)
  Alcotest.(check string) "re-strip is identity" stripped
    (Infer.strip_annotations stripped)

let test_strip_inferred_reinference_idempotent () =
  (* source already annotated by a previous inference pass: stripping
     keeps the machine spans, so a second run accepts nothing new *)
  let src =
    "typedef struct _e { int v; } e;\n\
     /*@only inferred@*/ /*@notnull inferred@*/ e *mk(void)\n\
     { e *p = (e *) malloc(sizeof(e)); if (p == NULL) { exit(1); } p->v = 0; \
     return p; }\n\
     void rel(/*@only inferred@*/ /*@null inferred@*/ e *p)\n\
     { if (p != NULL) { free(p); } }\n"
  in
  let prog = program (Infer.strip_annotations src) in
  let outcome = Infer.run prog in
  Alcotest.(check (list string))
    "nothing re-inferred" []
    (List.map
       (fun (fd : Infer.finding) ->
         Printf.sprintf "%s %s %s" fd.Infer.fd_fun
           (slot_string fd.Infer.fd_slot)
           fd.Infer.fd_word)
       outcome.Infer.out_findings);
  (* the pre-existing machine annotations are still live and marked *)
  let fs = Option.get (Sema.find_func prog "mk") in
  Alcotest.(check bool) "provenance bit survives the round trip" true
    (Annot.is_inferred fs.Sema.fs_ret_annots.Sema.an)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let test_render_prototypes () =
  let prog = program plain_list_src in
  let outcome = Infer.run prog in
  let rendered = Infer.render prog outcome in
  Alcotest.(check bool) "constructor prototype rendered" true
    (contains ~affix:"/*@only@*/" rendered
    && contains ~affix:"elem_create" rendered);
  Alcotest.(check bool) "one line per annotated function" true
    (List.length (String.split_on_char '\n' (String.trim rendered))
    <= outcome.Infer.out_procedures)

let () =
  Alcotest.run "infer"
    [
      ( "callgraph",
        [
          Alcotest.test_case "edges" `Quick test_callgraph_edges;
          Alcotest.test_case "bottom-up order" `Quick test_callgraph_bottom_up;
          Alcotest.test_case "mutual SCC" `Quick test_callgraph_mutual_scc;
        ] );
      ( "inference",
        [
          Alcotest.test_case "constructor/destructor" `Quick
            test_infer_constructor_destructor;
          Alcotest.test_case "provenance" `Quick test_infer_provenance_marked;
          Alcotest.test_case "mutual fixpoint" `Quick test_infer_mutual_fixpoint;
          Alcotest.test_case "strictly fewer warnings" `Quick
            test_infer_strictly_fewer_warnings;
          Alcotest.test_case "diags stamped" `Quick test_infer_diags_stamped;
          Alcotest.test_case "annotated source stable" `Quick
            test_infer_annotated_source_stable;
        ] );
      ( "probe cost",
        [
          Alcotest.test_case "a repeated probe runs no check" `Quick
            test_repeated_probe_no_check;
          Alcotest.test_case "memo cleared between runs" `Quick
            test_memo_cleared;
        ] );
      ( "strip",
        [
          Alcotest.test_case "spans blanked" `Quick test_strip_annotations;
          Alcotest.test_case "stripped source parses" `Quick
            test_strip_roundtrip_parses;
          Alcotest.test_case "inferred spans preserved" `Quick
            test_strip_preserves_inferred;
          Alcotest.test_case "re-inference idempotent" `Quick
            test_strip_inferred_reinference_idempotent;
        ] );
      ( "render",
        [ Alcotest.test_case "prototypes" `Quick test_render_prototypes ] );
    ]
