(* Incremental checking service tests: cache validity, edit tiers,
   -j equivalence, persistence, content keys, and the NDJSON protocol
   layer. *)

module Service = Incr.Service
module Server = Incr.Server
module Diag = Cfront.Diag
module J = Telemetry.Json
module Flags = Annot.Flags
module Ast = Cfront.Ast
module Loc = Cfront.Loc

let flags = Flags.default

let file_a =
  "typedef struct _rec { int v; /*@null@*/ /*@only@*/ char *label; } rec;\n\
   /*@only@*/ rec *rec_create(int v)\n\
   {\n\
   rec *r = (rec *) malloc(sizeof(rec));\n\
   if (r == NULL) { exit(1); }\n\
   r->v = v;\n\
   r->label = NULL;\n\
   return r;\n\
   }\n\
   void rec_destroy(/*@only@*/ rec *r)\n\
   {\n\
   if (r->label != NULL) { free(r->label); }\n\
   free(r);\n\
   }\n\
   int rec_value(rec *r) { return r->v; }\n"

let file_b =
  "int use_ok(void)\n\
   {\n\
   rec *r = rec_create(1);\n\
   int v = rec_value(r);\n\
   rec_destroy(r);\n\
   return v;\n\
   }\n\
   void use_leak(void)\n\
   {\n\
   rec *r = rec_create(1);\n\
   rec *s = rec_create(2);\n\
   r = s;\n\
   rec_destroy(r);\n\
   }\n"

let docs files =
  List.map
    (fun (name, text) -> { Service.doc_name = name; doc_text = text })
    files

let base_files = [ ("a.c", file_a); ("b.c", file_b) ]

let replace ~what ~with_ text =
  let wl = String.length what and tl = String.length text in
  let rec find i =
    if i + wl > tl then
      Alcotest.failf "edit anchor %S not found" what
    else if String.sub text i wl = what then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ with_ ^ String.sub text (i + wl) (tl - i - wl)

let edit target what with_ files =
  List.map
    (fun (name, text) ->
      if name = target then (name, replace ~what ~with_ text)
      else (name, text))
    files

let run ?jobs ?flag_args svc files =
  match Service.check ?jobs ?flag_args svc (docs files) with
  | Ok oc -> oc
  | Error d -> Alcotest.failf "service error: %s" (Diag.to_string d)

let render (oc : Service.outcome) =
  List.map Diag.to_string oc.Service.oc_kept
  @ List.map (fun d -> "sup:" ^ Diag.to_string d) oc.Service.oc_suppressed

(* The cold CLI pipeline, for reference output: stdlib environment,
   parse+sema each file, whole-program check, suppression split. *)
let direct ?(flags = flags) files =
  let env = Stdspec.load ~flags (List.to_seq files) in
  let kept, suppressed = Check.finish env (Check.Checker.check_program env) in
  List.map Diag.to_string kept
  @ List.map (fun d -> "sup:" ^ Diag.to_string d) suppressed

let tier = Alcotest.testable (Fmt.of_to_string Service.tier_name) ( = )

(* ------------------------------------------------------------------ *)

let test_cold_matches_direct () =
  let svc = Service.create ~flags () in
  let oc = run svc base_files in
  Alcotest.check tier "cold tier" Service.Cold oc.Service.oc_tier;
  Alcotest.(check int) "all functions checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "diagnostics match the cold pipeline" (direct base_files) (render oc);
  Alcotest.(check bool) "the leak is reported" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "mustfree")
       oc.Service.oc_kept)

let test_clean_noop () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let again = run svc base_files in
  Alcotest.check tier "clean tier" Service.Clean again.Service.oc_tier;
  Alcotest.(check int) "nothing re-checked" 0 again.Service.oc_rechecked;
  Alcotest.(check int) "all hits" 5 again.Service.oc_hits;
  Alcotest.(check (list string))
    "same diagnostics" (render first) (render again)

let test_body_edit_patches () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let edited = edit "b.c" "return v;" "return v + 1;" base_files in
  let oc = run svc edited in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check int) "exactly one re-check" 1 oc.Service.oc_rechecked;
  Alcotest.(check int) "four hits" 4 oc.Service.oc_hits;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

let test_funsig_edit_rechecks_callers () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* dropping the only annotation changes rec_create's funsig: the
     function and both its callers must re-check; rec_destroy and
     rec_value must not *)
  let edited = edit "a.c" "/*@only@*/ rec *rec_create" "rec *rec_create" base_files in
  let oc = run svc edited in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "function + callers" 3 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

let xproc_flags = { Flags.default with Flags.xproc = true }

(* an unannotated helper whose release is only visible to +xproc, and a
   caller that reads the pointer afterwards *)
let xproc_files =
  [
    ("h.c", "void helper(char *r)\n{\nfree(r);\n}\n");
    ( "u.c",
      "int drive(void)\n\
       {\n\
       char *p = (char *) malloc(1);\n\
       if (p == NULL) { return 1; }\n\
       p[0] = 'x';\n\
       helper(p);\n\
       int v = p[0];\n\
       return v;\n\
       }\n" );
  ]

let test_summary_edit_rechecks_callers () =
  (* under +xproc a cached caller is keyed to its callees' summary
     hashes: editing helper's BODY (its signature is untouched) changes
     its derived effect, so drive must be re-checked even though tier
     classification sees only a body patch *)
  let svc = Service.create ~flags:xproc_flags () in
  let first = run svc xproc_files in
  Alcotest.(check bool) "the buried release is reported" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "usereleased")
       first.Service.oc_kept);
  let edited = edit "h.c" "free(r);" "r[0] = 0;" xproc_files in
  let oc = run svc edited in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check int) "helper AND its caller re-checked" 2
    oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit"
    (direct ~flags:xproc_flags edited)
    (render oc);
  Alcotest.(check bool) "the stale use-after-free is gone" true
    (not
       (List.exists
          (fun (d : Diag.t) -> d.Diag.code = "usereleased")
          oc.Service.oc_kept));
  (* control: without +xproc the same body edit re-checks only the
     edited function — summary keys stay out of non-xproc cache keys *)
  let plain = Service.create ~flags () in
  ignore (run plain xproc_files);
  let oc = run plain edited in
  Alcotest.(check int) "default flags: callee only" 1
    oc.Service.oc_rechecked

(* ------------------------------------------------------------------ *)
(* Incremental summary refresh under +xproc                            *)
(* ------------------------------------------------------------------ *)

(* A three-module corpus with one editable line per slot.  h0 <- h1 <-
   h2 <- drive is a helper chain, so a release inserted into h0 reaches
   two caller levels above it; ev/od is a mutually recursive SCC; leaf
   starts with no defined callee, so giving it one moves the call graph.
   Every variant is one line, so no function header shifts and every
   edit is a body-only (Patched) request. *)
let refresh_slots =
  [|
    ("lib.c", [| "r[0] = 0;"; "free(r);"; "if (r[0] == 'x') { free(r); }";
                 "r[0] = 5;" |]);
    ("mid.c", [| "r[0] = 1;"; "if (n == 1) { free(r); }" |]);
    ("mid.c", [| "r[0] = 2;"; "if (n == 0) { free(r); }"; "free(r);" |]);
    ("mid.c", [| "r[0] = 3;"; "h0(r);"; "h2(r);"; "free(r);" |]);
  |]

let refresh_files choice =
  let slot i = (snd refresh_slots.(i)).(choice.(i)) in
  [
    ( "lib.c",
      "void h0(char *r);\n\
       void h1(char *r);\n\
       void h2(char *r);\n\
       void ev(char *r, int n);\n\
       void od(char *r, int n);\n\
       void leaf(char *r);\n\
       void h0(char *r)\n\
       {\n" ^ slot 0 ^ "\n\
       }\n\
       void h1(char *r)\n\
       {\n\
       h0(r);\n\
       }\n" );
    ( "mid.c",
      "void h2(char *r)\n\
       {\n\
       h1(r);\n\
       }\n\
       void ev(char *r, int n)\n\
       {\n\
       if (n > 0) { od(r, n - 1); }\n" ^ slot 1 ^ "\n\
       }\n\
       void od(char *r, int n)\n\
       {\n\
       if (n > 0) { ev(r, n - 1); }\n" ^ slot 2 ^ "\n\
       }\n\
       void leaf(char *r)\n\
       {\n" ^ slot 3 ^ "\n\
       }\n" );
    ( "use.c",
      "int drive(void)\n\
       {\n\
       char *p = (char *) malloc(1);\n\
       if (p == NULL) { return 1; }\n\
       p[0] = 'x';\n\
       h2(p);\n\
       int v = p[0];\n\
       return v;\n\
       }\n\
       int drive2(void)\n\
       {\n\
       char *q = (char *) malloc(1);\n\
       if (q == NULL) { return 1; }\n\
       q[0] = 'x';\n\
       ev(q, 3);\n\
       leaf(q);\n\
       return q[0];\n\
       }\n" );
  ]

let refresh_functions = 8

(* After a request, the service's summaries must be what a from-scratch
   solve of its environment gives, its hashes a full re-hash of those,
   and its diagnostics a cold direct check of the same documents. *)
let check_refreshed what svc files (oc : Service.outcome) =
  let env =
    match Service.environment svc with
    | Some env -> env
    | None -> Alcotest.failf "%s: no environment" what
  in
  let tbl =
    match Service.summaries svc with
    | Some tbl -> tbl
    | None -> Alcotest.failf "%s: no summaries under +xproc" what
  in
  let fresh = Summary.of_program env in
  let keys t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare
  in
  Alcotest.(check (list string)) (what ^ ": same key set") (keys fresh)
    (keys tbl);
  Hashtbl.iter
    (fun name sm ->
      if not (Summary.equal sm (Hashtbl.find tbl name)) then
        Alcotest.failf "%s: %s is %s, a fresh solve gives %s" what name
          (Summary.render (Hashtbl.find tbl name))
          (Summary.render sm))
    fresh;
  Alcotest.(check (list (pair string string)))
    (what ^ ": hashes equal a full re-hash")
    (List.map
       (fun k -> (k, Summary.hash (Hashtbl.find fresh k)))
       (keys fresh))
    (Service.summary_hashes svc);
  Alcotest.(check (list string))
    (what ^ ": diagnostics equal a cold check")
    (direct ~flags:xproc_flags files)
    (render oc)

(* Run [f] with telemetry on and return how many functions it
   summarized. *)
let summary_funcs_during f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let r = Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f in
  (r, Telemetry.Counter.value Telemetry.c_summary_funcs)

let patched_request svc choice =
  let files = refresh_files choice in
  let oc = run svc files in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  (files, oc)

let test_refresh_cases () =
  let svc = Service.create ~flags:xproc_flags () in
  let choice = [| 0; 0; 0; 0 |] in
  let files = refresh_files choice in
  check_refreshed "cold" svc files (run svc files);
  let hash name = List.assoc name (Service.summary_hashes svc) in
  (* an effect-neutral body edit re-summarizes the edited function only *)
  choice.(0) <- 3;
  let (files, oc), n =
    summary_funcs_during (fun () -> patched_request svc choice)
  in
  Alcotest.(check int) "effect-neutral edit: one function summarized" 1 n;
  Alcotest.(check int) "effect-neutral edit: one re-check" 1
    oc.Service.oc_rechecked;
  check_refreshed "effect-neutral edit" svc files oc;
  (* inserting free(r) into h0 changes h0, h1 and h2, and stops at
     drive, whose summary has nothing to change *)
  let h2_before = hash "h2" in
  choice.(0) <- 1;
  let (files, oc), n =
    summary_funcs_during (fun () -> patched_request svc choice)
  in
  Alcotest.(check int) "release inserted: h0, h1, h2, drive summarized" 4 n;
  Alcotest.(check bool) "two caller levels up, h2's summary changed" true
    (hash "h2" <> h2_before);
  check_refreshed "release inserted" svc files oc;
  (* ... and removing it again *)
  choice.(0) <- 0;
  let files, oc = patched_request svc choice in
  Alcotest.(check string) "release removed: h2 is back" h2_before (hash "h2");
  check_refreshed "release removed" svc files oc;
  (* an edit inside the ev/od SCC re-solves the component *)
  choice.(2) <- 1;
  let files, oc = patched_request svc choice in
  check_refreshed "recursive SCC edit" svc files oc;
  (* a call-adding edit: leaf gains a defined callee, so the whole
     program is solved again *)
  choice.(3) <- 1;
  let (files, oc), n =
    summary_funcs_during (fun () -> patched_request svc choice)
  in
  Alcotest.(check int) "call-adding edit: full solve" refresh_functions n;
  check_refreshed "call-adding edit" svc files oc;
  (* the fallback leaves a solution that refreshes incrementally again *)
  choice.(0) <- 3;
  let (files, oc), n =
    summary_funcs_during (fun () -> patched_request svc choice)
  in
  Alcotest.(check int) "after the fallback: one function summarized" 1 n;
  check_refreshed "after the fallback" svc files oc

(* Random sequences of single-slot body edits; every request must leave
   the service exactly where a from-scratch solve and a cold check
   would. *)
let prop_refresh_equivalence =
  let nslots = Array.length refresh_slots in
  QCheck.Test.make ~count:40 ~name:"refreshed summaries equal a full solve"
    QCheck.(list_of_size Gen.(int_range 1 10)
              (pair (int_bound (nslots - 1)) (int_bound 3)))
    (fun edits ->
      let svc = Service.create ~flags:xproc_flags () in
      let choice = Array.make nslots 0 in
      let files = refresh_files choice in
      check_refreshed "cold" svc files (run svc files);
      List.iteri
        (fun k (slot, v) ->
          let n = Array.length (snd refresh_slots.(slot)) in
          (* always a real edit: never the slot's current variant *)
          let v = v mod n in
          choice.(slot) <- (if v = choice.(slot) then (v + 1) mod n else v);
          let files, oc = patched_request svc choice in
          check_refreshed (Printf.sprintf "edit %d" k) svc files oc)
        edits;
      true)

let test_type_edit_invalidates_all () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* a struct layout change shifts the type environment under every
     cached summary: conservative full invalidation *)
  let edited = edit "a.c" "{ int v;" "{ int v; int extra;" base_files in
  let oc = run svc edited in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "everything re-checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

(* The service builds its environment through the program loader, whose
   parse step reuses a cached AST only when the file's text and the
   typedef names in scope are both unchanged: removing [a.c]'s typedef
   must make the untouched [b.c] parse again, as a cold check does. *)
let test_removed_typedef_reparses () =
  let files =
    [
      ("a.c", "typedef char *T;\nint a(void) { return 0; }\n");
      ("b.c", "int b(void) { T p; p = 0; return *p; }\n");
    ]
  in
  let edited = edit "a.c" "typedef char *T;\n" "" files in
  let answer svc files =
    match Service.check svc (docs files) with
    | Ok oc -> render oc
    | Error d -> [ "error: " ^ Diag.to_string d ]
  in
  let cold files = answer (Service.create ~flags ()) files in
  Alcotest.(check bool) "the typedef changes how b.c parses" false
    (cold files = cold edited);
  let svc = Service.create ~flags () in
  ignore (answer svc files);
  Alcotest.(check (list string)) "warm equals cold" (cold edited)
    (answer svc edited)

let test_flag_change_invalidates () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* the flag set is part of every key: a different effective flag set
     misses everywhere, and flipping back re-checks again (the cache
     holds one entry per function, keyed to the current epoch) *)
  let oc = run ~flag_args:[ "-null" ] svc base_files in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "all re-checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check int) "no hits" 0 oc.Service.oc_hits;
  let back = run svc base_files in
  Alcotest.(check int) "flip back re-checks" 5 back.Service.oc_rechecked

(* Checking a body with a block-scope [extern] registers that
   declaration.  The cold driver checks such a file against a private
   copy of the environment, so the declaration stays out of other
   files (`olclint a.c b.c` reports [mk] as unrecognized in [b.c]); the
   service must do the same, and must not leak it into the persistent
   environment either.  ([direct] checks in place, so it is not the
   reference here.) *)
let test_block_scope_decl_stays_local () =
  let files =
    [
      ("a.c", "void reg(void)\n{\nextern /*@null@*/ char *mk(void);\n}\n");
      ("b.c", "char first(void)\n{\nchar *p = mk();\nreturn *p;\n}\n");
    ]
  in
  let svc = Service.create ~flags () in
  let cold = render (run svc files) in
  Alcotest.(check (list string))
    "cold: mk unrecognized in b.c"
    [ "b.c:3,11: unrecognized identifier 'mk'" ]
    (List.map (fun d -> List.hd (String.split_on_char '\n' d)) cold);
  let oc = run svc (edit "b.c" "return *p;" "return p[0];" files) in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check (list string)) "patched: same diagnostics" cold (render oc)

(* The parser's typedef table is file-wide, so [b] may name a type that
   only [a]'s body declares.  The cold driver checks such a file against
   one private copy, [a] first; a body edit of [b] alone registers
   nothing, yet must still check against a copy, or resolving [T] there
   reports "unknown type name" into the persistent environment -- once
   more after every edit. *)
let test_block_scope_typedef_sibling_edit () =
  let files n =
    [
      ( "t.c",
        Printf.sprintf
          "void a(void)\n\
           {\n\
           typedef int T;\n\
           }\n\n\
           int b(/*@null@*/ int *x)\n\
           {\n\
           return (T)*x + %d;\n\
           }\n"
          n );
    ]
  in
  List.iter
    (fun jobs ->
      let svc = Service.create ~flags () in
      ignore (run ~jobs svc (files 0));
      List.iter
        (fun n ->
          let oc = run ~jobs svc (files n) in
          let what = Printf.sprintf "-j %d, edit %d" jobs n in
          Alcotest.check tier ("patched tier, " ^ what) Service.Patched
            oc.Service.oc_tier;
          Alcotest.(check (list string))
            ("same as cold, " ^ what)
            (render (run ~jobs (Service.create ~flags ()) (files n)))
            (render oc))
        [ 1; 2 ])
    [ 1; 4 ]

(* A sibling's result can depend on the declarations an earlier body of
   its file registers: with [T] a pointer type, [b] dereferences null;
   resolved without [a]'s typedef, [T] is [int] and nothing is reported.
   A miss in such a file re-checks the whole file in order, as the cold
   driver does, so the patched answer keeps the warning. *)
let test_mutating_file_rechecked_whole () =
  let files n =
    [
      ( "t.c",
        Printf.sprintf
          "#include <stdlib.h>\n\
           int a(void) { typedef char *T; return 0; }\n\
           int b(void) { T p = NULL; return *p + %d; }\n"
          n );
    ]
  in
  List.iter
    (fun jobs ->
      let cold = render (run ~jobs (Service.create ~flags ()) (files 1)) in
      Alcotest.(check (list string))
        (Printf.sprintf "cold reports the dereference, -j %d" jobs)
        [ "t.c:3,34: Dereference of null pointer p: *p" ]
        (List.map (fun d -> List.hd (String.split_on_char '\n' d)) cold);
      let svc = Service.create ~flags () in
      ignore (run ~jobs svc (files 0));
      let oc = run ~jobs svc (files 1) in
      let what = Printf.sprintf "-j %d" jobs in
      Alcotest.check tier ("patched tier, " ^ what) Service.Patched
        oc.Service.oc_tier;
      Alcotest.(check (list string)) ("same as cold, " ^ what) cold (render oc))
    [ 1; 4 ]

(* What sema reports while a body is checked -- a block-scope
   redeclaration, a type name only a closed block declared -- goes to
   the collector of the file's private copy.  It joins the result of
   the body being checked, so the cold and patched answers print what
   [Stdspec.check] prints, once, at every [-j]. *)
let test_sema_diags_while_checking () =
  let first_lines oc =
    List.map (fun d -> List.hd (String.split_on_char '\n' d)) (render oc)
  in
  List.iter
    (fun (src, what, with_, want) ->
      let files = [ ("t.c", src) ] in
      List.iter
        (fun jobs ->
          let j = Printf.sprintf ", -j %d" jobs in
          let svc = Service.create ~flags () in
          Alcotest.(check (list string))
            ("cold" ^ j) [ want ]
            (first_lines (run ~jobs svc files));
          let oc = run ~jobs svc (edit "t.c" what with_ files) in
          Alcotest.check tier ("patched tier" ^ j) Service.Patched
            oc.Service.oc_tier;
          Alcotest.(check (list string)) ("patched" ^ j) [ want ]
            (first_lines oc))
        [ 1; 2 ])
    [
      ( "int g(int x);\nvoid f(void) { extern char *g(void); }\n",
        "g(void); }",
        "g(void); ; }",
        "t.c:2,28: function 'g' redeclared with 0 parameters (was 1)" );
      ( "int a(void) { return 0; { typedef char *T; } }\n\
         int b(void) { T p = 0; return 1; }\n",
        "return 1;",
        "return 2;",
        "t.c:2,17: unknown type name 'T'" );
    ]

(* A result computed after a sibling registered a declaration goes stale
   when an edit removes that declaration: the swapped-out body stands
   for it, so its file is re-checked whole although no current body
   registers anything -- after a body-only edit and after one that also
   changes an interface. *)
let with_decl =
  [
    ( "t.c",
      "void a(void) { extern /*@null@*/ char *mk(void); }\n\
       char b(void) { char *p = mk(); return *p; }\n" );
  ]

let removed_decl = edit "t.c" "extern /*@null@*/ char *mk(void);" ";" with_decl

let test_removed_declaration_rechecks_file () =
  let removed = removed_decl in
  let cold files = render (run (Service.create ~flags ()) files) in
  Alcotest.(check bool) "the declaration changes b's result" false
    (cold with_decl = cold removed);
  List.iter
    (fun (what, files, want_tier) ->
      List.iter
        (fun jobs ->
          let svc = Service.create ~flags () in
          ignore (run ~jobs svc with_decl);
          let oc = run ~jobs svc files in
          let j = Printf.sprintf "%s, -j %d" what jobs in
          Alcotest.check tier ("tier, " ^ j) want_tier oc.Service.oc_tier;
          Alcotest.(check int) ("whole file re-checked, " ^ j) 2
            oc.Service.oc_rechecked;
          Alcotest.(check (list string)) ("same as cold, " ^ j) (cold files)
            (render oc))
        [ 1; 4 ])
    [
      ("body edit", removed, Service.Patched);
      ( "interface edit",
        edit "t.c" "void a(void)" "void a(int u)" removed,
        Service.Rebuilt );
    ]

let test_jobs_equivalence () =
  let reference = direct base_files in
  let edited = edit "b.c" "return v;" "return v + 1;" base_files in
  let reference_edited = direct edited in
  List.iter
    (fun jobs ->
      let svc = Service.create ~flags () in
      let cold = run ~jobs svc base_files in
      Alcotest.(check (list string))
        (Printf.sprintf "cold -j %d" jobs)
        reference (render cold);
      let warm = run ~jobs svc edited in
      Alcotest.(check (list string))
        (Printf.sprintf "warm -j %d" jobs)
        reference_edited (render warm))
    [ 1; 2; 4 ]

let test_persistence_roundtrip () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let blob = Service.save svc in
  Alcotest.(check bool) "artifact is stamped" true
    (Check.Libspec.is_stamped blob);
  let fresh = Service.create ~flags () in
  (match Service.load fresh blob with
  | Ok n -> Alcotest.(check int) "all summaries persisted" 5 n
  | Error msg -> Alcotest.failf "load: %s" msg);
  (* the restarted service adopts every result by content key: a full
     parse+sema, but zero re-checks *)
  let oc = run fresh base_files in
  Alcotest.(check int) "nothing re-checked after restart" 0
    oc.Service.oc_rechecked;
  Alcotest.(check int) "all adopted" 5 oc.Service.oc_hits;
  Alcotest.(check (list string))
    "same diagnostics after restart" (render first) (render oc)

(* The same removal across a restart: the cache saved while [a]'s
   [extern] was in force must not hand [b] its old result.  Every
   function's content key covers the environment-mutating bodies of its
   file. *)
let test_persistence_removed_declaration () =
  let svc = Service.create ~flags () in
  ignore (run svc with_decl);
  let fresh = Service.create ~flags () in
  (match Service.load fresh (Service.save svc) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "load: %s" msg);
  let cold = render (run (Service.create ~flags ()) removed_decl) in
  Alcotest.(check (list string))
    "restart equals cold" cold
    (render (run fresh removed_decl))

let test_persistence_rejects_corruption () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let blob = Service.save svc in
  let mangled = Bytes.of_string blob in
  let i = Bytes.length mangled - 2 in
  Bytes.set mangled i (if Bytes.get mangled i = '0' then '1' else '0');
  let fresh = Service.create ~flags () in
  (match Service.load fresh (Bytes.to_string mangled) with
  | Ok _ -> Alcotest.fail "corrupted cache accepted"
  | Error _ -> ());
  (match Service.load fresh "not a cache at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* results stored by an older format are refused, not adopted *)
  (match Check.Libspec.unstamp ~kind:Service.cache_kind blob with
  | Error e -> Alcotest.failf "unstamp: %s" e
  | Ok (_, payload) -> (
      let old =
        Check.Libspec.stamp ~kind:Service.cache_kind
          ~version:(Service.cache_version - 1) payload
      in
      match Service.load fresh old with
      | Ok _ -> Alcotest.fail "an older cache format accepted"
      | Error e ->
          Alcotest.(check string) "version refusal"
            (Printf.sprintf
               "summary cache has format version %d, this build reads %d"
               (Service.cache_version - 1) Service.cache_version)
            e));
  (* a rejected load leaves the service fully functional *)
  let oc = run fresh base_files in
  Alcotest.(check int) "cold after rejected load" 5 oc.Service.oc_rechecked

(* The [summaries] marker scan: a payload that opens with the marker
   holds nothing but summaries, and one without it is refused. *)
let test_persistence_marker_scan () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let records =
    match Check.Libspec.unstamp ~kind:Service.cache_kind (Service.save svc) with
    | Error e -> Alcotest.failf "unstamp: %s" e
    | Ok (_, payload) ->
        let marker = "\n[summaries]\n" in
        let ml = String.length marker in
        let rec find i =
          if String.sub payload i ml = marker then i + ml else find (i + 1)
        in
        let start = find 0 in
        String.sub payload start (String.length payload - start)
  in
  let stamp payload =
    Check.Libspec.stamp ~kind:Service.cache_kind
      ~version:Service.cache_version payload
  in
  let fresh = Service.create ~flags () in
  (match Service.load fresh (stamp ("[summaries]\n" ^ records)) with
  | Ok n -> Alcotest.(check int) "marker at offset 0: every record read" 5 n
  | Error e -> Alcotest.failf "marker at offset 0 rejected: %s" e);
  let oc = run fresh base_files in
  Alcotest.(check int) "records behind an offset-0 marker adopted" 0
    oc.Service.oc_rechecked;
  match Service.load (Service.create ~flags ()) (stamp "flags x\n") with
  | Ok _ -> Alcotest.fail "payload without a [summaries] marker accepted"
  | Error e ->
      Alcotest.(check string) "missing marker"
        "summary cache has no [summaries] section" e

let test_invalidate () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let dropped = Service.invalidate svc (Some [ "b.c" ]) in
  Alcotest.(check int) "b.c entries dropped" 2 dropped;
  let oc = run svc base_files in
  Alcotest.(check int) "only b.c re-checked" 2 oc.Service.oc_rechecked;
  let dropped_all = Service.invalidate svc None in
  Alcotest.(check int) "everything dropped" 5 dropped_all;
  let oc2 = run svc base_files in
  Alcotest.check tier "cold again" Service.Cold oc2.Service.oc_tier;
  Alcotest.(check int) "full re-check" 5 oc2.Service.oc_rechecked

let test_parse_error_keeps_state () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let broken = edit "b.c" "return v;" "return v" base_files in
  (match Service.check svc (docs broken) with
  | Ok _ -> Alcotest.fail "syntax error accepted"
  | Error d ->
      Alcotest.(check bool) "parse diagnostic" true
        (String.length (Diag.to_string d) > 0));
  (* the failed request must not have clobbered the cache *)
  let again = run svc base_files in
  Alcotest.check tier "still clean" Service.Clean again.Service.oc_tier;
  Alcotest.(check (list string))
    "same diagnostics" (render first) (render again)

let test_stats_shape () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  ignore (run svc base_files);
  let stats = Service.stats svc in
  let get k =
    match List.assoc_opt k stats with
    | Some v -> v
    | None -> Alcotest.failf "stats missing %s" k
  in
  Alcotest.(check int) "functions gauge" 5 (get "functions");
  Alcotest.(check int) "entries gauge" 5 (get "entries");
  Alcotest.(check int) "files gauge" 2 (get "files");
  Alcotest.(check int) "rechecked total" 5 (get "incr_rechecked");
  Alcotest.(check int) "hits total" 5 (get "incr_hits");
  Alcotest.(check bool) "sorted by name" true
    (let names = List.map fst stats in
     names = List.sort String.compare names)

(* A Patched request keeps one AST per definition: the file entry
   shares every unchanged declaration with the environment, and only
   the swapped body is new. *)
let test_patched_keeps_one_ast () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let decls () =
    match Service.file_ast svc "a.c" with
    | Some tu -> tu.Ast.tu_decls
    | None -> Alcotest.fail "no AST for a.c"
  in
  let before = decls () in
  let oc =
    run svc (edit "a.c" "return r->v;" "return r->v + 1;" base_files)
  in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  let env = Option.get (Service.environment svc) in
  let in_env (fd : Ast.fundef) =
    List.exists (fun (_, fd') -> fd' == fd) (Sema.fundefs_in env "a.c")
  in
  let after = decls () in
  Alcotest.(check int) "same declaration count" (List.length before)
    (List.length after);
  List.iter2
    (fun od nd ->
      match nd with
      | Ast.Tfundef fd when fd.Ast.f_name = "rec_value" ->
          Alcotest.(check bool) "swapped body is new" false (od == nd);
          Alcotest.(check bool) "swapped body is the environment's" true
            (in_env fd)
      | Ast.Tfundef fd ->
          Alcotest.(check bool)
            (fd.Ast.f_name ^ " kept") true (od == nd);
          Alcotest.(check bool)
            (fd.Ast.f_name ^ " is the environment's") true (in_env fd)
      | _ -> Alcotest.(check bool) "declaration kept" true (od == nd))
    before after

(* [doc_of_file ~current] answers an unchanged file with the stored
   string itself, and any other file with a fresh, equal copy. *)
let test_doc_of_file_in_place () =
  let dir = Filename.temp_dir "incr" "docs" in
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  (* over one 64 KB read buffer: a long comment, then a function *)
  let big =
    "/* " ^ String.make 70000 'x' ^ " */\nint big(void) { return 1; }\n"
  in
  let cases = [ ("a.c", file_a); ("b.c", file_b); ("e.c", ""); ("big.c", big) ] in
  let paths = List.map (fun (name, text) -> write name text) cases in
  let svc = Service.create ~flags () in
  let first = List.map (fun p -> Service.doc_of_file p) paths in
  (match Service.check svc first with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "service error: %s" (Diag.to_string d));
  let stored path =
    (List.find (fun d -> d.Service.doc_name = path) first).Service.doc_text
  in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (Filename.basename path ^ " unchanged: stored string") true
        ((Service.doc_of_file ~current:svc path).Service.doc_text
        == stored path))
    paths;
  let changed name text =
    let path = write name text in
    let d = Service.doc_of_file ~current:svc path in
    Alcotest.(check string) (name ^ " changed: disk bytes") text
      d.Service.doc_text;
    Alcotest.(check bool) (name ^ " changed: fresh string") false
      (d.Service.doc_text == stored path)
  in
  let n = String.length file_a in
  changed "a.c" (String.sub file_a 0 (n - 1) ^ " ");
  changed "b.c" (file_b ^ "\n");
  changed "e.c" "int e;\n";
  changed "big.c"
    (String.mapi (fun i c -> if i = 65536 + 10 then 'y' else c) big);
  changed "a.c" "";
  List.iter Sys.remove paths;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)
(* ------------------------------------------------------------------ *)

(* The environment the service built for [files]. *)
let environment_of files =
  let svc = Service.create ~flags () in
  ignore (run svc files);
  match Service.environment svc with
  | Some env -> env
  | None -> Alcotest.fail "no environment after a check"

(* Byte offset of a 1-based source position in [text]. *)
let offset_of text (loc : Loc.t) =
  let rec line_start i line =
    if line = 1 then i
    else line_start (String.index_from text i '\n' + 1) (line - 1)
  in
  line_start 0 loc.Loc.line + loc.Loc.col - 1

let insert_at text i s =
  String.sub text 0 i ^ s ^ String.sub text i (String.length text - i)

(* A corpus and three edited copies of its first file: the first body
   gains a statement (no line moves), every line moves down by one, and
   a blank line lands before the file's last function. *)
let key_variants files =
  let name, text = List.hd files in
  let fds =
    List.filter
      (fun (fd : Ast.fundef) -> String.equal fd.Ast.f_loc.Loc.file name)
      (List.map snd (Sema.fundefs (environment_of files)))
  in
  let first = List.hd fds and last = List.nth fds (List.length fds - 1) in
  let with_first text' = (name, text') :: List.tl files in
  [
    files;
    with_first
      (insert_at text (offset_of text first.Ast.f_body.Ast.sloc + 1) ";");
    with_first ("\n" ^ text);
    with_first
      (insert_at text
         (offset_of text { last.Ast.f_loc with Loc.col = 1 })
         "\n");
  ]

(* The environments of the paper's figures, progen seeds 1, 7 and 42,
   and the edited copies of each. *)
let key_envs =
  lazy
    (let figures =
       List.map
         (fun text -> [ ("fig.c", text) ])
         Corpus.Figures.
           [
             fig1_sample; fig2_sample_null; fig3_sample_fixed;
             fig4_sample_only_temp; fig5_list_addh; fig5_list_addh_fixed;
             fig7_erc_create; fig8_employee_setname;
           ]
     in
     let progen =
       List.map
         (fun seed ->
           (Progen.generate ~seed ~modules:3 ~fns_per_module:4 ()).Progen.files)
         [ 1; 7; 42 ]
     in
     List.map environment_of (List.concat_map key_variants (figures @ progen)))

(* The edits land where they should: the body edit re-keys only the
   first function, the line shift every function of the edited file, the
   blank line only the function after it. *)
let test_key_edits () =
  let files =
    (Progen.generate ~seed:1 ~modules:3 ~fns_per_module:4 ()).Progen.files
  in
  let keyed env =
    List.map
      (fun (_, (fd : Ast.fundef)) ->
        (fd.Ast.f_loc.Loc.file ^ ":" ^ fd.Ast.f_name, Service.digest_of fd))
      (Sema.fundefs env)
  in
  match List.map (fun fs -> keyed (environment_of fs)) (key_variants files) with
  | [ base; body; shift; blank ] ->
      let rekeyed variant =
        List.filter_map
          (fun ((name, k), (name', k')) ->
            if not (String.equal name name') then
              Alcotest.failf "definition order moved: %s vs %s" name name';
            if String.equal k k' then None else Some name)
          (List.combine base variant)
      in
      let in_m0 =
        List.filter_map
          (fun (name, _) ->
            if String.starts_with ~prefix:"m0.c:" name then Some name else None)
          base
      in
      Alcotest.(check (list string))
        "body edit" [ List.hd in_m0 ] (rekeyed body);
      Alcotest.(check (list string)) "line shift" in_m0 (rekeyed shift);
      Alcotest.(check (list string)) "blank line before the last function"
        [ List.nth in_m0 (List.length in_m0 - 1) ]
        (rekeyed blank)
  | _ -> Alcotest.fail "expected four variants"

(* A copy of [v] that shares no substructure: structurally equal to [v]
   but physically shared differently. *)
let unshare v =
  Marshal.from_string (Marshal.to_string v [ Marshal.No_sharing ]) 0

(* Pairs from [pool]; half of them pair a value with one of the same
   name (usually the same function in an edited copy), so equal and
   near-equal pairs are both common. *)
let pair_arb pool ~name ~print =
  let index =
    lazy
      (let by_name = Hashtbl.create 64 in
       Array.iteri
         (fun i v -> Hashtbl.add by_name (name v) i)
         (Lazy.force pool);
       by_name)
  in
  let gen st =
    let pool = Lazy.force pool in
    let n = Array.length pool in
    let i = Random.State.int st n in
    let j =
      if Random.State.bool st then
        let peers = Hashtbl.find_all (Lazy.force index) (name pool.(i)) in
        List.nth peers (Random.State.int st (List.length peers))
      else Random.State.int st n
    in
    (pool.(i), pool.(j))
  in
  QCheck.make ~print:(fun (a, b) -> print a ^ "\n--- and ---\n" ^ print b) gen

(* [key] partitions the values exactly like structural equality [eq]
   and like the printed form [show] the earlier keys hashed, and does
   not depend on physical sharing. *)
let key_property ~name ~count ~pool ~label ~key ~eq ~show =
  QCheck.Test.make ~count ~name (pair_arb pool ~name:label ~print:show)
    (fun (a, b) ->
      let same_key = String.equal (key a) (key b) in
      same_key = eq a b
      && same_key = String.equal (show a) (show b)
      && String.equal (key (unshare a)) (key a))

let prop_body_key_equivalence =
  key_property ~name:"body keys equal iff ASTs equal" ~count:500
    ~pool:
      (lazy
        (Array.of_list
           (List.concat_map
              (fun env -> List.map snd (Sema.fundefs env))
              (Lazy.force key_envs))))
    ~label:(fun (fd : Ast.fundef) -> fd.Ast.f_name)
    ~key:Service.digest_of ~eq:Ast.equal_fundef ~show:Ast.show_fundef

let prop_funsig_hash_equivalence =
  key_property ~name:"funsig digests equal iff funsigs equal" ~count:500
    ~pool:
      (lazy
        (Array.of_list
           (List.concat_map
              (fun env ->
                Hashtbl.fold (fun _ fs acc -> fs :: acc) env.Sema.p_funcs [])
              (Lazy.force key_envs))))
    ~label:(fun (fs : Sema.funsig) -> fs.Sema.fs_name)
    ~key:Service.digest_of ~eq:( = ) ~show:Sema.show_funsig

(* ------------------------------------------------------------------ *)
(* The protocol layer                                                  *)
(* ------------------------------------------------------------------ *)

let obj_get k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S" k

let get_string k j =
  match J.to_string_opt (obj_get k j) with
  | Some s -> s
  | None -> Alcotest.failf "response field %S not a string" k

let get_int k j =
  match J.to_int_opt (obj_get k j) with
  | Some n -> n
  | None -> Alcotest.failf "response field %S not an int" k

let get_bool k j =
  match obj_get k j with
  | J.Bool b -> b
  | _ -> Alcotest.failf "response field %S not a bool" k

let check_request files =
  J.Obj
    [
      ("op", J.String "check");
      ( "files",
        J.List
          (List.map
             (fun (name, text) ->
               J.Obj
                 [ ("name", J.String name); ("text", J.String text) ])
             files) );
    ]

let test_protocol_check () =
  let svc = Service.create ~flags () in
  let resp, keep = Server.handle svc (check_request base_files) in
  Alcotest.(check bool) "keeps serving" true keep;
  Alcotest.(check bool) "ok" true (get_bool "ok" resp);
  Alcotest.(check string) "tier" "cold" (get_string "tier" resp);
  Alcotest.(check int) "functions" 5 (get_int "functions" resp);
  (match obj_get "diagnostics" resp with
  | J.List ds ->
      Alcotest.(check int) "diagnostics = warnings + suppressed"
        (get_int "warnings" resp + get_int "suppressed" resp)
        (List.length ds)
  | _ -> Alcotest.fail "diagnostics not a list");
  (* the same request again is served from cache *)
  let resp2, _ = Server.handle svc (check_request base_files) in
  Alcotest.(check string) "clean tier" "clean" (get_string "tier" resp2);
  Alcotest.(check int) "no rechecks" 0 (get_int "rechecked" resp2)

let test_protocol_stats_invalidate_shutdown () =
  let svc = Service.create ~flags () in
  ignore (Server.handle svc (check_request base_files));
  let stats, _ = Server.handle svc (J.Obj [ ("op", J.String "stats") ]) in
  Alcotest.(check bool) "stats ok" true (get_bool "ok" stats);
  Alcotest.(check int) "stats entries" 5 (get_int "entries" stats);
  (* the process's heap, next to the service's gauges *)
  let heap = get_int "heap_words" stats
  and top = get_int "top_heap_words" stats in
  Alcotest.(check bool) "heap_words positive" true (heap > 0);
  Alcotest.(check bool) "top_heap_words >= heap_words" true (top >= heap);
  (match stats with
  | J.Obj fields ->
      let names = List.filter (fun k -> k <> "op" && k <> "ok") (List.map fst fields) in
      Alcotest.(check (list string)) "gauges sorted by name"
        (List.sort String.compare names) names
  | _ -> Alcotest.fail "stats not an object");
  let inv, _ =
    Server.handle svc
      (J.Obj
         [
           ("op", J.String "invalidate");
           ("files", J.List [ J.String "b.c" ]);
         ])
  in
  Alcotest.(check int) "dropped" 2 (get_int "dropped" inv);
  let bye, keep = Server.handle svc (J.Obj [ ("op", J.String "shutdown") ]) in
  Alcotest.(check bool) "shutdown ok" true (get_bool "ok" bye);
  Alcotest.(check bool) "stops serving" false keep

let test_protocol_errors () =
  let svc = Service.create ~flags () in
  let bad_op, keep =
    Server.handle svc (J.Obj [ ("op", J.String "frobnicate") ])
  in
  Alcotest.(check bool) "unknown op keeps serving" true keep;
  Alcotest.(check bool) "unknown op not ok" false (get_bool "ok" bad_op);
  let no_files, _ = Server.handle svc (J.Obj [ ("op", J.String "check") ]) in
  Alcotest.(check bool) "missing files not ok" false
    (get_bool "ok" no_files);
  let bad_entry, _ =
    Server.handle svc
      (J.Obj
         [
           ("op", J.String "check");
           ("files", J.List [ J.Obj [ ("name", J.String "x.c") ] ]);
         ])
  in
  Alcotest.(check bool) "entry without text not ok" false
    (get_bool "ok" bad_entry);
  let syntax, _ =
    Server.handle svc
      (check_request [ ("x.c", "int broken(void) { return 1") ])
  in
  Alcotest.(check bool) "syntax error not ok" false (get_bool "ok" syntax);
  Alcotest.(check bool) "error text present" true
    (String.length (get_string "error" syntax) > 0)

let () =
  Alcotest.run "incr"
    [
      ( "service",
        [
          Alcotest.test_case "cold matches direct" `Quick
            test_cold_matches_direct;
          Alcotest.test_case "clean no-op" `Quick test_clean_noop;
          Alcotest.test_case "body edit" `Quick test_body_edit_patches;
          Alcotest.test_case "funsig edit" `Quick
            test_funsig_edit_rechecks_callers;
          Alcotest.test_case "summary edit recheck" `Quick
            test_summary_edit_rechecks_callers;
          Alcotest.test_case "summary refresh cases" `Quick
            test_refresh_cases;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 14 |])
            prop_refresh_equivalence;
          Alcotest.test_case "type edit" `Quick
            test_type_edit_invalidates_all;
          Alcotest.test_case "removed typedef re-parses" `Quick
            test_removed_typedef_reparses;
          Alcotest.test_case "flag change" `Quick
            test_flag_change_invalidates;
          Alcotest.test_case "block-scope declaration stays local" `Quick
            test_block_scope_decl_stays_local;
          Alcotest.test_case "block-scope typedef, sibling edit" `Quick
            test_block_scope_typedef_sibling_edit;
          Alcotest.test_case "mutating file re-checked whole" `Quick
            test_mutating_file_rechecked_whole;
          Alcotest.test_case "sema diagnostics while checking" `Quick
            test_sema_diags_while_checking;
          Alcotest.test_case "removed declaration re-checks its file" `Quick
            test_removed_declaration_rechecks_file;
          Alcotest.test_case "jobs equivalence" `Quick test_jobs_equivalence;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "parse error keeps state" `Quick
            test_parse_error_keeps_state;
          Alcotest.test_case "stats" `Quick test_stats_shape;
          Alcotest.test_case "patched file keeps one AST" `Quick
            test_patched_keeps_one_ast;
          Alcotest.test_case "unchanged file read in place" `Quick
            test_doc_of_file_in_place;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "removed declaration" `Quick
            test_persistence_removed_declaration;
          Alcotest.test_case "corruption rejected" `Quick
            test_persistence_rejects_corruption;
          Alcotest.test_case "summaries marker scan" `Quick
            test_persistence_marker_scan;
        ] );
      ( "keys",
        [
          Alcotest.test_case "edited copies" `Quick test_key_edits;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 17 |])
            prop_body_key_equivalence;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 17 |])
            prop_funsig_hash_equivalence;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "check" `Quick test_protocol_check;
          Alcotest.test_case "stats/invalidate/shutdown" `Quick
            test_protocol_stats_invalidate_shutdown;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
        ] );
    ]
