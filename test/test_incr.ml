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

(* How many entries [f]'s requests validated. *)
let validated_during svc f =
  let count () = List.assoc "incr_validated" (Service.stats svc) in
  let before = count () in
  let r = f () in
  (r, count () - before)

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

(* The definitions whose body lies in [file], in definition order. *)
let fundefs_in env file =
  List.filter
    (fun (_, (fd : Ast.fundef)) -> String.equal fd.Ast.f_loc.Loc.file file)
    (Sema.fundefs env)

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
  let oc, validated = validated_during svc (fun () -> run svc edited) in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check int) "exactly one re-check" 1 oc.Service.oc_rechecked;
  Alcotest.(check int) "exactly one entry validated" 1 validated;
  Alcotest.(check int) "four hits" 4 oc.Service.oc_hits;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

(* A Patched request reuses the previous answer only while no
   re-checked entry's diagnostics and no suppression comment changed.
   Each request below must answer as a cold check does: a suppression
   comment added after a statement (no body changes) and removed, an
   unclosed ignore comment whose error is the suppression table's, and
   then a body edit elsewhere and a resubmission, which keep that error
   and count it in telemetry as a cold check's emission does. *)
let test_answer_reuse () =
  let svc = Service.create ~flags () in
  let step what ?(want = Service.Patched) files =
    let oc = run svc files in
    Alcotest.check tier (what ^ ": tier") want oc.Service.oc_tier;
    Alcotest.(check (list string))
      (what ^ ": matches a cold check") (direct files) (render oc);
    oc
  in
  let leak = "r = s;\n" in
  let plain = step "cold" ~want:Service.Cold base_files in
  let commented = edit "b.c" leak "r = s; /*@i@*/\n" base_files in
  let oc = step "suppression comment added" commented in
  Alcotest.(check int) "the comment changes no body" 0 oc.Service.oc_rechecked;
  Alcotest.(check bool) "the comment suppresses the leak" true
    (List.length oc.Service.oc_suppressed
    > List.length plain.Service.oc_suppressed);
  ignore (step "suppression comment removed" base_files);
  let unclosed files = edit "b.c" "rec_destroy(r);\n}\n" "rec_destroy(r);\n}\n/*@ignore@*/\n" files in
  let oc = step "unclosed ignore comment" (unclosed base_files) in
  let errors =
    List.filter
      (fun (d : Diag.t) -> d.Diag.code = "suppress")
      (oc.Service.oc_kept @ oc.Service.oc_suppressed)
  in
  Alcotest.(check int) "one suppression-table error" 1 (List.length errors);
  let edited = unclosed (edit "a.c" "return r->v;" "return r->v + 0;" base_files) in
  let oc = step "body edit elsewhere" edited in
  Alcotest.(check int) "one re-check" 1 oc.Service.oc_rechecked;
  let counted f =
    Telemetry.set_enabled true;
    Telemetry.reset ();
    Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f;
    Option.value ~default:0
      (List.assoc_opt
         (Telemetry.diag_counter_prefix ^ Diag.category (List.hd errors))
         (Telemetry.counters ()))
  in
  ignore (step "resubmission" ~want:Service.Clean edited);
  Alcotest.(check int) "a resubmission counts the error as a cold emission does"
    (counted (fun () -> ignore (direct edited)))
    (counted (fun () -> ignore (run svc edited)))

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

(* A four-module corpus with one editable line per slot.  h0 <- h1 <-
   h2 <- drive is a helper chain, so a release inserted into h0 reaches
   two caller levels above it; ev/od is a mutually recursive SCC; leaf
   starts with no defined callee, so giving it one moves the call graph;
   k0 <- k1 <- k2 <- k3 <- k4 <- drive3 is a deeper chain whose top also
   calls its bottom, so k4 must be re-solved after k3, not when k0's
   change first reaches it.  Every variant is one line, so no function
   header shifts and every edit is a body-only (Patched) request. *)
let refresh_slots =
  [|
    ("lib.c", [| "r[0] = 0;"; "free(r);"; "if (r[0] == 'x') { free(r); }";
                 "r[0] = 5;" |]);
    ("mid.c", [| "r[0] = 1;"; "if (n == 1) { free(r); }" |]);
    ("mid.c", [| "r[0] = 2;"; "if (n == 0) { free(r); }"; "free(r);" |]);
    ("mid.c", [| "r[0] = 3;"; "h0(r);"; "h2(r);"; "free(r);" |]);
    ("deep.c", [| "r[0] = 4;"; "free(r);"; "if (r[0] == 'y') { free(r); }" |]);
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
    ( "deep.c",
      "void k0(char *r)\n\
       {\n" ^ slot 4 ^ "\n\
       }\n\
       void k1(char *r)\n\
       {\n\
       k0(r);\n\
       }\n\
       void k2(char *r)\n\
       {\n\
       k1(r);\n\
       }\n\
       void k3(char *r)\n\
       {\n\
       k2(r);\n\
       }\n\
       void k4(char *r, int n)\n\
       {\n\
       if (n > 0) { k0(r); return; }\n\
       k3(r);\n\
       }\n\
       int drive3(void)\n\
       {\n\
       char *p = (char *) malloc(1);\n\
       if (p == NULL) { return 1; }\n\
       p[0] = 'x';\n\
       k4(p, 1);\n\
       return p[0];\n\
       }\n" );
  ]

let refresh_functions = 14

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
  let choice = [| 0; 0; 0; 0; 0 |] in
  let files = refresh_files choice in
  check_refreshed "cold" svc files (run svc files);
  let hash name = List.assoc name (Service.summary_hashes svc) in
  (* an effect-neutral body edit re-summarizes the edited function only,
     and validates its entry alone *)
  choice.(0) <- 3;
  let ((files, oc), n), validated =
    validated_during svc (fun () ->
        summary_funcs_during (fun () -> patched_request svc choice))
  in
  Alcotest.(check int) "effect-neutral edit: one function summarized" 1 n;
  Alcotest.(check int) "effect-neutral edit: one entry validated" 1 validated;
  Alcotest.(check int) "effect-neutral edit: one re-check" 1
    oc.Service.oc_rechecked;
  check_refreshed "effect-neutral edit" svc files oc;
  (* inserting free(r) into h0 changes h0, h1 and h2, and stops at
     drive, whose summary has nothing to change *)
  let h2_before = hash "h2" in
  choice.(0) <- 1;
  let ((files, oc), n), validated =
    validated_during svc (fun () ->
        summary_funcs_during (fun () -> patched_request svc choice))
  in
  Alcotest.(check int) "release inserted: h0, h1, h2, drive summarized" 4 n;
  (* the callers of a moved summary: h1, h2 and drive *)
  Alcotest.(check int) "release inserted: h0 and three callers validated" 4
    validated;
  Alcotest.(check bool) "two caller levels up, h2's summary changed" true
    (hash "h2" <> h2_before);
  check_refreshed "release inserted" svc files oc;
  (* ... and removing it again *)
  choice.(0) <- 0;
  let files, oc = patched_request svc choice in
  Alcotest.(check string) "release removed: h2 is back" h2_before (hash "h2");
  check_refreshed "release removed" svc files oc;
  (* a release at the bottom of the deep chain reaches k4 both directly
     and through k3 *)
  choice.(4) <- 1;
  let (files, oc), n =
    summary_funcs_during (fun () -> patched_request svc choice)
  in
  Alcotest.(check int) "deep chain: k0..k4 and drive3 summarized" 6 n;
  check_refreshed "deep chain" svc files oc;
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

(* A line inserted into a body shifts every later definition of its
   file.  With a struct below the edit, the type environment digests
   alike (struct and field locations are not in it), so only the edited
   body, the two shifted definitions and the caller of a shifted
   signature re-check.  With a global there instead, its location is in
   the digest and everything re-checks. *)
let test_line_shift_above_struct () =
  let files later =
    [
      ( "s.c",
        "int first(int x)\n\
         {\n\
         return x;\n\
         }\n\
         int second(int y) { return y; }\n" ^ later ^ "\n\
         int third(void) { return 0; }\n" );
      ( "u.c",
        "int use_second(void) { return second(1); }\n\
         int use_first(void) { return first(1); }\n\
         int alone(void) { return 5; }\n" );
    ]
  in
  let shift files = edit "s.c" "{\nreturn x;" "{\nx = x + 1;\nreturn x;" files in
  List.iter
    (fun (what, later, want) ->
      let svc = Service.create ~flags () in
      ignore (run svc (files later));
      let edited = shift (files later) in
      let oc = run svc edited in
      Alcotest.check tier (what ^ ": rebuilt") Service.Rebuilt
        oc.Service.oc_tier;
      Alcotest.(check int) (what ^ ": re-checked") want oc.Service.oc_rechecked;
      Alcotest.(check (list string))
        (what ^ ": matches a cold check") (direct edited) (render oc))
    [
      ("struct below", "struct later { int a; /*@null@*/ char *b; };", 4);
      ("global below", "int later_count;", 6);
    ]

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

(* The Patched-tier gate parses every changed file under its recorded
   typedef scope; when an interface changed, the rebuild reuses those
   ASTs, so a rebuilt request parses each changed file once and no
   unchanged one.  A changed file whose typedef scope moved is parsed
   again under the new one (the removed-typedef case above). *)
let test_interface_edit_parses_once () =
  let rec parses file spans =
    List.fold_left
      (fun n (sp : Telemetry.span) ->
        n
        + (if sp.Telemetry.sp_name = Telemetry.phase_parse
              && sp.Telemetry.sp_file = Some file
           then 1
           else 0)
        + parses file sp.Telemetry.sp_children)
      0 spans
  in
  List.iter
    (fun (what, edited, want) ->
      let svc = Service.create ~flags () in
      ignore (run svc base_files);
      Telemetry.set_enabled true;
      Telemetry.reset ();
      let oc =
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled false)
          (fun () -> run svc edited)
      in
      let spans = Telemetry.spans () in
      Telemetry.reset ();
      Alcotest.check tier (what ^ ": rebuilt tier") Service.Rebuilt
        oc.Service.oc_tier;
      Alcotest.(check (list int))
        (what ^ ": parses of a.c, b.c")
        want
        [ parses "a.c" spans; parses "b.c" spans ];
      Alcotest.(check (list string))
        (what ^ ": same as cold") (direct edited) (render oc))
    [
      ( "one interface edit",
        edit "b.c" "void use_leak(void)" "void use_leak(int u)" base_files,
        [ 0; 1 ] );
      ( "an interface and a body edit",
        edit "a.c" "return r->v;" "return r->v + 1;"
          (edit "b.c" "void use_leak(void)" "void use_leak(int u)"
             base_files),
        [ 1; 1 ] );
    ]

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
   declaration in the body's own overlay of the environment, so it
   stays out of every other body (`olclint a.c b.c` reports [mk] as unrecognized in
   [b.c]); the service must not leak it into the persistent environment
   either. *)
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
   only [a]'s body declares.  Resolving [T] in [b] reports "unknown
   type name" into [b]'s own overlay, never into the persistent
   environment, so it is not repeated after every edit. *)
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

(* [base], then [target], through one service: the answer equals a cold
   run of [target] at -j 1 and -j 4, reached on tier [want] with
   [rechecked] bodies re-checked. *)
let warm_like_cold ~what ~base ~target ~want ~rechecked =
  List.iter
    (fun jobs ->
      let j = Printf.sprintf "%s, -j %d" what jobs in
      let cold = render (run ~jobs (Service.create ~flags ()) target) in
      let svc = Service.create ~flags () in
      ignore (run ~jobs svc base);
      let oc = run ~jobs svc target in
      Alcotest.check tier ("tier, " ^ j) want oc.Service.oc_tier;
      Alcotest.(check int) ("re-checked, " ^ j) rechecked
        oc.Service.oc_rechecked;
      Alcotest.(check (list string)) ("same as cold, " ^ j) cold (render oc))
    [ 1; 4 ]

(* [target] on a service restarted from the cache [base] left: the answer
   equals a cold run of [target] at -j 1 and -j 4, with [rechecked]
   bodies re-checked and the rest adopted. *)
let restart_like_cold ~what ~base ~target ~rechecked =
  List.iter
    (fun jobs ->
      let j = Printf.sprintf "%s, -j %d" what jobs in
      let cold = render (run ~jobs (Service.create ~flags ()) target) in
      let svc = Service.create ~flags () in
      ignore (run ~jobs svc base);
      let fresh = Service.create ~flags () in
      (match Service.load fresh (Service.save svc) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "load: %s" msg);
      let oc = run ~jobs fresh target in
      Alcotest.(check int) ("re-checked after restart, " ^ j) rechecked
        oc.Service.oc_rechecked;
      Alcotest.(check (list string)) ("restart same as cold, " ^ j) cold
        (render oc))
    [ 1; 4 ]

(* A body sees the interfaces and its own declarations only: [a]'s
   block-scope typedef does not reach [b], although the parser's
   file-wide typedef table lets [b] name [T].  Resolving [T] in [b]
   reports the unknown type name into [b]'s own result, the same on
   every tier and after a restart. *)
let test_block_scope_typedef_stays_in_body () =
  let files ?(a = "int a(void)") n =
    [
      ( "t.c",
        Printf.sprintf
          "#include <stdlib.h>\n\
           %s { typedef char *T; return 0; }\n\
           int b(void) { T p = NULL; return *p + %d; }\n"
          a n );
    ]
  in
  Alcotest.(check (list string))
    "cold: T unknown in b"
    [ "t.c:3,17: unknown type name 'T'" ]
    (List.map
       (fun d -> List.hd (String.split_on_char '\n' d))
       (render (run (Service.create ~flags ()) (files 1))));
  warm_like_cold ~what:"body edit" ~base:(files 0) ~target:(files 1)
    ~want:Service.Patched ~rechecked:1;
  warm_like_cold ~what:"interface edit" ~base:(files 0)
    ~target:(files ~a:"int a(int u)" 0)
    ~want:Service.Rebuilt ~rechecked:1;
  restart_like_cold ~what:"body edit" ~base:(files 0) ~target:(files 1)
    ~rechecked:1

(* What sema reports while a body is checked -- a block-scope
   redeclaration, a type name only a closed block declared -- goes to
   the collector of that body's own overlay.  It joins the result of
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

(* [a]'s block-scope [extern] never reaches [b], so removing it changes
   [a]'s body alone: only [a] is re-checked, after a body-only edit and
   after one that also changes an interface. *)
let with_decl =
  [
    ( "t.c",
      "void a(void) { extern /*@null@*/ char *mk(void); }\n\
       char b(void) { char *p = mk(); return *p; }\n" );
  ]

let removed_decl = edit "t.c" "extern /*@null@*/ char *mk(void);" ";" with_decl
let removed_and_retyped = edit "t.c" "void a(void)" "void a(int u)" removed_decl

let test_removed_declaration_rechecks_body () =
  let cold files = render (run (Service.create ~flags ()) files) in
  Alcotest.(check (list string))
    "cold: mk unrecognized in b"
    [ "t.c:2,26: unrecognized identifier 'mk'" ]
    (List.map
       (fun d -> List.hd (String.split_on_char '\n' d))
       (cold with_decl));
  Alcotest.(check (list string))
    "the declaration leaves b's result alone" (cold with_decl)
    (cold removed_decl);
  warm_like_cold ~what:"body edit" ~base:with_decl ~target:removed_decl
    ~want:Service.Patched ~rechecked:1;
  warm_like_cold ~what:"interface edit" ~base:with_decl
    ~target:removed_and_retyped ~want:Service.Rebuilt ~rechecked:1

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
    (Result.is_ok (Check.Libspec.unstamp ~kind:Service.cache_kind blob));
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

(* The same removal across a restart: [b]'s persisted result is adopted
   (its content key covers its own body and the interfaces, not its
   siblings), and the answer equals a cold run. *)
let test_persistence_removed_declaration () =
  restart_like_cold ~what:"body edit" ~base:with_decl ~target:removed_decl
    ~rechecked:1;
  restart_like_cold ~what:"interface edit" ~base:with_decl
    ~target:removed_and_retyped ~rechecked:1

(* The functions [f] checks, by (file, name), read off the
   per-procedure check spans, with [f]'s result. *)
let checked_by f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let result =
    Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f
  in
  let rec checked spans =
    List.concat_map
      (fun (sp : Telemetry.span) ->
        (if sp.Telemetry.sp_name = Telemetry.phase_check then
           [
             ( Option.get sp.Telemetry.sp_file,
               Option.get sp.Telemetry.sp_label );
           ]
         else [])
        @ checked sp.Telemetry.sp_children)
      spans
  in
  let names = List.sort compare (checked (Telemetry.spans ())) in
  Telemetry.reset ();
  (result, names)

(* One live service takes a sequence of edits.  Before each, a second
   service is restarted from the cache the live one saved: given the
   edited documents, it must re-check exactly the functions the live
   one re-checks ([want] of them), and answer the same, as a cold check
   does. *)
let test_persistence_restart_agrees () =
  let files = base_files @ xproc_files in
  let steps =
    [
      ("body edit", [], edit "b.c" "return v;" "return v + 1;", 1);
      (* the function and its two callers *)
      ( "funsig edit",
        [],
        edit "a.c" "/*@only@*/ rec *rec_create" "rec *rec_create",
        3 );
      ("struct edit", [], edit "a.c" "{ int v;" "{ int v; int extra;", 7);
      ("flag change", [ "-null" ], Fun.id, 7);
      ("+xproc on", [ "+xproc" ], Fun.id, 7);
      (* the callee and the caller its moved summary reaches *)
      ( "+xproc callee body edit",
        [ "+xproc" ],
        edit "h.c" "free(r);" "r[0] = 0;",
        2 );
    ]
  in
  let live = Service.create ~flags () in
  ignore (run live files);
  ignore
    (List.fold_left
       (fun files (what, flag_args, change, want) ->
         let target = change files in
         let restarted = Service.create ~flags () in
         (match Service.load restarted (Service.save live) with
         | Ok _ -> ()
         | Error msg -> Alcotest.failf "%s: load: %s" what msg);
         let oc, live_checked =
           checked_by (fun () -> run ~flag_args live target)
         in
         let oc', restart_checked =
           checked_by (fun () -> run ~flag_args restarted target)
         in
         Alcotest.(check (list (pair string string)))
           (what ^ ": same functions re-checked")
           live_checked restart_checked;
         Alcotest.(check (pair int int))
           (what ^ ": re-checks")
           (want, want)
           (oc.Service.oc_rechecked, List.length live_checked);
         Alcotest.(check (list string))
           (what ^ ": same answer") (render oc) (render oc');
         Alcotest.(check (list string))
           (what ^ ": same as cold")
           (render (run ~flag_args (Service.create ~flags ()) target))
           (render oc);
         target)
       files steps)

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
    "same diagnostics" (render first) (render again);
  (* a request that takes the rebuilt tier drops the environment before
     it builds: a new broken file, and a flag change over a broken b.c,
     fail in the build and must leave the previous environment rebuilt
     from the cached ASTs, no document parsed again *)
  let rebuild_fails what ?flag_args files =
    (match Service.check ?flag_args svc (docs files) with
    | Ok _ -> Alcotest.failf "%s: syntax error accepted" what
    | Error _ -> ());
    let env =
      match Service.environment svc with
      | Some env -> env
      | None -> Alcotest.failf "%s: environment not restored" what
    in
    List.iter
      (fun (name, _) ->
        let cached =
          match Service.file_ast svc name with
          | Some tu -> tu.Ast.tu_decls
          | None -> Alcotest.failf "%s: no AST for %s" what name
        in
        List.iter
          (fun (_, fd) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s is the cached AST's" what fd.Ast.f_name)
              true
              (List.exists
                 (function Ast.Tfundef fd' -> fd' == fd | _ -> false)
                 cached))
          (fundefs_in env name))
      base_files;
    let again = run svc base_files in
    Alcotest.check tier (what ^ ": still clean") Service.Clean
      again.Service.oc_tier;
    Alcotest.(check (list string))
      (what ^ ": same diagnostics") (render first) (render again)
  in
  rebuild_fails "new broken file"
    (base_files @ [ ("c.c", "int broken(void) { return 1") ]);
  rebuild_fails "flag change" ~flag_args:[ "+loopexec" ] broken;
  (* the restored environment takes the next edit like any other *)
  let edited = edit "a.c" "return r->v;" "return r->v + 1;" base_files in
  let oc = run svc edited in
  Alcotest.check tier "patched after the restore" Service.Patched
    oc.Service.oc_tier;
  Alcotest.(check (list string))
    "patched after the restore: a cold check" (direct edited) (render oc);
  (* under +xproc the restored environment carries its summaries *)
  let xsvc = Service.create ~flags:xproc_flags () in
  ignore (run xsvc xproc_files);
  (match
     Service.check xsvc
       (docs (xproc_files @ [ ("c.c", "int broken(void) { return 1") ]))
   with
  | Ok _ -> Alcotest.fail "+xproc: syntax error accepted"
  | Error _ -> ());
  let oc = run xsvc xproc_files in
  Alcotest.check tier "+xproc: still clean" Service.Clean oc.Service.oc_tier;
  check_refreshed "+xproc restore" xsvc xproc_files oc

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
  Alcotest.(check int) "validated: all on cold, none when clean" 5
    (get "incr_validated");
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
    List.exists (fun (_, fd') -> fd' == fd) (fundefs_in env "a.c")
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

(* Inside the racy window a held text is compared with the file through
   a descriptor, and the file must end where the text does: a same-size
   rewrite is seen, and a file that grew past the held text or shrank to
   a prefix of it, at a read-buffer boundary or not, comes back whole. *)
let test_racy_reread () =
  let dir = Filename.temp_dir "incr" "racy" in
  let path = Filename.concat dir "big.c" in
  let write text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let held =
    "/* " ^ String.make 70000 'x' ^ " */\nint big(void) { return 1; }\n"
  in
  write held;
  let svc = Service.create ~flags () in
  let doc = Service.doc_of_file ~current:svc path in
  (match Service.check svc [ doc ] with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "service error: %s" (Diag.to_string d));
  let stored = doc.Service.doc_text in
  let read what text =
    write text;
    let got = (Service.doc_of_file ~current:svc path).Service.doc_text in
    Alcotest.(check string) (what ^ ": the file's bytes") text got;
    got
  in
  Alcotest.(check bool) "unchanged: the held string" true
    (read "unchanged" held == stored);
  let n = String.length held in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) (what ^ ": a fresh string") false
        (read what text == stored))
    [
      ( "same size, second buffer",
        String.mapi (fun i c -> if i = n - 5 then 'y' else c) held );
      ("grew", held ^ "int z;\n");
      ("shrank to a buffer boundary", String.sub held 0 65536);
      ("shrank", String.sub held 0 (n - 1));
      ("emptied", "");
    ];
  Sys.remove path;
  Sys.rmdir dir

(* Documents on disk for the stat-stamp tests: [a.c] and [b.c] in a
   fresh directory, read the way the server reads a path. *)
type disk = { dir : string; pa : string; pb : string }

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let make_disk () =
  let dir = Filename.temp_dir "incr" "stamps" in
  let d =
    { dir; pa = Filename.concat dir "a.c"; pb = Filename.concat dir "b.c" }
  in
  write_file d.pa file_a;
  write_file d.pb file_b;
  d

let remove_disk d =
  List.iter Sys.remove [ d.pa; d.pb ];
  Sys.rmdir d.dir

let doc_reads svc = List.assoc "doc_reads" (Service.stats svc)

(* One path-named request: the documents it read, its outcome, and the
   number of files whose bytes it read.  The answer must equal a cold
   check of what is on disk now. *)
let disk_request ?jobs what svc d =
  let before = doc_reads svc in
  let ds = List.map (Service.doc_of_file ~current:svc) [ d.pa; d.pb ] in
  let oc =
    match Service.check ?jobs svc ds with
    | Ok oc -> oc
    | Error e -> Alcotest.failf "%s: service error: %s" what (Diag.to_string e)
  in
  let on_disk =
    List.map (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
      [ d.pa; d.pb ]
  in
  Alcotest.(check (list string))
    (what ^ ": a cold check of the files") (direct on_disk) (render oc);
  (ds, oc, doc_reads svc - before)

let text_of ds path =
  (List.find (fun doc -> doc.Service.doc_name = path) ds).Service.doc_text

(* Inside the racy window every request reads the files (here at
   -j 4): a same-size edit written right after a request is seen, a
   [touch] that keeps the bytes answers with the stored string, and
   [invalidate] drops the stamps of the files it drops. *)
let test_stamps_racy_window () =
  let d = make_disk () in
  let svc = Service.create ~flags () in
  let ds0, oc, reads = disk_request ~jobs:4 "cold" svc d in
  Alcotest.check tier "cold" Service.Cold oc.Service.oc_tier;
  Alcotest.(check int) "cold reads both files" 2 reads;
  Alcotest.(check bool) "a.c stamped" true (Service.stamped svc d.pa);
  (* same size, same second: only the bytes tell *)
  write_file d.pa (replace ~what:"r->v = v;" ~with_:"r->v = 7;" file_a);
  let ds1, oc, reads = disk_request ~jobs:4 "same-size edit" svc d in
  Alcotest.check tier "same-size edit patched" Service.Patched
    oc.Service.oc_tier;
  Alcotest.(check int) "racy files are read" 2 reads;
  Alcotest.(check bool) "unchanged b.c: stored string" true
    (text_of ds1 d.pb == text_of ds0 d.pb);
  Unix.utimes d.pa 0.0 0.0;
  let ds2, oc, _ = disk_request ~jobs:4 "touch" svc d in
  Alcotest.check tier "touch is clean" Service.Clean oc.Service.oc_tier;
  Alcotest.(check bool) "touched a.c: stored string" true
    (text_of ds2 d.pa == text_of ds1 d.pa);
  ignore (Service.invalidate svc (Some [ d.pa ]));
  Alcotest.(check bool) "invalidated a.c unstamped" false
    (Service.stamped svc d.pa);
  Alcotest.(check bool) "b.c keeps its stamp" true (Service.stamped svc d.pb);
  ignore (Service.invalidate svc None);
  Alcotest.(check bool) "invalidate all: b.c unstamped" false
    (Service.stamped svc d.pb);
  remove_disk d

(* Once a comparison happened [racy_margin] after the files' last
   change, an unchanged resubmission costs a [stat] per file and reads
   nothing; an in-memory buffer in between, a [touch], and a same-size
   replacement through [rename] with the old mtime restored, are still
   seen. *)
let test_stamps_settled () =
  let d = make_disk () in
  (* a whole-second mtime, so that [Unix.utimes] can restore it exactly;
     setting it makes ctime now, which keeps the files racy *)
  let mtime = Float.round (Unix.gettimeofday ()) -. 10.0 in
  List.iter (fun p -> Unix.utimes p mtime mtime) [ d.pa; d.pb ];
  let svc = Service.create ~flags () in
  let ds0, _, _ = disk_request "cold" svc d in
  let _, _, reads = disk_request "old mtime, new ctime" svc d in
  Alcotest.(check int) "a new ctime keeps the stamps racy" 2 reads;
  Unix.sleepf (Service.racy_margin +. 0.2);
  let _, _, reads = disk_request "first after the margin" svc d in
  Alcotest.(check int) "the racy stamps are compared once more" 2 reads;
  let ds, oc, reads = disk_request "settled resubmission" svc d in
  Alcotest.check tier "settled resubmission clean" Service.Clean
    oc.Service.oc_tier;
  Alcotest.(check int) "settled resubmission reads nothing" 0 reads;
  List.iter
    (fun p ->
      Alcotest.(check bool) (Filename.basename p ^ ": stored string") true
        (text_of ds p == text_of ds0 p))
    [ d.pa; d.pb ];
  (* an in-memory buffer for a.c replaces the text the service holds:
     a.c's settled stamp no longer vouches for what the service has *)
  let buffer = replace ~what:"return r->v;" ~with_:"return r->v + 1;" file_a in
  ignore (run svc [ (d.pa, buffer); (d.pb, file_b) ]);
  let ds1, oc, reads = disk_request "after an in-memory buffer" svc d in
  Alcotest.check tier "back to the file: patched" Service.Patched
    oc.Service.oc_tier;
  Alcotest.(check int) "only the file under the buffer is read" 1 reads;
  Unix.utimes d.pa 0.0 0.0;
  let ds, oc, reads = disk_request "touch" svc d in
  Alcotest.check tier "touch is clean" Service.Clean oc.Service.oc_tier;
  Alcotest.(check int) "only the touched file is read" 1 reads;
  Alcotest.(check bool) "touched a.c: stored string" true
    (text_of ds d.pa == text_of ds1 d.pa);
  let old = Unix.stat d.pb in
  let tmp = Filename.concat d.dir "b.c.new" in
  write_file tmp (replace ~what:"rec_create(2)" ~with_:"rec_create(3)" file_b);
  Sys.rename tmp d.pb;
  Unix.utimes d.pb old.Unix.st_atime old.Unix.st_mtime;
  let ds, oc, reads = disk_request "rename, old mtime" svc d in
  Alcotest.check tier "replaced b.c patched" Service.Patched
    oc.Service.oc_tier;
  Alcotest.(check int) "the replaced file and the still racy a.c are read" 2
    reads;
  Alcotest.(check bool) "replaced b.c: fresh string" false
    (text_of ds d.pb == text_of ds0 d.pb);
  remove_disk d

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

(* [key] partitions the values exactly like structural equality [eq],
   and does not depend on physical sharing.  [print] renders a
   counterexample. *)
let key_property ~name ~count ~pool ~label ~key ~eq ~print =
  QCheck.Test.make ~count ~name (pair_arb pool ~name:label ~print)
    (fun (a, b) ->
      let same_key = String.equal (key a) (key b) in
      same_key = eq a b && String.equal (key (unshare a)) (key a))

let prop_body_key_equivalence =
  key_property ~name:"body keys equal iff ASTs equal" ~count:500
    ~pool:
      (lazy
        (Array.of_list
           (List.concat_map
              (fun env -> List.map snd (Sema.fundefs env))
              (Lazy.force key_envs))))
    ~label:(fun (fd : Ast.fundef) -> fd.Ast.f_name)
    ~key:Service.digest_of ~eq:Ast.equal_fundef
    ~print:(Fmt.str "%a" Cfront.Pretty.pp_fundef)

let prop_funsig_hash_equivalence =
  key_property ~name:"funsig digests equal iff funsigs equal" ~count:500
    ~pool:
      (lazy
        (Array.of_list
           (List.concat_map
              (fun env ->
                List.filter_map (Sema.find_func env) (Sema.func_order env))
              (Lazy.force key_envs))))
    ~label:(fun (fs : Sema.funsig) -> fs.Sema.fs_name)
    ~key:Service.digest_of ~eq:( = )
    ~print:(fun (fs : Sema.funsig) -> fs.Sema.fs_name)

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
  (* the process's heap, next to the service's gauges: sizes once a
     major cycle has completed, null before (the runtime reports 0
     then).  Cycles only accumulate, so a count taken before the
     request bounds the answer from below and one taken after it from
     above. *)
  let cycles () = (Gc.quick_stat ()).Gc.major_collections in
  let before = cycles () in
  let stats, _ = Server.handle svc (J.Obj [ ("op", J.String "stats") ]) in
  let after = cycles () in
  Alcotest.(check bool) "stats ok" true (get_bool "ok" stats);
  Alcotest.(check int) "stats entries" 5 (get_int "entries" stats);
  Alcotest.(check int) "stats validated" 5 (get_int "incr_validated" stats);
  Alcotest.(check bool) "the check's update time is recorded" true
    (get_int "last_update_us" stats > 0);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " recorded") true (get_int k stats >= 0))
    [ "last_read_us"; "last_encode_us" ];
  (match (obj_get "heap_words" stats, obj_get "top_heap_words" stats) with
  | J.Int heap, J.Int top ->
      Alcotest.(check bool) "sizes only after a major cycle" true (after > 0);
      Alcotest.(check bool) "heap_words positive" true (heap > 0);
      Alcotest.(check bool) "top_heap_words >= heap_words" true (top >= heap)
  | J.Null, J.Null ->
      Alcotest.(check int) "null only before any major cycle" 0 before
  | _ -> Alcotest.fail "heap gauges should be two ints or two nulls");
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
    (String.length (get_string "error" syntax) > 0);
  (* a path that cannot be read (stat fails, or the read does) is an
     error naming it; the service is left as it was and keeps serving *)
  let svc = Service.create ~flags () in
  ignore (Server.handle svc (check_request base_files));
  let stats () =
    let st, _ = Server.handle svc (J.Obj [ ("op", J.String "stats") ]) in
    Alcotest.(check bool) "stats answers" true (get_bool "ok" st);
    List.map (fun k -> get_int k st) [ "entries"; "files"; "generation" ]
  in
  let before = stats () in
  let dir = Filename.temp_dir "incr" "paths" in
  List.iter
    (fun (path, why) ->
      let resp, keep =
        Server.handle svc
          (J.Obj
             [
               ("op", J.String "check");
               ("files", J.List [ J.String path ]);
             ])
      in
      Alcotest.(check bool) (path ^ ": keeps serving") true keep;
      Alcotest.(check bool) (path ^ ": not ok") false (get_bool "ok" resp);
      Alcotest.(check string) (path ^ ": error names the path")
        (path ^ ": " ^ why) (get_string "error" resp);
      Alcotest.(check (list int)) (path ^ ": service unchanged") before
        (stats ()))
    [
      (Filename.concat dir "missing.c", "No such file or directory");
      (dir, "Is a directory");
    ];
  Sys.rmdir dir;
  let again, _ = Server.handle svc (check_request base_files) in
  Alcotest.(check string) "then clean" "clean" (get_string "tier" again);
  let _, keep = Server.handle svc (J.Obj [ ("op", J.String "shutdown") ]) in
  Alcotest.(check bool) "shutdown after the errors" false keep

let () =
  Alcotest.run "incr"
    [
      ( "service",
        [
          Alcotest.test_case "cold matches direct" `Quick
            test_cold_matches_direct;
          Alcotest.test_case "clean no-op" `Quick test_clean_noop;
          Alcotest.test_case "body edit" `Quick test_body_edit_patches;
          Alcotest.test_case "answer reuse" `Quick test_answer_reuse;
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
          Alcotest.test_case "line shift above a struct" `Quick
            test_line_shift_above_struct;
          Alcotest.test_case "removed typedef re-parses" `Quick
            test_removed_typedef_reparses;
          Alcotest.test_case "interface edit parses once" `Quick
            test_interface_edit_parses_once;
          Alcotest.test_case "flag change" `Quick
            test_flag_change_invalidates;
          Alcotest.test_case "block-scope declaration stays local" `Quick
            test_block_scope_decl_stays_local;
          Alcotest.test_case "block-scope typedef, sibling edit" `Quick
            test_block_scope_typedef_sibling_edit;
          Alcotest.test_case "block-scope typedef stays in its body" `Quick
            test_block_scope_typedef_stays_in_body;
          Alcotest.test_case "sema diagnostics while checking" `Quick
            test_sema_diags_while_checking;
          Alcotest.test_case "removed declaration re-checks its body" `Quick
            test_removed_declaration_rechecks_body;
          Alcotest.test_case "jobs equivalence" `Quick test_jobs_equivalence;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "parse error keeps state" `Quick
            test_parse_error_keeps_state;
          Alcotest.test_case "stats" `Quick test_stats_shape;
          Alcotest.test_case "patched file keeps one AST" `Quick
            test_patched_keeps_one_ast;
          Alcotest.test_case "racy re-read" `Quick test_racy_reread;
          Alcotest.test_case "unchanged file read in place" `Quick
            test_doc_of_file_in_place;
          Alcotest.test_case "stat stamps, racy window" `Quick
            test_stamps_racy_window;
          Alcotest.test_case "stat stamps, settled" `Quick test_stamps_settled;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "removed declaration" `Quick
            test_persistence_removed_declaration;
          Alcotest.test_case "restart agrees with the live service" `Quick
            test_persistence_restart_agrees;
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
