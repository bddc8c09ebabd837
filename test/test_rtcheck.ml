(* Run-time checker tests: the instrumented heap, the interpreter, and the
   detection behaviour of the dynamic baseline. *)

module Heap = Rtcheck.Heap

let loc = Cfront.Loc.make ~file:"t.c" ~line:1 ~col:1

(* ------------------------------------------------------------------ *)
(* Heap unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let kinds h = List.map (fun (e : Heap.error) -> e.Heap.e_kind) (Heap.errors h)

let test_heap_alloc_free () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kheap ~size:4 ~loc in
  Heap.write h p (Heap.Sint 7L) ~loc;
  (match Heap.read h p ~loc with
  | Some (Heap.Sint 7L) -> ()
  | _ -> Alcotest.fail "read back");
  Heap.free h p ~loc;
  Alcotest.(check int) "no errors" 0 (List.length (Heap.errors h));
  Alcotest.(check int) "one alloc" 1 h.Heap.heap_allocs;
  Alcotest.(check int) "one free" 1 h.Heap.heap_frees

let test_heap_double_free () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  Heap.free h p ~loc;
  Heap.free h p ~loc;
  Alcotest.(check bool) "double free" true
    (List.mem Heap.Edouble_free (kinds h))

let test_heap_use_after_free () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  Heap.free h p ~loc;
  ignore (Heap.read h p ~loc);
  Alcotest.(check bool) "uaf" true (List.mem Heap.Euse_after_free (kinds h))

let test_heap_free_offset () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kheap ~size:8 ~loc in
  Heap.free h { p with Heap.p_off = 3 } ~loc;
  Alcotest.(check bool) "offset" true (List.mem Heap.Efree_offset (kinds h))

let test_heap_free_nonheap () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kstatic ~size:4 ~loc in
  Heap.free h p ~loc;
  let q = Heap.alloc h ~kind:(Heap.Kstack 0) ~size:4 ~loc in
  Heap.free h q ~loc;
  Alcotest.(check int) "two nonheap frees" 2
    (List.length (List.filter (( = ) Heap.Efree_nonheap) (kinds h)))

let test_heap_bounds () =
  let h = Heap.create () in
  let p = Heap.alloc h ~kind:Heap.Kheap ~size:2 ~loc in
  ignore (Heap.read h { p with Heap.p_off = 5 } ~loc);
  Alcotest.(check bool) "bounds" true (List.mem Heap.Ebounds (kinds h))

let test_heap_leaks () =
  let h = Heap.create () in
  let kept = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  let lost = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  ignore lost;
  let leaks = Heap.leaks h ~roots:[ kept ] in
  Alcotest.(check int) "two live blocks" 2 (List.length leaks);
  let reachable =
    List.filter (fun (l : Heap.leak) -> l.Heap.lk_reachable) leaks
  in
  Alcotest.(check int) "one reachable" 1 (List.length reachable)

let test_heap_leak_graph () =
  (* reachability follows pointers stored inside blocks *)
  let h = Heap.create () in
  let a = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  let b = Heap.alloc h ~kind:Heap.Kheap ~size:1 ~loc in
  Heap.write h a (Heap.Sptr b) ~loc;
  let leaks = Heap.leaks h ~roots:[ a ] in
  Alcotest.(check bool) "both reachable" true
    (List.for_all (fun (l : Heap.leak) -> l.Heap.lk_reachable) leaks)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let load src = Stdspec.load (Seq.return ("t.c", src))
let run ?max_steps src = Rtcheck.run ?max_steps (load src)

let test_arithmetic () =
  let r = run "int main(void) { return (3 + 4) * 2 - 5 % 3; }" in
  Alcotest.(check (option int)) "exit" (Some 12) r.Rtcheck.exit_code

let test_control_flow () =
  let r =
    run
      "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
       2); }\n\
       int main(void) { return fib(10); }"
  in
  Alcotest.(check (option int)) "fib 10" (Some 55) r.Rtcheck.exit_code

let test_loops () =
  let r =
    run
      "int main(void) { int acc; int i; acc = 0; for (i = 1; i <= 10; i++) { \
       acc += i; } while (acc > 50) { acc--; } do { acc++; } while (0); \
       return acc; }"
  in
  Alcotest.(check (option int)) "loops" (Some 51) r.Rtcheck.exit_code

let test_switch () =
  let r =
    run
      "int pick(int c) { switch (c) { case 1: return 10; case 2: return 20; \
       default: return 30; } }\n\
       int main(void) { return pick(1) + pick(2) + pick(9); }"
  in
  Alcotest.(check (option int)) "switch" (Some 60) r.Rtcheck.exit_code

let test_strings_and_output () =
  let r =
    run
      "int main(void) { char buf[32]; strcpy(buf, \"hi\"); strcat(buf, \" \
       there\"); printf(\"%s/%d\\n\", buf, (int) strlen(buf)); return 0; }"
  in
  Alcotest.(check string) "output" "hi there/8\n" r.Rtcheck.output;
  Alcotest.(check int) "no errors" 0 (List.length r.Rtcheck.errors)

let test_structs_and_pointers () =
  let r =
    run
      "typedef struct { int x; int y; } pt;\n\
       int main(void) {\n\
       pt a;\n\
       pt *p = &a;\n\
       p->x = 3;\n\
       p->y = 4;\n\
       return a.x * 10 + a.y;\n\
       }"
  in
  Alcotest.(check (option int)) "fields via pointer" (Some 34) r.Rtcheck.exit_code

let test_arrays_pointer_arith () =
  let r =
    run
      "int main(void) {\n\
       int xs[5];\n\
       int *p = xs;\n\
       int i;\n\
       for (i = 0; i < 5; i++) { xs[i] = i * i; }\n\
       p = p + 2;\n\
       return *p + xs[4];\n\
       }"
  in
  Alcotest.(check (option int)) "ptr arith" (Some 20) r.Rtcheck.exit_code

let test_malloc_lifecycle () =
  let r =
    run
      "int main(void) {\n\
       int *p = (int *) malloc(4 * sizeof(int));\n\
       if (p == NULL) { return 1; }\n\
       p[0] = 42;\n\
       free(p);\n\
       return 0;\n\
       }"
  in
  Alcotest.(check (option int)) "exit" (Some 0) r.Rtcheck.exit_code;
  Alcotest.(check int) "no errors" 0 (List.length r.Rtcheck.errors);
  Alcotest.(check int) "no leaks" 0 (List.length r.Rtcheck.leaks)

let test_exit_function () =
  let r = run "int main(void) { exit(3); }" in
  Alcotest.(check (option int)) "exit code" (Some 3) r.Rtcheck.exit_code

let test_step_limit () =
  let r = run ~max_steps:1000 "int main(void) { while (1) { } return 0; }" in
  Alcotest.(check bool) "aborted" true (r.Rtcheck.aborted <> None)

(* The oracle's contract: a step-limit abort is marked distinctly from an
   unsupported-construct abort, and the errors observed before the cut-off
   are still in the result. *)
let test_step_limit_marker () =
  let r =
    run ~max_steps:1000
      "int main(void) {\n\
       char *p = (char *) malloc(4);\n\
       if (p == NULL) { return 1; }\n\
       free(p);\n\
       free(p);\n\
       while (1) { }\n\
       return 0;\n\
       }"
  in
  (match r.Rtcheck.aborted with
  | Some (Rtcheck.Astep_limit _) -> ()
  | Some _ ->
      Alcotest.failf "expected a step-limit abort, got %a" Rtcheck.pp_summary r
  | None -> Alcotest.fail "expected an abort");
  Alcotest.(check (option int)) "no exit code" None r.Rtcheck.exit_code;
  Alcotest.(check bool) "pre-abort errors survive" true
    (List.exists
       (fun (e : Heap.error) -> e.Heap.e_kind = Heap.Edouble_free)
       r.Rtcheck.errors)

let test_unsupported_marker () =
  (* goto is the documented unsupported construct *)
  let r = run "int main(void) { goto end; end: return 0; }" in
  match r.Rtcheck.aborted with
  | Some (Rtcheck.Aunsupported _) -> ()
  | Some _ ->
      Alcotest.failf "expected an unsupported abort, got %a" Rtcheck.pp_summary r
  | None -> Alcotest.fail "expected an abort"

let test_error_limit_marker () =
  (* every loop iteration reads an undefined value: the error cap, not
     the step cap, stops the run *)
  let r =
    Rtcheck.run ~max_errors:10
      (load
         "int main(void) {\n\
          int x;\n\
          int i;\n\
          for (i = 0; i < 100000; i++) { if (x > 0) { } }\n\
          return 0;\n\
          }")
  in
  match r.Rtcheck.aborted with
  | Some (Rtcheck.Aerror_limit _) ->
      Alcotest.(check bool) "errors reported up to the cap" true
        (List.length r.Rtcheck.errors > 0)
  | Some _ ->
      Alcotest.failf "expected an error-limit abort, got %a" Rtcheck.pp_summary r
  | None -> Alcotest.fail "expected an abort"

(* ------------------------------------------------------------------ *)
(* Dynamic error detection                                             *)
(* ------------------------------------------------------------------ *)

let error_kinds (r : Rtcheck.result) =
  List.map (fun (e : Heap.error) -> e.Heap.e_kind) r.Rtcheck.errors

let test_detect_uaf () =
  let r =
    run
      "int main(void) { char *p = (char *) malloc(4); if (p == NULL) { return \
       1; } free(p); p[0] = 'x'; return 0; }"
  in
  Alcotest.(check bool) "uaf" true (List.mem Heap.Euse_after_free (error_kinds r))

let test_detect_double_free () =
  let r =
    run
      "int main(void) { char *p = (char *) malloc(4); if (p == NULL) { return \
       1; } free(p); free(p); return 0; }"
  in
  Alcotest.(check bool) "double free" true
    (List.mem Heap.Edouble_free (error_kinds r))

let test_detect_offset_free () =
  let r =
    run
      "int main(void) { char *p = (char *) malloc(8); if (p == NULL) { return \
       1; } p = p + 1; free(p); return 0; }"
  in
  Alcotest.(check bool) "offset free" true
    (List.mem Heap.Efree_offset (error_kinds r))

let test_detect_static_free () =
  let r = run "int main(void) { char *p = \"abc\"; free(p); return 0; }" in
  Alcotest.(check bool) "static free" true
    (List.mem Heap.Efree_nonheap (error_kinds r))

let test_detect_uninit_branch () =
  let r =
    run
      "int main(void) { int x; if (x > 0) { return 1; } return 0; }"
  in
  Alcotest.(check bool) "uninitialized branch" true
    (List.mem Heap.Euse_undefined (error_kinds r))

let test_detect_null_format () =
  let r = run "int main(void) { char *s = NULL; printf(\"%s\", s); return 0; }" in
  Alcotest.(check bool) "null string" true
    (List.mem Heap.Enull_deref (error_kinds r))

let test_leak_report () =
  let r =
    run
      "int main(void) { char *p = (char *) malloc(4); if (p == NULL) { return \
       1; } p = (char *) malloc(8); free(p); return 0; }"
  in
  Alcotest.(check int) "one leak" 1 (List.length r.Rtcheck.leaks);
  Alcotest.(check bool) "unreachable" true
    (List.for_all (fun (l : Heap.leak) -> not l.Heap.lk_reachable) r.Rtcheck.leaks)

let test_global_reachable_leak () =
  (* the Section 7 class: reachable from a global, never freed *)
  let r =
    run
      "char *cache;\n\
       int main(void) { cache = (char *) malloc(16); return 0; }"
  in
  match r.Rtcheck.leaks with
  | [ l ] -> Alcotest.(check bool) "reachable" true l.Heap.lk_reachable
  | _ -> Alcotest.fail "expected exactly one leak"

(* the untaken path hides the bug from the run-time checker *)
let test_path_dependence () =
  let r =
    run
      "int main(void) {\n\
       char *p = (char *) malloc(4);\n\
       if (p == NULL) { p = (char *) 0; p[0] = 'x'; }\n\
       free(p);\n\
       return 0;\n\
       }"
  in
  (* malloc succeeds in the interpreter, so the null-deref never runs *)
  Alcotest.(check int) "no errors observed" 0 (List.length r.Rtcheck.errors)

(* ------------------------------------------------------------------ *)
(* The employee database end to end                                    *)
(* ------------------------------------------------------------------ *)

let run_db stage =
  Rtcheck.run
    (Corpus.Employee_db.load ~flags:Corpus.Employee_db.paper_flags stage)

let test_db_runs () =
  let r = run_db 7 in
  Alcotest.(check (option int)) "exits 0" (Some 0) r.Rtcheck.exit_code;
  Alcotest.(check int) "no run-time errors" 0 (List.length r.Rtcheck.errors);
  Alcotest.(check bool) "prints the queries" true
    (String.length r.Rtcheck.output > 0)

let test_db_global_leaks_remain () =
  (* Section 7: run-time leak checking finds storage reachable from global
     and static variables that the static checker cannot flag *)
  let r = run_db 7 in
  Alcotest.(check bool) "leaks reported" true (List.length r.Rtcheck.leaks > 0);
  Alcotest.(check bool) "all reachable from globals" true
    (List.for_all (fun (l : Heap.leak) -> l.Heap.lk_reachable) r.Rtcheck.leaks)

let test_db_stage0_leaks_more () =
  (* before the frees were added, the driver leaks too (unreachable blocks) *)
  let r0 = run_db 0 and r7 = run_db 7 in
  Alcotest.(check bool) "stage 0 leaks more" true
    (List.length r0.Rtcheck.leaks > List.length r7.Rtcheck.leaks);
  Alcotest.(check bool) "stage 0 has unreachable leaks" true
    (List.exists
       (fun (l : Heap.leak) -> not l.Heap.lk_reachable)
       r0.Rtcheck.leaks)

(* property: interpreting any clean generated program yields no errors *)
let prop_generated_clean =
  QCheck.Test.make ~count:15 ~name:"clean generated programs run clean"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:3 ~fns_per_module:2 () in
      let r = Progen.dynamic_check p in
      r.Rtcheck.errors = [] && r.Rtcheck.exit_code = Some 0)


(* ------------------------------------------------------------------ *)
(* mprof-style allocation profile                                      *)
(* ------------------------------------------------------------------ *)

let test_profile_counts () =
  let r =
    run
      "int main(void) {\n\
       int i;\n\
       for (i = 0; i < 3; i++) {\n\
       char *p = (char *) malloc(8);\n\
       if (p == NULL) { return 1; }\n\
       free(p);\n\
       }\n\
       return 0;\n\
       }"
  in
  match r.Rtcheck.profile with
  | [ (loc, st) ] ->
      Alcotest.(check int) "allocs" 3 st.Heap.st_allocs;
      Alcotest.(check int) "frees" 3 st.Heap.st_frees;
      Alcotest.(check int) "slots" 24 st.Heap.st_slots;
      Alcotest.(check int) "site line" 4 loc.Cfront.Loc.line
  | rows -> Alcotest.failf "expected one site, got %d" (List.length rows)

let test_profile_heaviest_first () =
  let r =
    run
      "int main(void) {\n\
       char *a = (char *) malloc(4);\n\
       char *b = (char *) malloc(100);\n\
       if (a == NULL || b == NULL) { return 1; }\n\
       free(a);\n\
       free(b);\n\
       return 0;\n\
       }"
  in
  match r.Rtcheck.profile with
  | (_, first) :: (_, second) :: _ ->
      Alcotest.(check bool) "sorted by slots" true
        (first.Heap.st_slots >= second.Heap.st_slots)
  | _ -> Alcotest.fail "expected two sites"

let test_profile_db () =
  let r = run_db 7 in
  Alcotest.(check bool) "db has allocation sites" true
    (List.length r.Rtcheck.profile >= 3)

let profile_tests =
  [
    Alcotest.test_case "per-site counts" `Quick test_profile_counts;
    Alcotest.test_case "heaviest first" `Quick test_profile_heaviest_first;
    Alcotest.test_case "database profile" `Quick test_profile_db;
  ]

let () =
  Alcotest.run "rtcheck"
    [
      ( "heap",
        [
          Alcotest.test_case "alloc/free" `Quick test_heap_alloc_free;
          Alcotest.test_case "double free" `Quick test_heap_double_free;
          Alcotest.test_case "use after free" `Quick test_heap_use_after_free;
          Alcotest.test_case "free offset" `Quick test_heap_free_offset;
          Alcotest.test_case "free nonheap" `Quick test_heap_free_nonheap;
          Alcotest.test_case "bounds" `Quick test_heap_bounds;
          Alcotest.test_case "leaks" `Quick test_heap_leaks;
          Alcotest.test_case "leak graph" `Quick test_heap_leak_graph;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "recursion" `Quick test_control_flow;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "switch" `Quick test_switch;
          Alcotest.test_case "strings/output" `Quick test_strings_and_output;
          Alcotest.test_case "structs/pointers" `Quick test_structs_and_pointers;
          Alcotest.test_case "arrays/ptr arith" `Quick test_arrays_pointer_arith;
          Alcotest.test_case "malloc lifecycle" `Quick test_malloc_lifecycle;
          Alcotest.test_case "exit" `Quick test_exit_function;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "step-limit marker" `Quick test_step_limit_marker;
          Alcotest.test_case "unsupported marker" `Quick test_unsupported_marker;
          Alcotest.test_case "error-limit marker" `Quick test_error_limit_marker;
        ] );
      ( "detection",
        [
          Alcotest.test_case "use after free" `Quick test_detect_uaf;
          Alcotest.test_case "double free" `Quick test_detect_double_free;
          Alcotest.test_case "offset free" `Quick test_detect_offset_free;
          Alcotest.test_case "static free" `Quick test_detect_static_free;
          Alcotest.test_case "uninit branch" `Quick test_detect_uninit_branch;
          Alcotest.test_case "null format" `Quick test_detect_null_format;
          Alcotest.test_case "leak report" `Quick test_leak_report;
          Alcotest.test_case "global reachable leak" `Quick test_global_reachable_leak;
          Alcotest.test_case "path dependence" `Quick test_path_dependence;
        ] );
      ("profile", profile_tests);
      ( "employee-db",
        [
          Alcotest.test_case "runs" `Quick test_db_runs;
          Alcotest.test_case "global leaks remain" `Quick test_db_global_leaks_remain;
          Alcotest.test_case "stage 0 leaks more" `Quick test_db_stage0_leaks_more;
          QCheck_alcotest.to_alcotest prop_generated_clean;
        ] );
    ]
