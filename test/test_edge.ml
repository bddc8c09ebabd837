(* Edge-case coverage: statement and expression forms under the checker
   and the interpreter that the main suites touch only incidentally. *)

module Flags = Annot.Flags

let paper_flags = Flags.(allimponly_off default)
let check ?(flags = paper_flags) src = Stdspec.check ~flags ~file:"t.c" src
(* The diagnostic codes of a result, in report order. *)
let codes (r : Check.result) =
  List.map (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code) r.Check.reports

let check_codes ?flags name expected src =
  Alcotest.(check (list string)) name expected (codes (check ?flags src))

let has_code r code = List.mem code (codes r)

(* ------------------------------------------------------------------ *)
(* Checker: control flow                                               *)
(* ------------------------------------------------------------------ *)

let test_do_while () =
  check_codes "body analysed once" [ "nullderef" ]
    "void f(/*@null@*/ int *p) { do { *p = 1; } while (0); }";
  check_codes "guarded body" []
    "void f(/*@null@*/ int *p) { if (p != NULL) { do { *p = 1; } while (0); } }"

let test_nested_loops () =
  check_codes "nested loops clean" []
    "int f(int n) { int acc; int i; int j; acc = 0; for (i = 0; i < n; i++) \
     { for (j = 0; j < i; j++) { acc += j; } } return acc; }"

let test_continue () =
  check_codes "continue merges" []
    "int f(int n) { int i; int acc; acc = 0; for (i = 0; i < n; i++) { if (i \
     == 2) { continue; } acc += i; } return acc; }"

let test_conditional_expression () =
  (* Econd merges both arms *)
  check_codes "cond expr guard" []
    "int f(/*@null@*/ int *p) { return (p != NULL) ? *p : 0; }";
  check_codes "cond expr unguarded" [ "nullderef" ]
    "int f(/*@null@*/ int *p, int c) { return c ? *p : 0; }"

let test_comma_expression () =
  check_codes "comma evaluates both" [ "usedef" ]
    "int f(void) { int a; int b; b = (a, 2); return b; }"

let test_compound_assignment () =
  check_codes "compound assign defines" []
    "int f(void) { int a; a = 1; a += 2; a <<= 1; return a; }";
  check_codes "compound assign uses" [ "usedef" ]
    "int f(void) { int a; a += 2; return a; }"

let test_early_return_paths () =
  (* each return point is checked independently *)
  let r =
    check
      "extern /*@only@*/ /*@notnull@*/ char *mk(void);\n\
       int f(int c) { char *p = mk(); if (c) { return 1; } free(p); return 0; }"
  in
  Alcotest.(check bool) "leak on the early return" true (has_code r "mustfree")

let test_exit_in_branch () =
  check_codes "exit path needs no release" []
    "void f(/*@only@*/ char *p, int c) { if (c) { exit(1); } free(p); }"

let test_logical_operators_short_circuit () =
  check_codes "&& guards the rhs" []
    "int f(/*@null@*/ int *p) { if (p != NULL && *p > 0) { return 1; } \
     return 0; }";
  check_codes "|| guards the rhs" []
    "int f(/*@null@*/ int *p) { if (p == NULL || *p > 0) { return 1; } \
     return 0; }"

let test_while_guard_side_effect () =
  (* assignment inside the loop guard *)
  check_codes "guard with assignment" []
    "extern /*@null@*/ /*@dependent@*/ char *next_line(void);\n\
     int f(void) { char *s; int n; n = 0; while ((s = next_line()) != NULL) \
     { n = n + (int) strlen(s); } return n; }"

(* ------------------------------------------------------------------ *)
(* Checker: declarations and types                                     *)
(* ------------------------------------------------------------------ *)

let test_multi_declarator_line () =
  check_codes "several declarators" [ "usedef" ]
    "int f(void) { int a = 1, b = 2, c; return a + b + c; }"

let test_shadowing () =
  (* an inner declaration shadows; the outer variable's state survives *)
  check_codes "inner shadow" []
    "int f(void) { int x; x = 1; { int x; x = 2; } return x; }"

let test_array_initializer () =
  check_codes "initializer list defines" []
    "int f(void) { int xs[3] = { 1, 2, 3 }; return xs[0]; }"

let test_struct_by_value_param () =
  check_codes "struct param is defined storage" []
    "typedef struct { int a; } s;\n\
     int f(s v) { return v.a; }"

let test_void_function_fallthrough () =
  check_codes "void fall-off is fine" [] "void f(int x) { x = x + 1; }"

let test_nonvoid_fallthrough_warns () =
  let r = check "int f(int x) { x = x + 1; }" in
  Alcotest.(check bool) "warned" true (has_code r "noret")

let test_enum_in_checker () =
  check_codes "enum constants usable" []
    "enum color { RED, GREEN };\n\
     int f(void) { enum color c; c = RED; if (c == GREEN) { return 1; } \
     return 0; }"

let test_function_pointer_call () =
  (* indirect calls are evaluated conservatively, not rejected *)
  check_codes "indirect call" []
    "int f(int (*cb)(int)) { return cb(3); }"

(* ------------------------------------------------------------------ *)
(* Interpreter edges                                                   *)
(* ------------------------------------------------------------------ *)

let run src =
  Rtcheck.run (Stdspec.load (Seq.return ("t.c", src)))

let test_interp_conditional_expr () =
  let r = run "int main(void) { int x = 5; return x > 3 ? 10 : 20; }" in
  Alcotest.(check (option int)) "cond" (Some 10) r.Rtcheck.exit_code

let test_interp_compound_assign () =
  let r =
    run
      "int main(void) { int a = 10; a += 5; a -= 3; a *= 2; a /= 4; a %= 5; \
       return a; }"
  in
  Alcotest.(check (option int)) "compound" (Some 1) r.Rtcheck.exit_code

let test_interp_increments () =
  let r =
    run
      "int main(void) { int a = 0; int b; b = a++; b = b + ++a; return a * \
       10 + b; }"
  in
  (* a: 0 -> 1 -> 2; b = 0 then 0 + 2 = 2 *)
  Alcotest.(check (option int)) "inc/dec" (Some 22) r.Rtcheck.exit_code

let test_interp_string_functions () =
  let r =
    run
      "int main(void) {\n\
       char *d = strdup(\"abc\");\n\
       int r;\n\
       if (d == NULL) { return 9; }\n\
       r = strcmp(d, \"abc\");\n\
       free(d);\n\
       return r;\n\
       }"
  in
  Alcotest.(check (option int)) "strdup/strcmp" (Some 0) r.Rtcheck.exit_code;
  Alcotest.(check int) "no leaks" 0 (List.length r.Rtcheck.leaks)

let test_interp_memset_memcpy () =
  let r =
    run
      "int main(void) {\n\
       char a[4];\n\
       char b[4];\n\
       memset(a, 7, 4);\n\
       memcpy(b, a, 4);\n\
       return b[3];\n\
       }"
  in
  Alcotest.(check (option int)) "memset/memcpy" (Some 7) r.Rtcheck.exit_code

let test_interp_calloc_zeroed () =
  let r =
    run
      "int main(void) { int *p = (int *) calloc(4, sizeof(int)); int v; if \
       (p == NULL) { return 9; } v = p[2]; free(p); return v; }"
  in
  Alcotest.(check (option int)) "calloc zeroes" (Some 0) r.Rtcheck.exit_code;
  Alcotest.(check int) "no undefined reads" 0 (List.length r.Rtcheck.errors)

let test_interp_realloc_preserves () =
  let r =
    run
      "int main(void) { int *p = (int *) malloc(2 * sizeof(int)); if (p == \
       NULL) { return 9; } p[0] = 42; p = (int *) realloc(p, 8 * \
       sizeof(int)); if (p == NULL) { return 8; } { int v = p[0]; free(p); \
       return v; } }"
  in
  Alcotest.(check (option int)) "realloc preserves" (Some 42) r.Rtcheck.exit_code;
  Alcotest.(check int) "no errors" 0 (List.length r.Rtcheck.errors)

let test_interp_negative_modulo_div () =
  let r = run "int main(void) { return (-7) / 2 + (-7) % 2 + 10; }" in
  (* C semantics: -3 + -1 + 10 = 6 *)
  Alcotest.(check (option int)) "division" (Some 6) r.Rtcheck.exit_code

let test_interp_division_by_zero_reported () =
  let r = run "int main(void) { int z = 0; return 4 / z; }" in
  Alcotest.(check bool) "reported" true
    (List.exists
       (fun (e : Rtcheck.Heap.error) ->
         match e.Rtcheck.Heap.e_kind with
         | Rtcheck.Heap.Ebad_arg "div0" -> true
         | _ -> false)
       r.Rtcheck.errors)

let () =
  Alcotest.run "edge"
    [
      ( "checker-control-flow",
        [
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "continue" `Quick test_continue;
          Alcotest.test_case "conditional expr" `Quick test_conditional_expression;
          Alcotest.test_case "comma" `Quick test_comma_expression;
          Alcotest.test_case "compound assign" `Quick test_compound_assignment;
          Alcotest.test_case "early returns" `Quick test_early_return_paths;
          Alcotest.test_case "exit in branch" `Quick test_exit_in_branch;
          Alcotest.test_case "short circuit" `Quick test_logical_operators_short_circuit;
          Alcotest.test_case "guard side effect" `Quick test_while_guard_side_effect;
        ] );
      ( "checker-declarations",
        [
          Alcotest.test_case "multi declarators" `Quick test_multi_declarator_line;
          Alcotest.test_case "shadowing" `Quick test_shadowing;
          Alcotest.test_case "array initializer" `Quick test_array_initializer;
          Alcotest.test_case "struct by value" `Quick test_struct_by_value_param;
          Alcotest.test_case "void fallthrough" `Quick test_void_function_fallthrough;
          Alcotest.test_case "nonvoid fallthrough" `Quick test_nonvoid_fallthrough_warns;
          Alcotest.test_case "enums" `Quick test_enum_in_checker;
          Alcotest.test_case "function pointers" `Quick test_function_pointer_call;
        ] );
      ( "interpreter-edges",
        [
          Alcotest.test_case "conditional expr" `Quick test_interp_conditional_expr;
          Alcotest.test_case "compound assign" `Quick test_interp_compound_assign;
          Alcotest.test_case "increments" `Quick test_interp_increments;
          Alcotest.test_case "string functions" `Quick test_interp_string_functions;
          Alcotest.test_case "memset/memcpy" `Quick test_interp_memset_memcpy;
          Alcotest.test_case "calloc" `Quick test_interp_calloc_zeroed;
          Alcotest.test_case "realloc" `Quick test_interp_realloc_preserves;
          Alcotest.test_case "negative division" `Quick test_interp_negative_modulo_div;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero_reported;
        ] );
    ]
