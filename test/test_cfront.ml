(* Frontend tests: lexer, parser, pretty-printer round-trips. *)

open Cfront

let lex src =
  List.map (fun (t : Token.t) -> t.Token.kind) (Lexer.tokenize ~file:"t.c" src)

let kinds = Alcotest.testable (Fmt.Dump.list Token.pp_kind) (List.equal Token.equal_kind)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_basic () =
  Alcotest.check kinds "tokens"
    [
      Token.KwInt; Token.Ident "x"; Token.Assign; Token.IntLit (42L, "42");
      Token.Semi; Token.Eof;
    ]
    (lex "int x = 42;")

let test_lex_operators () =
  Alcotest.check kinds "ops"
    [
      Token.Arrow; Token.PlusPlus; Token.MinusMinus; Token.LShift;
      Token.RShiftAssign; Token.Le; Token.Ge; Token.EqEq; Token.BangEq;
      Token.AmpAmp; Token.PipePipe; Token.Ellipsis; Token.Eof;
    ]
    (lex "-> ++ -- << >>= <= >= == != && || ...")

let test_lex_annotation () =
  Alcotest.check kinds "annotation comment"
    [ Token.Annot "null"; Token.KwChar; Token.Star; Token.Ident "p"; Token.Eof ]
    (lex "/*@null@*/ char *p")

let test_lex_annotation_multiword () =
  Alcotest.check kinds "multi-word annotation"
    [ Token.Annot "out only"; Token.Eof ]
    (lex "/*@ out only @*/")

let test_lex_comments_skipped () =
  Alcotest.check kinds "comments"
    [ Token.Ident "a"; Token.Ident "b"; Token.Eof ]
    (lex "a /* comment */ b // line comment")

let test_lex_preprocessor_skipped () =
  Alcotest.check kinds "hash lines"
    [ Token.KwInt; Token.Ident "x"; Token.Semi; Token.Eof ]
    (lex "#include <stdio.h>\n#define FOO 1\nint x;")

let test_lex_string_escapes () =
  match lex {|"a\nb\t\x41\\"|} with
  | [ Token.StringLit s; Token.Eof ] ->
      Alcotest.(check string) "escapes" "a\nb\tA\\" s
  | _ -> Alcotest.fail "expected one string literal"

let test_lex_string_concat_separate () =
  (* adjacent literals are separate tokens; the parser concatenates *)
  match lex {|"ab" "cd"|} with
  | [ Token.StringLit a; Token.StringLit b; Token.Eof ] ->
      Alcotest.(check string) "first" "ab" a;
      Alcotest.(check string) "second" "cd" b
  | _ -> Alcotest.fail "expected two string literals"

let test_lex_char_literals () =
  Alcotest.check kinds "chars"
    [ Token.CharLit 'a'; Token.CharLit '\n'; Token.CharLit '\000'; Token.Eof ]
    (lex {|'a' '\n' '\0'|})

let test_lex_numbers () =
  Alcotest.check kinds "numbers"
    [
      Token.IntLit (255L, "0xff"); Token.IntLit (42L, "42u");
      Token.FloatLit (1.5, "1.5"); Token.IntLit (0L, "0");
      Token.Eof;
    ]
    (lex "0xff 42u 1.5 0")

let test_lex_locations () =
  let toks = Lexer.tokenize ~file:"t.c" "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check (pair int int)) "a at 1,1" (1, 1) (a.Token.loc.Loc.line, a.Token.loc.Loc.col);
      Alcotest.(check (pair int int)) "b at 2,3" (2, 3) (b.Token.loc.Loc.line, b.Token.loc.Loc.col)
  | _ -> Alcotest.fail "expected two tokens"

let test_lex_errors () =
  let fails src =
    match lex src with
    | exception Diag.Fatal _ -> ()
    | _ -> Alcotest.fail ("expected lex error on " ^ src)
  in
  fails "\"unterminated";
  fails "/* unterminated";
  fails "/*@ unterminated";
  fails "'a";
  fails "''";
  fails "@"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse src = Parser.parse_string ~file:"t.c" src

let parse_expr_str src =
  let tu = parse (Printf.sprintf "void f(void) { x = %s; }" src) in
  match tu.Ast.tu_decls with
  | [ Ast.Tfundef f ] -> (
      match f.Ast.f_body.Ast.s with
      | Ast.Sblock [ { Ast.s = Ast.Sexpr { e = Ast.Eassign (None, _, rhs); _ }; _ } ] ->
          rhs
      | _ -> Alcotest.fail "unexpected body shape")
  | _ -> Alcotest.fail "unexpected decls"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match (parse_expr_str "1 + 2 * 3").Ast.e with
  | Ast.Ebinary (Ast.Badd, _, { e = Ast.Ebinary (Ast.Bmul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "mul should bind tighter than add");
  (* a || b && c parses as a || (b && c) *)
  (match (parse_expr_str "a || b && c").Ast.e with
  | Ast.Ebinary (Ast.Blor, _, { e = Ast.Ebinary (Ast.Bland, _, _); _ }) -> ()
  | _ -> Alcotest.fail "&& should bind tighter than ||");
  (* assignment is right-associative *)
  match (parse_expr_str "a = b = c").Ast.e with
  | Ast.Eassign (None, _, { e = Ast.Eassign (None, _, _); _ }) -> ()
  | _ -> Alcotest.fail "assignment should nest right"

let test_parse_unary_chains () =
  match (parse_expr_str "*&*p").Ast.e with
  | Ast.Ederef { e = Ast.Eaddr { e = Ast.Ederef _; _ }; _ } -> ()
  | _ -> Alcotest.fail "unary chain shape"

let test_parse_postfix () =
  match (parse_expr_str "a.b->c[0](1, 2)").Ast.e with
  | Ast.Ecall ({ e = Ast.Eindex ({ e = Ast.Earrow ({ e = Ast.Emember _; _ }, "c"); _ }, _); _ }, [ _; _ ]) ->
      ()
  | _ -> Alcotest.fail "postfix chain shape"

let test_parse_cast_vs_paren () =
  (* "(x)+1" with x not a type is addition; "(int * ) y" is a cast *)
  (match (parse_expr_str "(x) + 1").Ast.e with
  | Ast.Ebinary (Ast.Badd, { e = Ast.Eident "x"; _ }, _) -> ()
  | _ -> Alcotest.fail "paren expr");
  match (parse_expr_str "(int *) y").Ast.e with
  | Ast.Ecast (Ast.Tptr (Ast.Tbase (Ast.Tint Ast.Signed)), { e = Ast.Eident "y"; _ }) -> ()
  | _ -> Alcotest.fail "cast"

let test_parse_sizeof () =
  (match (parse_expr_str "sizeof(int)").Ast.e with
  | Ast.Esizeof_type (Ast.Tbase (Ast.Tint Ast.Signed)) -> ()
  | _ -> Alcotest.fail "sizeof type");
  match (parse_expr_str "sizeof(*p)").Ast.e with
  | Ast.Esizeof_expr { e = Ast.Ederef _; _ } -> ()
  | _ -> Alcotest.fail "sizeof expr"

let test_parse_string_concat () =
  match (parse_expr_str {|"ab" "cd"|}).Ast.e with
  | Ast.Estring "abcd" -> ()
  | _ -> Alcotest.fail "adjacent literals should concatenate"

let test_parse_declarators () =
  let tu = parse "int *a[3]; int (*b)[3]; int (*f)(int, char *); char **argv;" in
  match tu.Ast.tu_decls with
  | [ Ast.Tdecl [ a ]; Ast.Tdecl [ b ]; Ast.Tdecl [ f ]; Ast.Tdecl [ argv ] ]
    ->
      (match a.Ast.d_ty with
      | Ast.Tarray (Ast.Tptr (Ast.Tbase _), Some _) -> ()
      | _ -> Alcotest.fail "a should be array of pointer");
      (match b.Ast.d_ty with
      | Ast.Tptr (Ast.Tarray (Ast.Tbase _, Some _)) -> ()
      | _ -> Alcotest.fail "b should be pointer to array");
      (match f.Ast.d_ty with
      | Ast.Tptr (Ast.Tfunc { ft_params = [ _; _ ]; _ }) -> ()
      | _ -> Alcotest.fail "f should be pointer to function");
      (match argv.Ast.d_ty with
      | Ast.Tptr (Ast.Tptr (Ast.Tbase (Ast.Tchar _))) -> ()
      | _ -> Alcotest.fail "argv should be char **")
  | _ -> Alcotest.fail "expected four declarations"

let test_parse_typedef_resolution () =
  (* after a typedef, the name must start a declaration *)
  let tu = parse "typedef int myint; myint x; void f(void) { myint y; y = 1; }" in
  Alcotest.(check int) "three topdecls" 3 (List.length tu.Ast.tu_decls)

let test_parse_struct_def () =
  let tu = parse "struct s { int a; /*@null@*/ char *b; }; struct s v;" in
  match tu.Ast.tu_decls with
  | [ Ast.Tdecl [ d ]; Ast.Tdecl [ _ ] ] -> (
      match d.Ast.d_ty with
      | Ast.Tbase (Ast.Tstruct (Some "s", Some [ a; b ])) ->
          Alcotest.(check string) "field a" "a" a.Ast.fld_name;
          Alcotest.(check string) "field b" "b" b.Ast.fld_name;
          Alcotest.(check int) "b annots" 1 (List.length b.Ast.fld_annots)
      | _ -> Alcotest.fail "expected struct definition")
  | _ -> Alcotest.fail "expected two topdecls"

let test_parse_enum () =
  let tu = parse "enum color { RED, GREEN = 5, BLUE };" in
  match tu.Ast.tu_decls with
  | [ Ast.Tdecl [ d ] ] -> (
      match d.Ast.d_ty with
      | Ast.Tbase (Ast.Tenum (Some "color", Some items)) ->
          Alcotest.(check int) "three enumerators" 3 (List.length items)
      | _ -> Alcotest.fail "expected enum")
  | _ -> Alcotest.fail "expected one topdecl"

let test_parse_annotations_on_params () =
  let tu = parse "void f(/*@null@*/ char *p, /*@only@*/ /*@out@*/ int *q);" in
  match tu.Ast.tu_decls with
  | [ Ast.Tdecl [ d ] ] -> (
      match d.Ast.d_ty with
      | Ast.Tfunc { ft_params = [ p; q ]; _ } ->
          Alcotest.(check int) "p annots" 1 (List.length p.Ast.p_annots);
          Alcotest.(check int) "q annots" 2 (List.length q.Ast.p_annots)
      | _ -> Alcotest.fail "expected function type")
  | _ -> Alcotest.fail "expected declaration"

let test_parse_globals_list () =
  let tu =
    parse "void f(void) /*@globals undef g1; g2@*/ { g1 = 1; g2 = 2; }"
  in
  match tu.Ast.tu_decls with
  | [ Ast.Tfundef f ] -> (
      match f.Ast.f_globals with
      | [ g1; g2 ] ->
          Alcotest.(check string) "g1" "g1" g1.Ast.g_name;
          Alcotest.(check int) "g1 undef" 1 (List.length g1.Ast.g_annots);
          Alcotest.(check string) "g2" "g2" g2.Ast.g_name;
          Alcotest.(check int) "g2 no annots" 0 (List.length g2.Ast.g_annots)
      | _ -> Alcotest.fail "expected two globals")
  | _ -> Alcotest.fail "expected fundef"

let test_parse_statement_forms () =
  let tu =
    parse
      {|int f(int n) {
          int i;
          int acc = 0;
          for (i = 0; i < n; i++) { acc += i; }
          while (acc > 100) { acc--; }
          do { acc++; } while (acc < 0);
          switch (n) {
          case 0: return acc;
          case 1: acc = 2; break;
          default: acc = 3;
          }
          if (n == 4) acc = 5; else acc = 6;
          return acc;
        }|}
  in
  match tu.Ast.tu_decls with
  | [ Ast.Tfundef _ ] -> ()
  | _ -> Alcotest.fail "expected fundef"

let test_parse_assert_recognized () =
  let tu = parse "void f(int x) { assert(x > 0); }" in
  match tu.Ast.tu_decls with
  | [ Ast.Tfundef f ] -> (
      match f.Ast.f_body.Ast.s with
      | Ast.Sblock [ { Ast.s = Ast.Sassert _; _ } ] -> ()
      | _ -> Alcotest.fail "assert should be recognized")
  | _ -> Alcotest.fail "expected fundef"

let test_parse_suppression_pragmas () =
  let tu = parse "void f(void) { /*@i@*/ ; } /*@ignore@*/ int g; /*@end@*/" in
  Alcotest.(check int) "three pragmas" 3 (List.length tu.Ast.tu_pragmas)

let test_parse_errors () =
  let fails src =
    match parse src with
    | exception Diag.Fatal d ->
        Alcotest.(check string) "code" "parse" d.Diag.code
    | _ -> Alcotest.fail ("expected parse error on " ^ src)
  in
  fails "int x";
  fails "void f( {";
  fails "int f(void) { return 1 }";
  fails "struct;";
  fails "int 42;"

let test_paper_figures_parse () =
  List.iter
    (fun src -> ignore (parse src))
    [
      Corpus.Figures.fig1_sample; Corpus.Figures.fig2_sample_null;
      Corpus.Figures.fig3_sample_fixed; Corpus.Figures.fig4_sample_only_temp;
    ];
  (* fig5 needs size_t from the library environment *)
  ignore (Parser.parse_string ~typedefs:[ "size_t" ] ~file:"t.c" Corpus.Figures.fig5_list_addh)

(* ------------------------------------------------------------------ *)
(* Token streaming                                                     *)
(* ------------------------------------------------------------------ *)

(* The token-array entry point, with the typedef table seeded the way
   parse_string seeds it: by parsing one [typedef int NAME;] per name
   ahead of the file's own tokens. *)
let parse_array ~typedefs ~file text =
  let prefix =
    Lexer.tokenize ~file
      (String.concat "" (List.map (Printf.sprintf "typedef int %s;") typedefs))
    |> List.filter (fun (t : Token.t) -> not (Token.equal_kind t.kind Token.Eof))
  in
  let p =
    Parser.create ~file (Array.of_list (prefix @ Lexer.tokenize ~file text))
  in
  List.iter (fun _ -> ignore (Parser.parse_topdecl p)) typedefs;
  Parser.parse_tunit p

(* Parse files in order the way olclint does, each against the typedefs
   of the library and the files before it, and check that streaming
   from the lexer and parsing a token array give the same AST. *)
let check_stream_matches_array files =
  let flags = Annot.Flags.default in
  let prog = Stdspec.environment ~flags () in
  List.iter
    (fun (file, text) ->
      let typedefs =
        Hashtbl.fold (fun k _ acc -> k :: acc) prog.Sema.p_typedefs []
      in
      let streamed = Parser.parse_string ~typedefs ~file text in
      if not (Ast.equal_tunit streamed (parse_array ~typedefs ~file text)) then
        Alcotest.failf "%s: streamed and array parses differ" file;
      ignore (Sema.analyze ~flags ~into:prog streamed))
    files

let test_stream_figures () =
  List.iter
    (fun text -> check_stream_matches_array [ ("fig.c", text) ])
    Corpus.Figures.
      [
        fig1_sample; fig2_sample_null; fig3_sample_fixed; fig4_sample_only_temp;
        fig5_list_addh; fig5_list_addh_fixed; fig7_erc_create;
        fig8_employee_setname;
      ]

let test_stream_employee_db () =
  for n = 0 to Corpus.Employee_db.max_stage do
    check_stream_matches_array
      (List.map
         (fun (f : Corpus.Employee_db.file) -> (f.name, f.text))
         (Corpus.Employee_db.stage n))
  done

let test_stream_progen () =
  List.iter
    (fun seed ->
      check_stream_matches_array
        (Progen.generate ~seed ~modules:3 ~fns_per_module:4 ()).Progen.files)
    [ 1; 7; 42 ]

(* A run of annotations longer than the initial ring forces it to grow
   while the declaration before it has already moved the window off
   position zero. *)
let test_stream_long_annotation_run () =
  let n = 37 in
  let src =
    "int x;\n"
    ^ String.concat " " (List.init n (fun _ -> "/*@null@*/"))
    ^ " char *p;\nint y;"
  in
  let tu = parse src in
  (match tu.Ast.tu_decls with
  | [ _; Ast.Tdecl [ d ]; _ ] ->
      Alcotest.(check string) "declared" "p" d.Ast.d_name;
      Alcotest.(check int) "annotations kept" n (List.length d.Ast.d_annots)
  | _ -> Alcotest.fail "expected three declarations");
  Alcotest.(check bool) "same as the array parse" true
    (Ast.equal_tunit tu (parse_array ~typedefs:[] ~file:"t.c" src))

let test_keyword_table () =
  List.iter
    (fun (s, k) ->
      Alcotest.(check bool) s true
        (Option.equal Token.equal_kind (Token.keyword_of_string s) (Some k));
      Alcotest.(check string) "describe" (Printf.sprintf "keyword '%s'" s)
        (Token.describe k))
    Token.keyword_table;
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Option.is_none (Token.keyword_of_string s)))
    [ "list"; "If"; "whilex"; "" ]

(* With streaming, the first fatal error the parser reaches wins: a
   parse error on line 1 is reported even though line 3 does not lex. *)
let test_fatal_error_precedence () =
  let src = "int f(void) { return 1 +; }\nint g;\nchar *s = \"abc;\n" in
  match Parser.parse_string ~file:"err.c" src with
  | exception Diag.Fatal d ->
      Alcotest.(check string) "first error in source order"
        "err.c:1,25: expected expression, got ';'" (Diag.to_string d)
  | _ -> Alcotest.fail "expected a fatal error"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trips                                          *)
(* ------------------------------------------------------------------ *)

let roundtrip ?(typedefs = []) src =
  let tu1 = Parser.parse_string ~typedefs ~file:"t.c" src in
  let printed = Pretty.tunit_to_string tu1 in
  let tu2 =
    try Parser.parse_string ~typedefs ~file:"t.c" printed
    with Diag.Fatal d ->
      Alcotest.failf "reparse failed: %s@.--- printed:@.%s" (Diag.to_string d)
        printed
  in
  let printed2 = Pretty.tunit_to_string tu2 in
  Alcotest.(check string) "fixpoint" printed printed2

let test_roundtrip_cases () =
  List.iter (fun s -> roundtrip s)
    [
      "int x = 1;";
      "extern /*@only@*/ char *gname;";
      "typedef struct _l { int v; struct _l *next; } *list;";
      "int f(int a, char *b) { return a + (int) *b; }";
      "void g(void) { int xs[4]; xs[0] = 1; xs[1] = xs[0] * 2; }";
      "void h(int n) { while (n > 0) { n = n - 1; } }";
      "void s(int n) { switch (n) { case 1: n = 2; break; default: n = 0; } }";
      "int (*fp)(int, char *);";
      "enum e { A, B = 2 }; enum e v;";
      "void u(void) { u(); }";
    ]

let test_roundtrip_figures () =
  List.iter (fun s -> roundtrip s)
    [
      Corpus.Figures.fig1_sample; Corpus.Figures.fig2_sample_null;
      Corpus.Figures.fig3_sample_fixed; Corpus.Figures.fig4_sample_only_temp;
    ];
  roundtrip ~typedefs:[ "size_t" ] Corpus.Figures.fig5_list_addh

(* property: print-parse is a fixpoint on generated programs *)
let prop_roundtrip_generated =
  QCheck.Test.make ~count:30 ~name:"parse(print(parse p)) = parse p on generated programs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:2 ~fns_per_module:3 () in
      List.for_all
        (fun (name, text) ->
          let typedefs = [ "size_t"; "FILE" ] in
          let tu1 = Parser.parse_string ~typedefs ~file:name text in
          let printed = Pretty.tunit_to_string tu1 in
          let tu2 = Parser.parse_string ~typedefs ~file:name printed in
          Pretty.tunit_to_string tu2 = printed)
        p.Progen.files)

(* property: the lexer round-trips identifier and integer spellings *)
let prop_lex_ints =
  QCheck.Test.make ~count:200 ~name:"integer literals lex to their value"
    QCheck.(int_bound 1_000_000)
    (fun n ->
      match lex (string_of_int n) with
      | [ Token.IntLit (v, _); Token.Eof ] -> v = Int64.of_int n
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* LCL spec mode (bare-word annotations, the paper's notation)         *)
(* ------------------------------------------------------------------ *)

let parse_spec src = Parser.parse_spec_string ~file:"t.lcl" src

let annots_of_decl (tu : Ast.tunit) =
  match tu.Ast.tu_decls with
  | Ast.Tdecl [ d ] :: _ -> List.map (fun a -> a.Ast.a_text) d.Ast.d_annots
  | _ -> Alcotest.fail "expected a declaration"

let test_spec_malloc () =
  (* the paper's exact notation: "null out only void *malloc (size_t size);" *)
  let tu =
    Parser.parse_spec_string ~typedefs:[ "size_t" ] ~file:"t.lcl"
      "null out only void *malloc(size_t size);"
  in
  Alcotest.(check (list string)) "annots" [ "null"; "out"; "only" ]
    (annots_of_decl tu)

let test_spec_param_annots () =
  let tu =
    parse_spec "char *strcpy(out returned unique char *s1, char *s2);"
  in
  match tu.Ast.tu_decls with
  | [ Ast.Tdecl [ { Ast.d_ty = Ast.Tfunc { ft_params = [ p1; p2 ]; _ }; _ } ] ]
    ->
      Alcotest.(check (list string)) "s1" [ "out"; "returned"; "unique" ]
        (List.map (fun a -> a.Ast.a_text) p1.Ast.p_annots);
      Alcotest.(check (list string)) "s2" []
        (List.map (fun a -> a.Ast.a_text) p2.Ast.p_annots)
  | _ -> Alcotest.fail "expected strcpy declaration"

let test_spec_words_as_identifiers () =
  (* a variable named like an annotation still parses *)
  let tu = parse_spec "int in; int out; int only;" in
  Alcotest.(check int) "three declarations" 3 (List.length tu.Ast.tu_decls)

let test_spec_mode_off_by_default () =
  (* without spec mode, "null out only ..." is a parse error *)
  match parse "null out only void *malloc(unsigned long size);" with
  | exception Diag.Fatal _ -> ()
  | _ -> Alcotest.fail "expected a parse error without spec mode"

let test_spec_equivalent_to_comments () =
  (* the two notations produce identical interfaces *)
  let spec =
    Parser.parse_spec_string ~typedefs:[ "size_t" ] ~file:"a.lcl"
      "null out only void *malloc(size_t n);"
  in
  let comments =
    Parser.parse_string ~typedefs:[ "size_t" ] ~file:"a.c"
      "/*@null@*/ /*@out@*/ /*@only@*/ void *malloc(size_t n);"
  in
  Alcotest.(check string) "same printed form"
    (Pretty.tunit_to_string { spec with Ast.tu_file = "x" })
    (Pretty.tunit_to_string { comments with Ast.tu_file = "x" })

let spec_tests =
  [
    Alcotest.test_case "malloc notation" `Quick test_spec_malloc;
    Alcotest.test_case "param annots" `Quick test_spec_param_annots;
    Alcotest.test_case "words as identifiers" `Quick test_spec_words_as_identifiers;
    Alcotest.test_case "off by default" `Quick test_spec_mode_off_by_default;
    Alcotest.test_case "equivalent to comments" `Quick test_spec_equivalent_to_comments;
  ]

let () =
  Alcotest.run "cfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "annotation" `Quick test_lex_annotation;
          Alcotest.test_case "annotation multiword" `Quick test_lex_annotation_multiword;
          Alcotest.test_case "comments" `Quick test_lex_comments_skipped;
          Alcotest.test_case "preprocessor" `Quick test_lex_preprocessor_skipped;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "string adjacency" `Quick test_lex_string_concat_separate;
          Alcotest.test_case "char literals" `Quick test_lex_char_literals;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "locations" `Quick test_lex_locations;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          QCheck_alcotest.to_alcotest prop_lex_ints;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "unary chains" `Quick test_parse_unary_chains;
          Alcotest.test_case "postfix chains" `Quick test_parse_postfix;
          Alcotest.test_case "cast vs paren" `Quick test_parse_cast_vs_paren;
          Alcotest.test_case "sizeof" `Quick test_parse_sizeof;
          Alcotest.test_case "string concat" `Quick test_parse_string_concat;
          Alcotest.test_case "declarators" `Quick test_parse_declarators;
          Alcotest.test_case "typedef resolution" `Quick test_parse_typedef_resolution;
          Alcotest.test_case "struct definition" `Quick test_parse_struct_def;
          Alcotest.test_case "enum" `Quick test_parse_enum;
          Alcotest.test_case "param annotations" `Quick test_parse_annotations_on_params;
          Alcotest.test_case "globals list" `Quick test_parse_globals_list;
          Alcotest.test_case "statement forms" `Quick test_parse_statement_forms;
          Alcotest.test_case "assert" `Quick test_parse_assert_recognized;
          Alcotest.test_case "suppression pragmas" `Quick test_parse_suppression_pragmas;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "paper figures" `Quick test_paper_figures_parse;
          Alcotest.test_case "stream matches array: figures" `Quick test_stream_figures;
          Alcotest.test_case "stream matches array: employee db" `Quick
            test_stream_employee_db;
          Alcotest.test_case "stream matches array: progen" `Quick test_stream_progen;
          Alcotest.test_case "long annotation run" `Quick test_stream_long_annotation_run;
          Alcotest.test_case "keyword table" `Quick test_keyword_table;
          Alcotest.test_case "fatal error precedence" `Quick test_fatal_error_precedence;
        ] );
      ("spec-mode", spec_tests);
      ( "pretty",
        [
          Alcotest.test_case "roundtrip cases" `Quick test_roundtrip_cases;
          Alcotest.test_case "roundtrip figures" `Quick test_roundtrip_figures;
          QCheck_alcotest.to_alcotest prop_roundtrip_generated;
        ] );
    ]

