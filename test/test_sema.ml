(* Semantic analysis tests: type resolution, interfaces, implicit
   annotations, constant evaluation. *)

module Ctype = Sema.Ctype
module Flags = Annot.Flags

let analyse ?(flags = Flags.default) src =
  Sema.analyze_string ~flags ~file:"t.c" src

let fs prog name =
  match Hashtbl.find_opt prog.Sema.p_funcs name with
  | Some fs -> fs
  | None -> Alcotest.failf "function %s not found" name

let gv prog name =
  match Hashtbl.find_opt prog.Sema.p_globals name with
  | Some gv -> gv
  | None -> Alcotest.failf "global %s not found" name

let test_basic_types () =
  let prog = analyse "int a; unsigned long b; char *c; double d;" in
  Alcotest.(check string) "a" "int" (Ctype.to_string (gv prog "a").Sema.gv_ty);
  Alcotest.(check string) "b" "unsigned long" (Ctype.to_string (gv prog "b").Sema.gv_ty);
  Alcotest.(check bool) "c pointer" true (Ctype.is_pointer (gv prog "c").Sema.gv_ty);
  Alcotest.(check string) "d" "double" (Ctype.to_string (gv prog "d").Sema.gv_ty)

let test_struct_fields () =
  let prog = analyse "struct s { int a; char *b; struct s *next; };" in
  match Sema.find_field prog "s" "next" with
  | Some f -> (
      match Ctype.unroll f.Sema.sf_ty with
      | Ctype.Cptr (Ctype.Cstruct "s") -> ()
      | _ -> Alcotest.fail "next should be struct s *")
  | None -> Alcotest.fail "field next not found"

let test_typedef_resolution () =
  let prog = analyse "typedef struct _l { int v; } *list; list make(void);" in
  let f = fs prog "make" in
  match Ctype.unroll f.Sema.fs_ret with
  | Ctype.Cptr (Ctype.Cstruct "_l") -> ()
  | t -> Alcotest.failf "unexpected return type %s" (Ctype.to_string t)

let test_typedef_annotation_inheritance () =
  (* "Annotations may be used in a type declaration to constrain all
     instances of a type" *)
  let prog = analyse "typedef /*@null@*/ char *maybe; void f(maybe p);" in
  let f = fs prog "f" in
  match f.Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "inherited null" true
        (p.Sema.pr_annots.Sema.an.Annot.an_null = Some Annot.Null)
  | _ -> Alcotest.fail "expected one parameter"

let test_notnull_override () =
  (* "the type's null annotation may be overridden ... using the notnull
     annotation" *)
  let prog =
    analyse "typedef /*@null@*/ char *maybe; void f(/*@notnull@*/ maybe p);"
  in
  let f = fs prog "f" in
  match f.Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "overridden" true
        (p.Sema.pr_annots.Sema.an.Annot.an_null = Some Annot.NotNull)
  | _ -> Alcotest.fail "expected one parameter"

let test_implicit_temp_params () =
  (* "An unqualified formal parameter is assumed to be temp storage" *)
  let prog = analyse "void f(char *p);" in
  let f = fs prog "f" in
  match f.Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "temp" true
        (p.Sema.pr_annots.Sema.an.Annot.an_alloc = Some Annot.Temp);
      Alcotest.(check bool) "implicit" true p.Sema.pr_annots.Sema.alloc_implicit
  | _ -> Alcotest.fail "expected one parameter"

let test_implicit_only_returns () =
  let prog = analyse "char *f(void);" in
  Alcotest.(check bool) "implicit only" true
    ((fs prog "f").Sema.fs_ret_annots.Sema.an.Annot.an_alloc = Some Annot.Only);
  (* and off under -allimponly *)
  let prog = analyse ~flags:(Flags.allimponly_off Flags.default) "char *f(void);" in
  Alcotest.(check bool) "no implicit" true
    ((fs prog "f").Sema.fs_ret_annots.Sema.an.Annot.an_alloc = None)

let test_implicit_only_fields_and_globals () =
  let prog = analyse "struct s { char *p; }; char *g;" in
  (match Sema.find_field prog "s" "p" with
  | Some f ->
      Alcotest.(check bool) "field only" true
        (f.Sema.sf_annots.Sema.an.Annot.an_alloc = Some Annot.Only)
  | None -> Alcotest.fail "no field");
  Alcotest.(check bool) "global only" true
    ((gv prog "g").Sema.gv_annots.Sema.an.Annot.an_alloc = Some Annot.Only)

let test_no_implicit_on_explicit () =
  let prog = analyse "void f(/*@only@*/ char *p);" in
  match (fs prog "f").Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "explicit only" true
        (p.Sema.pr_annots.Sema.an.Annot.an_alloc = Some Annot.Only);
      Alcotest.(check bool) "not implicit" false p.Sema.pr_annots.Sema.alloc_implicit
  | _ -> Alcotest.fail "expected one parameter"

let test_function_pointers_not_implicit () =
  (* implicit memory annotations make no sense on function pointers *)
  let prog = analyse "void f(int (*cb)(int));" in
  match (fs prog "f").Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "no alloc annot" true
        (p.Sema.pr_annots.Sema.an.Annot.an_alloc = None)
  | _ -> Alcotest.fail "expected one parameter"

let test_decl_then_def_merge () =
  (* annotations from a declaration survive to the definition *)
  let prog =
    analyse
      "extern /*@only@*/ char *mk(/*@null@*/ char *seed);\n\
       char *mk(char *seed) { return seed; }"
  in
  let f = fs prog "mk" in
  Alcotest.(check bool) "defined" true f.Sema.fs_defined;
  Alcotest.(check bool) "ret only" true
    (f.Sema.fs_ret_annots.Sema.an.Annot.an_alloc = Some Annot.Only);
  match f.Sema.fs_params with
  | [ p ] ->
      Alcotest.(check bool) "param null kept" true
        (p.Sema.pr_annots.Sema.an.Annot.an_null = Some Annot.Null)
  | _ -> Alcotest.fail "expected one parameter"

let test_globals_list () =
  let prog =
    analyse "int g; void init(void) /*@globals undef g@*/ { g = 1; }"
  in
  match (fs prog "init").Sema.fs_globals with
  | [ (name, set) ] ->
      Alcotest.(check string) "name" "g" name;
      Alcotest.(check bool) "undef" true set.Annot.an_undef
  | _ -> Alcotest.fail "expected one globals entry"

let test_enum_constants () =
  let prog = analyse "enum e { A, B = 10, C };" in
  let v name = Hashtbl.find_opt prog.Sema.p_enum_consts name in
  Alcotest.(check (option int64)) "A" (Some 0L) (v "A");
  Alcotest.(check (option int64)) "B" (Some 10L) (v "B");
  Alcotest.(check (option int64)) "C" (Some 11L) (v "C")

let test_const_eval () =
  let prog = analyse "enum e { K = 4 }; int a[K * 2 + 1];" in
  match Ctype.unroll (gv prog "a").Sema.gv_ty with
  | Ctype.Carray (_, Some 9) -> ()
  | t -> Alcotest.failf "array size not evaluated: %s" (Ctype.to_string t)

let test_redefinition_reported () =
  let prog = analyse "int f(void) { return 1; } int f(void) { return 2; }" in
  Alcotest.(check bool) "redefinition reported" true
    (List.exists
       (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code = "decl")
       (Cfront.Diag.Collector.all prog.Sema.diags))

let test_unknown_type_reported () =
  (* an unknown type name in declaration position is a parse error (the
     parser treats it as an expression and trips on the declarator) *)
  (match analyse "void f(void) { undeclared_t x; x = 1; }" with
  | exception Cfront.Diag.Fatal d ->
      Alcotest.(check string) "code" "parse" d.Cfront.Diag.code
  | _ -> Alcotest.fail "expected a parse error");
  (* a typedef name used before its definition inside a function type is a
     recoverable sema diagnostic: parse with the name pre-registered *)
  let tu =
    Cfront.Parser.parse_string ~typedefs:[ "foo" ] ~file:"t.c" "foo g;"
  in
  let prog = Sema.analyze tu in
  Alcotest.(check bool) "type diag" true
    (List.exists
       (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code = "type")
       (Cfront.Diag.Collector.all prog.Sema.diags))

let test_source_order_views () =
  let prog = analyse "struct a { int x; }; struct b { int y; }; int g1; int g2;" in
  Alcotest.(check (list string)) "struct order" [ "a"; "b" ] (Sema.struct_order prog);
  Alcotest.(check (list string)) "global order" [ "g1"; "g2" ] (Sema.global_order prog)

(* ------------------------------------------------------------------ *)
(* Definition pairs: update_funsig, patch_fundef, copy_for_check       *)
(* ------------------------------------------------------------------ *)

let analyse_files files =
  match files with
  | [] -> invalid_arg "analyse_files"
  | (file, src) :: rest ->
      let prog = Sema.analyze_string ~file src in
      List.iter
        (fun (file, src) -> ignore (Sema.analyze_string ~into:prog ~file src))
        rest;
      prog

(* The one function definition of [src], parsed as file [file]. *)
let fundef_of ~file src =
  let tu = Cfront.Parser.parse_string ~file src in
  match
    List.find_map
      (function Cfront.Ast.Tfundef f -> Some f | _ -> None)
      tu.Cfront.Ast.tu_decls
  with
  | Some f -> f
  | None -> Alcotest.failf "no definition in %s" file

let pair_files prog =
  List.map
    (fun ((fs : Sema.funsig), (f : Cfront.Ast.fundef)) ->
      (fs.Sema.fs_name, f.Cfront.Ast.f_loc.Cfront.Loc.file))
    (Sema.fundefs prog)

let statics =
  [
    ("a.c", "static int f(char *p) { return 0; }");
    ("b.c", "static int f(char *p) { return 1; }");
  ]

let with_notnull (fs : Sema.funsig) =
  {
    fs with
    Sema.fs_params =
      List.map
        (fun (pr : Sema.param) ->
          let an = pr.Sema.pr_annots.Sema.an in
          {
            pr with
            Sema.pr_annots =
              Sema.explicit { an with Annot.an_null = Some Annot.NotNull };
          })
        fs.Sema.fs_params;
  }

let test_update_funsig_statics () =
  let prog = analyse_files statics in
  let fs' = with_notnull (fs prog "f") in
  Sema.update_funsig prog fs';
  Alcotest.(check bool) "table" true (fs prog "f" == fs');
  Alcotest.(check (list bool)) "both pairs rewritten" [ true; true ]
    (List.map (fun (pfs, _) -> pfs == fs') (Sema.fundefs prog));
  Alcotest.(check (list (pair string string))) "pairs keep their bodies"
    [ ("f", "a.c"); ("f", "b.c") ] (pair_files prog)

let test_patch_fundef_statics () =
  let prog = analyse_files statics in
  let before = Sema.fundefs prog in
  let nb = fundef_of ~file:"b.c" "static int f(char *p) { return 2; }" in
  Alcotest.(check bool) "b.c patched" true (Sema.patch_fundef prog nb);
  (match (before, Sema.fundefs prog) with
  | [ (sa, fa); (sb, _) ], [ (sa', fa'); (sb', fb') ] ->
      Alcotest.(check bool) "a.c body untouched" true (fa' == fa);
      Alcotest.(check bool) "b.c body swapped" true (fb' == nb);
      Alcotest.(check bool) "signatures untouched" true (sa' == sa && sb' == sb)
  | _ -> Alcotest.fail "expected two pairs");
  let nc = fundef_of ~file:"c.c" "static int f(char *p) { return 3; }" in
  Alcotest.(check bool) "unknown file" false (Sema.patch_fundef prog nc);
  let ng = fundef_of ~file:"a.c" "static int g(char *p) { return 3; }" in
  Alcotest.(check bool) "unknown name" false (Sema.patch_fundef prog ng)

let test_pair_keeps_definition_funsig () =
  let prog =
    analyse
      "int g(char *p) { return 0; }\nextern int g(/*@null@*/ char *p);"
  in
  let table = fs prog "g" in
  let null_of (fs : Sema.funsig) =
    (List.hd fs.Sema.fs_params).Sema.pr_annots.Sema.an.Annot.an_null
  in
  Alcotest.(check bool) "table merged the redeclaration" true
    (null_of table = Some Annot.Null);
  (match Sema.fundefs prog with
  | [ (pfs, _) ] ->
      Alcotest.(check bool) "pair keeps its own funsig" true
        (pfs != table && null_of pfs = None)
  | _ -> Alcotest.fail "expected one pair");
  (* a write of another name leaves it alone too *)
  Sema.update_funsig prog
    { table with Sema.fs_name = "h"; fs_params = [] };
  match Sema.fundefs prog with
  | [ (pfs, _) ] -> Alcotest.(check bool) "still its own" true (null_of pfs = None)
  | _ -> Alcotest.fail "expected one pair"

let test_fundefs_order_after_writes () =
  let src n = Printf.sprintf "int f%d(char *p) { return %d; }\n" n n in
  let prog = analyse (String.concat "" (List.map src [ 1; 2; 3; 4 ])) in
  let names () = List.map fst (pair_files prog) in
  Sema.update_funsig prog (with_notnull (fs prog "f3"));
  ignore (Sema.patch_fundef prog (fundef_of ~file:"t.c" (src 1 ^ " ")));
  Sema.update_funsig prog (with_notnull (fs prog "f1"));
  Alcotest.(check (list string)) "source order" [ "f1"; "f2"; "f3"; "f4" ]
    (names ());
  (* a definition added after the first write is found by the next one *)
  ignore (Sema.analyze_string ~into:prog ~file:"u.c" (src 5));
  let f5 = with_notnull (fs prog "f5") in
  Sema.update_funsig prog f5;
  Alcotest.(check (list string)) "appended" [ "f1"; "f2"; "f3"; "f4"; "f5" ]
    (names ());
  Alcotest.(check bool) "new pair written" true
    (fst (List.nth (Sema.fundefs prog) 4) == f5);
  Alcotest.(check (list bool)) "written pairs" [ true; false; true; false; true ]
    (List.map
       (fun ((pfs : Sema.funsig), _) ->
         (List.hd pfs.Sema.fs_params).Sema.pr_annots.Sema.an.Annot.an_null
         = Some Annot.NotNull)
       (Sema.fundefs prog))

(* A copy gets its own slots: writes through either program stay out of
   the other's [fundefs]. *)
let test_copy_for_check_slots () =
  let prog = analyse_files statics in
  let copy = Sema.copy_for_check prog in
  let orig_pairs = Sema.fundefs prog in
  let fs' = with_notnull (fs prog "f") in
  Sema.update_funsig prog fs';
  Alcotest.(check bool) "copy keeps its pairs" true
    (List.for_all2
       (fun (a, fa) (b, fb) -> a == b && fa == fb)
       orig_pairs (Sema.fundefs copy));
  Alcotest.(check bool) "copy keeps its table" true
    (fs copy "f" != fs');
  let na = fundef_of ~file:"a.c" "static int f(char *p) { return 9; }" in
  Alcotest.(check bool) "copy patched" true (Sema.patch_fundef copy na);
  Alcotest.(check bool) "original keeps its body" true
    (snd (List.hd (Sema.fundefs prog)) == snd (List.hd orig_pairs));
  Alcotest.(check bool) "copy sees its own patch" true
    (snd (List.hd (Sema.fundefs copy)) == na)

(* [body_writes]: which bodies the checker must check against a copy.
   The program defines [known_t] and [struct s]; [ghost_t] parses as a
   type name (as after a block-scope typedef earlier in its file) but
   the program does not define it. *)
let test_body_writes () =
  let prog = analyse "typedef int known_t;\nstruct s { int a; };\n" in
  let fundef src =
    let tu =
      Cfront.Parser.parse_string ~typedefs:[ "known_t"; "ghost_t" ]
        ~file:"w.c" src
    in
    match tu.Cfront.Ast.tu_decls with
    | [ Cfront.Ast.Tfundef f ] -> f
    | _ -> Alcotest.failf "expected one definition in %S" src
  in
  List.iter
    (fun (what, want, src) ->
      Alcotest.(check bool) what want (Sema.body_writes prog (fundef src)))
    [
      ("plain body", false, "void f(int x) { int y; y = x; }");
      ("block-scope typedef", true, "void f(void) { typedef int local_t; }");
      ("block-scope extern", true, "void f(void) { extern int g; }");
      ( "inline field list",
        true,
        "void f(void) { struct t { int a; } v; v.a = 0; }" );
      ("enum item list", true, "void f(void) { enum e { A, B } v; v = A; }");
      ("anonymous tag", true, "void f(void) { struct { int a; } v; }");
      ("named tag reference only", false, "void f(struct s v) { v.a = 0; }");
      ("known type name", false, "void f(void) { known_t x = (known_t) 1; }");
      ("unknown type name", true, "void f(void) { ghost_t x; }");
      ( "unknown type name in a cast",
        true,
        "int f(int *p) { return (ghost_t) *p; }" );
      ( "unknown type name in sizeof",
        true,
        "int f(void) { return sizeof(ghost_t); }" );
      ( "inline tag in a case guard",
        true,
        "void f(int x) { switch (x) { case sizeof(struct u { int a; }): \
         break; } }" );
    ];
  (* the scan runs once per checked body: it must not allocate *)
  let f =
    fundef
      "int f(int *p, int n) { known_t k = 0; int i; \
       for (i = 0; i < n; i++) { if (p[i] > 0) { k = k + (int) p[i]; } } \
       switch (n) { case 1: return k; default: break; } return 0; }"
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sema.body_writes prog f)
  done;
  let words = Gc.minor_words () -. before in
  if words > 100. then Alcotest.failf "1000 scans allocated %.0f words" words

(* property: const_eval agrees with direct arithmetic on random trees *)
let prop_const_eval =
  let rec build depth rng : string * int64 =
    if depth = 0 then
      let n = Int64.of_int (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound 100)) in
      (Int64.to_string n, n)
    else
      let l, lv = build (depth - 1) rng in
      let r, rv = build (depth - 1) rng in
      match QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound 3) with
      | 0 -> (Printf.sprintf "(%s + %s)" l r, Int64.add lv rv)
      | 1 -> (Printf.sprintf "(%s - %s)" l r, Int64.sub lv rv)
      | 2 -> (Printf.sprintf "(%s * %s)" l r, Int64.mul lv rv)
      | _ -> (Printf.sprintf "(%s | %s)" l r, Int64.logor lv rv)
  in
  QCheck.Test.make ~count:100 ~name:"const_eval agrees with arithmetic"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src_expr, expected = build 3 rng in
      let prog = analyse (Printf.sprintf "enum e { K = %s };" src_expr) in
      Hashtbl.find_opt prog.Sema.p_enum_consts "K" = Some expected)

let () =
  Alcotest.run "sema"
    [
      ( "types",
        [
          Alcotest.test_case "basic types" `Quick test_basic_types;
          Alcotest.test_case "struct fields" `Quick test_struct_fields;
          Alcotest.test_case "typedef resolution" `Quick test_typedef_resolution;
          Alcotest.test_case "enum constants" `Quick test_enum_constants;
          Alcotest.test_case "const eval" `Quick test_const_eval;
          Alcotest.test_case "source order" `Quick test_source_order_views;
          QCheck_alcotest.to_alcotest prop_const_eval;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "typedef inheritance" `Quick test_typedef_annotation_inheritance;
          Alcotest.test_case "notnull override" `Quick test_notnull_override;
          Alcotest.test_case "implicit temp params" `Quick test_implicit_temp_params;
          Alcotest.test_case "implicit only returns" `Quick test_implicit_only_returns;
          Alcotest.test_case "implicit fields/globals" `Quick test_implicit_only_fields_and_globals;
          Alcotest.test_case "explicit beats implicit" `Quick test_no_implicit_on_explicit;
          Alcotest.test_case "function pointers" `Quick test_function_pointers_not_implicit;
          Alcotest.test_case "decl/def merge" `Quick test_decl_then_def_merge;
          Alcotest.test_case "globals list" `Quick test_globals_list;
        ] );
      ( "definitions",
        [
          Alcotest.test_case "update statics" `Quick test_update_funsig_statics;
          Alcotest.test_case "patch statics" `Quick test_patch_fundef_statics;
          Alcotest.test_case "definition funsig kept" `Quick
            test_pair_keeps_definition_funsig;
          Alcotest.test_case "order after writes" `Quick
            test_fundefs_order_after_writes;
          Alcotest.test_case "copy slots" `Quick test_copy_for_check_slots;
          Alcotest.test_case "body writes" `Quick test_body_writes;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "redefinition" `Quick test_redefinition_reported;
          Alcotest.test_case "robustness" `Quick test_unknown_type_reported;
        ] );
    ]
