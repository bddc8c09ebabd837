(* Annotation language tests: parsing, categories, overrides, flags. *)

let mk text = Cfront.Ast.annot text

let set_of texts = fst (Annot.of_annots (List.map mk texts))
let errs_of texts = snd (Annot.of_annots (List.map mk texts))

let test_words () =
  let s = set_of [ "null" ] in
  Alcotest.(check bool) "null" true (s.Annot.an_null = Some Annot.Null);
  let s = set_of [ "out only" ] in
  Alcotest.(check bool) "out" true (s.Annot.an_def = Some Annot.Out);
  Alcotest.(check bool) "only" true (s.Annot.an_alloc = Some Annot.Only);
  let s = set_of [ "truenull" ] in
  Alcotest.(check bool) "truenull" true s.Annot.an_truenull;
  let s = set_of [ "observer" ] in
  Alcotest.(check bool) "observer" true (s.Annot.an_expose = Some Annot.Observer)

let test_all_appendix_b_words () =
  (* every Appendix B word must parse *)
  List.iter
    (fun w ->
      if errs_of [ w ] <> [] then Alcotest.failf "unknown word %s" w)
    [
      "null"; "notnull"; "relnull"; "out"; "in"; "partial"; "reldef"; "only";
      "keep"; "temp"; "owned"; "dependent"; "shared"; "unique"; "returned";
      "observer"; "exposed"; "truenull"; "falsenull";
    ]

let test_multiple_comments () =
  let s = set_of [ "null"; "out"; "only" ] in
  Alcotest.(check bool) "null" true (s.Annot.an_null = Some Annot.Null);
  Alcotest.(check bool) "out" true (s.Annot.an_def = Some Annot.Out);
  Alcotest.(check bool) "only" true (s.Annot.an_alloc = Some Annot.Only)

let test_category_conflicts () =
  (* "At most one annotation in any category can be used" *)
  Alcotest.(check bool) "null vs notnull" true (errs_of [ "null"; "notnull" ] <> []);
  Alcotest.(check bool) "only vs temp" true (errs_of [ "only"; "temp" ] <> []);
  Alcotest.(check bool) "out vs in" true (errs_of [ "out"; "in" ] <> []);
  Alcotest.(check bool) "duplicate same is fine" true (errs_of [ "null"; "null" ] = [])

let test_unknown_word () =
  Alcotest.(check bool) "unknown" true (errs_of [ "bogus" ] <> [])

let test_override () =
  (* declaration overrides the typedef's annotation per category *)
  let base = set_of [ "null"; "only" ] in
  let decl = set_of [ "notnull" ] in
  let r = Annot.override ~base ~decl in
  Alcotest.(check bool) "notnull wins" true (r.Annot.an_null = Some Annot.NotNull);
  Alcotest.(check bool) "only kept" true (r.Annot.an_alloc = Some Annot.Only)

let test_compat () =
  Alcotest.(check bool) "truenull+falsenull" true
    (Annot.check_compat (set_of [ "truenull"; "falsenull" ]) <> None);
  Alcotest.(check bool) "only+observer" true
    (Annot.check_compat (set_of [ "only"; "observer" ]) <> None);
  Alcotest.(check bool) "null+only ok" true
    (Annot.check_compat (set_of [ "null"; "only" ]) = None)

let test_to_words_roundtrip () =
  let cases =
    [ [ "null" ]; [ "out"; "only" ]; [ "relnull"; "reldef" ];
      [ "temp"; "unique"; "returned" ]; [ "observer" ]; [ "exits" ] ]
  in
  List.iter
    (fun words ->
      let s = set_of words in
      let s' = set_of [ String.concat " " (Annot.to_words s) ] in
      Alcotest.(check bool)
        (String.concat "," words)
        true (s = s'))
    cases

(* property: to_words round-trips arbitrary sets through the parser *)
let prop_roundtrip =
  let gen =
    QCheck.Gen.(
      let opt g = oneof [ return None; map Option.some g ] in
      let* an_null = opt (oneofl Annot.[ Null; NotNull; RelNull ]) in
      let* an_def = opt (oneofl Annot.[ Out; In; Partial; RelDef ]) in
      let* an_alloc =
        opt (oneofl Annot.[ Only; Keep; Temp; Owned; Dependent; Shared ])
      in
      let* an_expose = opt (oneofl Annot.[ Observer; Exposed ]) in
      let* an_unique = bool in
      let* an_returned = bool in
      let* tn = bool in
      let* an_exits = bool in
      return
        {
          Annot.empty with
          an_null; an_def; an_alloc; an_expose; an_unique; an_returned;
          an_truenull = tn; an_falsenull = false; an_exits;
        })
  in
  QCheck.Test.make ~count:200 ~name:"annotation sets round-trip through words"
    (QCheck.make gen) (fun s ->
      match Annot.to_words s with
      | [] -> s = Annot.empty
      | words -> s = set_of [ String.concat " " words ])

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let test_flags_apply () =
  let f = Annot.Flags.default in
  (match Annot.Flags.apply_all f [ "-allimponly" ] with
  | Ok f' ->
      Alcotest.(check bool) "returns off" false f'.Annot.Flags.implicit_only_returns;
      Alcotest.(check bool) "globals off" false f'.Annot.Flags.implicit_only_globals;
      Alcotest.(check bool) "fields off" false f'.Annot.Flags.implicit_only_fields;
      Alcotest.(check bool) "temp params still on" true f'.Annot.Flags.implicit_temp_params
  | Error _ -> Alcotest.fail "-allimponly should parse");
  (match Annot.Flags.apply_all f [ "+freeoffset" ] with
  | Ok f' -> Alcotest.(check bool) "freeoffset" true f'.Annot.Flags.free_offset
  | Error _ -> Alcotest.fail "+freeoffset should parse");
  (match Annot.Flags.apply_all f [ "no-null" ] with
  | Ok f' -> Alcotest.(check bool) "no-null" false f'.Annot.Flags.check_null
  | Error _ -> Alcotest.fail "no-null should parse");
  match Annot.Flags.apply_all f [ "-nonsense" ] with
  | Error (Annot.Flags.Unknown_flag "nonsense") -> ()
  | _ -> Alcotest.fail "unknown flag should be rejected"

let test_flags_all_names () =
  List.iter
    (fun name ->
      match Annot.Flags.(apply_all default [ "+" ^ name ]) with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "flag %s should be known" name)
    Annot.Flags.flag_names

let test_gc_flag () =
  (* Section 3: "If LCLint is used to check programs designed for use with
     a garbage collector, flags can be used to adjust checking so only
     those errors relevant in a garbage-collected environment are
     reported." *)
  match Annot.Flags.(apply_all default [ "+gc" ]) with
  | Ok f -> Alcotest.(check bool) "gc" true f.Annot.Flags.gc_mode
  | Error _ -> Alcotest.fail "+gc should parse"

let () =
  Alcotest.run "annot"
    [
      ( "parsing",
        [
          Alcotest.test_case "basic words" `Quick test_words;
          Alcotest.test_case "appendix B vocabulary" `Quick test_all_appendix_b_words;
          Alcotest.test_case "multiple comments" `Quick test_multiple_comments;
          Alcotest.test_case "category conflicts" `Quick test_category_conflicts;
          Alcotest.test_case "unknown word" `Quick test_unknown_word;
          Alcotest.test_case "override" `Quick test_override;
          Alcotest.test_case "compatibility" `Quick test_compat;
          Alcotest.test_case "to_words roundtrip" `Quick test_to_words_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "flags",
        [
          Alcotest.test_case "apply" `Quick test_flags_apply;
          Alcotest.test_case "all names known" `Quick test_flags_all_names;
          Alcotest.test_case "gc mode" `Quick test_gc_flag;
        ] );
    ]
