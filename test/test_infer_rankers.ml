(* Ranker-pipeline tests: the built-in candidate rankers (names, shapes,
   grid), the external-suggester spec parser, the merge/sort pipeline,
   and the fleet-scale properties — pipeline determinism, the guided
   run's diagnostics never exceeding the exhaustive run's, and the
   -infer-bulk patch round-trip on the three-module fleet example. *)

module Flags = Annot.Flags
module Ranker = Infer.Ranker

let analyze ?(flags = Flags.default) files =
  let prog = Stdspec.environment ~flags () in
  List.iter
    (fun (name, text) ->
      let typedefs =
        Hashtbl.fold (fun k _ acc -> k :: acc) prog.Sema.p_typedefs []
      in
      let tu = Cfront.Parser.parse_string ~typedefs ~file:name text in
      ignore (Sema.analyze ~flags ~into:prog tu))
    files;
  prog

let program src = analyze [ ("t.c", src) ]

let body_of prog fname =
  List.find_map
    (fun ((fs : Sema.funsig), fd) ->
      if String.equal fs.Sema.fs_name fname then Some fd else None)
    (Sema.fundefs prog)

let rank prog (r : Ranker.t) fname =
  let fs = Hashtbl.find prog.Sema.p_funcs fname in
  r.Ranker.rk_rank prog fs (body_of prog fname)

let pipeline prog rankers fname =
  let fs = Hashtbl.find prog.Sema.p_funcs fname in
  Ranker.pipeline rankers prog fs (body_of prog fname)

let proposes cands slot word =
  List.exists
    (fun (c : Ranker.candidate) ->
      Ranker.equal_slot c.Ranker.rc_slot slot
      && String.equal c.Ranker.rc_word word)
    cands

let keys cands =
  List.map
    (fun (c : Ranker.candidate) ->
      Ranker.show_slot c.Ranker.rc_slot ^ " " ^ c.Ranker.rc_word)
    cands

(* ------------------------------------------------------------------ *)
(* The name ranker                                                     *)
(* ------------------------------------------------------------------ *)

let names_src =
  "typedef struct _obj { int v; } obj;\n\
   obj *obj_create(void)\n\
   { obj *o = (obj *) malloc(sizeof(obj)); if (o == NULL) { exit(1); } \
   o->v = 0; return o; }\n\
   obj *new_obj(void) { return obj_create(); }\n\
   obj *obj_dup(obj *o) { obj *d = obj_create(); d->v = o->v; return d; }\n\
   void obj_free(obj *o) { free(o); }\n\
   void obj_destroy(obj *o) { free(o); }\n\
   void ref_release(obj *o) { free(o); }\n\
   void obj_free2(obj *o) { free(o); }\n\
   obj *recreate_buffer(void) { return obj_create(); }\n\
   int freelist_pop(obj *o) { return o->v; }\n\
   void pair_free(obj *a, obj *b) { free(a); free(b); }\n"

let test_names_creators () =
  let prog = program names_src in
  List.iter
    (fun fn ->
      let cands = rank prog Ranker.names fn in
      Alcotest.(check bool)
        (fn ^ " proposes only return") true
        (proposes cands Ranker.Sret "only");
      List.iter
        (fun (c : Ranker.candidate) ->
          Alcotest.(check (float 1e-9))
            (fn ^ " name prior") 0.9 c.Ranker.rc_prior)
        cands)
    [ "obj_create"; "new_obj"; "obj_dup" ]

let test_names_releasers () =
  let prog = program names_src in
  List.iter
    (fun fn ->
      let cands = rank prog Ranker.names fn in
      Alcotest.(check bool)
        (fn ^ " proposes only on its parameter") true
        (proposes cands (Ranker.Sparam 0) "only"))
    [ "obj_free"; "obj_destroy"; "ref_release"; "obj_free2" ]

let test_names_near_misses () =
  let prog = program names_src in
  (* [recreate] and [freelist] contain creator/releaser substrings but
     are not those tokens: neither function may fire *)
  List.iter
    (fun fn ->
      Alcotest.(check (list string)) (fn ^ " proposes nothing") []
        (keys (rank prog Ranker.names fn)))
    [ "recreate_buffer"; "freelist_pop" ]

let test_names_ambiguous_releaser () =
  let prog = program names_src in
  (* two pointer parameters: the released one is ambiguous, stay quiet *)
  Alcotest.(check (list string)) "pair_free proposes nothing" []
    (keys (rank prog Ranker.names "pair_free"))

(* ------------------------------------------------------------------ *)
(* The shape ranker                                                    *)
(* ------------------------------------------------------------------ *)

let shapes_src =
  "typedef struct _rec { int v; } rec;\n\
   int read_into(rec *dst) { dst->v = 1; return 0; }\n\
   int get_v(rec *r) { return r->v; }\n\
   int maybe_v(rec *r) { if (r != NULL) { return r->v; } return 0; }\n\
   int ignore_it(rec *r) { return 0; }\n\
   rec *wrap_alloc(void)\n\
   { rec *p = (rec *) malloc(sizeof(rec)); if (p == NULL) { return NULL; } \
   p->v = 0; return p; }\n\
   rec *sure_alloc(void)\n\
   { rec *p = (rec *) malloc(sizeof(rec)); if (p == NULL) { exit(1); } \
   p->v = 0; return p; }\n"

let test_shapes_out_param () =
  let prog = program shapes_src in
  let cands = rank prog Ranker.shapes "read_into" in
  Alcotest.(check bool) "stores-only param proposes out" true
    (proposes cands (Ranker.Sparam 0) "out");
  Alcotest.(check bool) "unconditional store also proposes notnull" true
    (proposes cands (Ranker.Sparam 0) "notnull");
  Alcotest.(check bool) "no null claim for a dereferenced param" false
    (proposes cands (Ranker.Sparam 0) "null");
  (* reads disqualify out *)
  Alcotest.(check bool) "reading param does not propose out" false
    (proposes (rank prog Ranker.shapes "get_v") (Ranker.Sparam 0) "out")

let test_shapes_notnull_param () =
  let prog = program shapes_src in
  Alcotest.(check bool) "unconditional deref proposes notnull" true
    (proposes (rank prog Ranker.shapes "get_v") (Ranker.Sparam 0) "notnull");
  let guarded = rank prog Ranker.shapes "maybe_v" in
  Alcotest.(check bool) "guarded deref does not propose notnull" false
    (proposes guarded (Ranker.Sparam 0) "notnull");
  Alcotest.(check bool) "guarded deref proposes null" true
    (proposes guarded (Ranker.Sparam 0) "null");
  Alcotest.(check bool) "untouched param proposes null" true
    (proposes (rank prog Ranker.shapes "ignore_it") (Ranker.Sparam 0) "null")

let test_shapes_alloc_wrappers () =
  let prog = program shapes_src in
  let wrap = rank prog Ranker.shapes "wrap_alloc" in
  Alcotest.(check bool) "NULL-passing wrapper proposes null return" true
    (proposes wrap Ranker.Sret "null");
  Alcotest.(check bool) "NULL-passing wrapper proposes only return" true
    (proposes wrap Ranker.Sret "only");
  Alcotest.(check bool) "NULL-passing wrapper does not claim notnull" false
    (proposes wrap Ranker.Sret "notnull");
  let sure = rank prog Ranker.shapes "sure_alloc" in
  Alcotest.(check bool) "exit-checked wrapper proposes notnull return" true
    (proposes sure Ranker.Sret "notnull");
  Alcotest.(check bool) "exit-checked wrapper does not claim null" false
    (proposes sure Ranker.Sret "null")

(* ------------------------------------------------------------------ *)
(* The external-suggester spec                                         *)
(* ------------------------------------------------------------------ *)

let test_spec_parses () =
  let spec =
    "# external suggestions\n\
     obj_create ret only 0.97\n\
     obj_create p0 null\n\
     obj_free param0 only\n\n"
  in
  match Ranker.of_spec ~name:"s.spec" spec with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok r ->
      let prog = program (Infer.strip_annotations names_src) in
      let cands = rank prog r "obj_create" in
      Alcotest.(check int) "two suggestions for obj_create" 2
        (List.length cands);
      (match cands with
      | [ a; b ] ->
          Alcotest.(check (float 1e-9)) "explicit prior kept" 0.97
            a.Ranker.rc_prior;
          Alcotest.(check (float 1e-9)) "default prior applied"
            Ranker.default_spec_prior b.Ranker.rc_prior
      | _ -> Alcotest.fail "expected two candidates");
      Alcotest.(check bool) "param0 spelling accepted" true
        (proposes (rank prog r "obj_free") (Ranker.Sparam 0) "only");
      Alcotest.(check (list string)) "unknown function gets nothing" []
        (keys (rank prog r "pair_free"))

let test_spec_rejects () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let expect_error ~line ~entry spec =
    match Ranker.of_spec ~name:"s.spec" spec with
    | Ok _ -> Alcotest.failf "spec accepted: %S" spec
    | Error e ->
        let prefix = Printf.sprintf "s.spec:%d:" line in
        Alcotest.(check bool)
          (Printf.sprintf "error cites %s (got %s)" prefix e)
          true
          (String.length e >= String.length prefix
          && String.sub e 0 (String.length prefix) = prefix);
        Alcotest.(check bool)
          (Printf.sprintf "error quotes the offending entry (got %s)" e)
          true
          (contains e ("'" ^ entry ^ "'"))
  in
  expect_error ~line:1 ~entry:"f bogus only" "f bogus only\n";
  expect_error ~line:1 ~entry:"f ret wild" "f ret wild\n";
  expect_error ~line:2 ~entry:"f ret only 1.5" "f ret only\nf ret only 1.5\n";
  expect_error ~line:1 ~entry:"f ret" "f ret\n";
  expect_error ~line:1 ~entry:"f ret only 0.5 extra" "f ret only 0.5 extra\n"

(* ------------------------------------------------------------------ *)
(* The pipeline: merge, admissibility, order                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_dedups_max_prior () =
  let prog = program names_src in
  (* names (0.9) and shapes (0.85) both propose obj_create's only
     return; the merged pipeline keeps one candidate at the top prior *)
  let cands = pipeline prog Ranker.default "obj_create" in
  let onlys =
    List.filter
      (fun (c : Ranker.candidate) ->
        Ranker.equal_slot c.Ranker.rc_slot Ranker.Sret
        && String.equal c.Ranker.rc_word "only")
      cands
  in
  (match onlys with
  | [ c ] ->
      Alcotest.(check (float 1e-9)) "highest prior wins" 0.9 c.Ranker.rc_prior
  | _ -> Alcotest.failf "expected one merged only-return candidate");
  match cands with
  | first :: _ ->
      Alcotest.(check string) "highest prior probed first" "Sret only"
        (Ranker.show_slot first.Ranker.rc_slot ^ " " ^ first.Ranker.rc_word)
  | [] -> Alcotest.fail "no candidates"

let test_pipeline_admissibility () =
  let prog =
    program
      "typedef struct _e { int v; } e;\n\
       /*@only@*/ /*@notnull@*/ e *mk(void)\n\
       { e *p = (e *) malloc(sizeof(e)); if (p == NULL) { exit(1); } \
       p->v = 0; return p; }\n\
       int main(void) { e *p = mk(); free(p); return 0; }\n"
  in
  (* filled categories never re-propose; main is never a candidate *)
  Alcotest.(check (list string)) "annotated return proposes nothing" []
    (keys (pipeline prog Ranker.default "mk"));
  Alcotest.(check (list string)) "main proposes nothing" []
    (keys (pipeline prog Ranker.default "main"))

let test_pipeline_grid_order () =
  let prog =
    program
      "typedef struct _e { int v; } e;\n\
       e *two(e *a, e *b) { return a; }\n"
  in
  (* at the uniform grid prior the tie-break reproduces the legacy
     probe order: parameters by index (out/only/null each), then the
     return (only/notnull) *)
  Alcotest.(check (list string))
    "legacy grid order"
    [
      "(Sparam 0) out"; "(Sparam 0) only"; "(Sparam 0) null";
      "(Sparam 1) out"; "(Sparam 1) only"; "(Sparam 1) null";
      "Sret only"; "Sret notnull";
    ]
    (keys (pipeline prog [ Ranker.grid ] "two"))

(* ------------------------------------------------------------------ *)
(* Properties: determinism, prior order, guided soundness              *)
(* ------------------------------------------------------------------ *)

let small_corpus ?(modules = 2) ?(fns = 4) seed =
  Progen.generate ~seed ~modules ~fns_per_module:fns ~annotated:true
    ~rich:true ()

let stripped_files (p : Progen.program) =
  List.map (fun (n, t) -> (n, Infer.strip_annotations t)) p.Progen.files

let prop_pipeline_deterministic =
  QCheck.Test.make ~count:15
    ~name:"pipeline output is deterministic and prior-sorted"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = analyze (stripped_files (small_corpus seed)) in
      List.for_all
        (fun ((fs : Sema.funsig), fd) ->
          let once = Ranker.pipeline Ranker.default prog fs (Some fd) in
          let twice = Ranker.pipeline Ranker.default prog fs (Some fd) in
          once = twice
          &&
          let rec sorted = function
            | a :: (b :: _ as tl) ->
                a.Ranker.rc_prior >= b.Ranker.rc_prior && sorted tl
            | _ -> true
          in
          sorted once)
        (Sema.fundefs prog))

let diag_strings diags =
  List.map Cfront.Diag.to_string (Cfront.Diag.Collector.sort_emission diags)

(* Every accepted candidate was probe-verified, so running the guided
   pipeline can only quiet the checker relative to the uninferred
   corpus, never make it noisier — and the inferred set must not depend
   on the checking parallelism.  (The guided and exhaustive arms may
   accept {e different} locally-verified sets — probe order changes
   which mutually exclusive claim wins — so their residual diagnostics
   are not comparable point-for-point; the uninferred corpus is the
   sound yardstick.) *)
let prop_guided_sound =
  QCheck.Test.make ~count:8
    ~name:"guided inference never exceeds the uninferred baseline"
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 3) (int_range 3 6))
    (fun (seed, modules, fns) ->
      let files = stripped_files (small_corpus ~modules ~fns seed) in
      let baseline =
        let prog = analyze files in
        diag_strings (Parcheck.check_program ~jobs:1 prog)
      in
      let arm jobs =
        let prog = analyze files in
        let outcome = Infer.run ~budget:2 prog in
        let diags = diag_strings (Parcheck.check_program ~jobs prog) in
        (Infer.render prog outcome, diags)
      in
      let render1, guided1 = arm 1 in
      let render4, guided4 = arm 4 in
      List.length guided1 <= List.length baseline
      && String.equal render1 render4
      && guided1 = guided4)

(* ------------------------------------------------------------------ *)
(* The -infer-bulk round-trip on the fleet example                     *)
(* ------------------------------------------------------------------ *)

let fleet_files () =
  List.map
    (fun f ->
      let ic = open_in ("../examples/" ^ f) in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      (f, s))
    [ "fleet_pool.c"; "fleet_task.c"; "fleet_main.c" ]

let check_diags files =
  let prog = analyze files in
  Check.Checker.check_program prog;
  diag_strings (Cfront.Diag.Collector.all prog.Sema.diags)

let test_bulk_round_trip () =
  let annotated = fleet_files () in
  let hand = check_diags annotated in
  let stripped =
    List.map (fun (n, t) -> (n, Infer.strip_annotations t)) annotated
  in
  let before = check_diags stripped in
  Alcotest.(check bool) "stripping loses information" true
    (List.length before > List.length hand);
  let prog = analyze stripped in
  let outcome = Infer.run prog in
  let patch =
    Infer.render_patch prog outcome ~read:(fun f -> List.assoc_opt f stripped)
  in
  Alcotest.(check bool) "patch is not empty" true (String.length patch > 0);
  Alcotest.(check bool) "patch carries provenance markers" true
    (let affix = " inferred@*/" in
     let n = String.length affix and m = String.length patch in
     let rec go i =
       i + n <= m && (String.sub patch i n = affix || go (i + 1))
     in
     go 0);
  match Infer.apply_patch patch stripped with
  | Error e -> Alcotest.failf "patch does not apply: %s" e
  | Ok patched ->
      Alcotest.(check (list string))
        "files and order preserved"
        (List.map fst stripped)
        (List.map fst patched);
      Alcotest.(check (list string))
        "re-checked diagnostics match the hand-annotated original" hand
        (check_diags patched)

let test_bulk_idempotent () =
  (* a second bulk pass over the applied patch infers nothing new: the
     inferred-marked spans survive stripping and re-analysis *)
  let stripped =
    List.map
      (fun (n, t) -> (n, Infer.strip_annotations t))
      (fleet_files ())
  in
  let prog = analyze stripped in
  let outcome = Infer.run prog in
  let patch =
    Infer.render_patch prog outcome ~read:(fun f -> List.assoc_opt f stripped)
  in
  match Infer.apply_patch patch stripped with
  | Error e -> Alcotest.failf "patch does not apply: %s" e
  | Ok patched ->
      List.iter
        (fun (n, t) ->
          Alcotest.(check string)
            (n ^ ": re-strip keeps machine annotations") t
            (Infer.strip_annotations t))
        patched;
      let prog2 = analyze patched in
      let outcome2 = Infer.run prog2 in
      Alcotest.(check int) "second pass accepts nothing" 0
        (List.length outcome2.Infer.out_findings);
      Alcotest.(check string) "second patch is empty" ""
        (Infer.render_patch prog2 outcome2 ~read:(fun f ->
             List.assoc_opt f patched))

(* Golden pins, recorded before the bookkeeping of [Infer.run] and the
   renderers was made linear: on the stripped rich corpora of three
   seeds, the number of findings and the MD5 of the -infer-bulk patch
   and of the [Infer.render] report must not move. *)
let bulk_pins =
  [
    ( 1,
      414,
      "00cfcdad942fdda398f4e635be395ae6",
      "ba19f01e2400398cd7cea511330e7552" );
    ( 7,
      392,
      "9421a53f9ebd43f40885b95cd36dfd05",
      "6963247dafe802a0d130d4a5c55eb464" );
    ( 42,
      387,
      "da56ea6b87fad5a6b8dd5c4c34410a7f",
      "e6f678ff88e5aab2ae2cb2179c4ce6de" );
  ]

let test_bulk_pins () =
  List.iter
    (fun (seed, count, patch_md5, render_md5) ->
      let files = stripped_files (small_corpus ~modules:8 ~fns:25 seed) in
      let prog = analyze files in
      let outcome = Infer.run prog in
      let patch =
        Infer.render_patch prog outcome ~read:(fun f -> List.assoc_opt f files)
      in
      let md5 s = Digest.to_hex (Digest.string s) in
      let what = Printf.sprintf "seed %d: " seed in
      Alcotest.(check int) (what ^ "findings") count
        (List.length outcome.Infer.out_findings);
      Alcotest.(check string) (what ^ "patch") patch_md5 (md5 patch);
      Alcotest.(check string) (what ^ "render") render_md5
        (md5 (Infer.render prog outcome)))
    bulk_pins

let () =
  Alcotest.run "infer_rankers"
    [
      ( "names",
        [
          Alcotest.test_case "creators" `Quick test_names_creators;
          Alcotest.test_case "releasers" `Quick test_names_releasers;
          Alcotest.test_case "near misses" `Quick test_names_near_misses;
          Alcotest.test_case "ambiguous releaser" `Quick
            test_names_ambiguous_releaser;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "out param" `Quick test_shapes_out_param;
          Alcotest.test_case "notnull param" `Quick test_shapes_notnull_param;
          Alcotest.test_case "alloc wrappers" `Quick
            test_shapes_alloc_wrappers;
        ] );
      ( "spec",
        [
          Alcotest.test_case "parses" `Quick test_spec_parses;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "dedups at max prior" `Quick
            test_pipeline_dedups_max_prior;
          Alcotest.test_case "admissibility" `Quick
            test_pipeline_admissibility;
          Alcotest.test_case "grid order" `Quick test_pipeline_grid_order;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_deterministic;
          QCheck_alcotest.to_alcotest prop_guided_sound;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "round trip" `Quick test_bulk_round_trip;
          Alcotest.test_case "idempotent" `Quick test_bulk_idempotent;
          Alcotest.test_case "pins" `Quick test_bulk_pins;
        ] );
    ]
