(* Interface-library tests: save/load round-trips, modular checking. *)

module Flags = Annot.Flags

let lib_src =
  "typedef struct _node { int v; /*@null@*/ /*@only@*/ struct _node *next; } \
   node;\n\
   /*@only@*/ node *node_create(int v)\n\
   {\n\
   node *n = (node *) malloc(sizeof(node));\n\
   if (n == NULL) { exit(1); }\n\
   n->v = v;\n\
   n->next = NULL;\n\
   return n;\n\
   }\n\
   void node_destroy(/*@only@*/ node *n)\n\
   {\n\
   if (n->next != NULL) { node_destroy(n->next); }\n\
   free(n);\n\
   }\n\
   int node_value(node *n) { return n->v; }\n"

let flags = Flags.(allimponly_off default)

let build_lib () = Stdspec.load ~flags (Seq.return ("node.c", lib_src))

(* a client checked against the dumped library of [lib_src] *)
let load_client client =
  Stdspec.load ~flags
    ~libs:(Seq.return ("node.lh", Check.Libspec.save (build_lib ())))
    (Seq.return ("client.c", client))

let test_save_parses () =
  let prog = build_lib () in
  let text = Check.Libspec.save prog in
  (* the dumped header must load into a fresh environment without errors *)
  let env = Check.Libspec.load ~flags ~file:"node.lh" text in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Cfront.Diag.Collector.all env.Sema.diags));
  Alcotest.(check bool) "node_create present" true
    (Option.is_some (Sema.find_func env "node_create"))

let test_roundtrip_annotations () =
  let prog = build_lib () in
  let env = Check.Libspec.load ~flags ~file:"node.lh" (Check.Libspec.save prog) in
  let orig = Option.get (Sema.find_func prog "node_create") in
  let loaded = Option.get (Sema.find_func env "node_create") in
  Alcotest.(check bool) "only ret survives" true
    (orig.Sema.fs_ret_annots.Sema.an = loaded.Sema.fs_ret_annots.Sema.an);
  let orig_d = Option.get (Sema.find_func prog "node_destroy") in
  let loaded_d = Option.get (Sema.find_func env "node_destroy") in
  List.iter2
    (fun (a : Sema.param) (b : Sema.param) ->
      Alcotest.(check bool) "param annots survive" true
        (a.Sema.pr_annots.Sema.an = b.Sema.pr_annots.Sema.an))
    orig_d.Sema.fs_params loaded_d.Sema.fs_params;
  (* field annotations survive through the struct layout *)
  match Sema.find_field env "_node" "next" with
  | Some f ->
      Alcotest.(check bool) "field null+only" true
        (f.Sema.sf_annots.Sema.an.Annot.an_null = Some Annot.Null
        && f.Sema.sf_annots.Sema.an.Annot.an_alloc = Some Annot.Only)
  | None -> Alcotest.fail "field next lost"

let test_idempotent () =
  (* saving a loaded library reproduces the same interface text *)
  let prog = build_lib () in
  let text1 = Check.Libspec.save prog in
  let env = Check.Libspec.load ~flags ~file:"node.lh" text1 in
  let text2 = Check.Libspec.save env in
  (* unwrap the stamped frame; the payload's own header comment names the
     source file, so compare everything after it *)
  let body t =
    let payload =
      match Check.Libspec.(unstamp ~kind:library_kind) t with
      | Ok (_, p) -> p
      | Error e -> Alcotest.failf "unstamp: %s" e
    in
    match String.index_opt payload '\n' with
    | Some i -> String.sub payload i (String.length payload - i)
    | None -> payload
  in
  Alcotest.(check string) "fixpoint" (body text1) (body text2)

let check_client client =
  let env = load_client client in
  List.iter
    (fun ((fs : Sema.funsig), def) ->
      if fs.Sema.fs_loc.Cfront.Loc.file = "client.c" then
        Check.Checker.check_fundef env fs def)
    (Sema.fundefs env);
  List.map
    (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code)
    (Cfront.Diag.Collector.sort_emission
       (Cfront.Diag.Collector.all env.Sema.diags))

let test_modular_clean_client () =
  Alcotest.(check (list string)) "clean client" []
    (check_client
       "int main(void) { node *n = node_create(1); int v = node_value(n); \
        node_destroy(n); return v; }")

let test_modular_buggy_client () =
  (* the leak is found using only the interface library *)
  Alcotest.(check (list string)) "leaking client" [ "mustfree" ]
    (check_client
       "int main(void) { node *n = node_create(1); node *m = node_create(2); \
        n = m; node_destroy(n); return 0; }")

let test_stdlib_library_clean () =
  (* the annotated standard library itself round-trips *)
  let prog = Stdspec.environment ~flags () in
  let text = Check.Libspec.save prog in
  let env = Check.Libspec.load ~flags ~file:"std.lh" text in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Cfront.Diag.Collector.all env.Sema.diags));
  Alcotest.(check bool) "malloc annotations survive" true
    (let fs = Option.get (Sema.find_func env "malloc") in
     let an = fs.Sema.fs_ret_annots.Sema.an in
     an.Annot.an_null = Some Annot.Null
     && an.Annot.an_def = Some Annot.Out
     && an.Annot.an_alloc = Some Annot.Only)

let test_inferred_provenance_roundtrip () =
  (* the inferred-provenance bit on an annotation set survives
     save/load: a library built from inference output still renders
     its diagnostics as [inferred] hints on the client side *)
  let prog = build_lib () in
  let fs = Option.get (Sema.find_func prog "node_create") in
  Sema.update_funsig prog
    {
      fs with
      Sema.fs_ret_annots =
        {
          fs.Sema.fs_ret_annots with
          Sema.an = Annot.mark_inferred fs.Sema.fs_ret_annots.Sema.an;
        };
    };
  let text = Check.Libspec.save prog in
  let env = Check.Libspec.load ~flags ~file:"node.lh" text in
  let loaded = Option.get (Sema.find_func env "node_create") in
  Alcotest.(check bool) "inferred bit survives" true
    (Annot.is_inferred loaded.Sema.fs_ret_annots.Sema.an);
  Alcotest.(check bool) "annotation value survives" true
    (loaded.Sema.fs_ret_annots.Sema.an.Annot.an_alloc = Some Annot.Only);
  (* an untouched function stays explicit *)
  let other = Option.get (Sema.find_func env "node_value") in
  Alcotest.(check bool) "explicit stays explicit" false
    (Annot.is_inferred other.Sema.fs_ret_annots.Sema.an)

let test_modular_matches_inprocess () =
  (* checking a client against the dumped library reports exactly what
     whole-program (in-process) checking reports for the same client *)
  let client =
    "int main(void) { node *n = node_create(1); node *m = node_create(2); n \
     = m; node_destroy(n); return node_value(n); }"
  in
  let client_codes env =
    List.iter
      (fun ((fs : Sema.funsig), def) ->
        if fs.Sema.fs_loc.Cfront.Loc.file = "client.c" then
          Check.Checker.check_fundef env fs def)
      (Sema.fundefs env);
    List.filter_map
      (fun (d : Cfront.Diag.t) ->
        if d.Cfront.Diag.loc.Cfront.Loc.file = "client.c" then
          Some (d.Cfront.Diag.code, d.Cfront.Diag.loc.Cfront.Loc.line)
        else None)
      (Cfront.Diag.Collector.sort_emission
         (Cfront.Diag.Collector.all env.Sema.diags))
  in
  (* in-process: library source and client in one environment *)
  let whole_codes =
    client_codes
      (Stdspec.load ~flags
         (List.to_seq [ ("node.c", lib_src); ("client.c", client) ]))
  in
  (* modular: dumped library loaded, then the client *)
  let modular_codes = client_codes (load_client client) in
  Alcotest.(check (list (pair string int)))
    "same diagnostics" whole_codes modular_codes;
  Alcotest.(check bool) "found something" true (whole_codes <> [])

let test_tampered_stamp_rejected () =
  let prog = build_lib () in
  let text = Check.Libspec.save prog in
  (* flip a payload byte without touching the stamp line *)
  let mangled = Bytes.of_string text in
  let i = String.length text - 2 in
  Bytes.set mangled i
    (if Bytes.get mangled i = 'x' then 'y' else 'x');
  let rejected kind s =
    match Check.Libspec.load ~flags ~file:"node.lh" s with
    | exception Cfront.Diag.Fatal _ -> true
    | _ -> Alcotest.failf "%s accepted" kind
  in
  Alcotest.(check bool) "tampered payload rejected" true
    (rejected "tampered payload" (Bytes.to_string mangled));
  (* a future format version is rejected rather than misread *)
  let future =
    Check.Libspec.stamp ~kind:Check.Libspec.library_kind
      ~version:(Check.Libspec.library_version + 1)
      "/* header */\n"
  in
  Alcotest.(check bool) "future version rejected" true
    (rejected "future version" future)

let () =
  Alcotest.run "libspec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "save parses" `Quick test_save_parses;
          Alcotest.test_case "annotations survive" `Quick test_roundtrip_annotations;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "stdlib" `Quick test_stdlib_library_clean;
          Alcotest.test_case "inferred provenance" `Quick
            test_inferred_provenance_roundtrip;
          Alcotest.test_case "tampered stamp" `Quick
            test_tampered_stamp_rejected;
        ] );
      ( "modular",
        [
          Alcotest.test_case "clean client" `Quick test_modular_clean_client;
          Alcotest.test_case "buggy client" `Quick test_modular_buggy_client;
          Alcotest.test_case "matches in-process" `Quick
            test_modular_matches_inprocess;
        ] );
    ]
