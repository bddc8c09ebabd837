(* Program generator tests: determinism, cleanliness, and the
   static-vs-dynamic detection matrix the paper's evaluation rests on. *)

module Flags = Annot.Flags

(* The diagnostic codes of a result, in report order. *)
let codes (r : Check.result) =
  List.map (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code) r.Check.reports

let test_determinism () =
  let a = Progen.generate ~seed:7 ~modules:3 ~fns_per_module:4 () in
  let b = Progen.generate ~seed:7 ~modules:3 ~fns_per_module:4 () in
  Alcotest.(check bool) "same files" true (a.Progen.files = b.Progen.files);
  let c = Progen.generate ~seed:8 ~modules:3 ~fns_per_module:4 () in
  Alcotest.(check bool) "different seed differs" true
    (a.Progen.files <> c.Progen.files)

let test_size_scales () =
  let small = Progen.generate ~modules:2 ~fns_per_module:2 () in
  let big = Progen.generate ~modules:8 ~fns_per_module:12 () in
  Alcotest.(check bool) "more modules, more lines" true
    (big.Progen.loc > 2 * small.Progen.loc)

let test_clean_program_static () =
  let p = Progen.generate ~modules:4 ~fns_per_module:6 () in
  let r = Progen.static_check p in
  Alcotest.(check (list string)) "no reports" [] (codes r)

let test_unannotated_program_messages () =
  (* stripping the annotations surfaces messages (the paper's "running
     LCLint on the code with no annotations produced on the order of a
     thousand messages" effect, at our scale) *)
  let p = Progen.generate ~modules:6 ~fns_per_module:4 ~annotated:false () in
  let flags = Flags.(allimponly_off default) in
  let r = Progen.static_check ~flags p in
  Alcotest.(check bool) "messages appear" true
    (List.length r.Check.reports > List.length p.Progen.files)

(* ------------------------------------------------------------------ *)
(* The detection matrix (paper, Sections 1 and 7)                      *)
(* ------------------------------------------------------------------ *)

let seeded_program ?(coverage = 1.0) () =
  Progen.generate ~modules:8 ~fns_per_module:2 ~bugs:Progen.all_bug_kinds
    ~coverage ()

let static_codes ?flags p =
  codes (Progen.static_check ?flags p)

let test_static_finds_its_classes () =
  let p = seeded_program () in
  let codes = static_codes p in
  (* leak, use-after-free (x2 via double free), null-deref, use-undef *)
  Alcotest.(check bool) "leak" true (List.mem "mustfree" codes);
  Alcotest.(check bool) "use-after-free" true (List.mem "usereleased" codes);
  Alcotest.(check bool) "null-deref" true (List.mem "nullderef" codes);
  Alcotest.(check bool) "use-undef" true (List.mem "usedef" codes)

let test_static_misses_paper_classes () =
  (* footnote 8 + the global-flow limitation *)
  let p = seeded_program () in
  let codes = static_codes p in
  Alcotest.(check bool) "no freeoffset" false (List.mem "freeoffset" codes);
  Alcotest.(check bool) "no freestatic" false (List.mem "freestatic" codes)

let test_extension_flags_recover () =
  let p = seeded_program () in
  let flags = { Flags.default with Flags.free_offset = true; free_static = true } in
  let codes = static_codes ~flags p in
  Alcotest.(check bool) "freeoffset caught" true (List.mem "freeoffset" codes);
  Alcotest.(check bool) "freestatic caught" true (List.mem "freestatic" codes)

let test_dynamic_finds_executed_bugs () =
  let p = seeded_program () in
  let r = Progen.dynamic_check p in
  let kinds =
    List.map (fun (e : Rtcheck.Heap.error) -> e.Rtcheck.Heap.e_kind) r.Rtcheck.errors
  in
  Alcotest.(check bool) "offset free" true
    (List.mem Rtcheck.Heap.Efree_offset kinds);
  Alcotest.(check bool) "static free" true
    (List.mem Rtcheck.Heap.Efree_nonheap kinds);
  Alcotest.(check bool) "double free" true
    (List.mem Rtcheck.Heap.Edouble_free kinds);
  Alcotest.(check bool) "use after free" true
    (List.mem Rtcheck.Heap.Euse_after_free kinds);
  Alcotest.(check bool) "leaks reported" true (r.Rtcheck.leaks <> [])

let test_dynamic_misses_untaken_path () =
  (* the null-deref hides on the malloc-failure path *)
  let p = seeded_program () in
  let r = Progen.dynamic_check p in
  let kinds =
    List.map (fun (e : Rtcheck.Heap.error) -> e.Rtcheck.Heap.e_kind) r.Rtcheck.errors
  in
  Alcotest.(check bool) "null-deref not observed" false
    (List.mem Rtcheck.Heap.Enull_deref kinds)

let test_coverage_monotone () =
  (* "its effectiveness depends entirely on running the right test cases" *)
  let count cov =
    let p = seeded_program ~coverage:cov () in
    let r = Progen.dynamic_check p in
    List.length r.Rtcheck.errors + List.length r.Rtcheck.leaks
  in
  let at0 = count 0.0 and at50 = count 0.5 and at100 = count 1.0 in
  Alcotest.(check bool) "0 < 50" true (at0 < at50);
  Alcotest.(check bool) "50 < 100" true (at50 < at100);
  Alcotest.(check int) "nothing at zero coverage" 0 at0

let test_static_is_coverage_independent () =
  let at cov = List.length (static_codes (seeded_program ~coverage:cov ())) in
  Alcotest.(check int) "same findings at 0% and 100%" (at 1.0) (at 0.0)

let test_seeded_manifest () =
  let p = seeded_program ~coverage:0.5 () in
  Alcotest.(check int) "eight bugs seeded" 8 (List.length p.Progen.seeded);
  let executed = List.filter (fun s -> s.Progen.sb_executed) p.Progen.seeded in
  Alcotest.(check int) "half executed" 4 (List.length executed)

(* property: clean programs of any seed stay clean *)
let prop_clean_static =
  QCheck.Test.make ~count:15 ~name:"any seed yields a statically clean program"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:2 ~fns_per_module:3 () in
      (Progen.static_check p).Check.reports = [])

(* ------------------------------------------------------------------ *)
(* Generator contracts the differential oracle relies on               *)
(* ------------------------------------------------------------------ *)

(* [generate] is a pure function of its parameters: same seed, byte-
   identical files (the fuzzer's reproducibility story rests on this) *)
let prop_seed_deterministic =
  QCheck.Test.make ~count:25 ~name:"generate is byte-identical in seed"
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 6) (int_range 0 8))
    (fun (seed, modules, fns_per_module) ->
      let gen () =
        Progen.generate ~seed ~modules ~fns_per_module
          ~bugs:Progen.all_bug_kinds ~coverage:0.5 ()
      in
      let a = gen () and b = gen () in
      List.for_all2
        (fun (na, ta) (nb, tb) -> String.equal na nb && String.equal ta tb)
        a.Progen.files b.Progen.files
      && a.Progen.seeded = b.Progen.seeded)

(* every manifest entry names a function that really exists in the text
   of its module file *)
let prop_seeded_fn_exists =
  QCheck.Test.make ~count:25 ~name:"every seeded carrier exists in its file"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, modules) ->
      let p =
        Progen.generate ~seed ~modules ~fns_per_module:3
          ~bugs:Progen.all_bug_kinds ()
      in
      List.for_all
        (fun (sb : Progen.seeded) ->
          match List.assoc_opt (Progen.sb_file sb) p.Progen.files with
          | None -> false
          | Some text ->
              (* the definition "void <fn>(" / "int <fn>(" appears *)
              let needle = sb.Progen.sb_fn ^ "(" in
              let len = String.length text and nlen = String.length needle in
              let rec scan i =
                i + nlen <= len
                && (String.sub text i nlen = needle || scan (i + 1))
              in
              scan 0)
        p.Progen.seeded)

(* the driver executes exactly the carriers the manifest promises: none
   at coverage 0.0, all at 1.0 — pinned via the driver text, not just
   the sb_executed bits *)
let driver_calls (p : Progen.program) (sb : Progen.seeded) =
  match List.assoc_opt "driver.c" p.Progen.files with
  | None -> false
  | Some text ->
      let needle = "  " ^ sb.Progen.sb_fn ^ "();" in
      let len = String.length text and nlen = String.length needle in
      let rec scan i =
        i + nlen <= len && (String.sub text i nlen = needle || scan (i + 1))
      in
      scan 0

let prop_coverage_extremes =
  QCheck.Test.make ~count:15 ~name:"coverage 0.0/1.0 drive none/all carriers"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let none =
        Progen.generate ~seed ~modules:8 ~fns_per_module:2
          ~bugs:Progen.all_bug_kinds ~coverage:0.0 ()
      in
      let full =
        Progen.generate ~seed ~modules:8 ~fns_per_module:2
          ~bugs:Progen.all_bug_kinds ~coverage:1.0 ()
      in
      List.for_all
        (fun sb -> (not sb.Progen.sb_executed) && not (driver_calls none sb))
        none.Progen.seeded
      && List.for_all
           (fun sb -> sb.Progen.sb_executed && driver_calls full sb)
           full.Progen.seeded)

(* executed-bit/driver-text agreement at intermediate coverage too *)
let prop_manifest_matches_driver =
  QCheck.Test.make ~count:15 ~name:"sb_executed agrees with the driver text"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 4))
    (fun (seed, quarters) ->
      let coverage = float_of_int quarters /. 4.0 in
      let p =
        Progen.generate ~seed ~modules:8 ~fns_per_module:2
          ~bugs:Progen.all_bug_kinds ~coverage ()
      in
      List.for_all
        (fun sb -> driver_calls p sb = sb.Progen.sb_executed)
        p.Progen.seeded)

let test_of_files_roundtrip () =
  let p = Progen.generate ~modules:3 ~fns_per_module:2 ~bugs:[ Progen.Bleak ] () in
  let q = Progen.of_files ~seeded:p.Progen.seeded p.Progen.files in
  Alcotest.(check bool) "files kept" true (q.Progen.files = p.Progen.files);
  Alcotest.(check int) "loc recomputed" p.Progen.loc q.Progen.loc;
  Alcotest.(check int) "seeded kept" (List.length p.Progen.seeded)
    (List.length q.Progen.seeded);
  (* dropping the carrier's module drops its manifest entry *)
  let reduced =
    List.filter (fun (n, _) -> n <> "m0.c") p.Progen.files
  in
  let r = Progen.of_files ~seeded:p.Progen.seeded reduced in
  Alcotest.(check int) "seeded dropped with its file" 0
    (List.length r.Progen.seeded)

let test_expected_detection_matrix () =
  (* the metadata agrees with what the engines actually do on a fully
     covered seeded program (the probe behind the E4 table) *)
  let flags = Annot.Flags.default in
  let p = seeded_program () in
  let st = Progen.static_check ~flags p in
  let dy = Progen.dynamic_check ~flags p in
  List.iter
    (fun (sb : Progen.seeded) ->
      let file = Progen.sb_file sb in
      let statically_seen =
        List.exists
          (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.loc.Cfront.Loc.file = file)
          st.Check.reports
      in
      Alcotest.(check bool)
        (Printf.sprintf "static on %s" (Progen.bug_kind_string sb.Progen.sb_kind))
        (Progen.expected_static ~flags sb.Progen.sb_kind)
        statically_seen;
      let dynamically_seen =
        match Progen.expected_dynamic ~executed:sb.Progen.sb_executed sb.Progen.sb_kind with
        | `Error ->
            List.exists
              (fun (e : Rtcheck.Heap.error) ->
                e.Rtcheck.Heap.e_loc.Cfront.Loc.file = file)
              dy.Rtcheck.errors
        | `Leak ->
            List.exists
              (fun (l : Rtcheck.Heap.leak) ->
                l.Rtcheck.Heap.lk_block.Rtcheck.Heap.b_alloc_site
                  .Cfront.Loc.file = file)
              dy.Rtcheck.leaks
        | `Nothing ->
            not
              (List.exists
                 (fun (e : Rtcheck.Heap.error) ->
                   e.Rtcheck.Heap.e_loc.Cfront.Loc.file = file)
                 dy.Rtcheck.errors)
      in
      Alcotest.(check bool)
        (Printf.sprintf "dynamic on %s" (Progen.bug_kind_string sb.Progen.sb_kind))
        true dynamically_seen)
    p.Progen.seeded

(* The hostile-allocation kinds (appended after the original eight, so
   the 8-module round-robin above never reaches them): seed exactly
   those four and check their metadata the same way, under both flag
   sets, plus the OOM-only dynamic witness for the realloc-lost bug. *)
let test_hostile_kinds_matrix () =
  let hostile =
    [ Progen.Brealloc_lost; Progen.Boom_leak; Progen.Brefcount_leak;
      Progen.Brefcount_use ]
  in
  let p =
    Progen.generate ~modules:4 ~fns_per_module:2 ~bugs:hostile ~coverage:1.0 ()
  in
  Alcotest.(check int) "all four seeded" 4 (List.length p.Progen.seeded);
  List.iter
    (fun flags ->
      let st = Progen.static_check ~flags p in
      List.iter
        (fun (sb : Progen.seeded) ->
          let file = Progen.sb_file sb in
          let statically_seen =
            List.exists
              (fun (d : Cfront.Diag.t) ->
                d.Cfront.Diag.loc.Cfront.Loc.file = file)
              st.Check.reports
          in
          Alcotest.(check bool)
            (Printf.sprintf "static on %s under %s"
               (Progen.bug_kind_string sb.Progen.sb_kind)
               (Annot.Flags.canonical flags))
            (Progen.expected_static ~flags sb.Progen.sb_kind)
            statically_seen)
        p.Progen.seeded)
    [ Annot.Flags.default;
      { Annot.Flags.default with Annot.Flags.alloc_model = true } ];
  (* ordinary runs: only the refcount borrow misbehaves dynamically *)
  let dy = Progen.dynamic_check p in
  Alcotest.(check int) "no leaks on the ordinary run" 0
    (List.length dy.Rtcheck.leaks);
  let use_file =
    Progen.sb_file
      (List.find
         (fun (sb : Progen.seeded) -> sb.Progen.sb_kind = Progen.Brefcount_use)
         p.Progen.seeded)
  in
  Alcotest.(check bool) "refcount-use error surfaces" true
    (List.exists
       (fun (e : Rtcheck.Heap.error) ->
         e.Rtcheck.Heap.e_loc.Cfront.Loc.file = use_file)
       dy.Rtcheck.errors);
  (* the OOM-carried kinds leak only when an allocation is forced to
     fail: sweep the schedule and demand a leak in the realloc-lost
     module on some injected run *)
  let lost_file =
    Progen.sb_file
      (List.find
         (fun (sb : Progen.seeded) -> sb.Progen.sb_kind = Progen.Brealloc_lost)
         p.Progen.seeded)
  in
  let leak_seen = ref false in
  for site = 1 to dy.Rtcheck.alloc_requests do
    let r = Progen.dynamic_check ~oom_fail:site p in
    if
      List.exists
        (fun (l : Rtcheck.Heap.leak) ->
          l.Rtcheck.Heap.lk_block.Rtcheck.Heap.b_alloc_site.Cfront.Loc.file
          = lost_file)
        r.Rtcheck.leaks
    then leak_seen := true
  done;
  Alcotest.(check bool) "realloc-lost leaks under OOM injection" true
    !leak_seen

let () =
  Alcotest.run "progen"
    [
      ( "generation",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "size scales" `Quick test_size_scales;
          Alcotest.test_case "clean static" `Quick test_clean_program_static;
          Alcotest.test_case "unannotated messages" `Quick test_unannotated_program_messages;
          QCheck_alcotest.to_alcotest prop_clean_static;
        ] );
      ( "oracle-contracts",
        [
          QCheck_alcotest.to_alcotest prop_seed_deterministic;
          QCheck_alcotest.to_alcotest prop_seeded_fn_exists;
          QCheck_alcotest.to_alcotest prop_coverage_extremes;
          QCheck_alcotest.to_alcotest prop_manifest_matches_driver;
          Alcotest.test_case "of_files roundtrip" `Quick test_of_files_roundtrip;
          Alcotest.test_case "expected-detection matrix" `Quick
            test_expected_detection_matrix;
          Alcotest.test_case "hostile kinds matrix" `Quick
            test_hostile_kinds_matrix;
        ] );
      ( "detection-matrix",
        [
          Alcotest.test_case "static finds" `Quick test_static_finds_its_classes;
          Alcotest.test_case "static misses" `Quick test_static_misses_paper_classes;
          Alcotest.test_case "extension flags" `Quick test_extension_flags_recover;
          Alcotest.test_case "dynamic finds" `Quick test_dynamic_finds_executed_bugs;
          Alcotest.test_case "dynamic misses" `Quick test_dynamic_misses_untaken_path;
          Alcotest.test_case "coverage monotone" `Quick test_coverage_monotone;
          Alcotest.test_case "static coverage-independent" `Quick test_static_is_coverage_independent;
          Alcotest.test_case "manifest" `Quick test_seeded_manifest;
        ] );
    ]
