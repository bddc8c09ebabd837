(* The parallel driver's determinism contract: checking the examples
   corpus with one worker and with four must produce identical JSON
   diagnostics, in the same order, byte for byte (what `olclint -j`
   promises its users). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples =
  [
    "../examples/clean.c";
    "../examples/list.c";
    "../examples/list_plain.c";
    "../examples/sample.c";
  ]

(* a fresh environment per run, so neither run can see what the other
   left behind *)
let analyze_examples ?(flags = Annot.Flags.default) () =
  Stdspec.load ~flags
    (Seq.map (fun file -> (file, read_file file)) (List.to_seq examples))

(* exactly the CLI's -json emission *)
let render prog check_diags =
  let kept, suppressed = Check.finish prog check_diags in
  String.concat "\n"
    (List.map
       (fun (d, suppressed) ->
         Telemetry.Json.to_string (Cfront.Diag.to_json ~suppressed d))
       (List.map (fun d -> (d, false)) kept
       @ List.map (fun d -> (d, true)) suppressed))

(* Bodies that declare things: each sees its own declarations only, at
   every -j.  [mk] is null in [f] alone; [T] outlives its block; [m]'s
   [struct s2] field list stays in [m]. *)
let block_scope_src =
  "char f(void)\n\
   {\n\
  \  extern /*@null@*/ char *mk(void);\n\
  \  char *p = mk();\n\
  \  return *p;\n\
   }\n\
   char g(void)\n\
   {\n\
  \  extern char *mk(void);\n\
  \  char *p = mk();\n\
  \  return *p;\n\
   }\n\
   int h(void)\n\
   {\n\
  \  { typedef char *T; }\n\
  \  T q = 0;\n\
  \  return q == 0;\n\
   }\n\
   int k(void)\n\
   {\n\
  \  struct { int a; } v;\n\
  \  enum { RED, BLUE } c = BLUE;\n\
  \  v.a = 1;\n\
  \  return v.a + (int) c;\n\
   }\n\
   int m(void)\n\
   {\n\
  \  struct s2 { int x; } s;\n\
  \  s.x = 2;\n\
  \  return s.x;\n\
   }\n\
   int n(void)\n\
   {\n\
  \  struct s2 *p = 0;\n\
  \  return p == 0;\n\
   }\n"

let test_seq_vs_parallel () =
  let p1 = analyze_examples () in
  let seq = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p4 = analyze_examples () in
  let par = render p4 (Parcheck.check_program ~jobs:4 p4) in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "sequential vs -j 4 JSON" seq par;
  (* checking only reads the program, so both runs may share one *)
  let prog = Stdspec.load (Seq.return ("b.c", block_scope_src)) in
  let seq = Parcheck.check_program ~jobs:1 prog in
  let par = Parcheck.check_program ~jobs:4 prog in
  Alcotest.(check string) "block-scope declarations, -j 1 vs -j 4"
    (render prog seq) (render prog par);
  Alcotest.(check (list string)) "block-scope declarations, warnings"
    [
      "b.c:5,3: Only storage p not released before scope exit";
      "b.c:5,10: Dereference of possibly null pointer p: *p";
      "b.c:11,3: Only storage p not released before scope exit";
    ]
    (List.map
       (fun d ->
         List.hd (String.split_on_char '\n' (Cfront.Diag.to_string d)))
       (fst (Check.finish prog seq)))

let test_more_jobs_than_tasks () =
  let p1 = analyze_examples () in
  let want = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p64 = analyze_examples () in
  let got = render p64 (Parcheck.check_program ~jobs:64 p64) in
  Alcotest.(check string) "jobs > tasks is clamped and identical" want got

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs is positive" true
    (Parcheck.default_jobs () >= 1)

let test_loopexec_seq_vs_parallel () =
  (* the +loopexec fixpoint must stay deterministic under the parallel
     driver: worker partitioning cannot change convergence, widening, or
     bailout decisions *)
  let flags = { Annot.Flags.default with Annot.Flags.loop_exec = true } in
  let p1 = analyze_examples ~flags () in
  let seq = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p4 = analyze_examples ~flags () in
  let par = render p4 (Parcheck.check_program ~jobs:4 p4) in
  Alcotest.(check string) "+loopexec sequential vs -j 4 JSON" seq par

let test_xproc_seq_vs_parallel () =
  (* +xproc's summary table is computed once, sequentially, before the
     fan-out; every worker must consult the identical finished table, so
     output stays byte-identical at every -j on a corpus whose bugs only
     +xproc can see *)
  let flags = { Annot.Flags.default with Annot.Flags.xproc = true } in
  let gen () =
    Progen.analyse ~flags
      (Progen.generate ~seed:31 ~modules:4 ~fns_per_module:6
         ~bugs:
           [
             Progen.Bxproc_callee_free; Progen.Bxproc_callee_free_df;
             Progen.Bxproc_cond_release; Progen.Bxproc_escape_store;
           ]
         ())
  in
  let run jobs =
    let p = gen () in
    render p (Parcheck.check_program ~jobs p)
  in
  let seq = run 1 in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "+xproc -j 1 vs -j 4" seq (run 4)

let test_xproc_annotated_identity () =
  (* the override contract: on a fully annotated corpus the summaries
     have nothing to add — every call-site slot is covered by an
     explicit annotation, which always wins — so +xproc output is
     byte-identical to plain annotation-driven checking *)
  let gen flags =
    Progen.analyse ~flags
      (Progen.generate ~seed:47 ~modules:5 ~fns_per_module:7 ~annotated:true
         ())
  in
  let run flags =
    let p = gen flags in
    render p (Parcheck.check_program ~jobs:2 p)
  in
  let plain = run Annot.Flags.default in
  let xproc =
    run { Annot.Flags.default with Annot.Flags.xproc = true }
  in
  Alcotest.(check string) "annotated corpus: +xproc adds nothing" plain xproc

let test_progen_corpus_jobs () =
  (* a generated multi-module corpus with seeded bugs: the per-procedure
     work-stealing scheduler must stay byte-identical across -j 1/4/64 *)
  let gen () =
    Progen.analyse
      (Progen.generate ~seed:23 ~modules:6 ~fns_per_module:8
         ~bugs:Progen.all_bug_kinds ())
  in
  let run jobs =
    let p = gen () in
    render p (Parcheck.check_program ~jobs p)
  in
  let seq = run 1 in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "-j 1 vs -j 4" seq (run 4);
  Alcotest.(check string) "-j 1 vs -j 64" seq (run 64)

let test_task_granularity () =
  (* every procedure is its own task, whatever its body declares: far
     more tasks than files *)
  let p =
    Progen.analyse (Progen.generate ~seed:5 ~modules:4 ~fns_per_module:6 ())
  in
  let files =
    List.sort_uniq compare
      (List.map
         (fun ((fs : Sema.funsig), _) -> fs.Sema.fs_loc.Cfront.Loc.file)
         (Sema.fundefs p))
  in
  Alcotest.(check int) "one task per definition"
    (List.length (Sema.fundefs p))
    (Parcheck.task_count p);
  Alcotest.(check bool) "more tasks than files" true
    (Parcheck.task_count p > List.length files)

let test_pool_and_counters () =
  (* warm-pool reuse is observable, and parallel telemetry stays exact:
     every worker's ticks are merged back, none lost, none doubled.
     [oversubscribe] forces real helper domains even on a single-core
     host, where the production driver would clamp to the core count *)
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () ->
      let run () =
        Telemetry.reset ();
        let r =
          Parcheck.map_tasks ~oversubscribe:true ~jobs:4 64 (fun i ->
              Telemetry.Counter.tick Telemetry.c_procedures;
              i * i)
        in
        Alcotest.(check int) "results positional" (63 * 63) r.(63);
        Telemetry.Counter.value Telemetry.c_procedures
      in
      Alcotest.(check int) "exact ticks, cold pool" 64 (run ());
      Alcotest.(check int) "exact ticks, warm pool" 64 (run ());
      (* the second run just reclaimed the three helper domains the
         first one parked *)
      Alcotest.(check bool) "pool reused" true
        (Telemetry.Counter.value Telemetry.c_pool_reuses >= 3))

let test_check_program_counters () =
  (* through the full driver: the same number of procedures is counted
     at every -j (exactness end to end) *)
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () ->
      let procs jobs =
        let p = analyze_examples () in
        Telemetry.reset ();
        ignore (Parcheck.check_program ~jobs p);
        Telemetry.Counter.value Telemetry.c_procedures
      in
      let seq = procs 1 in
      let par = procs 4 in
      Alcotest.(check bool) "procedures counted" true (seq > 0);
      Alcotest.(check int) "exact at -j 4" seq par)

let () =
  Alcotest.run "parcheck"
    [
      ( "determinism",
        [
          Alcotest.test_case "sequential vs -j 4" `Quick test_seq_vs_parallel;
          Alcotest.test_case "jobs > tasks" `Quick test_more_jobs_than_tasks;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "+loopexec sequential vs -j 4" `Quick
            test_loopexec_seq_vs_parallel;
          Alcotest.test_case "progen corpus -j 1/4/64" `Quick
            test_progen_corpus_jobs;
          Alcotest.test_case "+xproc sequential vs -j 4" `Quick
            test_xproc_seq_vs_parallel;
          Alcotest.test_case "+xproc annotated identity" `Quick
            test_xproc_annotated_identity;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "per-procedure granularity" `Quick
            test_task_granularity;
          Alcotest.test_case "warm pool and exact counters" `Quick
            test_pool_and_counters;
          Alcotest.test_case "exact counters end to end" `Quick
            test_check_program_counters;
        ] );
    ]
