(** The experiment harness: regenerates every evaluation result in the
    paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
    recorded outcomes).

    Usage:
    - [dune exec bench/main.exe]            — all experiment tables
    - [dune exec bench/main.exe -- micro]   — bechamel micro-benchmarks
    - [dune exec bench/main.exe -- fig_sample sec6_employee ...] — a subset
    - [dune exec bench/main.exe -- -seed 7 scale] — fix the Progen seed
    - [dune exec bench/main.exe -- -baseline bench/store_ops_baseline.txt
       scale] — fail (exit 3) if sequential store_ops regresses >10%

    The paper's evaluation (Sections 6–7) reports numbers in prose rather
    than numbered tables; each "experiment" below corresponds to one row of
    DESIGN.md's experiment index. *)

module Flags = Annot.Flags
module E = Corpus.Employee_db

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [-seed N] threads a PRNG seed into every Progen corpus so generated
   programs (and BENCH_*.json derived from them) are reproducible
   run-to-run; [-baseline FILE] makes the [scale] experiment fail when
   the sequential store_ops count regresses >10% over a recorded
   number (the CI gate). *)
let seed_flag = ref 42
let baseline_flag : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* F1-F4: the sample.c figures                                         *)
(* ------------------------------------------------------------------ *)

let fig_sample () =
  section "F1-F4: sample.c (paper Figures 1-4) -- anomaly messages";
  let flags = Flags.(allimponly_off default) in
  let cases =
    [
      ("Figure 1 (no annotations)", Corpus.Figures.fig1_sample, 0);
      ("Figure 2 (null parameter)", Corpus.Figures.fig2_sample_null, 1);
      ("Figure 3 (truenull fix)", Corpus.Figures.fig3_sample_fixed, 0);
      ("Figure 4 (only vs temp)", Corpus.Figures.fig4_sample_only_temp, 2);
    ]
  in
  row "  %-28s %-10s %-10s %s\n" "figure" "paper" "measured" "status";
  let mismatches =
    List.filter
      (fun (name, src, expected) ->
        let r = Stdspec.check ~flags ~file:"sample.c" src in
        let n = List.length r.Check.reports in
        row "  %-28s %-10d %-10d %s\n" name expected n
          (if n = expected then "ok" else "MISMATCH");
        List.iter
          (fun d -> row "      %s\n" (Cfront.Diag.to_string d))
          r.Check.reports;
        n <> expected)
      cases
  in
  (* the CI smoke gate: every figure reports the paper's message count *)
  if mismatches <> [] then begin
    Printf.eprintf "fig_sample: %d figure(s) disagree with the paper\n"
      (List.length mismatches);
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* F5-F6: list_addh                                                    *)
(* ------------------------------------------------------------------ *)

let fig_listaddh () =
  section "F5-F6: list_addh (paper Figures 5-6) -- the two anomalies";
  let flags = Flags.(allimponly_off default) in
  let r = Stdspec.check ~flags ~file:"list.c" Corpus.Figures.fig5_list_addh in
  row "  paper: a kept/only confluence anomaly on e, and an incomplete\n";
  row "  definition reachable from the parameter (argl->next->next).\n";
  row "  measured (%d anomalies):\n" (List.length r.Check.reports);
  List.iter (fun d -> row "    %s\n" (Cfront.Diag.to_string d)) r.Check.reports;
  let r' =
    Stdspec.check ~flags ~file:"list.c" Corpus.Figures.fig5_list_addh_fixed
  in
  row "  repaired version: %d anomalies (expected 0)\n"
    (List.length r'.Check.reports)

(* ------------------------------------------------------------------ *)
(* E1: the Section 6 iteration                                         *)
(* ------------------------------------------------------------------ *)

let sec6_employee () =
  section "E1: Section 6 -- iterative annotation of the employee database";
  row "  (flags: -allimponly, as in the paper)\n\n";
  row "  %-5s %-6s %-5s %-5s %-6s %-6s %-6s  %s\n" "run" "lines" "null" "def"
    "alloc" "alias" "total" "paper says";
  let paper_notes =
    [
      "1 null anomaly (erc_create)";
      "3 null anomalies (requires-clause functions)";
      "null clean; the 7 allocation anomalies";
      "6 anomalies propagated up the call chain";
      "more messages + first driver leaks";
      "remaining driver leaks (6 in total)";
      "1 aliasing anomaly (strcpy)";
      "clean";
    ]
  in
  for stage = 0 to E.max_stage do
    let r = E.check ~flags:E.paper_flags stage in
    let c = E.categorize r in
    row "  %-5d %-6d %-5d %-5d %-6d %-6d %-6d  %s\n" stage (E.line_count stage)
      c.E.c_null c.E.c_def c.E.c_alloc c.E.c_alias c.E.c_total
      (List.nth paper_notes stage)
  done;
  let added = E.annotations_added E.max_stage in
  row "\n  annotations added: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun (w, n) ->
            if n > 0 then Some (Printf.sprintf "%d %s" n w) else None)
          added));
  row "  paper: \"A total of 15 annotations were needed ... one null\n";
  row "  annotation on a structure field, one out annotation on a\n";
  row "  parameter ..., and 13 only annotations.\"\n"

(* ------------------------------------------------------------------ *)
(* E2: scaling (Section 7 performance)                                 *)
(* ------------------------------------------------------------------ *)

let sec7_scaling () =
  section "E2: Section 7 -- checking time vs program size";
  row "  paper: 100k lines in < 4 minutes on a DEC 3000/500 (~417 lines/s);\n";
  row "  a 5000-line module in < 10 seconds using interface libraries.\n";
  row "  The shape to reproduce: near-linear scaling, faster modular checks.\n\n";
  row "  %10s %10s %12s\n" "lines" "time" "lines/sec";
  let rates =
    List.map
      (fun (modules, fns) ->
        let p = Progen.generate ~seed:!seed_flag ~modules ~fns_per_module:fns () in
        let r, dt = time (fun () -> Progen.static_check p) in
        assert (r.Check.reports = []);
        let rate = float_of_int p.Progen.loc /. dt in
        row "  %10d %9.3fs %12.0f\n" p.Progen.loc dt rate;
        (p.Progen.loc, rate))
      [ (2, 4); (8, 10); (16, 25); (32, 40); (64, 60); (128, 80) ]
  in
  (match (rates, List.rev rates) with
  | _ :: _ :: _, (last_loc, last_rate) :: _ ->
      let mid_rate =
        let sorted = List.sort compare (List.map snd rates) in
        List.nth sorted (List.length sorted / 2)
      in
      row "\n  linearity: rate at %d lines is %.0f%% of the median rate\n"
        last_loc
        (100.0 *. last_rate /. mid_rate)
  | _ -> ());
  let p = Progen.generate ~seed:!seed_flag ~modules:64 ~fns_per_module:60 () in
  let prog = Progen.analyse p in
  let lib = Check.Libspec.save prog in
  let _, t_whole = time (fun () -> Progen.static_check p) in
  let flags = Flags.default in
  let _, t_mod =
    time (fun () ->
        let ((name, _) as file) = List.hd p.Progen.files in
        let env =
          Stdspec.load ~flags ~libs:(Seq.return ("lib.lh", lib))
            (Seq.return file)
        in
        List.iter
          (fun ((fs : Sema.funsig), def) ->
            if fs.Sema.fs_loc.Cfront.Loc.file = name then
              Check.Checker.check_fundef env fs def)
          (Sema.fundefs env))
  in
  row "  modular: whole program (%d lines) %.3fs; one module against the\n"
    p.Progen.loc t_whole;
  row "  interface library %.3fs (%.1fx faster)\n" t_mod (t_whole /. t_mod)

(* ------------------------------------------------------------------ *)
(* E3: message counts on unannotated code                              *)
(* ------------------------------------------------------------------ *)

let sec7_messages () =
  section "E3: Section 7 -- messages on unannotated code, then annotated";
  row "  paper: \"Running LCLint on the code with no annotations produced\n";
  row "  on the order of a thousand messages.  Nearly all ... were quickly\n";
  row "  eliminated by adding an annotation\"; 75 suppressions remained.\n\n";
  let flags = Flags.(allimponly_off default) in
  row "  %-10s %-12s %-12s %-12s\n" "modules" "lines" "unannotated" "annotated";
  List.iter
    (fun modules ->
      let bare =
        Progen.generate ~seed:!seed_flag ~modules ~fns_per_module:8 ~annotated:false ()
      in
      let full = Progen.generate ~seed:!seed_flag ~modules ~fns_per_module:8 () in
      let rb = Progen.static_check ~flags bare in
      let rf = Progen.static_check ~flags full in
      row "  %-10d %-12d %-12d %-12d\n" modules bare.Progen.loc
        (List.length rb.Check.reports)
        (List.length rf.Check.reports))
    [ 8; 32; 128 ];
  let src =
    "void f(/*@null@*/ int *p, /*@null@*/ int *q) {\n\
     /*@i@*/ *p = 1;\n\
     /*@ignore@*/\n\
     *q = 2;\n\
     /*@end@*/\n\
     }"
  in
  let r = Stdspec.check ~flags ~file:"s.c" src in
  row "\n  suppression: %d message(s) silenced by stylized comments, %d kept\n"
    (List.length r.Check.suppressed)
    (List.length r.Check.reports)

(* ------------------------------------------------------------------ *)
(* E4: the detection matrix                                            *)
(* ------------------------------------------------------------------ *)

let sec7_missed () =
  section "E4: Section 7 -- what static checking finds and misses";
  row "  paper: testing after static checking revealed frees of offset\n";
  row "  pointers, two frees of static storage, and leaks of storage\n";
  row "  reachable from globals -- all missed statically; run-time tools\n";
  row "  found them.  (Footnote 8: later LCLint versions detect the\n";
  row "  first two; our +freeoffset/+freestatic flags.)\n\n";
  let p =
    Progen.generate ~seed:!seed_flag ~modules:8 ~fns_per_module:2 ~bugs:Progen.all_bug_kinds ()
  in
  let static_r = Progen.static_check p in
  let static_ext =
    Progen.static_check
      ~flags:{ Flags.default with Flags.free_offset = true; free_static = true }
      p
  in
  let dyn = Progen.dynamic_check p in
  let static_sees reports (sb : Progen.seeded) =
    let file = Printf.sprintf "m%d.c" sb.Progen.sb_module in
    List.exists
      (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.loc.Cfront.Loc.file = file)
      reports
  in
  let dyn_sees (sb : Progen.seeded) =
    let file = Printf.sprintf "m%d.c" sb.Progen.sb_module in
    List.exists
      (fun (e : Rtcheck.Heap.error) -> e.Rtcheck.Heap.e_loc.Cfront.Loc.file = file)
      dyn.Rtcheck.errors
    || List.exists
         (fun (l : Rtcheck.Heap.leak) ->
           l.Rtcheck.Heap.lk_block.Rtcheck.Heap.b_alloc_site.Cfront.Loc.file
           = file)
         dyn.Rtcheck.leaks
  in
  row "  %-16s %-8s %-12s %-8s\n" "bug class" "static" "static+ext" "dynamic";
  List.iter
    (fun (sb : Progen.seeded) ->
      row "  %-16s %-8s %-12s %-8s\n"
        (Progen.bug_kind_string sb.Progen.sb_kind)
        (if static_sees static_r.Check.reports sb then "found" else "missed")
        (if static_sees static_ext.Check.reports sb then "found" else "missed")
        (if dyn_sees sb then "found" else "missed"))
    (List.sort compare p.Progen.seeded);
  row "\n  employee database (fully annotated): static clean, but the\n";
  row "  run-time leak check still reports storage reachable from globals:\n";
  let rt = Rtcheck.run (E.load ~flags:E.paper_flags E.max_stage) in
  row "    %d leaks, all reachable from globals: %b\n"
    (List.length rt.Rtcheck.leaks)
    (List.for_all
       (fun (l : Rtcheck.Heap.leak) -> l.Rtcheck.Heap.lk_reachable)
       rt.Rtcheck.leaks)

(* ------------------------------------------------------------------ *)
(* E5: run-time detection vs test coverage                             *)
(* ------------------------------------------------------------------ *)

let rt_coverage () =
  section "E5: run-time detection vs test coverage";
  row "  paper: \"Run-time checking also suffers from the flaw that its\n";
  row "  effectiveness depends entirely on running the right test cases\".\n";
  row "  Static findings do not depend on coverage.\n\n";
  row "  %-10s %-16s %-12s %-14s\n" "coverage" "dynamic errors" "leaks"
    "static reports";
  List.iter
    (fun cov ->
      let p =
        Progen.generate ~seed:!seed_flag ~modules:8 ~fns_per_module:2
          ~bugs:Progen.all_bug_kinds ~coverage:cov ()
      in
      let rt = Progen.dynamic_check p in
      let st = Progen.static_check p in
      row "  %-10.2f %-16d %-12d %-14d\n" cov
        (List.length rt.Rtcheck.errors)
        (List.length rt.Rtcheck.leaks)
        (List.length st.Check.reports))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E6: annotation burden                                               *)
(* ------------------------------------------------------------------ *)

let annot_burden () =
  section "E6: annotation burden -- messages resolved per annotation";
  row "  paper: \"Often, adding a single annotation on a type declaration\n";
  row "  or parameter would eliminate dozens of messages\"; with implicit\n";
  row "  annotations only the 2 parameter annotations are needed.\n\n";
  row "  %-5s %-14s %-10s %s\n" "run" "annotations" "messages"
    "resolved/annotation";
  let prev_total = ref None in
  let prev_annots = ref 0 in
  for stage = 0 to E.max_stage do
    let r = E.check ~flags:E.paper_flags stage in
    let total = List.length r.Check.reports in
    let annots =
      List.fold_left (fun acc (_, n) -> acc + n) 0 (E.annotations_added stage)
    in
    (match !prev_total with
    | Some p when annots > !prev_annots && p > total ->
        row "  %-5d %-14d %-10d %.1f\n" stage annots total
          (float_of_int (p - total) /. float_of_int (annots - !prev_annots))
    | _ -> row "  %-5d %-14d %-10d -\n" stage annots total);
    prev_total := Some total;
    prev_annots := annots
  done;
  let r_implicit = E.check ~flags:Flags.default 0 in
  let driver_leaks =
    List.filter
      (fun (d : Cfront.Diag.t) ->
        d.Cfront.Diag.code = "mustfree"
        && d.Cfront.Diag.loc.Cfront.Loc.file = "drive.c")
      r_implicit.Check.reports
  in
  row "\n  with implicit annotations, run 0 finds the %d driver leaks\n"
    (List.length driver_leaks);
  row "  directly (paper: \"these six errors would have been found\n";
  row "  directly\"; only the parameter only annotations remain needed).\n"

(* ------------------------------------------------------------------ *)
(* E7: ablations of the analysis design choices                        *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "E7: ablations -- what each analysis ingredient buys";
  row "  The design choices DESIGN.md calls out: guard refinement (null\n";
  row "  tests, Section 4) and alias tracking (Section 5, Fig. 6).  Each\n";
  row "  column disables one ingredient; detection should degrade in the\n";
  row "  predicted direction.\n\n";
  let configs =
    [
      ("full", Flags.(allimponly_off default));
      ( "-guards",
        { Flags.(allimponly_off default) with Flags.guard_refinement = false }
      );
      ( "-aliastrack",
        { Flags.(allimponly_off default) with Flags.alias_tracking = false } );
    ]
  in
  let count flags src =
    List.length (Stdspec.check ~flags ~file:"t.c" src).Check.reports
  in
  let seeded =
    Progen.generate ~seed:!seed_flag ~modules:8 ~fns_per_module:2 ~bugs:Progen.all_bug_kinds ()
  in
  row "  %-14s %-12s %-12s %-14s %-14s\n" "config" "fig3 (FPs)" "fig5 (hits)"
    "db stage7 (FPs)" "seeded (hits)";
  List.iter
    (fun (name, flags) ->
      let fig3 = count flags Corpus.Figures.fig3_sample_fixed in
      let fig5 = count flags Corpus.Figures.fig5_list_addh in
      let db =
        List.length (E.check ~flags E.max_stage).Check.reports
      in
      let hits =
        List.length (Progen.static_check ~flags:{ flags with Flags.implicit_only_returns = true; implicit_only_globals = true; implicit_only_fields = true } seeded).Check.reports
      in
      row "  %-14s %-12d %-12d %-14d %-14d\n" name fig3 fig5 db hits)
    configs;
  row "\n  reading: fig3/db-stage7 count false positives (0 for the full\n";
  row "  analysis); fig5/seeded count real anomalies found.\n"

(* ------------------------------------------------------------------ *)
(* E8: telemetry phase breakdown                                       *)
(* ------------------------------------------------------------------ *)

let phases () =
  section "E8: pipeline phase breakdown (telemetry)";
  row "  Where checking time goes, per phase, for the employee database\n";
  row "  and a generated 3k-line program.  Written to BENCH_phases.json.\n\n";
  let flags = E.paper_flags in
  let db = E.stage E.max_stage in
  let gen = Progen.generate ~seed:!seed_flag ~modules:8 ~fns_per_module:10 () in
  (* every text the run parses: the library twice (once for the
     database, once inside Progen.static_check), the database, the
     generated program; counted before telemetry goes on *)
  let expected_tokens =
    List.fold_left
      (fun n text -> n + List.length (Cfront.Lexer.tokenize ~file:"" text))
      0
      ((Stdspec.source :: Stdspec.source
        :: List.map (fun (f : E.file) -> f.E.text) db)
      @ List.map snd gen.Progen.files)
  in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  ignore (Check.Checker.check_program (E.load ~flags E.max_stage));
  ignore (Progen.static_check gen);
  Format.printf "%a" Telemetry.pp_stats ();
  let oc = open_out "BENCH_phases.json" in
  output_string oc (Telemetry.Json.to_string (Telemetry.to_json ()));
  output_string oc "\n";
  close_out oc;
  row "\n  wrote BENCH_phases.json\n";
  (* the CI gate: lexing happens inside the parse, one timed token
     pull at a time, so check that both phases were recorded and that
     the pulls counted every token *)
  let total phase =
    List.fold_left
      (fun acc (r : Telemetry.phase_row) ->
        if String.equal r.ph_phase phase then acc +. r.ph_secs else acc)
      0. (Telemetry.phase_rows ())
  in
  let lex = total Telemetry.phase_lex
  and parse = total Telemetry.phase_parse
  and tokens = Telemetry.Counter.value Telemetry.c_tokens in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  if not (lex > 0. && parse > 0. && tokens = expected_tokens) then begin
    Printf.eprintf
      "phases: lex %.6f s, parse %.6f s, %d tokens counted, %d lexed\n" lex
      parse tokens expected_tokens;
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* E9: annotation inference vs the hand annotations                    *)
(* ------------------------------------------------------------------ *)

(* The declared annotations of the kinds inference can synthesize, per
   interface slot of every defined function.  Implicit [only] (from the
   allimponly convention) is excluded — it was not written by hand. *)
let declared_slots (prog : Sema.program) : (string * string * string) list =
  let words (e : Sema.eannot) =
    let an = e.Sema.an in
    (match an.Annot.an_null with
    | Some Annot.Null -> [ "null" ]
    | Some Annot.NotNull -> [ "notnull" ]
    | _ -> [])
    @ (match an.Annot.an_def with Some Annot.Out -> [ "out" ] | _ -> [])
    @
    match an.Annot.an_alloc with
    | Some Annot.Only when not e.Sema.alloc_implicit -> [ "only" ]
    | _ -> []
  in
  List.concat_map
    (fun ((fs : Sema.funsig), _) ->
      List.map (fun w -> (fs.Sema.fs_name, "ret", w)) (words fs.Sema.fs_ret_annots)
      @ List.concat
          (List.mapi
             (fun i (p : Sema.param) ->
               List.map
                 (fun w -> (fs.Sema.fs_name, Printf.sprintf "p%d" i, w))
                 (words p.Sema.pr_annots))
             fs.Sema.fs_params))
    (Sema.fundefs prog)

let slot_key (s : Infer.slot) =
  match s with
  | Infer.Sret -> "ret"
  | Infer.Sparam i -> Printf.sprintf "p%d" i

let analyze_files ~flags files = Stdspec.load ~flags (List.to_seq files)

let infer_exp () =
  section "E9: annotation inference vs the hand annotations";
  row "  Hand annotations hidden with Infer.strip_annotations, then\n";
  row "  re-derived by the call-graph fixpoint; agreement is measured per\n";
  row "  (function, slot, word) against the declared only/notnull/null/out.\n";
  row "  Precision counts inferred-and-declared over inferred (inference\n";
  row "  may also prove facts nobody wrote down, which score against it);\n";
  row "  recall counts them over declared.  Written to BENCH_infer.json.\n\n";
  let flags = E.paper_flags in
  let sources =
    [
      ("fig2_sample_null", [ ("sample.c", Corpus.Figures.fig2_sample_null) ]);
      ("fig3_sample_fixed", [ ("sample.c", Corpus.Figures.fig3_sample_fixed) ]);
      ( "fig4_sample_only_temp",
        [ ("sample.c", Corpus.Figures.fig4_sample_only_temp) ] );
      ("fig5_list_addh", [ ("list.c", Corpus.Figures.fig5_list_addh) ]);
      ("fig7_erc_create", [ ("erc.c", Corpus.Figures.fig7_erc_create) ]);
      ( "fig8_employee_setname",
        [ ("employee.c", Corpus.Figures.fig8_employee_setname) ] );
      ( "employee_db",
        List.map (fun (f : E.file) -> (f.E.name, f.E.text)) (E.stage E.max_stage)
      );
    ]
  in
  row "  %-24s %9s %9s %9s %10s %7s\n" "source" "declared" "inferred"
    "matched" "precision" "recall";
  let totals = ref (0, 0, 0) in
  let records =
    List.map
      (fun (name, files) ->
        let declared = declared_slots (analyze_files ~flags files) in
        let stripped =
          List.map (fun (n, t) -> (n, Infer.strip_annotations t)) files
        in
        let prog = analyze_files ~flags stripped in
        let outcome = Infer.run prog in
        let inferred =
          List.map
            (fun (fd : Infer.finding) ->
              (fd.Infer.fd_fun, slot_key fd.Infer.fd_slot, fd.Infer.fd_word))
            outcome.Infer.out_findings
        in
        let matched = List.filter (fun k -> List.mem k declared) inferred in
        let nd = List.length declared
        and ni = List.length inferred
        and nm = List.length matched in
        let ratio num den = if den = 0 then 1.0 else float num /. float den in
        let td, ti, tm = !totals in
        totals := (td + nd, ti + ni, tm + nm);
        row "  %-24s %9d %9d %9d %10.2f %7.2f\n" name nd ni nm (ratio nm ni)
          (ratio nm nd);
        let triple (f, s, w) =
          Telemetry.Json.(
            Obj [ ("fun", String f); ("slot", String s); ("word", String w) ])
        in
        Telemetry.Json.(
          Obj
            [
              ("source", String name);
              ("declared", List (Stdlib.List.map triple declared));
              ("inferred", List (Stdlib.List.map triple inferred));
              ("matched", Int nm);
              ("precision", Float (ratio nm ni));
              ("recall", Float (ratio nm nd));
              ("rounds", Int outcome.Infer.out_rounds);
              ("sccs", Int outcome.Infer.out_sccs);
              ("procedures", Int outcome.Infer.out_procedures);
            ]))
      sources
  in
  let td, ti, tm = !totals in
  let ratio num den = if den = 0 then 1.0 else float num /. float den in
  row "  %-24s %9d %9d %9d %10.2f %7.2f\n" "overall" td ti tm (ratio tm ti)
    (ratio tm td);
  (* E16: fleet-scale guided inference on stripped generated corpora.
     Rich corpora declare the properties the bodies already prove
     (notnull on unconditionally-dereferenced parameters, never-null
     allocating returns), giving inference a fuller ground truth than
     the hand-annotated figures above.  Both arms re-derive the stripped
     annotations bottom-up; the guided arm ranks candidates by the
     name/shape heuristics and stops probing a function after two
     rejected probes per pass ([-infer-budget 2]). *)
  section "E16: fleet-scale ranker-guided inference (stripped corpora)";
  row "  Stripped rich Progen corpora, re-inferred two ways: exhaustive\n";
  row "  (grid ranker, the legacy probe order) vs guided (name/shape\n";
  row "  rankers, probe budget 2).  Gate, on the large corpus: guided\n";
  row "  recall >= exhaustive with >= 2x fewer probes, precision >= 0.95,\n";
  row "  and a byte-identical inferred annotation set whether the corpus\n";
  row "  is re-checked at -j 1 or -j 4.  Gate, across corpora: the words\n";
  row "  the exhaustive arm allocates per probe on the large corpus are at\n";
  row "  most 1.5x those on the small one (a probe costs O(procedure)).\n\n";
  let gflags = Flags.default in
  let corpora = [ ("progen_10k", 24, false); ("progen_100k", 240, true) ] in
  let failures = ref [] in
  (* exhaustive arm: minor words allocated by [Infer.run] per probe, per
     corpus, small first.  Inference runs on this domain only, so the
     count repeats exactly from run to run. *)
  let words_per_probe = ref [] in
  let fleet_records =
    List.map
      (fun (cname, modules, gated) ->
        let p =
          Progen.generate ~seed:!seed_flag ~modules ~fns_per_module:25
            ~annotated:true ~rich:true ()
        in
        let declared = declared_slots (analyze_files ~flags:gflags p.Progen.files) in
        let stripped =
          List.map
            (fun (n, t) -> (n, Infer.strip_annotations t))
            p.Progen.files
        in
        (* One inference arm: analyse the stripped corpus fresh, infer,
           then re-check the annotated result through Parcheck. *)
        let arm ?rankers ?budget ~jobs () =
          let prog = analyze_files ~flags:gflags stripped in
          let words0 = Gc.minor_words () in
          let outcome, secs =
            time (fun () -> Infer.run ?rankers ?budget prog)
          in
          let words = Gc.minor_words () -. words0 in
          let diags =
            List.map Cfront.Diag.to_string
              (Cfront.Diag.Collector.sort_emission
                 (Parcheck.check_program ~jobs prog))
          in
          (prog, outcome, secs, words, diags)
        in
        let metrics (outcome : Infer.outcome) =
          let inferred =
            List.map
              (fun (fd : Infer.finding) ->
                (fd.Infer.fd_fun, slot_key fd.Infer.fd_slot, fd.Infer.fd_word))
              outcome.Infer.out_findings
          in
          let matched = List.filter (fun k -> List.mem k declared) inferred in
          (List.length inferred, List.length matched)
        in
        let _, out_e, secs_e, words_e, _ =
          arm ~rankers:[ Infer.Ranker.grid ] ~jobs:1 ()
        in
        let prog_g, out_g, secs_g, _, diags_g1 = arm ~budget:2 ~jobs:1 () in
        let prog_g4, out_g4, _, _, diags_g4 = arm ~budget:2 ~jobs:4 () in
        let render_g1 = Infer.render prog_g out_g
        and render_g4 = Infer.render prog_g4 out_g4 in
        let deterministic =
          String.equal render_g1 render_g4 && diags_g1 = diags_g4
        in
        let nd = List.length declared in
        let ni_e, nm_e = metrics out_e and ni_g, nm_g = metrics out_g in
        let prec_e = ratio nm_e ni_e
        and rec_e = ratio nm_e nd
        and prec_g = ratio nm_g ni_g
        and rec_g = ratio nm_g nd in
        let probes_e = out_e.Infer.out_probes
        and probes_g = out_g.Infer.out_probes in
        let probe_ratio = ratio probes_e probes_g in
        let wpp_e = words_e /. float (max 1 probes_e) in
        words_per_probe := wpp_e :: !words_per_probe;
        row "  %s: %d modules, %d lines, %d declared annotations\n" cname
          modules p.Progen.loc nd;
        row "    %-12s %9s %9s %10s %7s %8s %8s\n" "arm" "inferred" "matched"
          "precision" "recall" "probes" "seconds";
        row "    %-12s %9d %9d %10.2f %7.2f %8d %8.2f\n" "exhaustive" ni_e
          nm_e prec_e rec_e probes_e secs_e;
        row "    %-12s %9d %9d %10.2f %7.2f %8d %8.2f\n" "guided" ni_g nm_g
          prec_g rec_g probes_g secs_g;
        row "    probe ratio %.1fx, %d skipped by budget, -j 1 / -j 4 %s\n"
          probe_ratio out_g.Infer.out_skipped
          (if deterministic then "identical" else "DIVERGED");
        row "    exhaustive arm: %.0f words allocated per probe\n\n" wpp_e;
        if gated then begin
          let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
          if rec_g < rec_e then
            fail "%s: guided recall %.3f below exhaustive %.3f" cname rec_g
              rec_e;
          if probes_e < 2 * probes_g then
            fail "%s: probe ratio %.2fx below the 2x floor (%d vs %d)" cname
              probe_ratio probes_e probes_g;
          if prec_g < 0.95 then
            fail "%s: guided precision %.3f below 0.95" cname prec_g;
          if not deterministic then
            fail "%s: inferred sets differ between -j 1 and -j 4" cname
        end;
        let arm_json ni nm prec rc probes secs skipped =
          Telemetry.Json.(
            Obj
              [
                ("inferred", Int ni);
                ("matched", Int nm);
                ("precision", Float prec);
                ("recall", Float rc);
                ("probes", Int probes);
                ("skipped", Int skipped);
                ("seconds", Float secs);
              ])
        in
        Telemetry.Json.(
          Obj
            [
              ("corpus", String cname);
              ("modules", Int modules);
              ("loc", Int p.Progen.loc);
              ("declared", Int nd);
              ( "exhaustive",
                arm_json ni_e nm_e prec_e rec_e probes_e secs_e
                  out_e.Infer.out_skipped );
              ( "guided",
                arm_json ni_g nm_g prec_g rec_g probes_g secs_g
                  out_g.Infer.out_skipped );
              ("probe_ratio", Float probe_ratio);
              ("exhaustive_words_per_probe", Float wpp_e);
              ("deterministic", Bool deterministic);
              ("gated", Bool gated);
            ]))
      corpora
  in
  let probe_words_growth =
    match !words_per_probe with
    | [ large; small ] -> large /. small
    | _ -> assert false
  in
  row "  words per probe, large / small corpus: %.2fx (gate: <= 1.5x)\n"
    probe_words_growth;
  if probe_words_growth > 1.5 then
    failures :=
      Printf.sprintf
        "probe cost grows with program size: %.2fx the small corpus's \
         words per probe (bound 1.5x)"
        probe_words_growth
      :: !failures;
  let doc =
    Telemetry.Json.(
      Obj
        [
          ("experiment", String "infer");
          ("sources", List records);
          ("fleet", List fleet_records);
          ("probe_words_growth", Float probe_words_growth);
          ( "overall",
            Obj
              [
                ("declared", Int td);
                ("inferred", Int ti);
                ("matched", Int tm);
                ("precision", Float (ratio tm ti));
                ("recall", Float (ratio tm td));
              ] );
        ])
  in
  let oc = open_out "BENCH_infer.json" in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "\n  wrote BENCH_infer.json\n";
  if !failures <> [] then begin
    List.iter (fun m -> row "  GATE FAILED: %s\n" m) (List.rev !failures);
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let db_files = E.stage E.max_stage in
  let db_text = String.concat "\n" (List.map (fun (f : E.file) -> f.E.text) db_files) in
  let gen = Progen.generate ~seed:!seed_flag ~modules:8 ~fns_per_module:10 () in
  let tests =
    [
      Test.make ~name:"lexer: employee db"
        (Staged.stage (fun () ->
             ignore (Cfront.Lexer.tokenize ~file:"db.c" db_text)));
      Test.make ~name:"parser: employee db"
        (Staged.stage (fun () ->
             ignore
               (Cfront.Parser.parse_string ~typedefs:[ "size_t"; "FILE" ]
                  ~file:"db.c" db_text)));
      Test.make ~name:"check: fig5 list_addh"
        (Staged.stage (fun () ->
             ignore
               (Stdspec.check
                  ~flags:Flags.(allimponly_off default)
                  ~file:"list.c" Corpus.Figures.fig5_list_addh)));
      Test.make ~name:"check: employee db stage 7"
        (Staged.stage (fun () ->
             ignore (E.check ~flags:E.paper_flags E.max_stage)));
      Test.make ~name:"check: generated 3k lines"
        (Staged.stage (fun () -> ignore (Progen.static_check gen)));
      Test.make ~name:"interp: employee db"
        (Staged.stage (fun () ->
             ignore (Rtcheck.run (E.load ~flags:E.paper_flags E.max_stage))));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              let ms = est /. 1e6 in
              if ms >= 1.0 then row "  %-32s %10.3f ms/run\n" name ms
              else row "  %-32s %10.1f us/run\n" name (est /. 1e3)
          | _ -> row "  %-32s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* E10: multicore checking (parcheck scaling)                          *)
(* ------------------------------------------------------------------ *)

let read_baseline path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match int_of_string_opt (String.trim (input_line ic)) with
      | Some n -> n
      | None ->
          Printf.eprintf "scale: %s does not contain an integer baseline\n"
            path;
          exit 2)

(* timed repetitions per configuration; the reported figure is the
   minimum (the standard timeit discipline for sub-second measurements) *)
let scale_reps = 9

let scale () =
  section "E10: multicore checking -- generated corpora at -j 1/2/4/8";
  row "  Fixed-seed corpora (seed %d) of 10/50/200/9300 functions,\n"
    !seed_flag;
  row "  analysed once each and checked through the Parcheck\n";
  row "  work-stealing domain pool (one task per procedure).  Each\n";
  row "  configuration does one warm-up run (parks the pool domains)\n";
  row "  and then reports the minimum of %d timed\n" scale_reps;
  row "  runs.  Diagnostics must be identical at every job count;\n";
  row "  wall-clock, store_ops, task/steal counts and speedup are\n";
  row "  written to BENCH_scale.json.\n";
  row "  (this machine reports %d available core%s; speedup above 1x needs\n"
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  row "  more than one)\n\n";
  let sizes = [ (2, 5); (10, 5); (20, 10); (150, 62) ] in
  let jobs_list = [ 1; 2; 4; 8 ] in
  row "  %9s %5s %10s %12s %10s %6s %7s %9s\n" "functions" "jobs" "time"
    "store_ops" "elided" "tasks" "steals" "speedup";
  let records = ref [] in
  (* sequential store_ops on the largest corpus: the CI regression gate *)
  let seq_store_ops = ref 0 in
  (* sequential wall-clock total over every corpus *)
  let seq_total = ref 0.0 in
  List.iter
    (fun (modules, fns) ->
      let functions = modules * fns in
      let p =
        Progen.generate ~seed:!seed_flag ~modules ~fns_per_module:fns ()
      in
      let t1 = ref 0.0 in
      let reference = ref None in
      let check_identity ~what rendered =
        match !reference with
        | None -> reference := Some rendered
        | Some r ->
            if r <> rendered then (
              Printf.eprintf
                "scale: %s diagnostics differ from -j 1 on the %d-function \
                 corpus\n"
                what functions;
              exit 3)
      in
      (* one analysed program shared by every configuration:
         [check_program] never mutates it (each body writes only its
         own {!Sema.for_check} overlay).  Sharing one
         heap image means every configuration traverses identical
         memory, so the timings differ only by job count, not by
         allocation order or heap size. *)
      let prog = Progen.analyse p in
      (* one warm-up pass per configuration (parks the pool domains);
         counters are read from it so they describe exactly one full
         check *)
      let measured =
        List.map
          (fun jobs ->
            Telemetry.reset ();
            Telemetry.set_enabled true;
            let diags = Parcheck.check_program ~jobs prog in
            let ops = Telemetry.Counter.value Telemetry.c_store_ops in
            let elided =
              Telemetry.Counter.value Telemetry.c_store_ops_elided
            in
            let steals = Telemetry.Counter.value Telemetry.c_tasks_stolen in
            Telemetry.set_enabled false;
            Telemetry.reset ();
            let rendered =
              List.map Cfront.Diag.to_string
                (Cfront.Diag.Collector.sort_emission diags)
            in
            check_identity ~what:(Printf.sprintf "-j %d" jobs) rendered;
            (jobs, ops, elided, steals, rendered, ref infinity))
          jobs_list
      in
      (* minimum over interleaved timed rounds (timeit-style):
         steady-state cost, not domain-spawn noise.  The starting
         configuration rotates each round so no configuration is
         systematically measured first (or right after) any other.
         Compacting once after warm-up packs the live data (the
         analysed program) contiguously so no configuration pays for
         the warm-up phase's allocation layout *)
      Gc.compact ();
      let marr = Array.of_list measured in
      let nconf = Array.length marr in
      for r = 0 to scale_reps - 1 do
        for i = 0 to nconf - 1 do
          let jobs, _, _, _, _, dt = marr.((i + r) mod nconf) in
          (* every sample starts from the same GC state: without this,
             whichever configuration inherits the previous one's major
             heap debt pays its collection slice *)
          Gc.full_major ();
          let _, d = time (fun () -> Parcheck.check_program ~jobs prog) in
          if d < !dt then dt := d
        done
      done;
      List.iter
        (fun (jobs, ops, elided, steals, rendered, dt) ->
          let dt = !dt in
          let tasks = Parcheck.task_count prog in
          if jobs = 1 then (
            t1 := dt;
            seq_store_ops := ops;
            seq_total := !seq_total +. dt);
          let speedup = if dt > 0.0 then !t1 /. dt else 1.0 in
          row "  %9d %5d %9.3fs %12d %10d %6d %7d %8.2fx\n" functions jobs dt
            ops elided tasks steals speedup;
          records :=
            Telemetry.Json.(
              Obj
                [
                  ("functions", Int functions);
                  ("jobs", Int jobs);
                  ("seconds", Float dt);
                  ("store_ops", Int ops);
                  ("store_ops_elided", Int elided);
                  ("tasks", Int tasks);
                  ("steals", Int steals);
                  ("diagnostics", Int (List.length rendered));
                  ("speedup_vs_j1", Float speedup);
                ])
            :: !records)
        measured)
    sizes;
  let doc =
    Telemetry.Json.(
      Obj
        [
          ("experiment", String "scale");
          ("seed", Int !seed_flag);
          ("cores", Int (Domain.recommended_domain_count ()));
          ("sequential_store_ops", Int !seq_store_ops);
          ("sequential_seconds", Float !seq_total);
          ("rows", List (List.rev !records));
        ])
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "\n  wrote BENCH_scale.json\n";
  row "  sequential total: %.3fs\n" !seq_total;
  match !baseline_flag with
  | None -> ()
  | Some path ->
      let baseline = read_baseline path in
      (* >10% more sequential store operations than the recorded number
         means the hot path got slower; fail so CI catches it *)
      if !seq_store_ops * 10 > baseline * 11 then (
        Printf.eprintf
          "scale: sequential store_ops %d regressed >10%% over baseline %d \
           (%s)\n"
          !seq_store_ops baseline path;
        exit 3)
      else
        row "  store_ops %d within 10%% of baseline %d (%s)\n" !seq_store_ops
          baseline path

(* ------------------------------------------------------------------ *)
(* E11: the differential soundness oracle                              *)
(* ------------------------------------------------------------------ *)

let difftest_exp () =
  section "E11: differential soundness oracle -- static vs run-time";
  row "  Fixed-seed fuzz sweep (seeds %d..%d): generate a program, run\n"
    !seed_flag (!seed_flag + 47);
  row "  the static checker and the interpreter, classify every\n";
  row "  divergence.  The soundness claim under test: every run-time\n";
  row "  error has a static witness unless its class is a declared blind\n";
  row "  spot (footnote 8 / Section 7).  Written to BENCH_difftest.json.\n\n";
  let trials = List.init 48 (fun i -> Difftest.trial_of_seed (!seed_flag + i)) in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let jobs = min 4 (Parcheck.default_jobs ()) in
  let outs, dt = time (fun () -> Difftest.sweep ~jobs trials) in
  let n_trials = Telemetry.Counter.value Telemetry.c_difftest_trials in
  let n_findings = Telemetry.Counter.value Telemetry.c_difftest_findings in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let all_findings =
    List.concat_map
      (fun (o : Difftest.outcome) ->
        List.map
          (fun f -> (o.Difftest.o_trial.Difftest.t_seed, f))
          o.Difftest.o_verdict.Difftest.v_findings)
      outs
  in
  let count kind cls =
    List.length
      (List.filter
         (fun (_, (f : Difftest.finding)) ->
           f.Difftest.f_kind = kind && f.Difftest.f_class = cls)
         all_findings)
  in
  let classes =
    List.sort_uniq compare
      (List.map (fun (_, (f : Difftest.finding)) -> f.Difftest.f_class)
         all_findings)
  in
  row "  %-16s %6s %12s %10s %8s\n" "error class" "gaps" "blind-spots"
    "precision" "harness";
  let class_rows =
    List.map
      (fun cls ->
        let g = count Difftest.Soundness_gap cls
        and b = count Difftest.Blind_spot cls
        and p = count Difftest.Precision_regression cls
        and h = count Difftest.Harness_bug cls in
        row "  %-16s %6d %12d %10d %8d\n" cls g b p h;
        Telemetry.Json.(
          Obj
            [
              ("class", String cls);
              ("soundness_gaps", Int g);
              ("blind_spots", Int b);
              ("precision_regressions", Int p);
              ("harness_bugs", Int h);
            ]))
      classes
  in
  let total kind =
    List.length
      (List.filter
         (fun (_, (f : Difftest.finding)) -> f.Difftest.f_kind = kind)
         all_findings)
  in
  let gaps = Difftest.gaps outs in
  row "\n  %d trials in %.1fs (-j %d): %d divergences, %d excused as\n"
    n_trials dt jobs n_findings (total Difftest.Blind_spot);
  row "  declared blind spots, %d soundness gaps, %d precision\n"
    (total Difftest.Soundness_gap)
    (total Difftest.Precision_regression);
  row "  regressions, %d harness bugs\n" (total Difftest.Harness_bug);
  let finding_json (seed, (f : Difftest.finding)) =
    Telemetry.Json.(
      Obj
        [
          ("seed", Int seed);
          ("kind", String (Difftest.kind_string f.Difftest.f_kind));
          ("class", String f.Difftest.f_class);
          ("file", String f.Difftest.f_file);
          ("detail", String f.Difftest.f_detail);
        ])
  in
  let doc =
    Telemetry.Json.(
      Obj
        [
          ("experiment", String "difftest");
          ("seed", Int !seed_flag);
          ("trials", Int n_trials);
          ("jobs", Int jobs);
          ("seconds", Float dt);
          ( "totals",
            Obj
              [
                ("soundness_gaps", Int (total Difftest.Soundness_gap));
                ("blind_spots", Int (total Difftest.Blind_spot));
                ( "precision_regressions",
                  Int (total Difftest.Precision_regression) );
                ("harness_bugs", Int (total Difftest.Harness_bug));
              ] );
          ("per_class", List class_rows);
          ("findings", List (List.map finding_json all_findings));
        ])
  in
  let oc = open_out "BENCH_difftest.json" in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "\n  wrote BENCH_difftest.json\n";
  (* the CI gate: any non-blind-spot divergence fails the sweep *)
  if gaps <> [] then begin
    List.iter
      (fun (f : Difftest.finding) ->
        Printf.eprintf "difftest: %s\n" (Fmt.str "%a" Difftest.pp_finding f))
      gaps;
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* E12 and E17: feature sweeps (+loopexec, +xproc)                     *)
(* ------------------------------------------------------------------ *)

(* A feature sweep runs 48 fixed-seed difftest trials twice: under the
   default flags and with one feature on.  Every seeded bug of a trial
   is one of [kinds]; every fourth trial is clean (probing the feature
   for precision regressions), and driver coverage is full so the
   carriers always execute.  Under the default flags the bugs classify
   as excused blind spots of the classes named [stem-*]; the feature
   must witness them all statically. *)
type sweep = {
  name : string;  (** the experiment; it writes BENCH_<name>.json *)
  title : string;
  intro : string list;  (** the lines explaining the sweep *)
  arm : string;  (** the feature's arm in the JSON document *)
  flags : Annot.Flags.t;  (** the flags of that arm *)
  kinds : Progen.bug_kind array;
  stem : string;  (** the finding classes the feature removes: stem-* *)
  what : string;  (** those findings, as the table names them *)
  counters : (string * Telemetry.Counter.t) list;
      (** the feature's telemetry, reported per arm *)
}

let sweep_trial kinds seed =
  let n = Array.length kinds in
  let bugs =
    if seed mod 4 = 0 then []
    else List.sort_uniq compare [ kinds.(seed mod n); kinds.(seed / n mod n) ]
  in
  {
    Difftest.t_seed = seed;
    t_modules = 2 + (seed mod 3);
    t_fns = 2 + (seed mod 2);
    t_bugs = bugs;
    t_coverage = 1.0;
    t_max_steps = 200_000;
  }

let run_sweep sw =
  section sw.title;
  row "  Fixed-seed sweep, seeds %d..%d.\n" !seed_flag (!seed_flag + 47);
  List.iter (fun l -> row "  %s\n" l) sw.intro;
  row "  Written to BENCH_%s.json.\n\n" sw.name;
  let trials = List.init 48 (fun i -> sweep_trial sw.kinds (!seed_flag + i)) in
  let jobs = min 4 (Parcheck.default_jobs ()) in
  let prefix = sw.stem ^ "-" in
  let findings outs =
    List.concat_map
      (fun (o : Difftest.outcome) ->
        List.filter
          (fun (f : Difftest.finding) ->
            String.starts_with ~prefix f.Difftest.f_class)
          o.Difftest.o_verdict.Difftest.v_findings)
      outs
  in
  (* one arm: its outcomes, seconds, counter values and findings *)
  let run flags =
    Telemetry.reset ();
    Telemetry.set_enabled true;
    let outs, dt = time (fun () -> Difftest.sweep ~jobs ~flags trials) in
    let counts =
      List.map (fun (_, c) -> Telemetry.Counter.value c) sw.counters
    in
    Telemetry.set_enabled false;
    Telemetry.reset ();
    (outs, dt, counts, findings outs)
  in
  let outs_d, dt_d, counts_d, found_d = run Annot.Flags.default in
  let outs_f, dt_f, counts_f, found_f = run sw.flags in
  let eliminated = List.length found_d - List.length found_f in
  let static_reports outs =
    List.fold_left
      (fun acc (o : Difftest.outcome) ->
        acc + o.Difftest.o_verdict.Difftest.v_static_reports)
      0 outs
  in
  let gaps_d = Difftest.gaps outs_d and gaps_f = Difftest.gaps outs_f in
  let flag = "+" ^ sw.arm in
  row "  %-24s %10s %10s\n" (sw.what ^ " class") "default" flag;
  let class_rows =
    List.sort_uniq compare
      (List.map (fun (f : Difftest.finding) -> f.Difftest.f_class)
         (found_d @ found_f))
    |> List.map (fun cls ->
           let n found =
             List.length
               (List.filter
                  (fun (f : Difftest.finding) -> f.Difftest.f_class = cls)
                  found)
           in
           let d = n found_d and x = n found_f in
           row "  %-24s %10d %10d\n" cls d x;
           Telemetry.Json.(
             Obj
               [
                 ("class", String cls);
                 ("default_divergences", Int d);
                 (sw.arm ^ "_divergences", Int x);
               ]))
  in
  row "\n  %-24s %10s %10s\n" "counter" "default" flag;
  List.iter2
    (fun (key, _) (d, x) -> row "  %-24s %10d %10d\n" key d x)
    sw.counters
    (List.combine counts_d counts_f);
  row "  (the default arm's counters are 0 by construction)\n\n";
  row "  default: %d %s divergences excused, %d static reports, %.1fs\n"
    (List.length found_d) sw.what (static_reports outs_d) dt_d;
  row "  %s: %d %s divergences remain, %d static reports, %.1fs\n" flag
    (List.length found_f) sw.what (static_reports outs_f) dt_f;
  row "  %d %s divergences eliminated by %s\n" eliminated sw.what flag;
  let arm_doc outs dt counts found gaps =
    Telemetry.Json.(
      Obj
        ([
           ("seconds", Float dt);
           ("static_reports", Int (static_reports outs));
           (sw.stem ^ "_divergences", Int (List.length found));
           ("gaps", Int (List.length gaps));
         ]
        @ List.map2 (fun (key, _) v -> (key, Int v)) sw.counters counts))
  in
  let doc =
    Telemetry.Json.(
      Obj
        [
          ("experiment", String sw.name);
          ("seed", Int !seed_flag);
          ("trials", Int (List.length trials));
          ("jobs", Int jobs);
          ("default", arm_doc outs_d dt_d counts_d found_d gaps_d);
          (sw.arm, arm_doc outs_f dt_f counts_f found_f gaps_f);
          ("eliminated", Int eliminated);
          ("per_class", List class_rows);
        ])
  in
  let file = Printf.sprintf "BENCH_%s.json" sw.name in
  let oc = open_out file in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "\n  wrote %s\n" file;
  (* the CI gate: the feature must eliminate at least 3 divergences of
     its classes, leave none behind, and introduce no gap or precision
     regression anywhere (the clean trials included) *)
  let fail fmt = Printf.eprintf fmt in
  let bad = ref false in
  if eliminated < 3 then begin
    fail "%s: only %d %s divergences eliminated (want >= 3)\n" sw.name
      eliminated sw.what;
    bad := true
  end;
  if found_f <> [] then begin
    fail "%s: %d %s divergences survive %s\n" sw.name (List.length found_f)
      sw.what flag;
    bad := true
  end;
  List.iter
    (fun (side, findings) ->
      List.iter
        (fun (f : Difftest.finding) ->
          fail "%s (%s): %s\n" sw.name side (Fmt.str "%a" Difftest.pp_finding f);
          bad := true)
        findings)
    [ (flag, found_f @ gaps_f); ("default", gaps_d) ];
  if !bad then exit 3

(* E12: every seeded bug needs a back edge to manifest *)
let loops_exp () =
  run_sweep
    {
      name = "loops";
      title = "E12: loop fixpoint mode -- default heuristic vs +loopexec";
      intro =
        [
          "Every seeded bug needs a back edge to manifest.  Under the";
          "default heuristic they classify as excused loop-* blind spots;";
          "under +loopexec the fixpoint must witness them statically -- no";
          "remaining loop-* divergences, no new gaps, no precision loss on";
          "the clean trials.";
        ];
      arm = "loopexec";
      flags = { Annot.Flags.default with Annot.Flags.loop_exec = true };
      kinds =
        [|
          Progen.Bloop_leak; Progen.Bloop_use_after_free;
          Progen.Bloop_null_deref;
        |];
      stem = "loop";
      what = "loop-carried";
      counters =
        Telemetry.
          [
            ("loop_fixpoint_iters", c_loop_fixpoint_iters);
            ("loop_widenings", c_loop_widenings);
            ("loop_bailouts", c_loop_bailouts);
          ];
    }

(* E17: every seeded bug hides its release or escape in a locally
   unannotated helper; the carriers cycle through all four xproc kinds *)
let xproc_exp () =
  run_sweep
    {
      name = "xproc";
      title = "E17: interprocedural effect summaries -- default vs +xproc";
      intro =
        [
          "Every seeded bug buries its release or escape in a locally";
          "unannotated helper.  Under the default call-site transfer they";
          "classify as excused xproc-* blind spots; under +xproc the";
          "bottom-up effect summaries must witness them statically -- no";
          "remaining xproc-* divergences, no new gaps, no precision loss";
          "on the clean trials.";
        ];
      arm = "xproc";
      flags = { Annot.Flags.default with Annot.Flags.xproc = true };
      kinds =
        [|
          Progen.Bxproc_callee_free; Progen.Bxproc_callee_free_df;
          Progen.Bxproc_cond_release; Progen.Bxproc_escape_store;
        |];
      stem = "xproc";
      what = "cross-function";
      counters =
        Telemetry.
          [
            ("summary_funcs", c_summary_funcs);
            ("summary_rounds", c_summary_rounds);
            ("summary_top", c_summary_top);
            ("summary_consults", c_summary_consults);
            ("summary_clashes", c_summary_clashes);
          ];
    }

(* ------------------------------------------------------------------ *)
(* E13: incremental checking service                                   *)
(* ------------------------------------------------------------------ *)

(* Replace the first occurrence of [what] in [text]; the anchor must be
   present (the bench is meaningless if the edit did not land). *)
let patch_once ~file ~what ~with_ text =
  let wl = String.length what and tl = String.length text in
  let rec find i =
    if i + wl > tl then None
    else if String.sub text i wl = what then Some i
    else find (i + 1)
  in
  match find 0 with
  | None ->
      Printf.eprintf "incr: edit anchor %S not found in %s\n" what file;
      exit 2
  | Some i ->
      String.sub text 0 i ^ with_ ^ String.sub text (i + wl) (tl - i - wl)

(* E13's bound on live-set growth per patched body edit, in words.  On
   the seed-42 corpus an edit adds about 900 words (its new text, body
   and results); keeping a second AST of each patched file added about
   14 300. *)
let live_growth_bound = 4_000

let incr_exp () =
  section "E13: incremental checking -- warm re-check after one edit";
  row "  A fixed-seed generated corpus is checked cold through the\n";
  row "  incremental service, then one function body is edited and the\n";
  row "  same documents are re-submitted.  The warm request must patch\n";
  row "  the single dirty body into the persistent environment, re-check\n";
  row "  exactly one function, test the validity of exactly one cache\n";
  row "  entry, run >100x faster than a cold check of the edited corpus,\n";
  row "  and produce byte-identical diagnostics -- at every -j and\n";
  row "  across a save/load service restart, which must itself beat a\n";
  row "  cold check.  The body edit is gated again under\n";
  row "  +xproc, where the warm request must also refresh the effect\n";
  row "  summaries it affects.  20 body edits may grow the live set by\n";
  row "  at most %d words each.  Last, the corpus is written to disk and\n"
    live_growth_bound;
  row "  named by path: once its files have settled (%.0f s), an unchanged\n"
    Incr.Service.racy_margin;
  row "  resubmission must read no file and answer like the cold check.\n";
  row "  Written to BENCH_incr.json.\n\n";
  let modules = 240 and fns_per_module = 25 in
  let p =
    Progen.generate ~seed:!seed_flag ~modules ~fns_per_module
      ~bugs:Progen.all_bug_kinds ()
  in
  let flags = { Annot.Flags.default with Annot.Flags.loop_exec = true } in
  let docs_of files =
    List.map
      (fun (name, text) -> { Incr.Service.doc_name = name; doc_text = text })
      files
  in
  let edit_file target what with_ files =
    List.map
      (fun (name, text) ->
        if name = target then
          (name, patch_once ~file:target ~what ~with_ text)
        else (name, text))
      files
  in
  (* scenario A: a body-only edit of m120_bump (module 120 carries no
     seeded bug, so the diagnostic set is stable under the edit) *)
  let files0 = p.Progen.files in
  let files1 =
    edit_file "m120.c" "  r->weight = r->weight + by;\n"
      "  r->weight = r->weight + by + 1;\n" files0
  in
  (* scenario B: an interface edit -- drop the only annotation from
     m120_create's declaration, invalidating it and its callers *)
  let files2 =
    edit_file "m120.c" "/*@only@*/ m120_rec *m120_create"
      "m120_rec *m120_create" files1
  in
  let run ?(jobs = 1) svc files =
    match Incr.Service.check ~jobs svc (docs_of files) with
    | Ok oc -> oc
    | Error d ->
        Printf.eprintf "incr: fatal frontend error: %s\n"
          (Cfront.Diag.to_string d);
        exit 2
  in
  let render (oc : Incr.Service.outcome) =
    List.map Cfront.Diag.to_string oc.Incr.Service.oc_kept
    @ List.map
        (fun d -> "suppressed: " ^ Cfront.Diag.to_string d)
        oc.Incr.Service.oc_suppressed
  in
  let bad = ref false in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "incr: %s\n" s;
                                   bad := true) fmt in
  let expect_tier what expected (oc : Incr.Service.outcome) =
    let got = Incr.Service.tier_name oc.Incr.Service.oc_tier in
    if got <> expected then fail "%s answered at tier %s (want %s)" what got
        expected
  in
  let expect_same what a b =
    if a <> b then fail "%s diagnostics differ" what
  in
  let functions = modules * (fns_per_module + 10) in
  ignore functions;
  row "  corpus: %d modules, %d lines, seed %d, flags +loopexec\n\n" modules
    p.Progen.loc !seed_flag;
  row "  %-34s %5s %10s %9s %9s\n" "request" "jobs" "time" "tier" "recheck";
  let show name jobs dt (oc : Incr.Service.outcome) =
    row "  %-34s %5d %9.3fs %9s %9d\n" name jobs dt
      (Incr.Service.tier_name oc.Incr.Service.oc_tier)
      oc.Incr.Service.oc_rechecked
  in
  (* scenario A under [flags], at -j 1 and -j 4 (forced to 4 domains
     even on one core, like E10): the warm request must patch, re-check
     exactly one function, beat a cold check of the edited corpus in a
     fresh service by >100x, and match it byte for byte.  Returns the
     warm service, the reference service, outcome and time, and the
     figures for BENCH_incr.json ([xproc_]-prefixed under +xproc). *)
  (* each timed request starts from a collected heap, outside the timed
     region: where the previous request left the minor heap would
     otherwise move the speedup and restart gates *)
  let time f =
    Gc.full_major ();
    time f
  in
  let jobs = 4 in
  let body_edit ~xproc =
    let flags = { flags with Annot.Flags.xproc } in
    let label, prefix = if xproc then (" +xproc", "xproc_") else ("", "") in
    let svc = Incr.Service.create ~flags () in
    let oc_cold, t_cold = time (fun () -> run svc files0) in
    show ("cold (pristine corpus)" ^ label) 1 t_cold oc_cold;
    let validated () = List.assoc "incr_validated" (Incr.Service.stats svc) in
    let validated_cold = validated () in
    let oc_warm, t_warm = time (fun () -> run svc files1) in
    show ("warm (one body edited)" ^ label) 1 t_warm oc_warm;
    (* the edit is effect-neutral, so the request tests the edited
       body's entry and no other *)
    let warm_validated = validated () - validated_cold in
    if warm_validated <> 1 then
      fail "warm body edit%s validated %d entries (want exactly 1)" label
        warm_validated;
    let svc_ref = Incr.Service.create ~flags () in
    let oc_ref, t_ref = time (fun () -> run svc_ref files1) in
    show ("cold (edited, reference)" ^ label) 1 t_ref oc_ref;
    expect_tier ("cold" ^ label) "cold" oc_cold;
    expect_tier ("warm body edit" ^ label) "patched" oc_warm;
    if oc_warm.Incr.Service.oc_rechecked <> 1 then
      fail "warm body edit%s re-checked %d functions (want exactly 1)" label
        oc_warm.Incr.Service.oc_rechecked;
    expect_same ("warm vs cold reference" ^ label) (render oc_warm)
      (render oc_ref);
    let speedup = if t_warm > 0.0 then t_ref /. t_warm else 0.0 in
    row "  warm re-check speedup over cold%s: %.0fx\n\n" label speedup;
    if speedup <= 100.0 then
      fail "warm re-check%s only %.1fx faster than cold (want >100x)" label
        speedup;
    let svc4 = Incr.Service.create ~flags () in
    let oc_cold4, t_cold4 = time (fun () -> run ~jobs svc4 files0) in
    show ("cold (pristine corpus)" ^ label) jobs t_cold4 oc_cold4;
    let oc_warm4, t_warm4 = time (fun () -> run ~jobs svc4 files1) in
    show ("warm (one body edited)" ^ label) jobs t_warm4 oc_warm4;
    expect_same ("-j cold" ^ label) (render oc_cold4) (render oc_cold);
    expect_same ("-j warm" ^ label) (render oc_warm4) (render oc_warm);
    let figures =
      Telemetry.Json.
        [
          ("cold_seconds", Float t_cold);
          ("cold_edited_seconds", Float t_ref);
          ("warm_seconds", Float t_warm);
          ("speedup", Float speedup);
          ("warm_rechecked", Int oc_warm.Incr.Service.oc_rechecked);
          ("validated", Int warm_validated);
          ("cold_j4_seconds", Float t_cold4);
          ("warm_j4_seconds", Float t_warm4);
        ]
    in
    ( svc,
      svc_ref,
      oc_ref,
      t_ref,
      List.map (fun (k, v) -> (prefix ^ k, v)) figures )
  in
  let svc, svc_ref, oc_ref, t_ref, figures = body_edit ~xproc:false in
  (* the same edit under +xproc: the warm request refreshes the effect
     summaries of the edited function and of the callers they reach
     instead of solving the whole program again *)
  let _, _, _, _, xproc_figures = body_edit ~xproc:true in
  (* scenario B: the funsig edit must re-check the function plus its
     callers -- and nothing close to the whole corpus *)
  let oc_sig, t_sig = time (fun () -> run svc files2) in
  show "warm (m120_create funsig edited)" 1 t_sig oc_sig;
  expect_tier "funsig edit" "rebuilt" oc_sig;
  let svc_ref2 = Incr.Service.create ~flags () in
  let oc_ref2, _ = time (fun () -> run svc_ref2 files2) in
  expect_same "funsig edit vs cold reference" (render oc_sig)
    (render oc_ref2);
  let total_fns = oc_ref2.Incr.Service.oc_functions in
  if oc_sig.Incr.Service.oc_rechecked < 2 then
    fail "funsig edit re-checked %d functions (want the function + callers)"
      oc_sig.Incr.Service.oc_rechecked;
  if oc_sig.Incr.Service.oc_rechecked * 10 > total_fns then
    fail "funsig edit re-checked %d of %d functions (want a small slice)"
      oc_sig.Incr.Service.oc_rechecked total_fns;
  row "  funsig edit re-checked %d of %d functions\n"
    oc_sig.Incr.Service.oc_rechecked total_fns;
  (* restart adoption: persist the edited-corpus cache, load it into a
     fresh service, and re-check without re-checking anything -- faster
     than the cold reference check of the same corpus, or the cache
     does not pay for itself *)
  let blob = Incr.Service.save svc_ref in
  let svc_new = Incr.Service.create ~flags () in
  (match Incr.Service.load svc_new blob with
  | Ok n -> row "  persisted cache: %d summaries, %d bytes\n" n
              (String.length blob)
  | Error msg ->
      fail "persisted cache rejected: %s" msg);
  let oc_restart, t_restart = time (fun () -> run svc_new files1) in
  show "restart (cache adopted)" 1 t_restart oc_restart;
  if oc_restart.Incr.Service.oc_rechecked <> 0 then
    fail "restart re-checked %d functions (want 0: all adopted by key)"
      oc_restart.Incr.Service.oc_rechecked;
  expect_same "restart vs cold reference" (render oc_restart)
    (render oc_ref);
  let restart_speedup = if t_restart > 0.0 then t_ref /. t_restart else 0.0 in
  row "  restart speedup over cold: %.1fx\n" restart_speedup;
  if t_restart >= t_ref then
    fail "restart took %.3fs, not faster than a cold check (%.3fs)" t_restart
      t_ref;
  (* memory over an edit session, after every timed request: the live
     words after a cold check and after a run of body edits, one module
     each.  A patched file keeps one AST per definition, so an edit may
     add its new text, body and results to the live set, but not a
     second copy of the edited file's AST *)
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let mem_edits = 20 in
  let svc_mem = Incr.Service.create ~flags () in
  ignore (run svc_mem files0);
  let live_cold = live_words () in
  let files_mem =
    List.fold_left
      (fun files k ->
        let files =
          edit_file
            (Printf.sprintf "m%d.c" (200 + k))
            "  r->weight = r->weight + by;\n"
            (Printf.sprintf "  r->weight = r->weight + by + %d;\n" (k + 1))
            files
        in
        expect_tier "memory body edit" "patched" (run svc_mem files);
        files)
      files0
      (List.init mem_edits Fun.id)
  in
  let live_edited = live_words () in
  (* the service and its documents stay reachable through the second
     measurement, or it would count the whole environment as freed *)
  ignore (Sys.opaque_identity (svc_mem, files_mem));
  let growth_per_edit = (live_edited - live_cold) / mem_edits in
  row "  live words: %d after cold, %d after %d body edits (%+d per edit)\n"
    live_cold live_edited mem_edits growth_per_edit;
  if growth_per_edit > live_growth_bound then
    fail "live set grew %d words per body edit (want <= %d)" growth_per_edit
      live_growth_bound;
  (* the path-named arm: the corpus on disk, named by path the way the
     server reads it.  The cold read records every file's stat stamp
     inside the racy window; the first resubmission after the margin
     compares the files once more and settles their stamps, and the
     next one must cost a stat per file and read nothing *)
  let dir = Filename.temp_dir "e13" "corpus" in
  let paths =
    List.map
      (fun (name, text) ->
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        path)
      files0
  in
  let svc_path = Incr.Service.create ~flags () in
  let doc_reads () = List.assoc "doc_reads" (Incr.Service.stats svc_path) in
  let path_request () =
    let before = doc_reads () in
    let oc, dt =
      time (fun () ->
          match
            Incr.Service.check svc_path
              (List.map (Incr.Service.doc_of_file ~current:svc_path) paths)
          with
          | Ok oc -> oc
          | Error d ->
              Printf.eprintf "incr: fatal frontend error: %s\n"
                (Cfront.Diag.to_string d);
              exit 2)
    in
    (oc, dt, doc_reads () - before)
  in
  let oc_path_cold, t_path_cold, reads_cold = path_request () in
  Unix.sleepf (Incr.Service.racy_margin +. 0.2);
  let oc_settle, t_settle, reads_settle = path_request () in
  let oc_settled, t_settled, reads_settled = path_request () in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  row "\n  by path: cold %.3fs (%d files read), first after the margin %.4fs\n"
    t_path_cold reads_cold t_settle;
  row "  (%d read), settled resubmission %.4fs (%d read)\n" reads_settle
    t_settled reads_settled;
  expect_tier "path-named cold" "cold" oc_path_cold;
  expect_tier "path-named resubmission" "clean" oc_settle;
  expect_tier "path-named settled resubmission" "clean" oc_settled;
  if reads_cold <> List.length paths then
    fail "path-named cold check read %d of %d files" reads_cold
      (List.length paths);
  if reads_settled <> 0 then
    fail "settled resubmission read %d files (want 0: one stat each)"
      reads_settled;
  expect_same "path-named resubmission vs cold" (render oc_settle)
    (render oc_path_cold);
  expect_same "settled resubmission vs cold" (render oc_settled)
    (render oc_path_cold);
  let doc =
    Telemetry.Json.(
      Obj
        ([
          ("experiment", String "incr");
          ("seed", Int !seed_flag);
          ("modules", Int modules);
          ("fns_per_module", Int fns_per_module);
          ("lines", Int p.Progen.loc);
          ("functions", Int total_fns);
          ("jobs", Int jobs);
        ]
        @ figures
        @ [
          ("funsig_seconds", Float t_sig);
          ("funsig_rechecked", Int oc_sig.Incr.Service.oc_rechecked);
          ("restart_seconds", Float t_restart);
          ("restart_rechecked", Int oc_restart.Incr.Service.oc_rechecked);
          ("restart_speedup", Float restart_speedup);
          ("cache_bytes", Int (String.length blob));
          ("live_words_cold", Int live_cold);
          ("live_words_edited", Int live_edited);
          ("live_growth_per_edit", Int growth_per_edit);
          ("path_cold_seconds", Float t_path_cold);
          ("path_cold_doc_reads", Int reads_cold);
          ("path_settle_seconds", Float t_settle);
          ("path_settle_doc_reads", Int reads_settle);
          ("path_settled_seconds", Float t_settled);
          ("path_settled_doc_reads", Int reads_settled);
          ("warnings", Int (List.length oc_ref.Incr.Service.oc_kept));
          ( "suppressed",
            Int (List.length oc_ref.Incr.Service.oc_suppressed) );
          ]
        @ xproc_figures))
  in
  let oc = open_out "BENCH_incr.json" in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "\n  wrote BENCH_incr.json\n";
  if !bad then exit 3

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E14: OOM fault-injection sweep                                      *)
(* ------------------------------------------------------------------ *)

(* A hostile-allocation trial mix: bugs that hide on the untaken
   allocation-failure path of every ordinary run ([Brealloc_lost],
   [Boom_leak]), plus the refcount borrow and two always-visible
   controls; every fourth trial is clean.  Coverage is full so the
   carriers always execute. *)
let oom_trial seed =
  let mixes =
    [|
      [ Progen.Brealloc_lost ];
      [ Progen.Boom_leak ];
      [ Progen.Brealloc_lost; Progen.Boom_leak ];
      [ Progen.Brefcount_use; Progen.Bleak ];
      [ Progen.Boom_leak; Progen.Bnull_deref ];
      [ Progen.Brealloc_lost; Progen.Brefcount_leak ];
    |]
  in
  let bugs = if seed mod 4 = 0 then [] else mixes.(seed mod 6) in
  {
    Difftest.t_seed = seed;
    t_modules = 1 + (seed mod 2);
    t_fns = 2;
    t_bugs = bugs;
    t_coverage = 1.0;
    t_max_steps = 200_000;
  }

let oom_exp () =
  section "E14: OOM fault-injection sweep -- every allocation site fails";
  row "  Fixed-seed hostile-allocation sweep (seeds %d..%d): for each\n"
    !seed_flag (!seed_flag + 11);
  row "  generated program, re-run the differential oracle once per\n";
  row "  heap allocation request with that request forced to fail.\n";
  row "  Leaks are assessed only on runs that still exited 0; the\n";
  row "  realloc-lost leaks that surface must either have a static\n";
  row "  witness or classify as excused blind spots, and +allocmodel\n";
  row "  must clear the realloc-lost excuses by witnessing them\n";
  row "  statically.  Written to BENCH_oom.json.\n\n";
  let trials = List.init 12 (fun i -> oom_trial (!seed_flag + i)) in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let sweep_of flags =
    List.map (fun t -> (t, Difftest.run_trial_oom ~flags t)) trials
  in
  let (default_sweep, dt) = time (fun () -> sweep_of Annot.Flags.default) in
  let am_flags =
    { Annot.Flags.default with Annot.Flags.alloc_model = true }
  in
  let (am_sweep, dt2) = time (fun () -> sweep_of am_flags) in
  let n_inject = Telemetry.Counter.value Telemetry.c_oom_injections in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let findings sweep =
    List.concat_map
      (fun ((t : Difftest.trial), runs) ->
        List.concat_map
          (fun (site, (v : Difftest.verdict)) ->
            List.map
              (fun f -> (t.Difftest.t_seed, site, f))
              v.Difftest.v_findings)
          runs)
      sweep
  in
  let count sweep kind cls =
    List.length
      (List.filter
         (fun (_, _, (f : Difftest.finding)) ->
           f.Difftest.f_kind = kind && f.Difftest.f_class = cls)
         (findings sweep))
  in
  let gaps sweep =
    List.concat_map (fun (_, runs) -> Difftest.oom_gaps runs) sweep
  in
  let d_spots = count default_sweep Difftest.Blind_spot "realloc-lost"
  and am_spots = count am_sweep Difftest.Blind_spot "realloc-lost" in
  row "  %-22s %10s %12s %6s\n" "config" "injections" "realloc-lost"
    "gaps";
  row "  %-22s %10s %12d %6d  (%.1fs)\n" "default" "" d_spots
    (List.length (gaps default_sweep)) dt;
  row "  %-22s %10s %12d %6d  (%.1fs)\n" "+allocmodel" "" am_spots
    (List.length (gaps am_sweep)) dt2;
  row "\n  %d injected allocation failures across both sweeps\n" n_inject;
  let finding_json (seed, site, (f : Difftest.finding)) =
    Telemetry.Json.(
      Obj
        [
          ("seed", Int seed);
          ("site", Int site);
          ("kind", String (Difftest.kind_string f.Difftest.f_kind));
          ("class", String f.Difftest.f_class);
          ("file", String f.Difftest.f_file);
          ("detail", String f.Difftest.f_detail);
        ])
  in
  let doc =
    Telemetry.Json.(
      Obj
        [
          ("experiment", String "oom");
          ("seed", Int !seed_flag);
          ("trials", Int (List.length trials));
          ("injections", Int n_inject);
          ("seconds", Float (dt +. dt2));
          ( "default",
            Obj
              [
                ("realloc_lost_blind_spots", Int d_spots);
                ("gaps", Int (List.length (gaps default_sweep)));
                ( "findings",
                  List (List.map finding_json (findings default_sweep)) );
              ] );
          ( "allocmodel",
            Obj
              [
                ("realloc_lost_blind_spots", Int am_spots);
                ("gaps", Int (List.length (gaps am_sweep)));
                ( "findings",
                  List (List.map finding_json (findings am_sweep)) );
              ] );
        ])
  in
  let oc = open_out "BENCH_oom.json" in
  output_string oc (Telemetry.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  row "  wrote BENCH_oom.json\n";
  (* the CI gates: no unexcused divergence under either config, at
     least one excused realloc-lost under the default heuristic, and
     none left once +allocmodel witnesses them statically *)
  let fail msg =
    Printf.eprintf "oom: %s\n" msg;
    exit 3
  in
  List.iter
    (fun (f : Difftest.finding) ->
      Printf.eprintf "oom: %s\n" (Fmt.str "%a" Difftest.pp_finding f))
    (gaps default_sweep @ gaps am_sweep);
  if gaps default_sweep <> [] || gaps am_sweep <> [] then
    fail "unexcused divergences under OOM injection";
  if d_spots = 0 then
    fail "expected excused realloc-lost blind spots under default flags";
  if am_spots > 0 then
    fail "realloc-lost still excused under +allocmodel"

(* ------------------------------------------------------------------ *)
(* E15: SV-COMP MemSafety yardstick                                    *)
(* ------------------------------------------------------------------ *)

let svcomp_dir = "bench/svcomp"

let svcomp_exp () =
  section "E15: SV-COMP MemSafety yardstick";
  row "  Score the checker against the bundled SV-COMP-style MemSafety\n";
  row "  tasks (%s): claim false when a diagnostic witnesses\n" svcomp_dir;
  row "  the task's subproperty, true only on a clean report, unknown\n";
  row "  otherwise.  The gate: no true verdict on an expected-false\n";
  row "  task (an unsound claim).  Written to BENCH_svcomp.json.\n\n";
  let flags =
    {
      Flags.default with
      Flags.alloc_model = true;
      loop_exec = true;
      free_offset = true;
      free_static = true;
      xproc = true;
    }
  in
  match Svcomp.load_dir svcomp_dir with
  | Error m ->
      Printf.eprintf "svcomp: %s\n" m;
      exit 3
  | Ok tasks ->
      let scored, dt =
        time (fun () -> List.map (Svcomp.run_task ~flags) tasks)
      in
      row "  %-28s %-9s %-9s %s\n" "task" "expected" "verdict" "witnesses";
      List.iter
        (fun (s : Svcomp.scored) ->
          row "  %-28s %-9b %-9s %s\n" s.Svcomp.s_task.Svcomp.t_name
            s.Svcomp.s_task.Svcomp.t_expected
            (Svcomp.verdict_string s.Svcomp.s_verdict)
            (if s.Svcomp.s_codes <> [] then
               String.concat "," s.Svcomp.s_codes
             else s.Svcomp.s_detail))
        scored;
      let sum = Svcomp.summarize scored in
      row
        "\n  %d tasks in %.1fs: %d correct-true, %d correct-false, %d \
         unknown,\n"
        sum.Svcomp.n_tasks dt sum.Svcomp.n_correct_true
        sum.Svcomp.n_correct_false sum.Svcomp.n_unknown;
      row "  %d imprecise, %d unsound\n" sum.Svcomp.n_imprecise
        sum.Svcomp.n_unsound;
      let task_json (s : Svcomp.scored) =
        Telemetry.Json.(
          Obj
            [
              ("name", String s.Svcomp.s_task.Svcomp.t_name);
              ("expected", Bool s.Svcomp.s_task.Svcomp.t_expected);
              ( "subproperty",
                match s.Svcomp.s_task.Svcomp.t_subproperty with
                | Some p -> String p
                | None -> Null );
              ("verdict", String (Svcomp.verdict_string s.Svcomp.s_verdict));
              ( "codes",
                List (List.map (fun c -> String c) s.Svcomp.s_codes) );
              ("detail", String s.Svcomp.s_detail);
            ])
      in
      let doc =
        Telemetry.Json.(
          Obj
            [
              ("experiment", String "svcomp");
              ("flags", String (Flags.canonical flags));
              ("seconds", Float dt);
              ( "summary",
                Obj
                  [
                    ("tasks", Int sum.Svcomp.n_tasks);
                    ("correct_true", Int sum.Svcomp.n_correct_true);
                    ("correct_false", Int sum.Svcomp.n_correct_false);
                    ("unsound", Int sum.Svcomp.n_unsound);
                    ("imprecise", Int sum.Svcomp.n_imprecise);
                    ("unknown", Int sum.Svcomp.n_unknown);
                  ] );
              ("tasks", List (List.map task_json scored));
            ])
      in
      let oc = open_out "BENCH_svcomp.json" in
      output_string oc (Telemetry.Json.to_string doc);
      output_string oc "\n";
      close_out oc;
      row "  wrote BENCH_svcomp.json\n";
      if sum.Svcomp.n_unsound > 0 then begin
        List.iter
          (fun (s : Svcomp.scored) ->
            if
              (not s.Svcomp.s_task.Svcomp.t_expected)
              && s.Svcomp.s_verdict = Svcomp.Vtrue
            then
              Printf.eprintf "svcomp: unsound true verdict on %s\n"
                s.Svcomp.s_task.Svcomp.t_name)
          scored;
        exit 3
      end

let experiments =
  [
    ("fig_sample", fig_sample);
    ("fig_listaddh", fig_listaddh);
    ("sec6_employee", sec6_employee);
    ("sec7_scaling", sec7_scaling);
    ("sec7_messages", sec7_messages);
    ("sec7_missed", sec7_missed);
    ("rt_coverage", rt_coverage);
    ("annot_burden", annot_burden);
    ("ablation", ablation);
    ("phases", phases);
    ("infer", infer_exp);
    ("micro", micro);
    ("scale", scale);
    ("difftest", difftest_exp);
    ("loops", loops_exp);
    ("xproc", xproc_exp);
    ("incr", incr_exp);
    ("oom", oom_exp);
    ("svcomp", svcomp_exp);
  ]

let () =
  (* peel [-seed N] / [-baseline FILE] off before experiment dispatch *)
  let rec parse_args acc = function
    | "-seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed_flag := n
        | None ->
            Printf.eprintf "bench: -seed expects an integer, got %s\n" v;
            exit 2);
        parse_args acc rest
    | [ "-seed" ] ->
        Printf.eprintf "bench: -seed expects an integer\n";
        exit 2
    | "-baseline" :: v :: rest ->
        baseline_flag := Some v;
        parse_args acc rest
    | [ "-baseline" ] ->
        Printf.eprintf "bench: -baseline expects a file\n";
        exit 2
    | a :: rest -> parse_args (a :: acc) rest
    | [] -> List.rev acc
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match names with
    | [] | [ "all" ] -> List.map fst experiments
    | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested
