(** olclint — the static checker's command-line interface.

    Usage mirrors the original tool:

    {v
    olclint [FLAGS] file.c ...
    olclint -allimponly erc.c empset.c drive.c
    olclint -dump-lib out.lh file.c     # write an interface library
    olclint -load-lib in.lh file.c      # check against a library
    v}

    Flags use LCLint's [+name]/[-name] convention (see {!Annot.Flags}). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run files flag_args load_libs lcl_specs dump_lib no_stdlib quiet stats
    timings json infer_report infer_bulk infer_out infer_budget ranker_spec
    jobs server cache dump_flags dump_counters dump_summaries =
  (* introspection hooks for the doc-drift gate (test/doc_drift.sh):
     machine-readable lists of every checking flag and every registered
     telemetry counter, to cross-check against docs/diagnostics.md *)
  if dump_flags then begin
    List.iter print_endline Annot.Flags.flag_names;
    exit 0
  end;
  if dump_counters then begin
    List.iter print_endline (Telemetry.registered_counters ());
    exit 0
  end;
  (* --dump-summaries with no files prints the render-token vocabulary
     (the drift gate cross-checks it against docs/summaries.md); with
     files it falls through to load them and prints below *)
  if dump_summaries && files = [] then begin
    List.iter print_endline Summary.token_vocabulary;
    exit 0
  end;
  let flags =
    match Annot.Flags.(apply_all default) flag_args with
    | Ok f -> f
    | Error (Annot.Flags.Unknown_flag name) ->
        (match Annot.Flags.suggest name with
        | Some near ->
            Printf.eprintf "olclint: unknown flag '%s' (did you mean '%s'?)\n"
              name near
        | None ->
            Printf.eprintf
              "olclint: unknown flag '%s' (see olclint --help or \
               docs/diagnostics.md for the flag list)\n"
              name);
        exit 2
  in
  if stats || timings then Telemetry.set_enabled true;
  (* [-server]: become the incremental checking daemon — NDJSON requests
     on stdin, one response per line on stdout (docs/incremental.md).
     The CLI's flag set, libraries and specs configure the service; any
     positional files are ignored (clients name files per request). *)
  if server then begin
    (match
       let load = List.map (fun l -> (l, read_file l)) load_libs in
       let specs = List.map (fun s -> (s, read_file s)) lcl_specs in
       Incr.Service.create ~flags ~no_stdlib ~load_libs:load ~lcl_specs:specs
         ()
     with
    | exception Sys_error msg ->
        Printf.eprintf "olclint: %s\n" msg;
        exit 2
    | svc -> Incr.Server.serve ?cache svc stdin stdout);
    exit 0
  end;
  (* -ranker-spec: an external suggester joins the pipeline ahead of
     the built-in rankers; its candidates are probed like any other *)
  let rankers =
    match ranker_spec with
    | None -> Infer.Ranker.default
    | Some path -> (
        match
          try Infer.Ranker.of_spec ~name:path (read_file path)
          with Sys_error msg -> Error msg
        with
        | Ok r -> r :: Infer.Ranker.default
        | Error msg ->
            Printf.eprintf "olclint: -ranker-spec: %s\n" msg;
            exit 2)
  in
  (* original file contents, kept only for -infer-bulk's patch
     renderer: no other mode reads them after analysis *)
  let sources = ref [] in
  (* every file is read as the loader reaches it, so the first failure
     in command-line order is the one reported *)
  let read paths =
    Seq.map (fun path -> (path, read_file path)) (List.to_seq paths)
  in
  let prog =
    try
      Stdspec.load ~flags ~no_stdlib ~libs:(read load_libs)
        ~specs:(read lcl_specs)
        (Seq.map
           (fun source ->
             if infer_bulk then sources := source :: !sources;
             source)
           (read files))
    with
    | Cfront.Diag.Fatal d ->
        Printf.eprintf "%s\n" (Cfront.Diag.to_string d);
        exit 2
    | Sys_error msg ->
        Printf.eprintf "olclint: %s\n" msg;
        exit 2
  in
  (* --dump-summaries: print every derived effect summary (the same
     table +xproc consults), sorted by function name, and stop *)
  if dump_summaries then begin
    let tbl = Summary.of_program prog in
    Hashtbl.fold (fun _ sm acc -> sm :: acc) tbl []
    |> List.sort (fun a b ->
           String.compare a.Summary.sm_name b.Summary.sm_name)
    |> List.iter (fun sm -> print_endline (Summary.render sm));
    exit 0
  end;
  (* Annotation inference runs between interface extraction and
     checking: accepted annotations are installed into the symbol table,
     so [check_program] below sees them exactly as if they were
     declared.  [-infer] is report mode — print the synthesized
     prototypes and stop; [-infer-bulk] is patch mode — emit a
     ready-to-apply header patch; [+inferconstraints] keeps checking. *)
  let inference =
    if infer_report || infer_bulk || flags.Annot.Flags.infer_constraints then
      Some (Infer.run ~rankers ?budget:infer_budget prog)
    else None
  in
  let plural n = if n = 1 then "" else "s" in
  match (infer_bulk, infer_report, inference) with
  | true, _, Some outcome ->
      let patch =
        Infer.render_patch prog outcome ~read:(fun f ->
            List.assoc_opt f !sources)
      in
      (match infer_out with
      | Some path ->
          let oc = open_out path in
          output_string oc patch;
          close_out oc
      | None -> print_string patch);
      (* -dump-lib composes: the saved interface library carries the
         inferred annotations (with provenance), so a downstream
         -load-lib re-checks modules against the bulk result without
         re-running inference *)
      (match dump_lib with
      | Some path ->
          let oc = open_out path in
          output_string oc (Check.Libspec.save prog);
          close_out oc
      | None -> ());
      (* the summary dodges whichever stream carries the patch *)
      let summary_out = if infer_out = None then stderr else stdout in
      Printf.fprintf summary_out
        "%d annotation%s inferred for %d procedure%s (%d probe%s, %d \
         skipped)\n"
        (List.length outcome.Infer.out_findings)
        (plural (List.length outcome.Infer.out_findings))
        outcome.Infer.out_procedures
        (plural outcome.Infer.out_procedures)
        outcome.Infer.out_probes
        (plural outcome.Infer.out_probes)
        outcome.Infer.out_skipped;
      if timings then Format.eprintf "%a%!" Telemetry.pp_timings ();
      if stats then Format.eprintf "%a%!" Telemetry.pp_stats ();
      0
  | false, true, Some outcome ->
      print_string (Infer.render prog outcome);
      Printf.printf "%d annotation%s inferred for %d procedure%s (%d round%s)\n"
        (List.length outcome.Infer.out_findings)
        (plural (List.length outcome.Infer.out_findings))
        outcome.Infer.out_procedures
        (plural outcome.Infer.out_procedures)
        outcome.Infer.out_rounds
        (plural outcome.Infer.out_rounds);
      if timings then Format.eprintf "%a%!" Telemetry.pp_timings ();
      if stats then Format.eprintf "%a%!" Telemetry.pp_stats ();
      0
  | _ ->
  (* [-j 0] means "one domain per recommended core".  Every [-j] runs
     the one task plan ([jobs = 1] on this domain) and the one emission
     step, so output is identical for every [-j]. *)
  let jobs = if jobs <= 0 then Parcheck.default_jobs () else jobs in
  let kept, suppressed =
    Check.finish prog (Parcheck.check_program ~jobs prog)
  in
  (* -json: one record per diagnostic (kept and suppressed) on stdout;
     the human summary moves to stderr so stdout stays pure NDJSON *)
  if json then
    List.iter
      (fun (d, supp) ->
        print_endline
          (Telemetry.Json.to_string (Cfront.Diag.to_json ~suppressed:supp d)))
      (List.map (fun d -> (d, false)) kept
      @ List.map (fun d -> (d, true)) suppressed)
  else if not quiet then
    List.iter (fun d -> print_endline (Cfront.Diag.to_string d)) kept;
  (match dump_lib with
  | Some path ->
      let oc = open_out path in
      output_string oc (Check.Libspec.save prog);
      close_out oc
  | None -> ());
  let summary_out = if json then stderr else stdout in
  Printf.fprintf summary_out "%d code warning%s%s\n" (List.length kept)
    (if List.length kept = 1 then "" else "s")
    (if suppressed = [] then ""
     else Printf.sprintf " (%d suppressed)" (List.length suppressed));
  if timings then Format.eprintf "%a%!" Telemetry.pp_timings ();
  if stats then Format.eprintf "%a%!" Telemetry.pp_stats ();
  if kept = [] then 0 else 1

let files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source files")

let flags_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "f"; "flag" ] ~docv:"[+-]NAME"
        ~doc:
          "Checking flag, LCLint style: +name enables, -name disables \
           (e.g. -f -allimponly, -f +freeoffset).")

let lcl_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "lcl" ] ~docv:"FILE"
        ~doc:
          "Load an LCL specification file (bare-word annotations, the \
           paper's notation) before checking.")

let load_lib_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "load-lib" ] ~docv:"FILE"
        ~doc:"Load an interface library before checking (modular checking).")

let dump_lib_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-lib" ] ~docv:"FILE"
        ~doc:"Write the checked program's interface library to FILE.")

let no_stdlib_arg =
  Arg.(
    value & flag
    & info [ "no-stdlib" ] ~doc:"Do not preload the annotated standard library.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary line.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print a telemetry summary to stderr: per-phase times, pipeline \
           counters (tokens, AST nodes, procedures, store operations, \
           diagnostics by category) and the slowest procedures.")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Print a per-file per-phase timing table to stderr.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit diagnostics as line-delimited JSON records on stdout (one \
           object per diagnostic, suppressed ones included with \
           $(i,suppressed: true)); the summary line moves to stderr.  See \
           docs/diagnostics.md for the record schema.")

let infer_arg =
  Arg.(
    value & flag
    & info [ "infer" ]
        ~doc:
          "Infer Appendix-B annotations (only, notnull, null, out) for the \
           unannotated pointer slots of defined functions and print the \
           annotated prototypes instead of checking.  Use \
           $(b,+inferconstraints) to infer and then check against the \
           synthesized annotations.  See docs/inference.md.")

let infer_bulk_arg =
  Arg.(
    value & flag
    & info [ "infer-bulk" ]
        ~doc:
          "Bottom-up annotation inference across the whole corpus of \
           given files, emitting a ready-to-apply unified-diff header \
           patch (to stdout, or to $(b,-infer-out) FILE) instead of \
           checking.  Combine with $(b,-dump-lib) to save the inferred \
           interface library for modular re-checking.  See \
           docs/inference.md.")

let infer_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "infer-out" ] ~docv:"FILE"
        ~doc:"With $(b,-infer-bulk): write the header patch to FILE.")

let infer_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "infer-budget" ] ~docv:"N"
        ~doc:
          "Early-exit probe budget for inference: once N of a \
           function's ranked candidates have been rejected, the \
           remaining lower-ranked tail is skipped for that function \
           (acceptances don't count).  Unset, every ranked candidate \
           is probed.")

let ranker_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ranker-spec" ] ~docv:"FILE"
        ~doc:
          "Load an external candidate-suggestion file for inference: one \
           $(i,function slot word [prior]) line per candidate (slot is \
           $(i,ret) or $(i,paramN)); suggestions join the built-in \
           rankers and are verified by probing like any other \
           candidate.  See docs/inference.md for the format.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Check files on N parallel worker domains (default 1; 0 means \
           one per available core).  Output is byte-identical for every \
           N: diagnostics are buffered per file and emitted in \
           deterministic (file, line, column, code) order.")

let server_arg =
  Arg.(
    value & flag
    & info [ "server" ]
        ~doc:
          "Run as the incremental checking daemon: newline-delimited JSON \
           requests (check, invalidate, stats, shutdown) on stdin, one \
           response per line on stdout, backed by a content-hashed summary \
           cache so warm re-checks only touch what an edit can affect.  \
           See docs/incremental.md for the protocol.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:
          "With $(b,-server): load the persisted summary cache from FILE at \
           startup (if present and valid) and write it back on shutdown, so \
           a restarted server warms up without re-checking.")

let dump_flags_arg =
  Arg.(
    value & flag
    & info [ "dump-flags" ]
        ~doc:"Print every checking flag name, one per line, and exit.")

let dump_counters_arg =
  Arg.(
    value & flag
    & info [ "dump-counters" ]
        ~doc:
          "Print every registered telemetry counter name, one per line, and \
           exit.")

let dump_summaries_arg =
  Arg.(
    value & flag
    & info [ "dump-summaries" ]
        ~doc:
          "Print the derived interprocedural effect summary for every \
           function in the given files (the table $(b,+xproc) consults), \
           one per line sorted by name, and exit.  With no files, print \
           the summary-render token vocabulary instead.  See \
           docs/summaries.md.")

let cmd =
  let doc =
    "static detection of dynamic memory errors (LCLint-style checker)"
  in
  Cmd.v
    (Cmd.info "olclint" ~version:"1.0" ~doc)
    Term.(
      const run $ files_arg $ flags_arg $ load_lib_arg $ lcl_arg
      $ dump_lib_arg $ no_stdlib_arg $ quiet_arg $ stats_arg $ timings_arg
      $ json_arg $ infer_arg $ infer_bulk_arg $ infer_out_arg
      $ infer_budget_arg $ ranker_spec_arg $ jobs_arg $ server_arg $ cache_arg
      $ dump_flags_arg $ dump_counters_arg $ dump_summaries_arg)

(* LCLint heritage: tolerate single-dash spellings of the long flags
   ([-json], [-stats], [-timings], [-infer]) by rewriting them before
   cmdliner (which reserves single dashes for short options) sees them,
   accept bare [+name] checking flags ([olclint +inferconstraints f.c])
   by expanding them to [-f +name], and accept the valued [-loopiter N]
   as sugar for [-f loopiter=N]. *)
let argv =
  let rec rewrite = function
    | [] -> []
    | ("-f" | "--flag") :: v :: rest ->
        (* an explicit -f keeps its value verbatim (it may start with
           '+', which must not be expanded a second time) *)
        "-f" :: v :: rewrite rest
    | "-loopiter" :: n :: rest -> "-f" :: ("loopiter=" ^ n) :: rewrite rest
    | "-server" :: rest -> "--server" :: rewrite rest
    | "-cache" :: rest -> "--cache" :: rewrite rest
    | "-dump-flags" :: rest -> "--dump-flags" :: rewrite rest
    | "-dump-counters" :: rest -> "--dump-counters" :: rewrite rest
    | "-dump-summaries" :: rest -> "--dump-summaries" :: rewrite rest
    | "-stats" :: rest -> "--stats" :: rewrite rest
    | "-timings" :: rest -> "--timings" :: rewrite rest
    | "-json" :: rest -> "--json" :: rewrite rest
    | "-infer" :: rest -> "--infer" :: rewrite rest
    | "-infer-bulk" :: rest -> "--infer-bulk" :: rewrite rest
    | "-infer-out" :: rest -> "--infer-out" :: rewrite rest
    | "-infer-budget" :: rest -> "--infer-budget" :: rewrite rest
    | "-ranker-spec" :: rest -> "--ranker-spec" :: rewrite rest
    | "-jobs" :: rest -> "--jobs" :: rewrite rest
    | a :: rest when String.length a > 1 && a.[0] = '+' ->
        "-f" :: a :: rewrite rest
    | a :: rest -> a :: rewrite rest
  in
  Array.of_list (rewrite (Array.to_list Sys.argv))

let () = exit (Cmd.eval' ~argv cmd)
