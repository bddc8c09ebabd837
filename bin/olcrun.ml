(** olcrun — run C programs under the instrumented heap (the run-time
    checking baseline: what dmalloc/Purify provide in the paper's
    comparison).

    {v
    olcrun file.c ...            # interpret, report run-time errors + leaks
    olcrun -max-steps N file.c
    v} *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run files entry max_steps oom_fail show_output show_profile stats timings =
  if stats || timings then Telemetry.set_enabled true;
  let prog =
    try
      Stdspec.load
        (Seq.map (fun file -> (file, read_file file)) (List.to_seq files))
    with
    | Cfront.Diag.Fatal d ->
        Printf.eprintf "%s\n" (Cfront.Diag.to_string d);
        exit 2
    | Sys_error msg ->
        Printf.eprintf "olcrun: %s\n" msg;
        exit 2
  in
  let r =
    Telemetry.with_span Telemetry.phase_interp (fun () ->
        Rtcheck.run ~entry ~max_steps ?oom_fail prog)
  in
  if show_output then print_string r.Rtcheck.output;
  Format.printf "%a" Rtcheck.pp_summary r;
  if show_profile then Format.printf "%a" Rtcheck.pp_profile r;
  if timings then Format.eprintf "%a%!" Telemetry.pp_timings ();
  if stats then Format.eprintf "%a%!" Telemetry.pp_stats ();
  if r.Rtcheck.errors = [] && r.Rtcheck.leaks = [] then 0 else 1

let files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source files")

let entry_arg =
  Arg.(
    value & opt string "main"
    & info [ "entry" ] ~docv:"FN" ~doc:"Entry function (default main).")

let max_steps_arg =
  Arg.(
    value
    & opt int 2_000_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Execution step budget.")

let oom_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "oom" ] ~docv:"N"
        ~doc:
          "OOM fault injection: force heap allocation request $(docv) \
           (1-based) to fail once.")

let show_output_arg =
  Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's stdout.")

let show_profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Print the mprof-style per-site allocation profile.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print a telemetry summary (phases, counters) to stderr.")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Print a per-file per-phase timing table to stderr.")

let cmd =
  let doc = "run-time memory checking (instrumented interpreter)" in
  Cmd.v
    (Cmd.info "olcrun" ~version:"1.0" ~doc)
    Term.(
      const run $ files_arg $ entry_arg $ max_steps_arg $ oom_arg
      $ show_output_arg $ show_profile_arg $ stats_arg $ timings_arg)

(* accept the LCLint-style single-dash spellings too *)
let argv =
  Array.map
    (function
      | "-stats" -> "--stats"
      | "-timings" -> "--timings"
      | "-oom" -> "--oom"
      | a -> a)
    Sys.argv

let () = exit (Cmd.eval' ~argv cmd)
