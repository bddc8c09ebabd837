(* The differential oracle and its minimized regression corpus.

   The corpus under test/regressions/ was produced by the delta-debugging
   reducer (bin/oldiff.exe -reduce): each <name>.c is a shrunk program
   whose static-vs-run-time divergence is a declared blind spot, and the
   <name>.json triage record carries the divergence key.  Replaying a
   reproducer must re-observe exactly that divergence — if the checker
   learns to catch one of these (or the interpreter stops seeing it),
   the corresponding test fails and the blind-spot list in
   Difftest.blind_spots needs updating alongside test_check.ml. *)

module Flags = Annot.Flags

let regressions_dir = "regressions"

let corpus () =
  Sys.readdir regressions_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat regressions_dir)

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

let test_corpus_nonempty () =
  Alcotest.(check bool)
    "at least three minimized reproducers checked in" true
    (List.length (corpus ()) >= 3)

let test_replay_all () =
  List.iter
    (fun path ->
      match Difftest.replay path with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s still diverges as %s/%s in %s" r.Difftest.r_name
               (Difftest.kind_string r.Difftest.r_expected.Difftest.f_kind)
               r.Difftest.r_expected.Difftest.f_class
               r.Difftest.r_expected.Difftest.f_file)
            true r.Difftest.r_matched;
          (* the corpus only holds excused divergences: a reproducer
             classifying as a gap or crash is a harness regression *)
          List.iter
            (fun (f : Difftest.finding) ->
              if
                f.Difftest.f_kind = Difftest.Soundness_gap
                || f.Difftest.f_kind = Difftest.Harness_bug
              then
                Alcotest.failf "%s: unexpected %s" r.Difftest.r_name
                  (Fmt.str "%a" Difftest.pp_finding f))
            r.Difftest.r_verdict.Difftest.v_findings)
    (corpus ())

(* Every reproducer with a recovery flag must stop diverging once the
   flag is set: the blind spot is recoverable, not a genuine gap. *)
let test_replay_recovery_flags () =
  List.iter
    (fun path ->
      match Difftest.replay path with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok r -> (
          match r.Difftest.r_recover with
          | None -> ()
          | Some flag ->
              let flags =
                match Flags.apply_all Flags.default [ flag ] with
                | Ok f -> f
                | Error (Flags.Unknown_flag f) ->
                    Alcotest.failf "%s: triage record names unknown flag %s"
                      r.Difftest.r_name f
              in
              let replayed =
                match Difftest.replay ~flags path with
                | Ok x -> x
                | Error msg -> Alcotest.failf "%s: %s" r.Difftest.r_name msg
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s recovers the detection"
                   r.Difftest.r_name flag)
                false replayed.Difftest.r_matched))
    (corpus ())

(* The corpus must cover each recoverable footnote-8 blind spot, the
   interprocedural global leak, and each loop-carried class at least
   once. *)
let test_corpus_covers_blind_spots () =
  let classes =
    List.filter_map
      (fun path ->
        match Difftest.replay path with
        | Ok r -> Some r.Difftest.r_expected.Difftest.f_class
        | Error _ -> None)
      (corpus ())
  in
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus has a %s reproducer" cls)
        true (List.mem cls classes))
    [
      "free-offset"; "free-static"; "global-leak"; "loop-leak";
      "loop-use-after-free"; "loop-null-deref";
    ]

(* ------------------------------------------------------------------ *)
(* Oracle classification *)

let find_kind kind v =
  List.filter
    (fun (f : Difftest.finding) -> f.Difftest.f_kind = kind)
    v.Difftest.v_findings

let test_clean_trial_no_findings () =
  let p = Progen.generate ~seed:5 ~modules:3 ~fns_per_module:3 ~bugs:[] () in
  let v = Difftest.classify p in
  Alcotest.(check int) "no divergences on a clean program" 0
    (List.length v.Difftest.v_findings);
  Alcotest.(check int) "no static reports" 0 v.Difftest.v_static_reports

let test_seeded_blind_spot_classified () =
  let p =
    Progen.generate ~seed:9 ~modules:2 ~fns_per_module:2
      ~bugs:[ Progen.Bfree_offset ] ~coverage:1.0 ()
  in
  let v = Difftest.classify p in
  Alcotest.(check bool)
    "free-offset divergence excused as a blind spot" true
    (List.exists
       (fun (f : Difftest.finding) -> f.Difftest.f_class = "free-offset")
       (find_kind Difftest.Blind_spot v));
  Alcotest.(check int) "no soundness gaps" 0
    (List.length (find_kind Difftest.Soundness_gap v));
  (* under +freeoffset the class is no longer excused and the checker
     catches it, so the divergence disappears entirely *)
  let flags = { Flags.default with Flags.free_offset = true } in
  let v' = Difftest.classify ~flags p in
  Alcotest.(check int) "+freeoffset: no divergence at all" 0
    (List.length v'.Difftest.v_findings)

let test_seeded_caught_bug_no_divergence () =
  let p =
    Progen.generate ~seed:11 ~modules:2 ~fns_per_module:2
      ~bugs:[ Progen.Buse_after_free; Progen.Bleak ] ~coverage:1.0 ()
  in
  let v = Difftest.classify p in
  Alcotest.(check int)
    "statically-caught bugs produce no findings" 0
    (List.length v.Difftest.v_findings)

let test_sweep_deterministic_across_jobs () =
  let trials = List.init 8 (fun i -> Difftest.trial_of_seed (i + 1)) in
  let strip o =
    ( o.Difftest.o_trial.Difftest.t_seed,
      o.Difftest.o_verdict.Difftest.v_findings )
  in
  let seq = List.map strip (Difftest.sweep ~jobs:1 trials) in
  let par = List.map strip (Difftest.sweep ~jobs:4 trials) in
  Alcotest.(check bool) "-j 1 and -j 4 sweeps agree" true (seq = par)

let test_trial_of_seed_deterministic () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "trial_of_seed %d is stable" s)
        true
        (Difftest.trial_of_seed s = Difftest.trial_of_seed s))
    [ 0; 1; 42; 1000 ]

(* ------------------------------------------------------------------ *)
(* OOM fault injection *)

let oom_trial bugs =
  {
    Difftest.t_seed = 42;
    t_modules = 1;
    t_fns = 2;
    t_bugs = bugs;
    t_coverage = 1.0;
    t_max_steps = 200_000;
  }

let test_oom_sweep_realloc_lost () =
  (* the lost-realloc leak only manifests when the injected failure
     lands on the realloc: under default flags the sweep excuses it as
     the declared realloc-lost blind spot, never as a gap *)
  let t = oom_trial [ Progen.Brealloc_lost ] in
  let runs = Difftest.run_trial_oom t in
  Alcotest.(check bool) "schedule covers several sites" true
    (List.length runs >= 2);
  Alcotest.(check bool) "realloc-lost excused as a blind spot" true
    (List.exists
       (fun (_, (v : Difftest.verdict)) ->
         List.exists
           (fun (f : Difftest.finding) ->
             f.Difftest.f_kind = Difftest.Blind_spot
             && f.Difftest.f_class = "realloc-lost")
           v.Difftest.v_findings)
       runs);
  Alcotest.(check int) "no unexcused gaps" 0
    (List.length (Difftest.oom_gaps runs));
  (* +allocmodel catches the bug statically, so the divergence
     disappears entirely *)
  let flags = { Flags.default with Flags.alloc_model = true } in
  let runs' = Difftest.run_trial_oom ~flags t in
  Alcotest.(check bool) "+allocmodel: silent agreement" true
    (List.for_all
       (fun (_, (v : Difftest.verdict)) -> v.Difftest.v_findings = [])
       runs')

let test_oom_sweep_leak_handled () =
  (* the oom-leak carrier bails out of the injected failure with held
     blocks: leaks must only be assessed on runs that still exited 0 *)
  let runs = Difftest.run_trial_oom (oom_trial [ Progen.Boom_leak ]) in
  Alcotest.(check int) "no gaps: static mustfree witnesses the leak" 0
    (List.length (Difftest.oom_gaps runs))

let test_refcount_use_blind_spot () =
  (* the borrowed-alias use-after-free diverges on ordinary runs too *)
  let p =
    Progen.generate ~seed:42 ~modules:1 ~fns_per_module:2
      ~bugs:[ Progen.Brefcount_use ] ~coverage:1.0 ()
  in
  let v = Difftest.classify p in
  Alcotest.(check bool) "excused as the refcount-use blind spot" true
    (List.exists
       (fun (f : Difftest.finding) ->
         f.Difftest.f_kind = Difftest.Blind_spot
         && f.Difftest.f_class = "refcount-use")
       v.Difftest.v_findings);
  Alcotest.(check int) "no soundness gaps" 0
    (List.length (find_kind Difftest.Soundness_gap v))

(* ------------------------------------------------------------------ *)
(* Reducer *)

let test_reduce_shrinks_and_preserves_key () =
  let p =
    Progen.generate ~seed:6 ~modules:3 ~fns_per_module:3
      ~bugs:[ Progen.Bfree_offset ] ~coverage:1.0 ()
  in
  let key =
    {
      Difftest.f_kind = Difftest.Blind_spot;
      f_class = "free-offset";
      f_file = "m0.c";
      f_detail = "";
    }
  in
  let r = Difftest.reduce ~budget:300 ~key p in
  Alcotest.(check bool)
    (Printf.sprintf "reduced %d -> %d lines" p.Progen.loc r.Progen.loc)
    true
    (r.Progen.loc < p.Progen.loc / 2);
  let v = Difftest.classify r in
  Alcotest.(check bool) "key divergence survives reduction" true
    (List.exists
       (fun (f : Difftest.finding) ->
         f.Difftest.f_kind = Difftest.Blind_spot
         && f.Difftest.f_class = "free-offset"
         && f.Difftest.f_file = "m0.c")
       v.Difftest.v_findings)

let test_reduce_rejects_absent_key () =
  let p = Progen.generate ~seed:4 ~modules:2 ~fns_per_module:2 ~bugs:[] () in
  let key =
    {
      Difftest.f_kind = Difftest.Soundness_gap;
      f_class = "use-after-free";
      f_file = "m0.c";
      f_detail = "";
    }
  in
  let r = Difftest.reduce ~budget:50 ~key p in
  Alcotest.(check bool) "program without the key comes back unchanged" true
    (r.Progen.files = p.Progen.files)

(* ------------------------------------------------------------------ *)
(* Round-trips *)

let test_repro_roundtrip () =
  let p =
    Progen.generate ~seed:13 ~modules:2 ~fns_per_module:2
      ~bugs:[ Progen.Bleak ] ~coverage:1.0 ()
  in
  let parsed = Difftest.parse_repro (Difftest.render_repro p) in
  Alcotest.(check int) "file count survives" (List.length p.Progen.files)
    (List.length parsed);
  List.iter2
    (fun (n0, t0) (n1, t1) ->
      Alcotest.(check string) "file name" n0 n1;
      Alcotest.(check string) ("text of " ^ n0) t0 t1)
    p.Progen.files parsed

let test_blind_spot_list () =
  let spots = Difftest.blind_spots Flags.default in
  let has cls = List.exists (fun b -> b.Difftest.bs_class = cls) spots in
  Alcotest.(check bool) "free-offset excused by default" true
    (has "free-offset");
  Alcotest.(check bool) "free-static excused by default" true
    (has "free-static");
  Alcotest.(check bool) "global-leak always excused" true (has "global-leak");
  let recovered =
    Difftest.blind_spots
      { Flags.default with Flags.free_offset = true; free_static = true }
  in
  Alcotest.(check bool)
    "+freeoffset/+freestatic drop the footnote-8 entries" false
    (List.exists
       (fun b ->
         b.Difftest.bs_class = "free-offset"
         || b.Difftest.bs_class = "free-static")
       recovered);
  (* every excused class cites the regression test pinning it *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s cites a pinning test or scope note"
           b.Difftest.bs_class)
        true
        (String.length b.Difftest.bs_cite > 0))
    spots

let () =
  Alcotest.run "difftest"
    [
      ( "corpus",
        [
          Alcotest.test_case "nonempty" `Quick test_corpus_nonempty;
          Alcotest.test_case "replay-all" `Quick test_replay_all;
          Alcotest.test_case "recovery-flags" `Quick
            test_replay_recovery_flags;
          Alcotest.test_case "covers-blind-spots" `Quick
            test_corpus_covers_blind_spots;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean-trial" `Quick test_clean_trial_no_findings;
          Alcotest.test_case "blind-spot" `Quick
            test_seeded_blind_spot_classified;
          Alcotest.test_case "caught-bug" `Quick
            test_seeded_caught_bug_no_divergence;
          Alcotest.test_case "sweep-determinism" `Quick
            test_sweep_deterministic_across_jobs;
          Alcotest.test_case "trial-determinism" `Quick
            test_trial_of_seed_deterministic;
        ] );
      ( "oom",
        [
          Alcotest.test_case "realloc-lost sweep" `Quick
            test_oom_sweep_realloc_lost;
          Alcotest.test_case "oom-leak sweep" `Quick
            test_oom_sweep_leak_handled;
          Alcotest.test_case "refcount-use" `Quick
            test_refcount_use_blind_spot;
        ] );
      ( "reducer",
        [
          Alcotest.test_case "shrinks" `Quick
            test_reduce_shrinks_and_preserves_key;
          Alcotest.test_case "absent-key" `Quick test_reduce_rejects_absent_key;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "repro-roundtrip" `Quick test_repro_roundtrip;
          Alcotest.test_case "blind-spot-list" `Quick test_blind_spot_list;
        ] );
    ]
