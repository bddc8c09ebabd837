(** Differential soundness oracle (see difftest.mli for the contract).

    Classification is anchored on the run-time side: every observed
    heap error and end-of-run leak must have a static witness in the
    same file ({!Check.Errclass.witnessed}) or be excused by a declared
    blind spot; the seeded-bug metadata is cross-checked in both
    directions (a statically-expected bug with no diagnostic is a gap,
    an executed bug the interpreter missed is a harness bug).  The
    reducer is plain greedy delta debugging over the generated source
    text, re-running classification after every candidate edit. *)

module Json = Telemetry.Json
module Heap = Rtcheck.Heap
module Errclass = Check.Errclass

(* ------------------------------------------------------------------ *)
(* Trials *)

type trial = {
  t_seed : int;
  t_modules : int;
  t_fns : int;
  t_bugs : Progen.bug_kind list;
  t_coverage : float;
  t_max_steps : int;
}

(* Small deterministic mixer (splitmix64 finalizer) so trial parameters
   depend only on the seed, never on generation order or platform. *)
let mix64 (x : int64) : int64 =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let derive seed salt modulus =
  let h = mix64 (Int64.of_int ((seed * 0x9e3779b9) + salt)) in
  Int64.to_int (Int64.rem (Int64.logand h 0x7fffffffffffffffL)
                  (Int64.of_int modulus))

let trial_of_seed seed =
  let bugs =
    if seed mod 4 = 0 then []  (* clean precision trial *)
    else
      let all = Array.of_list Progen.all_bug_kinds in
      let n = 1 + derive seed 1 3 in
      List.init n (fun i ->
          all.(derive seed (10 + i) (Array.length all)))
      |> List.sort_uniq compare
  in
  let coverage =
    if bugs = [] then 1.0 else float_of_int (derive seed 2 5) /. 4.0
  in
  {
    t_seed = seed;
    t_modules = 2 + derive seed 3 4;
    t_fns = 2 + derive seed 4 3;
    t_bugs = bugs;
    t_coverage = coverage;
    t_max_steps = 200_000;
  }

(* ------------------------------------------------------------------ *)
(* Divergence taxonomy *)

type divergence_kind =
  | Soundness_gap
  | Blind_spot
  | Precision_regression
  | Harness_bug

let kind_string = function
  | Soundness_gap -> "soundness-gap"
  | Blind_spot -> "blind-spot"
  | Precision_regression -> "precision-regression"
  | Harness_bug -> "harness-bug"

let kind_of_string = function
  | "soundness-gap" -> Some Soundness_gap
  | "blind-spot" -> Some Blind_spot
  | "precision-regression" -> Some Precision_regression
  | "harness-bug" -> Some Harness_bug
  | _ -> None

type finding = {
  f_kind : divergence_kind;
  f_class : string;
  f_file : string;
  f_detail : string;
}

let pp_finding ppf f =
  Fmt.pf ppf "%s: %s in %s (%s)" (kind_string f.f_kind) f.f_class f.f_file
    f.f_detail

type blind_spot = {
  bs_class : string;
  bs_recover : string option;
  bs_cite : string;
}

let blind_spots (flags : Annot.Flags.t) =
  let spots = [] in
  let spots =
    (* loop-carried divergences: the paper's zero-or-one-times loop
       heuristic cannot connect a state change to its use across a back
       edge; the [+loopexec] fixpoint recovers all three classes *)
    if flags.Annot.Flags.loop_exec then spots
    else
      {
        bs_class = "loop-leak";
        bs_recover = Some "+loopexec";
        bs_cite = "test_check.ml: blind-spots/loop-leak";
      }
      :: {
           bs_class = "loop-use-after-free";
           bs_recover = Some "+loopexec";
           bs_cite = "test_check.ml: blind-spots/loop-use-after-free";
         }
      :: {
           bs_class = "loop-null-deref";
           bs_recover = Some "+loopexec";
           bs_cite = "test_check.ml: blind-spots/loop-null-deref";
         }
      :: spots
  in
  let spots =
    (* [p = realloc(p, n)]: without the path-sensitive allocator model
       the checker cannot see that the old block is still allocated on
       the failure branch; [+allocmodel] recovers the class *)
    if flags.Annot.Flags.alloc_model then spots
    else
      {
        bs_class = "realloc-lost";
        bs_recover = Some "+allocmodel";
        bs_cite = "test_check.ml: blind-spots/realloc-lost";
      }
      :: spots
  in
  let spots =
    (* an uncounted borrow escaping through a helper's global: the
       intraprocedural analysis has no flag that recovers this *)
    {
      bs_class = "refcount-use";
      bs_recover = None;
      bs_cite = "test_check.ml: blind-spots/refcount-use";
    }
    :: spots
  in
  let spots =
    (* a release or escape buried in a locally unannotated callee: the
       default call-site transfer sees no annotation to act on; the
       [+xproc] effect summaries recover both classes *)
    if flags.Annot.Flags.xproc then spots
    else
      {
        bs_class = "xproc-use-after-free";
        bs_recover = Some "+xproc";
        bs_cite = "test_check.ml: blind-spots/xproc-use-after-free";
      }
      :: {
           bs_class = "xproc-double-free";
           bs_recover = Some "+xproc";
           bs_cite = "test_check.ml: blind-spots/xproc-double-free";
         }
      :: spots
  in
  let spots =
    if flags.Annot.Flags.free_offset then spots
    else
      {
        bs_class = "free-offset";
        bs_recover = Some "+freeoffset";
        bs_cite = "test_check.ml: blind-spots/free-offset";
      }
      :: spots
  in
  let spots =
    if flags.Annot.Flags.free_static then spots
    else
      {
        bs_class = "free-static";
        bs_recover = Some "+freestatic";
        bs_cite = "test_check.ml: blind-spots/free-static";
      }
      :: spots
  in
  {
    bs_class = Heap.class_global_leak;
    bs_recover = None;
    bs_cite = "test_check.ml: blind-spots/global-leak";
  }
  :: { bs_class = "bounds"; bs_recover = None; bs_cite = "out of scope" }
  :: { bs_class = "bad-arg"; bs_recover = None; bs_cite = "out of scope" }
  :: spots

let blind_spot_for flags cls =
  List.find_opt (fun bs -> bs.bs_class = cls) (blind_spots flags)

(* ------------------------------------------------------------------ *)
(* Classification *)

type verdict = {
  v_findings : finding list;
  v_static_reports : int;
  v_dynamic_errors : int;
  v_dynamic_leaks : int;
}

let class_of_bug = function
  | Progen.Bleak -> "leak"
  | Progen.Buse_after_free -> "use-after-free"
  | Progen.Bdouble_free -> "double-free"
  | Progen.Bnull_deref -> "null-deref"
  | Progen.Buse_undef -> "use-undef"
  | Progen.Bfree_offset -> "free-offset"
  | Progen.Bfree_static -> "free-static"
  | Progen.Bglobal_leak -> Heap.class_global_leak
  (* loop-carried bugs manifest at run time as ordinary heap events;
     the "loop-" prefix only appears on the excused finding's class *)
  | Progen.Bloop_leak -> "leak"
  | Progen.Bloop_use_after_free -> "use-after-free"
  | Progen.Bloop_null_deref -> "null-deref"
  (* likewise the allocator-model and refcount bugs: the run-time side
     sees a plain leak / use-after-free; the dedicated class names only
     appear on excused findings *)
  | Progen.Brealloc_lost -> "leak"
  | Progen.Boom_leak -> "leak"
  | Progen.Brefcount_leak -> "leak"
  | Progen.Brefcount_use -> "use-after-free"
  (* cross-function bugs also surface as plain heap events; the "xproc-"
     prefix only appears on excused findings *)
  | Progen.Bxproc_callee_free -> "use-after-free"
  | Progen.Bxproc_callee_free_df -> "double-free"
  | Progen.Bxproc_cond_release -> "double-free"
  | Progen.Bxproc_escape_store -> "use-after-free"

let dedupe findings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let k = (f.f_kind, f.f_class, f.f_file) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    findings

let classify ?(flags = Annot.Flags.default) ?(max_steps = 200_000) ?oom_fail
    (p : Progen.program) : verdict =
  let oom = oom_fail <> None in
  match Progen.static_check ~flags p with
  | exception e ->
      {
        v_findings =
          [
            {
              f_kind = Harness_bug;
              f_class = "crash";
              f_file = "<static>";
              f_detail = "static checker raised: " ^ Printexc.to_string e;
            };
          ];
        v_static_reports = 0;
        v_dynamic_errors = 0;
        v_dynamic_leaks = 0;
      }
  | sres -> (
      let reports = sres.Check.reports in
      let n_static = List.length reports in
      match Progen.dynamic_check ~flags ~max_steps ?oom_fail p with
      | exception e ->
          {
            v_findings =
              [
                {
                  f_kind = Harness_bug;
                  f_class = "crash";
                  f_file = "<dynamic>";
                  f_detail = "interpreter raised: " ^ Printexc.to_string e;
                };
              ];
            v_static_reports = n_static;
            v_dynamic_errors = 0;
            v_dynamic_leaks = 0;
          }
      | dres ->
          let findings = ref [] in
          let push f = findings := f :: !findings in
          (* Under OOM injection, end-of-run leaks are only assessed when
             the program still claimed success: a run that bailed out of
             the injected failure (exit != 0) legitimately leaves its
             held blocks behind, which says nothing about the checker. *)
          let assess_leaks = (not oom) || dres.Rtcheck.exit_code = Some 0 in
          (match dres.Rtcheck.aborted with
          | Some (Rtcheck.Aunsupported reason) ->
              push
                {
                  f_kind = Harness_bug;
                  f_class = "crash";
                  f_file = "<dynamic>";
                  f_detail = "interpreter gave up: " ^ reason;
                }
          | Some (Rtcheck.Astep_limit _ | Rtcheck.Aerror_limit _) | None ->
              (* expected terminations: errors up to the cut-off count *)
              ());
          let seeded = p.Progen.seeded in
          if seeded = [] then begin
            (* Clean program: any static diagnostic is a precision
               regression; any run-time error means the generator (or
               the interpreter) is broken, not the checker. *)
            List.iter
              (fun (d : Cfront.Diag.t) ->
                let cls =
                  match Errclass.of_code d.Cfront.Diag.code with
                  | c :: _ -> c
                  | [] -> "static:" ^ d.Cfront.Diag.code
                in
                push
                  {
                    f_kind = Precision_regression;
                    f_class = cls;
                    f_file = d.Cfront.Diag.loc.Cfront.Loc.file;
                    f_detail =
                      Fmt.str "%s on a clean program: %s"
                        d.Cfront.Diag.code d.Cfront.Diag.text;
                  })
              reports;
            List.iter
              (fun (e : Heap.error) ->
                push
                  {
                    f_kind = Harness_bug;
                    f_class = Heap.error_class e.Heap.e_kind;
                    f_file = e.Heap.e_loc.Cfront.Loc.file;
                    f_detail =
                      "run-time error in a clean program: " ^ e.Heap.e_msg;
                  })
              dres.Rtcheck.errors;
            if assess_leaks then
              List.iter
                (fun (lk : Heap.leak) ->
                  push
                    {
                      f_kind = Harness_bug;
                      f_class = Heap.leak_class lk;
                      f_file =
                        lk.Heap.lk_block.Heap.b_alloc_site.Cfront.Loc.file;
                      f_detail = "leak in a clean program";
                    })
                dres.Rtcheck.leaks
          end
          else begin
            (* Seeded program.  Anchor on what the baseline observed. *)
            (* A rejected free (offset / non-heap pointer) leaves its
               block live, so the same root cause also surfaces as an
               end-of-run leak.  That secondary leak is never an
               independent divergence: it inherits the root's verdict
               (excused blind spot, or silent agreement when the
               checker flagged the bogus free). *)
            let free_roots =
              List.filter_map
                (fun (e : Heap.error) ->
                  let cls = Heap.error_class e.Heap.e_kind in
                  if cls = "free-offset" || cls = "free-static" then
                    Some (e.Heap.e_loc.Cfront.Loc.file, cls)
                  else None)
                dres.Rtcheck.errors
            in
            let blind_rooted file =
              List.exists
                (fun (f, cls) ->
                  f = file
                  && (not (Errclass.witnessed ~file ~cls reports))
                  && blind_spot_for flags cls <> None)
                free_roots
            and rooted file = List.mem_assoc file free_roots in
            (* A run-time event is excused as a loop-carried blind spot
               only when a seeded loop-kind bug of the same class sits
               in the same file and the fixpoint is off — the metadata
               gate keeps the excuse from swallowing ordinary gaps of
               the same class. *)
            let loop_spot file cls =
              (not flags.Annot.Flags.loop_exec)
              && List.exists
                   (fun (sb : Progen.seeded) ->
                     Progen.loop_carried sb.Progen.sb_kind
                     && class_of_bug sb.Progen.sb_kind = cls
                     && Progen.sb_file sb = file)
                   seeded
            in
            (* Same metadata gate for the allocator-model and refcount
               blind spots: the excuse only applies where a seeded bug of
               the matching kind sits in the same file. *)
            let realloc_spot file cls =
              (not flags.Annot.Flags.alloc_model)
              && List.exists
                   (fun (sb : Progen.seeded) ->
                     sb.Progen.sb_kind = Progen.Brealloc_lost
                     && class_of_bug sb.Progen.sb_kind = cls
                     && Progen.sb_file sb = file)
                   seeded
            in
            let refcount_spot file cls =
              List.exists
                (fun (sb : Progen.seeded) ->
                  sb.Progen.sb_kind = Progen.Brefcount_use
                  && class_of_bug sb.Progen.sb_kind = cls
                  && Progen.sb_file sb = file)
                seeded
            in
            (* Cross-function blind spots carry the same metadata gate:
               the excuse applies only where a seeded xproc-kind bug of
               the matching class sits in the same file and the effect
               summaries are off. *)
            let xproc_spot file cls =
              (not flags.Annot.Flags.xproc)
              && List.exists
                   (fun (sb : Progen.seeded) ->
                     (match sb.Progen.sb_kind with
                     | Progen.Bxproc_callee_free | Progen.Bxproc_callee_free_df
                     | Progen.Bxproc_cond_release | Progen.Bxproc_escape_store
                       ->
                         true
                     | _ -> false)
                     && class_of_bug sb.Progen.sb_kind = cls
                     && Progen.sb_file sb = file)
                   seeded
            in
            List.iter
              (fun (e : Heap.error) ->
                let cls = Heap.error_class e.Heap.e_kind in
                let file = e.Heap.e_loc.Cfront.Loc.file in
                if not (Errclass.witnessed ~file ~cls reports) then
                  match blind_spot_for flags cls with
                  | Some bs ->
                      push
                        {
                          f_kind = Blind_spot;
                          f_class = cls;
                          f_file = file;
                          f_detail =
                            Fmt.str "declared miss (%s): %s"
                              bs.bs_cite e.Heap.e_msg;
                        }
                  | None ->
                      if loop_spot file cls then
                        push
                          {
                            f_kind = Blind_spot;
                            f_class = "loop-" ^ cls;
                            f_file = file;
                            f_detail =
                              Fmt.str
                                "loop-carried %s invisible to the \
                                 zero-or-one-times heuristic (recover \
                                 with +loopexec): %s"
                                cls e.Heap.e_msg;
                          }
                      else if refcount_spot file cls then
                        push
                          {
                            f_kind = Blind_spot;
                            f_class = "refcount-use";
                            f_file = file;
                            f_detail =
                              Fmt.str
                                "uncounted borrow outliving the counted \
                                 reference (no recovery flag): %s"
                                e.Heap.e_msg;
                          }
                      else if xproc_spot file cls then
                        push
                          {
                            f_kind = Blind_spot;
                            f_class = "xproc-" ^ cls;
                            f_file = file;
                            f_detail =
                              Fmt.str
                                "release/escape buried in an unannotated \
                                 callee (recover with +xproc): %s"
                                e.Heap.e_msg;
                          }
                      else
                        push
                          {
                            f_kind = Soundness_gap;
                            f_class = cls;
                            f_file = file;
                            f_detail =
                              "run-time error with no static witness: "
                              ^ e.Heap.e_msg;
                          })
              dres.Rtcheck.errors;
            if assess_leaks then
            List.iter
              (fun (lk : Heap.leak) ->
                let cls = Heap.leak_class lk in
                let file =
                  lk.Heap.lk_block.Heap.b_alloc_site.Cfront.Loc.file
                in
                if cls = Heap.class_global_leak then
                  push
                    {
                      f_kind = Blind_spot;
                      f_class = cls;
                      f_file = file;
                      f_detail =
                        "globally-reachable storage never released \
                         (invisible to the intraprocedural checker)";
                    }
                else if not (Errclass.witnessed ~file ~cls:"leak" reports)
                then
                  if blind_rooted file then
                    push
                      {
                        f_kind = Blind_spot;
                        f_class = cls;
                        f_file = file;
                        f_detail =
                          "cascade: block kept live by a rejected free \
                           that is itself a declared blind spot";
                      }
                  else if rooted file then
                    (* the checker flagged the bogus free itself; the
                       leftover block is the same finding, not a gap *)
                    ()
                  else if loop_spot file "leak" then
                    push
                      {
                        f_kind = Blind_spot;
                        f_class = "loop-leak";
                        f_file = file;
                        f_detail =
                          "loop-carried leak invisible to the \
                           zero-or-one-times heuristic (recover with \
                           +loopexec)";
                      }
                  else if realloc_spot file "leak" then
                    push
                      {
                        f_kind = Blind_spot;
                        f_class = "realloc-lost";
                        f_file = file;
                        f_detail =
                          "pre-realloc block lost when the injected \
                           allocation failure took the null branch \
                           (recover with +allocmodel)";
                      }
                  else
                    push
                      {
                        f_kind = Soundness_gap;
                        f_class = cls;
                        f_file = file;
                        f_detail = "leaked block with no static witness";
                      })
              dres.Rtcheck.leaks;
            (* Metadata cross-check, both directions.  Skipped on OOM
               runs: the expectations describe ordinary executions (the
               static direction is identical across the sweep anyway). *)
            if not oom then
            List.iter
              (fun (sb : Progen.seeded) ->
                let cls = class_of_bug sb.Progen.sb_kind in
                let file = Progen.sb_file sb in
                if
                  Progen.expected_static ~flags sb.Progen.sb_kind
                  && not (Errclass.witnessed ~file ~cls reports)
                then
                  push
                    {
                      f_kind = Soundness_gap;
                      f_class = cls;
                      f_file = file;
                      f_detail =
                        Fmt.str
                          "seeded %s in %s has no static diagnostic"
                          (Progen.bug_kind_string sb.Progen.sb_kind)
                          sb.Progen.sb_fn;
                    };
                let observed_error c =
                  List.exists
                    (fun (e : Heap.error) ->
                      Heap.error_class e.Heap.e_kind = c
                      && e.Heap.e_loc.Cfront.Loc.file = file)
                    dres.Rtcheck.errors
                and observed_leak c =
                  List.exists
                    (fun (lk : Heap.leak) ->
                      Heap.leak_class lk = c
                      && lk.Heap.lk_block.Heap.b_alloc_site
                           .Cfront.Loc.file = file)
                    dres.Rtcheck.leaks
                in
                match
                  Progen.expected_dynamic ~executed:sb.Progen.sb_executed
                    sb.Progen.sb_kind
                with
                | `Nothing -> ()
                | `Error when observed_error cls -> ()
                | `Leak when observed_leak cls -> ()
                | `Error | `Leak ->
                    push
                      {
                        f_kind = Harness_bug;
                        f_class = cls;
                        f_file = file;
                        f_detail =
                          Fmt.str
                            "baseline missed executed seeded %s in %s"
                            (Progen.bug_kind_string sb.Progen.sb_kind)
                            sb.Progen.sb_fn;
                      })
              seeded
          end;
          {
            v_findings = dedupe (List.rev !findings);
            v_static_reports = n_static;
            v_dynamic_errors = List.length dres.Rtcheck.errors;
            v_dynamic_leaks = List.length dres.Rtcheck.leaks;
          })

type outcome = { o_trial : trial; o_verdict : verdict }

let run_trial ?(flags = Annot.Flags.default) (t : trial) : outcome =
  Telemetry.Counter.tick Telemetry.c_difftest_trials;
  let verdict =
    match
      Progen.generate ~seed:t.t_seed ~modules:t.t_modules
        ~fns_per_module:t.t_fns ~bugs:t.t_bugs ~coverage:t.t_coverage ()
    with
    | exception e ->
        {
          v_findings =
            [
              {
                f_kind = Harness_bug;
                f_class = "crash";
                f_file = "<generator>";
                f_detail = "generator raised: " ^ Printexc.to_string e;
              };
            ];
          v_static_reports = 0;
          v_dynamic_errors = 0;
          v_dynamic_leaks = 0;
        }
    | p -> classify ~flags ~max_steps:t.t_max_steps p
  in
  Telemetry.Counter.add Telemetry.c_difftest_findings
    (List.length verdict.v_findings);
  { o_trial = t; o_verdict = verdict }

let sweep ?(jobs = 1) ?(flags = Annot.Flags.default) (trials : trial list) :
    outcome list =
  let arr = Array.of_list trials in
  let results =
    Parcheck.map_tasks ~jobs (Array.length arr) (fun i ->
        run_trial ~flags arr.(i))
  in
  Array.to_list results

let gaps outcomes =
  List.concat_map
    (fun o ->
      List.filter (fun f -> f.f_kind <> Blind_spot) o.o_verdict.v_findings)
    outcomes

(* ------------------------------------------------------------------ *)
(* OOM fault-injection sweep *)

(** Re-classify [p] once per heap allocation request, forcing that
    request to fail ([limit] caps the schedule).  The request count
    comes from an ordinary baseline run, so the schedule covers every
    site the program actually reaches. *)
let oom_sweep_program ?(flags = Annot.Flags.default) ?(max_steps = 200_000)
    ?limit (p : Progen.program) : (int * verdict) list =
  let base = Progen.dynamic_check ~flags ~max_steps p in
  let n = base.Rtcheck.alloc_requests in
  let n = match limit with Some l -> min l n | None -> n in
  List.init n (fun i ->
      let site = i + 1 in
      Telemetry.Counter.tick Telemetry.c_difftest_trials;
      (site, classify ~flags ~max_steps ~oom_fail:site p))

let run_trial_oom ?(flags = Annot.Flags.default) ?limit (t : trial) :
    (int * verdict) list =
  match
    Progen.generate ~seed:t.t_seed ~modules:t.t_modules
      ~fns_per_module:t.t_fns ~bugs:t.t_bugs ~coverage:t.t_coverage ()
  with
  | exception e ->
      [
        ( 0,
          {
            v_findings =
              [
                {
                  f_kind = Harness_bug;
                  f_class = "crash";
                  f_file = "<generator>";
                  f_detail = "generator raised: " ^ Printexc.to_string e;
                };
              ];
            v_static_reports = 0;
            v_dynamic_errors = 0;
            v_dynamic_leaks = 0;
          } );
      ]
  | p -> oom_sweep_program ~flags ~max_steps:t.t_max_steps ?limit p

let oom_gaps (sweep : (int * verdict) list) : finding list =
  List.concat_map
    (fun (_, v) -> List.filter (fun f -> f.f_kind <> Blind_spot) v.v_findings)
    sweep

(* ------------------------------------------------------------------ *)
(* Reduction *)

let contains_sub text sub =
  let nt = String.length text and ns = String.length sub in
  let rec go i = i + ns <= nt && (String.sub text i ns = sub || go (i + 1)) in
  ns > 0 && go 0

let lines_of text = String.split_on_char '\n' text
let text_of lines = String.concat "\n" lines

(* Seeded metadata survives reduction only while the carrier function
   still exists in its file; stale entries would turn every later
   validation into a spurious metadata gap. *)
let live_seeded files seeded =
  List.filter
    (fun (sb : Progen.seeded) ->
      match List.assoc_opt (Progen.sb_file sb) files with
      | Some text -> contains_sub text (sb.Progen.sb_fn ^ "(")
      | None -> false)
    seeded

let matches_key key f =
  f.f_kind = key.f_kind && f.f_class = key.f_class && f.f_file = key.f_file

(* Remove driver lines mentioning [needle]: whole two-space-indented
   blocks when any of their lines mention it, single lines otherwise. *)
let scrub_driver needle text =
  let rec go acc = function
    | [] -> List.rev acc
    | "  {" :: rest ->
        let rec take blk = function
          | "  }" :: rest -> (List.rev blk, rest)
          | l :: rest -> take (l :: blk) rest
          | [] -> (List.rev blk, [])
        in
        let blk, rest = take [] rest in
        if List.exists (fun l -> contains_sub l needle) blk then go acc rest
        else go (("  }" :: List.rev_append blk [ "  {" ]) @ acc) rest
    | l :: rest ->
        if contains_sub l needle then go acc rest else go (l :: acc) rest
  in
  text_of (go [] (lines_of text))

(* Function chunks in a generated module file: a column-0 signature
   line followed by "{" at column 0, closed by "}" at column 0. *)
let function_chunks text =
  let lines = Array.of_list (lines_of text) in
  let n = Array.length lines in
  let name_of_sig sig_line =
    match String.index_opt sig_line '(' with
    | None -> None
    | Some p ->
        let is_ident c =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '_'
        in
        let e = ref (p - 1) in
        while !e >= 0 && not (is_ident sig_line.[!e]) do decr e done;
        let s = ref !e in
        while !s >= 0 && is_ident sig_line.[!s] do decr s done;
        if !e < 0 then None
        else Some (String.sub sig_line (!s + 1) (!e - !s))
  in
  let chunks = ref [] in
  let i = ref 0 in
  while !i < n - 1 do
    let l = lines.(!i) in
    if
      l <> "" && l.[0] <> ' ' && l.[0] <> '}'
      && contains_sub l "("
      && lines.(!i + 1) = "{"
    then begin
      let j = ref (!i + 2) in
      while !j < n && lines.(!j) <> "}" do incr j done;
      (match name_of_sig l with
      | Some fn when !j < n -> chunks := (fn, !i, !j) :: !chunks
      | _ -> ());
      i := !j + 1
    end
    else incr i
  done;
  List.rev !chunks

let drop_line_range text lo hi =
  lines_of text
  |> List.filteri (fun i _ -> i < lo || i > hi)
  |> text_of

let drop_calls fn text =
  lines_of text
  |> List.filter (fun l ->
         let t = String.trim l in
         not (contains_sub l (fn ^ "(") && t <> "" &&
              t.[String.length t - 1] = ';'))
  |> text_of

let module_files files =
  List.filter_map
    (fun (name, _) ->
      if name <> "driver.c" && Filename.check_suffix name ".c" then
        Some name
      else None)
    files

let reduce ?(flags = Annot.Flags.default) ?(max_steps = 200_000)
    ?(budget = 400) ~(key : finding) (p : Progen.program) : Progen.program =
  let checks = ref 0 in
  let seeded0 = p.Progen.seeded in
  let baseline = ref [] in
  let classify_files files =
    if !checks >= budget then None
    else begin
      incr checks;
      Telemetry.Counter.tick Telemetry.c_difftest_checks;
      let prog =
        Progen.of_files ~seeded:(live_seeded files seeded0) files
      in
      match classify ~flags ~max_steps prog with
      | v -> Some v
      | exception _ -> None
    end
  in
  let valid files =
    match classify_files files with
    | None -> false
    | Some v ->
        List.exists (matches_key key) v.v_findings
        (* a shrink that surfaces a divergence absent from the original
           program has wandered onto a different bug (e.g. emptying a
           loop's break arm turns a use-after-free into a double free):
           reject it so reproducers stay faithful to what they pin *)
        && List.for_all
             (fun f -> List.exists (matches_key f) !baseline)
             v.v_findings
  in
  let keyed =
    match classify_files p.Progen.files with
    | Some v when List.exists (matches_key key) v.v_findings ->
        baseline := v.v_findings;
        true
    | _ -> false
  in
  if not keyed then p
  else begin
    let files = ref p.Progen.files in
    let try_accept candidate =
      if candidate <> !files && valid candidate then begin
        files := candidate;
        true
      end
      else false
    in
    (* Stage 1: whole modules (never the key's own file). *)
    List.iter
      (fun m ->
        if m <> key.f_file then begin
          let prefix = Filename.remove_extension m ^ "_" in
          let candidate =
            List.filter_map
              (fun (name, text) ->
                if name = m then None
                else if name = "driver.c" then
                  Some (name, scrub_driver prefix text)
                else Some (name, text))
              !files
          in
          ignore (try_accept candidate)
        end)
      (module_files !files);
    (* Stage 2 (functions) and stage 3 (single statements), to a
       fixpoint or until the validation budget runs out. *)
    let changed = ref true in
    while !changed && !checks < budget do
      changed := false;
      (* whole functions, with their call sites *)
      List.iter
        (fun m ->
          let rec shrink () =
            match List.assoc_opt m !files with
            | None -> ()
            | Some text ->
                let progress =
                  List.exists
                    (fun (fn, lo, hi) ->
                      let candidate =
                        List.map
                          (fun (name, t) ->
                            if name = m then
                              (name, drop_line_range t lo hi)
                            else (name, drop_calls fn t))
                          !files
                      in
                      try_accept candidate)
                    (function_chunks text)
                in
                if progress && !checks < budget then begin
                  changed := true;
                  shrink ()
                end
          in
          shrink ())
        (module_files !files);
      (* single statement lines (anything ending in ';'), plus blocks
         emptied by earlier drops *)
      List.iter
        (fun (name, _) ->
          let rec shrink () =
            match List.assoc_opt name !files with
            | None -> ()
            | Some text ->
                let lines = Array.of_list (lines_of text) in
                let n = Array.length lines in
                let progress = ref false in
                let i = ref 0 in
                while !i < n && !checks < budget do
                  let t = String.trim lines.(!i) in
                  let droppable_stmt =
                    t <> "" && t.[String.length t - 1] = ';'
                    && not (contains_sub t "typedef")
                  in
                  let empty_block =
                    t = "{" && !i + 1 < n
                    && String.trim lines.(!i + 1) = "}"
                    && String.length lines.(!i) > 1  (* indented only *)
                  in
                  (if droppable_stmt then begin
                     let candidate =
                       List.map
                         (fun (nm, txt) ->
                           if nm = name then
                             (nm, drop_line_range txt !i !i)
                           else (nm, txt))
                         !files
                     in
                     if try_accept candidate then progress := true
                   end
                   else if empty_block then begin
                     let candidate =
                       List.map
                         (fun (nm, txt) ->
                           if nm = name then
                             (nm, drop_line_range txt !i (!i + 1))
                           else (nm, txt))
                         !files
                     in
                     if try_accept candidate then progress := true
                   end);
                  incr i
                done;
                if !progress && !checks < budget then begin
                  changed := true;
                  shrink ()
                end
          in
          shrink ())
        !files
    done;
    Progen.of_files ~seeded:(live_seeded !files seeded0) !files
  end

(* ------------------------------------------------------------------ *)
(* Regression corpus *)

let file_marker name = Printf.sprintf "/* === file: %s === */" name

let render_repro (p : Progen.program) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, text) ->
      Buffer.add_string buf (file_marker name);
      Buffer.add_char buf '\n';
      Buffer.add_string buf text;
      if text = "" || text.[String.length text - 1] <> '\n' then
        Buffer.add_char buf '\n')
    p.Progen.files;
  Buffer.contents buf

let parse_repro text =
  let prefix = "/* === file: " and suffix = " === */" in
  let np = String.length prefix and ns = String.length suffix in
  (* each rendered chunk ends with a newline (render_repro appends one
     when the source text lacks it), so every parsed body gets its
     final newline back after the line split *)
  let flush acc name body =
    match name with
    | None -> acc
    | Some n -> (n, text_of (List.rev body) ^ "\n") :: acc
  in
  let rec go acc name body = function
    | [] -> List.rev (flush acc name body)
    | l :: rest ->
        let ll = String.length l in
        if
          ll > np + ns
          && String.sub l 0 np = prefix
          && String.sub l (ll - ns) ns = suffix
        then
          let n = String.sub l np (ll - np - ns) in
          go (flush acc name body) (Some n) [] rest
        else go acc name (l :: body) rest
  in
  let lines =
    (* the overall trailing newline is chunk structure, not body text *)
    match List.rev (lines_of text) with
    | "" :: rest -> List.rev rest
    | _ -> lines_of text
  in
  go [] None [] lines

let bug_kind_of_string s =
  List.find_opt
    (fun k -> Progen.bug_kind_string k = s)
    Progen.all_bug_kinds

let seeded_json (sb : Progen.seeded) =
  Json.Obj
    [
      ("kind", Json.String (Progen.bug_kind_string sb.Progen.sb_kind));
      ("module", Json.Int sb.Progen.sb_module);
      ("fn", Json.String sb.Progen.sb_fn);
      ("executed", Json.Bool sb.Progen.sb_executed);
    ]

let write_regression ~dir ~name ~(trial : trial) (key : finding)
    (p : Progen.program) =
  let recover, cite =
    match
      List.find_opt
        (fun bs -> bs.bs_class = key.f_class)
        (blind_spots Annot.Flags.default)
    with
    | Some bs -> (bs.bs_recover, Some bs.bs_cite)
    | None -> (None, None)
  in
  let record =
    Json.Obj
      [
        ("name", Json.String name);
        ("seed", Json.Int trial.t_seed);
        ("kind", Json.String (kind_string key.f_kind));
        ("class", Json.String key.f_class);
        ("file", Json.String key.f_file);
        ("detail", Json.String key.f_detail);
        ( "recover",
          match recover with Some f -> Json.String f | None -> Json.Null );
        ( "cite",
          match cite with Some c -> Json.String c | None -> Json.Null );
        ("max_steps", Json.Int trial.t_max_steps);
        ("loc", Json.Int p.Progen.loc);
        ("seeded", Json.List (List.map seeded_json p.Progen.seeded));
      ]
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write_file (Filename.concat dir (name ^ ".c")) (render_repro p);
  write_file
    (Filename.concat dir (name ^ ".json"))
    (Json.to_string record ^ "\n")

type replayed = {
  r_name : string;
  r_expected : finding;
  r_recover : string option;
  r_verdict : verdict;
  r_matched : bool;
}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ( let* ) = Result.bind

let replay ?(flags = Annot.Flags.default) (c_path : string) :
    (replayed, string) result =
  let json_path = Filename.remove_extension c_path ^ ".json" in
  let* source =
    try Ok (read_file c_path)
    with Sys_error m -> Error ("cannot read reproducer: " ^ m)
  in
  let* record_text =
    try Ok (read_file json_path)
    with Sys_error m -> Error ("cannot read triage record: " ^ m)
  in
  let* record = Json.of_string record_text in
  let str k =
    match Option.bind (Json.member k record) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "triage record: missing %S" k)
  in
  let* name = str "name" in
  let* kind_s = str "kind" in
  let* cls = str "class" in
  let* file = str "file" in
  let* kind =
    match kind_of_string kind_s with
    | Some k -> Ok k
    | None -> Error ("triage record: unknown kind " ^ kind_s)
  in
  let max_steps =
    match Option.bind (Json.member "max_steps" record) Json.to_int_opt with
    | Some n -> n
    | None -> 200_000
  in
  let recover =
    Option.bind (Json.member "recover" record) Json.to_string_opt
  in
  let* seeded =
    match Json.member "seeded" record with
    | Some (Json.List entries) ->
        let parse_one = function
          | Json.Obj _ as o -> (
              let s k = Option.bind (Json.member k o) Json.to_string_opt in
              let i k = Option.bind (Json.member k o) Json.to_int_opt in
              let b k =
                match Json.member k o with
                | Some (Json.Bool v) -> Some v
                | _ -> None
              in
              match
                (Option.bind (s "kind") bug_kind_of_string, i "module",
                 s "fn", b "executed")
              with
              | Some kind, Some m, Some fn, Some ex ->
                  Ok
                    {
                      Progen.sb_kind = kind;
                      sb_module = m;
                      sb_fn = fn;
                      sb_executed = ex;
                    }
              | _ -> Error "triage record: malformed seeded entry")
          | _ -> Error "triage record: malformed seeded entry"
        in
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* one = parse_one e in
            Ok (one :: acc))
          (Ok []) entries
        |> Result.map List.rev
    | _ -> Error "triage record: missing seeded list"
  in
  let files = parse_repro source in
  if files = [] then Error "reproducer has no file markers"
  else begin
    let prog = Progen.of_files ~seeded files in
    let verdict = classify ~flags ~max_steps prog in
    let expected = { f_kind = kind; f_class = cls; f_file = file;
                     f_detail = "" } in
    Ok
      {
        r_name = name;
        r_expected = expected;
        r_recover = recover;
        r_verdict = verdict;
        r_matched = List.exists (matches_key expected) verdict.v_findings;
      }
  end
