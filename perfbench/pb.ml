(* The benchmark's OCaml half.  run.py builds this next to
   bin/olclint.exe and calls it two ways:

     pb gen WORKLOAD SEED DIR
       Generate the workload's corpus from SEED, write it to DIR/src and
       print the CPU seconds that took: the set-up time of batch and
       infer.

     pb answers WORKLOAD SEED DIR
       Generate the same corpus again and write the known answers the
       checker's output is scored against to DIR/answers.json.  The
       answers come from the generator: its record of seeded bugs, and
       the annotations it declared before they were stripped (read back
       from the annotated source), never from a checking or inference
       run.

     pb calib
       Time a fixed amount of work that uses none of the repo's code,
       and print the wall and the CPU seconds it took.

     pb trace batch|session DIR
     pb trace infer SEED DIR
       Replay the layer calls olclint makes for the workload, in the
       same order, with a span around each call, and print one JSON
       object of per-layer figures.  Spans live in memory and are
       written out at the end; nothing inside the program is traced.
       Every workload reports the same figures; a layer its replay
       never enters reads 0.  The replayed operation also runs once
       with spans off, for the tracing overhead.  The infer trace
       regenerates a quarter-size corpus from SEED.

   Workload shapes (modules x functions per module):
     batch    150 x 62, every bug kind, annotated   (E10's large corpus)
     session  240 x 25, every bug kind, annotated   (E13's corpus)
     infer     64 x 25, rich annotations stripped   (E16's shape) *)

module J = Telemetry.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let infer_modules = 64

let shape = function
  | "batch" -> (150, 62)
  | "session" -> (240, 25)
  | "infer" -> (infer_modules, 25)
  | w -> failwith ("unknown workload " ^ w)

let generate workload ~seed ~quarter =
  let modules, fns_per_module = shape workload in
  let modules = if quarter then modules / 4 else modules in
  match workload with
  | "infer" ->
      Progen.generate ~seed ~modules ~fns_per_module ~annotated:true ~rich:true
        ()
  | _ ->
      Progen.generate ~seed ~modules ~fns_per_module ~bugs:Progen.all_bug_kinds
        ()

(* The declared annotations of the kinds inference can synthesize, per
   interface slot of every defined function (E16's ground truth).
   Implicit [only] from the allimponly convention is left out: nobody
   wrote it down. *)
let declared_slots prog =
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

(* The files as olclint sees them: inference works on a stripped copy. *)
let corpus_files workload (p : Progen.program) =
  match workload with
  | "infer" ->
      List.map (fun (n, t) -> (n, Infer.strip_annotations t)) p.Progen.files
  | _ -> p.Progen.files

(* CPU seconds (user and system) this process has used. *)
let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Prints the CPU seconds spent generating and writing, which leaves
   the process's own start and exit out of the set-up time.  CPU time,
   not wall time: a set-up takes 10 to 25 ms, and on a shared machine
   its wall time doubles whenever the process waits for a core. *)
let gen workload seed dir =
  let t0 = cpu_time () in
  let p = generate workload ~seed ~quarter:false in
  let src = Filename.concat dir "src" in
  mkdir_p src;
  List.iter
    (fun (n, t) -> write_file (Filename.concat src n) t)
    (corpus_files workload p);
  Printf.printf "%.9f\n" (cpu_time () -. t0)

let answers workload seed dir =
  let p = generate workload ~seed ~quarter:false in
  let answers =
    match workload with
    | "infer" ->
        let triple (f, s, w) = J.List [ J.String f; J.String s; J.String w ] in
        [
          ( "declared",
            J.List (List.map triple (declared_slots (Progen.analyse p))) );
        ]
    | _ ->
        let flags = Annot.Flags.default in
        let expected =
          List.filter
            (fun sb -> Progen.expected_static ~flags sb.Progen.sb_kind)
            p.Progen.seeded
        in
        [
          ( "expected",
            J.List
              (List.map
                 (fun sb ->
                   J.Obj
                     [
                       ("file", J.String (Progen.sb_file sb));
                       ("fn", J.String sb.Progen.sb_fn);
                       ("kind", J.String (Progen.bug_kind_string sb.Progen.sb_kind));
                     ])
                 expected) );
        ]
  in
  let doc =
    J.Obj
      ([
         ("workload", J.String workload);
         ("seed", J.Int seed);
         ("lines", J.Int p.Progen.loc);
         ( "files",
           J.List (List.map (fun (n, _) -> J.String n) (corpus_files workload p)) );
       ]
      @ answers)
  in
  mkdir_p dir;
  write_file (Filename.concat dir "answers.json") (J.to_string doc ^ "\n")

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Words allocated so far on the calling domain.  [Gc.counters] only
   catches up with minor allocation at each minor collection, which
   would charge a span with the words of the spans before it;
   [Gc.minor_words] is exact, and the major heap's own allocations
   ([major_words] less [promoted_words]) are counted as they are made. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

type agg = {
  mutable total : float;  (* seconds, summed over calls *)
  mutable children : float;  (* seconds covered by child spans *)
  mutable alloc : float;  (* words, less those of child spans *)
}

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* Off for the untraced replays the tracing overhead is measured
   against: [span] then only calls its function. *)
let tracing = ref true

(* the child-time and child-allocation accumulators of the innermost
   open span *)
let open_children = ref (ref 0.0)
let open_alloc = ref (ref 0.0)

let traced_span name f =
  let a =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
        let a = { total = 0.0; children = 0.0; alloc = 0.0 } in
        Hashtbl.add aggs name a;
        a
  in
  let parent = !open_children and parent_alloc = !open_alloc in
  let mine = ref 0.0 and mine_alloc = ref 0.0 in
  open_children := mine;
  open_alloc := mine_alloc;
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    a.total <- a.total +. dt;
    a.children <- a.children +. !mine;
    let dw = allocated_words () -. w0 in
    a.alloc <- a.alloc +. dw -. !mine_alloc;
    parent := !parent +. dt;
    parent_alloc := !parent_alloc +. dw;
    open_children := parent;
    open_alloc := parent_alloc
  in
  Fun.protect ~finally:finish f

let span name f = if !tracing then traced_span name f else f ()

let self_ms name =
  match Hashtbl.find_opt aggs name with
  | Some a -> (a.total -. a.children) *. 1000.0
  | None -> 0.0

let total_ms name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a.total *. 1000.0
  | None -> 0.0

(* Every span of every workload's replay.  Each workload reports them
   all: a span its replay never enters reads 0, which is what that
   layer costs on that workload's path. *)
let all_spans =
  [
    "replay.pipeline"; "stdspec.env"; "cfront.read"; "cfront.lex";
    "cfront.to_array"; "cfront.parse"; "sema.analyze"; "parcheck.check_j1";
    "check.emit"; "ir.lower"; "parcheck.check_j2"; "infer.run"; "infer.patch";
    "incr.cold"; "incr.clean"; "incr.patched"; "incr.rebuilt"; "sema.rebuild";
    "summary.of_program"; "incr.save"; "incr.load"; "incr.adopt";
  ]

(* The figures that are not spans, likewise reported by every workload,
   as 0 where the workload has none of what they count. *)
let all_extras =
  [
    "cfront.tokens"; "cfront.lex_mtok_per_s"; "parcheck.tasks";
    "check.store_ops"; "infer.probes"; "infer.us_per_probe";
    "infer.alloc_w_per_probe"; "infer.accept_ratio"; "infer.probe_cost_growth";
    "incr.encode_ms"; "incr.patched_rechecked"; "incr.rebuilt_rechecked";
    "incr.cache_mb"; "trace_overhead_ms";
  ]

(* Every span's self time ([NAME_ms]) and self allocation
   ([NAME.alloc_mw], millions of words), then the extra figures, then
   [internal] figures for run.py that are not metrics (the replayed
   operation's time under spans, [op_span_ms], among them).  [extra] must
   name only figures in [all_extras]. *)
let print_report ?(internal = []) extra =
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem name all_spans) then failwith ("unlisted span " ^ name))
    aggs;
  let spans =
    List.concat_map
      (fun name ->
        let alloc =
          match Hashtbl.find_opt aggs name with Some a -> a.alloc | None -> 0.0
        in
        [
          (name ^ "_ms", J.Float (self_ms name));
          (name ^ ".alloc_mw", J.Float (alloc /. 1e6));
        ])
      all_spans
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k all_extras) then failwith ("unlisted figure " ^ k))
    extra;
  let extras =
    List.map
      (fun k ->
        (k, match List.assoc_opt k extra with Some v -> v | None -> J.Int 0))
      all_extras
  in
  print_endline (J.to_string (J.Obj (spans @ extras @ internal)))

(* Wall seconds of [f ()] with spans off, after a compaction so that it
   and the traced replay it is compared with start from the same heap. *)
let untraced f =
  Gc.compact ();
  tracing := false;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  tracing := true;
  Gc.compact ();
  (r, dt)

(* ------------------------------------------------------------------ *)
(* The traced replays                                                  *)
(* ------------------------------------------------------------------ *)

(* The corpus files, in the order [pb gen] wrote them. *)
let workload_files dir =
  let names =
    match J.of_string (read_file (Filename.concat dir "answers.json")) with
    | Ok doc -> (
        match J.member "files" doc with
        | Some (J.List l) -> List.filter_map J.to_string_opt l
        | _ -> failwith "answers.json: no files")
    | Error msg -> failwith ("answers.json: " ^ msg)
  in
  List.map (fun n -> Filename.concat (Filename.concat dir "src") n) names

(* Wall time of [f ()] for figures that are not spans. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [Parser.parse_string] lexes, then seeds a fresh parser's typedef
   table with the names already known and parses.  The table can only
   be seeded through parse_string, so the replay seeds it by putting
   the tokens of one [typedef int NAME;] per name before the file's
   own, outside every layer span, and parsing those declarations first;
   the parser only asks whether a name is a typedef.  The tokens are
   built directly rather than lexed, so the seeding leaves little
   garbage for the GC to collect inside the layer spans that follow.
   This leaves the lexer and the parser each in a span of their own. *)
let seeded_parser ~file ~typedefs toks =
  let loc = toks.(0).Cfront.Token.loc in
  let tok kind = { Cfront.Token.kind; loc } in
  let typedef = tok Cfront.Token.KwTypedef
  and int = tok Cfront.Token.KwInt
  and semi = tok Cfront.Token.Semi in
  let prefix =
    List.concat_map
      (fun n -> [ typedef; int; tok (Cfront.Token.Ident n); semi ])
      typedefs
  in
  let p = Cfront.Parser.create ~file (Array.append (Array.of_list prefix) toks) in
  List.iter (fun _ -> ignore (Cfront.Parser.parse_topdecl p)) typedefs;
  p

(* olclint's front half, call for call: the standard library
   environment, then per file read, lex, parse, sema.  Returns the
   program, the texts read and the number of tokens lexed. *)
let front_half ~flags files =
  let prog = span "stdspec.env" (fun () -> Stdspec.environment ~flags ()) in
  let tokens = ref 0 in
  let texts =
    List.map
      (fun file ->
        let typedefs =
          Hashtbl.fold (fun k _ acc -> k :: acc) prog.Sema.p_typedefs []
        in
        let text = span "cfront.read" (fun () -> read_file file) in
        (* [Lexer.tokenize_array] is [Array.of_list] of [Lexer.tokenize];
           the copy gets a child span, since the major GC work it
           triggers costs about as much as the lexing *)
        let toks =
          span "cfront.lex" (fun () ->
              let l = Cfront.Lexer.tokenize ~file text in
              span "cfront.to_array" (fun () -> Array.of_list l))
        in
        tokens := !tokens + Array.length toks;
        let p = seeded_parser ~file ~typedefs toks in
        let tu = span "cfront.parse" (fun () -> Cfront.Parser.parse_tunit p) in
        span "sema.analyze" (fun () -> ignore (Sema.analyze ~flags ~into:prog tu));
        (file, text))
      files
  in
  (prog, texts, !tokens)

(* A fresh program for the replays that are not themselves measured. *)
let fresh_program ~flags texts =
  Progen.analyse ~flags { Progen.files = texts; seeded = []; loc = 0 }

(* olclint's emission tail, as in bin/olclint.ml: suppression, sort,
   render. *)
let emit prog check_diags =
  let table, errs = Check.Suppress.of_pragmas prog.Sema.p_pragmas in
  List.iter (Cfront.Diag.Collector.emit prog.Sema.diags) errs;
  let all =
    Cfront.Diag.Collector.sort_emission
      (Cfront.Diag.Collector.all prog.Sema.diags @ check_diags)
  in
  let kept, suppressed = Check.Suppress.filter table all in
  let b = Buffer.create 4096 in
  List.iter
    (fun d ->
      Buffer.add_string b (Cfront.Diag.to_string d);
      Buffer.add_char b '\n')
    kept;
  Printf.bprintf b "%d code warning%s%s\n" (List.length kept)
    (if List.length kept = 1 then "" else "s")
    (if suppressed = [] then ""
     else Printf.sprintf " (%d suppressed)" (List.length suppressed));
  Buffer.contents b

(* The sum of the self times of [root]'s child spans, in ms: the time
   the layer spans cover of one replayed operation. *)
let children_ms root = (Hashtbl.find aggs root).children *. 1000.0

let trace_batch dir =
  let flags = Annot.Flags.default in
  let files = workload_files dir in
  let pipeline () =
    let prog, texts, tokens = front_half ~flags files in
    let diags =
      span "parcheck.check_j1" (fun () -> Parcheck.check_program ~jobs:1 prog)
    in
    (prog, texts, tokens, span "check.emit" (fun () -> emit prog diags))
  in
  let _, untraced_s = untraced pipeline in
  let prog, texts, tokens, out = span "replay.pipeline" pipeline in
  write_file (Filename.concat dir "trace_out.txt") out;
  (* Off the pipeline: lowering alone, then the check at -j 2 and the
     counted check at -j 1 on fresh programs (a second check of [prog]
     would find its lowered procedures cached). *)
  span "ir.lower" (fun () ->
      List.iter (fun (_, fd) -> ignore (Ir.lower_fundef fd)) (Sema.fundefs prog));
  let prog2 = fresh_program ~flags texts in
  let diags2 =
    span "parcheck.check_j2" (fun () -> Parcheck.check_program ~jobs:2 prog2)
  in
  let out2 = emit prog2 diags2 in
  let prog3 = fresh_program ~flags texts in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  ignore (Parcheck.check_program ~jobs:1 prog3);
  let store_ops = Telemetry.Counter.value Telemetry.c_store_ops in
  Telemetry.set_enabled false;
  print_report
    [
      ("cfront.tokens", J.Int tokens);
      ( "cfront.lex_mtok_per_s",
        J.Float (float tokens /. 1e6 /. (total_ms "cfront.lex" /. 1000.0)) );
      ("parcheck.tasks", J.Int (Parcheck.task_count prog));
      ("check.store_ops", J.Int store_ops);
      ( "trace_overhead_ms",
        J.Float (total_ms "replay.pipeline" -. (untraced_s *. 1000.0)) );
    ]
    ~internal:
      [
        ("op_span_ms", J.Float (children_ms "replay.pipeline"));
        ("j2_identical", J.Bool (String.equal out out2));
      ]

let trace_infer seed dir =
  let flags = Annot.Flags.default in
  let files = workload_files dir in
  let pipeline () =
    let prog, texts, tokens = front_half ~flags files in
    let outcome = span "infer.run" (fun () -> Infer.run prog) in
    let patch =
      span "infer.patch" (fun () ->
          Infer.render_patch prog outcome ~read:(fun f -> List.assoc_opt f texts))
    in
    (outcome, patch, tokens)
  in
  let _, untraced_s = untraced pipeline in
  let outcome, patch, tokens = span "replay.pipeline" pipeline in
  write_file (Filename.concat dir "trace_patch.diff") patch;
  let probes = outcome.Infer.out_probes in
  let run_ms = total_ms "infer.run" in
  let run_alloc = (Hashtbl.find aggs "infer.run").alloc in
  let us_per_probe = run_ms *. 1000.0 /. float probes in
  (* the same seed at a quarter of the modules, unspanned *)
  let quarter =
    List.map
      (fun (n, t) -> (n, Infer.strip_annotations t))
      (generate "infer" ~seed ~quarter:true).Progen.files
  in
  let qprog = fresh_program ~flags quarter in
  let qout, qsecs = timed (fun () -> Infer.run qprog) in
  let q_us_per_probe = qsecs *. 1e6 /. float qout.Infer.out_probes in
  print_report
    [
      ("cfront.tokens", J.Int tokens);
      ( "cfront.lex_mtok_per_s",
        J.Float (float tokens /. 1e6 /. (total_ms "cfront.lex" /. 1000.0)) );
      ("infer.probes", J.Int probes);
      ("infer.us_per_probe", J.Float us_per_probe);
      ("infer.alloc_w_per_probe", J.Float (run_alloc /. float probes));
      ( "infer.accept_ratio",
        J.Float (float (List.length outcome.Infer.out_findings) /. float probes) );
      ("infer.probe_cost_growth", J.Float (us_per_probe /. q_us_per_probe));
      ( "trace_overhead_ms",
        J.Float (total_ms "replay.pipeline" -. (untraced_s *. 1000.0)) );
    ]
    ~internal:[ ("op_span_ms", J.Float (children_ms "replay.pipeline")) ]

(* The session workload's edits, the same two the client in run.py
   makes: a body edit of [mN_bump] and dropping [only] from
   [mN_create]'s result. *)
let body_anchor = "  r->weight = r->weight + by;\n"
let body_edit k = Printf.sprintf "  r->weight = r->weight + by + %d;\n" k
let iface_anchor m = Printf.sprintf "/*@only@*/ m%d_rec *m%d_create" m m
let iface_edit m = Printf.sprintf "m%d_rec *m%d_create" m m

let replace_once ~what ~with_ text =
  let wl = String.length what and tl = String.length text in
  let rec find i =
    if i + wl > tl then failwith ("edit anchor not found: " ^ what)
    else if String.sub text i wl = what then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ with_ ^ String.sub text (i + wl) (tl - i - wl)

let trace_session dir =
  let flags =
    match Annot.Flags.(apply_all default) [ "+loopexec"; "+xproc" ] with
    | Ok f -> f
    | Error _ -> failwith "flags"
  in
  let files = workload_files dir in
  let docs0 = List.map Incr.Service.doc_of_file files in
  let edited = Filename.concat (Filename.concat dir "src") "m120.c" in
  let edit what with_ docs =
    List.map
      (fun (d : Incr.Service.doc) ->
        if d.Incr.Service.doc_name = edited then
          { d with Incr.Service.doc_text = replace_once ~what ~with_ d.doc_text }
        else d)
      docs
  in
  let docs1 = edit body_anchor (body_edit 1) docs0 in
  let docs1b = edit body_anchor (body_edit 2) docs0 in
  let docs2 = edit (iface_anchor 120) (iface_edit 120) docs1 in
  let attempted = ref 0 and failed = ref [] in
  (* an empty [name] checks without a span *)
  let check name ?expect_rechecked svc tier docs =
    incr attempted;
    let run () = Incr.Service.check svc docs in
    match if name = "" then run () else span name run with
    | Error d -> failwith (Cfront.Diag.to_string d)
    | Ok oc ->
        let got = Incr.Service.tier_name oc.Incr.Service.oc_tier in
        if got <> tier then
          failed := Printf.sprintf "%s: tier %s, want %s" name got tier :: !failed;
        (match expect_rechecked with
        | Some n when n <> oc.Incr.Service.oc_rechecked ->
            failed :=
              Printf.sprintf "%s: rechecked %d, want %d" name
                oc.Incr.Service.oc_rechecked n
              :: !failed
        | _ -> ());
        oc
  in
  let render (oc : Incr.Service.outcome) =
    List.map Cfront.Diag.to_string oc.Incr.Service.oc_kept
    @ List.map Cfront.Diag.to_string oc.Incr.Service.oc_suppressed
  in
  let svc = Incr.Service.create ~flags () in
  ignore (check "incr.cold" svc "cold" docs0);
  ignore (check "incr.clean" svc "clean" docs0);
  let request =
    J.Obj
      [
        ("op", J.String "check");
        ("files", J.List (List.map (fun f -> J.String f) files));
      ]
  in
  let (), handle_s =
    timed (fun () -> ignore (J.to_string (fst (Incr.Server.handle svc request))))
  in
  (* the same request untraced, for the tracing overhead: another body
     edit of the same function, then the traced one *)
  let _, untraced_s =
    untraced (fun () ->
        check "untraced patched" ~expect_rechecked:1 svc "patched" docs1b)
  in
  let patched = check "incr.patched" ~expect_rechecked:1 svc "patched" docs1 in
  let rebuilt = check "incr.rebuilt" svc "rebuilt" docs2 in
  let final = check "" svc "rebuilt" docs1 in
  (* sema alone: every document parsed up front, then analysed into a
     fresh standard-library environment *)
  let env = Stdspec.environment ~flags () in
  List.iter
    (fun (d : Incr.Service.doc) ->
      let typedefs =
        Hashtbl.fold (fun k _ acc -> k :: acc) env.Sema.p_typedefs []
      in
      let tu =
        Cfront.Parser.parse_string ~typedefs ~file:d.Incr.Service.doc_name
          d.Incr.Service.doc_text
      in
      span "sema.rebuild" (fun () -> ignore (Sema.analyze ~flags ~into:env tu)))
    docs1;
  span "summary.of_program" (fun () -> ignore (Summary.of_program env));
  let blob = span "incr.save" (fun () -> Incr.Service.save svc) in
  let svc2 = Incr.Service.create ~flags () in
  (match span "incr.load" (fun () -> Incr.Service.load svc2 blob) with
  | Ok _ -> ()
  | Error msg -> failed := ("load: " ^ msg) :: !failed);
  let adopted = check "incr.adopt" ~expect_rechecked:0 svc2 "cold" docs1 in
  incr attempted;
  if render adopted <> render final then
    failed := "adopted diagnostics differ from the saved service's" :: !failed;
  (* Server.handle covers a clean check like [incr.clean]; the
     difference is request decoding, reading the named files and
     response encoding *)
  let encode_ms = (handle_s *. 1000.0) -. total_ms "incr.clean" in
  List.iter prerr_endline (List.rev !failed);
  print_report
    [
      ("incr.encode_ms", J.Float encode_ms);
      ("incr.patched_rechecked", J.Int patched.Incr.Service.oc_rechecked);
      ("incr.rebuilt_rechecked", J.Int rebuilt.Incr.Service.oc_rechecked);
      ("incr.cache_mb", J.Float (float (String.length blob) /. 1e6));
      ( "trace_overhead_ms",
        J.Float (total_ms "incr.patched" -. (untraced_s *. 1000.0)) );
    ]
    ~internal:
      [
        ("op_span_ms", J.Float (total_ms "incr.patched"));
        ("attempted", J.Int !attempted);
        ("failed", J.Int (List.length !failed));
      ]

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* A fixed amount of work that uses none of the repo's code, with the
   mix olclint spends its time on: allocation and GC, hashing strings,
   building a balanced tree, sorting a list.  run.py times it between
   samples and scales its timings by it, since the machine's speed
   moves by up to 2x, and olclint's times move with this loop's.
   Prints the wall and the CPU seconds it took. *)
let calib () =
  let module M = Map.Make (Int) in
  let t0 = Unix.gettimeofday () and c0 = cpu_time () in
  let st = ref 12345 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  let h = Hashtbl.create 16 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (string_of_int (next ())) i
  done;
  let m = ref M.empty in
  for i = 0 to 40_000 do
    m := M.add (next ()) i !m
  done;
  let l = List.sort compare (List.init 60_000 (fun _ -> next ())) in
  let sum = M.fold (fun k v acc -> acc + k + v) !m (Hashtbl.length h) in
  let dt = Unix.gettimeofday () -. t0 and dc = cpu_time () -. c0 in
  (* the result is used, so none of the work can be dropped *)
  if sum + List.length l = 0 then exit 1;
  Printf.printf "%.9f %.9f\n" dt dc

let usage () =
  prerr_endline
    "usage: pb gen|answers WORKLOAD SEED DIR | pb trace batch|session DIR \
     | pb trace infer SEED DIR | pb calib";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ _; "answers"; w; seed; dir ] -> answers w (int_of_string seed) dir
  | [ _; "calib" ] -> calib ()
  | [ _; "trace"; "batch"; dir ] -> trace_batch dir
  | [ _; "trace"; "infer"; seed; dir ] -> trace_infer (int_of_string seed) dir
  | [ _; "trace"; "session"; dir ] -> trace_session dir
  | _ -> usage ()
