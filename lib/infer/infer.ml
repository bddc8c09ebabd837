(** Interprocedural annotation inference (the tool's answer to the
    paper's Section 6 complaint that "adding annotations to a large
    legacy system is the main cost of adopting the checker").

    The pass walks the {!Summary.Callgraph} bottom-up and, for every
    unannotated pointer slot (return value or parameter) of a defined
    function, proposes Appendix-B annotations and keeps the ones the
    function's own body *proves*:

    - a candidate is installed into the symbol table
      ({!Sema.update_funsig}) and the function is re-checked against a
      scratch collector (a {e probe});
    - the candidate survives only if the probe reports no more
      diagnostics than the un-candidate baseline — the annotation's
      obligations are discharged by the body — and, for return-value
      annotations, only if every observed exit state
      ({!Check.Checker.exit_info}) actually exhibits the claimed
      property (never-null for [notnull], fresh obligation-carrying
      storage for [only]);
    - accepted annotations are marked with the {!Annot.mark_inferred}
      provenance bit, stay installed, and are immediately visible to
      callers (and, inside a strongly connected component, to the
      recursive calls of the component itself).

    Mutually recursive components iterate to a local fixpoint: rounds
    of candidate probing repeat until a full round accepts nothing.
    Because a later acceptance can invalidate the probe that justified
    an earlier one (the earlier probe ran against weaker assumptions),
    each component ends with a conservative widening step: while the
    component's total diagnostic count exceeds its original baseline,
    the most recently accepted annotation is retracted. *)

open Cfront
module Ctype = Sema.Ctype
module Ranker = Ranker

type slot = Ranker.slot = Sret | Sparam of int
[@@deriving eq, ord, show { with_path = false }]

(** One accepted annotation: [fd_word] (an Appendix-B keyword) on slot
    [fd_slot] of function [fd_fun]. *)
type finding = {
  fd_fun : string;
  fd_slot : slot;
  fd_word : string;
  fd_loc : Loc.t;
}

type outcome = {
  out_findings : finding list;  (** acceptance order *)
  out_rounds : int;  (** fixpoint rounds across all components *)
  out_sccs : int;  (** strongly connected components visited *)
  out_procedures : int;  (** defined procedures considered *)
  out_probes : int;  (** candidate probes executed *)
  out_skipped : int;  (** ranked candidates skipped by the probe budget *)
}

(* ------------------------------------------------------------------ *)
(* Annotation stripping (benchmarks, tests, the docs' worked example)  *)
(* ------------------------------------------------------------------ *)

(* A span whose word list carries the [inferred] provenance marker was
   written by a previous inference pass, not by hand; stripping must
   leave it alone so that stripping + re-inferring already-inferred
   headers is idempotent (the second pass sees the same interface the
   first pass produced and accepts nothing new). *)
let span_is_inferred (src : string) ~(start : int) ~(stop : int) : bool =
  (* content lies between the leading "/*@" and the trailing "*/" *)
  let lo = start + 3 in
  let hi = if stop >= 2 && stop - 2 >= lo then stop - 2 else lo in
  let content = String.sub src lo (hi - lo) in
  (* the closing "@*/" leaves a trailing '@' on the content *)
  let content =
    match String.rindex_opt content '@' with
    | Some k when k = String.length content - 1 -> String.sub content 0 k
    | _ -> content
  in
  String.split_on_char ' ' content
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.exists (String.equal "inferred")

let strip_annotations (src : string) : string =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let i = ref 0 in
  while !i < n do
    if
      !i + 2 < n
      && Bytes.get b !i = '/'
      && Bytes.get b (!i + 1) = '*'
      && Bytes.get b (!i + 2) = '@'
    then begin
      let j = ref (!i + 3) in
      let stop = ref n in
      (try
         while !j + 1 < n do
           if Bytes.get b !j = '*' && Bytes.get b (!j + 1) = '/' then begin
             stop := !j + 2;
             raise Exit
           end;
           incr j
         done
       with Exit -> ());
      if not (span_is_inferred src ~start:!i ~stop:!stop) then
        for k = !i to !stop - 1 do
          if Bytes.get b k <> '\n' then Bytes.set b k ' '
        done;
      i := !stop
    end
    else incr i
  done;
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

(* Candidate generation now lives in {!Ranker}: the grid this engine
   used to enumerate inline is {!Ranker.grid}, and {!Ranker.pipeline}
   merges it with the heuristic and external rankers, re-filtering
   against the *current* signature — so a filled category (explicit or
   freshly inferred) stops proposing itself, and mutually exclusive
   pairs (out/only on one parameter) cannot both install. *)
type cand = Ranker.candidate

(* Install a candidate into a signature.  Inferred [only] replaces the
   implicit allocation assumption, so [alloc_implicit] drops: checker
   messages then say "only" rather than "implicitly only". *)
let apply_cand (fs : Sema.funsig) (c : cand) : Sema.funsig =
  let upd (e : Sema.eannot) : Sema.eannot =
    let an = e.Sema.an in
    let an, alloc_implicit =
      match c.Ranker.rc_word with
      | "notnull" ->
          ({ an with Annot.an_null = Some Annot.NotNull }, e.Sema.alloc_implicit)
      | "null" ->
          ({ an with Annot.an_null = Some Annot.Null }, e.Sema.alloc_implicit)
      | "out" -> ({ an with Annot.an_def = Some Annot.Out }, e.Sema.alloc_implicit)
      | "only" -> ({ an with Annot.an_alloc = Some Annot.Only }, false)
      | w -> invalid_arg ("Infer.apply_cand: unknown word " ^ w)
    in
    { Sema.an = Annot.mark_inferred an; alloc_implicit }
  in
  match c.Ranker.rc_slot with
  | Sret -> { fs with Sema.fs_ret_annots = upd fs.Sema.fs_ret_annots }
  | Sparam i ->
      {
        fs with
        Sema.fs_params =
          List.mapi
            (fun j (p : Sema.param) ->
              if j = i then { p with Sema.pr_annots = upd p.Sema.pr_annots }
              else p)
            fs.Sema.fs_params;
      }

(* ------------------------------------------------------------------ *)
(* Probing                                                             *)
(* ------------------------------------------------------------------ *)

(* Re-check one function against a scratch collector; its diagnostics
   and raw exit states are the procedure summary. *)
let summarize (prog : Sema.program) (bodies : (string, Ast.fundef) Hashtbl.t)
    (name : string) : Diag.t list * Check.Checker.exit_info list =
  match Hashtbl.find_opt bodies name with
  | None -> ([], [])
  | Some f ->
      let fs = Hashtbl.find prog.Sema.p_funcs name in
      let scratch = Diag.Collector.create () in
      let exits = ref [] in
      Telemetry.Counter.tick Telemetry.c_infer_summaries;
      Check.Checker.check_fundef ~diags:scratch
        ~exit_obs:(fun xi -> exits := xi :: !exits)
        prog fs f;
      (Diag.Collector.all scratch, List.rev !exits)

(* Summaries of the CURRENT installed-signature state, by function name.
   Probing re-derives the baseline summary of a function for every
   candidate it tries; within one SCC round that baseline only changes
   when a candidate is accepted (the annotated signature stays
   installed) or the widening pass reinstalls signatures — so the cache
   is filled lazily and reset wholesale on either event.  [try_cand]'s
   temporary installs bypass it.  This roughly halves the checker runs
   of [run] without changing any acceptance decision. *)
type summary_cache = (string, Diag.t list * Check.Checker.exit_info list) Hashtbl.t

let summarize_cached (cache : summary_cache) prog bodies name =
  match Hashtbl.find_opt cache name with
  | Some s -> s
  | None ->
      let s = summarize prog bodies name in
      Hashtbl.add cache name s;
      s

(* Diagnostics are compared by position and category: installing an
   annotation rewords messages ("implicitly temp" becomes "only") but
   never moves source text, so (loc, code) identifies a complaint across
   probe runs. *)
let diag_key (d : Diag.t) =
  (d.Diag.loc.Loc.file, d.Diag.loc.Loc.line, d.Diag.loc.Loc.col, d.Diag.code)

(* [after] introduces no complaint absent from [before] (multiset
   inclusion): the candidate's obligations are fully discharged by the
   body.  A candidate that merely trades one complaint for another is
   rejected — it restates a problem, it doesn't express the interface. *)
let no_new_diags ~(before : Diag.t list) ~(after : Diag.t list) : bool =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let k = diag_key d in
      Hashtbl.replace seen k
        (1 + Option.value (Hashtbl.find_opt seen k) ~default:0))
    before;
  List.for_all
    (fun d ->
      let k = diag_key d in
      match Hashtbl.find_opt seen k with
      | Some n when n > 0 ->
          Hashtbl.replace seen k (n - 1);
          true
      | _ -> false)
    after

(* Exit-observation gates for return-value candidates: the probe's
   diagnostic count alone cannot justify them.  [notnull] on a
   possibly-null return adds no *local* error (the nullret complaint is
   already in the baseline), and the implicit-only convention means an
   [only] probe checks the same interface the baseline did.  So the
   returned value must demonstrably be never-null / obligation-carrying
   at every observed exit. *)
let ret_gate (c : cand) (exits : Check.Checker.exit_info list) : bool =
  match (c.Ranker.rc_slot, c.Ranker.rc_word) with
  | Sret, "notnull" ->
      exits <> []
      && List.for_all
           (fun (xi : Check.Checker.exit_info) ->
             match xi.Check.Checker.xi_ret with
             | Some (n, _) -> Check.State.equal_nullstate n Check.State.NSnotnull
             | None -> false)
           exits
  | Sret, "only" ->
      exits <> []
      && List.for_all
           (fun (xi : Check.Checker.exit_info) ->
             match xi.Check.Checker.xi_ret with
             | Some (_, a) -> Check.State.has_obligation a
             | None -> false)
           exits
  | Sret, "null" ->
      (* a [null] return claim is free locally (it only obliges
         callers), so demand positive evidence: some observed exit
         really can hand back null.  Only the shape ranker proposes
         this (NULL-returning allocator wrappers); the grid never did. *)
      exits <> []
      && List.exists
           (fun (xi : Check.Checker.exit_info) ->
             match xi.Check.Checker.xi_ret with
             | Some (n, _) ->
                 Check.State.equal_nullstate n Check.State.NSnull
                 || Check.State.equal_nullstate n Check.State.NSpossnull
             | None -> false)
           exits
  | _ -> true

(* Probe one candidate.  On acceptance the annotated signature stays
   installed; on rejection the original is restored.  Returns whether
   it was accepted. *)
let try_cand (prog : Sema.program) (bodies : (string, Ast.fundef) Hashtbl.t)
    (cache : summary_cache) (name : string) (c : cand) : bool =
  let fs0 = Hashtbl.find prog.Sema.p_funcs name in
  (* For return-[only] the interesting comparison is against a
     signature with *no* allocation claim at all: under the default
     flags the baseline already carries the implicit only, and probing
     the explicit spelling against it would measure nothing. *)
  let base_fs =
    match (c.Ranker.rc_slot, c.Ranker.rc_word) with
    | Sret, "only" ->
        let e = fs0.Sema.fs_ret_annots in
        {
          fs0 with
          Sema.fs_ret_annots =
            {
              Sema.an = { e.Sema.an with Annot.an_alloc = None };
              alloc_implicit = false;
            };
        }
    | _ -> fs0
  in
  let before, _ =
    if base_fs == fs0 then
      (* unchanged baseline signature: reuse the per-SCC summary *)
      summarize_cached cache prog bodies name
    else begin
      Sema.update_funsig prog base_fs;
      summarize prog bodies name
    end
  in
  Sema.update_funsig prog (apply_cand base_fs c);
  let after, exits = summarize prog bodies name in
  if no_new_diags ~before ~after && ret_gate c exits then begin
    (* the candidate stays installed: every cached summary may change *)
    Hashtbl.reset cache;
    true
  end
  else begin
    Sema.update_funsig prog fs0;
    false
  end

(* ------------------------------------------------------------------ *)
(* The fixpoint engine                                                 *)
(* ------------------------------------------------------------------ *)

let default_max_rounds = 4

let run ?(max_rounds = default_max_rounds) ?(rankers = Ranker.default) ?budget
    (prog : Sema.program) : outcome =
  Telemetry.with_span ~file:prog.Sema.p_file Telemetry.phase_infer @@ fun () ->
  let bodies = Hashtbl.create 16 in
  List.iter
    (fun ((fs : Sema.funsig), f) -> Hashtbl.replace bodies fs.Sema.fs_name f)
    (Sema.fundefs prog);
  let cg = Summary.Callgraph.build prog in
  let comps = Summary.Callgraph.sccs cg in
  let cache : summary_cache = Hashtbl.create 32 in
  let findings_rev = ref [] in
  let rounds_total = ref 0 in
  let procedures = ref 0 in
  let probes_total = ref 0 in
  let skipped_total = ref 0 in
  let do_component comp =
    let members = List.filter (Hashtbl.mem bodies) comp in
    procedures := !procedures + List.length members;
    if members <> [] then begin
      let orig =
        List.map (fun n -> (n, Hashtbl.find prog.Sema.p_funcs n)) members
      in
      let component_count () =
        List.fold_left
          (fun acc n ->
            acc + List.length (fst (summarize_cached cache prog bodies n)))
          0 members
      in
      let baseline = component_count () in
      let accepted = ref [] (* newest first *) in
      (* Probe this function's ranked candidates until nothing more
         sticks; candidates regenerate from the updated signature after
         every acceptance (so a filled slot stops proposing itself) and
         are probed highest-prior-first.  The early-exit budget bounds
         *rejected* probes per function across the component fixpoint:
         once [budget] of a function's candidates have failed, the
         remaining (lower-ranked) tail is skipped in this and every
         later pass — acceptances don't count against it.  Without a
         budget every rejected candidate is re-probed each round, which
         is what the exhaustive baseline does. *)
      let rejected_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
      let improve name =
        let improved = ref false in
        let rejections =
          match Hashtbl.find_opt rejected_tbl name with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.add rejected_tbl name r;
              r
        in
        let exhausted () =
          match budget with Some b -> !rejections >= b | None -> false
        in
        let again = ref true in
        while !again do
          again := false;
          let fs = Hashtbl.find prog.Sema.p_funcs name in
          let body = Hashtbl.find_opt bodies name in
          let cands = Ranker.pipeline rankers prog fs body in
          Telemetry.Counter.add Telemetry.c_infer_candidates
            (List.length cands);
          let rec probe = function
            | [] -> ()
            | rest when exhausted () ->
                let n = List.length rest in
                skipped_total := !skipped_total + n;
                Telemetry.Counter.add Telemetry.c_infer_probes_skipped n
            | c :: rest ->
                incr probes_total;
                if try_cand prog bodies cache name c then begin
                  accepted :=
                    {
                      fd_fun = name;
                      fd_slot = c.Ranker.rc_slot;
                      fd_word = c.Ranker.rc_word;
                      fd_loc = fs.Sema.fs_loc;
                    }
                    :: !accepted;
                  improved := true;
                  again := true
                end
                else begin
                  incr rejections;
                  probe rest
                end
          in
          probe cands
        done;
        !improved
      in
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < max_rounds do
        changed := false;
        incr rounds;
        Telemetry.Counter.tick Telemetry.c_infer_rounds;
        List.iter (fun name -> if improve name then changed := true) members
      done;
      rounds_total := !rounds_total + !rounds;
      (* Conservative widening: inside a recursive component a later
         acceptance can invalidate an earlier probe (which ran under
         weaker assumptions about the recursive calls).  Retract the
         most recent annotations until the component checks no worse
         than it originally did. *)
      let reinstall kept_newest_first =
        Hashtbl.reset cache;
        List.iter (fun (_, fs) -> Sema.update_funsig prog fs) orig;
        List.iter
          (fun fd ->
            let fs = Hashtbl.find prog.Sema.p_funcs fd.fd_fun in
            Sema.update_funsig prog
              (apply_cand fs
                 {
                   Ranker.rc_slot = fd.fd_slot;
                   rc_word = fd.fd_word;
                   rc_prior = 0.;
                 }))
          (List.rev kept_newest_first)
      in
      while component_count () > baseline && !accepted <> [] do
        accepted := List.tl !accepted;
        reinstall !accepted
      done;
      findings_rev := !accepted @ !findings_rev
    end
  in
  List.iter do_component comps;
  let findings = List.rev !findings_rev in
  Telemetry.Counter.add Telemetry.c_infer_annots (List.length findings);
  {
    out_findings = findings;
    out_rounds = !rounds_total;
    out_sccs = List.length comps;
    out_procedures = !procedures;
    out_probes = !probes_total;
    out_skipped = !skipped_total;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let prototype (fs : Sema.funsig) (fds : finding list) : string =
  let ann slot =
    String.concat ""
      (List.filter_map
         (fun fd ->
           if equal_slot fd.fd_slot slot then Some ("/*@" ^ fd.fd_word ^ "@*/ ")
           else None)
         fds)
  in
  let param i (p : Sema.param) =
    ann (Sparam i) ^ Ctype.to_string p.Sema.pr_ty ^ " " ^ p.Sema.pr_name
  in
  let params =
    match fs.Sema.fs_params with
    | [] -> "void"
    | ps -> String.concat ", " (List.mapi param ps)
  in
  ann Sret ^ Ctype.to_string fs.Sema.fs_ret ^ " " ^ fs.Sema.fs_name ^ "("
  ^ params ^ ")"
  ^ (if fs.Sema.fs_varargs then " /* ... */;" else ";")

(* Each annotated function in [func_order], with its signature and its
   findings in acceptance order.  The findings are grouped by function
   once, so both renderers stay linear in the number of findings. *)
let annotated (prog : Sema.program) (o : outcome) :
    (Sema.funsig * finding list) list =
  let by_fun = Hashtbl.create 64 in
  List.iter
    (fun fd ->
      Hashtbl.replace by_fun fd.fd_fun
        (fd :: Option.value (Hashtbl.find_opt by_fun fd.fd_fun) ~default:[]))
    o.out_findings;
  List.filter_map
    (fun name ->
      match
        (Hashtbl.find_opt by_fun name, Hashtbl.find_opt prog.Sema.p_funcs name)
      with
      | Some fds_rev, Some fs -> Some (fs, List.rev fds_rev)
      | _ -> None)
    (Sema.func_order prog)

let render (prog : Sema.program) (o : outcome) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun (fs, fds) ->
      Buffer.add_string buf
        (Printf.sprintf "%s: %s\n" (Loc.to_string fs.Sema.fs_loc)
           (prototype fs fds)))
    (annotated prog o);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Header patches (-infer-bulk)                                        *)
(* ------------------------------------------------------------------ *)

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_'

(* Splice [/*@word@*/ ] markers into the source line that opens the
   function's definition.  Return slots insert at the head of the
   declaration (after a leading [static]/[extern]); parameter slots
   insert after the opening parenthesis / the separating top-level
   comma.  [None] when the line doesn't carry the expected shape (e.g.
   a signature folded across several lines) — the caller then falls
   back to reporting the prototype instead of patching. *)
let splice_line (line : string) (fs : Sema.funsig) (fds : finding list) :
    string option =
  let n = String.length line in
  let name = fs.Sema.fs_name in
  let nl = String.length name in
  (* find the definition's name: a standalone identifier followed by a
     parenthesis *)
  let rec find_name i =
    if i + nl > n then None
    else if
      String.sub line i nl = name
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && i + nl < n
      &&
      let rec after j =
        if j >= n then false
        else if line.[j] = ' ' || line.[j] = '\t' then after (j + 1)
        else line.[j] = '('
      in
      after (i + nl)
    then Some i
    else find_name (i + 1)
  in
  match find_name 0 with
  | None -> None
  | Some name_at -> (
      let lparen = String.index_from line (name_at + nl) '(' in
      (* insertion point for the return slot: after indentation and a
         storage-class keyword, before the return type *)
      let ret_at =
        let rec skip_ws i =
          if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1)
          else i
        in
        let i = skip_ws 0 in
        let skip_kw kw i =
          let kl = String.length kw in
          if
            i + kl < n
            && String.sub line i kl = kw
            && not (is_ident_char line.[i + kl])
          then skip_ws (i + kl)
          else i
        in
        skip_kw "extern" (skip_kw "static" i)
      in
      (* parameter start offsets: after '(' and after each top-level ',' *)
      let param_starts =
        let acc = ref [] in
        let depth = ref 0 in
        let i = ref lparen in
        (try
           while !i < n do
             (match line.[!i] with
             | '(' ->
                 incr depth;
                 if !depth = 1 then acc := (!i + 1) :: !acc
             | ')' -> decr depth;
                 if !depth = 0 then raise Exit
             | ',' -> if !depth = 1 then acc := (!i + 1) :: !acc
             | _ -> ());
             incr i
           done
         with Exit -> ());
        List.rev_map
          (fun p ->
            let rec skip_ws i =
              if i < n && (line.[i] = ' ' || line.[i] = '\t') then
                skip_ws (i + 1)
              else i
            in
            skip_ws p)
          !acc
      in
      (* the [inferred] marker records machine provenance in the patched
         source: {!strip_annotations} leaves such spans alone, so
         re-running bulk inference over an applied patch is a no-op *)
      let words slot =
        String.concat ""
          (List.filter_map
             (fun fd ->
               if equal_slot fd.fd_slot slot then
                 Some ("/*@" ^ fd.fd_word ^ " inferred@*/ ")
               else None)
             fds)
      in
      let insertions = ref [] in
      let ok = ref true in
      (match words Sret with
      | "" -> ()
      | w -> insertions := (ret_at, w) :: !insertions);
      List.iteri
        (fun i (_ : Sema.param) ->
          match words (Sparam i) with
          | "" -> ()
          | w -> (
              match List.nth_opt param_starts i with
              | Some p -> insertions := (p, w) :: !insertions
              | None -> ok := false))
        fs.Sema.fs_params;
      if not !ok then None
      else
        (* splice right-to-left so earlier offsets stay valid *)
        let sorted =
          List.sort (fun (a, _) (b, _) -> compare b a) !insertions
        in
        Some
          (List.fold_left
             (fun line (pos, text) ->
               String.sub line 0 pos ^ text
               ^ String.sub line pos (String.length line - pos))
             line sorted))

(* One single-line hunk per newly annotated definition, grouped by file
   in source order.  [read] supplies the original file contents (bulk
   mode retains them from parsing); definitions whose opening line
   cannot be respliced — folded signatures, macro trickery — degrade to
   a "manual" comment line carrying the rendered prototype, so the
   patch stays appliable. *)
let render_patch (prog : Sema.program) (o : outcome)
    ~(read : string -> string option) : string =
  let file_order = ref [] in
  let hunks : (string, (int * string * string * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let manual = Buffer.create 0 in
  (* each source file is split into lines once, however many of its
     definitions carry findings *)
  let lines_of : (string, string array option) Hashtbl.t = Hashtbl.create 8 in
  let lines file =
    match Hashtbl.find_opt lines_of file with
    | Some l -> l
    | None ->
        let l =
          Option.map
            (fun text -> Array.of_list (String.split_on_char '\n' text))
            (read file)
        in
        Hashtbl.add lines_of file l;
        l
  in
  List.iter
    (fun ((fs : Sema.funsig), fds) ->
      let name = fs.Sema.fs_name in
      let file = fs.Sema.fs_loc.Loc.file in
      let lineno = fs.Sema.fs_loc.Loc.line in
      let fallback () =
        Buffer.add_string manual
          (Printf.sprintf "# manual: %s: %s\n"
             (Loc.to_string fs.Sema.fs_loc)
             (prototype fs fds))
      in
      match lines file with
      | Some l when lineno >= 1 && lineno <= Array.length l -> (
          let old_line = l.(lineno - 1) in
          match splice_line old_line fs fds with
          | None -> fallback ()
          | Some new_line ->
              let cell =
                match Hashtbl.find_opt hunks file with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.add hunks file c;
                    file_order := file :: !file_order;
                    c
              in
              cell := (lineno, name, old_line, new_line) :: !cell)
      | _ -> fallback ())
    (annotated prog o);
  let buf = Buffer.create 1024 in
  Buffer.add_buffer buf manual;
  List.iter
    (fun file ->
      let hs =
        List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
          !(Hashtbl.find hunks file)
      in
      Buffer.add_string buf (Printf.sprintf "--- a/%s\n+++ b/%s\n" file file);
      List.iter
        (fun (lineno, name, old_line, new_line) ->
          Buffer.add_string buf
            (Printf.sprintf "@@ -%d,1 +%d,1 @@ %s\n-%s\n+%s\n" lineno lineno
               name old_line new_line))
        hs)
    (List.rev !file_order);
  Buffer.contents buf

let apply_patch (patch : string) (files : (string * string) list) :
    ((string * string) list, string) result =
  let contents : (string, string array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (f, text) ->
      Hashtbl.replace contents f
        (Array.of_list (String.split_on_char '\n' text)))
    files;
  let current = ref None in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let pending_old = ref None in
  let pending_line = ref 0 in
  let lines = String.split_on_char '\n' patch in
  List.iter
    (fun line ->
      if !err = None then
        let starts p =
          String.length line >= String.length p
          && String.sub line 0 (String.length p) = p
        in
        if starts "# " || String.equal line "" then ()
        else if starts "--- a/" then
          let f = String.sub line 6 (String.length line - 6) in
          if Hashtbl.mem contents f then current := Some f
          else fail ("patch names unknown file " ^ f)
        else if starts "+++ b/" then ()
        else if starts "@@ " then (
          match Scanf.sscanf_opt line "@@ -%d,%d +%d,%d" (fun a b c d -> (a, b, c, d)) with
          | Some (a, 1, c, 1) when a = c -> pending_line := a
          | _ -> fail ("bad hunk header: " ^ line))
        else if starts "-" then
          pending_old := Some (String.sub line 1 (String.length line - 1))
        else if starts "+" then (
          let new_line = String.sub line 1 (String.length line - 1) in
          match (!current, !pending_old) with
          | Some f, Some old_line -> (
              let arr = Hashtbl.find contents f in
              let i = !pending_line - 1 in
              if i < 0 || i >= Array.length arr then
                fail (Printf.sprintf "%s:%d: line out of range" f !pending_line)
              else if not (String.equal arr.(i) old_line) then
                fail
                  (Printf.sprintf "%s:%d: context mismatch (got %S)" f
                     !pending_line arr.(i))
              else (
                arr.(i) <- new_line;
                pending_old := None))
          | _ -> fail "misplaced + line")
        else fail ("unrecognized patch line: " ^ line))
    lines;
  match !err with
  | Some msg -> Error msg
  | None ->
      Ok
        (List.map
           (fun (f, _) ->
             (f, String.concat "\n" (Array.to_list (Hashtbl.find contents f))))
           files)
