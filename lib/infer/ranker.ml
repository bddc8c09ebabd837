(** Candidate rankers: pluggable sources of scored annotation candidates
    for the inference pipeline (the probe core in {!Infer} stays the
    sound judge — a ranker can only propose).

    A ranker maps a function (signature plus, when defined, body) to
    scored [(slot, word, prior)] candidates.  The pipeline merges the
    candidates of every configured ranker, filters them against the
    function's *current* signature (a filled category never re-proposes
    itself), and orders them highest-prior-first so the probe engine
    meets likely winners before the long tail — which is what makes an
    early-exit probe budget ([-infer-budget]) cut probe counts without
    costing recall.

    Built-ins:
    - {!grid}: the exhaustive candidate grid the original [Infer.run]
      probed, at a uniform low prior.  Alone it reproduces the legacy
      exhaustive behavior exactly; combined with the heuristic rankers
      it is the fallback tail.
    - {!names}: naming-convention heuristics ([create_*]/[*_dup] mean
      an [only] return, [*_free]/[*_destroy] mean a released argument).
    - {!shapes}: body-shape heuristics (out-param stores, unconditional
      dereferences, NULL-returning allocator wrappers).
    - {!of_spec}: an external-suggester hook ([-ranker-spec FILE]) so a
      tool or an LLM can inject candidates; the probe still verifies. *)

open Cfront
module Ctype = Sema.Ctype

type slot = Sret | Sparam of int [@@deriving eq]

type candidate = { rc_slot : slot; rc_word : string; rc_prior : float }

type t = {
  rk_name : string;
  rk_rank :
    Sema.program -> Sema.funsig -> Ast.fundef option -> candidate list;
}

(* ------------------------------------------------------------------ *)
(* Admissibility                                                       *)
(* ------------------------------------------------------------------ *)

(* A slot already carrying reference-count qualifiers belongs to the
   refcounting extension; its storage discipline is spoken for. *)
let refcount_qualified (an : Annot.set) =
  an.Annot.an_refcounted || an.Annot.an_newref || an.Annot.an_killref
  || an.Annot.an_tempref

let definable ty =
  match Ctype.deref (Ctype.unroll ty) with
  | Some t ->
      (not (Ctype.is_void (Ctype.unroll t)))
      && not (Ctype.is_function (Ctype.unroll t))
  | None -> false

(* May [c] still be proposed against the *current* signature?  Checked
   against the live symbol-table entry before every probe, so a category
   filled by an earlier acceptance (or by hand) stops proposing itself
   and mutually exclusive pairs (out/only on one parameter) cannot both
   install. *)
let admissible (fs : Sema.funsig) (c : candidate) : bool =
  (not (String.equal fs.Sema.fs_name "main"))
  &&
  match c.rc_slot with
  | Sret ->
      Ctype.is_pointer fs.Sema.fs_ret
      &&
      let e = fs.Sema.fs_ret_annots in
      let an = e.Sema.an in
      (not (refcount_qualified an))
      && an.Annot.an_expose = None
      && (match c.rc_word with
         | "only" -> an.Annot.an_alloc = None || e.Sema.alloc_implicit
         | "notnull" | "null" -> an.Annot.an_null = None
         | _ -> false)
  | Sparam i -> (
      match List.nth_opt fs.Sema.fs_params i with
      | None -> false
      | Some p ->
          Ctype.is_pointer p.Sema.pr_ty
          &&
          let e = p.Sema.pr_annots in
          let an = e.Sema.an in
          (not (refcount_qualified an))
          && an.Annot.an_expose = None
          && (match c.rc_word with
             | "out" ->
                 an.Annot.an_def = None
                 && an.Annot.an_alloc <> Some Annot.Only
                 && definable p.Sema.pr_ty
             | "only" ->
                 (an.Annot.an_alloc = None || e.Sema.alloc_implicit)
                 && an.Annot.an_def <> Some Annot.Out
             | "null" | "notnull" -> an.Annot.an_null = None
             | _ -> false))

(* ------------------------------------------------------------------ *)
(* The exhaustive grid                                                 *)
(* ------------------------------------------------------------------ *)

let grid_prior = 0.1

(* Every (slot, word) combination the legacy exhaustive engine probed;
   inadmissible ones are filtered by the pipeline.  At a uniform prior
   the deterministic tie-break (parameters in index order, [out]/[only]/
   [null] per parameter, then the return's [only]/[notnull]) reproduces
   the legacy probe order exactly. *)
let grid =
  {
    rk_name = "grid";
    rk_rank =
      (fun _prog (fs : Sema.funsig) _body ->
        let mk slot word = { rc_slot = slot; rc_word = word; rc_prior = grid_prior } in
        List.concat
          (List.mapi
             (fun i (_ : Sema.param) ->
               [ mk (Sparam i) "out"; mk (Sparam i) "only"; mk (Sparam i) "null" ])
             fs.Sema.fs_params)
        @ [ mk Sret "only"; mk Sret "notnull" ]);
  }

(* ------------------------------------------------------------------ *)
(* Name heuristics                                                     *)
(* ------------------------------------------------------------------ *)

let prior_name = 0.9

(* The affix tokens: the first or last ['_']-separated token of the
   function name, with a trailing digit run stripped ([m3_clone2] ends
   in the token [clone]).  Matching whole tokens is what keeps the
   deliberate near-misses quiet: [recreate_buffer] tokenizes to
   [recreate]/[buffer] and [freelist_pop] to [freelist]/[pop] — neither
   contains a creator or releaser *token*, so neither fires. *)
let strip_digits tok =
  let n = String.length tok in
  let i = ref n in
  while !i > 0 && tok.[!i - 1] >= '0' && tok.[!i - 1] <= '9' do
    decr i
  done;
  String.sub tok 0 !i

let affix_tokens fname =
  match
    String.split_on_char '_' (String.lowercase_ascii fname)
    |> List.filter (fun t -> t <> "")
  with
  | [] -> []
  | first :: rest ->
      let last = List.fold_left (fun _ t -> t) first rest in
      List.sort_uniq String.compare [ strip_digits first; strip_digits last ]

let creator_tokens =
  [ "create"; "new"; "make"; "mk"; "dup"; "clone"; "copy"; "alloc" ]

let releaser_tokens =
  [ "free"; "destroy"; "release"; "dispose"; "del"; "drop"; "kill" ]

let names =
  {
    rk_name = "names";
    rk_rank =
      (fun _prog (fs : Sema.funsig) _body ->
        let toks = affix_tokens fs.Sema.fs_name in
        let has set = List.exists (fun t -> List.mem t set) toks in
        let creators =
          if has creator_tokens && Ctype.is_pointer fs.Sema.fs_ret then
            [ { rc_slot = Sret; rc_word = "only"; rc_prior = prior_name } ]
          else []
        in
        let releasers =
          if has releaser_tokens then
            (* a releaser consumes its pointer argument; only propose
               when the function has exactly one pointer parameter, so
               the claim is unambiguous *)
            match
              List.concat
                (List.mapi
                   (fun i (p : Sema.param) ->
                     if Ctype.is_pointer p.Sema.pr_ty then [ i ] else [])
                   fs.Sema.fs_params)
            with
            | [ i ] ->
                [ { rc_slot = Sparam i; rc_word = "only"; rc_prior = prior_name } ]
            | _ -> []
          else []
        in
        creators @ releasers);
  }

(* ------------------------------------------------------------------ *)
(* Shape heuristics                                                    *)
(* ------------------------------------------------------------------ *)

let prior_out = 0.8
let prior_notnull_param = 0.8
let prior_only_ret = 0.85
let prior_notnull_ret = 0.75
let prior_null_param = 0.7
let prior_null_ret = 0.6

(* Per-parameter syntactic facts, collected by one walk of the body.
   All of it is approximate — aliases are not chased, control flow is
   only tracked far enough to tell a guarded dereference from an
   unconditional one — because the probe core re-verifies every
   proposal anyway; a wrong guess here costs one probe, not soundness. *)
type pfacts = {
  mutable pf_derefs : int;  (** any deref: [*p], [p->f], [p[i]] *)
  mutable pf_unguarded : int;  (** derefs not under a null test of [p] *)
  mutable pf_stores : int;  (** writes through [p] *)
  mutable pf_reads : int;  (** non-store derefs *)
  mutable pf_tested : bool;  (** [p] compared against NULL somewhere *)
  mutable pf_passed : bool;  (** [p] passed verbatim as a call argument *)
}

let is_ident name e =
  match (Ast.skip_casts e).Ast.e with
  | Ast.Eident n -> String.equal n name
  | _ -> false

(* Does condition [e] test [name] against null (either polarity)? *)
let rec tests_null name (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Ebinary ((Ast.Beq | Ast.Bne), a, b) ->
      (is_ident name a && Ast.is_null_constant b)
      || (is_ident name b && Ast.is_null_constant a)
  | Ast.Eunary (Ast.Unot, a) -> is_ident name a || tests_null name a
  | Ast.Eident n -> String.equal n name
  | Ast.Ebinary ((Ast.Bland | Ast.Blor), a, b) ->
      tests_null name a || tests_null name b
  | Ast.Ecast (_, a) | Ast.Ecomma (_, a) -> tests_null name a
  | _ -> false

(* Does the statement always leave the function (return, or a call to a
   process-exit function)?  Blocks answer by their last statement. *)
let rec always_exits (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Sreturn _ -> true
  | Ast.Sexpr e -> (
      match e.Ast.e with
      | Ast.Ecall (f, _) -> (
          match (Ast.skip_casts f).Ast.e with
          | Ast.Eident ("exit" | "abort" | "_exit") -> true
          | _ -> false)
      | _ -> false)
  | Ast.Sblock ss -> (
      match List.rev ss with last :: _ -> always_exits last | [] -> false)
  | _ -> false

let collect_pfacts (name : string) (body : Ast.stmt) : pfacts =
  let pf =
    {
      pf_derefs = 0;
      pf_unguarded = 0;
      pf_stores = 0;
      pf_reads = 0;
      pf_tested = false;
      pf_passed = false;
    }
  in
  let deref ~guarded ~store =
    pf.pf_derefs <- pf.pf_derefs + 1;
    if not guarded then pf.pf_unguarded <- pf.pf_unguarded + 1;
    if store then pf.pf_stores <- pf.pf_stores + 1
    else pf.pf_reads <- pf.pf_reads + 1
  in
  (* [store] marks the expression position: the left-hand side of an
     assignment is a store through [name] when it dereferences it. *)
  let rec expr ~guarded ~store (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Ederef b | Ast.Earrow (b, _) ->
        if is_ident name b then deref ~guarded ~store;
        expr ~guarded ~store:false b
    | Ast.Eindex (b, i) ->
        if is_ident name b then deref ~guarded ~store;
        expr ~guarded ~store:false b;
        expr ~guarded ~store:false i
    | Ast.Emember (b, _) -> expr ~guarded ~store b
    | Ast.Ecall (f, args) ->
        expr ~guarded ~store:false f;
        List.iter
          (fun a ->
            if is_ident name a then pf.pf_passed <- true;
            expr ~guarded ~store:false a)
          args
    | Ast.Eassign (_, lhs, rhs) ->
        expr ~guarded ~store:true lhs;
        expr ~guarded ~store:false rhs
    | Ast.Ebinary ((Ast.Beq | Ast.Bne) as op, a, b) ->
        if
          (is_ident name a && Ast.is_null_constant b)
          || (is_ident name b && Ast.is_null_constant a)
        then pf.pf_tested <- true;
        ignore op;
        expr ~guarded ~store:false a;
        expr ~guarded ~store:false b
    | Ast.Eunary (Ast.Unot, a) ->
        if is_ident name a then pf.pf_tested <- true;
        expr ~guarded ~store:false a
    | Ast.Eint _ | Ast.Echar _ | Ast.Estring _ | Ast.Efloat _ | Ast.Eident _
    | Ast.Esizeof_type _ ->
        ()
    | Ast.Eaddr b
    | Ast.Eunary (_, b)
    | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b
    | Ast.Ecast (_, b)
    | Ast.Esizeof_expr b ->
        expr ~guarded ~store b
    | Ast.Ebinary (_, a, b) | Ast.Ecomma (a, b) ->
        expr ~guarded ~store:false a;
        expr ~guarded ~store:false b
    | Ast.Econd (a, b, c) ->
        (* a null test in the scrutinee guards both arms *)
        let g = guarded || tests_null name a in
        expr ~guarded ~store:false a;
        expr ~guarded:g ~store b;
        expr ~guarded:g ~store c
  in
  let rec init ~guarded = function
    | Ast.Iexpr e -> expr ~guarded ~store:false e
    | Ast.Ilist is -> List.iter (init ~guarded) is
  in
  (* Statement walk.  [guarded] says: every path reaching here has
     already tested [name] against null (an enclosing [if (p != NULL)]
     branch, or a preceding [if (p == NULL) exit/return] in the same
     block). *)
  let rec stmt ~guarded (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Sskip | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _ -> ()
    | Ast.Sexpr e | Ast.Sassert e -> expr ~guarded ~store:false e
    | Ast.Sreturn (Some e) -> expr ~guarded ~store:false e
    | Ast.Sreturn None -> ()
    | Ast.Sdecl ds ->
        List.iter
          (fun (d : Ast.decl) ->
            match d.Ast.d_init with
            | Some i -> init ~guarded i
            | None -> ())
          ds
    | Ast.Sblock ss -> block ~guarded ss
    | Ast.Sif (c, t, f) ->
        if tests_null name c then pf.pf_tested <- true;
        expr ~guarded ~store:false c;
        let g = guarded || tests_null name c in
        stmt ~guarded:g t;
        Option.iter (stmt ~guarded:g) f
    | Ast.Swhile (c, b) | Ast.Sdo (b, c) ->
        if tests_null name c then pf.pf_tested <- true;
        expr ~guarded ~store:false c;
        stmt ~guarded:(guarded || tests_null name c) b
    | Ast.Sfor (i, c, st, b) ->
        Option.iter (stmt ~guarded) i;
        Option.iter
          (fun c ->
            if tests_null name c then pf.pf_tested <- true;
            expr ~guarded ~store:false c)
          c;
        let g = guarded || Option.fold ~none:false ~some:(tests_null name) c in
        Option.iter (expr ~guarded:g ~store:false) st;
        stmt ~guarded:g b
    | Ast.Sswitch (c, b) | Ast.Scase (c, b) ->
        expr ~guarded ~store:false c;
        stmt ~guarded b
    | Ast.Sdefault b | Ast.Slabel (_, b) -> stmt ~guarded b
  and block ~guarded ss =
    (* thread the early-exit guard through the statement list *)
    ignore
      (List.fold_left
         (fun guarded (s : Ast.stmt) ->
           stmt ~guarded s;
           match s.Ast.s with
           | Ast.Sif (c, t, None) when tests_null name c && always_exits t ->
               true
           | _ -> guarded)
         guarded ss)
  in
  (match body.Ast.s with
  | Ast.Sblock ss -> block ~guarded:false ss
  | _ -> stmt ~guarded:false body);
  pf

(* Return-slot facts: which locals hold fresh allocations, whether one
   is returned, whether NULL is returned, and whether the allocation
   failure path provably exits. *)
type rfacts = {
  mutable rf_returns_alloc : bool;
  mutable rf_returns_null : bool;
  mutable rf_checked_exit : bool;
      (** some alloc-holding local has an [if (v == NULL) exit] guard,
          or the allocation came from a notnull-returning callee *)
}

let collect_rfacts (prog : Sema.program) (body : Ast.stmt) : rfacts =
  let rf =
    { rf_returns_alloc = false; rf_returns_null = false; rf_checked_exit = false }
  in
  (* Is [e] an allocation: a direct allocator call, or a call to a
     function whose (current) signature claims an [only] return?  The
     symbol table is consulted live, so an [only] inferred for a callee
     in an earlier component is already visible here. *)
  let alloc_notnull = Hashtbl.create 8 in
  let classify_alloc e =
    match (Ast.skip_casts e).Ast.e with
    | Ast.Ecall (f, _) -> (
        match (Ast.skip_casts f).Ast.e with
        | Ast.Eident ("malloc" | "calloc" | "realloc" | "strdup") ->
            Some false
        | Ast.Eident g -> (
            match Sema.find_func prog g with
            | Some (gs : Sema.funsig) ->
                let e = gs.Sema.fs_ret_annots in
                if e.Sema.an.Annot.an_alloc = Some Annot.Only
                   && not e.Sema.alloc_implicit
                then Some (e.Sema.an.Annot.an_null = Some Annot.NotNull)
                else None
            | None -> None)
        | _ -> None)
    | _ -> None
  in
  let vars : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let note_assign lhs rhs =
    match ((Ast.skip_casts lhs).Ast.e, classify_alloc rhs) with
    | Ast.Eident v, Some notnull ->
        Hashtbl.replace vars v ();
        if notnull then Hashtbl.replace alloc_notnull v ()
    | _ -> ()
  in
  let rec expr (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Eassign (None, lhs, rhs) ->
        note_assign lhs rhs;
        expr lhs;
        expr rhs
    | Ast.Eassign (Some _, lhs, rhs) ->
        expr lhs;
        expr rhs
    | Ast.Eint _ | Ast.Echar _ | Ast.Estring _ | Ast.Efloat _ | Ast.Eident _
    | Ast.Esizeof_type _ ->
        ()
    | Ast.Ecall (f, args) ->
        expr f;
        List.iter expr args
    | Ast.Emember (b, _) | Ast.Earrow (b, _) | Ast.Ederef b | Ast.Eaddr b
    | Ast.Eunary (_, b)
    | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b
    | Ast.Ecast (_, b)
    | Ast.Esizeof_expr b ->
        expr b
    | Ast.Eindex (a, b) | Ast.Ebinary (_, a, b) | Ast.Ecomma (a, b) ->
        expr a;
        expr b
    | Ast.Econd (a, b, c) ->
        expr a;
        expr b;
        expr c
  in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Sskip | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _ -> ()
    | Ast.Sexpr e | Ast.Sassert e -> expr e
    | Ast.Sreturn (Some e) ->
        if Ast.is_null_constant e then rf.rf_returns_null <- true;
        (match classify_alloc e with
        | Some notnull ->
            rf.rf_returns_alloc <- true;
            if notnull then rf.rf_checked_exit <- true
        | None -> (
            match (Ast.skip_casts e).Ast.e with
            | Ast.Eident v when Hashtbl.mem vars v ->
                rf.rf_returns_alloc <- true;
                if Hashtbl.mem alloc_notnull v then rf.rf_checked_exit <- true
            | _ -> ()));
        expr e
    | Ast.Sreturn None -> ()
    | Ast.Sdecl ds ->
        List.iter
          (fun (d : Ast.decl) ->
            match d.Ast.d_init with
            | Some (Ast.Iexpr e) -> (
                expr e;
                match classify_alloc e with
                | Some notnull ->
                    Hashtbl.replace vars d.Ast.d_name ();
                    if notnull then
                      Hashtbl.replace alloc_notnull d.Ast.d_name ()
                | None -> ())
            | Some (Ast.Ilist _) | None -> ())
          ds
    | Ast.Sblock ss -> List.iter stmt ss
    | Ast.Sif (c, t, f) ->
        (* the malloc-or-exit idiom: if (v == NULL) { exit(...); } *)
        (match c.Ast.e with
        | Ast.Ebinary (Ast.Beq, a, b)
          when Ast.is_null_constant b
               && (match (Ast.skip_casts a).Ast.e with
                  | Ast.Eident v -> Hashtbl.mem vars v
                  | _ -> false)
               && always_exits t ->
            rf.rf_checked_exit <- true
        | Ast.Eunary (Ast.Unot, a)
          when (match (Ast.skip_casts a).Ast.e with
               | Ast.Eident v -> Hashtbl.mem vars v
               | _ -> false)
               && always_exits t ->
            rf.rf_checked_exit <- true
        | _ -> ());
        expr c;
        stmt t;
        Option.iter stmt f
    | Ast.Swhile (c, b) | Ast.Sdo (b, c) | Ast.Sswitch (c, b) | Ast.Scase (c, b)
      ->
        expr c;
        stmt b
    | Ast.Sfor (i, c, st, b) ->
        Option.iter stmt i;
        Option.iter expr c;
        Option.iter expr st;
        stmt b
    | Ast.Sdefault b | Ast.Slabel (_, b) -> stmt b
  in
  stmt body;
  rf

let shapes =
  {
    rk_name = "shapes";
    rk_rank =
      (fun prog (fs : Sema.funsig) body ->
        match body with
        | None -> []
        | Some (f : Ast.fundef) ->
            let params =
              List.concat
                (List.mapi
                   (fun i (p : Sema.param) ->
                     if not (Ctype.is_pointer p.Sema.pr_ty) then []
                     else
                       let pf = collect_pfacts p.Sema.pr_name f.Ast.f_body in
                       (if pf.pf_stores > 0 && pf.pf_reads = 0 then
                          [ { rc_slot = Sparam i; rc_word = "out";
                              rc_prior = prior_out } ]
                        else [])
                       @ (if pf.pf_unguarded > 0 then
                            [ { rc_slot = Sparam i; rc_word = "notnull";
                                rc_prior = prior_notnull_param } ]
                          else [])
                       @
                       (* null: the body demonstrably tolerates null —
                          every deref is guarded and a test exists, or
                          the pointer is never dereferenced, stored
                          through, or handed to a callee (whose own
                          null-tolerance we cannot see) *)
                       if
                         (pf.pf_tested && pf.pf_unguarded = 0)
                         || (pf.pf_derefs = 0 && pf.pf_stores = 0
                            && not pf.pf_passed)
                       then
                         [ { rc_slot = Sparam i; rc_word = "null";
                             rc_prior = prior_null_param } ]
                       else [])
                   fs.Sema.fs_params)
            in
            let ret =
              if not (Ctype.is_pointer fs.Sema.fs_ret) then []
              else
                let rf = collect_rfacts prog f.Ast.f_body in
                if not rf.rf_returns_alloc then []
                else
                  [ { rc_slot = Sret; rc_word = "only"; rc_prior = prior_only_ret } ]
                  @ (if rf.rf_checked_exit && not rf.rf_returns_null then
                       [ { rc_slot = Sret; rc_word = "notnull";
                           rc_prior = prior_notnull_ret } ]
                     else [])
                  @
                  if rf.rf_returns_null then
                    (* a NULL-returning allocator wrapper *)
                    [ { rc_slot = Sret; rc_word = "null";
                        rc_prior = prior_null_ret } ]
                  else []
            in
            params @ ret);
  }

(* ------------------------------------------------------------------ *)
(* External suggesters (-ranker-spec)                                  *)
(* ------------------------------------------------------------------ *)

let default_spec_prior = 0.95

(* One candidate per line: [function slot word [prior]] where slot is
   [ret] or [paramN] ([pN] accepted as shorthand); blank lines and [#]
   comments are ignored.  See docs/inference.md for the format. *)
let of_spec ~name:spec_name (text : string) : (t, string) result =
  let parse_slot s =
    if String.equal s "ret" then Some Sret
    else
      let num prefix =
        let pl = String.length prefix in
        if
          String.length s > pl
          && String.equal (String.sub s 0 pl) prefix
        then int_of_string_opt (String.sub s pl (String.length s - pl))
        else None
      in
      match num "param" with
      | Some i when i >= 0 -> Some (Sparam i)
      | _ -> (
          match num "p" with Some i when i >= 0 -> Some (Sparam i) | _ -> None)
  in
  let words = [ "only"; "notnull"; "null"; "out" ] in
  let entries = Hashtbl.create 16 in
  let err = ref None in
  List.iteri
    (fun lineno line ->
      if !err = None then
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        with
        | [] -> ()
        | (fn :: slot :: word :: rest) as toks -> (
            let fail msg =
              err :=
                Some
                  (Printf.sprintf "%s:%d: %s in '%s'" spec_name (lineno + 1)
                     msg
                     (String.concat " " toks))
            in
            match (parse_slot slot, rest) with
            | None, _ -> fail ("bad slot '" ^ slot ^ "' (ret or paramN)")
            | Some _, _ when not (List.mem word words) ->
                fail ("bad word '" ^ word ^ "' (only/notnull/null/out)")
            | Some s, [] ->
                Hashtbl.add entries fn
                  { rc_slot = s; rc_word = word; rc_prior = default_spec_prior }
            | Some s, [ p ] -> (
                match float_of_string_opt p with
                | Some prior when prior >= 0. && prior <= 1. ->
                    Hashtbl.add entries fn
                      { rc_slot = s; rc_word = word; rc_prior = prior }
                | _ -> fail ("bad prior '" ^ p ^ "' (0..1)"))
            | Some _, _ -> fail "trailing tokens")
        | toks ->
            err :=
              Some
                (Printf.sprintf
                   "%s:%d: expected 'function slot word [prior]', got '%s'"
                   spec_name (lineno + 1)
                   (String.concat " " toks)))
    (String.split_on_char '\n' text);
  match !err with
  | Some msg -> Error msg
  | None ->
      Ok
        {
          rk_name = "spec:" ^ spec_name;
          rk_rank =
            (fun _prog fs _body ->
              Hashtbl.find_all entries fs.Sema.fs_name |> List.rev);
        }

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let default = [ names; shapes; grid ]

let word_rank = function
  | "out" -> 0
  | "only" -> 1
  | "null" -> 2
  | "notnull" -> 3
  | _ -> 4

let slot_rank = function Sparam i -> i | Sret -> max_int

(* Highest prior first; ties in the legacy grid order (parameters by
   index with out/only/null, then the return) so the pipeline is a
   drop-in replacement for the exhaustive engine when priors agree.
   The (slot, word) key is unique after merging, so the order is total
   and the output deterministic. *)
let compare_candidates a b =
  match compare b.rc_prior a.rc_prior with
  | 0 -> (
      match compare (slot_rank a.rc_slot) (slot_rank b.rc_slot) with
      | 0 -> (
          match compare (word_rank a.rc_word) (word_rank b.rc_word) with
          | 0 -> String.compare a.rc_word b.rc_word
          | c -> c)
      | c -> c)
  | c -> c

let pipeline (rankers : t list) (prog : Sema.program) (fs : Sema.funsig)
    (body : Ast.fundef option) : candidate list =
  let merged : (slot * string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          if admissible fs c then
            let k = (c.rc_slot, c.rc_word) in
            match Hashtbl.find_opt merged k with
            | Some p when p >= c.rc_prior -> ()
            | _ -> Hashtbl.replace merged k c.rc_prior)
        (r.rk_rank prog fs body))
    rankers;
  Hashtbl.fold
    (fun (s, w) p acc -> { rc_slot = s; rc_word = w; rc_prior = p } :: acc)
    merged []
  |> List.sort compare_candidates
