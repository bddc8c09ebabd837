(** The memory checker: per-procedure abstract interpretation driven by
    interface annotations (paper, Sections 2 and 5).

    Key properties reproduced from the paper:
    - each function is checked independently, using only the annotations of
      the functions it calls ("full interprocedural analysis is too
      expensive to be practical");
    - loops are analysed as executing zero or one times (no back edges, no
      fixpoints: "the effects of any while or for loop are identical to
      those for executing the loop zero or one times");
    - any predicate may be true or false; guard refinements track null
      tests including [truenull]/[falsenull] test functions;
    - confluence points merge branch states; irreconcilable states are
      reported as anomalies and replaced by an error marker;
    - parameters are modelled by a local variable aliasing the externally
      visible reference ("we use l to refer to the local variable and argl
      to refer to the externally visible parameter"). *)

open Cfront
open State
module Flags = Annot.Flags
module Ctype = Sema.Ctype

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(** Result of evaluating an expression. *)
type value = {
  v_ty : Ctype.t;
  v_ref : Sref.t option;  (** reference the expression denotes, if tracked *)
  v_def : defstate;
  v_null : nullstate;
  v_alloc : allocstate;
  v_offset : bool;  (** result of pointer arithmetic (an offset pointer) *)
  v_addrof : bool;
      (** the value is [&r] for the lvalue [v_ref]: states describe the
          pointee, and the reference must not be value-aliased *)
}

let unit_value ty =
  {
    v_ty = ty;
    v_ref = None;
    v_def = DSdefined;
    v_null = NSuntracked;
    v_alloc = ASnone;
    v_offset = false;
    v_addrof = false;
  }

let value_of_state ty r (s : Store.refstate) =
  {
    v_ty = ty;
    v_ref = Some r;
    v_def = s.rs_def;
    v_null = s.rs_null;
    v_alloc = s.rs_alloc;
    v_offset = s.rs_offset;
    v_addrof = false;
  }

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type localinfo = {
  li_ty : Ctype.t;
  li_annots : Annot.set;
  li_loc : Loc.t;
  li_param : int option;  (** parameter index if this is a parameter *)
  li_ref : Sref.t;  (** the local's root reference, interned once *)
}

type scope = { mutable vars : (string * localinfo) list }

(** Raw abstract state at one procedure exit, observed before the exit
    checks mark error states.  This is the data annotation inference
    abstracts into per-procedure summaries (return never-null, return
    always carries an obligation, parameter consumed on every path). *)
type exit_info = {
  xi_loc : Loc.t;
  xi_ret : (nullstate * allocstate) option;
      (** the returned value's states, when a pointer value is returned *)
  xi_params : (defstate * allocstate) array;
      (** the externally visible view of each parameter, by index *)
}

(** What [+allocmodel] remembers about one realloc-family call: the
    pre-call states of every name of the consumed argument's value.  On
    the result's NULL branch those names are resurrected (the old block
    is still allocated); a name overwritten before any test is pruned,
    and pruning the last name is the [realloclost] leak. *)
type realloc_source = {
  rsrc_old : Sref.t;  (** the consumed first argument *)
  mutable rsrc_saved : (Sref.t * Store.refstate) list;
      (** surviving pre-call images, pruned as assignments overwrite them *)
  rsrc_loc : Loc.t;  (** the call site *)
}

type env = {
  prog : Sema.program;
  flags : Flags.t;
  fs : Sema.funsig;
  param_refs : Sref.t array;
      (** the externally visible root [argl] of each parameter, by index *)
  diags : Diag.Collector.t;
  exit_obs : (exit_info -> unit) option;
      (** called once per reachable procedure exit (summary extraction) *)
  proc_inferred : bool Lazy.t;
      (** this check consults at least one inferred annotation (own
          signature or any direct callee's), so its messages carry the
          provenance mark.  Forced at the first emission, or before a
          block-scope declaration could register a callee
          ({!exec_decl}), so it reads the signatures the check started
          with *)
  mutable scopes : scope list;  (** innermost first *)
  mutable breaks : Store.t list list;  (** per enclosing breakable construct *)
  mutable continues : Store.t list list;
  mutable fresh : int;
  mutable statics : int;
  mutable conflict_memo : (string, unit) Hashtbl.t;
      (** confluence reports made so far; {!no_conflicts} until the first *)
  mutable realloc_sources : (int, realloc_source) Hashtbl.t;
      (** [+allocmodel]: live realloc results by [Rfresh] id;
          {!no_realloc_sources} until the first *)
  summaries : Summary.table option;
      (** [+xproc]: interprocedural effect summaries, consulted at call
          sites whose slot has no explicit or inferred annotation *)
  mutable escaped_args : Sref.Set.t;
      (** [+xproc]: references a summarized callee stored away (escape
          effect); an explicit release afterwards is [escapefree] *)
}

let emit env ?(severity = Diag.Err) ?(notes = []) ~loc ~code fmt =
  Fmt.kstr
    (fun text ->
      Diag.Collector.emit env.diags
        (Diag.make ~severity ~notes ~proc:env.fs.Sema.fs_name
           ~inferred:(Lazy.force env.proc_inferred) ~loc ~code text))
    fmt

(* The empty tables every check starts with; nothing writes them, since
   every write goes through [own_conflicts] or [own_realloc_sources]. *)
let no_conflicts : (string, unit) Hashtbl.t = Hashtbl.create 1
let no_realloc_sources : (int, realloc_source) Hashtbl.t = Hashtbl.create 1

let own_conflicts env =
  if env.conflict_memo == no_conflicts then
    env.conflict_memo <- Hashtbl.create 16;
  env.conflict_memo

let own_realloc_sources env =
  if env.realloc_sources == no_realloc_sources then
    env.realloc_sources <- Hashtbl.create 4;
  env.realloc_sources

let push_scope env = env.scopes <- { vars = [] } :: env.scopes

let pop_scope env =
  match env.scopes with
  | s :: rest ->
      env.scopes <- rest;
      s
  | [] -> invalid_arg "pop_scope: no scope"

let add_local env name info =
  match env.scopes with
  | s :: _ -> s.vars <- (name, info) :: s.vars
  | [] -> invalid_arg "add_local: no scope"

(* Innermost scope first; top-level so that a lookup builds no closure. *)
let rec find_in_scopes name = function
  | [] -> None
  | s :: rest -> (
      match find_var name s.vars with
      | Some _ as hit -> hit
      | None -> find_in_scopes name rest)

and find_var name = function
  | [] -> None
  | (n, i) :: rest -> if String.equal n name then Some i else find_var name rest

let find_local env name : localinfo option = find_in_scopes name env.scopes

let fresh_id env =
  env.fresh <- env.fresh + 1;
  env.fresh

let static_id env =
  env.statics <- env.statics + 1;
  env.statics

(* ------------------------------------------------------------------ *)
(* Types of references                                                 *)
(* ------------------------------------------------------------------ *)

(** The declaration of field [f] of the struct or union [ty] denotes,
    directly or through one pointer. *)
let field_decl env (ty : Ctype.t) f : Sema.field option =
  let obj = match Ctype.deref ty with Some t -> t | None -> ty in
  match Ctype.su_tag obj with
  | Some tag -> Sema.find_field env.prog tag f
  | None -> None

(** Type of the storage denoted by a reference (best effort). *)
let rec type_of_ref env (r : Sref.t) : Ctype.t option =
  match Sref.view r with
  | Sref.Root (Sref.Rlocal n) ->
      Option.map (fun i -> i.li_ty) (find_local env n)
  | Sref.Root (Sref.Rparam (i, _)) ->
      List.nth_opt env.fs.fs_params i
      |> Option.map (fun p -> p.Sema.pr_ty)
  | Sref.Root (Sref.Rglobal g) ->
      Sema.find_global env.prog g
      |> Option.map (fun gv -> gv.Sema.gv_ty)
  | Sref.Root Sref.Rret -> Some env.fs.fs_ret
  | Sref.Root (Sref.Rfresh _) -> None
  | Sref.Root (Sref.Rstatic _) -> Some Ctype.charptr
  | Sref.Field (b, f) -> (
      match type_of_ref env b with
      | Some bty -> (
          match field_decl env bty f with
          | Some fl -> Some fl.Sema.sf_ty
          | None -> None)
      | None -> None)
  | Sref.Deref b -> Option.bind (type_of_ref env b) Ctype.deref
  | Sref.Index (b, _) -> Option.bind (type_of_ref env b) Ctype.deref

(** Declared annotations for a reference (field annotations for field refs,
    parameter/global annotations for roots).  Used to decide expected
    allocation/null states at interface points. *)
let annots_of_ref env (r : Sref.t) : Annot.set =
  match Sref.view r with
  | Sref.Root (Sref.Rlocal n) -> (
      match find_local env n with
      | Some i -> (
          match i.li_param with
          | Some idx -> (
              match List.nth_opt env.fs.fs_params idx with
              | Some p -> p.Sema.pr_annots.Sema.an
              | None -> i.li_annots)
          | None -> i.li_annots)
      | None -> Annot.empty)
  | Sref.Root (Sref.Rparam (i, _)) -> (
      match List.nth_opt env.fs.fs_params i with
      | Some p -> p.Sema.pr_annots.Sema.an
      | None -> Annot.empty)
  | Sref.Root (Sref.Rglobal g) -> (
      match Sema.find_global env.prog g with
      | Some gv -> gv.Sema.gv_annots.Sema.an
      | None -> Annot.empty)
  | Sref.Root Sref.Rret -> env.fs.fs_ret_annots.Sema.an
  | Sref.Root (Sref.Rfresh _) | Sref.Root (Sref.Rstatic _) -> Annot.empty
  | Sref.Field (b, f) -> (
      match type_of_ref env b with
      | Some bty -> (
          match field_decl env bty f with
          | Some fl -> fl.Sema.sf_annots.Sema.an
          | None -> Annot.empty)
      | None -> Annot.empty)
  | Sref.Deref _ | Sref.Index _ -> Annot.empty

(* ---------------- [+xproc] summary consultation ------------------- *)

(** The callee's effect summary, when [+xproc] is on, the callee is
    defined, and a table was supplied. *)
let summary_of_callee env (fs : Sema.funsig) : Summary.t option =
  if not env.flags.Flags.xproc then None
  else
    match env.summaries with
    | Some tbl when fs.Sema.fs_defined ->
        Hashtbl.find_opt tbl fs.Sema.fs_name
    | _ -> None

(** Is [r] (or an alias image of it) a reference some summarized callee
    stored away? *)
let ref_escaped env st (r : Sref.t) =
  Sref.Set.mem r env.escaped_args
  || not
       (Sref.Set.is_empty
          (Sref.Set.inter (Store.value_images st r) env.escaped_args))

(** Initial reference state implied by a declaration's annotations, for an
    entity assumed completely defined (function entry). *)
let entry_state env ~(ty : Ctype.t) ~(annots : Annot.set) ~loc : Store.refstate
    =
  ignore env;
  let null =
    if not (Ctype.is_pointer ty) then NSuntracked
    else
      match annots.Annot.an_null with
      | Some Annot.Null -> NSpossnull
      | Some Annot.NotNull | None -> NSnotnull
      | Some Annot.RelNull -> NSrel
  in
  let def =
    match annots.Annot.an_def with
    | Some Annot.Out -> DSallocated
    | Some Annot.Partial -> DSpdefined
    | _ -> DSdefined
  in
  let alloc =
    if not (Ctype.is_pointer ty) then ASnone
    else
      match annots.Annot.an_alloc with
      | Some Annot.Only -> ASonly
      | Some Annot.Keep -> ASonly
          (* callee view: a keep parameter carries an obligation *)
      | Some Annot.Temp -> AStemp
      | Some Annot.Owned -> ASowned
      | Some Annot.Dependent -> ASdependent
      | Some Annot.Shared -> ASshared
      | None -> (
          if annots.Annot.an_killref then
            (* the callee receives one reference and must consume it *)
            ASrefcounted
          else
            match annots.Annot.an_expose with
            | Some Annot.Observer -> ASobserver
            | Some Annot.Exposed -> ASexposed
            | None -> ASnone)
  in
  let l = Some loc in
  Store.mk_refstate ~def ~null ~alloc ?defloc:l ?nullloc:l ?allocloc:l ()

(* ------------------------------------------------------------------ *)
(* Use checks                                                          *)
(* ------------------------------------------------------------------ *)

(** Report an rvalue use of storage that is not usable (paper, Section 3:
    "It is an anomaly to use undefined storage as an rvalue", "It is an
    anomaly to use a dead pointer as an rvalue"). *)
let check_rvalue_use env st (r : Sref.t) ~loc =
  let s = Store.get st r in
  let ty =
    match type_of_ref env r with Some t -> Some (Ctype.unroll t) | None -> None
  in
  match ty with
  | Some (Ctype.Carray _) -> st
  | _ ->
  let scalar = match ty with Some t -> Ctype.is_arith t | None -> false in
  (match s.Store.rs_def with
  | DSundefined when env.flags.Flags.check_def ->
      let notes =
        match s.Store.rs_defloc with
        | Some l when not (Loc.is_dummy l) ->
            [ Diag.note ~loc:l (Fmt.str "Storage %s becomes undefined" (Sref.to_string r)) ]
        | _ -> []
      in
      emit env ~loc ~code:"usedef" ~notes
        "Variable %s used before definition" (Sref.to_string r)
  | DSpdefined when scalar && env.flags.Flags.check_def ->
      (* for a scalar, "partially defined" can only mean defined on some
         paths: the paper's admitted spurious case ("a use-before-
         definition error in a branch that would only be taken if an
         earlier branch initialized the variable") *)
      emit env ~loc ~code:"usedef"
        "Variable %s may be used before definition" (Sref.to_string r)
  | DSdead when env.flags.Flags.check_use_released ->
      let notes =
        match s.Store.rs_defloc with
        | Some l when not (Loc.is_dummy l) ->
            [ Diag.note ~loc:l (Fmt.str "Storage %s is released" (Sref.to_string r)) ]
        | _ -> []
      in
      emit env ~loc ~code:"usereleased" ~notes
        "Dead storage %s used as rvalue" (Sref.to_string r)
  | _ -> ());
  (* stop error cascades: a reported use marks the reference usable *)
  match s.Store.rs_def with
  | DSundefined | DSdead -> Store.set_def ~loc st r DSerror
  | DSpdefined when scalar -> Store.set_def ~loc st r DSerror
  | _ -> st

(** The expression form of a dereference, named in its nullderef
    message: [p->f], [p[...]] or [*p]. *)
type access = Aarrow of string | Aindex | Aderef

(** Report a dereference of a possibly-null pointer, then refine to
    non-null to avoid cascades.  The message text is built only when it
    is emitted. *)
let check_deref env st (r : Sref.t) ~(access : access) ~loc =
  let s = Store.get st r in
  match s.Store.rs_null with
  | (NSnull | NSpossnull) when env.flags.Flags.check_null ->
      let state_word =
        match s.Store.rs_null with NSnull -> "null" | _ -> "possibly null"
      in
      let name = Sref.to_string r in
      let notes =
        match s.Store.rs_nullloc with
        | Some l when not (Loc.is_dummy l) ->
            [ Diag.note ~loc:l (Fmt.str "Storage %s may become null" name) ]
        | _ -> []
      in
      let how, shown =
        match access with
        | Aarrow f -> ("Arrow access from", name ^ "->" ^ f)
        | Aindex -> ("Index of", name ^ "[...]")
        | Aderef -> ("Dereference of", "*" ^ name)
      in
      emit env ~loc ~code:"nullderef" ~notes "%s %s pointer %s: %s" how
        state_word name shown;
      Store.refine_null ~loc st r NSnotnull
  | _ -> st

(* ------------------------------------------------------------------ *)
(* Reference construction from expressions                             *)
(* ------------------------------------------------------------------ *)

(** Resolve an identifier to a reference plus its type.  Returns [None] for
    enum constants and functions (not storage). *)
let ident_ref env (name : string) : (Sref.t * Ctype.t) option =
  match find_local env name with
  | Some i -> Some (i.li_ref, i.li_ty)
  | None -> (
      match Sema.find_global env.prog name with
      | Some gv -> Some (Sref.root (Sref.Rglobal name), gv.Sema.gv_ty)
      | None -> None)

(** Ensure a global has an entry in the store (globals are tracked lazily:
    first touch initializes from the declaration). *)
let touch_global env st (name : string) : Store.t =
  let r = Sref.root (Sref.Rglobal name) in
  if Store.mem st r then st
  else
    match Sema.find_global env.prog name with
    | Some gv ->
        let annots = gv.Sema.gv_annots.Sema.an in
        let annots =
          (* the function's globals list can mark it undef at entry *)
          match List.assoc_opt name env.fs.fs_globals with
          | Some ga when ga.Annot.an_undef ->
              { annots with Annot.an_def = Some Annot.Out }
          | _ -> annots
        in
        let s = entry_state env ~ty:gv.Sema.gv_ty ~annots ~loc:gv.Sema.gv_loc in
        let s =
          match List.assoc_opt name env.fs.fs_globals with
          | Some ga when ga.Annot.an_undef ->
              let def =
                (* aggregate storage exists; only its contents are missing *)
                if Ctype.is_aggregate gv.Sema.gv_ty then DSallocated
                else DSundefined
              in
              { s with Store.rs_def = def }
          | _ -> s
        in
        Store.set st r s
    | None -> st

(* ------------------------------------------------------------------ *)
(* The allocator model (+allocmodel)                                   *)
(* ------------------------------------------------------------------ *)

(** The realloc source feeding [r], when [r] (or a same-value name of it)
    is a live realloc-family result. *)
let realloc_source_of env st (r : Sref.t) : realloc_source option =
  if Hashtbl.length env.realloc_sources = 0 then None
  else
    let candidates = Sref.Set.add r (Store.value_images st r) in
    Sref.Set.fold
      (fun img acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            match Sref.root_of img with
            | Sref.Rfresh (id, _) -> Hashtbl.find_opt env.realloc_sources id
            | _ -> None))
      candidates None

(** A saved image the programmer can still reach by name.  [Rfresh] roots
    are the allocated object itself (a value, not a reference to it) and
    [Rparam] roots are the external mirror of a parameter — neither is an
    expression, so neither can release the old block on its own. *)
let rsrc_is_name (r : Sref.t) : bool =
  match Sref.root_of r with
  | Sref.Rfresh _ | Sref.Rparam _ -> false
  | _ -> true

(** NULL-branch semantics of a modeled realloc: the allocation failed, so
    the old block is still allocated and its surviving names get their
    pre-call states back.  Saved alias edges are restored only between
    survivors — an edge into an overwritten name would tie the old block
    to whatever value that name holds now.  Applied to the store of the
    branch where [r], a realloc result, is refined to null. *)
let allocmodel_resurrect env st (r : Sref.t) : Store.t =
  if not env.flags.Flags.alloc_model then st
  else
    match realloc_source_of env st r with
    | None -> st
    | Some src ->
        let surviving =
          List.fold_left
            (fun acc (oref, _) -> Sref.Set.add oref acc)
            Sref.Set.empty src.rsrc_saved
        in
        List.fold_left
          (fun st (oref, (s : Store.refstate)) ->
            Store.set st oref
              {
                s with
                Store.rs_aliases = Sref.Set.inter s.Store.rs_aliases surviving;
              })
          st src.rsrc_saved

(** Assignment bookkeeping for the live realloc sources.  Overwriting a
    name of an old block prunes it from that source's survivor list;
    overwriting the LAST name with the still-possibly-null result of the
    same realloc is the classic [p = realloc(p, n)] lost-pointer leak. *)
let allocmodel_assign env st ~(rhs : value) ~(lhs_ref : Sref.t) ~loc : unit =
  if env.flags.Flags.alloc_model && Hashtbl.length env.realloc_sources > 0 then begin
    let overwritten =
      Sref.Set.add lhs_ref (Store.location_images st lhs_ref)
    in
    let rhs_result_id =
      (* the realloc source whose fresh result the rhs value carries *)
      match rhs.v_ref with
      | Some rr when not rhs.v_addrof ->
          let candidates = Sref.Set.add rr (Store.value_images st rr) in
          Sref.Set.fold
            (fun img acc ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match Sref.root_of img with
                  | Sref.Rfresh (id, fname)
                    when Hashtbl.mem env.realloc_sources id ->
                      Some (id, fname)
                  | _ -> None))
            candidates None
      | _ -> None
    in
    let lost =
      Hashtbl.fold
        (fun id (src : realloc_source) acc ->
          let survivors =
            List.filter
              (fun (oref, _) -> not (Sref.Set.mem oref overwritten))
              src.rsrc_saved
          in
          let live_names = List.exists (fun (o, _) -> rsrc_is_name o) survivors in
          let had_names =
            List.exists (fun (o, _) -> rsrc_is_name o) src.rsrc_saved
          in
          if
            had_names && (not live_names)
            && (match rhs_result_id with
               | Some (rid, _) -> rid = id
               | None -> false)
            && (match rhs.v_null with NSnull | NSpossnull -> true | _ -> false)
          then (id, src) :: acc
          else begin
            src.rsrc_saved <- survivors;
            acc
          end)
        env.realloc_sources []
    in
    List.iter
      (fun (id, (src : realloc_source)) ->
        let fname =
          match rhs_result_id with Some (_, f) -> f | None -> "realloc"
        in
        let notes =
          [ Diag.note ~loc:src.rsrc_loc
              (Fmt.str
                 "Result of %s may be null while storage %s is still \
                  allocated"
                 fname
                 (Sref.to_string src.rsrc_old));
          ]
        in
        emit env ~loc ~code:"realloclost" ~notes
          "Last reference %s to the pre-realloc block overwritten with the \
           result of %s: storage is lost if the allocation fails (memory \
           leak)"
          (Sref.to_string src.rsrc_old)
          fname;
        Hashtbl.remove env.realloc_sources id)
      lost
  end

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* Normalize member access: "star-p dot f" and "p->f" both become
   [Field (p, f)] when [p] is a pointer; direct struct variables give
   [Field (s, f)]. *)
let rec eval env st (e : Ast.expr) : Store.t * value =
  let loc = e.eloc in
  match e.e with
  | Ast.Eint (v, _) ->
      let value =
        {
          (unit_value Ctype.int_) with
          v_null = (if v = 0L then NSnull else NSuntracked);
        }
      in
      (st, value)
  | Ast.Echar _ -> (st, unit_value Ctype.char_)
  | Ast.Efloat _ -> (st, unit_value (Ctype.Cfloat Ctype.Fdouble))
  | Ast.Estring _ ->
      (* a string literal is static, non-null, defined storage *)
      let r = Sref.root (Sref.Rstatic (static_id env)) in
      let st =
        Store.set st r
          (Store.mk_refstate ~def:DSdefined ~null:NSnotnull ~alloc:ASstatic
             ~allocloc:loc ())
      in
      ( st,
        {
          v_ty = Ctype.charptr;
          v_ref = Some r;
          v_def = DSdefined;
          v_null = NSnotnull;
          v_alloc = ASstatic;
          v_offset = false;
          v_addrof = false;
        } )
  | Ast.Eident "NULL" when ident_ref env "NULL" = None ->
      (* builtin null pointer constant (no preprocessor) *)
      (st, { (unit_value Ctype.voidptr) with v_null = NSnull })
  | Ast.Eident name -> (
      match ident_ref env name with
      | Some (r, ty) ->
          let st =
            match Sref.view r with
            | Sref.Root (Sref.Rglobal g) -> touch_global env st g
            | _ -> st
          in
          let st = check_rvalue_use env st r ~loc in
          (st, value_of_state ty r (Store.get st r))
      | None -> (
          match Sema.find_enum_const env.prog name with
          | Some _ -> (st, unit_value Ctype.int_)
          | None -> (
              match Sema.find_func env.prog name with
              | Some fs ->
                  (* function designator *)
                  let ty =
                    Ctype.Cfunc
                      {
                        Ctype.cf_ret = fs.Sema.fs_ret;
                        cf_params =
                          List.map (fun p -> p.Sema.pr_ty) fs.Sema.fs_params;
                        cf_varargs = fs.Sema.fs_varargs;
                      }
                  in
                  (st, { (unit_value ty) with v_null = NSnotnull })
              | None ->
                  emit env ~loc ~code:"ident" "unrecognized identifier '%s'"
                    name;
                  (st, unit_value Ctype.int_))))
  | Ast.Ecall (f, args) -> eval_call env st f args ~loc
  | Ast.Earrow (b, fname) | Ast.Emember ({ e = Ast.Ederef b; _ }, fname) ->
      (* p->f: p must be defined, non-null *)
      let st, bv = eval env st b in
      let st = arrow_base_checks env st bv ~fname ~loc in
      eval_field env st bv fname ~loc
  | Ast.Emember (b, fname) -> (
      let st, bv = eval env st b in
      match Ctype.unroll bv.v_ty with
      | Ctype.Cptr _ | Ctype.Carray _ ->
          (* s.f where s is a pointer: uncommon, treat like arrow *)
          let st = arrow_base_checks env st bv ~fname ~loc in
          eval_field env st bv fname ~loc
      | _ -> eval_field env st bv fname ~loc)
  | Ast.Ederef b ->
      let st, bv = eval env st b in
      let st =
        match bv.v_ref with
        | Some r ->
            check_deref env st r ~access:Aderef ~loc
        | None -> st
      in
      let ty =
        match Ctype.deref bv.v_ty with Some t -> t | None -> Ctype.int_
      in
      let r = Option.map (fun r -> Sref.deref r) bv.v_ref in
      let st, value =
        match r with
        | Some r ->
            let st =
              (* the pointee of allocated storage is undefined *)
              if Store.mem st r then st
              else
                match bv.v_def with
                | DSallocated ->
                    Store.set st r
                      (Store.mk_refstate ~def:DSundefined
                         ~null:
                           (if Ctype.is_pointer ty then NSpossnull
                            else NSuntracked)
                         ~alloc:ASnone ~defloc:loc ())
                | _ -> st
            in
            (st, value_of_state ty r (Store.get st r))
        | None -> (st, unit_value ty)
      in
      let st = match r with Some r -> check_rvalue_use env st r ~loc | None -> st in
      (st, value)
  | Ast.Eindex (b, idx) ->
      let st, bv = eval env st b in
      let st, _ = eval env st idx in
      let st =
        match bv.v_ref with
        | Some r ->
            check_deref env st r ~access:Aindex ~loc
        | None -> st
      in
      let ty =
        match Ctype.deref bv.v_ty with Some t -> t | None -> Ctype.int_
      in
      let known = Sema.const_eval env.prog idx in
      let iopt =
        match known with
        | Some v when env.flags.Flags.indep_array_elements -> Some (Int64.to_int v)
        | _ -> None
      in
      let r = Option.map (fun r -> Sref.index r iopt) bv.v_ref in
      let value =
        match r with
        | Some r -> value_of_state ty r (Store.get st r)
        | None -> unit_value ty
      in
      (st, value)
  | Ast.Eaddr b -> (
      let st, (lref, lty) = lval env st b in
      let ty = Ctype.Cptr lty in
      match lref with
      | Some r ->
          let alloc =
            match Sref.root_of r with
            | Sref.Rlocal _ -> ASstack
            | Sref.Rglobal _ -> ASstatic
            | _ -> ASdependent
          in
          (* the pointer itself is defined and non-null; the def state of
             the VALUE mirrors the pointee, so completeness checks on the
             argument see through the & *)
          let def =
            match (Store.get st r).Store.rs_def with
            | DSundefined -> DSallocated
            | d -> d
          in
          ( st,
            {
              v_ty = ty;
              v_ref = Some r;
              v_def = def;
              v_null = NSnotnull;
              v_alloc = alloc;
              v_offset = false;
              v_addrof = true;
            } )
      | None -> (st, { (unit_value ty) with v_null = NSnotnull }))
  | Ast.Eunary (_, b) ->
      let st, _ = eval env st b in
      (st, unit_value Ctype.int_)
  | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b ->
      let st, bv = eval env st b in
      (* pointer increment yields an offset pointer *)
      if Ctype.is_pointer bv.v_ty then
        let st =
          match bv.v_ref with
          | Some r ->
              Store.update_images st r (fun s ->
                  (* an incremented only pointer no longer holds a
                     releasable reference to the block start *)
                  s)
          | None -> st
        in
        (st, { bv with v_offset = true; v_ref = None })
      else (st, bv)
  | Ast.Ebinary (op, a, b) -> (
      let st, va = eval env st a in
      let st, vb = eval env st b in
      match op with
      | Ast.Badd | Ast.Bsub
        when Ctype.is_pointer va.v_ty || Ctype.is_pointer vb.v_ty ->
          (* an offset pointer into the same object: keep the base
             reference (the obligation still lives there) but remember the
             offsetness *)
          let ptr = if Ctype.is_pointer va.v_ty then va else vb in
          (st, { ptr with v_offset = true })
      | Ast.Beq | Ast.Bne | Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge
      | Ast.Bland | Ast.Blor ->
          (st, unit_value Ctype.Cbool)
      | _ -> (st, unit_value (if Ctype.is_arith va.v_ty then va.v_ty else vb.v_ty)))
  | Ast.Eassign (op, lhs, rhs) -> eval_assign env st op lhs rhs ~loc
  | Ast.Econd (c, t, f) ->
      let st_t, st_f = split_cond env st c in
      let st_t, vt = eval env st_t t in
      let st_f, vf = eval env st_f f in
      let st =
        merge_reporting env ~loc st_t st_f
      in
      let value =
        {
          v_ty = vt.v_ty;
          v_ref = None;
          v_def = merge_def vt.v_def vf.v_def;
          v_null = merge_null vt.v_null vf.v_null;
          v_alloc =
            (match merge_alloc vt.v_alloc vf.v_alloc with
            | Ok a -> a
            | Error _ -> ASerror);
          v_offset = vt.v_offset || vf.v_offset;
          v_addrof = false;
        }
      in
      (st, value)
  | Ast.Ecast (ty, b) ->
      let st, v = eval env st b in
      let cty = Sema.resolve_ty env.prog ~loc ty in
      (* a cast changes the static type but not the tracked states; casting
         the constant 0 to a pointer type keeps its definitely-null state *)
      (st, { v with v_ty = cty })
  | Ast.Esizeof_expr _ ->
      (* sizeof does not evaluate its operand (and needs no value:
         "Except sizeof, which does not need the value of its argument") *)
      (st, unit_value Ctype.size_t)
  | Ast.Esizeof_type ty ->
      (* ... but its type operand is resolved, as a cast's is *)
      ignore (Sema.resolve_ty env.prog ~loc ty);
      (st, unit_value Ctype.size_t)
  | Ast.Ecomma (a, b) ->
      let st, _ = eval env st a in
      eval env st b

and arrow_base_checks env st (bv : value) ~fname ~loc : Store.t =
  match bv.v_ref with
  | Some r ->
      check_deref env st r ~access:(Aarrow fname) ~loc
  | None -> st

(* Field access: the reference is Field (base, f); its state defaults
   depend on the base's definition state. *)
and eval_field env st (bv : value) fname ~loc : Store.t * value =
  let fty =
    match field_decl env bv.v_ty fname with
    | Some fl -> fl.Sema.sf_ty
    | None -> Ctype.int_
  in
  match bv.v_ref with
  | None -> (st, unit_value fty)
  | Some br ->
      let r = Sref.field br fname in
      let st =
        if Store.mem st r then st
        else
          (* materialize from the base state and the field's declared
             annotations *)
          let annots = annots_of_ref env r in
          let s0 = entry_state env ~ty:fty ~annots ~loc in
          let s0 =
            match bv.v_def with
            | DSallocated | DSundefined -> (
                match Ctype.unroll fty with
                | Ctype.Carray _ ->
                    (* embedded array storage exists; contents undefined *)
                    { s0 with Store.rs_def = DSallocated; rs_null = NSnotnull }
                | _ ->
                    {
                      s0 with
                      Store.rs_def = DSundefined;
                      rs_null =
                        (if Ctype.is_pointer fty then NSpossnull
                         else NSuntracked);
                    })
            | _ -> s0
          in
          Store.set st r s0
      in
      let st = check_rvalue_use env st r ~loc in
      (st, value_of_state fty r (Store.get st r))

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

(** Evaluate an expression as an lvalue: no rvalue-use check on the outer
    reference ("Undefined storage may be used as an lvalue since only its
    location is needed"), but base computations are rvalue uses. *)
and lval env st (e : Ast.expr) : Store.t * (Sref.t option * Ctype.t) =
  let loc = e.eloc in
  match e.e with
  | Ast.Eident "NULL" when ident_ref env "NULL" = None ->
      (* NULL is not an lvalue; treated as an untracked location *)
      (st, (None, Ctype.voidptr))
  | Ast.Eident name -> (
      match ident_ref env name with
      | Some (r, ty) ->
          let st =
            match Sref.view r with
            | Sref.Root (Sref.Rglobal g) -> touch_global env st g
            | _ -> st
          in
          (st, (Some r, ty))
      | None ->
          emit env ~loc ~code:"ident" "unrecognized identifier '%s'" name;
          (st, (None, Ctype.int_)))
  | Ast.Earrow (b, fname) | Ast.Emember ({ e = Ast.Ederef b; _ }, fname) ->
      let st, bv = eval env st b in
      let st = arrow_base_checks env st bv ~fname ~loc in
      lval_field env st bv fname
  | Ast.Emember (b, fname) ->
      let st, bv = eval env st b in
      lval_field env st bv fname
  | Ast.Ederef b ->
      let st, bv = eval env st b in
      let st =
        match bv.v_ref with
        | Some r ->
            check_deref env st r ~access:Aderef ~loc
        | None -> st
      in
      let ty =
        match Ctype.deref bv.v_ty with Some t -> t | None -> Ctype.int_
      in
      (st, (Option.map (fun r -> Sref.deref r) bv.v_ref, ty))
  | Ast.Eindex (b, idx) ->
      let st, bv = eval env st b in
      let st, _ = eval env st idx in
      let st =
        match bv.v_ref with
        | Some r ->
            check_deref env st r ~access:Aindex ~loc
        | None -> st
      in
      let ty =
        match Ctype.deref bv.v_ty with Some t -> t | None -> Ctype.int_
      in
      let known = Sema.const_eval env.prog idx in
      let iopt =
        match known with
        | Some v when env.flags.Flags.indep_array_elements ->
            Some (Int64.to_int v)
        | _ -> None
      in
      (st, (Option.map (fun r -> Sref.index r iopt) bv.v_ref, ty))
  | Ast.Ecast (ty, b) ->
      let st, (r, _) = lval env st b in
      (st, (r, Sema.resolve_ty env.prog ~loc ty))
  | _ ->
      (* not an lvalue shape: evaluate for effect *)
      let st, v = eval env st e in
      (st, (v.v_ref, v.v_ty))

and lval_field env st (bv : value) fname : Store.t * (Sref.t option * Ctype.t)
    =
  let fty =
    match field_decl env bv.v_ty fname with
    | Some fl -> fl.Sema.sf_ty
    | None -> Ctype.int_
  in
  match bv.v_ref with
  | None -> (st, (None, fty))
  | Some br ->
      let r = Sref.field br fname in
      (* materialize from the declaration so the assignment transfer can
         see the field's prior state (e.g. a live only field about to be
         overwritten) *)
      let st =
        if Store.mem st r then st
        else
          let annots = annots_of_ref env r in
          let s0 = entry_state env ~ty:fty ~annots ~loc:Loc.dummy in
          let s0 =
            match bv.v_def with
            | DSallocated | DSundefined -> (
                match Ctype.unroll fty with
                | Ctype.Carray _ ->
                    { s0 with Store.rs_def = DSallocated; rs_null = NSnotnull }
                | _ ->
                    {
                      s0 with
                      Store.rs_def = DSundefined;
                      rs_null =
                        (if Ctype.is_pointer fty then NSpossnull
                         else NSuntracked);
                    })
            | _ -> s0
          in
          Store.set st r s0
      in
      (st, (Some r, fty))

(* ------------------------------------------------------------------ *)
(* Confluence reporting                                                *)
(* ------------------------------------------------------------------ *)

and merge_reporting env ~loc a b : Store.t =
  let collected = ref [] in
  let st = Store.merge ~on_conflict:(fun c -> collected := c :: !collected) a b in
  (* shallow references first, so a base's conflict subsumes its children *)
  let depth_of = function
    | Store.Cdef (r, _, _) | Store.Calloc (r, _, _) -> Sref.depth r
  in
  List.iter
    (report_conflict env ~loc)
    (List.sort (fun c1 c2 -> compare (depth_of c1) (depth_of c2)) !collected);
  st

and report_conflict env ~loc (c : Store.conflict) : unit =
  (* inside the implementation of a killref function, the
     decrement-and-conditionally-free idiom legitimately releases the
     parameter on one path only: the killref annotation vouches for it *)
  let killref_param r =
    let idx =
      match Sref.root_of r with
      | Sref.Rparam (i, _) -> Some i
      | Sref.Rlocal n -> (
          match find_local env n with
          | Some { li_param = Some i; _ } -> Some i
          | _ -> None)
      | _ -> None
    in
    match idx with
    | Some i -> (
        match List.nth_opt env.fs.Sema.fs_params i with
        | Some p -> p.Sema.pr_annots.Sema.an.Annot.an_killref
        | None -> false)
    | None -> false
  in
  let excused =
    match c with
    | Store.Cdef (r, _, _) | Store.Calloc (r, _, _) -> killref_param r
  in
  if excused then ()
  else report_conflict_filtered env ~loc c

and report_conflict_filtered env ~loc (c : Store.conflict) : unit =
  (* one report per reference name and conflict kind per merge point:
     the local view and the external arg view of a parameter are distinct
     references with the same display name, and would otherwise produce
     duplicate messages *)
  let def_key r = Fmt.str "def:%a:%s" Loc.pp loc (Sref.to_string r) in
  let key =
    match c with
    | Store.Cdef (r, _, _) -> def_key r
    | Store.Calloc (r, sa, sb) ->
        Fmt.str "alloc:%a:%s:%s:%s" Loc.pp loc (Sref.to_string r)
          (allocstate_string sa.Store.rs_alloc)
          (allocstate_string sb.Store.rs_alloc)
  in
  (* a release conflict on a base reference subsumes conflicts on storage
     derived from it (children of dead storage are dead) *)
  let subsumed =
    match c with
    | Store.Cdef (r, _, _) ->
        let rec up r =
          match Sref.base r with
          | None -> false
          | Some b -> Hashtbl.mem env.conflict_memo (def_key b) || up b
        in
        up r
    | Store.Calloc _ -> false
  in
  if subsumed || Hashtbl.mem env.conflict_memo key then
    Hashtbl.replace (own_conflicts env) key ()
  else begin
    Hashtbl.replace (own_conflicts env) key ();
    report_conflict_always env ~loc c
  end

and report_conflict_always env ~loc (c : Store.conflict) : unit =
  match c with
  | Store.Cdef (r, sa, sb) ->
      let where st =
        match st.Store.rs_defloc with
        | Some l when not (Loc.is_dummy l) ->
            [ Diag.note ~loc:l
                (Fmt.str "Storage %s is released on one path" (Sref.to_string r));
            ]
        | _ -> []
      in
      let notes =
        if equal_defstate sa.Store.rs_def DSdead then where sa else where sb
      in
      emit env ~loc ~code:"branchstate" ~notes
        "Storage %s is released on one path but not on the other"
        (Sref.to_string r)
  | Store.Calloc (r, sa, sb) ->
      emit env ~loc ~code:"branchstate"
        "Storage %s has inconsistent states after branches: %s on one path, \
         %s on the other"
        (Sref.to_string r)
        (allocstate_string sa.Store.rs_alloc)
        (allocstate_string sb.Store.rs_alloc)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

(** Evaluate a condition and return the pair (state when true, state when
    false), applying null-test refinements (paper: "Code can check that a
    possibly-null pointer is not null by using a simple comparison (e.g.,
    x != NULL) or a function call" with [truenull]/[falsenull]). *)
and split_cond env st (e : Ast.expr) : Store.t * Store.t =
  let loc = e.eloc in
  match e.e with
  | Ast.Eunary (Ast.Unot, inner) ->
      let t, f = split_cond env st inner in
      (f, t)
  | Ast.Ebinary (Ast.Bland, a, b) ->
      let ta, fa = split_cond env st a in
      let tb, fb = split_cond env ta b in
      (tb, merge_reporting env ~loc fa fb)
  | Ast.Ebinary (Ast.Blor, a, b) ->
      let ta, fa = split_cond env st a in
      let tb, fb = split_cond env fa b in
      (merge_reporting env ~loc ta tb, fb)
  | Ast.Ebinary (Ast.Beq, a, b) when Ast.is_null_constant b ->
      null_test env st a ~eq:true ~loc
  | Ast.Ebinary (Ast.Beq, a, b) when Ast.is_null_constant a ->
      null_test env st b ~eq:true ~loc
  | Ast.Ebinary (Ast.Bne, a, b) when Ast.is_null_constant b ->
      null_test env st a ~eq:false ~loc
  | Ast.Ebinary (Ast.Bne, a, b) when Ast.is_null_constant a ->
      null_test env st b ~eq:false ~loc
  | Ast.Ecall ({ e = Ast.Eident fname; _ }, [ arg ])
    when is_nulltest_fn env fname ->
      (* truenull: returns true iff argument is null;
         falsenull: returns true only if the argument is not null *)
      let truenull =
        match Sema.find_func env.prog fname with
        | Some fs -> fs.Sema.fs_ret_annots.Sema.an.Annot.an_truenull
        | None -> false
      in
      let st, v = eval env st arg in
      (match v.v_ref with
      | Some r when env.flags.Flags.guard_refinement ->
          if truenull then
            let t =
              allocmodel_resurrect env (Store.refine_null ~loc st r NSnull) r
            in
            let f = Store.refine_null ~loc st r NSnotnull in
            (t, f)
          else
            (* falsenull *)
            let t = Store.refine_null ~loc st r NSnotnull in
            (t, st)
      | _ -> (st, st))
  | _ -> (
      let st, v = eval env st e in
      (* a bare pointer used as a condition is a null test *)
      match v.v_ref with
      | Some r
        when Ctype.is_pointer v.v_ty && env.flags.Flags.guard_refinement ->
          let t = Store.refine_null ~loc st r NSnotnull in
          let f =
            allocmodel_resurrect env (Store.refine_null ~loc st r NSnull) r
          in
          (t, f)
      | _ -> (st, st))

and null_test env st (e : Ast.expr) ~eq ~loc : Store.t * Store.t =
  let st, v = eval env st e in
  if not env.flags.Flags.guard_refinement then (st, st)
  else
  match v.v_ref with
  | Some r when Ctype.is_pointer v.v_ty ->
      let null_side =
        allocmodel_resurrect env (Store.refine_null ~loc st r NSnull) r
      in
      let notnull_side = Store.refine_null ~loc st r NSnotnull in
      if eq then (null_side, notnull_side) else (notnull_side, null_side)
  | _ -> (st, st)

and is_nulltest_fn env fname =
  match Sema.find_func env.prog fname with
  | Some fs ->
      fs.Sema.fs_ret_annots.Sema.an.Annot.an_truenull
      || fs.Sema.fs_ret_annots.Sema.an.Annot.an_falsenull
  | None -> false

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

and eval_assign env st (op : Ast.assignop) lhs rhs ~loc : Store.t * value =
  match op with
  | Some bop ->
      (* compound assignment: lhs is both used and defined; no transfer *)
      let st, lv = eval env st lhs in
      let st, _ = eval env st rhs in
      let st =
        match lv.v_ref with
        | Some r -> Store.set_def ~loc st r DSdefined
        | None -> st
      in
      let v =
        if Ctype.is_pointer lv.v_ty && (bop = Ast.Badd || bop = Ast.Bsub) then
          { lv with v_offset = true }
        else lv
      in
      (st, v)
  | None ->
      let st, rv = eval env st rhs in
      let st, (lref, lty) = lval env st lhs in
      let st =
        match lref with
        | Some r -> do_assign env st ~lhs_ref:r ~lhs_ty:lty ~rhs:rv ~loc
        | None -> st
      in
      (st, { rv with v_ty = lty; v_ref = lref })

(** The assignment transfer function.  Handles, in order: release-
    obligation loss on the overwritten reference; allocation-state transfer
    checking; strong update of the reference and its alias images; alias
    edge creation; definition-state propagation to base references. *)
and do_assign env st ~(lhs_ref : Sref.t) ~(lhs_ty : Ctype.t) ~(rhs : value)
    ~loc : Store.t =
  (* a modifies clause limits which externally visible objects the
     function may change (Section 2: "constraints on what may be modified
     ... by a called function") *)
  (match env.fs.Sema.fs_modifies with
  | Some allowed -> (
      match Sref.root_of lhs_ref with
      | Sref.Rglobal g when not (List.mem g allowed) ->
          emit env ~loc ~code:"modifies"
            "Undocumented modification of %s (not in the modifies clause of \
             %s)"
            (Sref.to_string lhs_ref) env.fs.Sema.fs_name
      | _ -> ())
  | None -> ());
  (* observer storage must not be modified by its holder (Appendix B) *)
  (if env.flags.Flags.check_alias then
     let base_observer =
       let rec up r =
         equal_allocstate (Store.get st r).Store.rs_alloc ASobserver
         || match Sref.base r with Some b -> up b | None -> false
       in
       match Sref.base lhs_ref with Some b -> up b | None -> false
     in
     if base_observer then
       emit env ~loc ~code:"modobserver"
         "Suspect modification of observer storage through %s"
         (Sref.to_string lhs_ref));
  match rhs.v_ref with
  | Some rr
    when rhs.v_offset
         && Sref.Set.mem lhs_ref (Store.value_images st rr) ->
      (* p = p + n: same storage through an interior pointer; the
         obligation stays, but the reference can no longer release the
         block start *)
      Store.update_images st lhs_ref (fun s ->
          { s with Store.rs_offset = true })
  | _ ->
  let old = Store.get st lhs_ref in
  let makes_alias_edges =
    Ctype.is_pointer lhs_ty && (not rhs.v_addrof)
    && env.flags.Flags.alias_tracking
  in
  (* names of the assigned value, captured before the store is mutated
     (rebinding the lhs invalidates alias paths through it); only an
     assignment that records alias edges reads them *)
  let rhs_images_pre =
    match rhs.v_ref with
    | Some rr when makes_alias_edges -> Store.value_images st rr
    | _ -> Sref.Set.empty
  in
  (* --- +allocmodel: realloc-result bookkeeping (prune / realloclost) --- *)
  allocmodel_assign env st ~rhs ~lhs_ref ~loc;
  (* --- losing the last reference to only storage (Fig. 4) --- *)
  (if
     env.flags.Flags.check_alloc
     && (not env.flags.Flags.gc_mode)
     && has_obligation old.Store.rs_alloc
     && (match old.Store.rs_def with
        | DSdead | DSundefined | DSerror -> false
        | _ -> true)
     && not (equal_nullstate old.Store.rs_null NSnull)
   then
     let notes =
       match old.Store.rs_allocloc with
       | Some l when not (Loc.is_dummy l) ->
           [ Diag.note ~loc:l
               (Fmt.str "Storage %s becomes only" (Sref.to_string lhs_ref));
           ]
       | _ -> []
     in
     emit env ~loc ~code:"mustfree" ~notes
       "Only storage %s not released before assignment" (Sref.to_string lhs_ref));
  (* silence the overwritten object's other names so the same leak is not
     re-reported when the orphaned fresh object is scanned at exit *)
  let st =
    if
      has_obligation old.Store.rs_alloc
      && (match old.Store.rs_def with
         | DSdead | DSundefined | DSerror -> false
         | _ -> true)
      && not (equal_nullstate old.Store.rs_null NSnull)
    then Store.set_alloc ~loc st lhs_ref ASerror
    else st
  in
  (* --- allocation-state transfer --- *)
  let expected = annots_of_ref env lhs_ref in
  let lhs_expects_obligation =
    match expected.Annot.an_alloc with
    | Some Annot.Only | Some Annot.Owned -> true
    | _ -> Store.mem st lhs_ref && has_obligation old.Store.rs_alloc
  in
  let rhs_alloc_final, st =
    if not (Ctype.is_pointer lhs_ty) then (ASnone, st)
    else if lhs_expects_obligation then begin
      (* the assignment transfers the obligation to lhs *)
      (if
         env.flags.Flags.check_alloc
         && not (can_transfer_obligation rhs.v_alloc)
         && not (equal_nullstate rhs.v_null NSnull)
       then
         let rhs_desc =
           match rhs.v_ref with
           | Some r -> Fmt.str "%s storage %s" (String.capitalize_ascii (allocstate_string rhs.v_alloc)) (Sref.to_string r)
           | None -> Fmt.str "%s storage" (String.capitalize_ascii (allocstate_string rhs.v_alloc))
         in
         let notes =
           match rhs.v_ref with
           | Some r -> (
               match (Store.get st r).Store.rs_allocloc with
               | Some l when not (Loc.is_dummy l) ->
                   [ Diag.note ~loc:l
                       (Fmt.str "Storage %s becomes %s" (Sref.to_string r)
                          (allocstate_string rhs.v_alloc));
                   ]
               | _ -> [])
           | None -> []
         in
         emit env ~loc ~code:"onlytrans" ~notes
           "%s assigned to only storage %s" rhs_desc (Sref.to_string lhs_ref));
      (* "the allocation state of e becomes kept. This means its
         obligation to release storage has been satisfied, but it can
         still be safely used" (Section 5) *)
      let st =
        match rhs.v_ref with
        | Some r
          when (not rhs.v_addrof)
               && has_obligation (Store.get st r).Store.rs_alloc ->
            Store.set_alloc ~loc st r ASkept
        | _ -> st
      in
      (ASonly, st)
    end
    else
      (* no obligation expected: a sharing assignment.  The new reference
         joins the owners set; whether it may release the storage depends
         on where the obligation lives.  Storage owned by an external
         structure (a field, a parameter object, a global) keeps its
         obligation there, so the new reference is dependent; fresh or
         locally owned storage moves with the reference. *)
      let a =
        match rhs.v_alloc with
        | ASowned -> ASdependent
        | ASonly -> (
            match rhs.v_ref with
            | Some r -> (
                match Sref.view r with
                | Sref.Root (Sref.Rfresh _) | Sref.Root (Sref.Rlocal _) ->
                    ASonly
                | _ -> ASdependent)
            | None -> ASonly)
        | a -> a
      in
      (* assigning storage that carries a release obligation to an
         unqualified external reference loses the obligation — the
         eref_pool pattern of Section 6, fixed there by annotating the
         fields only *)
      let st =
        if
          env.flags.Flags.check_alloc
          && (not env.flags.Flags.gc_mode)
          && has_obligation rhs.v_alloc
          && Sref.is_external lhs_ref
          && (match Sref.root_of lhs_ref with
             | Sref.Rfresh _ -> false
             | _ -> true)
          && (match rhs.v_ref with
             | Some r -> (
                 match Sref.view r with
                 | Sref.Root (Sref.Rfresh _) -> true
                 | _ -> false)
             | _ -> false)
        then begin
          emit env ~loc ~code:"onlytrans"
            "Only storage assigned to unqualified external reference %s: \
             obligation to release storage is lost"
            (Sref.to_string lhs_ref);
          match rhs.v_ref with
          | Some r -> Store.set_alloc ~loc st r ASerror
          | None -> st
        end
        else st
      in
      (a, st)
  in
  (* --- strong update --- *)
  (* An assignment rewrites a LOCATION: it applies to every name of that
     location (l->next and argl->next when l aliases argl) but not to
     other names holding the old value (assigning to l does not change
     argl — the paper keeps l and argl distinct for exactly this
     reason). *)
  let images = Store.location_images st lhs_ref in
  (* unbind stale same-value edges of every name of the assigned location
     (symmetric): the location holds a new value now, and the names of the
     assigned VALUE were already captured in [rhs_images_pre]. *)
  let st =
    Sref.Set.fold
      (fun img st ->
        let old_aliases = (Store.get st img).Store.rs_aliases in
        let st =
          Sref.Set.fold
            (fun other st ->
              Store.update st other (fun s ->
                  {
                    s with
                    Store.rs_aliases =
                      Sref.Set.remove img s.Store.rs_aliases;
                  }))
            old_aliases st
        in
        Store.update st img (fun s ->
            { s with Store.rs_aliases = Sref.Set.empty }))
      images st
  in
  (* drop stale references derived from the overwritten location *)
  let st =
    Sref.Set.fold
      (fun img st ->
        if not (Sref.has_derivations img) then st
        else
          Store.fold
            (fun r _ st ->
              if Sref.derived_from ~outer:img r then Store.remove st r else st)
            st st)
      images st
  in
  let def =
    match rhs.v_def with
    | DSdead | DSerror -> DSdefined (* already reported at use *)
    | d -> d
  in
  let null =
    if not (Ctype.is_pointer lhs_ty) then NSuntracked
    else
      match rhs.v_null with
      | NSuntracked -> if rhs.v_offset then NSnotnull else NSuntracked
      | n -> n
  in
  (* old alias edges on lhs are now stale: rebuild state from scratch *)
  let st =
    let here = Some loc in
    let assigned =
      Store.mk_refstate ~def ~null ~alloc:rhs_alloc_final ~offset:rhs.v_offset
        ?defloc:here ?nullloc:here
        ?allocloc:
          (match old.Store.rs_allocloc with Some _ as l -> l | None -> here)
        ()
    in
    Sref.Set.fold (fun img st -> Store.set st img assigned) images st
  in

  (* --- alias edges to the source reference (paper, Fig. 6, point 6) --- *)
  let st =
    match rhs.v_ref with
    | Some _ when makes_alias_edges ->
        let rhs_images =
          (* exclude names that are stale after the rebind: the lhs itself
             and anything derived from it (after l = l->next, the name
             "l->next" denotes a different object) *)
          Sref.Set.filter
            (fun r ->
              (not (Sref.Set.mem r images))
              && not
                   (Sref.Set.exists
                      (fun img ->
                        Sref.equal r img || Sref.derived_from ~outer:img r)
                      images))
            rhs_images_pre
        in
        Sref.Set.fold
          (fun li st ->
            Sref.Set.fold (fun ri st -> Store.add_alias st li ri) rhs_images st)
          images st
    | _ -> st
  in
  (* --- definition-state propagation to bases (Section 5) --- *)
  (* propagate along every updated image so the external views (argl, the
     globals) reflect the change too.  The images themselves are
     ALTERNATIVE names for the assigned location (one per path), so they
     are excluded: propagating one image's change into another would mix
     facts from different paths. *)
  let st =
    Sref.Set.fold
      (fun img st ->
        propagate_def_to_bases env st img ~assigned_def:def ~excl:images ~loc ())
      images st
  in
  st

(** After writing to a derived reference, adjust the definition states of
    its base references: writing into allocated storage makes the base
    partially defined, and the base's other fields are materialized as
    undefined so completion checking can find them (the
    [argl->next->next] pattern of Fig. 6).  The weakening is applied to
    every same-value name of the base (l and argl, Section 5: "this
    definition propagates to its base storage"). *)
and propagate_def_to_bases env st (r : Sref.t) ~(assigned_def : defstate)
    ?(excl = Sref.Set.empty) ~loc () : Store.t =
  match Sref.base r with
  | None -> st
  | Some b when Sref.Set.mem b excl ->
      (* the base is itself an image of the same assignment: it already
         carries the assigned state *)
      st
  | Some b ->
      let skip_field = match Sref.view r with Sref.Field (_, f) -> Some f | _ -> None in
      let weaken st b' =
        if Sref.Set.mem b' excl then st
        else
          let bs = Store.get st b' in
          match bs.Store.rs_def with
          | DSallocated ->
              (* contents were wholly undefined; now one child is written:
                 materialize the other children as undefined, then mark the
                 base partially defined *)
              let st = materialize_siblings env st b' ~skip_field ~loc in
              Store.update st b' (fun s ->
                  { s with Store.rs_def = DSpdefined; rs_defloc = Some loc })
          | DSdefined when not (equal_defstate assigned_def DSdefined) ->
              Store.update st b' (fun s ->
                  { s with Store.rs_def = DSpdefined; rs_defloc = Some loc })
          | _ -> st
      in
      let st =
        Sref.Set.fold
          (fun b' st -> weaken st b')
          (Store.value_images st b) st
      in
      propagate_def_to_bases env st b ~assigned_def ~excl ~loc ()

(** Create undefined entries for the unwritten fields of [b]'s pointee
    (type-driven), so exit-time completion scans can name them. *)
and materialize_siblings env st (b : Sref.t) ~skip_field ~loc : Store.t =
  match type_of_ref env b with
  | None -> st
  | Some bty ->
      let obj = match Ctype.deref bty with Some t -> t | None -> bty in
      List.fold_left
        (fun st (fl : Sema.field) ->
          let fr = Sref.field b fl.Sema.sf_name in
          if Some fl.Sema.sf_name = skip_field || Store.mem st fr then st
          else
            let def, null =
              match Ctype.unroll fl.Sema.sf_ty with
              | Ctype.Carray _ ->
                  (* embedded array storage exists; contents undefined *)
                  (DSallocated, NSnotnull)
              | t when Ctype.is_pointer t -> (DSundefined, NSpossnull)
              | _ -> (DSundefined, NSuntracked)
            in
            Store.set st fr
              (Store.mk_refstate ~def ~null ~alloc:ASnone ~defloc:loc ()))
        st (Sema.fields_of env.prog obj)

(* ------------------------------------------------------------------ *)
(* Completion scans                                                    *)
(* ------------------------------------------------------------------ *)

(** Find incompletely defined storage reachable from [r] ("An object is
    completely defined if all storage that may be reached from it is
    defined", Section 3).  Returns offending references, shallowest first:
    for [allocated] pointers the *contents* are undefined, so the report
    names the reachable fields (the [argl->next->next] pattern). *)
and incomplete_refs env st (r : Sref.t) : Sref.t list =
  match (Store.get st r).Store.rs_def with
  | DSdefined | DSdead | DSerror -> [] (* the common case: nothing to scan *)
  | _ ->
  let seen = ref Sref.Set.empty in
  let rec go r acc =
    if Sref.Set.mem r !seen || Sref.depth r > 6 then acc
    else begin
      seen := Sref.Set.add r !seen;
      let s = Store.get st r in
      let relaxed () =
        match (annots_of_ref env r).Annot.an_def with
        | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef -> true
        | _ -> false
      in
      match s.Store.rs_def with
      | DSdefined | DSdead | DSerror -> acc
      | _ when relaxed () && not (Sref.equal (Sref.root (Sref.root_of r)) r) ->
          (* relaxed field/ref: checking is suppressed (reldef/partial) *)
          acc
      | DSundefined -> r :: acc
      | DSallocated ->
          (* contents undefined: name them by type *)
          let pointee =
            match type_of_ref env r with
            | Some ty -> (
                match Ctype.deref ty with
                | Some t -> Some t
                | None -> if Ctype.is_aggregate ty then Some ty else None)
            | None -> None
          in
          (match pointee with
          | Some obj when Ctype.is_aggregate obj -> (
              match Sema.fields_of env.prog obj with
              | [] -> Sref.deref r :: acc
              | fields -> (
                  let missing =
                    List.filter_map
                      (fun (fl : Sema.field) ->
                        if relaxed_field fl then None
                        else
                          let fr = Sref.field r fl.Sema.sf_name in
                          match Store.find st fr with
                          | Some
                              {
                                Store.rs_def = DSdefined | DSdead | DSerror;
                                _;
                              } ->
                              None
                          | _ -> Some fr)
                      fields
                  in
                  (* one representative is enough: the paper names a single
                     reference per incompletely defined object *)
                  match missing with m :: _ -> m :: acc | [] -> acc))
          | _ -> (
              match Store.find st (Sref.deref r) with
              | Some { Store.rs_def = DSdefined | DSdead | DSerror; _ } -> acc
              | _ -> Sref.deref r :: acc))
      | DSpdefined ->
          (* recurse into tracked children, honouring relaxed annotations *)
          Store.fold
            (fun child _ acc ->
              match Sref.base child with
              | Some b when Sref.equal b r ->
                  let an = annots_of_ref env child in
                  (match an.Annot.an_def with
                  | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef ->
                      acc
                  | _ -> go child acc)
              | _ -> acc)
            st acc
    end
  and relaxed_field (fl : Sema.field) =
    match fl.Sema.sf_annots.Sema.an.Annot.an_def with
    | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef -> true
    | _ -> false
  in
  List.rev (go r [])

(** Null-completion: tracked references reachable from [r] whose state is
    (possibly) null but whose declared annotations say non-null (the
    "Null storage c->vals derivable from return value" anomaly). *)
and null_derivable env st (r : Sref.t) : (Sref.t * Store.refstate) list =
  if not (Sref.has_derivations r) then []
  else
  Store.fold
    (fun child (s : Store.refstate) acc ->
      if
        Sref.derived_from ~outer:r child
        && (match s.Store.rs_def with
           | DSundefined | DSdead | DSerror -> false
           | _ -> true)
        && (match s.Store.rs_null with NSnull | NSpossnull -> true | _ -> false)
        &&
        let annots = annots_of_ref env child in
        (match annots.Annot.an_null with
        | Some Annot.Null | Some Annot.RelNull -> false
        | _ -> true)
      then (child, s) :: acc
      else acc)
    st []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Function calls                                                      *)
(* ------------------------------------------------------------------ *)

and eval_call env st (fexpr : Ast.expr) (args : Ast.expr list) ~loc :
    Store.t * value =
  let callee =
    match fexpr.e with
    | Ast.Eident name when find_local env name = None ->
        Sema.find_func env.prog name
    | _ -> None
  in
  match callee with
  | Some fs -> call_known env st fs args ~loc
  | None ->
      (* unknown callee / function pointer: evaluate everything, assume a
         defined, unmanaged result *)
      let st, _ = eval env st fexpr in
      let st =
        List.fold_left (fun st a -> fst (eval env st a)) st args
      in
      (st, { (unit_value Ctype.int_) with v_alloc = ASdependent })

and call_known env st (fs : Sema.funsig) (args : Ast.expr list) ~loc :
    Store.t * value =
  let fname = fs.Sema.fs_name in
  (* evaluate arguments left to right *)
  let st, argvals =
    List.fold_left
      (fun (st, acc) a ->
        let st, v = eval env st a in
        (st, (v, a.Ast.eloc) :: acc))
      (st, []) args
  in
  let argvals = List.rev argvals in
  let nparams = List.length fs.Sema.fs_params in
  if
    List.length argvals < nparams
    || (List.length argvals > nparams && not fs.Sema.fs_varargs)
  then
    emit env ~loc ~code:"call"
      "function %s called with %d arguments (declared with %d)" fname
      (List.length argvals) nparams;
  let paired =
    let rec zip ps avs =
      match (ps, avs) with
      | p :: ps', av :: avs' -> (Some p, av) :: zip ps' avs'
      | [], av :: avs' -> (None, av) :: zip [] avs'
      | _, [] -> []
    in
    zip fs.Sema.fs_params argvals
  in
  (* +allocmodel: capture the pre-consumption states of a modeled
     realloc's first argument — on the NULL-result branch those names
     are resurrected (the old block is still allocated) *)
  let realloc_capture =
    if env.flags.Flags.alloc_model && Allocmodel.is_realloc fname then
      match argvals with
      | (({ v_ref = Some r; _ } : value) as v, _) :: _
        when has_obligation v.v_alloc
             && not (equal_nullstate v.v_null NSnull) ->
          let imgs = Sref.Set.add r (Store.value_images st r) in
          Some
            (r, List.map (fun i -> (i, Store.get st i)) (Sref.Set.elements imgs))
      | _ -> None
    else None
  in
  (* per-argument interface checks and transfers *)
  let callee_sum = summary_of_callee env fs in
  let st =
    fst
      (List.fold_left
         (fun (st, i) (popt, ((v : value), aloc)) ->
           match popt with
           | None ->
               (* varargs argument: must be completely defined *)
               (check_arg_complete env st v ~fname ~aloc, i + 1)
           | Some (p : Sema.param) ->
               let sum_effect =
                 match callee_sum with
                 | Some sm
                   when Summary.slot_unannotated p.Sema.pr_annots
                        && i < Array.length sm.Summary.sm_params ->
                     Some sm.Summary.sm_params.(i)
                 | _ -> None
               in
               (check_arg env st fs p v ~sum_effect ~fname ~aloc, i + 1))
         (st, 0) paired)
  in
  (* unique parameters: may not share storage with any other parameter or
     accessible global (the strcpy anomaly, Section 6) *)
  let st =
    if
      env.flags.Flags.check_alias
      && List.exists
           (fun (p : Sema.param) -> p.Sema.pr_annots.Sema.an.Annot.an_unique)
           fs.Sema.fs_params
    then check_unique env st fs paired ~fname ~loc
    else st
  in
  (* globals used by the callee *)
  let st = check_call_globals env st fs ~loc in
  (* result *)
  let returned_arg =
    let rec find ps avs =
      match (ps, avs) with
      | (p : Sema.param) :: _, (av, _) :: _
        when p.Sema.pr_annots.Sema.an.Annot.an_returned ->
          Some av
      | _ :: ps', _ :: avs' -> find ps' avs'
      | _ -> None
    in
    find fs.Sema.fs_params argvals
  in
  (* [+xproc]: a summary-proven alias result behaves like [returned] *)
  let returned_arg =
    match returned_arg with
    | Some _ -> returned_arg
    | None -> (
        match callee_sum with
        | Some sm
          when Summary.slot_unannotated fs.Sema.fs_ret_annots
               && Ctype.is_pointer fs.Sema.fs_ret -> (
            match sm.Summary.sm_ret with
            | Summary.Ralias k ->
                Telemetry.Counter.tick Telemetry.c_summary_consults;
                Option.map fst (List.nth_opt argvals k)
            | _ -> None)
        | _ -> None)
  in
  let ret_an = fs.Sema.fs_ret_annots.Sema.an in
  let st = if ret_an.Annot.an_exits then Store.unreachable st else st in
  match returned_arg with
  | Some av -> (st, { av with v_ty = fs.Sema.fs_ret })
  | None ->
      let ty = fs.Sema.fs_ret in
      if not (Ctype.is_pointer ty) then (st, unit_value ty)
      else
        let null =
          match ret_an.Annot.an_null with
          | Some Annot.Null -> NSpossnull
          | Some Annot.RelNull -> NSrel
          | _ -> NSnotnull
        in
        let def =
          match ret_an.Annot.an_def with
          | Some Annot.Out -> DSallocated
          | Some Annot.Partial -> DSpdefined
          | _ -> DSdefined
        in
        let def =
          (* the allocator table is authoritative for modeled fresh
             allocations (calloc's result is zeroed, hence defined) *)
          if env.flags.Flags.alloc_model then
            Option.value (Allocmodel.result_def fname) ~default:def
          else def
        in
        let alloc =
          match ret_an.Annot.an_alloc with
          | Some Annot.Only -> ASonly
          | Some Annot.Shared -> ASshared
          | Some Annot.Dependent -> ASdependent
          | Some Annot.Owned -> ASowned
          | _ -> (
              if ret_an.Annot.an_newref then ASrefcounted
              else
                match ret_an.Annot.an_expose with
                | Some Annot.Observer -> ASobserver
                | Some Annot.Exposed -> ASexposed
                | None -> ASdependent)
        in
        if has_obligation alloc then begin
          (* fresh storage: track it so an unconsumed result is a leak *)
          let id = fresh_id env in
          let r = Sref.root (Sref.Rfresh (id, fname)) in
          (match realloc_capture with
          | Some (old_r, saved) ->
              Hashtbl.replace (own_realloc_sources env) id
                { rsrc_old = old_r; rsrc_saved = saved; rsrc_loc = loc }
          | None -> ());
          let st =
            let l = Some loc in
            Store.set st r
              (Store.mk_refstate ~def ~null ~alloc ?defloc:l ?nullloc:l
                 ?allocloc:l ())
          in
          (st, value_of_state ty r (Store.get st r))
        end
        else
          ( st,
            {
              v_ty = ty;
              v_ref = None;
              v_def = def;
              v_null = null;
              v_alloc = alloc;
              v_offset = false;
              v_addrof = false;
            } )

and check_arg_complete env st (v : value) ~fname ~aloc : Store.t =
  if not env.flags.Flags.check_def then st
  else
    match v.v_ref with
    | Some r ->
        let missing = incomplete_refs env st r in
        List.fold_left
          (fun st m ->
            emit env ~loc:aloc ~code:"compdef"
              "Storage %s reachable from actual parameter is not completely \
               defined in call to %s"
              (Sref.to_string m) fname;
            Store.set_def ~loc:aloc st m DSerror)
          st missing
    | None -> st

and check_arg env st (fs : Sema.funsig) (p : Sema.param) (v : value)
    ~sum_effect ~fname ~aloc : Store.t =
  let an = p.Sema.pr_annots.Sema.an in
  (* --- null --- *)
  let st =
    if
      env.flags.Flags.check_null
      && Ctype.is_pointer p.Sema.pr_ty
      && (match an.Annot.an_null with
         | Some Annot.Null | Some Annot.RelNull -> false
         | _ -> true)
      && (match v.v_null with NSnull | NSpossnull -> true | _ -> false)
    then begin
      let desc =
        match v.v_ref with
        | Some r -> Sref.to_string r
        | None -> "<expression>"
      in
      let notes =
        match v.v_ref with
        | Some r -> (
            match (Store.get st r).Store.rs_nullloc with
            | Some l when not (Loc.is_dummy l) ->
                [ Diag.note ~loc:l (Fmt.str "Storage %s may become null" desc) ]
            | _ -> [])
        | None -> []
      in
      emit env ~loc:aloc ~code:"nullpass" ~notes
        "Possibly null storage %s passed as non-null param %s of %s" desc
        p.Sema.pr_name fname;
      match v.v_ref with
      | Some r -> Store.refine_null ~loc:aloc st r NSnotnull
      | None -> st
    end
    else st
  in
  (* --- definition --- *)
  let st =
    match an.Annot.an_def with
    | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef -> st
    | _
      when env.flags.Flags.alloc_model
           && Allocmodel.is_realloc fname
           && Ctype.is_pointer p.Sema.pr_ty ->
        (* realloc preserves whatever was defined: a partially defined
           block (fresh from malloc) is a legitimate argument *)
        st
    | _ -> check_arg_complete env st v ~fname ~aloc
  in
  (* --- allocation transfer --- *)
  let st =
    match an.Annot.an_alloc with
    | Some Annot.Only | Some Annot.Keep | Some Annot.Owned ->
        check_obligation_transfer env st fs p v ~fname ~aloc
    | _ when an.Annot.an_killref ->
        (* a killref parameter consumes one reference; the object itself
           stays usable (the count may still be positive) *)
        if
          env.flags.Flags.check_alloc
          && (not (equal_nullstate v.v_null NSnull))
          && not (equal_allocstate v.v_alloc ASrefcounted)
        then begin
          let desc =
            match v.v_ref with
            | Some r -> Sref.to_string r
            | None -> "<expression>"
          in
          emit env ~loc:aloc ~code:"refcount"
            "%s storage %s passed as killref param %s of %s (no live \
             reference to consume)"
            (String.capitalize_ascii (allocstate_string v.v_alloc))
            desc p.Sema.pr_name fname;
          match v.v_ref with
          | Some r -> Store.set_alloc ~loc:aloc st r ASerror
          | None -> st
        end
        else begin
          match v.v_ref with
          | Some r -> Store.set_alloc ~loc:aloc st r ASkept
          | None -> st
        end
    | _ -> st
  in
  (* --- out: after the call the referenced storage is defined --- *)
  let st =
    match (an.Annot.an_def, v.v_ref) with
    | Some Annot.Out, Some r
      when not (match an.Annot.an_alloc with Some Annot.Only -> true | _ -> false)
      ->
        Store.set_def ~loc:aloc st r DSdefined
    | _ -> st
  in
  (* --- [+xproc]: summary-driven transfer for an unannotated slot --- *)
  let st =
    match (sum_effect, v.v_ref) with
    | Some pe, Some r
      when (not v.v_addrof) && Ctype.is_pointer p.Sema.pr_ty ->
        Telemetry.Counter.tick Telemetry.c_summary_consults;
        let released =
          match pe.Summary.pe_rel with
          | Summary.Prel | Summary.Prelnull | Summary.Pcond -> true
          | Summary.Pnone | Summary.Ptop -> false
        in
        if released then
          (* the callee may release the argument on some path: the
             caller's reference must be treated as dead afterwards (a
             later use is [usereleased], a later free a double free) *)
          if equal_nullstate v.v_null NSnull then st
          else Store.set_def ~loc:aloc st r DSdead
        else begin
          let st =
            if pe.Summary.pe_escape then begin
              (* the callee stored the reference: the storage is now
                 shared with wherever it was stashed — the caller no
                 longer holds the sole reference, so releasing it later
                 leaves the stored copy dangling *)
              env.escaped_args <-
                Sref.Set.add r
                  (Sref.Set.union (Store.value_images st r) env.escaped_args);
              Store.set_alloc ~loc:aloc st r ASshared
            end
            else st
          in
          if pe.Summary.pe_out then
            (* every normal path writes through the pointer *)
            Store.set_def ~loc:aloc st r DSdefined
          else st
        end
    | _ -> st
  in
  st

(** Transfer of a release obligation into an [only]/[keep]/[owned]
    parameter, including the special checks for [free]-like interfaces. *)
and check_obligation_transfer env st (fs : Sema.funsig) (p : Sema.param)
    (v : value) ~fname ~aloc : Store.t =
  ignore fs;
  let an = p.Sema.pr_annots.Sema.an in
  let is_free_like =
    (* an out only void * parameter can only sensibly deallocate its
       argument (paper, footnote 5) *)
    (match an.Annot.an_def with Some Annot.Out -> true | _ -> false)
    && match Ctype.unroll p.Sema.pr_ty with
       | Ctype.Cptr Ctype.Cvoid -> true
       | _ -> false
  in
  (* null actual passed to a null-annotated only param is a no-op *)
  if equal_nullstate v.v_null NSnull then st
  else begin
    let gc_leaks_ok = env.flags.Flags.gc_mode in
    let st =
      if not env.flags.Flags.check_alloc then st
      else if v.v_offset && is_free_like then begin
        (* freeing an offset pointer: only detected with +freeoffset
           (paper, footnote 8: a post-paper improvement) *)
        if env.flags.Flags.free_offset then
          emit env ~loc:aloc ~code:"freeoffset"
            "Offset pointer passed as only param %s of %s: storage cannot \
             be released through an interior pointer"
            p.Sema.pr_name fname;
        st
      end
      else if
        equal_allocstate v.v_alloc ASstatic
        || (match v.v_ref with
           | Some r -> (
               match Sref.root_of r with Sref.Rstatic _ -> true | _ -> false)
           | None -> false)
      then begin
        (* freeing static storage: +freestatic (paper, footnote 8) *)
        if env.flags.Flags.free_static && is_free_like then
          emit env ~loc:aloc ~code:"freestatic"
            "Static storage passed as only param %s of %s" p.Sema.pr_name
            fname;
        st
      end
      else if
        env.flags.Flags.xproc
        && (match v.v_ref with
           | Some r -> ref_escaped env st r
           | None -> false)
      then begin
        (* [+xproc]: a summarized callee stored this reference away; the
           release leaves that stored copy dangling *)
        let desc =
          match v.v_ref with Some r -> Sref.to_string r | None -> "<expression>"
        in
        emit env ~loc:aloc ~code:"escapefree"
          "Storage %s passed as only param %s of %s but a reference escaped \
           through an earlier call (the stored reference would dangle)"
          desc p.Sema.pr_name fname;
        match v.v_ref with
        | Some r -> Store.set_alloc ~loc:aloc st r ASerror
        | None -> st
      end
      else if not (can_transfer_obligation v.v_alloc) && not gc_leaks_ok then begin
        let implicitly =
          match v.v_ref with
          | Some r -> (
              let an = annots_of_ref env r in
              match Sref.view r with
              | Sref.Root (Sref.Rlocal n) -> (
                  match find_local env n with
                  | Some { li_param = Some i; _ } -> (
                      match List.nth_opt env.fs.fs_params i with
                      | Some pp -> pp.Sema.pr_annots.Sema.alloc_implicit
                      | None -> false)
                  | _ -> false)
              | _ -> ignore an; false)
          | None -> false
        in
        let desc =
          match v.v_ref with Some r -> Sref.to_string r | None -> "<expression>"
        in
        emit env ~loc:aloc ~code:"onlytrans"
          "%s%s storage %s passed as only param %s of %s"
          (if implicitly then "Implicitly " else "")
          (if implicitly then allocstate_string v.v_alloc
           else String.capitalize_ascii (allocstate_string v.v_alloc))
          desc p.Sema.pr_name fname;
        match v.v_ref with
        | Some r -> Store.set_alloc ~loc:aloc st r ASerror
        | None -> st
      end
      else st
    in
    (* completely-destroyed check (footnote 5): storage reachable from a
       freed object must not hold live unshared objects *)
    let st =
      if is_free_like && env.flags.Flags.check_alloc && not gc_leaks_ok then
        match v.v_ref with
        | Some r ->
            (* tracked descendants holding obligations... *)
            let st =
              if not (Sref.has_derivations r) then st
              else
              Store.fold
                (fun child (s : Store.refstate) st ->
                  if
                    Sref.derived_from ~outer:r child
                    && has_obligation s.Store.rs_alloc
                    && not (equal_defstate s.Store.rs_def DSdead)
                    && not (equal_nullstate s.Store.rs_null NSnull)
                  then begin
                    emit env ~loc:aloc ~code:"compdestroy"
                      "Only storage %s derivable from parameter is not \
                       released by call to %s"
                      (Sref.to_string child) fname;
                    Store.set_alloc ~loc:aloc st child ASerror
                  end
                  else st)
                st st
            in
            (* ...and untouched only fields, which default to live (the
               object arrived completely defined) *)
            let obj =
              Option.bind (type_of_ref env r) Ctype.deref
            in
            let fields =
              match obj with
              | Some t -> Sema.fields_of env.prog t
              | None -> []
            in
            List.fold_left
              (fun st (fl : Sema.field) ->
                let fr = Sref.field r fl.Sema.sf_name in
                if
                  (not (Store.mem st fr))
                  && (match fl.Sema.sf_annots.Sema.an.Annot.an_alloc with
                     | Some Annot.Only | Some Annot.Owned -> true
                     | _ -> false)
                  && fl.Sema.sf_annots.Sema.an.Annot.an_null = None
                then begin
                  emit env ~loc:aloc ~code:"compdestroy"
                    "Only storage %s derivable from parameter is not \
                     released by call to %s"
                    (Sref.to_string fr) fname;
                  Store.set st fr
                    (Store.mk_refstate ~def:DSdefined ~null:NSnotnull
                       ~alloc:ASerror ())
                end
                else st)
              st fields
        | None -> st
      else st
    in
    (* the transfer itself *)
    match v.v_ref with
    | Some _ when v.v_addrof -> st
    | Some r -> (
        match p.Sema.pr_annots.Sema.an.Annot.an_alloc with
        | Some Annot.Only ->
            (* original reference becomes a dead pointer *)
            Store.set_def ~loc:aloc st r DSdead
        | Some Annot.Keep ->
            (* obligation satisfied, reference still usable *)
            Store.set_alloc ~loc:aloc st r ASkept
        | Some Annot.Owned -> Store.set_alloc ~loc:aloc st r ASdependent
        | _ -> st)
    | None -> st
  end

(** Unique parameters: "May not share storage with any other function
    parameter or accessible global." *)
and check_unique env st (fs : Sema.funsig)
    (paired : (Sema.param option * (value * Loc.t)) list) ~fname ~loc :
    Store.t =
  let shareable (v : value) =
    (* could this argument's storage be externally shared?  Fresh or
       unshared (only) storage cannot. *)
    match v.v_alloc with
    | ASonly | ASowned -> false
    | _ -> (
        match v.v_ref with
        | Some r ->
            Sref.Set.exists
              (fun img ->
                match Sref.root_of img with
                | Sref.Rparam (i, _) -> (
                    match List.nth_opt env.fs.fs_params i with
                    | Some p ->
                        let a = p.Sema.pr_annots.Sema.an in
                        (not a.Annot.an_unique)
                        && a.Annot.an_alloc <> Some Annot.Only
                    | None -> true)
                | Sref.Rglobal _ -> true
                | _ -> false)
              (Store.value_images st r)
        | None -> false)
  in
  let rec positions i = function
    | [] -> []
    | (p, av) :: rest -> (i, p, av) :: positions (i + 1) rest
  in
  let pos = positions 1 paired in
  List.fold_left
    (fun st (i, popt, ((v : value), aloc)) ->
      match popt with
      | Some (p : Sema.param) when p.Sema.pr_annots.Sema.an.Annot.an_unique ->
          List.fold_left
            (fun st (j, qopt, ((w : value), _)) ->
              ignore qopt;
              if
                i <> j
                && Ctype.is_pointer v.v_ty
                && Ctype.is_pointer w.v_ty
                && (directly_alias st v w
                   || (shareable v && shareable w))
              then begin
                let d (x : value) =
                  match x.v_ref with
                  | Some r -> Sref.to_string r
                  | None -> "<expression>"
                in
                emit env ~loc:aloc ~code:"aliasunique"
                  "Parameter %d (%s) to function %s is declared unique but \
                   may be aliased externally by parameter %d (%s)"
                  i (d v) fname j (d w);
                st
              end
              else st)
            st pos
      | _ -> (ignore fs; ignore loc; st))
    st pos

and directly_alias st (v : value) (w : value) =
  match (v.v_ref, w.v_ref) with
  | Some a, Some b ->
      not
        (Sref.Set.is_empty
           (Sref.Set.inter (Store.value_images st a) (Store.value_images st b)))
  | _ -> false

(** Call-site checking of the callee's globals list: entry constraints
    hold before the call; after the call the globals are assumed to satisfy
    their declared annotations. *)
and check_call_globals env st (fs : Sema.funsig) ~loc : Store.t =
  List.fold_left
    (fun st (gname, (ga : Annot.set)) ->
      match Sema.find_global env.prog gname with
      | None -> st
      | Some gv ->
          let st = touch_global env st gname in
          let r = Sref.root (Sref.Rglobal gname) in
          let s = Store.get st r in
          let declared = gv.Sema.gv_annots.Sema.an in
          (* null state must satisfy the declaration unless undef *)
          (if
             env.flags.Flags.check_null
             && (not ga.Annot.an_undef)
             && Ctype.is_pointer gv.Sema.gv_ty
             && (match declared.Annot.an_null with
                | Some Annot.Null | Some Annot.RelNull -> false
                | _ -> true)
             && match s.Store.rs_null with
                | NSnull | NSpossnull -> true
                | _ -> false
           then
             let notes =
               match s.Store.rs_nullloc with
               | Some l when not (Loc.is_dummy l) ->
                   [ Diag.note ~loc:l
                       (Fmt.str "Storage %s may become null" gname);
                   ]
               | _ -> []
             in
             emit env ~loc ~code:"globnull" ~notes
               "Non-null global %s may reference null storage at call to %s"
               gname fs.Sema.fs_name);
          (* must be defined unless the callee marks it undef *)
          let st =
            if
              env.flags.Flags.check_def && not ga.Annot.an_undef
            then
              List.fold_left
                (fun st m ->
                  emit env ~loc ~code:"compdef"
                    "Global %s is not completely defined at call to %s (%s is \
                     undefined)"
                    gname fs.Sema.fs_name (Sref.to_string m);
                  Store.set_def ~loc st m DSerror)
                st
                (incomplete_refs env st r)
            else st
          in
          (* after the call: assume declared state; killed globals die *)
          let after =
            if ga.Annot.an_killed then
              { (Store.get st r) with Store.rs_def = DSdead; rs_defloc = Some loc }
            else
              entry_state env ~ty:gv.Sema.gv_ty ~annots:declared ~loc
          in
          (* drop stale derived refs *)
          let st =
            if not (Sref.has_derivations r) then st
            else
            Store.fold
              (fun child _ st ->
                if Sref.derived_from ~outer:r child then Store.remove st child
                else st)
              st st
          in
          Store.set st r after)
    st fs.Sema.fs_globals

(* ------------------------------------------------------------------ *)
(* Leak checking                                                       *)
(* ------------------------------------------------------------------ *)

(** Does any alias image of [r] escape to the caller (parameter object,
    global, or the return value)?  Fresh storage reachable only from
    locals does not escape. *)
let escapes ?(ignoring : Sref.root option) env st (r : Sref.t) : bool =
  ignore env;
  Sref.Set.exists
    (fun img ->
      let root = Sref.root_of img in
      match ignoring with
      | Some ig when Sref.equal_root root ig -> false
      | _ -> (
          match root with
          | Sref.Rparam _ | Sref.Rglobal _ | Sref.Rret -> true
          | _ -> false))
    (Store.value_images st r)

(** Report storage whose release obligation is lost when [r] goes out of
    scope or the function returns. *)
let leak_check_ref ?ignoring env st (r : Sref.t) ~(what : string) ~loc :
    Store.t =
  let s = Store.get st r in
  if
    env.flags.Flags.check_alloc
    && (not env.flags.Flags.gc_mode)
    && has_obligation s.Store.rs_alloc
    && (match s.Store.rs_def with
       | DSdead | DSundefined | DSerror -> false
       | _ -> true)
    && (not (equal_nullstate s.Store.rs_null NSnull))
    && not (escapes ?ignoring env st r)
  then begin
    let notes =
      match s.Store.rs_allocloc with
      | Some l when not (Loc.is_dummy l) ->
          [ Diag.note ~loc:l
              (Fmt.str "Storage %s becomes only" (Sref.to_string r)) ]
      | _ -> []
    in
    emit env ~loc ~code:"mustfree" ~notes
      "Only storage %s not released before %s" (Sref.to_string r) what;
    (* silence the whole alias group *)
    Store.set_alloc ~loc st r ASerror
  end
  else st

(** Leak-check every local in [vars] (a scope being exited). *)
let leak_check_scope env st (vars : (string * localinfo) list) ~loc : Store.t =
  List.fold_left
    (fun st (_, i) -> leak_check_ref env st i.li_ref ~what:"scope exit" ~loc)
    st vars

(* ------------------------------------------------------------------ *)
(* Function exit checks                                                *)
(* ------------------------------------------------------------------ *)

(** Check all interface constraints at a return point (paper, Section 2:
    "At all return points, the function must satisfy the constraints
    implied by the annotations on its return value, parameters, and the
    global variables it uses"). *)
let check_exit env st ~(ret : value option) ~loc : Store.t =
  (* summary observation first: raw states, before exit checks rewrite
     them to error markers *)
  (match env.exit_obs with
  | Some obs ->
      let xi_ret =
        match ret with
        | Some v when Ctype.is_pointer env.fs.Sema.fs_ret ->
            Some (v.v_null, v.v_alloc)
        | _ -> None
      in
      let xi_params =
        Array.map
          (fun r ->
            let s = Store.get st r in
            (s.Store.rs_def, s.Store.rs_alloc))
          env.param_refs
      in
      obs { xi_loc = loc; xi_ret; xi_params }
  | None -> ());
  let fs = env.fs in
  let ret_an = fs.Sema.fs_ret_annots.Sema.an in
  (* ---- return value ---- *)
  let st =
    match ret with
    | None -> st
    | Some v ->
        (* null *)
        (if
           env.flags.Flags.check_null
           && Ctype.is_pointer fs.Sema.fs_ret
           && (match ret_an.Annot.an_null with
              | Some Annot.Null | Some Annot.RelNull -> false
              | _ -> true)
           && match v.v_null with NSnull | NSpossnull -> true | _ -> false
         then
           let desc =
             match v.v_ref with Some r -> Sref.to_string r | None -> "<expression>"
           in
           let notes =
             match v.v_ref with
             | Some r -> (
                 match (Store.get st r).Store.rs_nullloc with
                 | Some l when not (Loc.is_dummy l) ->
                     [ Diag.note ~loc:l
                         (Fmt.str "Storage %s may become null" desc) ]
                 | _ -> [])
             | None -> []
           in
           emit env ~loc ~code:"nullret" ~notes
             "Possibly null storage %s returned as non-null result" desc);
        (* null-completion on the returned object *)
        let st =
          match v.v_ref with
          | Some r when env.flags.Flags.check_null ->
              List.fold_left
                (fun st (child, (s : Store.refstate)) ->
                  let notes =
                    match s.Store.rs_nullloc with
                    | Some l when not (Loc.is_dummy l) ->
                        [ Diag.note ~loc:l
                            (Fmt.str "Storage %s becomes null"
                               (Sref.to_string child));
                        ]
                    | _ -> []
                  in
                  emit env ~loc ~code:"nullderive" ~notes
                    "Null storage %s derivable from return value: %s"
                    (Sref.to_string child) (Sref.to_string r);
                  Store.refine_null ~loc st child NSnotnull)
                st (null_derivable env st r)
          | _ -> st
        in
        (* definition-completeness of the returned object *)
        let st =
          match ret_an.Annot.an_def with
          | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef -> st
          | _ -> (
              match v.v_ref with
              | Some r when env.flags.Flags.check_def ->
                  List.fold_left
                    (fun st m ->
                      emit env ~loc ~code:"compdef"
                        "Returned storage is not completely defined: %s is \
                         undefined"
                        (Sref.to_string m);
                      Store.set_def ~loc st m DSerror)
                    st (incomplete_refs env st r)
              | _ -> st)
        in
        (* newref balance: the returned value must carry a reference the
           caller may own.  Borrowed (tempref) and transferred (killref,
           fresh) references qualify — the count arithmetic is the
           programmer's — but observer/exposed/static/shared/dependent
           storage has no reference to give out. *)
        (if
           env.flags.Flags.check_alloc
           && ret_an.Annot.an_newref
           && Ctype.is_pointer fs.Sema.fs_ret
           && (not (equal_nullstate v.v_null NSnull))
           && (match v.v_alloc with
              | ASobserver | ASexposed | ASstatic | AStemp | ASshared
              | ASdependent ->
                  true
              | _ -> (
                  match v.v_ref with
                  | Some r -> (
                      match Sref.root_of r with
                      | Sref.Rstatic _ -> true
                      | _ -> false)
                  | None -> false))
         then
           let desc =
             match v.v_ref with
             | Some r -> Sref.to_string r
             | None -> "<expression>"
           in
           emit env ~loc ~code:"refcount"
             "Function %s returns %s storage %s as a newref result: no new \
              reference is created (reference count balance)"
             fs.Sema.fs_name
             (allocstate_string v.v_alloc)
             desc);
        (* a borrowed (tempref) parameter reference must not outlive the
           call through the result unless the function vouches for a new
           reference (newref) *)
        (if
           env.flags.Flags.check_alloc
           && (not ret_an.Annot.an_newref)
           && Ctype.is_pointer fs.Sema.fs_ret
           && List.exists
                (fun (p : Sema.param) -> p.Sema.pr_annots.Sema.an.Annot.an_tempref)
                fs.Sema.fs_params
         then
           match v.v_ref with
           | Some r ->
               let imgs = Sref.Set.add r (Store.value_images st r) in
               List.iteri
                 (fun i (p : Sema.param) ->
                   if
                     p.Sema.pr_annots.Sema.an.Annot.an_tempref
                     && Sref.Set.exists
                          (fun img ->
                            match Sref.root_of img with
                            | Sref.Rparam (j, _) -> j = i
                            | _ -> false)
                          imgs
                   then
                     emit env ~loc ~code:"refcount"
                       "Borrowed reference %s (tempref param %s) returned \
                        without a new reference (declare the result newref \
                        or take a reference)"
                       (Sref.to_string r) p.Sema.pr_name)
                 fs.Sema.fs_params
           | None -> ());
        (* allocation transfer through the result *)
        let only_result =
          match ret_an.Annot.an_alloc with
          | Some Annot.Only | Some Annot.Owned -> true
          | _ -> ret_an.Annot.an_newref
        in
        let st =
          if not (Ctype.is_pointer fs.Sema.fs_ret) then st
          else if only_result then begin
            (if
               env.flags.Flags.check_alloc
               && (not (can_transfer_obligation v.v_alloc))
               && (not ret_an.Annot.an_newref)
                  (* a newref result gets the refcount-family message *)
               && not (equal_nullstate v.v_null NSnull)
             then
               let desc =
                 match v.v_ref with
                 | Some r -> Sref.to_string r
                 | None -> "<expression>"
               in
               emit env ~loc ~code:"onlytrans"
                 "%s storage %s returned as only result"
                 (String.capitalize_ascii (allocstate_string v.v_alloc))
                 desc);
            match v.v_ref with
            | Some r when has_obligation (Store.get st r).Store.rs_alloc ->
                (* consumed by the caller *)
                Store.set_def ~loc st r DSdead
            | _ -> st
          end
          else begin
            (* result not declared only: a fresh object's obligation is
               lost ("a memory leak is suspected", Section 6) *)
            (if
               env.flags.Flags.check_alloc
               && (not env.flags.Flags.gc_mode)
               && has_obligation v.v_alloc
               && (match v.v_ref with
                  | Some r -> not (escapes env st r)
                  | None -> true)
             then
               let desc =
                 match v.v_ref with
                 | Some r -> Sref.to_string r
                 | None -> "<expression>"
               in
               emit env ~loc ~code:"mustfree"
                 "Fresh storage %s returned as unqualified result: obligation \
                  to release storage is lost (memory leak)"
                 desc);
            match v.v_ref with
            | Some r -> Store.set_alloc ~loc st r ASerror
            | None -> st
          end
        in
        st
  in
  (* ---- parameters ---- *)
  let st =
    let rec params st i = function
      | [] -> st
      | (p : Sema.param) :: rest ->
          let r = env.param_refs.(i) in
          let s = Store.get st r in
          let an = p.Sema.pr_annots.Sema.an in
          let is_dead = equal_defstate s.Store.rs_def DSdead in
          (* an unconsumed only parameter is a leak *)
          let st =
            match an.Annot.an_alloc with
            | Some Annot.Only | Some Annot.Keep ->
                if is_dead then st
                else
                  (* the parameter's own external view is where the
                     obligation LIVES, not an escape route *)
                  leak_check_ref ~ignoring:(Sref.root_of r) env st r
                    ~what:"return" ~loc
            | _ when an.Annot.an_killref ->
                if is_dead then st
                else
                  leak_check_ref ~ignoring:(Sref.root_of r) env st r
                    ~what:"return" ~loc
            | _ when an.Annot.an_tempref ->
                (* a tempref reference is borrowed for the duration of the
                   call: storing it where it outlives the call (a global,
                   another parameter's object) escapes the borrow *)
                if
                  env.flags.Flags.check_alloc && (not is_dead)
                  && escapes ~ignoring:(Sref.root_of r) env st r
                then begin
                  emit env ~loc ~code:"refcount"
                    "Borrowed reference %s (tempref param) escapes through an \
                     externally visible reference when %s returns"
                    p.Sema.pr_name env.fs.Sema.fs_name;
                  Store.set_alloc ~loc st r ASerror
                end
                else st
            | _ -> st
          in
          (* temp parameters must survive (a release was reported at the
             release site; here we check completeness only) *)
          let st =
            if is_dead then st
            else
              match an.Annot.an_def with
              | Some Annot.Out | Some Annot.Partial | Some Annot.RelDef
                when false ->
                  st
              | _ ->
                  if env.flags.Flags.check_def then
                    List.fold_left
                      (fun st m ->
                        emit env ~loc ~code:"compdef"
                          "Storage %s reachable from parameter %s is not \
                           completely defined when function returns"
                          (Sref.to_string m) p.Sema.pr_name;
                        Store.set_def ~loc st m DSerror)
                      st (incomplete_refs env st r)
                  else st
          in
          params st (i + 1) rest
    in
    params st 0 fs.Sema.fs_params
  in
  (* ---- globals ---- *)
  let st =
    Store.fold
      (fun r (s : Store.refstate) st ->
        match Sref.view r with
        | Sref.Root (Sref.Rglobal g) -> (
            match Sema.find_global env.prog g with
            | None -> st
            | Some gv ->
                let declared = gv.Sema.gv_annots.Sema.an in
                let killed =
                  match List.assoc_opt g fs.Sema.fs_globals with
                  | Some ga -> ga.Annot.an_killed
                  | None -> false
                in
                (* null state at exit (Fig. 2) *)
                (if
                   env.flags.Flags.check_null
                   && Ctype.is_pointer gv.Sema.gv_ty
                   && (match declared.Annot.an_null with
                      | Some Annot.Null | Some Annot.RelNull -> false
                      | _ -> true)
                   && (match s.Store.rs_null with
                      | NSnull | NSpossnull -> true
                      | _ -> false)
                   && not (equal_defstate s.Store.rs_def DSdead)
                 then
                   let notes =
                     match s.Store.rs_nullloc with
                     | Some l when not (Loc.is_dummy l) ->
                         [ Diag.note ~loc:l
                             (Fmt.str "Storage %s may become null" g) ]
                     | _ -> []
                   in
                   emit env ~loc ~code:"globnull" ~notes
                     "Function returns with non-null global %s referencing \
                      null storage"
                     g);
                (* a released global must be declared killed *)
                let st =
                  if
                    env.flags.Flags.check_alloc
                    && equal_defstate s.Store.rs_def DSdead
                    && not killed
                  then begin
                    emit env ~loc ~code:"globstate"
                      "Function returns with released global %s" g;
                    Store.set_def ~loc st r DSerror
                  end
                  else if
                    env.flags.Flags.check_def
                    && not (equal_defstate s.Store.rs_def DSdead)
                  then
                    List.fold_left
                      (fun st m ->
                        emit env ~loc ~code:"compdef"
                          "Global %s is not completely defined when function \
                           returns (%s is undefined)"
                          g (Sref.to_string m);
                        Store.set_def ~loc st m DSerror)
                      st (incomplete_refs env st r)
                  else st
                in
                st)
        | _ -> st)
      st st
  in
  (* ---- locals still in scope, and unconsumed fresh storage ---- *)
  let st =
    List.fold_left
      (fun st scope -> leak_check_scope env st scope.vars ~loc)
      st env.scopes
  in
  let st =
    Store.fold
      (fun r _ st ->
        match Sref.view r with
        | Sref.Root (Sref.Rfresh _) -> leak_check_ref env st r ~what:"return" ~loc
        | _ -> st)
      st st
  in
  st

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let push_breakable env =
  env.breaks <- [] :: env.breaks;
  env.continues <- [] :: env.continues

let pop_breakable env : Store.t list * Store.t list =
  match (env.breaks, env.continues) with
  | b :: brest, c :: crest ->
      env.breaks <- brest;
      env.continues <- crest;
      (b, c)
  | _ -> ([], [])

let note_break env st =
  match env.breaks with
  | b :: rest -> env.breaks <- (st :: b) :: rest
  | [] -> ()

let note_continue env st =
  match env.continues with
  | c :: rest -> env.continues <- (st :: c) :: rest
  | [] -> ()

let merge_all env ~loc (stores : Store.t list) : Store.t =
  match stores with
  | [] -> Store.unreachable Store.empty
  | s :: rest ->
      List.fold_left
        (fun acc s -> merge_reporting env ~loc acc s)
        s rest

(* ------------------------------------------------------------------ *)
(* Loop fixpoints ([+loopexec])                                        *)
(* ------------------------------------------------------------------ *)

(** Derivation-depth cap applied to loop stores by the [+loopexec]
    widening: references deeper than this collapse onto their depth-cap
    ancestor ({!Store.collapse_deep}), so a list walk like [p = p->next]
    cannot manufacture a new reference per iteration. *)
let loop_depth_cap = 3

(** A silenced copy of the environment for exploratory fixpoint
    iterations: diagnostics go to a scratch collector, exit observation
    is off (a silenced iteration must not feed inference summaries), and
    the scope chain is copied so declarations seen while re-running the
    body cannot pollute the real environment.  The body is checked
    against an overlay of the program ({!Sema.for_check}) that reports
    to the same scratch collector, so what sema declares or reports
    during the iteration vanishes with it.  The mutable counters
    start from the real environment's current values and advance
    independently — each iteration gets a fresh copy, so fresh-storage
    and static ids restart identically every round (an allocation in
    the body maps to the same [Rfresh] root each time; otherwise the
    store would grow a new root per iteration and never converge). *)
let silent_env env =
  let diags = Diag.Collector.create () in
  {
    env with
    prog = Sema.for_check env.prog ~diags;
    diags;
    exit_obs = None;
    scopes = List.map (fun s -> { vars = s.vars }) env.scopes;
    conflict_memo = no_conflicts;
    (* deep copy: exploratory iterations prune/replace entries and the
       real pass must not observe that *)
    realloc_sources =
      (if Hashtbl.length env.realloc_sources = 0 then no_realloc_sources
       else
       let h = Hashtbl.create 4 in
       Hashtbl.iter
         (fun id (s : realloc_source) ->
           Hashtbl.replace h id { s with rsrc_saved = s.rsrc_saved })
         env.realloc_sources;
       h);
  }

let rec exec env st (stmt : Ast.stmt) : Store.t =
  if not (Store.is_reachable st) then st
  else
    let loc = stmt.sloc in
    match stmt.s with
    | Ast.Sskip -> st
    | Ast.Sexpr e ->
        let st, v = eval env st e in
        (* an unconsumed only result is an immediate leak *)
        (match v.v_ref with
        | Some r
          when match Sref.view r with
               | Sref.Root (Sref.Rfresh _) -> true
               | _ -> false ->
            leak_check_ref env st r ~what:"statement end" ~loc
        | _ -> st)
    | Ast.Sassert e ->
        (* keep only the path where the assertion holds *)
        let t, _ = split_cond env st e in
        t
    | Ast.Sdecl decls -> List.fold_left (exec_decl env ~loc) st decls
    | Ast.Sblock stmts ->
        push_scope env;
        let st = List.fold_left (exec env) st stmts in
        let scope = pop_scope env in
        let st =
          if Store.is_reachable st then
            leak_check_scope env st scope.vars ~loc
          else st
        in
        List.fold_left
          (fun st (_, i) -> Store.drop_root st (Sref.root_of i.li_ref))
          st scope.vars
    | Ast.Sif (c, then_, else_) -> (
        let t, f = split_cond env st c in
        let t' = exec env t then_ in
        match else_ with
        | Some e ->
            let f' = exec env f e in
            merge_reporting env ~loc t' f'
        | None -> merge_reporting env ~loc t' f)
    | Ast.Swhile (c, body) ->
        (* [while (c) body] is [for (; c; ) body] *)
        exec_for env st ~loc (Some c) None body
    | Ast.Sdo (body, c) -> exec_do env st ~loc body c
    | Ast.Sfor (init, cond, step, body) ->
        (* the initializer runs exactly once in either analysis mode *)
        let st = match init with Some s -> exec env st s | None -> st in
        exec_for env st ~loc cond step body
    | Ast.Sreturn eopt ->
        let st, ret =
          match eopt with
          | Some e ->
              let st, v = eval env st e in
              (st, Some v)
          | None -> (st, None)
        in
        let st = check_exit env st ~ret ~loc in
        Store.unreachable st
    | Ast.Sbreak ->
        note_break env st;
        Store.unreachable st
    | Ast.Scontinue ->
        note_continue env st;
        Store.unreachable st
    | Ast.Sswitch (e, body) -> (
        let st, _ = eval env st e in
        push_breakable env;
        (* each case arm is analysed from the switch-entry state;
           fall-through between arms is not modelled *)
        let arms, has_default = Ast.switch_arms body in
        let arm_ends =
          List.map
            (fun arm ->
              push_scope env;
              let st' = List.fold_left (exec env) st arm in
              let scope = pop_scope env in
              let st' =
                List.fold_left
                  (fun st (_, i) -> Store.drop_root st (Sref.root_of i.li_ref))
                  st' scope.vars
              in
              st')
            arms
        in
        let breaks, _ = pop_breakable env in
        let ends = List.filter Store.is_reachable arm_ends in
        let all = ends @ breaks @ if has_default then [] else [ st ] in
        match all with
        | [] -> Store.unreachable st
        | _ -> merge_all env ~loc all)
    | Ast.Scase (_, s) -> exec env st s
    | Ast.Sdefault s -> exec env st s
    | Ast.Sgoto _ ->
        emit env ~severity:Diag.Info ~loc ~code:"goto"
          "goto is not analyzed; paths through this label are not checked";
        Store.unreachable st
    | Ast.Slabel (_, s) -> exec env st s

and exec_decl env ~loc st (d : Ast.decl) : Store.t =
  if d.d_name = "" then begin
    ignore (Sema.resolve_ty env.prog ~loc d.d_ty);
    st
  end
  else if d.d_storage = Ast.Stypedef || d.d_storage = Ast.Sextern then begin
    (* the declaration may add or change a callee's signature *)
    ignore (Lazy.force env.proc_inferred);
    Sema.process_decl env.prog d;
    st
  end
  else begin
    let ty = Sema.resolve_ty env.prog ~loc:d.d_loc d.d_ty in
    let base = Sema.typedef_annots env.prog ty in
    let set =
      match d.d_annots with
      | [] -> base
      | annots ->
          let set, errs = Annot.of_annots annots in
          List.iter
            (fun (e : Annot.parse_error) ->
              emit env ~loc:e.pe_loc ~code:"annot" "%s" e.pe_text)
            errs;
          Annot.override ~base ~decl:set
    in
    let r = Sref.root (Sref.Rlocal d.d_name) in
    add_local env d.d_name
      { li_ty = ty; li_annots = set; li_loc = d.d_loc; li_param = None;
        li_ref = r };
    let st = Store.drop_root st (Sref.root_of r) in
    (* one blame location, shared by the fields that name it *)
    let here = Some d.d_loc in
    match d.d_init with
    | Some (Ast.Iexpr e) ->
        let st, v = eval env st e in
        (* seed the uninitialized state, then assign *)
        let st =
          Store.set st r
            (Store.mk_refstate ~def:DSundefined
               ~null:(if Ctype.is_pointer ty then NSpossnull else NSuntracked)
               ~alloc:ASnone ?defloc:here ?allocloc:here ())
        in
        do_assign env st ~lhs_ref:r ~lhs_ty:ty ~rhs:v ~loc:d.d_loc
    | Some (Ast.Ilist _) ->
        Store.set st r
          (Store.mk_refstate ~def:DSdefined
             ~null:(if Ctype.is_pointer ty then NSnotnull else NSuntracked)
             ~alloc:ASstack ?defloc:here ?allocloc:here ())
    | None ->
        let def =
          match Ctype.unroll ty with
          | Ctype.Carray _ -> DSallocated
          | t when Ctype.is_aggregate t -> DSallocated
          | _ -> DSundefined
        in
        let null =
          match Ctype.unroll ty with
          | Ctype.Carray _ -> NSnotnull
          | _ when Ctype.is_pointer ty -> NSpossnull
          | _ -> NSuntracked
        in
        let alloc =
          match Ctype.unroll ty with
          | Ctype.Carray _ -> ASstack
          | t when Ctype.is_aggregate t -> ASstack
          | _ -> ASnone
        in
        Store.set st r
          (Store.mk_refstate ~def ~null ~alloc ?defloc:here ?allocloc:here ())
  end

(* ---- loop dispatch ---- *)

and exec_do env st ~loc body c =
  if env.flags.Flags.loop_exec then exec_do_fixpoint env st ~loc body c
  else exec_do_heuristic env st ~loc body c

and exec_for env st ~loc cond step body =
  if env.flags.Flags.loop_exec then exec_for_fixpoint env st ~loc cond step body
  else exec_for_heuristic env st ~loc cond step body

(* ---- the paper's zero-or-one-times loop heuristic (default) ---- *)

and exec_do_heuristic env st ~loc body c =
  (* the body executes at least once — a [do] body is not "zero or one
     times"; a continue re-tests the condition, a break skips it *)
  push_breakable env;
  let st = exec env st body in
  let breaks, continues = pop_breakable env in
  let st = merge_all env ~loc (st :: continues) in
  let f = if Store.is_reachable st then snd (split_cond env st c) else st in
  merge_all env ~loc (f :: breaks)

and exec_for_heuristic env st ~loc cond step body =
  (* "The while loop is treated identically to an if statement —
     there is no back edge" *)
  push_breakable env;
  let t, f =
    match cond with
    | Some c -> split_cond env st c
    | None -> (st, Store.unreachable st)
  in
  let t' = exec env t body in
  let t' =
    if Store.is_reachable t' then
      match step with Some s -> fst (eval env t' s) | None -> t'
    else t'
  in
  let breaks, continues = pop_breakable env in
  merge_all env ~loc ((t' :: f :: breaks) @ continues)

(* ---- the [+loopexec] fixpoint mode ---- *)

(* The loop-entry store is joined ({!Store.widen}) with the back-edge
   stores of each exploratory body run until it stabilizes; only then is
   the body analysed once more on the real environment, from the
   converged store, to emit diagnostics.  Termination is by widening:
   the join resolves def/null/alloc states upward in their finite
   lattices and {!Store.collapse_deep} caps derivation depth.  [round]
   analyses the body once from an entry store on a silenced environment
   and returns the store feeding the back edge. *)

and loop_fixpoint env st ~(round : env -> Store.t -> Store.t) :
    [ `Converged of Store.t | `Bailout ] =
  let bound = max 1 env.flags.Flags.loop_iter in
  let rec go e n =
    if n >= bound then begin
      Telemetry.Counter.tick Telemetry.c_loop_bailouts;
      `Bailout
    end
    else begin
      Telemetry.Counter.tick Telemetry.c_loop_fixpoint_iters;
      let back = round (silent_env env) e in
      let e' =
        Store.collapse_deep ~depth:loop_depth_cap (Store.widen e back)
      in
      if Store.equal e' e then `Converged e
      else begin
        Telemetry.Counter.tick Telemetry.c_loop_widenings;
        go e' (n + 1)
      end
    end
  in
  go (Store.collapse_deep ~depth:loop_depth_cap st) 0

and exec_do_fixpoint env st ~loc body c =
  (* the converged store is the BODY entry: the first trip runs from the
     loop's own entry store, preserving at-least-once semantics *)
  let round shadow e =
    push_breakable shadow;
    let bend = exec shadow e body in
    let _, continues = pop_breakable shadow in
    let ends = List.fold_left Store.widen bend continues in
    if Store.is_reachable ends then fst (split_cond shadow ends c) else ends
  in
  match loop_fixpoint env st ~round with
  | `Bailout -> exec_do_heuristic env st ~loc body c
  | `Converged e ->
      push_breakable env;
      let bend = exec env e body in
      let breaks, continues = pop_breakable env in
      let ends = merge_all env ~loc (bend :: continues) in
      let f =
        if Store.is_reachable ends then snd (split_cond env ends c) else ends
      in
      merge_all env ~loc (f :: breaks)

and exec_for_fixpoint env st ~loc cond step body =
  let split env e =
    match cond with
    | Some c -> split_cond env e c
    | None -> (e, Store.unreachable e)
  in
  let round shadow e =
    push_breakable shadow;
    let t, _ = split shadow e in
    let bend = exec shadow t body in
    let _, continues = pop_breakable shadow in
    (* continue jumps to the step, as does falling off the body end *)
    let back = List.fold_left Store.widen bend continues in
    if Store.is_reachable back then
      match step with Some s -> fst (eval shadow back s) | None -> back
    else back
  in
  match loop_fixpoint env st ~round with
  | `Bailout -> exec_for_heuristic env st ~loc cond step body
  | `Converged e ->
      push_breakable env;
      let t, f = split env e in
      let bend = exec env t body in
      (* run the step once for its diagnostics; its abstract effect is
         already folded into the converged entry store *)
      (if Store.is_reachable bend then
         match step with Some s -> ignore (eval env bend s) | None -> ());
      let breaks, _ = pop_breakable env in
      merge_all env ~loc (f :: breaks)

(* ------------------------------------------------------------------ *)
(* Function and program checking                                       *)
(* ------------------------------------------------------------------ *)

(** Does this signature carry any inference-synthesized annotation? *)
let funsig_inferred (fs : Sema.funsig) : bool =
  Annot.is_inferred fs.Sema.fs_ret_annots.Sema.an
  || List.exists
       (fun (p : Sema.param) -> Annot.is_inferred p.Sema.pr_annots.Sema.an)
       fs.Sema.fs_params

(* Check one body against [prog], the overlay the check writes and
   reports into. *)
let check_body ?exit_obs ?summaries (prog : Sema.program)
    (fs : Sema.funsig) (f : Ast.fundef) : unit =
  let proc_inferred =
    lazy
      (funsig_inferred fs
      || List.exists
           (fun callee ->
             match Sema.find_func prog callee with
             | Some g -> funsig_inferred g
             | None -> false)
           (Sema.calls_of_fundef f))
  in
  let param_refs =
    Array.of_list
      (List.mapi
         (fun i (p : Sema.param) -> Sref.root (Sref.Rparam (i, p.Sema.pr_name)))
         fs.Sema.fs_params)
  in
  let env =
    {
      prog;
      flags = prog.Sema.flags;
      fs;
      param_refs;
      diags = prog.Sema.diags;
      exit_obs;
      proc_inferred;
      scopes = [];
      breaks = [];
      continues = [];
      fresh = 0;
      statics = 0;
      conflict_memo = no_conflicts;
      realloc_sources = no_realloc_sources;
      summaries;
      escaped_args = Sref.Set.empty;
    }
  in
  (* [+xproc]: compare the function's own declared interface against its
     derived effect summary; a declaration the body contradicts is a
     [summaryclash] *)
  (match summaries with
  | Some tbl when env.flags.Flags.xproc -> (
      match Hashtbl.find_opt tbl fs.Sema.fs_name with
      | Some sm ->
          List.iteri
            (fun i (p : Sema.param) ->
              let ea = p.Sema.pr_annots in
              let explicit_temp =
                (not ea.Sema.alloc_implicit)
                && ea.Sema.an.Annot.an_alloc = Some Annot.Temp
              in
              if explicit_temp && i < Array.length sm.Summary.sm_params then
                match sm.Summary.sm_params.(i).Summary.pe_rel with
                | Summary.Prel | Summary.Prelnull | Summary.Pcond ->
                    Telemetry.Counter.tick Telemetry.c_summary_clashes;
                    emit env ~severity:Diag.Warn ~loc:p.Sema.pr_loc
                      ~code:"summaryclash"
                      "Parameter %s of %s is declared temp but the body may \
                       release it"
                      p.Sema.pr_name fs.Sema.fs_name
                | Summary.Pnone | Summary.Ptop -> ())
            fs.Sema.fs_params;
          if
            fs.Sema.fs_ret_annots.Sema.an.Annot.an_null = Some Annot.NotNull
            && Ctype.is_pointer fs.Sema.fs_ret && sm.Summary.sm_ret_null
          then begin
            Telemetry.Counter.tick Telemetry.c_summary_clashes;
            emit env ~severity:Diag.Warn ~loc:fs.Sema.fs_loc
              ~code:"summaryclash"
              "Function %s is declared notnull but may return null"
              fs.Sema.fs_name
          end
      | None -> ())
  | _ -> ());
  push_scope env;
  (* parameters: local variable aliasing the externally visible arg *)
  let st =
    List.fold_left
      (fun st (i, (p : Sema.param)) ->
        let local = Sref.root (Sref.Rlocal p.Sema.pr_name) in
        add_local env p.Sema.pr_name
          {
            li_ty = p.Sema.pr_ty;
            li_annots = p.Sema.pr_annots.Sema.an;
            li_loc = p.Sema.pr_loc;
            li_param = Some i;
            li_ref = local;
          };
        let s =
          entry_state env ~ty:p.Sema.pr_ty ~annots:p.Sema.pr_annots.Sema.an
            ~loc:p.Sema.pr_loc
        in
        let extern = param_refs.(i) in
        let st = Store.set st local s in
        let st = Store.set st extern s in
        if env.flags.Flags.alias_tracking then Store.add_alias st local extern
        else st)
      Store.empty
      (List.mapi (fun i p -> (i, p)) fs.Sema.fs_params)
  in
  let st = exec env st f.Ast.f_body in
  if Store.is_reachable st then begin
    let loc = f.Ast.f_loc in
    (if
       (not (Ctype.is_void fs.Sema.fs_ret)) && fs.Sema.fs_name <> "main"
     then
       emit env ~severity:Diag.Warn ~loc ~code:"noret"
         "Control reaches the end of non-void function %s" fs.Sema.fs_name);
    ignore (check_exit env st ~ret:None ~loc)
  end;
  ignore (pop_scope env)

(** Check one function definition against its interface.

    [diags] redirects the procedure's messages away from the program's
    collector (annotation inference probes candidate annotations into a
    scratch collector); [exit_obs] observes the raw abstract state at
    every reachable exit (summary extraction).  The body is checked
    against its own {!Sema.for_check} overlay of [prog], so it sees the
    interfaces and its own declarations only, what sema reports while
    checking it joins the body's messages in order, and [prog] is only
    read. *)
let check_fundef ?diags ?exit_obs ?summaries (prog : Sema.program)
    (fs : Sema.funsig) (f : Ast.fundef) : unit =
  Telemetry.Counter.tick Telemetry.c_procedures;
  Telemetry.with_span ~file:fs.Sema.fs_loc.Loc.file ~label:fs.Sema.fs_name
    Telemetry.phase_check
  @@ fun () ->
  let diags = Option.value diags ~default:prog.Sema.diags in
  check_body ?exit_obs ?summaries (Sema.for_check prog ~diags) fs f

let check_program ?(map = fun n f -> Array.init n f) (prog : Sema.program) =
  let defs = Array.of_list (Sema.fundefs prog) in
  (* [+xproc]: the SCC fixpoint is sequential (callees before callers);
     solving it before any body leaves every check reading the finished
     table, so no schedule changes a summary *)
  let summaries =
    if prog.Sema.flags.Flags.xproc then Some (Summary.of_program prog)
    else None
  in
  map (Array.length defs) (fun i ->
      let fs, f = defs.(i) in
      let diags = Diag.Collector.create () in
      check_fundef ~diags ?summaries prog fs f;
      Diag.Collector.all diags)
  |> Array.to_list |> List.concat
