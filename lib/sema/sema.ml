(** Semantic analysis: symbol resolution and interface extraction.

    Turns a parsed translation unit into a {!program}: resolved types,
    struct layouts, typedef annotations, global variables, and one
    {!funsig} per function — the *interface* whose annotations drive all
    checking (paper, Section 2: "each procedure is checked independently,
    but using more detailed interface information").

    Implicit annotations are applied here, according to {!Flags.t}, and
    marked as implicit so the checker can word messages the way the paper
    does ("Implicitly temp storage c passed as only param"). *)

module Ctype = Ctype
(** Re-exported so library clients can write [Sema.Ctype]. *)

module StrMap = Map.Make (String)

open Cfront
module Flags = Annot.Flags

(** Annotation set plus provenance of its allocation member. *)
type eannot = {
  an : Annot.set;
  alloc_implicit : bool;  (** allocation annotation was implied by a flag *)
}

type field = {
  sf_name : string;
  sf_ty : Ctype.t;
  sf_annots : eannot;
  sf_loc : Loc.t;
}

type suinfo = {
  su_tag : string;
  su_union : bool;
  su_fields : field list;
  su_loc : Loc.t;
}

type param = {
  pr_name : string;
  pr_ty : Ctype.t;
  pr_annots : eannot;
  pr_loc : Loc.t;
}

type funsig = {
  fs_name : string;
  fs_ret : Ctype.t;
  fs_ret_annots : eannot;
  fs_params : param list;
  fs_varargs : bool;
  fs_globals : (string * Annot.set) list;
  fs_modifies : string list option;
      (** the externally visible objects the function may modify;
          [Some []] is "modifies nothing" *)
  fs_defined : bool;  (** has a body in this unit *)
  fs_static : bool;
  fs_loc : Loc.t;
}

type globalvar = {
  gv_name : string;
  gv_ty : Ctype.t;
  gv_annots : eannot;
  gv_static : bool;
  gv_defined : bool;  (** tentative or initialized definition (not extern) *)
  gv_loc : Loc.t;
}

(* One definition's (signature, body) pair, replaced in place by
   [update_funsig] and [patch_fundef].  Holding the pair itself lets
   [fundefs] hand it out without building a new one.  [sl_index] is the
   pair's position in [fundefs], which [patch_fundef] returns. *)
type fundef_slot = { mutable sl_pair : funsig * Ast.fundef; sl_index : int }

(* A function's [p_funcs] entry: its merged signature and the slots of
   its definitions (several for same-named statics of different files),
   so one table serves lookups, [update_funsig] and [patch_fundef]. *)
type func_entry = {
  mutable fe_sig : funsig;
  mutable fe_defs : fundef_slot list;  (** most recent first *)
}

type program = {
  p_file : string;
  mutable p_structs : (string, suinfo) Hashtbl.t;
  mutable p_typedefs : (string, Ctype.t * Annot.set) Hashtbl.t;
  mutable p_enum_consts : (string, int64) Hashtbl.t;
  mutable p_funcs : (string, func_entry) Hashtbl.t;
  mutable p_globals : (string, globalvar) Hashtbl.t;
      (** the five symbol tables; the [own_*] writers give an overlay
          its own table at its first write of that kind *)
  p_base : program option;
      (** the program an overlay ({!for_check}) reads through *)
  mutable p_fundefs_rev : fundef_slot list;
      (** reversed; use {!fundefs} for source order.  The same slots
          sit in their name's [p_funcs] entry; a slot's name never
          changes, since [update_funsig] writes only a signature of the
          same name *)
  mutable p_struct_order_rev : string list;
  mutable p_typedef_order_rev : string list;
  mutable p_global_order_rev : string list;
  mutable p_func_order_rev : string list;
      (** each name once, in source order; membership is asked of the
          table beside it *)
  mutable p_pragmas : Ast.annot list;
  diags : Diag.Collector.t;
  flags : Flags.t;
  mutable anon_counter : int;
}

let create_program ?(flags = Flags.default) ~file () =
  {
    p_file = file;
    p_structs = Hashtbl.create 32;
    p_typedefs = Hashtbl.create 32;
    p_enum_consts = Hashtbl.create 32;
    p_funcs = Hashtbl.create 64;
    p_globals = Hashtbl.create 32;
    p_base = None;
    p_fundefs_rev = [];
    p_struct_order_rev = [];
    p_typedef_order_rev = [];
    p_global_order_rev = [];
    p_func_order_rev = [];
    p_pragmas = [];
    diags = Diag.Collector.create ();
    flags;
    anon_counter = 0;
  }

(* ------------------------------------------------------------------ *)
(* Overlays and table access                                           *)
(* ------------------------------------------------------------------ *)

(* A fresh overlay holds these empty tables until its first write of
   each kind, so checking a body that declares nothing allocates no
   table.  Nothing writes them: every write goes through an [own_*]. *)
let no_structs : (string, suinfo) Hashtbl.t = Hashtbl.create 1
let no_typedefs : (string, Ctype.t * Annot.set) Hashtbl.t = Hashtbl.create 1
let no_enum_consts : (string, int64) Hashtbl.t = Hashtbl.create 1
let no_funcs : (string, func_entry) Hashtbl.t = Hashtbl.create 1
let no_globals : (string, globalvar) Hashtbl.t = Hashtbl.create 1

let for_check p ~diags =
  {
    p_file = p.p_file;
    p_structs = no_structs;
    p_typedefs = no_typedefs;
    p_enum_consts = no_enum_consts;
    p_funcs = no_funcs;
    p_globals = no_globals;
    p_base = Some p;
    p_fundefs_rev = [];
    p_struct_order_rev = [];
    p_typedef_order_rev = [];
    p_global_order_rev = [];
    p_func_order_rev = [];
    p_pragmas = p.p_pragmas;
    diags;
    flags = p.flags;
    anon_counter = p.anon_counter;
  }

(* The table [p] writes: an overlay's own, made at its first write. *)
let own_structs p =
  if p.p_structs == no_structs then p.p_structs <- Hashtbl.create 8;
  p.p_structs

let own_typedefs p =
  if p.p_typedefs == no_typedefs then p.p_typedefs <- Hashtbl.create 8;
  p.p_typedefs

let own_enum_consts p =
  if p.p_enum_consts == no_enum_consts then
    p.p_enum_consts <- Hashtbl.create 8;
  p.p_enum_consts

let own_funcs p =
  if p.p_funcs == no_funcs then p.p_funcs <- Hashtbl.create 8;
  p.p_funcs

let own_globals p =
  if p.p_globals == no_globals then p.p_globals <- Hashtbl.create 8;
  p.p_globals

(* [p]'s own entry for [k], else its base program's: an overlay's
   declarations shadow the program's.  An empty table is skipped
   without hashing [k]. *)
let rec lookup table p k =
  let t = table p in
  match if Hashtbl.length t = 0 then None else Hashtbl.find_opt t k with
  | Some _ as hit -> hit
  | None -> ( match p.p_base with Some b -> lookup table b k | None -> None)

let find_struct p tag = lookup (fun p -> p.p_structs) p tag
let find_typedef p name = lookup (fun p -> p.p_typedefs) p name
let find_enum_const p name = lookup (fun p -> p.p_enum_consts) p name
(* [lookup], unwrapping the entry without a second option *)
let rec find_func p name =
  match
    if Hashtbl.length p.p_funcs = 0 then raise Not_found
    else Hashtbl.find p.p_funcs name
  with
  | e -> Some e.fe_sig
  | exception Not_found -> (
      match p.p_base with Some b -> find_func b name | None -> None)
let find_global p name = lookup (fun p -> p.p_globals) p name

let diag p ?(severity = Diag.Err) ?(notes = []) ~loc ~code fmt =
  Fmt.kstr
    (fun text ->
      Diag.Collector.emit p.diags (Diag.make ~severity ~notes ~loc ~code text))
    fmt

(* ------------------------------------------------------------------ *)
(* Annotation resolution                                               *)
(* ------------------------------------------------------------------ *)

(** Parse raw annotations into a set, reporting errors as diagnostics. *)
let annot_set p ~loc (annots : Ast.annot list) : Annot.set =
  let set, errs = Annot.of_annots annots in
  List.iter
    (fun (e : Annot.parse_error) ->
      if p.flags.Flags.warn_unrecognized_annot then
        diag p ~loc:e.pe_loc ~code:"annot" "%s" e.pe_text)
    errs;
  (match Annot.check_compat set with
  | Some msg -> diag p ~loc ~code:"annot" "%s" msg
  | None -> ());
  set

(** Annotations inherited from typedef layers of [ty], outermost first. *)
let rec typedef_annots p (ty : Ctype.t) : Annot.set =
  match ty with
  | Ctype.Cnamed (name, inner) -> (
      let deeper = typedef_annots p inner in
      match find_typedef p name with
      | Some (_, set) -> Annot.override ~base:deeper ~decl:set
      | None -> deeper)
  | _ -> Annot.empty

(** Context in which a declaration appears, for implicit annotations.
    [Alocal] exists for completeness: locals never receive implicit
    allocation annotations. *)
type actx = Aparam | Areturn | Aglobal | Afield | Alocal [@warning "-37"]

(** Compute the effective annotation set for a declared entity: typedef
    inheritance, declaration override, then flag-controlled implicit
    allocation annotations. *)
let effective_annots p ~ctx ~(ty : Ctype.t) (decl_set : Annot.set) : eannot =
  let base = typedef_annots p ty in
  let set = Annot.override ~base ~decl:decl_set in
  let can_implicit =
    (* embedded arrays are part of the enclosing object's storage and
       cannot carry a separate release obligation *)
    Ctype.is_pointer ty
    && (not (Ctype.is_function_pointer ty))
    && match Ctype.unroll ty with Ctype.Carray _ -> false | _ -> true
  in
  let has_refcount_annot =
    set.Annot.an_refcounted || set.Annot.an_newref || set.Annot.an_killref
    || set.Annot.an_tempref
  in
  if set.Annot.an_alloc <> None || has_refcount_annot || not can_implicit then
    { an = set; alloc_implicit = false }
  else
    let f = p.flags in
    let implied =
      match ctx with
      | Aparam when f.Flags.implicit_temp_params -> Some Annot.Temp
      | Areturn when f.Flags.implicit_only_returns -> Some Annot.Only
      | Aglobal when f.Flags.implicit_only_globals -> Some Annot.Only
      | Afield when f.Flags.implicit_only_fields -> Some Annot.Only
      | _ -> None
    in
    match implied with
    | Some a -> { an = { set with Annot.an_alloc = Some a }; alloc_implicit = true }
    | None -> { an = set; alloc_implicit = false }

(* ------------------------------------------------------------------ *)
(* Type resolution                                                     *)
(* ------------------------------------------------------------------ *)

let fresh_anon p =
  p.anon_counter <- p.anon_counter + 1;
  Printf.sprintf "<anon%d>" p.anon_counter

let sign_of : Ast.signedness -> Ctype.sign = function
  | Ast.Signed -> Ctype.Signed
  | Ast.Unsigned -> Ctype.Unsigned

(** Evaluate a compile-time constant expression (array sizes, enum
    values).  Returns [None] when not constant. *)
let rec const_eval p (e : Ast.expr) : int64 option =
  match e.e with
  | Ast.Eint (v, _) -> Some v
  | Ast.Echar c -> Some (Int64.of_int (Char.code c))
  | Ast.Eident x -> find_enum_const p x
  | Ast.Eunary (Ast.Uneg, e) -> Option.map Int64.neg (const_eval p e)
  | Ast.Eunary (Ast.Ubnot, e) -> Option.map Int64.lognot (const_eval p e)
  | Ast.Eunary (Ast.Unot, e) ->
      Option.map (fun v -> if v = 0L then 1L else 0L) (const_eval p e)
  | Ast.Ebinary (op, a, b) -> (
      match (const_eval p a, const_eval p b) with
      | Some va, Some vb -> (
          let open Int64 in
          match op with
          | Ast.Badd -> Some (add va vb)
          | Ast.Bsub -> Some (sub va vb)
          | Ast.Bmul -> Some (mul va vb)
          | Ast.Bdiv -> if vb = 0L then None else Some (div va vb)
          | Ast.Bmod -> if vb = 0L then None else Some (rem va vb)
          | Ast.Bshl -> Some (shift_left va (to_int vb))
          | Ast.Bshr -> Some (shift_right va (to_int vb))
          | Ast.Bband -> Some (logand va vb)
          | Ast.Bbor -> Some (logor va vb)
          | Ast.Bbxor -> Some (logxor va vb)
          | Ast.Blt -> Some (if va < vb then 1L else 0L)
          | Ast.Bgt -> Some (if va > vb then 1L else 0L)
          | Ast.Ble -> Some (if va <= vb then 1L else 0L)
          | Ast.Bge -> Some (if va >= vb then 1L else 0L)
          | Ast.Beq -> Some (if va = vb then 1L else 0L)
          | Ast.Bne -> Some (if va <> vb then 1L else 0L)
          | Ast.Bland -> Some (if va <> 0L && vb <> 0L then 1L else 0L)
          | Ast.Blor -> Some (if va <> 0L || vb <> 0L then 1L else 0L))
      | _ -> None)
  | Ast.Ecast (_, e) -> const_eval p e
  | Ast.Econd (c, t, f) -> (
      match const_eval p c with
      | Some 0L -> const_eval p f
      | Some _ -> const_eval p t
      | None -> None)
  | _ -> None

(** Resolve an AST type, registering any struct/union/enum definitions it
    contains into the program environment. *)
let rec resolve_ty p ~loc (ty : Ast.ty) : Ctype.t =
  match ty with
  | Ast.Tbase b -> resolve_base p ~loc b
  | Ast.Tptr t -> Ctype.Cptr (resolve_ty p ~loc t)
  | Ast.Tarray (t, size) ->
      let n =
        Option.bind size (fun e -> Option.map Int64.to_int (const_eval p e))
      in
      Ctype.Carray (resolve_ty p ~loc t, n)
  | Ast.Tfunc ft ->
      Ctype.Cfunc
        {
          Ctype.cf_ret = resolve_ty p ~loc ft.ft_ret;
          cf_params = List.map (fun pa -> resolve_ty p ~loc pa.Ast.p_ty) ft.ft_params;
          cf_varargs = ft.ft_varargs;
        }

and resolve_base p ~loc (b : Ast.base_type) : Ctype.t =
  match b with
  | Ast.Tvoid -> Ctype.Cvoid
  | Ast.Tbool -> Ctype.Cbool
  | Ast.Tchar s -> Ctype.Cint (Ctype.Ichar (sign_of s))
  | Ast.Tshort s -> Ctype.Cint (Ctype.Ishort (sign_of s))
  | Ast.Tint s -> Ctype.Cint (Ctype.Iint (sign_of s))
  | Ast.Tlong s -> Ctype.Cint (Ctype.Ilong (sign_of s))
  | Ast.Tfloat -> Ctype.Cfloat Ctype.Ffloat
  | Ast.Tdouble -> Ctype.Cfloat Ctype.Fdouble
  | Ast.Tnamed n -> (
      match find_typedef p n with
      | Some (t, _) -> Ctype.Cnamed (n, t)
      | None ->
          diag p ~loc ~code:"type" "unknown type name '%s'" n;
          Ctype.Cnamed (n, Ctype.int_))
  | Ast.Tstruct (tag, fields) -> resolve_su p ~loc ~is_union:false tag fields
  | Ast.Tunion (tag, fields) -> resolve_su p ~loc ~is_union:true tag fields
  | Ast.Tenum (tag, items) -> (
      let tag = match tag with Some t -> t | None -> fresh_anon p in
      match items with
      | None -> Ctype.Cenum tag
      | Some items ->
          let next = ref 0L in
          List.iter
            (fun (it : Ast.enumerator) ->
              let v =
                match it.en_value with
                | Some e -> (
                    match const_eval p e with
                    | Some v -> v
                    | None ->
                        diag p ~loc:it.en_loc ~code:"type"
                          "enumerator value for '%s' is not constant" it.en_name;
                        !next)
                | None -> !next
              in
              Hashtbl.replace (own_enum_consts p) it.en_name v;
              next := Int64.add v 1L)
            items;
          Ctype.Cenum tag)

and resolve_su p ~loc ~is_union tag fields : Ctype.t =
  let tag = match tag with Some t -> t | None -> fresh_anon p in
  (match fields with
  | None -> ()
  | Some fields ->
      (* two-phase: register the tag first so self-referential fields
         (struct s *next) resolve; a tag [p] has not defined before
         joins the order once its fields are resolved *)
      let fresh = not (Hashtbl.mem p.p_structs tag) in
      if Option.is_none (find_struct p tag) then
        Hashtbl.replace (own_structs p) tag
          { su_tag = tag; su_union = is_union; su_fields = []; su_loc = loc };
      let resolved =
        List.map
          (fun (f : Ast.field) ->
            let ty = resolve_ty p ~loc:f.fld_loc f.fld_ty in
            let set = annot_set p ~loc:f.fld_loc f.fld_annots in
            {
              sf_name = f.fld_name;
              sf_ty = ty;
              sf_annots = effective_annots p ~ctx:Afield ~ty set;
              sf_loc = f.fld_loc;
            })
          fields
      in
      if fresh then
        p.p_struct_order_rev <- tag :: p.p_struct_order_rev;
      Hashtbl.replace (own_structs p) tag
        { su_tag = tag; su_union = is_union; su_fields = resolved; su_loc = loc });
  if is_union then Ctype.Cunion tag else Ctype.Cstruct tag

(** Look up a struct/union field. *)
let find_field p tag name : field option =
  match find_struct p tag with
  | Some su -> List.find_opt (fun f -> f.sf_name = name) su.su_fields
  | None -> None

(** Fields of an aggregate type, if known. *)
let fields_of p (ty : Ctype.t) : field list =
  match Ctype.su_tag ty with
  | Some tag -> (
      match find_struct p tag with
      | Some su -> su.su_fields
      | None -> [])
  | None -> []

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let funsig_of_decl p ~(name : string) ~(ft : Ctype.cfun)
    ~(params : Ast.param list) ~varargs ~(annots : Annot.set)
    ~(globals : Ast.globspec list) ~(modifies : string list option) ~static
    ~defined ~loc : funsig =
  let mk_param i (pa : Ast.param) ty : param =
    let set = annot_set p ~loc:pa.Ast.p_loc pa.Ast.p_annots in
    let pr_name =
      match pa.Ast.p_name with
      | Some n -> n
      | None -> Printf.sprintf "arg%d" (i + 1)
    in
    (match Annot.validate ~slot:(Annot.Sparam pr_name) set with
    | Some msg -> diag p ~loc:pa.Ast.p_loc ~code:"annot" "%s" msg
    | None -> ());
    {
      pr_name;
      pr_ty = ty;
      pr_annots = effective_annots p ~ctx:Aparam ~ty set;
      pr_loc = pa.Ast.p_loc;
    }
  in
  let params =
    List.mapi
      (fun i (pa, ty) -> mk_param i pa ty)
      (List.combine params ft.Ctype.cf_params)
  in
  (match Annot.validate ~slot:(Annot.Sreturn name) annots with
  | Some msg -> diag p ~loc ~code:"annot" "%s" msg
  | None -> ());
  let ret_annots = effective_annots p ~ctx:Areturn ~ty:ft.Ctype.cf_ret annots in
  let globals =
    List.map
      (fun (g : Ast.globspec) -> (g.g_name, annot_set p ~loc:g.g_loc g.g_annots))
      globals
  in
  {
    fs_name = name;
    fs_ret = ft.Ctype.cf_ret;
    fs_ret_annots = ret_annots;
    fs_params = params;
    fs_varargs = varargs;
    fs_globals = globals;
    fs_modifies = modifies;
    fs_defined = defined;
    fs_static = static;
    fs_loc = loc;
  }

(** Merge a new function signature with a previous declaration: the
    definition's body wins; explicit annotations accumulate (a conflict is
    reported when categories disagree explicitly). *)
let merge_funsig p (old_ : funsig) (new_ : funsig) : funsig =
  if List.length old_.fs_params <> List.length new_.fs_params then (
    diag p ~loc:new_.fs_loc ~code:"decl"
      "function '%s' redeclared with %d parameters (was %d)" new_.fs_name
      (List.length new_.fs_params)
      (List.length old_.fs_params);
    new_)
  else
    let pick_annots (a : eannot) (b : eannot) : eannot =
      (* prefer explicit over implicit; prefer the earlier explicit one *)
      match (a.alloc_implicit, b.alloc_implicit) with
      | false, true -> { a with an = Annot.override ~base:b.an ~decl:a.an }
      | true, false -> { b with an = Annot.override ~base:a.an ~decl:b.an }
      | _ ->
          {
            an = Annot.override ~base:b.an ~decl:a.an;
            alloc_implicit = a.alloc_implicit && b.alloc_implicit;
          }
    in
    {
      new_ with
      fs_ret_annots = pick_annots old_.fs_ret_annots new_.fs_ret_annots;
      fs_params =
        List.map2
          (fun (po : param) (pn : param) ->
            { pn with pr_annots = pick_annots po.pr_annots pn.pr_annots })
          old_.fs_params new_.fs_params;
      fs_globals =
        (if new_.fs_globals = [] then old_.fs_globals else new_.fs_globals);
      fs_modifies =
        (match new_.fs_modifies with
        | Some _ as m -> m
        | None -> old_.fs_modifies);
      fs_defined = old_.fs_defined || new_.fs_defined;
      fs_static = old_.fs_static || new_.fs_static;
    }

(* Enter [fs] in [p]'s own table, merged with any earlier declaration,
   and return its entry.  An overlay's first declaration of a base
   program's function gets an entry of its own, with no definitions. *)
let add_funsig p (fs : funsig) : func_entry =
  let own = p.p_funcs in
  let mine =
    if Hashtbl.length own = 0 then None else Hashtbl.find_opt own fs.fs_name
  in
  let earlier =
    match (mine, p.p_base) with
    | Some e, _ -> Some e.fe_sig
    | None, Some b -> find_func b fs.fs_name
    | None, None -> None
  in
  let sig_ =
    match earlier with
    | Some old_ ->
        if old_.fs_defined && fs.fs_defined then
          diag p ~loc:fs.fs_loc ~code:"decl" "function '%s' redefined"
            fs.fs_name;
        merge_funsig p old_ fs
    | None ->
        p.p_func_order_rev <- fs.fs_name :: p.p_func_order_rev;
        fs
  in
  match mine with
  | Some e ->
      e.fe_sig <- sig_;
      e
  | None ->
      let e = { fe_sig = sig_; fe_defs = [] } in
      Hashtbl.replace (own_funcs p) fs.fs_name e;
      e

let process_decl p (d : Ast.decl) =
  if d.d_name = "" then
    (* bare struct/union/enum definition *)
    ignore (resolve_ty p ~loc:d.d_loc d.d_ty)
  else
    let ty = resolve_ty p ~loc:d.d_loc d.d_ty in
    let set = annot_set p ~loc:d.d_loc d.d_annots in
    match d.d_storage with
    | Ast.Stypedef ->
        if not (Hashtbl.mem p.p_typedefs d.d_name) then
          p.p_typedef_order_rev <- d.d_name :: p.p_typedef_order_rev;
        Hashtbl.replace (own_typedefs p) d.d_name (ty, set)
    | _ -> (
        match Ctype.unroll ty with
        | Ctype.Cfunc ft ->
            (* function declaration *)
            let params =
              match d.d_ty with
              | Ast.Tfunc aft -> aft.ft_params
              | Ast.Tptr (Ast.Tfunc aft) -> aft.ft_params
              | _ -> (
                  (* typedef'd function type: synthesize parameter slots *)
                  List.mapi
                    (fun i _ ->
                      {
                        Ast.p_name = Some (Printf.sprintf "arg%d" (i + 1));
                        p_ty = Ast.Tbase Ast.Tvoid;
                        p_annots = [];
                        p_loc = d.d_loc;
                      })
                    ft.Ctype.cf_params)
            in
            let fs =
              funsig_of_decl p ~name:d.d_name ~ft ~params
                ~varargs:ft.Ctype.cf_varargs ~annots:set ~globals:[]
                ~modifies:None
                ~static:(d.d_storage = Ast.Sstatic) ~defined:false ~loc:d.d_loc
            in
            ignore (add_funsig p fs)
        | _ ->
            let defined = d.d_storage <> Ast.Sextern || d.d_init <> None in
            let gv =
              {
                gv_name = d.d_name;
                gv_ty = ty;
                gv_annots = effective_annots p ~ctx:Aglobal ~ty set;
                gv_static = d.d_storage = Ast.Sstatic;
                gv_defined = defined;
                gv_loc = d.d_loc;
              }
            in
            (match find_global p d.d_name with
            | Some old_ when old_.gv_defined && defined && old_.gv_ty <> ty ->
                diag p ~loc:d.d_loc ~code:"decl" "global '%s' redefined"
                  d.d_name
            | Some old_ ->
                (* keep explicit annotations from either declaration *)
                let merged =
                  {
                    gv with
                    gv_annots =
                      (if Annot.is_empty gv.gv_annots.an then old_.gv_annots
                       else gv.gv_annots);
                    gv_defined = old_.gv_defined || defined;
                  }
                in
                Hashtbl.replace (own_globals p) d.d_name merged
            | None ->
                p.p_global_order_rev <- d.d_name :: p.p_global_order_rev;
                Hashtbl.replace (own_globals p) d.d_name gv))

let process_fundef p (f : Ast.fundef) =
  let ret = resolve_ty p ~loc:f.f_loc f.f_ret in
  let ptys = List.map (fun pa -> resolve_ty p ~loc:pa.Ast.p_loc pa.Ast.p_ty) f.f_params in
  let ft = { Ctype.cf_ret = ret; cf_params = ptys; cf_varargs = f.f_varargs } in
  let set = annot_set p ~loc:f.f_loc f.f_ret_annots in
  let fs =
    funsig_of_decl p ~name:f.f_name ~ft ~params:f.f_params ~varargs:f.f_varargs
      ~annots:set ~globals:f.f_globals ~modifies:f.f_modifies
      ~static:(f.f_storage = Ast.Sstatic)
      ~defined:true ~loc:f.f_loc
  in
  let e = add_funsig p fs in
  let sl_index =
    match p.p_fundefs_rev with sl :: _ -> sl.sl_index + 1 | [] -> 0
  in
  let sl = { sl_pair = (e.fe_sig, f); sl_index } in
  p.p_fundefs_rev <- sl :: p.p_fundefs_rev;
  e.fe_defs <- sl :: e.fe_defs

(** Analyze a translation unit, extending [into] if given (multi-file
    checking shares one program environment, as LCLint does with interface
    libraries). *)
let analyze ?(flags = Flags.default) ?into (tu : Ast.tunit) : program =
  Telemetry.with_span ~file:tu.Ast.tu_file Telemetry.phase_sema (fun () ->
      let p =
        match into with
        | Some p -> p
        | None -> create_program ~flags ~file:tu.tu_file ()
      in
      List.iter
        (function
          | Ast.Tdecl decls -> List.iter (process_decl p) decls
          | Ast.Tfundef f -> process_fundef p f)
        tu.tu_decls;
      p.p_pragmas <- p.p_pragmas @ tu.tu_pragmas;
      p)

(* Source-order views of the reversed accumulators. *)
let fundefs p = List.rev_map (fun sl -> sl.sl_pair) p.p_fundefs_rev
let struct_order p = List.rev p.p_struct_order_rev
let typedef_order p = List.rev p.p_typedef_order_rev
let global_order p = List.rev p.p_global_order_rev
let func_order p = List.rev p.p_func_order_rev

let enum_consts p =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.p_enum_consts []
  |> List.sort compare

let set_pragmas p pragmas = p.p_pragmas <- pragmas

(** Parse and analyze a source string in one step: the parse sees the
    typedef names [into] declares so far as type names. *)
let analyze_string ?(flags = Flags.default) ?(spec_mode = false) ?parse ?into
    ~file src : program =
  let typedefs = match into with Some p -> typedef_order p | None -> [] in
  let tu =
    match parse with
    | Some parse -> parse ~typedefs ~file src
    | None -> Parser.parse_string ~spec_mode ~typedefs ~file src
  in
  analyze ~flags ?into tu

(** Analyze an LCL-style specification (bare-word annotations, as in the
    paper's standard-library excerpts). *)
let analyze_spec_string ?(flags = Flags.default) ?into ~file src : program =
  analyze_string ~flags ~spec_mode:true ?into ~file src

(** Replace a function's signature everywhere the program holds one: the
    symbol table AND the (funsig, fundef) pairs captured at definition time.
    Annotation inference uses this to install synthesized annotations; the
    two views must never disagree, or the checker would check the body
    against a stale interface. *)
let update_funsig p (fs : funsig) : unit =
  match Hashtbl.find_opt p.p_funcs fs.fs_name with
  | Some e ->
      e.fe_sig <- fs;
      List.iter (fun sl -> sl.sl_pair <- (fs, snd sl.sl_pair)) e.fe_defs
  | None ->
      Hashtbl.replace (own_funcs p) fs.fs_name { fe_sig = fs; fe_defs = [] }

(** Swap the AST paired with an already-analyzed definition for a new
    fundef whose interface is structurally identical but whose body
    changed — the incremental service's body-only-edit patch path, which
    skips re-running {!analyze} entirely.  The caller is responsible for
    the interface-identity check; this only requires the definition to
    exist.  Matching is by name and header location, so [static]
    functions of the same name in different files never collide, and
    neither do two definitions of one name in one file.  Returns the
    definition's position in {!fundefs} and the signature paired with
    it, or [None] when no such definition is known. *)
let patch_fundef p (f : Ast.fundef) : (int * funsig) option =
  List.fold_left
    (fun hit sl ->
      let fs, old = sl.sl_pair in
      if Loc.equal old.Ast.f_loc f.Ast.f_loc then begin
        sl.sl_pair <- (fs, f);
        Some (sl.sl_index, fs)
      end
      else hit)
    None
    (match Hashtbl.find_opt p.p_funcs f.Ast.f_name with
    | Some e -> e.fe_defs
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Direct calls (call-graph support)                                   *)
(* ------------------------------------------------------------------ *)

(** Names appearing in direct-call position ([f(...)] with [f] an
    identifier) anywhere in a function body, in first-occurrence order.
    The checker uses this to decide whether a procedure's messages depend
    on inferred annotations; [Summary.Callgraph] is built from it. *)
let calls_of_fundef (f : Ast.fundef) : string list =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let note name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      acc := name :: !acc
    end
  in
  let rec expr (e : Ast.expr) =
    match e.e with
    | Ast.Ecall ({ e = Ast.Eident name; _ }, args) ->
        note name;
        List.iter expr args
    | Ast.Ecall (fe, args) ->
        expr fe;
        List.iter expr args
    | Ast.Eident _ | Ast.Eint _ | Ast.Echar _ | Ast.Estring _ | Ast.Efloat _
    | Ast.Esizeof_type _ ->
        ()
    | Ast.Emember (b, _) | Ast.Earrow (b, _) | Ast.Ederef b | Ast.Eaddr b
    | Ast.Eunary (_, b) | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b
    | Ast.Epredecr b | Ast.Ecast (_, b) | Ast.Esizeof_expr b ->
        expr b
    | Ast.Eindex (a, b)
    | Ast.Ebinary (_, a, b)
    | Ast.Eassign (_, a, b)
    | Ast.Ecomma (a, b) ->
        expr a;
        expr b
    | Ast.Econd (a, b, c) ->
        expr a;
        expr b;
        expr c
  in
  let init (i : Ast.init) =
    let rec go = function
      | Ast.Iexpr e -> expr e
      | Ast.Ilist is -> List.iter go is
    in
    go i
  in
  let rec stmt (s : Ast.stmt) =
    match s.s with
    | Ast.Sskip | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _ -> ()
    | Ast.Sexpr e | Ast.Sassert e -> expr e
    | Ast.Sdecl ds ->
        List.iter (fun (d : Ast.decl) -> Option.iter init d.d_init) ds
    | Ast.Sblock ss -> List.iter stmt ss
    | Ast.Sif (c, t, e) ->
        expr c;
        stmt t;
        Option.iter stmt e
    | Ast.Swhile (c, b) | Ast.Sdo (b, c) | Ast.Scase (c, b) ->
        expr c;
        stmt b
    | Ast.Sfor (i, c, st_, b) ->
        Option.iter stmt i;
        Option.iter expr c;
        Option.iter expr st_;
        stmt b
    | Ast.Sreturn e -> Option.iter expr e
    | Ast.Sswitch (e, b) ->
        expr e;
        stmt b
    | Ast.Sdefault b | Ast.Slabel (_, b) -> stmt b
  in
  stmt f.f_body;
  List.rev !acc
