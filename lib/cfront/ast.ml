(** Abstract syntax for the C subset.

    Layering note: annotations appear here as raw text + location
    ({!annot}); their interpretation (null / only / temp / ...) lives in the
    [annot] library so the frontend stays independent of the checker.

    Annotations attach to the *outer level* of declarations (paper,
    Section 4): a declaration like [/*@null@*/ char **name] constrains the
    [char **] reference, not [*name].  Accordingly the AST stores annotation
    lists on declarations, parameters, fields, typedefs and function return
    values rather than inside types. *)

type annot = { a_text : string; a_loc : Loc.t } [@@deriving eq]

type storage = Snone | Sextern | Sstatic | Stypedef | Sauto | Sregister
[@@deriving eq]

type unop =
  | Uneg  (** -e *)
  | Unot  (** !e *)
  | Ubnot  (** ~e *)
[@@deriving eq]

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod
  | Bshl | Bshr | Bband | Bbor | Bbxor
  | Blt | Bgt | Ble | Bge | Beq | Bne
  | Bland | Blor
[@@deriving eq]

(** Compound-assignment carrier: [None] is plain [=], [Some op] is [op=]. *)
type assignop = binop option [@@deriving eq]

type base_type =
  | Tvoid
  | Tbool  (** result type of comparisons; also usable via typedef *)
  | Tchar of signedness
  | Tshort of signedness
  | Tint of signedness
  | Tlong of signedness
  | Tfloat
  | Tdouble
  | Tnamed of string  (** typedef name; resolved by [sema] *)
  | Tstruct of string option * field list option
      (** tag, fields if this occurrence defines the struct *)
  | Tunion of string option * field list option
  | Tenum of string option * enumerator list option

and signedness = Signed | Unsigned

and ty =
  | Tbase of base_type
  | Tptr of ty
  | Tarray of ty * expr option
  | Tfunc of funty

and funty = { ft_ret : ty; ft_params : param list; ft_varargs : bool }

and param = {
  p_name : string option;
  p_ty : ty;
  p_annots : annot list;
  p_loc : Loc.t;
}

and field = {
  fld_name : string;
  fld_ty : ty;
  fld_annots : annot list;
  fld_loc : Loc.t;
}

and enumerator = { en_name : string; en_value : expr option; en_loc : Loc.t }

and expr = { e : expr_desc; eloc : Loc.t }

and expr_desc =
  | Eint of int64 * string
  | Echar of char
  | Estring of string
  | Efloat of float * string
  | Eident of string
  | Ecall of expr * expr list
  | Emember of expr * string  (** [e.f] *)
  | Earrow of expr * string  (** [e->f] *)
  | Eindex of expr * expr
  | Ederef of expr
  | Eaddr of expr
  | Eunary of unop * expr
  | Epostincr of expr
  | Epostdecr of expr
  | Epreincr of expr
  | Epredecr of expr
  | Ebinary of binop * expr * expr
  | Eassign of assignop * expr * expr
  | Econd of expr * expr * expr
  | Ecast of ty * expr
  | Esizeof_expr of expr
  | Esizeof_type of ty
  | Ecomma of expr * expr
[@@deriving eq]

type init = Iexpr of expr | Ilist of init list [@@deriving eq]

type decl = {
  d_name : string;
  d_ty : ty;
  d_annots : annot list;
  d_storage : storage;
  d_init : init option;
  d_loc : Loc.t;
}
[@@deriving eq]

(** One entry of a [/*@globals ...@*/] list on a function: the named global
    with its per-function annotations (e.g. [undef]). *)
type globspec = { g_name : string; g_annots : annot list; g_loc : Loc.t }
[@@deriving eq]

type fundef = {
  f_name : string;
  f_ret : ty;
  f_ret_annots : annot list;
  f_params : param list;
  f_varargs : bool;
  f_globals : globspec list;
  f_modifies : string list option;
      (** [/*@modifies a, b@*/]: the externally visible objects the
          function may modify; [Some []] is [modifies nothing] *)
  f_body : stmt;
  f_storage : storage;
  f_loc : Loc.t;
}

and stmt = { s : stmt_desc; sloc : Loc.t }

and stmt_desc =
  | Sskip
  | Sexpr of expr
  | Sdecl of decl list
  | Sblock of stmt list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of stmt option * expr option * expr option * stmt
      (** init (Sexpr or Sdecl), condition, step, body *)
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sswitch of expr * stmt
  | Scase of expr * stmt
  | Sdefault of stmt
  | Sgoto of string
  | Slabel of string * stmt
  | Sassert of expr  (** [assert(e)] — recognized specially, it refines guards *)
[@@deriving eq]

type topdecl =
  | Tfundef of fundef
  | Tdecl of decl list
      (** variable / extern function declarations; typedefs carry
          [Stypedef] storage *)
[@@deriving eq]

type tunit = {
  tu_file : string;
  tu_decls : topdecl list;
  tu_pragmas : annot list;
      (** free-standing annotation comments found at statement or top level:
          message suppressions ([ignore], [i<code>]) and control comments *)
}
[@@deriving eq]

(* ------------------------------------------------------------------ *)
(* Convenience constructors and observers                              *)
(* ------------------------------------------------------------------ *)

let mk_expr ?(loc = Loc.dummy) e = { e; eloc = loc }
let mk_stmt ?(loc = Loc.dummy) s = { s; sloc = loc }

let annot ?(loc = Loc.dummy) text = { a_text = text; a_loc = loc }

(** [is_lvalue_shape e] is a purely syntactic test: could [e] denote a
    storage location?  (The checker refines this with type information.) *)
let rec is_lvalue_shape e =
  match e.e with
  | Eident _ | Ederef _ | Eindex _ | Emember _ | Earrow _ -> true
  | Ecast (_, e') -> is_lvalue_shape e'
  | _ -> false

(** Strip casts and comma chains down to the value-producing expression. *)
let rec skip_casts e =
  match e.e with
  | Ecast (_, e') -> skip_casts e'
  | Ecomma (_, e') -> skip_casts e'
  | _ -> e

(** Is this expression a null pointer constant?  The literal [0] (possibly
    cast) or the conventional [NULL] spelling — the frontend has no
    preprocessor, so [NULL] is recognized as a builtin. *)
let is_null_constant e =
  match (skip_casts e).e with
  | Eint (0L, _) -> true
  | Eident "NULL" -> true
  | _ -> false

let ty_is_pointer = function
  | Tptr _ | Tarray _ -> true
  | Tbase _ -> false
  | Tfunc _ -> false

let ty_base = function Tbase b -> Some b | _ -> None

(** Number of pointer levels at the outside of a type (arrays count as one
    level for the storage model). *)
let rec pointer_depth = function
  | Tptr t | Tarray (t, _) -> 1 + pointer_depth t
  | _ -> 0

(** [switch_arms body] segments a [switch] body into its case arms, in
    source order, and says whether it has a [default] arm.  A new arm
    starts at each top-level [case]/[default] label (labels that run
    together extend the current arm, so a [default] nested under a
    [case] label is not seen); statements before the first label form
    an arm of their own; a body that is not a compound statement is one
    arm.  The arms keep their label wrappers. *)
let switch_arms (body : stmt) : stmt list list * bool =
  match body.s with
  | Sblock stmts ->
      let rec segment acc cur has_default = function
        | [] -> (List.rev (List.rev cur :: acc), has_default)
        | ({ s = Scase _; _ } as s) :: rest when cur <> [] ->
            segment (List.rev cur :: acc) [ s ] has_default rest
        | ({ s = Sdefault _; _ } as s) :: rest when cur <> [] ->
            segment (List.rev cur :: acc) [ s ] true rest
        | ({ s = Sdefault _; _ } as s) :: rest ->
            segment acc (s :: cur) true rest
        | s :: rest -> segment acc (s :: cur) has_default rest
      in
      segment [] [] false stmts
  | _ -> ([ [ body ] ], false)

(* ------------------------------------------------------------------ *)
(* Size                                                                *)
(* ------------------------------------------------------------------ *)

(** Number of expression, statement and declaration nodes in a
    translation unit — the telemetry [ast_nodes] counter ([-stats]).
    Types and annotation comments are not counted. *)
let size_tunit (tu : tunit) : int =
  let rec expr e =
    1
    +
    match e.e with
    | Eint _ | Echar _ | Estring _ | Efloat _ | Eident _ | Esizeof_type _ -> 0
    | Ecall (f, args) -> List.fold_left (fun n a -> n + expr a) (expr f) args
    | Emember (b, _) | Earrow (b, _) | Ederef b | Eaddr b | Eunary (_, b)
    | Epostincr b | Epostdecr b | Epreincr b | Epredecr b | Ecast (_, b)
    | Esizeof_expr b ->
        expr b
    | Eindex (a, b) | Ebinary (_, a, b) | Eassign (_, a, b) | Ecomma (a, b) ->
        expr a + expr b
    | Econd (a, b, c) -> expr a + expr b + expr c
  in
  let rec init = function
    | Iexpr e -> expr e
    | Ilist is -> List.fold_left (fun n i -> n + init i) 0 is
  in
  let decl d = 1 + match d.d_init with Some i -> init i | None -> 0 in
  let rec stmt s =
    1
    +
    match s.s with
    | Sskip | Sbreak | Scontinue | Sgoto _ -> 0
    | Sexpr e | Sreturn (Some e) | Sassert e -> expr e
    | Sreturn None -> 0
    | Sdecl ds -> List.fold_left (fun n d -> n + decl d) 0 ds
    | Sblock ss -> List.fold_left (fun n s -> n + stmt s) 0 ss
    | Sif (c, t, f) ->
        expr c + stmt t + (match f with Some f -> stmt f | None -> 0)
    | Swhile (c, b) | Sdo (b, c) | Sswitch (c, b) | Scase (c, b) ->
        expr c + stmt b
    | Sfor (i, c, st, b) ->
        (match i with Some s -> stmt s | None -> 0)
        + (match c with Some e -> expr e | None -> 0)
        + (match st with Some e -> expr e | None -> 0)
        + stmt b
    | Sdefault b | Slabel (_, b) -> stmt b
  in
  List.fold_left
    (fun n td ->
      match td with
      | Tfundef f -> n + 1 + stmt f.f_body
      | Tdecl ds -> n + List.fold_left (fun n d -> n + decl d) 0 ds)
    0 tu.tu_decls
