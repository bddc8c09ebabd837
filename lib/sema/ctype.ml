(** Semantic types.

    Distinct from {!Cfront.Ast.ty}: typedefs are resolved (but remembered
    for diagnostics), struct/union types are referred to by tag and their
    fields live in the program environment (breaking the recursion that
    direct embedding would create for [struct s { struct s *next; }]). *)

type sign = Signed | Unsigned [@@deriving eq, ord, show]

type int_kind =
  | Ichar of sign
  | Ishort of sign
  | Iint of sign
  | Ilong of sign
[@@deriving eq, ord, show]

type float_kind = Ffloat | Fdouble [@@deriving eq, ord, show]

type t =
  | Cvoid
  | Cbool
  | Cint of int_kind
  | Cfloat of float_kind
  | Cptr of t
  | Carray of t * int option
  | Cstruct of string  (** struct tag; fields in {!Program} *)
  | Cunion of string
  | Cenum of string
  | Cfunc of cfun
  | Cnamed of string * t  (** typedef name and its expansion *)

and cfun = { cf_ret : t; cf_params : t list; cf_varargs : bool }
[@@deriving eq, ord, show]

(** Strip typedef wrappers. *)
let rec unroll = function Cnamed (_, t) -> unroll t | t -> t

let is_pointer t = match unroll t with Cptr _ | Carray _ -> true | _ -> false
let is_function t = match unroll t with Cfunc _ -> true | _ -> false

let is_function_pointer t =
  match unroll t with Cptr t' -> is_function t' | _ -> false

let is_arith t =
  match unroll t with Cint _ | Cfloat _ | Cbool | Cenum _ -> true | _ -> false

let is_void t = match unroll t with Cvoid -> true | _ -> false

(** The type obtained by dereferencing a pointer (or indexing an array). *)
let deref t =
  match unroll t with
  | Cptr t' -> Some t'
  | Carray (t', _) -> Some t'
  | _ -> None

(** Is this an aggregate whose storage has internal structure the checker
    tracks (struct/union)? *)
let is_aggregate t =
  match unroll t with Cstruct _ | Cunion _ -> true | _ -> false

let su_tag t =
  match unroll t with Cstruct tag | Cunion tag -> Some tag | _ -> None

let int_ = Cint (Iint Signed)
let char_ = Cint (Ichar Signed)
let size_t = Cint (Ilong Unsigned)
let charptr = Cptr char_
let voidptr = Cptr Cvoid

(** Printable form; resolves to the typedef name when one is known. *)
let rec to_string = function
  | Cvoid -> "void"
  | Cbool -> "int"
  | Cint (Ichar Signed) -> "char"
  | Cint (Ichar Unsigned) -> "unsigned char"
  | Cint (Ishort Signed) -> "short"
  | Cint (Ishort Unsigned) -> "unsigned short"
  | Cint (Iint Signed) -> "int"
  | Cint (Iint Unsigned) -> "unsigned int"
  | Cint (Ilong Signed) -> "long"
  | Cint (Ilong Unsigned) -> "unsigned long"
  | Cfloat Ffloat -> "float"
  | Cfloat Fdouble -> "double"
  | Cptr t -> to_string t ^ " *"
  | Carray (t, Some n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Carray (t, None) -> Printf.sprintf "%s[]" (to_string t)
  | Cstruct tag -> "struct " ^ tag
  | Cunion tag -> "union " ^ tag
  | Cenum tag -> "enum " ^ tag
  | Cfunc f ->
      Printf.sprintf "%s (*)(%s)" (to_string f.cf_ret)
        (String.concat ", " (List.map to_string f.cf_params))
  | Cnamed (n, _) -> n

(** Loose compatibility: enough to type-check the C subset without a full
    ANSI conversion matrix.  Pointers are compatible with pointers of any
    pointee (casts are routine in the corpus) and with integer constants
    (null).  Arithmetic types are inter-compatible. *)
let rec compatible a b =
  let a = unroll a and b = unroll b in
  match (a, b) with
  | Cvoid, Cvoid -> true
  | _, _ when is_arith a && is_arith b -> true
  | (Cptr _ | Carray _), (Cptr _ | Carray _) -> true
  | (Cptr _ | Carray _), _ when is_arith b -> true
  | _, (Cptr _ | Carray _) when is_arith a -> true
  | Cstruct t1, Cstruct t2 -> t1 = t2
  | Cunion t1, Cunion t2 -> t1 = t2
  | Cfunc f1, Cfunc f2 ->
      compatible f1.cf_ret f2.cf_ret
      && List.length f1.cf_params = List.length f2.cf_params
      && List.for_all2 compatible f1.cf_params f2.cf_params
  | (Cptr _ | Carray _), Cfunc _ | Cfunc _, (Cptr _ | Carray _) -> true
  | _ -> false
