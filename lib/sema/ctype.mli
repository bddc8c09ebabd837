(** Semantic types: typedefs resolved (but remembered for diagnostics),
    struct/union types referred to by tag with fields in the program
    environment. *)

type sign = Signed | Unsigned

type int_kind = Ichar of sign | Ishort of sign | Iint of sign | Ilong of sign

type float_kind = Ffloat | Fdouble

type t =
  | Cvoid
  | Cbool
  | Cint of int_kind
  | Cfloat of float_kind
  | Cptr of t
  | Carray of t * int option
  | Cstruct of string  (** tag; fields live in the program environment *)
  | Cunion of string
  | Cenum of string
  | Cfunc of cfun
  | Cnamed of string * t  (** typedef name and its expansion *)

and cfun = { cf_ret : t; cf_params : t list; cf_varargs : bool }

val unroll : t -> t
(** Strip typedef wrappers. *)

val is_pointer : t -> bool
(** Pointers and arrays (which decay). *)

val is_function : t -> bool
val is_function_pointer : t -> bool
val is_arith : t -> bool
val is_void : t -> bool

val deref : t -> t option
(** The pointee/element type, if any. *)

val is_aggregate : t -> bool
val su_tag : t -> string option

val int_ : t
val char_ : t
val size_t : t
val charptr : t
val voidptr : t

val to_string : t -> string
