(** Object layout for the run-time checker.

    Memory is modelled at *slot* granularity: every scalar (integer,
    floating-point number, pointer) occupies one slot.  [sizeof] in
    interpreted programs returns slot counts, so allocation sizes written
    as [n * sizeof(T)] work out exactly.  This models everything the
    dynamic memory checkers the paper compares against (Purify, dmalloc)
    need — block identity, bounds, interior offsets — without byte-level
    arithmetic. *)

module Ctype = Sema.Ctype

(** Number of slots occupied by a value of type [ty]. *)
let rec size_of (prog : Sema.program) (ty : Ctype.t) : int =
  match Ctype.unroll ty with
  | Ctype.Cvoid -> 1
  | Ctype.Cbool | Ctype.Cint _ | Ctype.Cfloat _ | Ctype.Cenum _ -> 1
  | Ctype.Cptr _ | Ctype.Cfunc _ -> 1
  | Ctype.Carray (t, Some n) -> n * size_of prog t
  | Ctype.Carray (t, None) -> size_of prog t
  | Ctype.Cstruct tag -> (
      match Sema.find_struct prog tag with
      | Some su ->
          List.fold_left
            (fun acc (f : Sema.field) -> acc + size_of prog f.Sema.sf_ty)
            0 su.Sema.su_fields
          |> max 1
      | None -> 1)
  | Ctype.Cunion tag -> (
      match Sema.find_struct prog tag with
      | Some su ->
          List.fold_left
            (fun acc (f : Sema.field) -> max acc (size_of prog f.Sema.sf_ty))
            1 su.Sema.su_fields
      | None -> 1)
  | Ctype.Cnamed (_, t) -> size_of prog t

(** Slot offset and type of field [fname] within struct/union [ty]. *)
let field_offset (prog : Sema.program) (ty : Ctype.t) (fname : string) :
    (int * Ctype.t) option =
  match Ctype.unroll ty with
  | Ctype.Cstruct tag -> (
      match Sema.find_struct prog tag with
      | Some su ->
          let rec go off = function
            | [] -> None
            | (f : Sema.field) :: rest ->
                if f.Sema.sf_name = fname then Some (off, f.Sema.sf_ty)
                else go (off + size_of prog f.Sema.sf_ty) rest
          in
          go 0 su.Sema.su_fields
      | None -> None)
  | Ctype.Cunion tag -> (
      match Sema.find_struct prog tag with
      | Some su ->
          List.find_opt (fun (f : Sema.field) -> f.Sema.sf_name = fname)
            su.Sema.su_fields
          |> Option.map (fun (f : Sema.field) -> (0, f.Sema.sf_ty))
      | None -> None)
  | _ -> None
