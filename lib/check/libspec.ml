(** Interface libraries for modular checking.

    Section 7: "By using libraries to store interface information, a
    representative 5000 line module is checked in under 10 seconds."

    A library is the externally visible interface of a program — typedefs,
    struct layouts, globals and function signatures, all with their
    annotations — rendered as an annotated C header.  Loading a library is
    just parsing that header into a fresh (or shared) program environment,
    so a client module can be checked without re-analysing the
    implementation it links against. *)

module Ctype = Sema.Ctype

(* C declarator printing for semantic types (inside-out rule). *)
let rec decl_string (name : string) (ty : Ctype.t) : string =
  match ty with
  | Ctype.Cnamed (n, _) ->
      if name = "" then n else Printf.sprintf "%s %s" n name
  | Ctype.Cptr inner -> (
      match Ctype.unroll inner with
      | Ctype.Cfunc _ | Ctype.Carray _ ->
          decl_string (Printf.sprintf "(*%s)" name) inner
      | _ -> decl_string (Printf.sprintf "*%s" name) inner)
  | Ctype.Carray (inner, n) ->
      let sz = match n with Some n -> string_of_int n | None -> "" in
      decl_string (Printf.sprintf "%s[%s]" name sz) inner
  | Ctype.Cfunc f ->
      let params =
        if f.Ctype.cf_params = [] && not f.Ctype.cf_varargs then "void"
        else
          String.concat ", "
            (List.map (decl_string "") f.Ctype.cf_params
            @ if f.Ctype.cf_varargs then [ "..." ] else [])
      in
      decl_string (Printf.sprintf "%s(%s)" name params) f.Ctype.cf_ret
  | base ->
      let b =
        match base with
        | Ctype.Cvoid -> "void"
        | Ctype.Cbool -> "int"
        | Ctype.Cint (Ctype.Ichar Ctype.Signed) -> "char"
        | Ctype.Cint (Ctype.Ichar Ctype.Unsigned) -> "unsigned char"
        | Ctype.Cint (Ctype.Ishort Ctype.Signed) -> "short"
        | Ctype.Cint (Ctype.Ishort Ctype.Unsigned) -> "unsigned short"
        | Ctype.Cint (Ctype.Iint Ctype.Signed) -> "int"
        | Ctype.Cint (Ctype.Iint Ctype.Unsigned) -> "unsigned int"
        | Ctype.Cint (Ctype.Ilong Ctype.Signed) -> "long"
        | Ctype.Cint (Ctype.Ilong Ctype.Unsigned) -> "unsigned long"
        | Ctype.Cfloat Ctype.Ffloat -> "float"
        | Ctype.Cfloat Ctype.Fdouble -> "double"
        | Ctype.Cstruct tag -> "struct " ^ tag
        | Ctype.Cunion tag -> "union " ^ tag
        | Ctype.Cenum tag -> "enum " ^ tag
        | _ -> "int"
      in
      if name = "" then b else Printf.sprintf "%s %s" b name

let annots_prefix (set : Annot.set) : string =
  (* [inferred] is a provenance marker, not an Appendix B word: [to_words]
     never renders it, but a dumped library must carry it so a later
     [-load-lib] distinguishes declared from synthesized interfaces. *)
  let words =
    Annot.to_words set @ if Annot.is_inferred set then [ "inferred" ] else []
  in
  match words with
  | [] -> ""
  | words ->
      String.concat "" (List.map (fun w -> Printf.sprintf "/*@%s@*/ " w) words)

(* ------------------------------------------------------------------ *)
(* Versioned, hash-stamped persistence                                 *)
(* ------------------------------------------------------------------ *)

(* On-disk artifacts (interface libraries, the incremental service's
   summary caches) share one framing: a kind+version line followed by a
   content stamp over the payload.  A reader rejects artifacts of the
   wrong kind or version and artifacts whose payload does not digest to
   the stamp, so a stale or truncated cache can never silently corrupt a
   run. *)

let library_kind = "interface-library"
let library_version = 1

let stamp ~kind ~version payload =
  Printf.sprintf "/* olclint %s format %d */\n/* stamp %s */\n%s" kind version
    (Digest.to_hex (Digest.string payload))
    payload

(* Split the first two lines off a stamped artifact. *)
let split2 text =
  match String.index_opt text '\n' with
  | None -> None
  | Some i -> (
      let line1 = String.sub text 0 i in
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      match String.index_opt rest '\n' with
      | None -> None
      | Some j ->
          let line2 = String.sub rest 0 j in
          let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
          Some (line1, line2, payload))

let unstamp ~kind text : (int * string, string) result =
  match split2 text with
  | None -> Error "truncated stamped artifact"
  | Some (line1, line2, payload) -> (
      let version =
        try
          Scanf.sscanf line1 "/* olclint %s@ format %d */" (fun k v ->
              if String.equal k kind then Some v else None)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      in
      match version with
      | None -> Error (Printf.sprintf "not an olclint %s artifact" kind)
      | Some v -> (
          let hex =
            try
              Scanf.sscanf line2 "/* stamp %s@ */" (fun h -> Some (String.trim h))
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
          in
          match hex with
          | None -> Error "missing stamp line"
          | Some hex ->
              if String.equal hex (Digest.to_hex (Digest.string payload)) then
                Ok (v, payload)
              else Error "stamp mismatch (artifact corrupted or truncated)"))

let is_stamped text =
  String.length text >= 10 && String.sub text 0 10 = "/* olclint"

(** Render the public interface of [prog] as an annotated header. *)
let save (prog : Sema.program) : string =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "/* interface library generated from %s */\n\n" prog.Sema.p_file;
  (* struct and union layouts *)
  List.iter
    (fun tag ->
      match Sema.find_struct prog tag with
      | Some su when String.length tag > 0 && tag.[0] <> '<' ->
          pf "%s %s {\n" (if su.Sema.su_union then "union" else "struct") tag;
          List.iter
            (fun (f : Sema.field) ->
              pf "  %s%s;\n"
                (annots_prefix f.Sema.sf_annots.Sema.an)
                (decl_string f.Sema.sf_name f.Sema.sf_ty))
            su.Sema.su_fields;
          pf "};\n\n"
      | _ -> ())
    (Sema.struct_order prog);
  (* typedefs *)
  List.iter
    (fun name ->
      match Sema.find_typedef prog name with
      | Some (ty, set) ->
          pf "%stypedef %s;\n" (annots_prefix set) (decl_string name ty)
      | None -> ())
    (Sema.typedef_order prog);
  if (Sema.typedef_order prog) <> [] then pf "\n";
  (* globals (static globals are not part of the interface) *)
  List.iter
    (fun name ->
      match Sema.find_global prog name with
      | Some gv when not gv.Sema.gv_static ->
          pf "%sextern %s;\n"
            (annots_prefix gv.Sema.gv_annots.Sema.an)
            (decl_string name gv.Sema.gv_ty)
      | _ -> ())
    (Sema.global_order prog);
  if (Sema.global_order prog) <> [] then pf "\n";
  (* functions *)
  List.iter
    (fun name ->
      match Sema.find_func prog name with
      | Some fs when not fs.Sema.fs_static ->
          let params =
            if fs.Sema.fs_params = [] && not fs.Sema.fs_varargs then "void"
            else
              String.concat ", "
                (List.map
                   (fun (p : Sema.param) ->
                     annots_prefix p.Sema.pr_annots.Sema.an
                     ^ decl_string p.Sema.pr_name p.Sema.pr_ty)
                   fs.Sema.fs_params
                @ if fs.Sema.fs_varargs then [ "..." ] else [])
          in
          let globals =
            match fs.Sema.fs_globals with
            | [] -> ""
            | gs ->
                Printf.sprintf " /*@globals %s@*/"
                  (String.concat "; "
                     (List.map
                        (fun (g, (set : Annot.set)) ->
                          let words = Annot.to_words set in
                          String.concat " " (words @ [ g ]))
                        gs))
          in
          let modifies =
            match fs.Sema.fs_modifies with
            | None -> ""
            | Some [] -> " /*@modifies nothing@*/"
            | Some ms ->
                Printf.sprintf " /*@modifies %s@*/" (String.concat ", " ms)
          in
          pf "%sextern %s%s%s;\n"
            (annots_prefix fs.Sema.fs_ret_annots.Sema.an)
            (decl_string (Printf.sprintf "%s(%s)" name params) fs.Sema.fs_ret)
            globals modifies
      | _ -> ())
    (Sema.func_order prog);
  stamp ~kind:library_kind ~version:library_version (Buffer.contents buf)

(** Load an interface library (produced by {!save} or hand-written) into a
    program environment.  Stamped artifacts are verified (kind, version,
    content hash) before parsing; raw annotated headers still load as
    before, so hand-written libraries keep working. *)
let load ?(flags = Annot.Flags.default) ?into ~file (text : string) :
    Sema.program =
  let loc = { Cfront.Loc.file; line = 1; col = 1 } in
  let text =
    if is_stamped text then
      match unstamp ~kind:library_kind text with
      | Ok (v, payload) when v = library_version -> payload
      | Ok (v, _) ->
          Cfront.Diag.fatal ~loc ~code:"lib"
            "interface library has format version %d, this build reads %d" v
            library_version
      | Error msg ->
          Cfront.Diag.fatal ~loc ~code:"lib" "bad interface library: %s" msg
    else text
  in
  Sema.analyze_string ~flags ?into ~file text
