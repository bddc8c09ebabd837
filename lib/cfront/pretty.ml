(** Pretty-printer for the C-subset AST.

    Output is valid input for {!Parser} (modulo insignificant whitespace),
    which the test suite checks by round-tripping: parse, print, re-parse,
    compare.  Annotations are printed back in [/*@...@*/] form. *)

open Ast

let pp_annots ppf annots =
  List.iter (fun a -> Fmt.pf ppf "/*@@%s@@*/ " a.a_text) annots

let pp_storage ppf = function
  | Snone -> ()
  | Sextern -> Fmt.string ppf "extern "
  | Sstatic -> Fmt.string ppf "static "
  | Stypedef -> Fmt.string ppf "typedef "
  | Sauto -> Fmt.string ppf "auto "
  | Sregister -> Fmt.string ppf "register "

let unop_str = function Uneg -> "-" | Unot -> "!" | Ubnot -> "~"

let binop_str = function
  | Badd -> "+" | Bsub -> "-" | Bmul -> "*" | Bdiv -> "/" | Bmod -> "%"
  | Bshl -> "<<" | Bshr -> ">>" | Bband -> "&" | Bbor -> "|" | Bbxor -> "^"
  | Blt -> "<" | Bgt -> ">" | Ble -> "<=" | Bge -> ">="
  | Beq -> "==" | Bne -> "!="
  | Bland -> "&&" | Blor -> "||"

let escape_char c =
  match c with
  | '\n' -> "\\n" | '\t' -> "\\t" | '\r' -> "\\r" | '\\' -> "\\\\"
  | '\'' -> "\\'" | '\000' -> "\\0"
  | c when Char.code c >= 32 && Char.code c < 127 -> String.make 1 c
  | c -> Printf.sprintf "\\x%02x" (Char.code c)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c >= 32 && Char.code c < 127 -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c)))
    s;
  Buffer.contents buf

let signed_prefix = function Signed -> "" | Unsigned -> "unsigned "

(* Types are printed using the C inside-out declarator syntax; we implement
   the standard "declare name with type" routine. *)
let rec pp_base ppf = function
  | Tvoid -> Fmt.string ppf "void"
  | Tbool -> Fmt.string ppf "int"
  | Tchar s -> Fmt.pf ppf "%schar" (signed_prefix s)
  | Tshort s -> Fmt.pf ppf "%sshort" (signed_prefix s)
  | Tint Signed -> Fmt.string ppf "int"
  | Tint Unsigned -> Fmt.string ppf "unsigned int"
  | Tlong s -> Fmt.pf ppf "%slong" (signed_prefix s)
  | Tfloat -> Fmt.string ppf "float"
  | Tdouble -> Fmt.string ppf "double"
  | Tnamed n -> Fmt.string ppf n
  | Tstruct (tag, fields) -> pp_su ppf "struct" tag fields
  | Tunion (tag, fields) -> pp_su ppf "union" tag fields
  | Tenum (tag, items) -> (
      Fmt.pf ppf "enum";
      (match tag with Some t -> Fmt.pf ppf " %s" t | None -> ());
      match items with
      | None -> ()
      | Some items ->
          Fmt.pf ppf " { ";
          List.iteri
            (fun i it ->
              if i > 0 then Fmt.pf ppf ", ";
              Fmt.string ppf it.en_name;
              match it.en_value with
              | Some e -> Fmt.pf ppf " = %a" pp_expr e
              | None -> ())
            items;
          Fmt.pf ppf " }")

and pp_su ppf kw tag fields =
  Fmt.string ppf kw;
  (match tag with Some t -> Fmt.pf ppf " %s" t | None -> ());
  match fields with
  | None -> ()
  | Some fields ->
      Fmt.pf ppf " { ";
      List.iter
        (fun f ->
          Fmt.pf ppf "%a%a; " pp_annots f.fld_annots
            (pp_declaration f.fld_name) f.fld_ty)
        fields;
      Fmt.pf ppf "}"

(** [pp_declaration name ppf ty] prints a C declaration of [name] with type
    [ty], e.g. [pp_declaration "f" (ptr (func int))] prints
    ["int (*f)(void)"]. *)
and pp_declaration name ppf ty =
  (* Split the type into base + declarator string. *)
  let rec go ty (inner : string) : base_type * string =
    match ty with
    | Tbase b -> (b, inner)
    | Tptr t ->
        let inner = "*" ^ inner in
        (match t with
        | Tarray _ | Tfunc _ -> go t ("(" ^ inner ^ ")")
        | _ -> go t inner)
    | Tarray (t, size) ->
        let sz =
          match size with Some e -> Fmt.str "%a" pp_expr e | None -> ""
        in
        go t (inner ^ "[" ^ sz ^ "]")
    | Tfunc ft ->
        let params =
          if ft.ft_params = [] && not ft.ft_varargs then "void"
          else
            String.concat ", "
              (List.map
                 (fun p ->
                   let annots = Fmt.str "%a" pp_annots p.p_annots in
                   annots
                   ^ Fmt.str "%a" (pp_declaration (Option.value ~default:"" p.p_name)) p.p_ty)
                 ft.ft_params
              @ if ft.ft_varargs then [ "..." ] else [])
        in
        go ft.ft_ret (inner ^ "(" ^ params ^ ")")
  in
  let base, declarator = go ty name in
  if declarator = "" then pp_base ppf base
  else Fmt.pf ppf "%a %s" pp_base base declarator

and pp_ty ppf ty = pp_declaration "" ppf ty

(* Expression printing: fully parenthesized below the statement level to
   avoid re-deriving precedence; round-trips cleanly. *)
and pp_expr ppf (e : expr) =
  match e.e with
  | Eint (_, s) -> Fmt.string ppf s
  | Echar c -> Fmt.pf ppf "'%s'" (escape_char c)
  | Estring s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | Efloat (_, s) -> Fmt.string ppf s
  | Eident x -> Fmt.string ppf x
  | Ecall (f, args) ->
      Fmt.pf ppf "%a(%a)" pp_expr f
        (Fmt.list ~sep:(Fmt.any ", ") pp_expr)
        args
  | Emember (e, f) -> Fmt.pf ppf "%a.%s" pp_atom e f
  | Earrow (e, f) -> Fmt.pf ppf "%a->%s" pp_atom e f
  | Eindex (e, i) -> Fmt.pf ppf "%a[%a]" pp_atom e pp_expr i
  | Ederef e -> Fmt.pf ppf "(*%a)" pp_expr e
  | Eaddr e -> Fmt.pf ppf "(&%a)" pp_expr e
  | Eunary (op, e) -> Fmt.pf ppf "(%s%a)" (unop_str op) pp_expr e
  | Epostincr e -> Fmt.pf ppf "(%a++)" pp_expr e
  | Epostdecr e -> Fmt.pf ppf "(%a--)" pp_expr e
  | Epreincr e -> Fmt.pf ppf "(++%a)" pp_expr e
  | Epredecr e -> Fmt.pf ppf "(--%a)" pp_expr e
  | Ebinary (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Eassign (None, a, b) -> Fmt.pf ppf "(%a = %a)" pp_expr a pp_expr b
  | Eassign (Some op, a, b) ->
      Fmt.pf ppf "(%a %s= %a)" pp_expr a (binop_str op) pp_expr b
  | Econd (c, t, f) ->
      Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr f
  | Ecast (ty, e) -> Fmt.pf ppf "((%a)%a)" pp_ty ty pp_atom e
  | Esizeof_expr e -> Fmt.pf ppf "sizeof(%a)" pp_expr e
  | Esizeof_type ty -> Fmt.pf ppf "sizeof(%a)" pp_ty ty
  | Ecomma (a, b) -> Fmt.pf ppf "(%a, %a)" pp_expr a pp_expr b

and pp_atom ppf e =
  match e.e with
  | Eint _ | Echar _ | Estring _ | Efloat _ | Eident _ | Ecall _ | Emember _
  | Earrow _ | Eindex _ ->
      pp_expr ppf e
  | _ -> Fmt.pf ppf "(%a)" pp_expr e

let pp_init ppf init =
  let rec go ppf = function
    | Iexpr e -> pp_expr ppf e
    | Ilist items -> Fmt.pf ppf "{ %a }" (Fmt.list ~sep:(Fmt.any ", ") go) items
  in
  go ppf init

let pp_decl ppf (d : decl) =
  Fmt.pf ppf "%a%a%a" pp_annots d.d_annots pp_storage d.d_storage
    (pp_declaration d.d_name) d.d_ty;
  match d.d_init with
  | Some i -> Fmt.pf ppf " = %a" pp_init i
  | None -> ()

let rec pp_stmt ?(indent = 0) ppf (s : stmt) =
  let pad = String.make indent ' ' in
  let sub = indent + 2 in
  match s.s with
  | Sskip -> Fmt.pf ppf "%s;@\n" pad
  | Sexpr e -> Fmt.pf ppf "%s%a;@\n" pad pp_expr e
  | Sassert e -> Fmt.pf ppf "%sassert(%a);@\n" pad pp_expr e
  | Sdecl decls ->
      List.iter (fun d -> Fmt.pf ppf "%s%a;@\n" pad pp_decl d) decls
  | Sblock stmts ->
      Fmt.pf ppf "%s{@\n" pad;
      List.iter (pp_stmt ~indent:sub ppf) stmts;
      Fmt.pf ppf "%s}@\n" pad
  | Sif (c, t, f) -> (
      Fmt.pf ppf "%sif (%a)@\n" pad pp_expr c;
      pp_stmt ~indent:sub ppf t;
      match f with
      | Some f ->
          Fmt.pf ppf "%selse@\n" pad;
          pp_stmt ~indent:sub ppf f
      | None -> ())
  | Swhile (c, body) ->
      Fmt.pf ppf "%swhile (%a)@\n" pad pp_expr c;
      pp_stmt ~indent:sub ppf body
  | Sdo (body, c) ->
      Fmt.pf ppf "%sdo@\n" pad;
      pp_stmt ~indent:sub ppf body;
      Fmt.pf ppf "%swhile (%a);@\n" pad pp_expr c
  | Sfor (init, cond, step, body) ->
      let init_s =
        match init with
        | None -> ""
        | Some { s = Sexpr e; _ } -> Fmt.str "%a" pp_expr e
        | Some { s = Sdecl [ d ]; _ } -> Fmt.str "%a" pp_decl d
        | Some _ -> "/* multi-decl */"
      in
      Fmt.pf ppf "%sfor (%s; %a; %a)@\n" pad init_s
        (Fmt.option pp_expr) cond (Fmt.option pp_expr) step;
      pp_stmt ~indent:sub ppf body
  | Sreturn None -> Fmt.pf ppf "%sreturn;@\n" pad
  | Sreturn (Some e) -> Fmt.pf ppf "%sreturn %a;@\n" pad pp_expr e
  | Sbreak -> Fmt.pf ppf "%sbreak;@\n" pad
  | Scontinue -> Fmt.pf ppf "%scontinue;@\n" pad
  | Sswitch (e, body) ->
      Fmt.pf ppf "%sswitch (%a)@\n" pad pp_expr e;
      pp_stmt ~indent:sub ppf body
  | Scase (e, s) ->
      Fmt.pf ppf "%scase %a:@\n" pad pp_expr e;
      pp_stmt ~indent:sub ppf s
  | Sdefault s ->
      Fmt.pf ppf "%sdefault:@\n" pad;
      pp_stmt ~indent:sub ppf s
  | Sgoto l -> Fmt.pf ppf "%sgoto %s;@\n" pad l
  | Slabel (l, s) ->
      Fmt.pf ppf "%s%s:@\n" pad l;
      pp_stmt ~indent:indent ppf s

let pp_globspec ppf (g : globspec) =
  Fmt.pf ppf "%s%s"
    (String.concat ""
       (List.map (fun a -> a.a_text ^ " ") g.g_annots))
    g.g_name

let pp_fundef ppf (f : fundef) =
  let fty =
    Tfunc { ft_ret = f.f_ret; ft_params = f.f_params; ft_varargs = f.f_varargs }
  in
  Fmt.pf ppf "%a%a%a" pp_storage f.f_storage pp_annots f.f_ret_annots
    (pp_declaration f.f_name) fty;
  if f.f_globals <> [] then
    Fmt.pf ppf " /*@@globals %a@@*/"
      (Fmt.list ~sep:(Fmt.any "; ") pp_globspec)
      f.f_globals;
  (match f.f_modifies with
  | Some [] -> Fmt.pf ppf " /*@@modifies nothing@@*/"
  | Some ms ->
      Fmt.pf ppf " /*@@modifies %s@@*/" (String.concat ", " ms)
  | None -> ());
  Fmt.pf ppf "@\n";
  pp_stmt ppf f.f_body

let pp_topdecl ppf = function
  | Tfundef f -> pp_fundef ppf f
  | Tdecl decls ->
      List.iter (fun d -> Fmt.pf ppf "%a;@\n" pp_decl d) decls

let pp_tunit ppf (tu : tunit) =
  List.iter (fun d -> Fmt.pf ppf "%a@\n" pp_topdecl d) tu.tu_decls

let tunit_to_string tu = Fmt.str "%a" pp_tunit tu
