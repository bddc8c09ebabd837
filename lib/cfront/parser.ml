(** Recursive-descent parser for the C subset.

    The grammar covered is C89 minus bitfields, K&R-style definitions and
    the preprocessor, plus LCLint annotation comments in qualifier
    positions.  The classic typedef ambiguity is resolved with a
    parser-maintained typedef table (the "lexer hack", applied at parse
    time).

    Annotation comments are handled by position:
    - in declaration-specifier or parameter position they are collected as
      qualifiers onto the declared entity;
    - after a function signature, [/*@globals ...@*/] introduces the
      function's globals list;
    - at statement or top level they are recorded as pragmas
      (message-suppression and control comments, interpreted later). *)

(* Tokens are pulled from the lexer on demand into a ring buffer
   indexed by stream position: [ring.(i land (length ring - 1))] holds
   token [i] for [head <= i < filled].  The ring holds the current token
   and whatever lookahead has been pulled past it; it doubles when a
   lookahead needs more room than it has, since a run of annotation
   comments before a declaration can be any length. *)
type t = {
  next : unit -> Token.t;  (** pulls the next token of the stream *)
  mutable ring : Token.t array;  (** power-of-two length *)
  mutable head : int;  (** stream position of the current token *)
  mutable filled : int;  (** stream position after the last token pulled *)
  mutable tok : Token.t;  (** the current token *)
  mutable at_eof : bool;  (** the last token pulled was [Eof] *)
  typedefs : (string, unit) Hashtbl.t;
  mutable pragmas : Ast.annot list;  (** reversed *)
  file : string;
  spec_mode : bool;
      (** LCL specification syntax: annotations are bare words before the
          type specifiers ("null out only void *malloc(size_t)"), as in
          the paper's standard-library excerpts *)
}

(* The ring's initial length, a power of two: enough for the parser's
   usual lookahead of a token or two. *)
let ring_length = 16

let is_eof (t : Token.t) = match t.kind with Token.Eof -> true | _ -> false

let of_pull ~spec_mode ~file next =
  let tok = next () in
  {
    next;
    ring = Array.make ring_length tok;
    head = 0;
    filled = 1;
    tok;
    at_eof = is_eof tok;
    typedefs = Hashtbl.create 64;
    pragmas = [];
    file;
    spec_mode;
  }

(* Token arrays (which end with [Eof], as {!Lexer.tokenize} does) are
   streamed like the lexer; past the end the stream repeats an [Eof]. *)
let create ?(spec_mode = false) ~file toks =
  let n = Array.length toks in
  let i = ref 0 in
  let next () =
    if !i < n then (
      let t = toks.(!i) in
      incr i;
      t)
    else
      {
        Token.kind = Token.Eof;
        loc = (if n = 0 then Loc.make ~file ~line:1 ~col:1 else toks.(n - 1).Token.loc);
      }
  in
  of_pull ~spec_mode ~file next

let pull p =
  let len = Array.length p.ring in
  if p.filled - p.head = len then begin
    let ring = Array.make (2 * len) p.tok in
    for i = p.head to p.filled - 1 do
      ring.(i land ((2 * len) - 1)) <- p.ring.(i land (len - 1))
    done;
    p.ring <- ring
  end;
  let t = p.next () in
  p.ring.(p.filled land (Array.length p.ring - 1)) <- t;
  p.filled <- p.filled + 1;
  if is_eof t then p.at_eof <- true

let curk p = p.tok.kind
let curloc p = p.tok.loc

let lak p n =
  let i = p.head + n in
  while i >= p.filled && not p.at_eof do
    pull p
  done;
  if i < p.filled then p.ring.(i land (Array.length p.ring - 1)).kind
  else Token.Eof

(* The stream stays on its [Eof]. *)
let advance p =
  if p.head + 1 < p.filled || not p.at_eof then begin
    if p.head + 1 = p.filled then pull p;
    p.head <- p.head + 1;
    p.tok <- p.ring.(p.head land (Array.length p.ring - 1))
  end

let err p fmt =
  Diag.fatal ~loc:(curloc p) ~code:"parse" fmt

let expect p k what =
  if Token.equal_kind (curk p) k then advance p
  else err p "expected %s before %s" what (Token.describe (curk p))

let accept p k =
  if Token.equal_kind (curk p) k then (
    advance p;
    true)
  else false

let is_typedef_name p s = Hashtbl.mem p.typedefs s

(* ------------------------------------------------------------------ *)
(* Token classification                                                *)
(* ------------------------------------------------------------------ *)

let is_type_keyword = function
  | Token.KwVoid | KwChar | KwShort | KwInt | KwLong | KwFloat | KwDouble
  | KwSigned | KwUnsigned | KwStruct | KwUnion | KwEnum | KwConst
  | KwVolatile ->
      true
  | _ -> false

let is_storage_keyword = function
  | Token.KwTypedef | KwExtern | KwStatic | KwAuto | KwRegister -> true
  | _ -> false

(** Does the token at offset [n] begin a declaration (in the current typedef
    environment)?  Annotation tokens are transparent: we skip over them. *)
let rec starts_decl_at p n =
  match lak p n with
  | k when is_type_keyword k || is_storage_keyword k -> true
  | Token.Ident s -> is_typedef_name p s
  | Token.Annot _ -> starts_decl_at p (n + 1)
  | _ -> false

let starts_decl p = starts_decl_at p 0

(** Does the token at offset [n] begin a type name (for casts / sizeof)? *)
let starts_typename_at p n =
  match lak p n with
  | k when is_type_keyword k -> true
  | Token.Ident s -> is_typedef_name p s
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Annotations                                                         *)
(* ------------------------------------------------------------------ *)

let take_annot p : Ast.annot option =
  match curk p with
  | Token.Annot text ->
      let a = { Ast.a_text = text; a_loc = curloc p } in
      advance p;
      a |> Option.some
  | _ -> None

let record_pragma p (a : Ast.annot) = p.pragmas <- a :: p.pragmas

(* The annotation words recognized as bare qualifiers in spec mode.  The
   set mirrors Appendix B; a word is only absorbed when what follows can
   still start a type, so identifiers that happen to collide with the
   vocabulary still parse as declarators. *)
let spec_annot_words =
  [
    "null"; "notnull"; "relnull"; "out"; "in"; "partial"; "reldef"; "only";
    "keep"; "temp"; "owned"; "dependent"; "shared"; "unique"; "returned";
    "observer"; "exposed"; "truenull"; "falsenull"; "exits";
  ]

(* Message-suppression comments are pragmas wherever they appear, even in
   qualifier position (an [/*@ignore@*/] may precede a declaration). *)
let is_suppression text =
  match String.trim text with "ignore" | "end" | "i" -> true | _ -> false

(** Collect consecutive annotation comments (qualifier position).  In
    spec mode, bare annotation words are absorbed too, provided the next
    token can still begin a type (so "int in;" declares a variable named
    [in], while "in int *x" annotates [x]). *)
let rec collect_annots p acc =
  match curk p with
  | Token.Annot text when is_suppression text ->
      (match take_annot p with Some a -> record_pragma p a | None -> ());
      collect_annots p acc
  | Token.Ident w
    when p.spec_mode && List.mem w spec_annot_words
         && (match lak p 1 with
            | k when is_type_keyword k -> true
            | Token.Ident s ->
                is_typedef_name p s || List.mem s spec_annot_words
            | _ -> false) ->
      let a = { Ast.a_text = w; a_loc = curloc p } in
      advance p;
      collect_annots p (a :: acc)
  | _ -> (
      match take_annot p with
      | Some a -> collect_annots p (a :: acc)
      | None -> List.rev acc)

(* The small vocabulary of per-global annotations that may appear inside a
   globals list.  Any other word in the list is taken as a global name. *)
let globals_list_annots =
  [
    "undef"; "killed"; "only"; "owned"; "dependent"; "shared"; "null";
    "notnull"; "relnull"; "out"; "in"; "partial"; "reldef"; "checked";
    "unchecked";
  ]

(** Parse the body of a [/*@globals ...@*/] comment into globspecs.  The
    content grammar is [(annot* name)*] with optional separators. *)
let parse_globals_list (a : Ast.annot) : Ast.globspec list =
  let body =
    let t = a.a_text in
    let prefix = "globals" in
    String.sub t (String.length prefix) (String.length t - String.length prefix)
  in
  let words =
    String.split_on_char ' ' (String.map (function ';' | ',' | '\n' | '\t' -> ' ' | c -> c) body)
    |> List.filter (fun s -> s <> "")
  in
  let rec go pending acc = function
    | [] -> List.rev acc
    | w :: rest when List.mem w globals_list_annots ->
        go ({ Ast.a_text = w; a_loc = a.a_loc } :: pending) acc rest
    | w :: rest ->
        let g =
          { Ast.g_name = w; g_annots = List.rev pending; g_loc = a.a_loc }
        in
        go [] (g :: acc) rest
  in
  go [] [] words

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

type specs = {
  sp_storage : Ast.storage;
  sp_base : Ast.base_type;
  sp_annots : Ast.annot list;
  sp_loc : Loc.t;
}

(* Accumulate primitive type words, then combine.  [words] uses a small
   record to keep the combination logic readable. *)
type prim = {
  mutable w_void : bool;
  mutable w_char : bool;
  mutable w_short : bool;
  mutable w_int : bool;
  mutable w_long : int;
  mutable w_float : bool;
  mutable w_double : bool;
  mutable w_signed : bool;
  mutable w_unsigned : bool;
  mutable w_any : bool;
}

let combine_prim p loc (w : prim) : Ast.base_type =
  ignore p;
  let s : Ast.signedness = if w.w_unsigned then Unsigned else Signed in
  if w.w_void then Ast.Tvoid
  else if w.w_char then Ast.Tchar s
  else if w.w_float then Ast.Tfloat
  else if w.w_double then Ast.Tdouble
  else if w.w_short then Ast.Tshort s
  else if w.w_long > 0 then Ast.Tlong s
  else if w.w_int || w.w_signed || w.w_unsigned then Ast.Tint s
  else
    Diag.fatal ~loc ~code:"parse" "invalid type specifier combination"

let rec parse_struct_or_union p ~is_union : Ast.base_type =
  advance p;
  (* struct/union keyword *)
  let tag =
    match curk p with
    | Token.Ident s ->
        advance p;
        Some s
    | _ -> None
  in
  let fields =
    if Token.equal_kind (curk p) Token.LBrace then (
      advance p;
      let fields = ref [] in
      while not (Token.equal_kind (curk p) Token.RBrace) do
        let fs = parse_field_declaration p in
        fields := !fields @ fs
      done;
      expect p Token.RBrace "'}'";
      Some !fields)
    else None
  in
  (match (tag, fields) with
  | None, None -> err p "expected struct tag or '{'"
  | _ -> ());
  if is_union then Ast.Tunion (tag, fields) else Ast.Tstruct (tag, fields)

and parse_field_declaration p : Ast.field list =
  let annots0 = collect_annots p [] in
  let specs = parse_specifiers p ~annots0 ~allow_storage:false in
  let fields = ref [] in
  let rec one () =
    let annots_pre = collect_annots p [] in
    let loc = curloc p in
    let name, wrap = parse_declarator p in
    let name =
      match name with
      | Some n -> n
      | None -> err p "expected field name"
    in
    let annots_post = collect_annots p [] in
    fields :=
      {
        Ast.fld_name = name;
        fld_ty = wrap (Ast.Tbase specs.sp_base);
        fld_annots = specs.sp_annots @ annots_pre @ annots_post;
        fld_loc = loc;
      }
      :: !fields;
    if accept p Token.Comma then one ()
  in
  one ();
  expect p Token.Semi "';'";
  List.rev !fields

and parse_enum p : Ast.base_type =
  advance p;
  let tag =
    match curk p with
    | Token.Ident s ->
        advance p;
        Some s
    | _ -> None
  in
  let items =
    if Token.equal_kind (curk p) Token.LBrace then (
      advance p;
      let items = ref [] in
      let rec one () =
        match curk p with
        | Token.Ident s ->
            let loc = curloc p in
            advance p;
            let value =
              if accept p Token.Assign then Some (parse_assignment p) else None
            in
            items := { Ast.en_name = s; en_value = value; en_loc = loc } :: !items;
            if accept p Token.Comma then
              if not (Token.equal_kind (curk p) Token.RBrace) then one ()
        | _ -> err p "expected enumerator name"
      in
      if not (Token.equal_kind (curk p) Token.RBrace) then one ();
      expect p Token.RBrace "'}'";
      Some (List.rev !items))
    else None
  in
  (match (tag, items) with
  | None, None -> err p "expected enum tag or '{'"
  | _ -> ());
  Ast.Tenum (tag, items)

(** Parse declaration specifiers: storage class, type specifiers, const /
    volatile (accepted and dropped), annotation comments (collected). *)
and parse_specifiers p ~annots0 ~allow_storage : specs =
  let loc = curloc p in
  let storage = ref Ast.Snone in
  let annots = ref annots0 in
  let w =
    {
      w_void = false; w_char = false; w_short = false; w_int = false;
      w_long = 0; w_float = false; w_double = false; w_signed = false;
      w_unsigned = false; w_any = false;
    }
  in
  let named = ref None in
  let set_storage s =
    if not allow_storage then err p "storage class not allowed here";
    if !storage <> Ast.Snone then err p "multiple storage classes";
    storage := s
  in
  let continue_ = ref true in
  while !continue_ do
    (match curk p with
    | Token.KwTypedef -> set_storage Ast.Stypedef; advance p
    | Token.KwExtern -> set_storage Ast.Sextern; advance p
    | Token.KwStatic -> set_storage Ast.Sstatic; advance p
    | Token.KwAuto -> set_storage Ast.Sauto; advance p
    | Token.KwRegister -> set_storage Ast.Sregister; advance p
    | Token.KwConst | Token.KwVolatile -> advance p
    | Token.KwVoid -> w.w_void <- true; w.w_any <- true; advance p
    | Token.KwChar -> w.w_char <- true; w.w_any <- true; advance p
    | Token.KwShort -> w.w_short <- true; w.w_any <- true; advance p
    | Token.KwInt -> w.w_int <- true; w.w_any <- true; advance p
    | Token.KwLong -> w.w_long <- w.w_long + 1; w.w_any <- true; advance p
    | Token.KwFloat -> w.w_float <- true; w.w_any <- true; advance p
    | Token.KwDouble -> w.w_double <- true; w.w_any <- true; advance p
    | Token.KwSigned -> w.w_signed <- true; w.w_any <- true; advance p
    | Token.KwUnsigned -> w.w_unsigned <- true; w.w_any <- true; advance p
    | Token.KwStruct when !named = None && not w.w_any ->
        named := Some (parse_struct_or_union p ~is_union:false)
    | Token.KwUnion when !named = None && not w.w_any ->
        named := Some (parse_struct_or_union p ~is_union:true)
    | Token.KwEnum when !named = None && not w.w_any ->
        named := Some (parse_enum p)
    | Token.Ident s when !named = None && (not w.w_any) && is_typedef_name p s
      ->
        named := Some (Ast.Tnamed s);
        advance p
    | Token.Annot _ ->
        annots := !annots @ collect_annots p []
    | _ -> continue_ := false);
    if !named <> None then
      (* after a struct/union/enum/typedef-name, only qualifiers and annots
         may follow in specifier position *)
      match curk p with
      | Token.KwConst | Token.KwVolatile | Token.Annot _ -> ()
      | _ -> continue_ := false
  done;
  let base =
    match !named with
    | Some b ->
        if w.w_any then err p "invalid type specifier combination";
        b
    | None ->
        if not w.w_any then err p "expected type specifier, got %s" (Token.describe (curk p));
        combine_prim p loc w
  in
  { sp_storage = !storage; sp_base = base; sp_annots = !annots; sp_loc = loc }

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(** Parse a (possibly abstract) declarator.  Returns the declared name (if
    any) and a function mapping the base type to the full declared type. *)
and parse_declarator p : string option * (Ast.ty -> Ast.ty) =
  (* pointer prefix: '*' (const/volatile/annots allowed after each star;
     annotations here are collected into the enclosing declaration by the
     callers via collect_annots, so we just skip qualifiers) *)
  if accept p Token.Star then (
    let rec skip_quals () =
      match curk p with
      | Token.KwConst | Token.KwVolatile ->
          advance p;
          skip_quals ()
      | _ -> ()
    in
    skip_quals ();
    let name, wrap = parse_declarator p in
    (name, fun base -> wrap (Ast.Tptr base)))
  else parse_direct_declarator p

and parse_direct_declarator p : string option * (Ast.ty -> Ast.ty) =
  let name, core_wrap =
    match curk p with
    | Token.Ident s ->
        advance p;
        (Some s, fun (t : Ast.ty) -> t)
    | Token.LParen
      when not (starts_typename_at p 1 || Token.equal_kind (lak p 1) Token.RParen)
      ->
        (* parenthesized declarator, e.g. "( * f)" *)
        advance p;
        let name, wrap = parse_declarator p in
        expect p Token.RParen "')'";
        (name, wrap)
    | _ -> (None, fun (t : Ast.ty) -> t)
  in
  let wrap = ref core_wrap in
  let continue_ = ref true in
  while !continue_ do
    match curk p with
    | Token.LBracket ->
        advance p;
        let size =
          if Token.equal_kind (curk p) Token.RBracket then None
          else Some (parse_assignment p)
        in
        expect p Token.RBracket "']'";
        let prev = !wrap in
        wrap := fun t -> prev (Ast.Tarray (t, size))
    | Token.LParen ->
        advance p;
        let params, varargs = parse_params p in
        expect p Token.RParen "')'";
        let prev = !wrap in
        wrap :=
          fun t ->
            prev (Ast.Tfunc { ft_ret = t; ft_params = params; ft_varargs = varargs })
    | _ -> continue_ := false
  done;
  (name, !wrap)

and parse_params p : Ast.param list * bool =
  if Token.equal_kind (curk p) Token.RParen then ([], false)
  else if
    Token.equal_kind (curk p) Token.KwVoid
    && Token.equal_kind (lak p 1) Token.RParen
  then (
    advance p;
    ([], false))
  else
    let params = ref [] in
    let varargs = ref false in
    let rec one () =
      if accept p Token.Ellipsis then varargs := true
      else begin
        let loc = curloc p in
        let annots0 = collect_annots p [] in
        let specs = parse_specifiers p ~annots0 ~allow_storage:false in
        let annots_mid = collect_annots p [] in
        let name, wrap = parse_declarator p in
        let annots_post = collect_annots p [] in
        params :=
          {
            Ast.p_name = name;
            p_ty = wrap (Ast.Tbase specs.sp_base);
            p_annots = specs.sp_annots @ annots_mid @ annots_post;
            p_loc = loc;
          }
          :: !params;
        if accept p Token.Comma then one ()
      end
    in
    one ();
    (List.rev !params, !varargs)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and parse_expr p : Ast.expr =
  let e = parse_assignment p in
  if Token.equal_kind (curk p) Token.Comma then (
    advance p;
    let rest = parse_expr p in
    { Ast.e = Ast.Ecomma (e, rest); eloc = e.eloc })
  else e

and parse_assignment p : Ast.expr =
  let lhs = parse_conditional p in
  let mk op =
    advance p;
    let rhs = parse_assignment p in
    { Ast.e = Ast.Eassign (op, lhs, rhs); eloc = lhs.eloc }
  in
  match curk p with
  | Token.Assign -> mk None
  | Token.StarAssign -> mk (Some Ast.Bmul)
  | Token.SlashAssign -> mk (Some Ast.Bdiv)
  | Token.PercentAssign -> mk (Some Ast.Bmod)
  | Token.PlusAssign -> mk (Some Ast.Badd)
  | Token.MinusAssign -> mk (Some Ast.Bsub)
  | Token.LShiftAssign -> mk (Some Ast.Bshl)
  | Token.RShiftAssign -> mk (Some Ast.Bshr)
  | Token.AmpAssign -> mk (Some Ast.Bband)
  | Token.CaretAssign -> mk (Some Ast.Bbxor)
  | Token.PipeAssign -> mk (Some Ast.Bbor)
  | _ -> lhs

and parse_conditional p : Ast.expr =
  let c = parse_binary p 0 in
  if accept p Token.Question then (
    let t = parse_expr p in
    expect p Token.Colon "':'";
    let f = parse_conditional p in
    { Ast.e = Ast.Econd (c, t, f); eloc = c.eloc })
  else c

(* Binary operators by precedence level, loosest first. *)
and binop_of_token (k : Token.kind) : (Ast.binop * int) option =
  match k with
  | Token.PipePipe -> Some (Ast.Blor, 0)
  | Token.AmpAmp -> Some (Ast.Bland, 1)
  | Token.Pipe -> Some (Ast.Bbor, 2)
  | Token.Caret -> Some (Ast.Bbxor, 3)
  | Token.Amp -> Some (Ast.Bband, 4)
  | Token.EqEq -> Some (Ast.Beq, 5)
  | Token.BangEq -> Some (Ast.Bne, 5)
  | Token.Lt -> Some (Ast.Blt, 6)
  | Token.Gt -> Some (Ast.Bgt, 6)
  | Token.Le -> Some (Ast.Ble, 6)
  | Token.Ge -> Some (Ast.Bge, 6)
  | Token.LShift -> Some (Ast.Bshl, 7)
  | Token.RShift -> Some (Ast.Bshr, 7)
  | Token.Plus -> Some (Ast.Badd, 8)
  | Token.Minus -> Some (Ast.Bsub, 8)
  | Token.Star -> Some (Ast.Bmul, 9)
  | Token.Slash -> Some (Ast.Bdiv, 9)
  | Token.Percent -> Some (Ast.Bmod, 9)
  | _ -> None

and parse_binary p minlevel : Ast.expr =
  let lhs = ref (parse_cast_expr p) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (curk p) with
    | Some (op, lvl) when lvl >= minlevel ->
        advance p;
        let rhs = parse_binary p (lvl + 1) in
        lhs := { Ast.e = Ast.Ebinary (op, !lhs, rhs); eloc = !lhs.Ast.eloc }
    | _ -> continue_ := false
  done;
  !lhs

and parse_typename p : Ast.ty =
  let specs = parse_specifiers p ~annots0:[] ~allow_storage:false in
  let name, wrap = parse_declarator p in
  (match name with
  | Some n -> err p "unexpected identifier '%s' in type name" n
  | None -> ());
  wrap (Ast.Tbase specs.sp_base)

and parse_cast_expr p : Ast.expr =
  if Token.equal_kind (curk p) Token.LParen && starts_typename_at p 1 then (
    let loc = curloc p in
    advance p;
    let ty = parse_typename p in
    expect p Token.RParen "')'";
    let e = parse_cast_expr p in
    { Ast.e = Ast.Ecast (ty, e); eloc = loc })
  else parse_unary p

and parse_unary p : Ast.expr =
  let loc = curloc p in
  match curk p with
  | Token.PlusPlus ->
      advance p;
      let e = parse_unary p in
      { Ast.e = Ast.Epreincr e; eloc = loc }
  | Token.MinusMinus ->
      advance p;
      let e = parse_unary p in
      { Ast.e = Ast.Epredecr e; eloc = loc }
  | Token.Amp ->
      advance p;
      let e = parse_cast_expr p in
      { Ast.e = Ast.Eaddr e; eloc = loc }
  | Token.Star ->
      advance p;
      let e = parse_cast_expr p in
      { Ast.e = Ast.Ederef e; eloc = loc }
  | Token.Plus ->
      advance p;
      parse_cast_expr p
  | Token.Minus ->
      advance p;
      let e = parse_cast_expr p in
      { Ast.e = Ast.Eunary (Ast.Uneg, e); eloc = loc }
  | Token.Tilde ->
      advance p;
      let e = parse_cast_expr p in
      { Ast.e = Ast.Eunary (Ast.Ubnot, e); eloc = loc }
  | Token.Bang ->
      advance p;
      let e = parse_cast_expr p in
      { Ast.e = Ast.Eunary (Ast.Unot, e); eloc = loc }
  | Token.KwSizeof ->
      advance p;
      if Token.equal_kind (curk p) Token.LParen && starts_typename_at p 1 then (
        advance p;
        let ty = parse_typename p in
        expect p Token.RParen "')'";
        { Ast.e = Ast.Esizeof_type ty; eloc = loc })
      else
        let e = parse_unary p in
        { Ast.e = Ast.Esizeof_expr e; eloc = loc }
  | _ -> parse_postfix p

and parse_postfix p : Ast.expr =
  let e = ref (parse_primary p) in
  let continue_ = ref true in
  while !continue_ do
    let loc = curloc p in
    match curk p with
    | Token.LParen ->
        advance p;
        let args = ref [] in
        if not (Token.equal_kind (curk p) Token.RParen) then begin
          let rec one () =
            args := parse_assignment p :: !args;
            if accept p Token.Comma then one ()
          in
          one ()
        end;
        expect p Token.RParen "')'";
        e := { Ast.e = Ast.Ecall (!e, List.rev !args); eloc = !e.Ast.eloc }
    | Token.LBracket ->
        advance p;
        let idx = parse_expr p in
        expect p Token.RBracket "']'";
        e := { Ast.e = Ast.Eindex (!e, idx); eloc = !e.Ast.eloc }
    | Token.Dot -> (
        advance p;
        match curk p with
        | Token.Ident f ->
            advance p;
            e := { Ast.e = Ast.Emember (!e, f); eloc = loc }
        | _ -> err p "expected field name after '.'")
    | Token.Arrow -> (
        advance p;
        match curk p with
        | Token.Ident f ->
            advance p;
            e := { Ast.e = Ast.Earrow (!e, f); eloc = loc }
        | _ -> err p "expected field name after '->'")
    | Token.PlusPlus ->
        advance p;
        e := { Ast.e = Ast.Epostincr !e; eloc = loc }
    | Token.MinusMinus ->
        advance p;
        e := { Ast.e = Ast.Epostdecr !e; eloc = loc }
    | _ -> continue_ := false
  done;
  !e

and parse_primary p : Ast.expr =
  let loc = curloc p in
  match curk p with
  | Token.IntLit (v, s) ->
      advance p;
      { Ast.e = Ast.Eint (v, s); eloc = loc }
  | Token.CharLit c ->
      advance p;
      { Ast.e = Ast.Echar c; eloc = loc }
  | Token.FloatLit (v, s) ->
      advance p;
      { Ast.e = Ast.Efloat (v, s); eloc = loc }
  | Token.StringLit s ->
      advance p;
      (* adjacent string literal concatenation *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match curk p with
        | Token.StringLit s2 ->
            advance p;
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      { Ast.e = Ast.Estring (Buffer.contents buf); eloc = loc }
  | Token.Ident s ->
      advance p;
      { Ast.e = Ast.Eident s; eloc = loc }
  | Token.LParen ->
      advance p;
      let e = parse_expr p in
      expect p Token.RParen "')'";
      e
  | k -> err p "expected expression, got %s" (Token.describe k)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_stmt p : Ast.stmt =
  let loc = curloc p in
  match curk p with
  | Token.LBrace -> parse_block p
  | Token.Semi ->
      advance p;
      { Ast.s = Ast.Sskip; sloc = loc }
  | Token.KwIf ->
      advance p;
      expect p Token.LParen "'('";
      let c = parse_expr p in
      expect p Token.RParen "')'";
      let then_ = parse_stmt p in
      let else_ = if accept p Token.KwElse then Some (parse_stmt p) else None in
      { Ast.s = Ast.Sif (c, then_, else_); sloc = loc }
  | Token.KwWhile ->
      advance p;
      expect p Token.LParen "'('";
      let c = parse_expr p in
      expect p Token.RParen "')'";
      let body = parse_stmt p in
      { Ast.s = Ast.Swhile (c, body); sloc = loc }
  | Token.KwDo ->
      advance p;
      let body = parse_stmt p in
      expect p Token.KwWhile "'while'";
      expect p Token.LParen "'('";
      let c = parse_expr p in
      expect p Token.RParen "')'";
      expect p Token.Semi "';'";
      { Ast.s = Ast.Sdo (body, c); sloc = loc }
  | Token.KwFor ->
      advance p;
      expect p Token.LParen "'('";
      let init =
        if Token.equal_kind (curk p) Token.Semi then (
          advance p;
          None)
        else if starts_decl p then Some (parse_decl_stmt p)
        else
          let e = parse_expr p in
          expect p Token.Semi "';'";
          Some { Ast.s = Ast.Sexpr e; sloc = e.Ast.eloc }
      in
      let cond =
        if Token.equal_kind (curk p) Token.Semi then None else Some (parse_expr p)
      in
      expect p Token.Semi "';'";
      let step =
        if Token.equal_kind (curk p) Token.RParen then None
        else Some (parse_expr p)
      in
      expect p Token.RParen "')'";
      let body = parse_stmt p in
      { Ast.s = Ast.Sfor (init, cond, step, body); sloc = loc }
  | Token.KwReturn ->
      advance p;
      let e =
        if Token.equal_kind (curk p) Token.Semi then None else Some (parse_expr p)
      in
      expect p Token.Semi "';'";
      { Ast.s = Ast.Sreturn e; sloc = loc }
  | Token.KwBreak ->
      advance p;
      expect p Token.Semi "';'";
      { Ast.s = Ast.Sbreak; sloc = loc }
  | Token.KwContinue ->
      advance p;
      expect p Token.Semi "';'";
      { Ast.s = Ast.Scontinue; sloc = loc }
  | Token.KwSwitch ->
      advance p;
      expect p Token.LParen "'('";
      let e = parse_expr p in
      expect p Token.RParen "')'";
      let body = parse_stmt p in
      { Ast.s = Ast.Sswitch (e, body); sloc = loc }
  | Token.KwCase ->
      advance p;
      let e = parse_conditional p in
      expect p Token.Colon "':'";
      let s = parse_stmt p in
      { Ast.s = Ast.Scase (e, s); sloc = loc }
  | Token.KwDefault ->
      advance p;
      expect p Token.Colon "':'";
      let s = parse_stmt p in
      { Ast.s = Ast.Sdefault s; sloc = loc }
  | Token.KwGoto -> (
      advance p;
      match curk p with
      | Token.Ident l ->
          advance p;
          expect p Token.Semi "';'";
          { Ast.s = Ast.Sgoto l; sloc = loc }
      | _ -> err p "expected label after 'goto'")
  | Token.Ident l when Token.equal_kind (lak p 1) Token.Colon ->
      advance p;
      advance p;
      let s = parse_stmt p in
      { Ast.s = Ast.Slabel (l, s); sloc = loc }
  | Token.Annot _ when not (starts_decl p) ->
      (* free-standing annotation: suppression or control pragma *)
      (match take_annot p with Some a -> record_pragma p a | None -> ());
      if
        Token.equal_kind (curk p) Token.RBrace
        || Token.equal_kind (curk p) Token.Eof
      then { Ast.s = Ast.Sskip; sloc = loc }
      else parse_stmt p
  | _ when starts_decl p -> parse_decl_stmt p
  | _ ->
      let e = parse_expr p in
      expect p Token.Semi "';'";
      (* recognize assert(e) as a guard-refining statement *)
      let s =
        match e.Ast.e with
        | Ast.Ecall ({ Ast.e = Ast.Eident "assert"; _ }, [ arg ]) ->
            Ast.Sassert arg
        | _ -> Ast.Sexpr e
      in
      { Ast.s; sloc = loc }

and parse_block p : Ast.stmt =
  let loc = curloc p in
  expect p Token.LBrace "'{'";
  let stmts = ref [] in
  while not (Token.equal_kind (curk p) Token.RBrace) do
    if Token.equal_kind (curk p) Token.Eof then err p "unexpected end of file in block";
    stmts := parse_stmt p :: !stmts
  done;
  expect p Token.RBrace "'}'";
  { Ast.s = Ast.Sblock (List.rev !stmts); sloc = loc }

and parse_initializer p : Ast.init =
  if Token.equal_kind (curk p) Token.LBrace then (
    advance p;
    let items = ref [] in
    if not (Token.equal_kind (curk p) Token.RBrace) then begin
      let rec one () =
        items := parse_initializer p :: !items;
        if accept p Token.Comma then
          if not (Token.equal_kind (curk p) Token.RBrace) then one ()
      in
      one ()
    end;
    expect p Token.RBrace "'}'";
    Ast.Ilist (List.rev !items))
  else Ast.Iexpr (parse_assignment p)

(** Parse a declaration statement (local or top-level declaration line),
    including the trailing semicolon.  Registers typedef names. *)
and parse_decl_stmt p : Ast.stmt =
  let loc = curloc p in
  let decls = parse_declaration_line p in
  { Ast.s = Ast.Sdecl decls; sloc = loc }

and parse_declaration_line p : Ast.decl list =
  let annots0 = collect_annots p [] in
  let specs = parse_specifiers p ~annots0 ~allow_storage:true in
  (* struct/union/enum definition with no declarators: "struct s {...};" *)
  if Token.equal_kind (curk p) Token.Semi then (
    advance p;
    [
      {
        Ast.d_name = "";
        d_ty = Ast.Tbase specs.sp_base;
        d_annots = specs.sp_annots;
        d_storage = specs.sp_storage;
        d_init = None;
        d_loc = specs.sp_loc;
      };
    ])
  else
    let decls = ref [] in
    let rec one () =
      let annots_pre = collect_annots p [] in
      let loc = curloc p in
      let name, wrap = parse_declarator p in
      let name =
        match name with Some n -> n | None -> err p "expected declarator name"
      in
      let annots_post = collect_annots p [] in
      let init =
        if accept p Token.Assign then Some (parse_initializer p) else None
      in
      if specs.sp_storage = Ast.Stypedef then Hashtbl.replace p.typedefs name ();
      decls :=
        {
          Ast.d_name = name;
          d_ty = wrap (Ast.Tbase specs.sp_base);
          d_annots = specs.sp_annots @ annots_pre @ annots_post;
          d_storage = specs.sp_storage;
          d_init = init;
          d_loc = loc;
        }
        :: !decls;
      if accept p Token.Comma then one ()
    in
    one ();
    expect p Token.Semi "';'";
    List.rev !decls

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(** Parse one external declaration: a function definition or a declaration
    line. *)
let parse_topdecl p : Ast.topdecl =
  let annots0 = collect_annots p [] in
  let specs = parse_specifiers p ~annots0 ~allow_storage:true in
  if Token.equal_kind (curk p) Token.Semi then (
    advance p;
    Ast.Tdecl
      [
        {
          Ast.d_name = "";
          d_ty = Ast.Tbase specs.sp_base;
          d_annots = specs.sp_annots;
          d_storage = specs.sp_storage;
          d_init = None;
          d_loc = specs.sp_loc;
        };
      ])
  else
    let annots_pre = collect_annots p [] in
    let dloc = curloc p in
    let name, wrap = parse_declarator p in
    let name =
      match name with Some n -> n | None -> err p "expected declarator name"
    in
    let full_ty = wrap (Ast.Tbase specs.sp_base) in
    (* collect post-signature annotations: globals/modifies lists and
       pragmas *)
    let globals = ref [] in
    let modifies = ref None in
    let post_annots = ref [] in
    let rec post () =
      match curk p with
      | Token.Annot text when String.length text >= 7 && String.sub text 0 7 = "globals"
        ->
          let a = Option.get (take_annot p) in
          globals := !globals @ parse_globals_list a;
          post ()
      | Token.Annot text when String.length text >= 8 && String.sub text 0 8 = "modifies"
        ->
          let a = Option.get (take_annot p) in
          let body =
            String.sub a.Ast.a_text 8 (String.length a.Ast.a_text - 8)
          in
          let names =
            String.split_on_char ' '
              (String.map
                 (function ';' | ',' | '\n' | '\t' -> ' ' | c -> c)
                 body)
            |> List.filter (fun w -> w <> "")
            |> List.filter (fun w -> w <> "nothing")
          in
          modifies :=
            Some (match !modifies with Some ms -> ms @ names | None -> names);
          post ()
      | Token.Annot _ ->
          (match take_annot p with
          | Some a -> post_annots := a :: !post_annots
          | None -> ());
          post ()
      | _ -> ()
    in
    post ();
    match (curk p, full_ty) with
    | Token.LBrace, Ast.Tfunc ft ->
        let body = parse_block p in
        Ast.Tfundef
          {
            Ast.f_name = name;
            f_ret = ft.ft_ret;
            f_ret_annots = specs.sp_annots @ annots_pre @ List.rev !post_annots;
            f_params = ft.ft_params;
            f_varargs = ft.ft_varargs;
            f_globals = !globals;
            f_modifies = !modifies;
            f_body = body;
            f_storage = specs.sp_storage;
            f_loc = dloc;
          }
    | Token.LBrace, _ -> err p "unexpected '{' after non-function declarator"
    | _ ->
        (* declaration line: first declarator already parsed *)
        let init =
          if accept p Token.Assign then Some (parse_initializer p) else None
        in
        if specs.sp_storage = Ast.Stypedef then Hashtbl.replace p.typedefs name ();
        let first =
          {
            Ast.d_name = name;
            d_ty = full_ty;
            d_annots = specs.sp_annots @ annots_pre @ List.rev !post_annots;
            d_storage = specs.sp_storage;
            d_init = init;
            d_loc = dloc;
          }
        in
        let decls = ref [ first ] in
        while accept p Token.Comma do
          let annots_pre = collect_annots p [] in
          let loc = curloc p in
          let name, wrap = parse_declarator p in
          let name =
            match name with
            | Some n -> n
            | None -> err p "expected declarator name"
          in
          let annots_post = collect_annots p [] in
          let init =
            if accept p Token.Assign then Some (parse_initializer p) else None
          in
          if specs.sp_storage = Ast.Stypedef then
            Hashtbl.replace p.typedefs name ();
          decls :=
            {
              Ast.d_name = name;
              d_ty = wrap (Ast.Tbase specs.sp_base);
              d_annots = specs.sp_annots @ annots_pre @ annots_post;
              d_storage = specs.sp_storage;
              d_init = init;
              d_loc = loc;
            }
            :: !decls
        done;
        expect p Token.Semi "';'";
        Ast.Tdecl (List.rev !decls)

(** Parse a whole translation unit. *)
let parse_tunit p : Ast.tunit =
  let decls = ref [] in
  let rec go () =
    match curk p with
    | Token.Eof -> ()
    | Token.Annot _ when not (starts_decl p) ->
        (match take_annot p with Some a -> record_pragma p a | None -> ());
        go ()
    | Token.Semi ->
        advance p;
        go ()
    | _ ->
        decls := parse_topdecl p :: !decls;
        go ()
  in
  go ();
  {
    Ast.tu_file = p.file;
    tu_decls = List.rev !decls;
    tu_pragmas = List.rev p.pragmas;
  }

(** Convenience entry point: lex and parse a source string.
    [typedefs] seeds the typedef table (used when checking a module against
    previously loaded interface libraries). *)
let parse_string ?(spec_mode = false) ?(typedefs = []) ~file src : Ast.tunit
    =
  let lx = Lexer.create ~file src in
  let parse next =
    let p = of_pull ~spec_mode ~file next in
    List.iter (fun n -> Hashtbl.replace p.typedefs n ()) typedefs;
    parse_tunit p
  in
  if not (Telemetry.enabled ()) then parse (fun () -> Lexer.next lx)
  else begin
    (* Lexing happens inside the parse, one token at a time: time each
       pull and report the sum as the lex phase, the rest as parse. *)
    let lex_secs = ref 0. and tokens = ref 0 in
    let next () =
      let t0 = Telemetry.now () in
      let t = Lexer.next lx in
      lex_secs := !lex_secs +. (Telemetry.now () -. t0);
      incr tokens;
      t
    in
    let t0 = Telemetry.now () in
    let record () =
      let secs = Telemetry.now () -. t0 in
      Telemetry.record_span ~file Telemetry.phase_lex !lex_secs;
      Telemetry.Counter.add Telemetry.c_tokens !tokens;
      Telemetry.record_span ~file Telemetry.phase_parse (secs -. !lex_secs)
    in
    let tu = Fun.protect ~finally:record (fun () -> parse next) in
    Telemetry.Counter.add Telemetry.c_ast_nodes (Ast.size_tunit tu);
    tu
  end

(** Parse an LCL-style specification file: like {!parse_string} but with
    bare-word annotations enabled, matching the paper's notation
    ("null out only void *malloc (size_t size);"). *)
let parse_spec_string ?(typedefs = []) ~file src : Ast.tunit =
  parse_string ~spec_mode:true ~typedefs ~file src
