(** Tokens of the C subset.

    Annotation comments ([/*@ ... @*/]) are part of the token stream because
    they act as declaration qualifiers (paper, Section 4: "annotations are
    syntactically similar to C type qualifiers").  Ordinary comments are
    skipped by the lexer. *)

type kind =
  (* keywords *)
  | KwAuto | KwBreak | KwCase | KwChar | KwConst | KwContinue | KwDefault
  | KwDo | KwDouble | KwElse | KwEnum | KwExtern | KwFloat | KwFor | KwGoto
  | KwIf | KwInt | KwLong | KwRegister | KwReturn | KwShort | KwSigned
  | KwSizeof | KwStatic | KwStruct | KwSwitch | KwTypedef | KwUnion
  | KwUnsigned | KwVoid | KwVolatile | KwWhile
  (* literals and names *)
  | Ident of string
  | IntLit of int64 * string  (** value, original spelling *)
  | CharLit of char
  | StringLit of string
  | FloatLit of float * string
  (* annotation comment: raw text between [/*@] and [@*/] *)
  | Annot of string
  (* punctuation and operators *)
  | LParen | RParen | LBrace | RBrace | LBracket | RBracket
  | Semi | Comma | Colon | Question | Ellipsis
  | Dot | Arrow
  | PlusPlus | MinusMinus
  | Amp | Star | Plus | Minus | Tilde | Bang
  | Slash | Percent
  | LShift | RShift
  | Lt | Gt | Le | Ge | EqEq | BangEq
  | Caret | Pipe | AmpAmp | PipePipe
  | Assign
  | StarAssign | SlashAssign | PercentAssign | PlusAssign | MinusAssign
  | LShiftAssign | RShiftAssign | AmpAssign | CaretAssign | PipeAssign
  | Eof
[@@deriving eq, show]

type t = { kind : kind; loc : Loc.t } [@@deriving show]

let keyword_table : (string * kind) list =
  [
    ("auto", KwAuto); ("break", KwBreak); ("case", KwCase); ("char", KwChar);
    ("const", KwConst); ("continue", KwContinue); ("default", KwDefault);
    ("do", KwDo); ("double", KwDouble); ("else", KwElse); ("enum", KwEnum);
    ("extern", KwExtern); ("float", KwFloat); ("for", KwFor); ("goto", KwGoto);
    ("if", KwIf); ("int", KwInt); ("long", KwLong); ("register", KwRegister);
    ("return", KwReturn); ("short", KwShort); ("signed", KwSigned);
    ("sizeof", KwSizeof); ("static", KwStatic); ("struct", KwStruct);
    ("switch", KwSwitch); ("typedef", KwTypedef); ("union", KwUnion);
    ("unsigned", KwUnsigned); ("void", KwVoid); ("volatile", KwVolatile);
    ("while", KwWhile);
  ]

(* Built once: every identifier the lexer reads is looked up here. *)
module Spelling = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let keyword_kinds = Spelling.of_seq (List.to_seq keyword_table)

let keyword_spellings =
  Hashtbl.of_seq (Seq.map (fun (s, k) -> (k, s)) (List.to_seq keyword_table))

let keyword_of_string s = Spelling.find_opt keyword_kinds s

(** Human-readable rendering used in parse-error messages
    ("expected ';' before '}'" style). *)
let describe = function
  | Ident s -> Printf.sprintf "identifier '%s'" s
  | IntLit (_, s) -> Printf.sprintf "integer constant '%s'" s
  | CharLit c -> Printf.sprintf "character constant '%C'" c
  | StringLit _ -> "string literal"
  | FloatLit (_, s) -> Printf.sprintf "floating constant '%s'" s
  | Annot s -> Printf.sprintf "annotation '/*@%s@*/'" s
  | Eof -> "end of file"
  | LParen -> "'('" | RParen -> "')'" | LBrace -> "'{'" | RBrace -> "'}'"
  | LBracket -> "'['" | RBracket -> "']'"
  | Semi -> "';'" | Comma -> "','" | Colon -> "':'" | Question -> "'?'"
  | Ellipsis -> "'...'" | Dot -> "'.'" | Arrow -> "'->'"
  | PlusPlus -> "'++'" | MinusMinus -> "'--'"
  | Amp -> "'&'" | Star -> "'*'" | Plus -> "'+'" | Minus -> "'-'"
  | Tilde -> "'~'" | Bang -> "'!'" | Slash -> "'/'" | Percent -> "'%'"
  | LShift -> "'<<'" | RShift -> "'>>'"
  | Lt -> "'<'" | Gt -> "'>'" | Le -> "'<='" | Ge -> "'>='"
  | EqEq -> "'=='" | BangEq -> "'!='"
  | Caret -> "'^'" | Pipe -> "'|'" | AmpAmp -> "'&&'" | PipePipe -> "'||'"
  | Assign -> "'='"
  | StarAssign -> "'*='" | SlashAssign -> "'/='" | PercentAssign -> "'%='"
  | PlusAssign -> "'+='" | MinusAssign -> "'-='"
  | LShiftAssign -> "'<<='" | RShiftAssign -> "'>>='"
  | AmpAssign -> "'&='" | CaretAssign -> "'^='" | PipeAssign -> "'|='"
  | kw -> (
      match Hashtbl.find_opt keyword_spellings kw with
      | Some s -> Printf.sprintf "keyword '%s'" s
      | None -> "token")
