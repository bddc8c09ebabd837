(** Tokens of the C subset.  Annotation comments ([/*@...@*/]) are part of
    the token stream because they act as declaration qualifiers (paper,
    Section 4). *)

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
  | Annot of string  (** raw text between [/*@] and [@*/] *)
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

val equal_kind : kind -> kind -> bool

type t = { kind : kind; loc : Loc.t }

val keyword_table : (string * kind) list
val keyword_of_string : string -> kind option

val describe : kind -> string
(** Human-readable rendering for parse-error messages. *)
