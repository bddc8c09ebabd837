(** Hand-written lexer for the C subset.

    Design notes:
    - Ordinary comments ([/* ... */] and [// ...]) are discarded.
    - Annotation comments ([/*@ ... @*/]) become {!Token.Annot} tokens; the
      checker and parser decide what to do with them depending on position
      (qualifier vs. message suppression).
    - Preprocessor lines (starting with [#]) are skipped wholesale; the
      corpus used in this reproduction is macro-free, mirroring LCLint's
      operation on preprocessed source.
    - Adjacent string literals are concatenated by the parser, not here. *)

type t = {
  src : string;
  file : string;
  mutable pos : int;  (** byte offset into [src] *)
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let create ~file src = { src; file; pos = 0; line = 1; bol = 0 }

let loc lx : Loc.t =
  { file = lx.file; line = lx.line; col = lx.pos - lx.bol + 1 }

let at_end lx = lx.pos >= String.length lx.src
let peek lx = if at_end lx then '\000' else lx.src.[lx.pos]

let peek2 lx =
  if lx.pos + 1 >= String.length lx.src then '\000' else lx.src.[lx.pos + 1]

let peek3 lx =
  if lx.pos + 2 >= String.length lx.src then '\000' else lx.src.[lx.pos + 2]

let advance lx =
  (if not (at_end lx) then
     let c = lx.src.[lx.pos] in
     lx.pos <- lx.pos + 1;
     if c = '\n' then (
       lx.line <- lx.line + 1;
       lx.bol <- lx.pos))

let error lx fmt = Diag.fatal ~loc:(loc lx) ~code:"lex" fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_oct_digit c = c >= '0' && c <= '7'

let skip_line lx =
  while (not (at_end lx)) && peek lx <> '\n' do
    advance lx
  done

(* Skip a block comment body; the opening /* has been consumed. *)
let skip_block_comment lx start_loc =
  let rec go () =
    if at_end lx then
      Diag.fatal ~loc:start_loc ~code:"lex" "unterminated comment"
    else if peek lx = '*' && peek2 lx = '/' then (
      advance lx;
      advance lx)
    else (
      advance lx;
      go ())
  in
  go ()

(* Read an annotation comment body; the opening /*@ has been consumed.
   Returns the raw text between /*@ and @*/ (or the closing */ if written
   without the @, which LCLint also accepted). *)
let read_annot lx start_loc =
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end lx then
      Diag.fatal ~loc:start_loc ~code:"lex" "unterminated annotation comment"
    else if peek lx = '@' && peek2 lx = '*' && peek3 lx = '/' then (
      advance lx; advance lx; advance lx)
    else if peek lx = '*' && peek2 lx = '/' then (
      advance lx; advance lx)
    else (
      Buffer.add_char buf (peek lx);
      advance lx;
      go ())
  in
  go ();
  String.trim (Buffer.contents buf)

let read_escape lx =
  (* backslash already consumed *)
  let c = peek lx in
  advance lx;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'v' -> '\011'
  | 'a' -> '\007'
  | '0' .. '7' ->
      let v = ref (Char.code c - Char.code '0') in
      let n = ref 1 in
      while !n < 3 && is_oct_digit (peek lx) do
        v := (!v * 8) + (Char.code (peek lx) - Char.code '0');
        advance lx;
        incr n
      done;
      Char.chr (!v land 0xff)
  | 'x' ->
      let v = ref 0 in
      if not (is_hex_digit (peek lx)) then
        error lx "invalid hex escape sequence";
      while is_hex_digit (peek lx) do
        let d = peek lx in
        let dv =
          if is_digit d then Char.code d - Char.code '0'
          else (Char.code (Char.lowercase_ascii d) - Char.code 'a') + 10
        in
        v := ((!v * 16) + dv) land 0xff;
        advance lx
      done;
      Char.chr !v
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | '?' -> '?'
  | c -> error lx "invalid escape sequence '\\%c'" c

let read_string lx start_loc =
  (* opening quote consumed *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end lx || peek lx = '\n' then
      Diag.fatal ~loc:start_loc ~code:"lex" "unterminated string literal"
    else
      match peek lx with
      | '"' -> advance lx
      | '\\' ->
          advance lx;
          Buffer.add_char buf (read_escape lx);
          go ()
      | c ->
          advance lx;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Buffer.contents buf

let read_char lx start_loc =
  (* opening quote consumed *)
  let c =
    match peek lx with
    | '\\' ->
        advance lx;
        read_escape lx
    | '\'' -> Diag.fatal ~loc:start_loc ~code:"lex" "empty character constant"
    | c ->
        advance lx;
        c
  in
  if peek lx <> '\'' then
    Diag.fatal ~loc:start_loc ~code:"lex" "unterminated character constant";
  advance lx;
  c

(* Numbers.  We keep the original spelling for diagnostics and accept the
   usual u/U/l/L suffixes (ignored for the value). *)
let read_number lx =
  let start = lx.pos in
  let is_float = ref false in
  if peek lx = '0' && (peek2 lx = 'x' || peek2 lx = 'X') then (
    advance lx;
    advance lx;
    while is_hex_digit (peek lx) do
      advance lx
    done)
  else (
    while is_digit (peek lx) do
      advance lx
    done;
    if peek lx = '.' && is_digit (peek2 lx) then (
      is_float := true;
      advance lx;
      while is_digit (peek lx) do
        advance lx
      done);
    if peek lx = 'e' || peek lx = 'E' then (
      is_float := true;
      advance lx;
      if peek lx = '+' || peek lx = '-' then advance lx;
      while is_digit (peek lx) do
        advance lx
      done));
  let core = String.sub lx.src start (lx.pos - start) in
  (* consume suffixes *)
  while
    match peek lx with 'u' | 'U' | 'l' | 'L' | 'f' | 'F' -> true | _ -> false
  do
    advance lx
  done;
  let spelling = String.sub lx.src start (lx.pos - start) in
  if !is_float then Token.FloatLit (float_of_string core, spelling)
  else
    match Int64.of_string_opt core with
    | Some v -> Token.IntLit (v, spelling)
    | None -> error lx "invalid integer constant '%s'" spelling

(* Whitespace and identifiers are scanned by index over the buffer, not
   through [peek]/[advance], which re-test the bounds and the newline for
   every byte.  [skip_blanks lx i] is the offset of the first non-blank
   byte from [i], counting the lines it passes. *)
let rec skip_blanks lx i =
  if i >= String.length lx.src then i
  else
    match String.unsafe_get lx.src i with
    | ' ' | '\t' | '\r' | '\012' -> skip_blanks lx (i + 1)
    | '\n' ->
        lx.line <- lx.line + 1;
        lx.bol <- i + 1;
        skip_blanks lx (i + 1)
    | _ -> i

(* The offset just past the identifier characters from [i] (an
   identifier holds no newline). *)
let rec ident_end src i =
  if i < String.length src && is_ident_char (String.unsafe_get src i) then
    ident_end src (i + 1)
  else i

(** Produce the next token.  Returns {!Token.Eof} at end of input. *)
let rec next lx : Token.t =
  let mk kind loc : Token.t = { kind; loc } in
  lx.pos <- skip_blanks lx lx.pos;
  let l = loc lx in
  if at_end lx then mk Eof l
  else
    let c = peek lx in
    match c with
    | '#' ->
        skip_line lx;
        next lx
    | '/' when peek2 lx = '/' ->
        skip_line lx;
        next lx
    | '/' when peek2 lx = '*' && peek3 lx = '@' ->
        advance lx; advance lx; advance lx;
        let text = read_annot lx l in
        mk (Annot text) l
    | '/' when peek2 lx = '*' ->
        advance lx;
        advance lx;
        skip_block_comment lx l;
        next lx
    | c when is_ident_start c ->
        let start = lx.pos in
        lx.pos <- ident_end lx.src (start + 1);
        let s = String.sub lx.src start (lx.pos - start) in
        let kind =
          match Token.keyword_of_string s with
          | Some kw -> kw
          | None -> Token.Ident s
        in
        mk kind l
    | c when is_digit c -> mk (read_number lx) l
    | '.' when is_digit (peek2 lx) -> mk (read_number lx) l
    | '"' ->
        advance lx;
        mk (StringLit (read_string lx l)) l
    | '\'' ->
        advance lx;
        mk (CharLit (read_char lx l)) l
    | _ -> mk (read_operator lx) l

and read_operator lx : Token.kind =
  let c = peek lx in
  advance lx;
  let c2 = peek lx in
  let two k : Token.kind =
    advance lx;
    k
  in
  match (c, c2) with
  | '(', _ -> LParen
  | ')', _ -> RParen
  | '{', _ -> LBrace
  | '}', _ -> RBrace
  | '[', _ -> LBracket
  | ']', _ -> RBracket
  | ';', _ -> Semi
  | ',', _ -> Comma
  | '?', _ -> Question
  | ':', _ -> Colon
  | '.', '.' when peek2 lx = '.' ->
      advance lx;
      advance lx;
      Ellipsis
  | '.', _ -> Dot
  | '-', '>' -> two Arrow
  | '-', '-' -> two MinusMinus
  | '-', '=' -> two MinusAssign
  | '-', _ -> Minus
  | '+', '+' -> two PlusPlus
  | '+', '=' -> two PlusAssign
  | '+', _ -> Plus
  | '&', '&' -> two AmpAmp
  | '&', '=' -> two AmpAssign
  | '&', _ -> Amp
  | '|', '|' -> two PipePipe
  | '|', '=' -> two PipeAssign
  | '|', _ -> Pipe
  | '*', '=' -> two StarAssign
  | '*', _ -> Star
  | '/', '=' -> two SlashAssign
  | '/', _ -> Slash
  | '%', '=' -> two PercentAssign
  | '%', _ -> Percent
  | '^', '=' -> two CaretAssign
  | '^', _ -> Caret
  | '~', _ -> Tilde
  | '!', '=' -> two BangEq
  | '!', _ -> Bang
  | '=', '=' -> two EqEq
  | '=', _ -> Assign
  | '<', '<' ->
      advance lx;
      if peek lx = '=' then (
        advance lx;
        LShiftAssign)
      else LShift
  | '<', '=' -> two Le
  | '<', _ -> Lt
  | '>', '>' ->
      advance lx;
      if peek lx = '=' then (
        advance lx;
        RShiftAssign)
      else RShift
  | '>', '=' -> two Ge
  | '>', _ -> Gt
  | c, _ ->
      lx.pos <- lx.pos - 1;
      error lx "unexpected character '%c' (0x%02x)" c (Char.code c)

(** Tokenize the whole input.  The result always ends with an [Eof] token. *)
let tokenize ~file src : Token.t list =
  Telemetry.with_span ~file Telemetry.phase_lex (fun () ->
      let lx = create ~file src in
      let rec go acc n =
        let t = next lx in
        match t.kind with
        | Eof ->
            Telemetry.Counter.add Telemetry.c_tokens (n + 1);
            List.rev (t :: acc)
        | _ -> go (t :: acc) (n + 1)
      in
      go [] 0)
