(** Minimal JSON encoder/decoder (see json.mli for the contract). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* A float rendering that always re-reads as a JSON number: force a
   decimal point or exponent so "1." style OCaml output never leaks, and
   map the non-finite values (no JSON spelling) to null. *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else
    let s = Printf.sprintf "%.17g" f in
    let s =
      (* shortest representation that still round-trips *)
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s
    in
    Buffer.add_string buf s

let rec to_buffer buf (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else add_float buf f
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

type parser_state = { src : string; mutable pos : int }

let fail p msg = raise (Parse_error (p.pos, msg))

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let skip_ws p =
  while
    p.pos < String.length p.src
    && match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected '%c'" c)

let literal p word (v : t) =
  let n = String.length word in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = word then begin
    p.pos <- p.pos + n;
    v
  end
  else fail p (Printf.sprintf "expected '%s'" word)

(* \uXXXX escapes decode to UTF-8 bytes, pairing surrogates. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 p =
  if p.pos + 4 > String.length p.src then fail p "truncated \\u escape";
  let s = String.sub p.src p.pos 4 in
  p.pos <- p.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail p "invalid \\u escape"

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> p.pos <- p.pos + 1
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | None -> fail p "unterminated escape"
        | Some c ->
            p.pos <- p.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let code = hex4 p in
                let code =
                  (* high surrogate: consume the paired \uXXXX low half *)
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    if
                      p.pos + 2 <= String.length p.src
                      && p.src.[p.pos] = '\\'
                      && p.src.[p.pos + 1] = 'u'
                    then begin
                      p.pos <- p.pos + 2;
                      let low = hex4 p in
                      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                    end
                    else fail p "unpaired surrogate"
                  end
                  else code
                in
                add_utf8 buf code
            | c -> fail p (Printf.sprintf "bad escape '\\%c'" c));
            go ())
    | Some c ->
        p.pos <- p.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    p.pos < String.length p.src && is_num_char p.src.[p.pos]
  do
    p.pos <- p.pos + 1
  done;
  let s = String.sub p.src start (p.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail p "invalid number")

let rec parse_value p : t =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> literal p "null" Null
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some '"' -> String (parse_string_body p)
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              items (v :: acc)
          | Some ']' ->
              p.pos <- p.pos + 1;
              List.rev (v :: acc)
          | _ -> fail p "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else
        let pair () =
          skip_ws p;
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          (k, v)
        in
        let rec members acc =
          let kv = pair () in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              members (kv :: acc)
          | Some '}' ->
              p.pos <- p.pos + 1;
              List.rev (kv :: acc)
          | _ -> fail p "expected ',' or '}'"
        in
        Obj (members [])
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing input at offset %d" p.pos)
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
