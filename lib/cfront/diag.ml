(** Diagnostics.

    LCLint messages have a two-part shape (paper, Section 4, footnote 3): a
    primary line explaining the anomaly and where it is detected, followed by
    indented note lines pointing at contributing program points, e.g.

    {v
    sample.c:6: Function returns with non-null global gname referencing
        null storage
       sample.c:5: Storage gname may become null
    v}

    This module defines that structure plus a sink for collecting
    diagnostics during a run. *)

type severity =
  | Err  (** anomaly that almost certainly indicates a bug *)
  | Warn  (** anomaly that may be benign *)
  | Info  (** informational (e.g. parse recovery notes) *)

(** Indented secondary line attached to a diagnostic. *)
type note = { nloc : Loc.t; ntext : string }

type t = {
  loc : Loc.t;
  severity : severity;
  code : string;
      (** stable machine-readable identifier, e.g. ["nullret"], ["mustfree"];
          used by tests, by suppression accounting and by the flag system *)
  text : string;
  notes : note list;
  proc : string option;
      (** the procedure whose check produced the message, when known *)
  inferred : bool;
      (** the check that produced the message consulted at least one
          inference-synthesized annotation (so the message depends on an
          inferred, not declared, interface) *)
}

let note ~loc text = { nloc = loc; ntext = text }

let make ?(severity = Err) ?(notes = []) ?proc ?(inferred = false) ~loc ~code
    text =
  { loc; severity; code; text; notes; proc; inferred }

let severity_string = function
  | Err -> "error"
  | Warn -> "warning"
  | Info -> "info"

(* ------------------------------------------------------------------ *)
(* Categories                                                          *)
(* ------------------------------------------------------------------ *)

(** Map a stable diagnostic code to its anomaly category — the grouping
    the paper's Section 6 iteration reports counts by (null, definition,
    allocation, aliasing), extended with the process checks (modifies
    clauses, suppression accounting) and the frontend's own messages. *)
let category_of_code = function
  | "nullderef" | "nullpass" | "nullret" | "nullderive" | "globnull"
  | "nullassign" ->
      "null"
  | "usedef" | "compdef" | "mustdefine" -> "definition"
  | "mustfree" | "onlytrans" | "usereleased" | "branchstate" | "globstate"
  | "compdestroy" | "freeoffset" | "freestatic" | "kepttrans" | "refcount"
  | "escapefree" | "summaryclash" ->
      "allocation"
  | "aliasunique" | "modobserver" -> "alias"
  | "modifies" | "noret" | "goto" | "call" | "suppress" -> "process"
  | "lex" | "parse" | "ident" | "type" | "decl" | "annot" -> "frontend"
  | _ -> "other"

let category d = category_of_code d.code

(* ------------------------------------------------------------------ *)
(* JSON records                                                        *)
(* ------------------------------------------------------------------ *)

(** The machine-readable record emitted by [olclint -json]
    (see docs/diagnostics.md for the schema). *)
let to_json ?(suppressed = false) d =
  let module J = Telemetry.Json in
  let loc_fields (l : Loc.t) =
    [
      ("file", J.String l.Loc.file);
      ("line", J.Int l.Loc.line);
      ("column", J.Int l.Loc.col);
    ]
  in
  J.Obj
    (loc_fields d.loc
    @ [
        ("severity", J.String (severity_string d.severity));
        ("category", J.String (category d));
        ("code", J.String d.code);
        ("message", J.String d.text);
        ("suppressed", J.Bool suppressed);
      ]
    @ (match d.proc with
      | Some p -> [ ("procedure", J.String p) ]
      | None -> [])
    @ [
        ("inferred", J.Bool d.inferred);
        ( "notes",
          J.List
            (List.map
               (fun n ->
                 J.Obj (loc_fields n.nloc @ [ ("message", J.String n.ntext) ]))
               d.notes) );
      ])

(** Faithful inverse of {!to_json}, used by the incremental service to
    persist per-function summaries.  The derived fields ([category],
    [suppressed]) are ignored on input — they are recomputed. *)
let of_json j =
  let module J = Telemetry.Json in
  let ( let* ) r f = Result.bind r f in
  let str k o =
    match Option.bind (J.member k o) J.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "diagnostic record: missing %S" k)
  in
  let int k o =
    match Option.bind (J.member k o) J.to_int_opt with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "diagnostic record: missing %S" k)
  in
  let loc_of o =
    let* file = str "file" o in
    let* line = int "line" o in
    let* col = int "column" o in
    Ok { Loc.file; line; col }
  in
  let* loc = loc_of j in
  let* sev =
    match str "severity" j with
    | Ok "error" -> Ok Err
    | Ok "warning" -> Ok Warn
    | Ok "info" -> Ok Info
    | Ok s -> Error (Printf.sprintf "diagnostic record: bad severity %S" s)
    | Error _ as e -> e
  in
  let* code = str "code" j in
  let* text = str "message" j in
  let proc = Option.bind (J.member "procedure" j) J.to_string_opt in
  let inferred =
    match J.member "inferred" j with Some (J.Bool b) -> b | _ -> false
  in
  let* notes =
    match J.member "notes" j with
    | Some (J.List ns) ->
        List.fold_left
          (fun acc n ->
            let* acc = acc in
            let* nloc = loc_of n in
            let* ntext = str "message" n in
            Ok ({ nloc; ntext } :: acc))
          (Ok []) ns
        |> Result.map List.rev
    | _ -> Ok []
  in
  Ok { loc; severity = sev; code; text; notes; proc; inferred }

(** Render one diagnostic in the paper's style. *)
let pp ppf d =
  Fmt.pf ppf "%a: %s" Loc.pp d.loc d.text;
  List.iter (fun n -> Fmt.pf ppf "@\n   %a: %s" Loc.pp n.nloc n.ntext) d.notes

let to_string d = Fmt.str "%a" pp d

(** A collector accumulates diagnostics in source order of emission. *)
module Collector = struct
  type diag = t

  type t = { mutable rev : diag list }

  let create () = { rev = [] }

  let emit c d =
    c.rev <- d :: c.rev;
    Telemetry.count (Telemetry.diag_counter_prefix ^ category d) 1

  let all c = List.rev c.rev

  let sort_emission ds =
    List.stable_sort
      (fun a b ->
        match Loc.compare a.loc b.loc with
        | 0 -> String.compare a.code b.code
        | c -> c)
      ds
end

exception Fatal of t
(** Raised for unrecoverable conditions (e.g. lexer errors the parser cannot
    resume from). *)

let fatal ?(notes = []) ~loc ~code fmt =
  Fmt.kstr (fun text -> raise (Fatal (make ~notes ~loc ~code text))) fmt
