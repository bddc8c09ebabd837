(** Message suppression via stylized comments.

    "Since spurious messages can be suppressed locally by placing stylized
    comments around the code that produces the message, this unsoundness
    has rarely been a serious problem in practice" (Section 2).  Section 7
    reports 75 suppression sites in LCLint's own source.

    Two forms are supported:
    - [/*@i@*/] suppresses all messages on the same source line;
    - [/*@ignore@*/] ... [/*@end@*/] suppresses all messages in the
      enclosed region of the same file. *)

open Cfront

type region = { r_file : string; r_from : int; r_to : int }

type t = {
  lines : (string * int) list;  (** (file, line) suppressed *)
  regions : region list;
}

(** Build the suppression table from the free-standing annotation comments
    collected by the parser.  Unmatched [ignore]/[end] pairs are reported
    via the returned diagnostics. *)
let of_pragmas (pragmas : Ast.annot list) : t * Diag.t list =
  let errs = ref [] in
  let lines = ref [] in
  let regions = ref [] in
  let open_regions = ref [] in
  List.iter
    (fun (a : Ast.annot) ->
      match String.trim a.a_text with
      | "i" -> lines := (a.a_loc.Loc.file, a.a_loc.Loc.line) :: !lines
      | "ignore" -> open_regions := a.a_loc :: !open_regions
      | "end" -> (
          match !open_regions with
          | start :: rest ->
              open_regions := rest;
              regions :=
                {
                  r_file = start.Loc.file;
                  r_from = start.Loc.line;
                  r_to = a.a_loc.Loc.line;
                }
                :: !regions
          | [] ->
              errs :=
                Diag.make ~loc:a.a_loc ~code:"suppress"
                  "end comment without a matching ignore"
                :: !errs)
      | _ -> ())
    pragmas;
  List.iter
    (fun loc ->
      errs :=
        Diag.make ~loc ~code:"suppress" "unclosed ignore comment" :: !errs)
    !open_regions;
  ({ lines = !lines; regions = !regions }, List.rev !errs)

let suppresses (t : t) (loc : Loc.t) : bool =
  List.mem (loc.Loc.file, loc.Loc.line) t.lines
  || List.exists
       (fun r ->
         r.r_file = loc.Loc.file && loc.Loc.line >= r.r_from
         && loc.Loc.line <= r.r_to)
       t.regions

(** Partition diagnostics into (kept, suppressed).  Suppressed messages
    are counted under the [suppressed_total] telemetry counter so they
    appear in [-stats] instead of vanishing from the summary. *)
let filter (t : t) (diags : Diag.t list) : Diag.t list * Diag.t list =
  let kept, suppressed =
    List.partition (fun (d : Diag.t) -> not (suppresses t d.Diag.loc)) diags
  in
  Telemetry.Counter.add Telemetry.c_suppressed (List.length suppressed);
  (kept, suppressed)
