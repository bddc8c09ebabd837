(** The static half of the differential oracle's error-class mapping.

    The run-time baseline names what it observes with
    [Rtcheck.Heap.error_class]; this module says which static diagnostic
    codes witness each of those classes, so the oracle can decide whether
    a dynamically observed error was "seen" statically.  The mapping is
    deliberately coarse — per file, per class — because the two tools
    report at different program points (the checker flags the anomaly in
    the source, the heap flags the access that trips on it).

    The vocabulary is shared with [Rtcheck.Heap]; test_difftest.ml pins
    the two sides against each other.  Codes map to *lists* of classes
    because one static code can witness several run-time manifestations:
    [usereleased] covers both a use after free and a double free (the
    second [free] is itself a use of released storage). *)

(** The run-time classes a kept diagnostic with this code witnesses.
    The run-time classes "bounds" and "bad-arg" have no static
    witnesses: the Section-2 analysis does not track array bounds, and
    bad-argument errors are interpreter-level typing complaints. *)
let of_code = function
  | "nullderef" | "nullpass" | "nullret" | "nullderive" | "globnull" ->
      [ "null-deref" ]
  | "usedef" | "compdef" -> [ "use-undef" ]
  | "usereleased" -> [ "use-after-free"; "double-free" ]
  | "escapefree" ->
      (* releasing storage a summarized callee stored away: the stashed
         reference dangles (a later use trips it) and a second release
         through it is a double free *)
      [ "use-after-free"; "double-free" ]
  | "freeoffset" -> [ "free-offset" ]
  | "freestatic" -> [ "free-static" ]
  | "mustfree" | "onlytrans" | "branchstate" | "globstate" | "compdestroy"
  | "refcount" | "realloclost" ->
      [ "leak" ]
  | _ -> []

(** Does any kept diagnostic in [reports] witness run-time class [cls]
    in file [file]? *)
let witnessed ~(file : string) ~(cls : string) (reports : Cfront.Diag.t list) =
  List.exists
    (fun (d : Cfront.Diag.t) ->
      d.Cfront.Diag.loc.Cfront.Loc.file = file
      && List.mem cls (of_code d.Cfront.Diag.code))
    reports
