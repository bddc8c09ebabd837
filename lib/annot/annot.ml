(** The annotation language (paper, Section 4 and Appendix B).

    Annotations are grouped into categories; "at most one annotation in any
    category can be used on a given declaration" (Appendix B).  A parsed
    {!set} records at most one choice per category plus the boolean
    qualifiers that do not exclude each other. *)

module Flags = Flags
(** Re-exported so library clients can write [Annot.Flags]. *)

(** Null-pointer annotations (Appendix B, "Null Pointers"). *)
type null_annot =
  | Null  (** may have the value NULL *)
  | NotNull  (** not permitted to be NULL (the default; explicit form
                 overrides a [null] on the type definition) *)
  | RelNull  (** relaxed: assumed non-null when used, may be assigned NULL *)
[@@deriving eq]

(** Definition annotations (Appendix B, "Definition"). *)
type def_annot =
  | Out  (** referenced storage need not be defined *)
  | In  (** completely defined (the default) *)
  | Partial  (** partially defined; no errors on undefined fields *)
  | RelDef  (** relaxed definition checking *)
[@@deriving eq]

(** Allocation annotations (Appendix B, "Allocation"). *)
type alloc_annot =
  | Only  (** unshared storage; confers the obligation to release *)
  | Keep  (** like [only] but caller may still use the reference after the
              call (function parameters only) *)
  | Temp  (** temporary: callee may not release or create new external
              references (function parameters only) *)
  | Owned  (** owns storage possibly shared by [dependent] references *)
  | Dependent  (** shares storage owned by an [owned] reference *)
  | Shared  (** arbitrarily shared, never deallocated (GC use) *)
[@@deriving eq]

(** Exposure annotations (Appendix B, "Exposure"). *)
type expose_annot =
  | Observer  (** returned storage must not be modified or freed by caller *)
  | Exposed  (** exposed internal storage: may be modified, not freed *)
[@@deriving eq]

(** A parsed annotation set as attached to one declaration. *)
type set = {
  an_null : null_annot option;
  an_def : def_annot option;
  an_alloc : alloc_annot option;
  an_expose : expose_annot option;
  an_unique : bool;  (** parameter may not share storage with any other
                         parameter or accessible global *)
  an_returned : bool;  (** the return value may alias this parameter *)
  an_truenull : bool;  (** function returns true iff argument is null *)
  an_falsenull : bool;  (** function returns true only if argument non-null *)
  an_exits : bool;  (** function never returns (e.g. [exit]) *)
  an_undef : bool;  (** globals-list: global may be undefined at call *)
  an_killed : bool;  (** globals-list: global released by the call *)
  an_refcounted : bool;
      (** reference-counted storage (the extension the paper cites from
          the LCLint user's guide [3]) *)
  an_newref : bool;  (** result carries a new reference that must be
                         released with a [killref] consumer *)
  an_killref : bool;  (** parameter consumes one reference *)
  an_tempref : bool;  (** parameter uses the object without affecting the
                          count *)
  an_inferred : bool;
      (** provenance: set when any member of this set was synthesized by
          the annotation-inference pass rather than written by the
          programmer.  Never parsed from or rendered back to source
          ({!to_words} omits it); diagnostics use it to say "inferred,
          not declared". *)
}
[@@deriving eq]

let empty =
  {
    an_null = None;
    an_def = None;
    an_alloc = None;
    an_expose = None;
    an_unique = false;
    an_returned = false;
    an_truenull = false;
    an_falsenull = false;
    an_exits = false;
    an_undef = false;
    an_killed = false;
    an_refcounted = false;
    an_newref = false;
    an_killref = false;
    an_tempref = false;
    an_inferred = false;
  }

let is_empty s = equal_set s empty

let mark_inferred s = { s with an_inferred = true }
let is_inferred s = s.an_inferred

(** Result of parsing one annotation word. *)
type word =
  | Wnull of null_annot
  | Wdef of def_annot
  | Walloc of alloc_annot
  | Wexpose of expose_annot
  | Wunique
  | Wreturned
  | Wtruenull
  | Wfalsenull
  | Wexits
  | Wundef
  | Wkilled
  | Wrefcounted
  | Wnewref
  | Wkillref
  | Wtempref
  | Wignore  (** suppression pragma: start/whole-line *)
  | Wend  (** suppression pragma: end of ignore region *)
  | Wiline  (** [i] — suppress messages on this line *)
  | Winferred
      (** provenance marker written by interface-library dumps: the
          surrounding annotations were synthesized by inference *)
  | Wunknown of string

let word_of_string = function
  | "null" -> Wnull Null
  | "notnull" -> Wnull NotNull
  | "relnull" -> Wnull RelNull
  | "out" -> Wdef Out
  | "in" -> Wdef In
  | "partial" -> Wdef Partial
  | "reldef" -> Wdef RelDef
  | "only" -> Walloc Only
  | "keep" -> Walloc Keep
  | "temp" -> Walloc Temp
  | "owned" -> Walloc Owned
  | "dependent" -> Walloc Dependent
  | "shared" -> Walloc Shared
  | "observer" -> Wexpose Observer
  | "exposed" -> Wexpose Exposed
  | "unique" -> Wunique
  | "returned" -> Wreturned
  | "truenull" -> Wtruenull
  | "falsenull" -> Wfalsenull
  | "exits" | "noreturn" -> Wexits
  | "undef" -> Wundef
  | "killed" -> Wkilled
  | "refcounted" -> Wrefcounted
  | "newref" -> Wnewref
  | "killref" -> Wkillref
  | "tempref" -> Wtempref
  | "ignore" -> Wignore
  | "end" -> Wend
  | "i" -> Wiline
  | "inferred" -> Winferred
  | s -> Wunknown s

let split_words text =
  String.split_on_char ' '
    (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) text)
  |> List.filter (fun s -> s <> "")

(** Errors found while building a set: duplicate category, unknown word. *)
type parse_error = { pe_loc : Cfront.Loc.t; pe_text : string }

(** Interpret a list of raw annotation comments as a declaration's
    annotation set.  Later words must not conflict with earlier ones in the
    same category; conflicts and unknown words are reported via [errs]. *)
let of_annots (annots : Cfront.Ast.annot list) : set * parse_error list =
  let errs = ref [] in
  let err loc fmt =
    Fmt.kstr (fun text -> errs := { pe_loc = loc; pe_text = text } :: !errs) fmt
  in
  let result = ref empty in
  let set_cat name loc get put v =
    match get !result with
    | Some old when old <> v ->
        err loc "conflicting %s annotations on one declaration" name
    | Some _ -> ()
    | None -> result := put !result (Some v)
  in
  List.iter
    (fun (a : Cfront.Ast.annot) ->
      List.iter
        (fun w ->
          match word_of_string w with
          | Wnull n ->
              set_cat "null" a.a_loc
                (fun s -> s.an_null)
                (fun s v -> { s with an_null = v })
                n
          | Wdef d ->
              set_cat "definition" a.a_loc
                (fun s -> s.an_def)
                (fun s v -> { s with an_def = v })
                d
          | Walloc al ->
              set_cat "allocation" a.a_loc
                (fun s -> s.an_alloc)
                (fun s v -> { s with an_alloc = v })
                al
          | Wexpose e ->
              set_cat "exposure" a.a_loc
                (fun s -> s.an_expose)
                (fun s v -> { s with an_expose = v })
                e
          | Wunique -> result := { !result with an_unique = true }
          | Wreturned -> result := { !result with an_returned = true }
          | Wtruenull -> result := { !result with an_truenull = true }
          | Wfalsenull -> result := { !result with an_falsenull = true }
          | Wexits -> result := { !result with an_exits = true }
          | Wundef -> result := { !result with an_undef = true }
          | Wkilled -> result := { !result with an_killed = true }
          | Wrefcounted -> result := { !result with an_refcounted = true }
          | Wnewref -> result := { !result with an_newref = true }
          | Wkillref -> result := { !result with an_killref = true }
          | Wtempref -> result := { !result with an_tempref = true }
          | Winferred -> result := mark_inferred !result
          | Wignore | Wend | Wiline ->
              err a.a_loc
                "suppression comment '%s' used in qualifier position" w
          | Wunknown s -> err a.a_loc "unrecognized annotation '%s'" s)
        (split_words a.a_text))
    annots;
  (!result, List.rev !errs)

(** [override ~base ~decl] layers a declaration's annotations over those
    inherited from its type definition: per category, the declaration wins
    (paper, Section 4: "the type's null annotation may be overridden for
    specific declarations of the type using the notnull annotation"). *)
let override ~(base : set) ~(decl : set) : set =
  {
    an_null = (match decl.an_null with Some _ as v -> v | None -> base.an_null);
    an_def = (match decl.an_def with Some _ as v -> v | None -> base.an_def);
    an_alloc =
      (match decl.an_alloc with Some _ as v -> v | None -> base.an_alloc);
    an_expose =
      (match decl.an_expose with Some _ as v -> v | None -> base.an_expose);
    an_unique = decl.an_unique || base.an_unique;
    an_returned = decl.an_returned || base.an_returned;
    an_truenull = decl.an_truenull || base.an_truenull;
    an_falsenull = decl.an_falsenull || base.an_falsenull;
    an_exits = decl.an_exits || base.an_exits;
    an_undef = decl.an_undef || base.an_undef;
    an_killed = decl.an_killed || base.an_killed;
    an_refcounted = decl.an_refcounted || base.an_refcounted;
    an_newref = decl.an_newref || base.an_newref;
    an_killref = decl.an_killref || base.an_killref;
    an_tempref = decl.an_tempref || base.an_tempref;
    an_inferred = decl.an_inferred || base.an_inferred;
  }

(** Incompatible combinations across categories (paper: "certain
    combinations of annotations are incompatible and will produce static
    errors").  Returns a description of the first conflict found. *)
let check_compat (s : set) : string option =
  if s.an_truenull && s.an_falsenull then
    Some "truenull and falsenull are incompatible"
  else if s.an_killref && s.an_tempref then
    Some "killref and tempref are incompatible"
  else if
    (s.an_newref || s.an_killref || s.an_tempref) && s.an_alloc <> None
  then Some "reference-count annotations exclude allocation annotations"
  else
    match (s.an_alloc, s.an_expose) with
    | Some Only, Some Observer ->
        Some "only and observer are incompatible (observer storage may not \
              be released by the caller)"
    | Some Temp, Some Exposed ->
        Some "temp and exposed are incompatible"
    | _ -> (
        match (s.an_alloc, s.an_def) with
        | Some Shared, Some Out ->
            Some "shared storage may not be undefined (shared + out)"
        | _ -> None)

(** The declaration slot an annotation set is attached to, for the
    slot-sensitive validity rules: the reference-count words are
    directional ([newref] describes a result, [killref]/[tempref] describe
    parameters), so the right combination on the wrong slot is an error
    [check_compat] cannot see. *)
type slot =
  | Sparam of string  (** a parameter, by name *)
  | Sreturn of string  (** the return value of the named function *)

(** Slot-sensitive validity: rejects [newref] on a parameter and
    [killref]/[tempref] on a return slot, naming the slot in the
    message.  Complements {!check_compat}, which only sees the set. *)
let validate ~(slot : slot) (s : set) : string option =
  match slot with
  | Sparam pname ->
      if s.an_newref then
        Some
          (Printf.sprintf
             "newref declared on parameter %s: newref describes a returned \
              reference (a parameter reference is consumed with killref or \
              borrowed with tempref)"
             pname)
      else None
  | Sreturn fname ->
      if s.an_killref then
        Some
          (Printf.sprintf
             "killref declared on the return value of %s: killref consumes \
              a parameter reference (a returned new reference is declared \
              newref)"
             fname)
      else if s.an_tempref then
        Some
          (Printf.sprintf
             "tempref declared on the return value of %s: tempref describes \
              a borrowed parameter reference"
             fname)
      else None

(** Render a set back to annotation words (canonical order), used by the
    interface-library writer. *)
let to_words (s : set) : string list =
  let nl =
    match s.an_null with
    | Some Null -> [ "null" ]
    | Some NotNull -> [ "notnull" ]
    | Some RelNull -> [ "relnull" ]
    | None -> []
  in
  let df =
    match s.an_def with
    | Some Out -> [ "out" ]
    | Some In -> [ "in" ]
    | Some Partial -> [ "partial" ]
    | Some RelDef -> [ "reldef" ]
    | None -> []
  in
  let al =
    match s.an_alloc with
    | Some Only -> [ "only" ]
    | Some Keep -> [ "keep" ]
    | Some Temp -> [ "temp" ]
    | Some Owned -> [ "owned" ]
    | Some Dependent -> [ "dependent" ]
    | Some Shared -> [ "shared" ]
    | None -> []
  in
  let ex =
    match s.an_expose with
    | Some Observer -> [ "observer" ]
    | Some Exposed -> [ "exposed" ]
    | None -> []
  in
  nl @ df @ al @ ex
  @ (if s.an_unique then [ "unique" ] else [])
  @ (if s.an_returned then [ "returned" ] else [])
  @ (if s.an_truenull then [ "truenull" ] else [])
  @ (if s.an_falsenull then [ "falsenull" ] else [])
  @ (if s.an_exits then [ "exits" ] else [])
  @ (if s.an_undef then [ "undef" ] else [])
  @ (if s.an_killed then [ "killed" ] else [])
  @ (if s.an_refcounted then [ "refcounted" ] else [])
  @ (if s.an_newref then [ "newref" ] else [])
  @ (if s.an_killref then [ "killref" ] else [])
  @ if s.an_tempref then [ "tempref" ] else []
