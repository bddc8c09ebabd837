(** Checking flags.

    LCLint's behaviour is controlled by a large flag vocabulary; this module
    reproduces the flags the paper relies on:

    - implicit annotations ("Implicit only annotations can also be applied
      to return values, structure fields and global variables", Section 6;
      [-allimponly] turns them all off);
    - GC mode ("flags can be used to adjust checking so only those errors
      relevant in a garbage-collected environment are reported", Section 3);
    - the unknown-array-index treatment ("compile-time unknown array indexes
      ... are either all the same element of the array or independent
      elements (depending on an LCLint flag ...)", Section 2);
    - assuming [out] for unannotated parameters (Appendix B, "in");
    - the post-paper extensions (footnote 8): detecting frees of offset
      pointers and of static storage — off by default to match the paper's
      reported miss profile.

    Flags parse from LCLint-style command-line syntax: [-name] clears,
    [+name] sets. *)

type t = {
  implicit_only_returns : bool;
      (** unannotated pointer return values of functions defined in the
          checked unit are implicitly [only] *)
  implicit_only_globals : bool;
      (** unannotated pointer globals are implicitly [only] *)
  implicit_only_fields : bool;
      (** unannotated pointer structure fields are implicitly [only] *)
  implicit_temp_params : bool;
      (** unannotated pointer parameters are implicitly [temp] (Section 6:
          "An unqualified formal parameter is assumed to be temp storage") *)
  implicit_out_params : bool;
      (** assume [out] for unannotated parameters where it would prevent a
          message (off by default) *)
  gc_mode : bool;  (** garbage-collected environment: leak checks off *)
  indep_array_elements : bool;
      (** unknown array indexes denote independent elements (true) or all
          the same element (false) *)
  check_null : bool;
  check_def : bool;
  check_alloc : bool;
  check_alias : bool;
  check_use_released : bool;
  free_offset : bool;  (** post-paper: report frees of offset pointers *)
  free_static : bool;  (** post-paper: report frees of static storage *)
  warn_unrecognized_annot : bool;
  guard_refinement : bool;
      (** recognize null tests in conditions (off only for ablation) *)
  alias_tracking : bool;
      (** track alias images across assignments (off only for ablation) *)
  infer_constraints : bool;
      (** run interprocedural annotation inference before checking and use
          the synthesized annotations to refine warnings ([+inferconstraints]) *)
  loop_exec : bool;
      (** [+loopexec]: re-analyse loop bodies to a store fixpoint with
          widening instead of the paper's zero-or-one-times heuristic
          (off by default, preserving the paper's miss profile) *)
  loop_iter : int;
      (** [loopiter=N] / [-loopiter N]: per-loop iteration bound for the
          [+loopexec] fixpoint; a loop that has not converged within the
          bound bails out to the zero-or-one-times heuristic (and ticks
          the [loop_bailouts] telemetry counter) *)
  alloc_model : bool;
      (** [+allocmodel]: path-sensitive allocator-family semantics — on
          realloc's NULL-return branch the old reference is resurrected
          (still allocated), and overwriting the sole live reference with
          a realloc result raises [realloclost] (off by default,
          preserving the paper's miss profile) *)
  xproc : bool;
      (** [+xproc]: consult bottom-up interprocedural effect summaries at
          call sites whose slot has no explicit or inferred annotation,
          so unannotated callees stop being silently trusted (off by
          default, preserving the paper's per-procedure miss profile;
          explicit annotations always win over summaries) *)
}

let default =
  {
    implicit_only_returns = true;
    implicit_only_globals = true;
    implicit_only_fields = true;
    implicit_temp_params = true;
    implicit_out_params = false;
    gc_mode = false;
    indep_array_elements = true;
    check_null = true;
    check_def = true;
    check_alloc = true;
    check_alias = true;
    check_use_released = true;
    free_offset = false;
    free_static = false;
    warn_unrecognized_annot = true;
    guard_refinement = true;
    alias_tracking = true;
    infer_constraints = false;
    loop_exec = false;
    loop_iter = 8;
    alloc_model = false;
    xproc = false;
  }

(** The paper's [-allimponly] run (Section 6): no implicit [only]
    annotations anywhere, so every transfer of fresh storage surfaces. *)
let allimponly_off f =
  {
    f with
    implicit_only_returns = false;
    implicit_only_globals = false;
    implicit_only_fields = false;
  }

type flag_error = Unknown_flag of string

(** Apply one LCLint-style flag string ([+name] enables, [-name] disables).
    Returns [Error] for unknown names. *)
let apply (f : t) (s : string) : (t, flag_error) result =
  (* tolerate cmdliner's '=' glue (-f=-allimponly) and a no- prefix *)
  let s =
    if String.length s > 0 && s.[0] = '=' then
      String.sub s 1 (String.length s - 1)
    else s
  in
  let set, name =
    if String.length s > 0 && s.[0] = '+' then
      (true, String.sub s 1 (String.length s - 1))
    else if String.length s > 0 && s.[0] = '-' then
      (false, String.sub s 1 (String.length s - 1))
    else if String.length s > 3 && String.sub s 0 3 = "no-" then
      (false, String.sub s 3 (String.length s - 3))
    else (true, s)
  in
  match name with
  | "allimponly" ->
      (* "+allimponly" asks for implicit only annotations (the default);
         "-allimponly" disables them, as used in Section 6 *)
      Ok
        (if set then
           {
             f with
             implicit_only_returns = true;
             implicit_only_globals = true;
             implicit_only_fields = true;
           }
         else allimponly_off f)
  | "imponlyreturns" -> Ok { f with implicit_only_returns = set }
  | "imponlyglobals" -> Ok { f with implicit_only_globals = set }
  | "imponlyfields" -> Ok { f with implicit_only_fields = set }
  | "imptempparams" -> Ok { f with implicit_temp_params = set }
  | "impoutparams" -> Ok { f with implicit_out_params = set }
  | "gc" -> Ok { f with gc_mode = set }
  | "indeparrays" -> Ok { f with indep_array_elements = set }
  | "null" -> Ok { f with check_null = set }
  | "def" -> Ok { f with check_def = set }
  | "alloc" -> Ok { f with check_alloc = set }
  | "alias" -> Ok { f with check_alias = set }
  | "usereleased" -> Ok { f with check_use_released = set }
  | "freeoffset" -> Ok { f with free_offset = set }
  | "freestatic" -> Ok { f with free_static = set }
  | "annotwarn" -> Ok { f with warn_unrecognized_annot = set }
  | "guards" -> Ok { f with guard_refinement = set }
  | "aliastrack" -> Ok { f with alias_tracking = set }
  | "inferconstraints" -> Ok { f with infer_constraints = set }
  | "loopexec" -> Ok { f with loop_exec = set }
  | "allocmodel" -> Ok { f with alloc_model = set }
  | "xproc" -> Ok { f with xproc = set }
  | "loopiter" ->
      (* valueless spelling resets the bound to its default *)
      Ok { f with loop_iter = default.loop_iter }
  | _ -> (
      (* the one valued flag: [loopiter=N] sets the fixpoint iteration
         bound (also reachable as [-loopiter N] from the CLIs) *)
      match String.index_opt name '=' with
      | Some i when String.sub name 0 i = "loopiter" -> (
          match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
          | Some n when n >= 1 -> Ok { f with loop_iter = n }
          | _ -> Error (Unknown_flag name))
      | _ -> Error (Unknown_flag name))

let apply_all (f : t) (ss : string list) : (t, flag_error) result =
  List.fold_left
    (fun acc s -> match acc with Ok f -> apply f s | e -> e)
    (Ok f) ss

(** Canonical rendering of a flag record for cache keys: every field,
    spelled as its flag name, in a fixed order.  Two flag sets reached by
    different command lines ([+gc -gc] vs nothing) render identically, so
    summary-cache keys depend on the checking semantics only. *)
let canonical (f : t) =
  let b name v = Printf.sprintf "%c%s" (if v then '+' else '-') name in
  String.concat " "
    [
      b "imponlyreturns" f.implicit_only_returns;
      b "imponlyglobals" f.implicit_only_globals;
      b "imponlyfields" f.implicit_only_fields;
      b "imptempparams" f.implicit_temp_params;
      b "impoutparams" f.implicit_out_params;
      b "gc" f.gc_mode;
      b "indeparrays" f.indep_array_elements;
      b "null" f.check_null;
      b "def" f.check_def;
      b "alloc" f.check_alloc;
      b "alias" f.check_alias;
      b "usereleased" f.check_use_released;
      b "freeoffset" f.free_offset;
      b "freestatic" f.free_static;
      b "annotwarn" f.warn_unrecognized_annot;
      b "guards" f.guard_refinement;
      b "aliastrack" f.alias_tracking;
      b "inferconstraints" f.infer_constraints;
      b "loopexec" f.loop_exec;
      Printf.sprintf "loopiter=%d" f.loop_iter;
      b "allocmodel" f.alloc_model;
      b "xproc" f.xproc;
    ]

let flag_names =
  [
    "allimponly"; "imponlyreturns"; "imponlyglobals"; "imponlyfields";
    "imptempparams"; "impoutparams"; "gc"; "indeparrays"; "null"; "def";
    "alloc"; "alias"; "usereleased"; "freeoffset"; "freestatic"; "annotwarn";
    "guards"; "aliastrack"; "inferconstraints"; "loopexec"; "loopiter";
    "allocmodel"; "xproc";
  ]

(* Levenshtein distance, one-row DP. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <-
          min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(** The known flag nearest to a mistyped name, if any is near enough to
    be a plausible typo (distance at most 2, or 3 for long names). *)
let suggest name =
  let budget = if String.length name >= 8 then 3 else 2 in
  let best =
    List.fold_left
      (fun best candidate ->
        let d = edit_distance name candidate in
        match best with
        | Some (_, bd) when bd <= d -> best
        | _ -> Some (candidate, d))
      None flag_names
  in
  match best with
  | Some (candidate, d) when d <= budget -> Some candidate
  | _ -> None
