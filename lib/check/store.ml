(** The abstract store: dataflow values for every tracked reference.

    Persistent (branches copy it freely), with the merge rules of Section 5
    at confluence points.  The store is type-free: the checker supplies
    type-driven behaviour (field enumeration, completion checking) on top.

    Alias tracking follows the paper: each reference carries a may-alias
    set; updates made through one reference are applied to its *alias
    images* — e.g. with [l] aliasing [argl], an update of [l->next] also
    updates [argl->next] ("Since l->next may alias argl->next, the state of
    argl->next is also allocated, non-null, and only", Section 5). *)

open State

type refstate = {
  rs_def : defstate;
  rs_null : nullstate;
  rs_alloc : allocstate;
  rs_offset : bool;
      (** the reference holds an offset (interior) pointer — the result of
          pointer arithmetic; such storage cannot be released through this
          reference (Section 3) *)
  rs_aliases : Sref.Set.t;
  rs_defloc : Cfront.Loc.t option;  (** where the def state was set *)
  rs_nullloc : Cfront.Loc.t option;  (** where the null state was set *)
  rs_allocloc : Cfront.Loc.t option;  (** where the alloc state was set *)
}

let mk_refstate ?(aliases = Sref.Set.empty) ?(offset = false) ?defloc ?nullloc
    ?allocloc ~def ~null ~alloc () =
  {
    rs_def = def;
    rs_null = null;
    rs_alloc = alloc;
    rs_offset = offset;
    rs_aliases = aliases;
    rs_defloc = defloc;
    rs_nullloc = nullloc;
    rs_allocloc = allocloc;
  }

(** Default state for a reference the store knows nothing about:
    completely defined, untracked nullness, unmanaged. *)
let unknown_refstate =
  mk_refstate ~def:DSdefined ~null:NSuntracked ~alloc:ASnone ()

type t = {
  map : refstate Sref.Map.t;
  reachable : bool;
      (** false after a [return] or a call to an [exits] function *)
}

let empty = { map = Sref.Map.empty; reachable = true }
let find st r = Sref.Map.find_opt r st.map
let mem st r = Sref.Map.mem r st.map
let get st r = match find st r with Some s -> s | None -> unknown_refstate

(* Would writing [b] over the existing binding [a] change anything an
   observer can see?  Alias sets are compared physically: [Set.add] /
   [Set.remove] return their argument unchanged on a no-op, so the
   no-change case is physical equality in practice.  Location options are
   small immutable records, compared structurally. *)
(* location options flow through [{ old with ... }] copies untouched, so
   the same-value case is physical equality in practice; the structural
   fallback only fires when a fresh but identical loc was attached *)
let same_loc a b =
  a == b
  || match (a, b) with
     | Some la, Some lb -> la == lb || Cfront.Loc.equal la lb
     | _ -> false

let refstate_same (a : refstate) (b : refstate) =
  a == b
  || equal_defstate a.rs_def b.rs_def
     && equal_nullstate a.rs_null b.rs_null
     && equal_allocstate a.rs_alloc b.rs_alloc
     && Bool.equal a.rs_offset b.rs_offset
     && a.rs_aliases == b.rs_aliases
     && same_loc a.rs_defloc b.rs_defloc
     && same_loc a.rs_nullloc b.rs_nullloc
     && same_loc a.rs_allocloc b.rs_allocloc

(* every store rewrite ticks the [store_ops] telemetry counter: the
   paper's complexity claim is that checking is linear in store traffic,
   so this is the number optimisation PRs watch.  Writes that cannot
   change the store (same state already bound) are elided — no tree
   rebuild — and tick [store_ops_elided] instead. *)
let set st r s =
  (* single tree traversal: [update] both reads the old binding and
     writes the new one; returning the old refstate on a no-op makes
     [update] hand back the map physically unchanged *)
  let map =
    Sref.Map.update r
      (function Some old when refstate_same old s -> Some old | _ -> Some s)
      st.map
  in
  if map == st.map then begin
    Telemetry.Counter.tick Telemetry.c_store_ops_elided;
    st
  end
  else begin
    Telemetry.Counter.tick Telemetry.c_store_ops;
    { st with map }
  end

let remove st r =
  (* [Map.remove] returns its argument physically when [r] is unbound *)
  let map = Sref.Map.remove r st.map in
  if map == st.map then begin
    Telemetry.Counter.tick Telemetry.c_store_ops_elided;
    st
  end
  else begin
    Telemetry.Counter.tick Telemetry.c_store_ops;
    { st with map }
  end
let unreachable st = { st with reachable = false }
let is_reachable st = st.reachable
let fold f st acc = Sref.Map.fold f st.map acc

let update st r f =
  let s = get st r in
  set st r (f s)

(* ------------------------------------------------------------------ *)
(* Aliases                                                             *)
(* ------------------------------------------------------------------ *)

(** Record that [a] and [b] may denote the same storage (symmetric). *)
let add_alias st a b =
  if Sref.equal a b then st
  else
    let st = update st a (fun s -> { s with rs_aliases = Sref.Set.add b s.rs_aliases }) in
    update st b (fun s -> { s with rs_aliases = Sref.Set.add a s.rs_aliases })

let aliases_of st r = (get st r).rs_aliases

(* Aliasing distinguishes two relations:

   - SAME VALUE: [l] and [argl] hold the same pointer (an edge recorded by
     {!add_alias}).  State changes to the pointed-to OBJECT (releasing it,
     satisfying its obligation, null knowledge) apply to every same-value
     name.

   - SAME LOCATION: [l->next] and [argl->next] are the same piece of
     storage whenever [l] and [argl] hold the same value.  An assignment
     rewrites a location, so it applies to every same-location name — but
     NOT to other same-value names of the old contents (assigning to [l]
     does not change [argl]).

   [value_images] computes the same-value closure: recorded edges, plus
   same-location renamings (two names for one location necessarily hold
   the same value).  [location_images] rewrites the base of a derived
   reference through the base's value images; for a root it is just the
   root itself. *)

(* The closure is deliberately FLAT (one step through recorded edges):
   transitive composition would combine facts from different paths into
   nonsense like "l aliases l->next" after a loop (the paper notes only
   argl and argl->next are detected as aliases of l).  Chains like
   q = p; r = q still resolve because each assignment materializes direct
   edges eagerly using the previous flat closure. *)

(** Names denoting the same storage location as [r]: rewrite each base
    segment through the values it may share. *)
let rec location_images st r : Sref.Set.t =
  let rewrite b mk =
    Sref.Set.fold
      (fun b' acc -> Sref.Set.add (mk b') acc)
      (value_images st b) Sref.Set.empty
  in
  match Sref.view r with
  | Sref.Root _ -> Sref.Set.singleton r
  | Sref.Field (b, f) -> rewrite b (fun b' -> Sref.field b' f)
  | Sref.Deref b -> rewrite b (fun b' -> Sref.deref b')
  | Sref.Index (b, i) -> rewrite b (fun b' -> Sref.index b' i)

(** Locations that may hold the same pointer value as [r]: [r]'s location
    names plus their recorded direct edges. *)
and value_images st r : Sref.Set.t =
  let locs = location_images st r in
  Sref.Set.fold
    (fun l acc -> Sref.Set.union (aliases_of st l) acc)
    locs locs

(** Apply [f] to [r] and every same-value name (object-state updates).
    A root with no recorded edges is its own only image — the common
    case, worth skipping the closure computation for. *)
let update_images st r f =
  match Sref.view r with
  | Sref.Root _ when Sref.Set.is_empty (aliases_of st r) -> update st r f
  | _ -> Sref.Set.fold (fun r' st -> update st r' f) (value_images st r) st

let set_def ?loc st r d =
  update_images st r (fun s -> { s with rs_def = d; rs_defloc = loc })

(** Null-state refinement from a guard.  Applied to the tested reference
    and its same-value names: a test on [l] also tells us about [argl]
    (the paper's point 3 — "at point 3 we know that l is null" — feeds the
    exit check of the externally visible parameter).  This is a
    likely-case assumption for genuinely may-valued aliases, in the
    paper's spirit (Section 2). *)
let refine_null ?loc st r n =
  update_images st r (fun s -> { s with rs_null = n; rs_nullloc = loc })

let set_alloc ?loc st r a =
  update_images st r (fun s -> { s with rs_alloc = a; rs_allocloc = loc })

(** Drop every binding whose reference involves [root] (scope exit), and
    remove dangling alias edges pointing into the dropped set.  Runs on
    every declaration and scope exit, so it allocates only for what it
    changes: a store with no binding under [root] comes back physically
    unchanged, and only the alias sets that meet the dropped set are
    rewritten. *)
let drop_root st root =
  let dropped =
    Sref.Map.fold
      (fun r _ acc ->
        if Sref.mentions_root root r then Sref.Set.add r acc else acc)
      st.map Sref.Set.empty
  in
  if Sref.Set.is_empty dropped then st
  else
    let keep = Sref.Set.fold Sref.Map.remove dropped st.map in
    let map =
      Sref.Map.fold
        (fun r s acc ->
          if Sref.Set.disjoint s.rs_aliases dropped then acc
          else
            Sref.Map.add r
              { s with rs_aliases = Sref.Set.diff s.rs_aliases dropped }
              acc)
        keep keep
    in
    { st with map }

(* ------------------------------------------------------------------ *)
(* Confluence                                                          *)
(* ------------------------------------------------------------------ *)

(** A conflict discovered while merging two branches. *)
type conflict =
  | Cdef of Sref.t * refstate * refstate
      (** dead on one path, live on the other *)
  | Calloc of Sref.t * refstate * refstate
      (** irreconcilable allocation states (e.g. kept vs only) *)

(** Derive the implicit definition state of an untracked reference from
    its nearest tracked ancestor: children of [allocated] storage are
    undefined; children of [defined] storage are defined.  When the
    ancestor is definitely NULL the reference does not exist on this path
    at all, so the other branch's state [other] stands (the paper keeps
    [argl->next->next] undefined at point 10 of Fig. 6 although the false
    branch never reaches it). *)
let derived_def st r ~(other : defstate) : defstate =
  let rec nearest r =
    match Sref.base r with
    | None -> None
    | Some b -> ( match find st b with Some s -> Some s | None -> nearest b)
  in
  match nearest r with
  | Some { rs_null = NSnull; _ } -> other
  | Some { rs_def = DSallocated; _ } -> DSundefined
  | Some { rs_def = DSundefined; _ } -> DSundefined
  | Some { rs_def = DSdead; _ } -> DSdead
  | _ -> DSdefined

(* A merged blame location: the first side's when it has one. *)
let first_loc a b = match a with Some _ -> a | None -> b

(* The joined refstate once a rule has chosen [def] and [alloc]: the
   Section 5 merge of nullness, offsets and aliases.  The null blame is
   the side's whose nullness survives; the other two prefer the first
   side's. *)
let joined ~def ~alloc (xa : refstate) (xb : refstate) : refstate =
  let null = merge_null xa.rs_null xb.rs_null in
  {
    rs_def = def;
    rs_null = null;
    rs_alloc = alloc;
    rs_offset = xa.rs_offset || xb.rs_offset;
    rs_aliases =
      (if xa.rs_aliases == xb.rs_aliases then xa.rs_aliases
       else Sref.Set.union xa.rs_aliases xb.rs_aliases);
    rs_defloc = first_loc xa.rs_defloc xb.rs_defloc;
    rs_nullloc =
      (if equal_nullstate null xa.rs_null then xa.rs_nullloc
       else xb.rs_nullloc);
    rs_allocloc = first_loc xa.rs_allocloc xb.rs_allocloc;
  }

(* The implicit state, on the side [st] that does not bind it, of a
   reference bound to [other] on the other side. *)
let fill st r (other : refstate) =
  { unknown_refstate with rs_def = derived_def st r ~other:other.rs_def }

(* The one traversal behind {!merge} and {!widen}, which supply only
   [rule on_conflict r xa xb]: the join of two bindings of [r] that the
   branches do not share physically. *)
let join rule on_conflict (a : t) (b : t) : t =
  match (a.reachable, b.reachable) with
  | false, false -> { a with reachable = false }
  | false, true -> b
  | true, false -> a
  | true, true when a.map == b.map ->
      (* common for an [if] without [else] whose branch left the store
         untouched: nothing to reconcile *)
      a
  | true, true ->
      let join_one r sa sb =
        match (sa, sb) with
        | Some xa, Some xb when xa == xb ->
            (* branches that did not touch this reference share its
               refstate physically; joining it with itself is the
               identity and can raise no conflict *)
            sa
        | Some xa, Some xb -> Some (rule on_conflict r xa xb)
        | Some xa, None -> Some (rule on_conflict r xa (fill b r xa))
        | None, Some xb -> Some (rule on_conflict r (fill a r xb) xb)
        | None, None -> None
      in
      { map = Sref.Map.merge join_one a.map b.map; reachable = true }

(* The reporting rule: each anomaly goes to [on_conflict], and the
   conflicting reference becomes the error marker. *)
let merge_rule on_conflict r (xa : refstate) (xb : refstate) =
  (* A dead-on-one-path merge is consistent when the live path carries
     no release obligation either: the pointer is NULL (freeing null is
     a no-op) or its obligation was satisfied (kept).  The guarded-free
     idiom [if (p != NULL) free(p);] and transfer-or-release patterns
     rely on this. *)
  let relaxed (x : refstate) =
    equal_nullstate x.rs_null NSnull || equal_allocstate x.rs_alloc ASkept
  in
  let dead_ok =
    (equal_defstate xa.rs_def DSdead && relaxed xb)
    || (equal_defstate xb.rs_def DSdead && relaxed xa)
  in
  let def =
    if def_conflict xa.rs_def xb.rs_def && not dead_ok then (
      on_conflict (Cdef (r, xa, xb));
      DSerror)
    else merge_def xa.rs_def xb.rs_def
  in
  let alloc =
    (* once the storage is dead on some path (or was reported), the
       allocation-state combination carries no new information; the
       choices below are symmetric in the two branches, so merge
       commutes (a property test pins this down) *)
    if equal_defstate def DSerror then ASerror
    else if equal_defstate xa.rs_def DSdead then
      if equal_defstate xb.rs_def DSdead then
        if equal_allocstate xa.rs_alloc xb.rs_alloc then xa.rs_alloc
        else ASerror
      else xb.rs_alloc
    else if equal_defstate xb.rs_def DSdead then xa.rs_alloc
    else
      match merge_alloc xa.rs_alloc xb.rs_alloc with
      | Ok al -> al
      | Error _ ->
          on_conflict (Calloc (r, xa, xb));
          ASerror
  in
  joined ~def ~alloc xa xb

(** Merge two stores at a confluence point.  [on_conflict] is called for
    each anomaly; the merged state for a conflicting reference is the error
    marker, so one anomaly does not cascade. *)
let merge ~(on_conflict : conflict -> unit) a b = join merge_rule on_conflict a b

(* ------------------------------------------------------------------ *)
(* Widening ([+loopexec] back-edge joins)                              *)
(* ------------------------------------------------------------------ *)

(* Structural refstate equality for fixpoint convergence.  Unlike
   {!refstate_same} (which compares alias sets physically — right for
   write elision, fatal for convergence, since [Set.union] rebuilds),
   alias sets compare by contents.  Blame locations are deliberately
   ignored: they only affect message text, the final reporting pass
   recomputes them, and including them could keep an abstractly stable
   store oscillating forever. *)
let refstate_equal (a : refstate) (b : refstate) =
  a == b
  || equal_defstate a.rs_def b.rs_def
     && equal_nullstate a.rs_null b.rs_null
     && equal_allocstate a.rs_alloc b.rs_alloc
     && Bool.equal a.rs_offset b.rs_offset
     && Sref.Set.equal a.rs_aliases b.rs_aliases

let equal (a : t) (b : t) =
  Bool.equal a.reachable b.reachable
  && (a.map == b.map || Sref.Map.equal refstate_equal a.map b.map)

(** Refstate join for the loop fixpoint: the merge rules, but silent and
    resolved toward danger — dead dominates ({!State.widen_def}),
    irreconcilable allocation states keep the stronger obligation
    ({!State.widen_alloc}) — so anomalies survive to the final reporting
    pass instead of being error-masked here. *)
let widen_refstate (xa : refstate) (xb : refstate) : refstate =
  if xa == xb then xa
  else
    let alloc =
      (* mirror the merge: a dead side's allocation state carries no
         information, the live side's survives *)
      if equal_defstate xa.rs_def DSdead then
        if equal_defstate xb.rs_def DSdead then widen_alloc xa.rs_alloc xb.rs_alloc
        else xb.rs_alloc
      else if equal_defstate xb.rs_def DSdead then xa.rs_alloc
      else widen_alloc xa.rs_alloc xb.rs_alloc
    in
    joined ~def:(widen_def xa.rs_def xb.rs_def) ~alloc xa xb

(** Widening join of two stores at a loop back edge.  Same one-sided
    fill-in rules as {!merge} (so references first bound inside the body
    get a sensible implicit state on the entry side), but reports
    nothing: the fixpoint iterations are silent, only the final pass over
    the converged store emits diagnostics. *)
let widen a b = join (fun _ _ xa xb -> widen_refstate xa xb) ignore a b

(** Collapse every binding deeper than [depth] onto its depth-[depth]
    ancestor (joining states with {!widen_refstate}), and rewrite alias
    sets through the same cap.  This is the widening that makes the
    per-loop reference universe finite: a list walk like [p = p->next]
    otherwise manufactures one more derivation level per iteration and
    the fixpoint never closes. *)
let collapse_deep ~depth (st : t) : t =
  if not (Sref.Map.exists (fun r _ -> Sref.depth r > depth) st.map) then st
  else
    let cap r = Sref.ancestor_at_depth r depth in
    let collapse_aliases (s : refstate) =
      let a' = Sref.Set.map cap s.rs_aliases in
      if a' == s.rs_aliases then s else { s with rs_aliases = a' }
    in
    let map =
      Sref.Map.fold
        (fun r s acc ->
          let r' = cap r in
          let s = collapse_aliases s in
          let s =
            match Sref.Map.find_opt r' acc with
            | None -> s
            | Some prior -> widen_refstate prior s
          in
          Sref.Map.add r' s acc)
        st.map Sref.Map.empty
    in
    { st with map }
