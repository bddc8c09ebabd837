(** Dataflow values of the storage model (paper, Sections 3 and 5).

    "Three values are associated with each reference: the definition state
    (defined, partially defined, allocated, etc.), the null state
    (definitely null, possibly null, not null, etc.), and the allocation
    state (corresponding to the allocation annotation, e.g., only, temp)." *)

(** Definition state of the storage a reference denotes. *)
type defstate =
  | DSundefined  (** storage exists but has not been assigned a value *)
  | DSallocated
      (** the reference has a value pointing to allocated storage whose
          contents are undefined (result of [malloc]) *)
  | DSpdefined  (** partially defined: some reachable storage undefined *)
  | DSdefined  (** completely defined *)
  | DSdead
      (** dead: released, or obligation transferred; may not be used *)
  | DSerror  (** error marker set after reporting, to stop cascades *)
[@@deriving eq]

(** Null state of a pointer reference. *)
type nullstate =
  | NSnull  (** definitely NULL on this path *)
  | NSpossnull  (** may be NULL *)
  | NSnotnull  (** known not NULL *)
  | NSrel  (** relnull: assumed non-null at uses, assignable from null *)
  | NSuntracked  (** not a pointer, or nullness not tracked *)
[@@deriving eq]

(** Allocation state: who owns the storage and what the obligations are. *)
type allocstate =
  | ASonly  (** sole reference; obliged to release or transfer *)
  | ASowned  (** owns storage that [ASdependent] references share *)
  | ASdependent  (** shares storage owned elsewhere; must not release *)
  | ASshared  (** arbitrarily shared; never released (GC) *)
  | AStemp  (** temporary: may not be released or newly shared *)
  | ASkept
      (** obligation satisfied by a [keep] transfer; still usable *)
  | ASobserver  (** may not be modified or released *)
  | ASexposed  (** exposed internal storage: modifiable, not freeable *)
  | ASrefcounted
      (** a live reference to reference-counted storage; must be consumed
          by a [killref] parameter or transferred *)
  | ASstack  (** automatic storage (address of a local) *)
  | ASstatic  (** static-duration storage (string literals, statics) *)
  | ASnone  (** unmanaged / not pointer-valued *)
  | ASerror  (** error marker after reporting *)
[@@deriving eq]

let allocstate_string = function
  | ASonly -> "only"
  | ASowned -> "owned"
  | ASdependent -> "dependent"
  | ASshared -> "shared"
  | AStemp -> "temp"
  | ASkept -> "kept"
  | ASobserver -> "observer"
  | ASexposed -> "exposed"
  | ASrefcounted -> "refcounted"
  | ASstack -> "stack"
  | ASstatic -> "static"
  | ASnone -> "unmanaged"
  | ASerror -> "error"

(* ------------------------------------------------------------------ *)
(* Merge rules at confluence points (paper, Section 5)                 *)
(* ------------------------------------------------------------------ *)

(** "Definition states are combined using the weakest assumption."
    [DSdead] on one branch only is a confluence anomaly handled separately
    by the store merge (this function just picks a survivor). *)
let merge_def a b =
  if equal_defstate a b then a
  else
    let rank = function
      | DSerror -> -1
      | DSdead -> 0
      | DSundefined -> 1
      | DSallocated -> 2
      | DSpdefined -> 3
      | DSdefined -> 4
    in
    if rank a < rank b then
      (* dead/undefined etc. dominate; pdefined vs defined -> pdefined *)
      match (a, b) with
      | DSallocated, DSdefined | DSallocated, DSpdefined -> DSpdefined
      | DSundefined, DSdefined | DSundefined, DSpdefined -> DSpdefined
      | _ -> a
    else
      match (b, a) with
      | DSallocated, DSdefined | DSallocated, DSpdefined -> DSpdefined
      | DSundefined, DSdefined | DSundefined, DSpdefined -> DSpdefined
      | _ -> b

(** Is [dead] vs non-dead — the "deallocated on only one path" anomaly? *)
let def_conflict a b =
  (equal_defstate a DSdead) <> (equal_defstate b DSdead)
  && not (equal_defstate a DSerror)
  && not (equal_defstate b DSerror)

let merge_null a b =
  if equal_nullstate a b then a
  else
    match (a, b) with
    | NSuntracked, x | x, NSuntracked -> x
    | NSrel, x | x, NSrel -> x
    | NSnull, NSnull -> NSnull
    | (NSnull | NSpossnull), _ | _, (NSnull | NSpossnull) -> NSpossnull
    | NSnotnull, NSnotnull -> NSnotnull

(** Allocation states merge only when consistent; inconsistent combinations
    (e.g. [kept] on one branch, [only] on the other — Fig. 5/6) are
    confluence anomalies.  Returns [Error (a, b)] in that case. *)
let merge_alloc a b : (allocstate, allocstate * allocstate) result =
  if equal_allocstate a b then Ok a
  else
    match (a, b) with
    | ASerror, x | x, ASerror -> Ok x
    | ASnone, x | x, ASnone -> Ok x
    (* kept vs keep-like combinations that carry no live obligation *)
    | ASkept, ASdependent | ASdependent, ASkept -> Ok ASdependent
    | AStemp, ASdependent | ASdependent, AStemp -> Ok ASdependent
    | ASstack, ASstatic | ASstatic, ASstack -> Ok ASstatic
    (* an obligation on one side but not the other: anomaly *)
    | (ASonly | ASowned), _ | _, (ASonly | ASowned) -> Error (a, b)
    | _ -> Error (a, b)

(* ------------------------------------------------------------------ *)
(* Widening joins ([+loopexec] back-edge fixpoint)                     *)
(* ------------------------------------------------------------------ *)

(** Definition-state join for the loop fixpoint.  Like {!merge_def} —
    which already lets [DSdead] dominate, so a reference released on some
    iteration stays dead at the converged loop entry and the final
    reporting pass flags the use — except that the [DSerror] cascade-stop
    marker is transparent: a silenced fixpoint iteration may have planted
    it, and letting it absorb the join would mask the very state the
    final pass must report on. *)
let widen_def a b =
  match (a, b) with
  | DSerror, x | x, DSerror -> x
  | _ -> merge_def a b

(** Allocation-state join for the loop fixpoint.  Where the reporting
    merge would declare a confluence anomaly ({!merge_alloc} [Error]),
    the fixpoint instead keeps the side with the stronger outstanding
    obligation, so the danger survives to the final reporting pass
    instead of being error-masked.  Total and commutative. *)
let widen_alloc a b =
  match merge_alloc a b with
  | Ok x -> x
  | Error _ ->
      let rank = function
        | ASonly -> 12
        | ASowned -> 11
        | ASrefcounted -> 10
        | ASkept -> 9
        | ASdependent -> 8
        | ASshared -> 7
        | AStemp -> 6
        | ASobserver -> 5
        | ASexposed -> 4
        | ASstack -> 3
        | ASstatic -> 2
        | ASnone -> 1
        | ASerror -> 0
      in
      if rank a >= rank b then a else b

(** Does this allocation state carry an obligation to release storage? *)
let has_obligation = function
  | ASonly | ASowned | ASrefcounted -> true
  | _ -> false

(** May storage in this state be passed where an obligation is required
    (an [only] parameter / assignment / return)? *)
let can_transfer_obligation = function
  | ASonly | ASowned | ASrefcounted | ASnone -> true
  | _ -> false
