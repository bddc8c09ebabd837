(** The abstract store: dataflow values for every tracked reference,
    persistent so branches copy it freely, with the paper's Section 5
    merge rules at confluence points.

    Aliasing distinguishes two relations: SAME VALUE ([l] and [argl] hold
    the same pointer — object-state updates reach every such name) and
    SAME LOCATION ([l->next] and [argl->next] — an assignment rewrites a
    location and all its names, but never the other holders of the old
    value). *)

open State

type refstate = {
  rs_def : defstate;
  rs_null : nullstate;
  rs_alloc : allocstate;
  rs_offset : bool;  (** holds an offset (interior) pointer *)
  rs_aliases : Sref.Set.t;  (** recorded same-value edges *)
  rs_defloc : Cfront.Loc.t option;
  rs_nullloc : Cfront.Loc.t option;
  rs_allocloc : Cfront.Loc.t option;
}

val mk_refstate :
  ?aliases:Sref.Set.t -> ?offset:bool -> ?defloc:Cfront.Loc.t ->
  ?nullloc:Cfront.Loc.t -> ?allocloc:Cfront.Loc.t -> def:defstate ->
  null:nullstate -> alloc:allocstate -> unit -> refstate

type t

val empty : t
val find : t -> Sref.t -> refstate option
val mem : t -> Sref.t -> bool
val get : t -> Sref.t -> refstate
val set : t -> Sref.t -> refstate -> t
(** Bind (ticks the [store_ops] counter).  A write indistinguishable
    from the existing binding is elided — the store comes back
    physically unchanged and [store_ops_elided] ticks instead. *)

val remove : t -> Sref.t -> t
val update : t -> Sref.t -> (refstate -> refstate) -> t
val fold : (Sref.t -> refstate -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the bindings in increasing reference order. *)

val unreachable : t -> t
(** Mark the path dead (after [return] or an [exits] call). *)

val is_reachable : t -> bool

val add_alias : t -> Sref.t -> Sref.t -> t
(** Record a (symmetric) same-value edge. *)

val value_images : t -> Sref.t -> Sref.Set.t
(** Locations that may hold the same pointer value (flat closure: recorded
    edges of the location's names; chains are materialized eagerly at
    assignment time). *)

val location_images : t -> Sref.t -> Sref.Set.t
(** Names denoting the same storage location. *)

val update_images : t -> Sref.t -> (refstate -> refstate) -> t
(** Apply an object-state update to every same-value name. *)

val set_def : ?loc:Cfront.Loc.t -> t -> Sref.t -> defstate -> t
val set_alloc : ?loc:Cfront.Loc.t -> t -> Sref.t -> allocstate -> t

val refine_null : ?loc:Cfront.Loc.t -> t -> Sref.t -> nullstate -> t
(** Guard refinement: the tested reference and its same-value names. *)

val drop_root : t -> Sref.root -> t
(** Scope exit: drop every binding mentioning the root and prune dangling
    alias edges.  Returns the store physically unchanged when no binding
    mentions the root. *)

(** A conflict discovered while merging two branches. *)
type conflict =
  | Cdef of Sref.t * refstate * refstate
      (** released on one path, live on the other *)
  | Calloc of Sref.t * refstate * refstate
      (** irreconcilable allocation states (kept vs only, Fig. 5/6) *)

val merge : on_conflict:(conflict -> unit) -> t -> t -> t
(** Merge two branch stores; conflicting references become error-marked so
    one anomaly does not cascade. *)

val equal : t -> t -> bool
(** Structural store equality — the [+loopexec] fixpoint's convergence
    test.  Bindings compare pointwise: alias sets by contents (not
    physically), blame locations ignored; reachability must agree. *)

val widen : t -> t -> t
(** Widening join at a loop back edge: the {!merge} rules, silent, with
    anomalies resolved toward the more dangerous state (dead dominates,
    the stronger obligation survives) so the final reporting pass over
    the converged store sees them. *)

val collapse_deep : depth:int -> t -> t
(** Collapse bindings deeper than [depth] onto their depth-[depth]
    ancestor (joining with the widening rules) and rewrite alias sets
    through the cap, keeping the per-loop reference universe finite
    (e.g. under a [p = p->next] list walk). *)
