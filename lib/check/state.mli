(** Dataflow values of the storage model (paper, Sections 3 and 5): every
    reference carries a definition state, a null state and an allocation
    state, merged at confluence points with the paper's rules. *)

type defstate =
  | DSundefined
  | DSallocated  (** points to allocated storage with undefined contents *)
  | DSpdefined  (** partially defined *)
  | DSdefined  (** completely defined *)
  | DSdead  (** released or transferred; may not be used *)
  | DSerror  (** post-report marker to stop cascades *)

type nullstate =
  | NSnull
  | NSpossnull
  | NSnotnull
  | NSrel  (** relnull *)
  | NSuntracked

type allocstate =
  | ASonly
  | ASowned
  | ASdependent
  | ASshared
  | AStemp
  | ASkept  (** obligation satisfied; still usable *)
  | ASobserver
  | ASexposed
  | ASrefcounted  (** live reference to reference-counted storage *)
  | ASstack
  | ASstatic
  | ASnone
  | ASerror

val equal_defstate : defstate -> defstate -> bool
val equal_nullstate : nullstate -> nullstate -> bool
val equal_allocstate : allocstate -> allocstate -> bool

val allocstate_string : allocstate -> string

val merge_def : defstate -> defstate -> defstate
(** "Definition states are combined using the weakest assumption." *)

val def_conflict : defstate -> defstate -> bool
(** Dead on exactly one side — the "deallocated on only one path"
    anomaly (the store merge decides whether context excuses it). *)

val merge_null : nullstate -> nullstate -> nullstate

val merge_alloc : allocstate -> allocstate -> (allocstate, allocstate * allocstate) result
(** [Error] when the states cannot be sensibly combined (e.g. kept vs
    only, Figure 5/6). *)

val widen_def : defstate -> defstate -> defstate
(** Definition-state join for the [+loopexec] fixpoint: {!merge_def}
    (dead dominates) with the [DSerror] marker transparent, so silenced
    iterations cannot mask the converged state. *)

val widen_alloc : allocstate -> allocstate -> allocstate
(** Allocation-state join for the [+loopexec] fixpoint: {!merge_alloc}
    when consistent, otherwise the side with the stronger outstanding
    obligation.  Total and commutative. *)

val has_obligation : allocstate -> bool
(** Does the state carry an obligation to release/consume? *)

val can_transfer_obligation : allocstate -> bool
(** May storage in this state be passed where an obligation is required? *)
