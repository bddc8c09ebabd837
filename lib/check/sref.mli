(** Storage references: "a variable or a location derived from a variable
    (e.g., a field of a structure)" (paper, Section 3).

    References are hash-consed per domain: the smart constructors
    ({!root}, {!field}, {!deref}, {!index}) return the unique physical
    representative of a term, every value carries a precomputed hash
    and cached {!root_of}/{!depth}, and {!equal} is a pointer comparison
    in the common case.  Inspect structure with {!view}.  References must
    not be shared across domains (each domain interns its own; the
    parallel driver only exchanges rendered diagnostics). *)

type root =
  | Rlocal of string  (** local variable / a parameter's local copy *)
  | Rparam of int * string  (** the externally visible parameter (argl) *)
  | Rglobal of string
  | Rret
  | Rfresh of int * string  (** allocation site id + allocating function *)
  | Rstatic of int  (** string literal or other static object *)

type t
(** A hash-consed reference.  Abstract: build with the smart
    constructors, destruct with {!view}/{!base}. *)

(** One structural layer.  The children are themselves interned [t]s. *)
type node =
  | Root of root
  | Field of t * string  (** pointer member access normalizes here *)
  | Deref of t
  | Index of t * int option  (** [None] conflates unknown indexes *)

val root : root -> t
val field : t -> string -> t
val deref : t -> t
val index : t -> int option -> t

val view : t -> node
(** The outermost constructor. *)

val hash : t -> int
(** Precomputed structural hash (interning-history independent). *)

val equal_root : root -> root -> bool
val compare_root : root -> root -> int

val equal : t -> t -> bool
(** [(==)] plus a hash test in the common (same-domain) case. *)

val compare : t -> t -> int
(** Structural order (constructor rank, then lexicographic) — identical
    to the pre-interning order and independent of interning history, so
    map/set iteration is deterministic under [-j].  Shared subterms
    short-circuit physically. *)

val root_of : t -> root
(** Cached; O(1). *)

val base : t -> t option
(** One derivation step up, if any. *)

val depth : t -> int
(** Cached; O(1). *)

val ancestor_at_depth : t -> int -> t
(** [ancestor_at_depth r k] is the ancestor of [r] at derivation depth at
    most [k] ([r] itself when already shallow enough).  The [+loopexec]
    widening uses it to collapse unboundedly growing derivation chains
    (e.g. a [p = p->next] list walk) onto finitely many representatives. *)

val has_derivations : t -> bool
(** Has any reference been built from this one by {!field}, {!deref} or
    {!index}?  [false] means no store holds a reference {!derived_from}
    it.  O(1). *)

val derived_from : outer:t -> t -> bool
(** Is the reference a proper derivation of [outer]?  Bounded by the
    cached depths. *)

val mentions_root : root -> t -> bool
(** O(1): compares the cached root. *)

val to_string : t -> string
(** Source-like rendering ([p->f], [*p], [a[3]]). *)

val is_external : t -> bool
(** Visible in the caller's environment (not rooted at a local). *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
