(** Allocator-family table for the [+allocmodel] path-sensitive
    allocator semantics (realloc NULL-branch resurrection, the
    [realloclost] diagnostic, calloc/aligned_alloc definedness
    bookkeeping). *)

type family =
  | Alloc of { zeroed : bool }
      (** malloc-like: returns a fresh block, contents defined iff
          [zeroed] *)
  | Realloc
      (** realloc-like: consumes its first pointer argument only when
          the result is non-null *)

val is_realloc : string -> bool

val result_def : string -> State.defstate option
(** The result's definition state under the model for a modeled fresh
    allocation; [None] leaves the annotation-derived state untouched. *)
