(** The instrumented heap behind the run-time baseline (the dmalloc /
    mprof / Purify role in the paper's comparison): block identity, per-slot
    definedness, liveness, allocation sites, leak marking, and an
    allocation profile. *)

type storage_kind =
  | Kheap
  | Kstack of int  (** automatic storage; the int is the frame depth *)
  | Kstatic
  | Kglobal of string

type slot = Sundef | Sint of int64 | Sfloat of float | Sptr of ptr | Snull

and ptr = { p_block : int; p_off : int }
(** Block id plus slot offset; [p_off <> 0] is an offset (interior)
    pointer in the paper's terms. *)

type block = {
  b_id : int;
  b_kind : storage_kind;
  b_size : int;
  mutable b_slots : slot array;
  mutable b_live : bool;
  b_alloc_site : Cfront.Loc.t;
  mutable b_free_site : Cfront.Loc.t option;
}

type error_kind =
  | Enull_deref
  | Euse_undefined
  | Euse_after_free
  | Edouble_free
  | Efree_offset
  | Efree_nonheap
  | Ebounds
  | Ebad_arg of string

type error = { e_kind : error_kind; e_loc : Cfront.Loc.t; e_msg : string }

val error_kind_string : error_kind -> string

val error_class : error_kind -> string
(** The differential oracle's shared error-class name for this kind
    (["use-after-free"], ["free-offset"], ...).  {!Check.Errclass} maps
    static diagnostic codes onto the same vocabulary. *)

val class_global_leak : string
(** Class name for a leaked block still reachable from a global — the
    interprocedural blind spot of the static checker (Section 7). *)

(** Per-allocation-site statistics (mprof-style). *)
type site_stats = {
  mutable st_allocs : int;
  mutable st_frees : int;
  mutable st_slots : int;
}

type t = {
  mutable blocks : (int, block) Hashtbl.t;
  mutable next_id : int;
  mutable errors : error list;
  mutable heap_allocs : int;
  mutable heap_frees : int;
  profile : (Cfront.Loc.t, site_stats) Hashtbl.t;
}

val create : unit -> t

val report :
  t -> error_kind -> loc:Cfront.Loc.t ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

val errors : t -> error list
(** In detection order. *)

val alloc : t -> kind:storage_kind -> size:int -> loc:Cfront.Loc.t -> ptr
val find : t -> int -> block option

val read : t -> ptr -> loc:Cfront.Loc.t -> slot option
val write : t -> ptr -> slot -> loc:Cfront.Loc.t -> unit

val free : t -> ptr -> loc:Cfront.Loc.t -> unit
(** Reports double frees, frees of interior pointers and frees of
    non-heap storage. *)

val release_frame : t -> depth:int -> unit
(** Kill a stack frame's blocks on scope exit. *)

type leak = { lk_block : block; lk_reachable : bool }

val leak_class : leak -> string
(** {!class_global_leak} when reachable, ["leak"] otherwise. *)

val leaks : t -> roots:ptr list -> leak list
(** Live heap blocks at exit, marked reachable/unreachable from the root
    set (pointers still stored in globals). *)

val profile_rows : t -> (Cfront.Loc.t * site_stats) list
(** Allocation profile, heaviest site first. *)
