(** Bottom-up interprocedural memory-effect summaries ([+xproc]).

    Evans' checker stops at procedure boundaries: a call site is
    interpreted through the callee's Appendix-B annotations, and an
    unannotated callee is assumed benign.  This pass derives a
    memory-effect summary per *defined* function directly from its
    syntax tree, the one the checker walks — per-parameter release/escape/out effects, return
    effects, and a global-escape bit — propagated bottom-up over the
    Tarjan SCCs of the call graph with a fixpoint for recursion and a
    sound ⊤ ("unknown: assume nothing observable may be relied on") for
    indirect or external calls.  Under [+xproc] the checker consults
    these summaries at call-site slots that carry no explicit or
    inferred annotation; explicit annotations always win.
    See docs/summaries.md for the lattice and the ⊤ policy. *)

module Callgraph = Callgraph

(** Release effect of one parameter, ordered
    [Pnone < Prelnull, Pcond < Prel] with [Ptop] incomparable (no
    information; the checker treats it exactly like [Pnone]). *)
type prel =
  | Pnone  (** never released on any observed path *)
  | Pcond  (** released on some paths, live on others *)
  | Prelnull
      (** released exactly on the paths that return NULL (the
          wrapper-allocator idiom) *)
  | Prel  (** released (or known null) on every normal path *)
  | Ptop  (** unknown: the parameter reaches an unsummarizable call *)

type peffect = {
  pe_rel : prel;
  pe_escape : bool;
      (** stored into a global or into storage reachable from another
          parameter, so a reference outlives the call *)
  pe_out : bool;  (** written through on every normal path *)
}

(** Effect of the returned value. *)
type ret_effect =
  | Rnone  (** nothing usable (mixed, unmanaged, or void) *)
  | Rfresh  (** fresh allocation the caller becomes responsible for *)
  | Ralias of int  (** alias of parameter [i] on every return path *)
  | Rtop  (** unknown *)

type t = {
  sm_name : string;
  sm_params : peffect array;
  sm_ret : ret_effect;
  sm_ret_null : bool;  (** may return literal NULL on a normal path *)
  sm_global_escape : bool;
      (** the call stores a pointer into a global (directly or through a
          summarized callee) *)
}

type table = (string, t) Hashtbl.t

val bottom : string -> int -> t
(** Fixpoint seed: no effects anywhere. *)

val top : string -> int -> t
(** Sound "no information" element: every parameter [Ptop], return
    [Rtop].  The checker does nothing with it. *)

val equal : t -> t -> bool

val summarize : Sema.program -> table -> Sema.funsig -> Cfront.Ast.fundef -> t
(** One extraction pass over the function's body, consulting [table] for
    already-summarized callees (and the current iterate for same-SCC
    members). *)

val of_program : Sema.program -> table
(** Summaries for every defined function, computed callee-first over the
    call-graph SCCs; recursive components iterate to a fixpoint (bounded;
    bailing out to {!top}).  Ticks the [summary_*] telemetry counters. *)

(** {1 Incremental refresh} *)

type solution
(** A solved table together with the call graph and SCC order it was
    solved over, so that a later body edit can be answered by
    {!refresh}. *)

val solve : Sema.program -> solution
(** {!of_program}, keeping the call graph and SCC order. *)

val table : solution -> table
(** The current summaries.  {!refresh} updates this table in place,
    except on its fallback, which replaces it. *)

val refresh :
  Sema.program -> solution -> dirty:Cfront.Ast.fundef list -> string list
(** Bring [solution] up to date after the definitions in [dirty] had
    their bodies swapped into [prog] ({!Sema.patch_fundef}); nothing else
    about [prog] may have changed.  A component is re-solved when a
    member is dirty or a callee's summary changed in this pass;
    propagation stops where summaries come out {!equal}.  When a dirty
    function's defined-callee list changed, the call graph may have
    moved, so the whole program is solved again.  Either way the table
    afterwards equals {!of_program}[ prog].  Returns the names whose
    summaries are no longer {!equal} to their previous ones.  Ticks the
    [summary_*] counters for the re-solved functions only. *)

val slot_unannotated : Sema.eannot -> bool
(** Does this slot carry no explicit or inferred allocation annotation,
    so a summary may speak for it?  Explicit (and inference-installed)
    annotations always win: the checker consults a summary only at such
    a slot, and this pass summarizes only such a slot. *)

val render : t -> string
(** Stable one-line rendering, the [--dump-summaries] format:
    [name: params=[tok,...] ret=tok] with optional [retnull] / [globesc]
    suffix tokens (see {!token_vocabulary}). *)

val token_vocabulary : string list
(** Every token the {!render} format can emit (parameter effects, return
    effects, suffix markers).  [olclint --dump-summaries] with no input
    files prints this list; cli_test.sh gates it against the token table
    in docs/summaries.md. *)

val hash : t -> string
(** Content hash of the rendered summary (incremental cache keys). *)
