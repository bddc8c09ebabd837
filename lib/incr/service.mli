(** The incremental checking service: a content-hashed summary cache
    over the whole pipeline, so an edit re-checks only what the edit can
    affect (ROADMAP: "incremental checking service").

    The service owns a persistent program environment (standard library,
    interface libraries, LCL specs, the analysed sources) plus two cache
    layers:

    - {b per-file parse/sema artifacts} keyed by source content: a file
      whose text is unchanged is never re-lexed or re-parsed, and when
      every interface in a changed file is structurally identical the
      new bodies are patched into the environment ({!Sema.patch_fundef})
      without re-running sema at all;
    - {b per-function check results} keyed by the function's body
      identity and one rendering of everything else the result depends
      on: the canonicalized flag set ({!Annot.Flags.canonical}), the
      type-environment hash, its own funsig hash, the funsig hashes of
      its direct callees and, under [+xproc], their effect-summary
      hashes — so a body edit re-checks one function, and a funsig
      change re-checks the function plus its annotation-dependent
      callers, and nothing else.  The same rendering with the body's
      digest is the content key {!save} writes and a restarted service
      adopts by.

    Each miss is re-checked on its own by {!Check.Checker.check_fundef},
    as the cold drivers check every body, on the {!Parcheck.map_tasks}
    domain pool (each body against its own {!Sema.for_check} overlay,
    which leaves the environment unwritten), and every answer goes
    through {!Check.finish}, the cold drivers' emission step.  So
    re-check diagnostics are byte-identical for every [jobs] value —
    and, by construction of the cache, to a cold run.

    Persistence: {!save}/{!load} write and read the summary cache as a
    versioned, hash-stamped artifact (the {!Check.Libspec} framing); a
    restarted service adopts persisted results by content key instead of
    re-checking.

    Limits: the service does not run annotation inference
    ([+inferconstraints]) incrementally — inference reads every body, so
    under that flag every request is a full rebuild (correct, just not
    incremental). *)

type doc = { doc_name : string; doc_text : string }
(** One source document: a file name (diagnostic locations use it) and
    its full text. *)

type t
(** A service instance.  Not thread-safe: one request at a time
    (parallelism happens inside a request, on the checking pool). *)

val doc_of_file : ?current:t -> string -> doc
(** Read a document from disk ([Sys_error] on failure).  With
    [current], the path is [Unix.stat]ed first ([Unix.Unix_error] on
    failure) and its stamp (device, inode, size, mtime, ctime) recorded
    next to the text returned.  If the stamp equals the one recorded
    last, [current] still holds that text, and that stamp's mtime and
    ctime were at least {!racy_margin} older than the read that recorded
    it (git's racy-git rule: a later write cannot have kept them), the
    stored string is returned without opening the file.  Otherwise the
    file is read: bytes equal to the text [current] holds are compared
    in place through a reusable per-domain buffer and answered with the
    stored string itself (physically), so re-reading an unchanged
    document allocates nothing; any other file is read into a fresh
    string.  Each read counts in the [doc_reads] gauge of {!stats}. *)

val racy_margin : float
(** How much older than the read that recorded it a stamp's mtime and
    ctime must be before {!doc_of_file} trusts it: 2 s, the coarsest
    file-timestamp granularity in common use. *)

val create :
  ?flags:Annot.Flags.t ->
  ?no_stdlib:bool ->
  ?load_libs:(string * string) list ->
  ?lcl_specs:(string * string) list ->
  unit ->
  t
(** A fresh service.  [load_libs]/[lcl_specs] are (name, text) pairs of
    interface libraries and LCL specifications loaded into every
    environment the service builds.  [flags] is the base flag set;
    per-request flag strings layer on top of it. *)

(** How a [check] request was satisfied. *)
type tier =
  | Cold  (** no environment yet: full parse + sema + check *)
  | Clean  (** nothing changed: answered from cache alone *)
  | Patched
      (** only function bodies changed: new bodies patched into the
          persistent environment, no re-parse of unchanged files, no
          re-sema; only the dirty functions re-checked *)
  | Rebuilt
      (** an interface, the file set or the flag set changed: sema re-run
          (unchanged files reuse their cached ASTs), then a key-driven
          re-check of exactly the invalidated functions *)

val tier_name : tier -> string

type outcome = {
  oc_tier : tier;
  oc_kept : Cfront.Diag.t list;  (** emission-sorted, suppression applied *)
  oc_suppressed : Cfront.Diag.t list;
  oc_functions : int;  (** functions defined in the checked documents *)
  oc_hits : int;
      (** results reused: validated in place or adopted from a persisted
          cache by content key *)
  oc_misses : int;  (** results that could not be validated in place *)
  oc_rechecked : int;
      (** misses actually re-checked (a persisted-key adoption turns a
          miss back into a hit) *)
  oc_invalidated : int;  (** cache entries dropped by this request *)
}

val check :
  ?jobs:int -> ?flag_args:string list -> t -> doc list ->
  (outcome, Cfront.Diag.t) result
(** Check the document set, reusing every cached result the edit since
    the previous request provably cannot affect.  [flag_args] are
    LCLint-style flag strings applied over the service's base flags; a
    change of effective flag set invalidates everything (the flag set is
    part of every cache key).  [Error d] reports a fatal frontend error
    (parse/lex); the service keeps its previous state and the next
    request proceeds normally.  A request that rebuilds the environment
    frees the previous one (one full major collection) before building
    the new one, and builds the previous one again from its cached ASTs
    if the new one fails. *)

val invalidate : t -> string list option -> int
(** Drop cached state: [None] everything (including persisted-key
    adoptions), [Some files] the named files' parse artifacts and
    function summaries, with the {!doc_of_file} stamps of the files
    dropped.  Returns the number of function entries dropped. *)

val stats : t -> (string * int) list
(** Cumulative service statistics, sorted by name: [incr_hits],
    [incr_misses], [incr_invalidations], [incr_rechecked] and
    [incr_validated] (mirroring the telemetry counters, but maintained
    even when telemetry is off) plus gauges ([files], [functions],
    [entries], [persisted]), [generation], the number of environments
    built, and [doc_reads], the number of {!doc_of_file} calls with
    [current] that read the file's bytes. *)

(** {1 Inspection} *)

val environment : t -> Sema.program option
(** The persistent environment the last request checked against. *)

val file_ast : t -> string -> Cfront.Ast.tunit option
(** The AST the service holds for a document.  After a Patched request
    it shares every unchanged declaration object with {!environment}:
    only the swapped-in bodies are new. *)

val stamped : t -> string -> bool
(** Whether the service holds a {!doc_of_file} stat stamp for the
    path. *)

val summaries : t -> Summary.table option
(** The [+xproc] effect summaries of {!environment} ([None] without
    [+xproc]).  After a Patched request they were refreshed, not solved
    again; they always equal {!Summary.of_program} of the
    environment. *)

val summary_hashes : t -> (string * string) list
(** Function → {!Summary.hash} of its summary, sorted by name: the
    hashes a caller's cached result depends on (empty without
    [+xproc]). *)

(** {1 Content keys} *)

val digest_of : 'a -> string
(** The structural digest every content key is built from: the hex MD5
    of the value's bytes under [Marshal.No_sharing].  For the immutable,
    acyclic, closure-free values the keys cover (function ASTs, derived
    signatures and the type environment) two digests are equal exactly
    when the values are structurally equal, locations included. *)

(** {1 Persistence} *)

val cache_kind : string
val cache_version : int

val save : t -> string
(** The summary cache as a versioned, hash-stamped artifact: the
    canonical flags, then one NDJSON record per cached function result,
    keyed by content, so a later service — possibly in a fresh process —
    can adopt results without re-checking. *)

val load : t -> string -> (int, string) result
(** Load a persisted cache produced by {!save}; [Ok n] is the number of
    persisted summaries now available for key adoption.  A kind, version
    or stamp mismatch returns [Error] and changes nothing. *)
