(** Interface libraries for modular checking (Section 7: "By using
    libraries to store interface information, a representative 5000 line
    module is checked in under 10 seconds").

    A library is a program's externally visible interface — typedefs,
    struct layouts, globals and function signatures with their annotations
    — rendered as an annotated C header; loading is just parsing it back
    into a program environment. *)

(** {1 Versioned, hash-stamped persistence}

    Every on-disk artifact — interface libraries here, the incremental
    service's summary caches in [Incr] — is framed the same way: a
    [/* olclint <kind> format <version> */] line, a [/* stamp <md5> */]
    line over the payload, then the payload.  Readers reject wrong
    kinds, wrong versions and corrupted payloads. *)

val library_kind : string
val library_version : int

val stamp : kind:string -> version:int -> string -> string
(** Frame a payload with the kind/version header and content stamp. *)

val unstamp : kind:string -> string -> (int * string, string) result
(** Parse and verify a stamped artifact; [Ok (version, payload)] only
    when the kind matches and the payload digests to the stamp. *)

val save : Sema.program -> string
(** Render the public interface (static definitions are omitted) as a
    stamped artifact of kind {!library_kind}. *)

val load :
  ?flags:Annot.Flags.t -> ?into:Sema.program -> file:string -> string ->
  Sema.program
(** Parse a library (produced by {!save} or hand-written) into a fresh or
    existing program environment.  Stamped artifacts are verified first;
    a version or stamp mismatch raises {!Cfront.Diag.Fatal}. *)
