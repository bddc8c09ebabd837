(** Semantic analysis: symbol resolution and interface extraction.

    Turns parsed translation units into a {!program}: resolved types,
    struct layouts, typedef annotations, globals, and one {!funsig} per
    function — the interface whose annotations drive all checking (paper,
    Section 2).  Implicit annotations are applied here per {!Flags.t} and
    marked, so the checker can word messages the way the paper does
    ("Implicitly temp storage c passed as only param").

    This module owns the program's tables: it alone writes a {!program}
    (the type is [private]) and knows how its tables are laid out.  Every
    other module reads them through the queries below — the [find_*]
    lookups, the source-order views, {!fundefs} — and changes them only
    through {!analyze}, {!update_funsig}, {!patch_fundef} and
    {!set_pragmas}. *)

module Ctype = Ctype
module Flags = Annot.Flags

(** Annotation set plus provenance of its allocation member. *)
type eannot = { an : Annot.set; alloc_implicit : bool }

type field = {
  sf_name : string;
  sf_ty : Ctype.t;
  sf_annots : eannot;
  sf_loc : Cfront.Loc.t;
}

type suinfo = {
  su_tag : string;
  su_union : bool;
  su_fields : field list;
  su_loc : Cfront.Loc.t;
}

type param = {
  pr_name : string;
  pr_ty : Ctype.t;
  pr_annots : eannot;
  pr_loc : Cfront.Loc.t;
}

type funsig = {
  fs_name : string;
  fs_ret : Ctype.t;
  fs_ret_annots : eannot;
  fs_params : param list;
  fs_varargs : bool;
  fs_globals : (string * Annot.set) list;
  fs_modifies : string list option;
      (** [Some []] is "modifies nothing"; [None] is unconstrained *)
  fs_defined : bool;
  fs_static : bool;
  fs_loc : Cfront.Loc.t;
}

type globalvar = {
  gv_name : string;
  gv_ty : Ctype.t;
  gv_annots : eannot;
  gv_static : bool;
  gv_defined : bool;
  gv_loc : Cfront.Loc.t;
}

type fundef_slot
(** One definition's (signature, body) pair, updated in place by
    {!update_funsig} and {!patch_fundef}; read it through {!fundefs}. *)

type func_entry
(** A function's signature and the slots of its definitions; read the
    signature through {!find_func}. *)

(** The analysed program: symbol tables shared by the checker, the
    interpreter and the interface-library writer.  Multiple translation
    units may be analysed into one program (see {!analyze}).  Read its
    tables, order lists and definitions through the queries below, never
    through their fields: an overlay ({!for_check}) holds only what one
    body declares and reads the rest through [p_base], so a field read
    of an overlay misses the program beneath it.  [p_file], [p_pragmas],
    [diags] and [flags] are read directly; the other fields stay visible
    only for the benchmark harness's reads of [p_typedefs]. *)
type program = private {
  p_file : string;
  mutable p_structs : (string, suinfo) Hashtbl.t;
  mutable p_typedefs : (string, Ctype.t * Annot.set) Hashtbl.t;
  mutable p_enum_consts : (string, int64) Hashtbl.t;
  mutable p_funcs : (string, func_entry) Hashtbl.t;
  mutable p_globals : (string, globalvar) Hashtbl.t;
  p_base : program option;
  mutable p_fundefs_rev : fundef_slot list;
  mutable p_struct_order_rev : string list;
  mutable p_typedef_order_rev : string list;
  mutable p_global_order_rev : string list;
  mutable p_func_order_rev : string list;
  mutable p_pragmas : Cfront.Ast.annot list;
  diags : Cfront.Diag.Collector.t;
  flags : Flags.t;
  mutable anon_counter : int;
}

val create_program : ?flags:Flags.t -> file:string -> unit -> program

val for_check : program -> diags:Cfront.Diag.Collector.t -> program
(** An overlay for checking one body against [p]: empty symbol tables
    and definition list, [p] as its base, [diags] as its collector, and
    [p]'s anonymous-tag counter.  Everything the check declares
    (block-scope [typedef]s and [extern]s, inline and anonymous tags,
    enumerators) and everything sema reports lands in the overlay, so
    [p] is never written and concurrent checks may share it.  A block
    [extern] of a known function merges with [p]'s signature.  Costs a
    record; a table is allocated at its first write. *)

(** Lookups: the program's own entry, else its base's (an overlay's
    declarations shadow the program's). *)

val find_struct : program -> string -> suinfo option
val find_typedef : program -> string -> (Ctype.t * Annot.set) option
val find_enum_const : program -> string -> int64 option
val find_func : program -> string -> funsig option
val find_global : program -> string -> globalvar option

val typedef_annots : program -> Ctype.t -> Annot.set
(** Annotations inherited from the typedef layers of a type. *)

val const_eval : program -> Cfront.Ast.expr -> int64 option
(** Compile-time constant evaluation (array sizes, enum values). *)

val resolve_ty : program -> loc:Cfront.Loc.t -> Cfront.Ast.ty -> Ctype.t
(** Resolve an AST type, registering any struct/union/enum definitions it
    contains. *)

val find_field : program -> string -> string -> field option
val fields_of : program -> Ctype.t -> field list

val process_decl : program -> Cfront.Ast.decl -> unit
(** Register one declaration (used by the checker for block-level
    typedef/extern declarations). *)

val analyze :
  ?flags:Flags.t -> ?into:program -> Cfront.Ast.tunit -> program
(** Analyse a translation unit, extending [into] if given (multi-file
    checking shares one environment, as LCLint does with interface
    libraries). *)

val analyze_string :
  ?flags:Flags.t -> ?spec_mode:bool ->
  ?parse:(typedefs:string list -> file:string -> string -> Cfront.Ast.tunit) ->
  ?into:program -> file:string -> string -> program
(** Parse a source string under the typedef names [into] has declared so
    far ({!typedef_order}) and analyse it into [into].  [parse] replaces
    {!Cfront.Parser.parse_string} (the incremental service passes a
    lookup that reuses a cached AST); [spec_mode] applies to the default
    parser only.  [Stdspec.load] runs every source of a program through
    this. *)

val analyze_spec_string :
  ?flags:Flags.t -> ?into:program -> file:string -> string -> program
(** LCL notation: bare-word annotations, as in the paper's standard-library
    excerpts. *)

(** Source-order views of the accumulators. *)

val fundefs : program -> (funsig * Cfront.Ast.fundef) list

val struct_order : program -> string list
val typedef_order : program -> string list
val global_order : program -> string list
val func_order : program -> string list

val enum_consts : program -> (string * int64) list
(** Every enumeration constant and its value, sorted by name.  Like the
    order views, an overlay's holds only what the overlay declares. *)

val set_pragmas : program -> Cfront.Ast.annot list -> unit
(** Replace the program's pragma list (the incremental service rebuilds
    it after patching bodies whose suppression comments changed). *)

val update_funsig : program -> funsig -> unit
(** Replace a function's signature in the symbol table and in every
    (funsig, fundef) pair of that name.  Annotation inference installs
    synthesized annotations through this, keeping both views coherent.
    A pair that no write has touched keeps the funsig it was defined
    with, even after a later redeclaration merged into the table.

    Cost: the pairs sit in the name's symbol-table entry, so a call
    costs O(definitions with that name), whatever the program's size. *)

val patch_fundef : program -> Cfront.Ast.fundef -> (int * funsig) option
(** Swap the AST paired with an already-analyzed definition for a new
    fundef with a structurally identical interface but a changed body —
    the incremental service's body-only-edit patch path (no re-analysis;
    the existing funsig stays, and the pair keeps its {!fundefs}
    position).  Matches by name and header location (file, line and
    column), so of two [static] functions of one name only the named
    file's is swapped.  Returns [Some (i, fs)]: the pair's position in
    {!fundefs} and the signature it keeps, so a caller finds the pair
    without walking the list; [None] when the definition is unknown.
    The caller must have verified interface identity.  Found through the
    name's symbol-table entry: O(definitions with that name). *)

val calls_of_fundef : Cfront.Ast.fundef -> string list
(** Names in direct-call position anywhere in the body, first-occurrence
    order: the edge set of [Summary.Callgraph], and the callees whose
    signatures and summaries an incremental cache entry depends on. *)
