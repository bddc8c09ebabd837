(** The incremental checking service (see incr.mli for the contract).

    Cache structure:

    - [files]: per-file parse artifacts — the source text, the
      typedef-name snapshot it was parsed under, and the AST.  A
      request's changed set is found by comparing texts (memcmp), so no
      source text is ever hashed; a path-named document whose bytes are
      unchanged arrives as the stored string itself ({!doc_of_file}),
      which makes the comparison a pointer test.  After a Patched
      request the AST shares every unchanged declaration with the
      environment: one AST per definition.
    - [stamps]: per path, the [Unix.stat] stamp {!doc_of_file} saw next
      to the text it returned.  An unchanged stamp whose text the
      service still holds answers the path after one [stat], without
      opening the file, once the stamp is outside the racy window
      ([racy_margin]).
    - [fns]: per-function results keyed by (defining file, name).  An
      entry pins the checked AST object, its direct callees, and what
      besides the body the result depends on, in two strings: the
      environment's {!render_prefix}, physically shared by every entry
      checked in it, and its own {!render_deps}.  It is valid while the
      body is the same and both render the same now; the two strings
      with the body's digest are also its content key.  [order]
      indexes the current entries in definition order, which is the
      order {!assemble} reads them in.
    - [summaries]: under [+xproc], the effect summaries of [env] with the
      call graph they were solved over.  A Patched request refreshes
      them for the bodies it swapped in ({!Summary.refresh}); every
      other tier solves them again.  [summary_hashes] holds their hashes
      for {!render_deps}.
    - [persisted]: content-key → diagnostics, loaded from a {!save}d
      artifact; a miss whose content key is present here adopts the
      stored diagnostics instead of re-checking.

    Every hash above (funsig, type environment, body) is a structural
    digest of the value itself ({!digest_of}: MD5 of its marshalled
    bytes), never of a printed form, so deriving keys costs no
    formatting.

    Update tiers, cheapest first:

    - {e Clean}: no text changed — answer from cache.
    - {e Patched}: every changed file kept all its interfaces
      structurally identical (declarations and function headers equal
      including locations; only bodies differ).  The new bodies are
      patched into the persistent environment with {!Sema.patch_fundef};
      dirty ones are dropped and re-checked, and only the callers of a
      function whose [+xproc] summary moved are validated again.  No
      re-parse of unchanged files, no re-sema of anything.
    - {e Rebuilt}: an interface, the file list or the flag set changed.
      The environment is rebuilt (unchanged files reuse cached ASTs so
      only changed files re-parse) and every function revalidates
      against its dependencies rendered anew — a funsig edit therefore
      re-checks exactly the edited function and the functions that call
      it.

    Each miss is re-checked on its own by {!Check.Checker.check_fundef},
    as the cold drivers check every body, on the {!Parcheck.map_tasks}
    pool.  A body sees the interfaces and its own declarations only: it
    checks against its own overlay, so the persistent environment stays
    as sema built it, and no result depends on a sibling body.  The
    answer is assembled by {!Check.finish}, the cold drivers' emission
    step, so it is byte-identical to a cold [olclint] run at every
    [-j]. *)

module Ast = Cfront.Ast
module Diag = Cfront.Diag
module Loc = Cfront.Loc
module Flags = Annot.Flags
module J = Telemetry.Json

type doc = { doc_name : string; doc_text : string }

type fn_entry = {
  mutable fn_fd : Ast.fundef;  (** the AST object the result is for *)
  fn_calls : string list;  (** its direct callees, {!Sema.calls_of_fundef} *)
  fn_prefix : string;
      (** the environment's {!render_prefix} when it was checked *)
  fn_deps : string;  (** its own {!render_deps} when it was checked *)
  fn_diags : Diag.t list;  (** raw checker output, unsorted, unsuppressed *)
}

type file_entry = {
  fe_text : string;
  fe_typedefs : string list;  (** typedef names in scope at parse time *)
  fe_ast : Ast.tunit;
}

(* What [stat] said about a path when {!doc_of_file} returned
   [sp_text] for it. *)
type stamp = {
  sp_dev : int;
  sp_ino : int;
  sp_size : int;
  sp_mtime : float;
  sp_ctime : float;
  sp_text : string;
  sp_trusted : bool;
      (** mtime and ctime were [racy_margin] older than the read: any
          later write gets a different mtime or ctime *)
}

(* The answer {!assemble} last gave, kept while nothing it was made
   from has changed. *)
type answer = {
  an_kept : Diag.t list;
  an_suppressed : Diag.t list;
  an_errors : Diag.t list;
      (** the suppression table's errors among them, which every
          emission counts again in telemetry *)
}

type t = {
  base_flags : Flags.t;
  no_stdlib : bool;
  libs : (string * string) list;
  specs : (string * string) list;
  mutable flags : Flags.t;
  mutable flags_canon : string;
  mutable env : Sema.program option;
  mutable base_pragmas : Ast.annot list;
      (** pragmas contributed by libraries/specs, before any document *)
  mutable doc_order : string list;
  files : (string, file_entry) Hashtbl.t;
  stamps : (string, stamp) Hashtbl.t;
  fns : (string * string, fn_entry) Hashtbl.t;
  mutable order : fn_entry array;
      (** the [fns] entry of each function at its {!Sema.fundefs}
          position: rebuilt by every full revalidation; a Patched one
          replaces only the slots it validated, at the positions
          {!Sema.patch_fundef} returned or a caller scan found *)
  mutable answer : answer option;
      (** [None] once a request changed a pragma, an entry's
          diagnostics or the environment *)
  mutable sig_hashes : (string, string) Hashtbl.t;
  mutable summaries : Summary.solution option;
      (** the [+xproc] effect summaries of [env]; [None] otherwise *)
  mutable summary_hashes : (string, string) Hashtbl.t;
      (** function → effect-summary hash; brought up to date at the top
          of every revalidation when [+xproc] is on, empty otherwise *)
  mutable deps_prefix : string;
      (** {!render_prefix} of [env]; one string while it renders the
          same, so entries share it *)
  mutable gen : int;  (** environments built *)
  persisted : (string, string * string * Diag.t list) Hashtbl.t;
      (** content key → (file, fn, diagnostics) *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_invalidated : int;
  mutable n_rechecked : int;
  mutable n_validated : int;
  mutable n_doc_reads : int;  (** documents whose bytes were read *)
}

let create ?(flags = Flags.default) ?(no_stdlib = false) ?(load_libs = [])
    ?(lcl_specs = []) () =
  {
    base_flags = flags;
    no_stdlib;
    libs = load_libs;
    specs = lcl_specs;
    flags;
    flags_canon = Flags.canonical flags;
    env = None;
    base_pragmas = [];
    doc_order = [];
    files = Hashtbl.create 64;
    stamps = Hashtbl.create 64;
    fns = Hashtbl.create 256;
    order = [||];
    answer = None;
    sig_hashes = Hashtbl.create 256;
    summaries = None;
    summary_hashes = Hashtbl.create 256;
    deps_prefix = "";
    gen = 0;
    persisted = Hashtbl.create 64;
    n_hits = 0;
    n_misses = 0;
    n_invalidated = 0;
    n_rechecked = 0;
    n_validated = 0;
    n_doc_reads = 0;
  }

(* ------------------------------------------------------------------ *)
(* Reading documents                                                   *)
(* ------------------------------------------------------------------ *)

(* One read buffer per domain: a per-file buffer would allocate as much
   as the text it saves. *)
let read_buffer = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Is the rest of the file behind [fd] exactly [text]?  Reads through
   [read_buffer] and compares 8 bytes at a time, so an unchanged file
   costs no allocation, and asks for one more byte at the end: the file
   must end where the text does, whatever size [stat] saw. *)
let same_contents fd text =
  let buf = Domain.DLS.get read_buffer in
  let len = String.length text in
  let rec chunk off =
    if off >= len then Unix.read fd buf 0 1 = 0
    else
      let n = Unix.read fd buf 0 (min (Bytes.length buf) (len - off)) in
      let rec words i =
        if i + 8 > n then bytes i
        else
          Int64.equal (Bytes.get_int64_ne buf i)
            (String.get_int64_ne text (off + i))
          && words (i + 8)
      and bytes i =
        i >= n
        || Char.equal (Bytes.unsafe_get buf i) (String.unsafe_get text (off + i))
           && bytes (i + 1)
      in
      n > 0 && words 0 && chunk (off + n)
  in
  chunk 0

(* The file's text, read whole into a fresh string. *)
let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The file's text: [held] itself when the bytes equal it, compared
   through a plain descriptor (no channel, no seek), else a fresh
   string. *)
let read_text ?held path =
  match held with
  | None -> read_whole path
  | Some text ->
      let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      let same =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> same_contents fd text)
      in
      if same then text else read_whole path

(* How much older than a read a file's mtime and ctime must be before
   their stamp is trusted without reading the bytes (git's racy-git
   rule).  A write within the same timestamp tick as the one the read
   saw leaves the stamp unchanged, so the margin must cover the
   coarsest file-timestamp granularity in common use: 2 s (FAT).  A
   file written within the margin of a read is compared again on every
   request until a comparison happens outside it. *)
let racy_margin = 2.0

let doc_of_file ?current path =
  match current with
  | None -> { doc_name = path; doc_text = read_text path }
  | Some t -> (
      let held =
        Option.map (fun fe -> fe.fe_text) (Hashtbl.find_opt t.files path)
      in
      let read_at = Unix.gettimeofday () in
      let st = Unix.stat path in
      (* a directory opens, then fails to read with a misleading error *)
      if st.Unix.st_kind = Unix.S_DIR then
        raise (Sys_error (path ^ ": Is a directory"));
      match (Hashtbl.find_opt t.stamps path, held) with
      | Some sp, Some text
        when sp.sp_trusted && sp.sp_text == text && sp.sp_ino = st.Unix.st_ino
             && sp.sp_dev = st.Unix.st_dev && sp.sp_size = st.Unix.st_size
             && Float.equal sp.sp_mtime st.Unix.st_mtime
             && Float.equal sp.sp_ctime st.Unix.st_ctime ->
          { doc_name = path; doc_text = text }
      | _ ->
          let text = read_text ?held path in
          t.n_doc_reads <- t.n_doc_reads + 1;
          let settled = read_at -. racy_margin in
          Hashtbl.replace t.stamps path
            {
              sp_dev = st.Unix.st_dev;
              sp_ino = st.Unix.st_ino;
              sp_size = st.Unix.st_size;
              sp_mtime = st.Unix.st_mtime;
              sp_ctime = st.Unix.st_ctime;
              sp_text = text;
              sp_trusted =
                st.Unix.st_mtime <= settled && st.Unix.st_ctime <= settled;
            };
          { doc_name = path; doc_text = text })

type tier = Cold | Clean | Patched | Rebuilt

let tier_name = function
  | Cold -> "cold"
  | Clean -> "clean"
  | Patched -> "patched"
  | Rebuilt -> "rebuilt"

type outcome = {
  oc_tier : tier;
  oc_kept : Diag.t list;
  oc_suppressed : Diag.t list;
  oc_functions : int;
  oc_hits : int;
  oc_misses : int;
  oc_rechecked : int;
  oc_invalidated : int;
}

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let hex s = Digest.to_hex (Digest.string s)

(* The structural digest every content key is built from: the MD5 of
   the value's marshalled bytes.  [No_sharing] makes those bytes a
   function of the value's structure alone; with sharing, two equal ASTs
   built with different physical sharing would serialize differently
   and miss.  Invariant: every value digested here ([Ast.fundef],
   [Sema.funsig]/[suinfo]/[globalvar], [Ctype.t], [Annot.set], strings
   and integers) is immutable and acyclic and holds no closure,
   [Hashtbl], lazy value or mutable field, so structurally equal values
   marshal to equal bytes. *)
let digest_of v = hex (Marshal.to_string v [ Marshal.No_sharing ])

(* The funsig hash covers the full derived signature — name, resolved
   types, annotations (provenance bits included), globals/modifies
   lists, linkage and the declaration location.  Including the location
   keeps cached note lines honest: a callee whose declaration moved
   conservatively invalidates its callers. *)
let funsig_hash (fs : Sema.funsig) = digest_of fs

(* Everything a body check can read besides funsigs: struct layouts,
   typedef expansions and annotations, global variables, enum constants,
   digested together in declaration (enums: sorted) order.  Struct and
   field locations are left out: only sema reads them, and no message a
   cached result holds cites them, so a line shift above a struct keeps
   every key.  A global's location stays in: [entry_state]'s messages
   cite it. *)
let typeenv_fingerprint (env : Sema.program) =
  let in_order find order f =
    List.filter_map (fun name -> Option.map (f name) (find env name)) order
  in
  let structs =
    in_order Sema.find_struct (Sema.struct_order env)
      (fun _ (su : Sema.suinfo) ->
        {
          su with
          Sema.su_loc = Loc.dummy;
          su_fields =
            List.map
              (fun (f : Sema.field) -> { f with Sema.sf_loc = Loc.dummy })
              su.Sema.su_fields;
        })
  in
  let typedefs =
    in_order Sema.find_typedef (Sema.typedef_order env)
      (fun name (ty, set) -> (name, ty, set))
  in
  let globals =
    in_order Sema.find_global (Sema.global_order env) (fun _ gv -> gv)
  in
  digest_of (structs, typedefs, globals, Sema.enum_consts env)

let cache_kind = "summary-cache"
let cache_version = 8
let version_line = string_of_int cache_version ^ "\n"

(* Everything the result of checking one function depends on besides its
   body comes in two parts.  The prefix is what every function of an
   environment shares: the cache format itself, the flag set and the
   type environment ([typeenv_fingerprint]). *)
let render_prefix ~canon typeenv_hash =
  String.concat "" [ version_line; canon; "\n"; typeenv_hash; "\n" ]

(* The rest, rendered into [b] (cleared first): the function's own
   signature, the signatures of [calls] (its direct callees) and, under
   [+xproc] only, their derived effect summaries, which the checker
   reads there.  A body's own declarations are part of the body, and no
   other body's are in force while it is checked.  An entry stores this
   string and is valid while it and the prefix render the same; with
   the prefix and the body it makes the content key ({!content_key}). *)
let render_deps b t (fs : Sema.funsig) calls =
  let hash tbl name =
    match Hashtbl.find_opt tbl name with Some h -> h | None -> "?"
  in
  let callees sep tbl =
    List.iter
      (fun c ->
        Buffer.add_string b c;
        Buffer.add_char b sep;
        Buffer.add_string b (hash tbl c);
        Buffer.add_char b ';')
      calls;
    Buffer.add_char b '\n'
  in
  Buffer.clear b;
  Buffer.add_string b
    (match Hashtbl.find_opt t.sig_hashes fs.Sema.fs_name with
    | Some h -> h
    | None -> funsig_hash fs);
  Buffer.add_char b '\n';
  callees '=' t.sig_hashes;
  if t.flags.Flags.xproc then callees '!' t.summary_hashes

(* One buffer per domain for {!render_deps}: an entry validated in place
   allocates nothing. *)
let deps_buffer = Domain.DLS.new_key (fun () -> Buffer.create 1024)

(* Does [b] hold exactly [s]? *)
let holds b s =
  let n = String.length s in
  let rec from i =
    i = n || (Char.equal (Buffer.nth b i) s.[i] && from (i + 1))
  in
  Buffer.length b = n && from 0

(* The content key of one function result — the on-disk identity: its
   dependencies ({!render_prefix}, {!render_deps}) and the exact body
   (the structural digest of the AST with its locations, so even a pure
   reformat that moves lines gets a fresh key — diagnostics carry line
   numbers). *)
let content_key prefix deps (fd : Ast.fundef) =
  hex (String.concat "" [ prefix; deps; digest_of fd ])

(* ------------------------------------------------------------------ *)
(* Structural interface comparison (the Patched-tier gate)             *)
(* ------------------------------------------------------------------ *)

let skip_body =
  { Ast.s = Ast.Sskip; Ast.sloc = { Loc.file = ""; line = 0; col = 0 } }

(* True when the two units have the same top-level declarations in the
   same order, every one structurally equal including its locations,
   except that function bodies may differ: a function definition is
   compared with its body blanked out.  Because locations count, a body
   edit that shifts the headers of later functions is not body-only and
   takes the Rebuilt tier. *)
let body_only_change (old_tu : Ast.tunit) (new_tu : Ast.tunit) =
  List.length old_tu.Ast.tu_decls = List.length new_tu.Ast.tu_decls
  && List.for_all2
       (fun od nd ->
         match (od, nd) with
         | Ast.Tfundef a, Ast.Tfundef b ->
             Ast.equal_fundef
               { a with Ast.f_body = skip_body }
               { b with Ast.f_body = skip_body }
         | _ -> Ast.equal_topdecl od nd)
       old_tu.Ast.tu_decls new_tu.Ast.tu_decls

(* ------------------------------------------------------------------ *)
(* Environment (re)construction                                        *)
(* ------------------------------------------------------------------ *)

(* Build a complete environment for [docs] through the program loader.
   Its parse step reuses the AST of a file whose text and typedef scope
   are both unchanged: the cached one, or one in [fresh] (files the
   request already parsed, by name).  It records what every file was
   parsed under.  Raises [Diag.Fatal] on frontend errors — the caller
   commits no state until this returns. *)
let build_env ?(fresh = []) t ~flags docs =
  let new_files = Hashtbl.create (List.length docs * 2) in
  let doc_pragmas = ref 0 in
  let parse ~typedefs ~file text =
    let reusable fe =
      String.equal fe.fe_text text && fe.fe_typedefs = typedefs
    in
    let ast =
      match Hashtbl.find_opt t.files file with
      | Some fe when reusable fe -> fe.fe_ast
      | _ -> (
          match List.assoc_opt file fresh with
          | Some fe when reusable fe -> fe.fe_ast
          | _ -> Cfront.Parser.parse_string ~typedefs ~file text)
    in
    doc_pragmas := !doc_pragmas + List.length ast.Ast.tu_pragmas;
    Hashtbl.replace new_files file
      { fe_text = text; fe_typedefs = typedefs; fe_ast = ast };
    ast
  in
  let env =
    Stdspec.load ~flags ~no_stdlib:t.no_stdlib ~libs:(List.to_seq t.libs)
      ~specs:(List.to_seq t.specs) ~parse
      (Seq.map (fun d -> (d.doc_name, d.doc_text)) (List.to_seq docs))
  in
  (* the libraries' and specs' pragmas come before every document's *)
  let n_base = List.length env.Sema.p_pragmas - !doc_pragmas in
  let base_pragmas = List.filteri (fun i _ -> i < n_base) env.Sema.p_pragmas in
  (env, base_pragmas, new_files)

let commit_env t ~flags ~canon env base_pragmas new_files docs =
  t.env <- Some env;
  t.flags <- flags;
  t.flags_canon <- canon;
  t.base_pragmas <- base_pragmas;
  t.doc_order <- List.map (fun d -> d.doc_name) docs;
  Hashtbl.reset t.files;
  Hashtbl.iter (Hashtbl.replace t.files) new_files;
  (* a stamp pins its text: keep only those of the documents checked *)
  Hashtbl.filter_map_inplace
    (fun path sp -> if Hashtbl.mem t.files path then Some sp else None)
    t.stamps;
  let names = Sema.func_order env in
  let sigs = Hashtbl.create (List.length names * 2) in
  List.iter
    (fun name ->
      Option.iter
        (fun fs -> Hashtbl.replace sigs name (funsig_hash fs))
        (Sema.find_func env name))
    names;
  t.sig_hashes <- sigs;
  (* the next revalidation solves the new environment from scratch; the
     old solution is dead from here on, so let the collector have it
     while the new one is built *)
  t.summaries <- None;
  let prefix = render_prefix ~canon (typeenv_fingerprint env) in
  (* an unchanged prefix stays the string the entries already share *)
  if not (String.equal prefix t.deps_prefix) then t.deps_prefix <- prefix;
  t.gen <- t.gen + 1

(* ------------------------------------------------------------------ *)
(* Validation and re-checking                                          *)
(* ------------------------------------------------------------------ *)

let fn_id (fs : Sema.funsig) = (fs.Sema.fs_loc.Loc.file, fs.Sema.fs_name)

(* Validate the cached result of [fd]: [Ok e] when entry [e] is for the
   same body and its dependencies render now ([t.deps_prefix],
   {!render_deps}) as they did when it was checked; otherwise
   [Error (calls, deps)], the callees and own dependencies a new entry
   for [fd] is made with.  [String.equal] compares a shared prefix by
   address. *)
let entry_valid t (fs : Sema.funsig) (fd : Ast.fundef) =
  let b = Domain.DLS.get deps_buffer in
  let same =
    match Hashtbl.find_opt t.fns (fn_id fs) with
    | Some e when e.fn_fd == fd || Ast.equal_fundef e.fn_fd fd -> Some e
    | _ -> None
  in
  (* an entry for the same body knows its callees *)
  let calls =
    match same with Some e -> e.fn_calls | None -> Sema.calls_of_fundef fd
  in
  render_deps b t fs calls;
  match same with
  | Some e when String.equal e.fn_prefix t.deps_prefix && holds b e.fn_deps ->
      Ok e
  | _ -> Error (calls, Buffer.contents b)

let add_entry t ((fs : Sema.funsig), fd, calls, deps) diags =
  Hashtbl.replace t.fns (fn_id fs)
    {
      fn_fd = fd;
      fn_calls = calls;
      fn_prefix = t.deps_prefix;
      fn_deps = deps;
      fn_diags = diags;
    }

(* [+xproc]: bring the effect summaries and their hashes up to date.
   [dirty] holds the definitions a Patched request swapped in; only
   their components and the callers their new summaries reach are
   re-solved and re-hashed.  Every other tier solves from scratch.
   Returns the table and [Some] the names whose summary hash may have
   moved, or [None] when any may have. *)
let update_summaries t env ~dirty =
  if not t.flags.Flags.xproc then begin
    t.summaries <- None;
    if Hashtbl.length t.summary_hashes > 0 then
      t.summary_hashes <- Hashtbl.create 256;
    (None, Some [])
  end
  else
    match (dirty, t.summaries) with
    | Some dirty, Some sol ->
        let changed = Summary.refresh env sol ~dirty in
        let tbl = Summary.table sol in
        List.iter
          (fun name ->
            Hashtbl.replace t.summary_hashes name
              (Summary.hash (Hashtbl.find tbl name)))
          changed;
        (Some tbl, Some changed)
    | _ ->
        let sol = Summary.solve env in
        let tbl = Summary.table sol in
        let hashes = Hashtbl.create (Hashtbl.length tbl * 2) in
        Hashtbl.iter
          (fun name sm -> Hashtbl.replace hashes name (Summary.hash sm))
          tbl;
        t.summaries <- Some sol;
        t.summary_hashes <- hashes;
        (Some tbl, None)

(* Validate every function of the environment against the cache (on
   the Patched fast path, only the swapped-in bodies and the callers of
   a moved summary); adopt persisted results by content key; re-check
   the rest with {!Check.Checker.check_fundef}, each miss on its own, on
   the checking pool; bring [t.order] up to date.  [patched] holds the
   position, signature and new body of each definition a Patched
   request swapped in.  Returns (hits, misses, rechecked). *)
let revalidate_and_check t ~jobs ~patched (env : Sema.program) =
  (* summaries first: the dependencies of a caller under [+xproc] name
     its callees' summary hashes, so a callee body edit that changes the
     callee's derived effects (with an unchanged declared signature)
     invalidates its cached callers *)
  let summaries, moved =
    update_summaries t env
      ~dirty:(Option.map (List.map (fun (_, _, fd) -> fd)) patched)
  in
  (* a Patched request changed no interface and dropped exactly the
     entries of the bodies it swapped in; every other function keeps its
     entry, in its slot of [t.order] (the invariant the Clean tier
     relies on), and its dependencies render the same unless a callee's
     summary moved.  So only those bodies, found at the positions
     {!Sema.patch_fundef} returned, and the callers of a moved summary,
     found by a scan made only when a summary moved, need validating *)
  let slots =
    match (patched, moved) with
    | Some dirty, Some [] ->
        Some (List.map (fun (i, fs, fd) -> (i, (fs, fd))) dirty)
    | Some dirty, Some moved ->
        let moved_set = Hashtbl.create 16 in
        List.iter (fun name -> Hashtbl.replace moved_set name ()) moved;
        let stale i =
          List.exists (fun (j, _, _) -> j = i) dirty
          || List.exists (Hashtbl.mem moved_set) t.order.(i).fn_calls
        in
        let rec find i = function
          | [] -> []
          | pair :: rest ->
              if stale i then (i, pair) :: find (i + 1) rest
              else find (i + 1) rest
        in
        Some (find 0 (Sema.fundefs env))
    | _ -> None
  in
  let pairs =
    match slots with
    | Some s -> List.map snd s
    | None -> Sema.fundefs env
  in
  let validated = List.length pairs in
  t.n_validated <- t.n_validated + validated;
  Telemetry.Counter.add Telemetry.c_incr_validated validated;
  let hits =
    ref
      (match slots with
      | Some _ -> Array.length t.order - validated
      | None -> 0)
  and misses = ref 0 in
  let miss_list =
    List.filter_map
      (fun ((fs : Sema.funsig), fd) ->
        match entry_valid t fs fd with
        | Ok e ->
            e.fn_fd <- fd;
            incr hits;
            None
        | Error (calls, deps) ->
            incr misses;
            Some (fs, fd, calls, deps))
      pairs
  in
  (* a miss whose content key is in the persisted cache adopts the
     stored result — a restarted service warms up without re-checking *)
  let to_check =
    Array.of_list
      (if Hashtbl.length t.persisted = 0 then miss_list
       else
         List.filter
           (fun ((_, fd, _, deps) as miss) ->
             match
               Hashtbl.find_opt t.persisted (content_key t.deps_prefix deps fd)
             with
             | Some (_, _, diags) ->
                 add_entry t miss diags;
                 incr hits;
                 decr misses;
                 false
             | None -> true)
           miss_list)
  in
  (* the persistent environment stays pristine: each body writes only
     its own overlay *)
  let results =
    Parcheck.map_tasks ~jobs (Array.length to_check) (fun i ->
        let fs, fd, _, _ = to_check.(i) in
        let diags = Diag.Collector.create () in
        Check.Checker.check_fundef ~diags ?summaries env fs fd;
        Diag.Collector.all diags)
  in
  Array.iteri (fun i diags -> add_entry t to_check.(i) diags) results;
  (* every function now has its current entry in [t.fns]; a slot whose
     diagnostics changed changes the answer *)
  let entry (fs : Sema.funsig) = Hashtbl.find t.fns (fn_id fs) in
  (match slots with
  | Some s ->
      List.iter
        (fun (i, (fs, _)) ->
          let e = entry fs and old = t.order.(i) in
          if e != old && e.fn_diags <> old.fn_diags then t.answer <- None;
          t.order.(i) <- e)
        s
  | None ->
      t.answer <- None;
      t.order <- Array.of_list (List.map (fun (fs, _) -> entry fs) pairs));
  (!hits, !misses, Array.length to_check)

(* The request's answer: the cached per-function results in definition
   order through the cold drivers' emission step, or the previous answer
   while it stands. *)
let assemble t (env : Sema.program) =
  match t.answer with
  | Some an ->
      (* what {!Check.finish} counts on every emission *)
      List.iter
        (fun d ->
          Telemetry.count (Telemetry.diag_counter_prefix ^ Diag.category d) 1)
        an.an_errors;
      (an.an_kept, an.an_suppressed)
  | None ->
      let kept, suppressed =
        Check.finish env
          (Array.fold_right (fun e acc -> e.fn_diags @ acc) t.order [])
      in
      (* the suppression table's errors carry its code, which nothing
         else emits *)
      let errors = List.filter (fun (d : Diag.t) -> d.Diag.code = "suppress") in
      t.answer <-
        Some
          {
            an_kept = kept;
            an_suppressed = suppressed;
            an_errors = errors kept @ errors suppressed;
          };
      (kept, suppressed)

(* ------------------------------------------------------------------ *)
(* The check request                                                   *)
(* ------------------------------------------------------------------ *)

let rebuild_pragmas t =
  t.base_pragmas
  @ List.concat_map
      (fun name ->
        match Hashtbl.find_opt t.files name with
        | Some fe -> fe.fe_ast.Ast.tu_pragmas
        | None -> [])
      t.doc_order

(* Build and commit the environment of [docs].  The replaced
   environment and its summaries are dropped and collected first, so
   the old and the new one are never live together.  If the build
   raises [Diag.Fatal], the previous environment is built again from
   the cached ASTs of [t.doc_order] (their texts and typedef scopes are
   unchanged, so nothing is parsed) and the error is re-raised: the
   service answers as before.  After an [invalidate] of some of its
   files that is not possible, and the old environment stays live
   while the new one is built.  [fresh] is passed to {!build_env}. *)
let rebuild ?fresh t ~flags ~canon docs =
  let restorable =
    Option.is_some t.env && List.for_all (Hashtbl.mem t.files) t.doc_order
  in
  t.answer <- None;
  if restorable then begin
    t.env <- None;
    t.summaries <- None;
    Gc.full_major ()
  end;
  match build_env ?fresh t ~flags docs with
  | env, base_pragmas, new_files ->
      commit_env t ~flags ~canon env base_pragmas new_files docs
  | exception (Diag.Fatal _ as e) ->
      if restorable then begin
        let docs =
          List.map
            (fun name ->
              { doc_name = name; doc_text = (Hashtbl.find t.files name).fe_text })
            t.doc_order
        in
        let env, _, _ = build_env t ~flags:t.flags docs in
        t.env <- Some env;
        if t.flags.Flags.xproc then t.summaries <- Some (Summary.solve env)
      end;
      raise e

(* Decide how to bring the environment up to date with [docs]; returns
   the tier and, for Patched, the position, signature and new body of
   each definition swapped in.  Raises [Diag.Fatal] with the service
   answering as before. *)
let update t ~flags ~canon docs =
  let structure_changed =
    t.env = None
    || (not (String.equal canon t.flags_canon))
    || List.map (fun d -> d.doc_name) docs <> t.doc_order
  in
  if structure_changed then begin
    let was_cold = t.env = None in
    rebuild t ~flags ~canon docs;
    ((if was_cold then Cold else Rebuilt), None)
  end
  else begin
    let changed =
      List.filter
        (fun d ->
          match Hashtbl.find_opt t.files d.doc_name with
          | Some fe -> not (String.equal fe.fe_text d.doc_text)
          | None -> true)
        docs
    in
    if changed = [] then (Clean, None)
    else begin
      (* parse every changed file under its recorded typedef scope and
         test for body-only change; any interface difference (or a
         brand-new file) forces a rebuild *)
      let parsed =
        List.map
          (fun d ->
            match Hashtbl.find_opt t.files d.doc_name with
            | None -> (d, None)
            | Some fe ->
                let tu =
                  Cfront.Parser.parse_string ~typedefs:fe.fe_typedefs
                    ~file:d.doc_name d.doc_text
                in
                (d, Some (fe, tu)))
          changed
      in
      let patchable =
        List.for_all
          (function
            | _, Some (fe, tu) -> body_only_change fe.fe_ast tu
            | _, None -> false)
          parsed
      in
      if not patchable then begin
        (* the rebuild parses a changed file again only if its typedef
           scope moved *)
        let fresh =
          List.filter_map
            (fun (d, p) ->
              Option.map
                (fun (fe, tu) ->
                  ( d.doc_name,
                    {
                      fe_text = d.doc_text;
                      fe_typedefs = fe.fe_typedefs;
                      fe_ast = tu;
                    } ))
                p)
            parsed
        in
        rebuild ~fresh t ~flags ~canon docs;
        (Rebuilt, None)
      end
      else begin
        let env = Option.get t.env in
        let patched = ref [] and pragmas_moved = ref false in
        List.iter
          (fun (d, p) ->
            let fe, tu = Option.get p in
            (* the stored AST keeps every unchanged declaration object
               (the ones the environment points at) and takes only the
               swapped bodies from the new parse, so the file holds one
               AST per definition *)
            let decls =
              List.map2
                (fun od nd ->
                  match (od, nd) with
                  | Ast.Tfundef ofd, Ast.Tfundef nfd
                    when not (Ast.equal_fundef ofd nfd) ->
                      (* dirty body: swap the AST in place, drop the entry *)
                      Option.iter
                        (fun (i, fs) -> patched := (i, fs, nfd) :: !patched)
                        (Sema.patch_fundef env nfd);
                      let id = (d.doc_name, nfd.Ast.f_name) in
                      if Hashtbl.mem t.fns id then begin
                        Hashtbl.remove t.fns id;
                        t.n_invalidated <- t.n_invalidated + 1;
                        Telemetry.Counter.tick Telemetry.c_incr_invalidations
                      end;
                      nd
                  | _ -> od)
                fe.fe_ast.Ast.tu_decls tu.Ast.tu_decls
            in
            if fe.fe_ast.Ast.tu_pragmas <> tu.Ast.tu_pragmas then
              pragmas_moved := true;
            Hashtbl.replace t.files d.doc_name
              {
                fe_text = d.doc_text;
                fe_typedefs = fe.fe_typedefs;
                fe_ast = { tu with Ast.tu_decls = decls };
              })
          parsed;
        (* suppression comments live in the per-file pragma lists; a
           body edit may have changed them *)
        if !pragmas_moved then begin
          Sema.set_pragmas env (rebuild_pragmas t);
          t.answer <- None
        end;
        (Patched, Some !patched)
      end
    end
  end

let check ?(jobs = 1) ?(flag_args = []) t docs =
  match Flags.apply_all t.base_flags flag_args with
  | Error (Flags.Unknown_flag name) ->
      Error
        (Diag.make
           ~loc:{ Loc.file = "<request>"; line = 1; col = 1 }
           ~code:"flag"
           (Printf.sprintf "unknown flag '%s'" name))
  | Ok flags -> (
      let canon = Flags.canonical flags in
      match update t ~flags ~canon docs with
      | exception Diag.Fatal d -> Error d
      | tier, patched ->
          let env = Option.get t.env in
          let hits, misses, rechecked =
            match tier with
            | Clean ->
                (* nothing to validate: every entry is current *)
                (Array.length t.order, 0, 0)
            | _ -> revalidate_and_check t ~jobs ~patched env
          in
          t.n_hits <- t.n_hits + hits;
          t.n_misses <- t.n_misses + misses;
          t.n_rechecked <- t.n_rechecked + rechecked;
          Telemetry.Counter.add Telemetry.c_incr_hits hits;
          Telemetry.Counter.add Telemetry.c_incr_misses misses;
          Telemetry.Counter.add Telemetry.c_incr_rechecked rechecked;
          let kept, suppressed = assemble t env in
          Ok
            {
              oc_tier = tier;
              oc_kept = kept;
              oc_suppressed = suppressed;
              oc_functions = Array.length t.order;
              oc_hits = hits;
              oc_misses = misses;
              oc_rechecked = rechecked;
              oc_invalidated = t.n_invalidated;
            })

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let invalidate t files =
  let dropped = ref 0 in
  t.answer <- None;
  (match files with
  | None ->
      dropped := Hashtbl.length t.fns;
      Hashtbl.reset t.fns;
      Hashtbl.reset t.files;
      Hashtbl.reset t.stamps;
      Hashtbl.reset t.persisted;
      t.env <- None;
      t.doc_order <- []
  | Some names ->
      List.iter
        (fun name ->
          Hashtbl.remove t.files name;
          Hashtbl.remove t.stamps name;
          let victims =
            Hashtbl.fold
              (fun ((f, _) as id) _ acc ->
                if String.equal f name then id :: acc else acc)
              t.fns []
          in
          List.iter (Hashtbl.remove t.fns) victims;
          dropped := !dropped + List.length victims;
          let pvictims =
            Hashtbl.fold
              (fun key (f, _, _) acc ->
                if String.equal f name then key :: acc else acc)
              t.persisted []
          in
          List.iter (Hashtbl.remove t.persisted) pvictims)
        names);
  t.n_invalidated <- t.n_invalidated + !dropped;
  Telemetry.Counter.add Telemetry.c_incr_invalidations !dropped;
  !dropped

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats t =
  [
    ("doc_reads", t.n_doc_reads);
    ("entries", Hashtbl.length t.fns);
    ("files", Hashtbl.length t.files);
    ( "functions",
      match t.env with Some e -> List.length (Sema.fundefs e) | None -> 0 );
    ("generation", t.gen);
    ("incr_hits", t.n_hits);
    ("incr_invalidations", t.n_invalidated);
    ("incr_misses", t.n_misses);
    ("incr_rechecked", t.n_rechecked);
    ("incr_validated", t.n_validated);
    ("persisted", Hashtbl.length t.persisted);
  ]

let environment t = t.env

let file_ast t name = Option.map (fun fe -> fe.fe_ast) (Hashtbl.find_opt t.files name)

let stamped t path = Hashtbl.mem t.stamps path

let summaries t = Option.map Summary.table t.summaries

let summary_hashes t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.summary_hashes []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let summaries_marker = "[summaries]"

let save t =
  let b = Buffer.create 65536 in
  Buffer.add_string b ("flags " ^ t.flags_canon ^ "\n");
  Buffer.add_string b (summaries_marker ^ "\n");
  let record key file fn diags =
    Buffer.add_string b
      (J.to_string
         (J.Obj
            [
              ("key", J.String key);
              ("file", J.String file);
              ("fn", J.String fn);
              ("diags", J.List (List.map Diag.to_json diags));
            ]));
    Buffer.add_char b '\n'
  in
  (* live entries first, then any still-unsuperseded adopted records:
     caches accumulate *)
  let written = Hashtbl.create 256 in
  (match t.env with
  | Some env ->
      List.iter
        (fun ((fs : Sema.funsig), _) ->
          match Hashtbl.find_opt t.fns (fn_id fs) with
          | Some e ->
              let key = content_key e.fn_prefix e.fn_deps e.fn_fd in
              if not (Hashtbl.mem written key) then begin
                Hashtbl.add written key ();
                record key (fst (fn_id fs)) fs.Sema.fs_name e.fn_diags
              end
          | _ -> ())
        (Sema.fundefs env)
  | None -> ());
  Hashtbl.iter
    (fun key (file, fn, diags) ->
      if not (Hashtbl.mem written key) then begin
        Hashtbl.add written key ();
        record key file fn diags
      end)
    t.persisted;
  Check.Libspec.stamp ~kind:cache_kind ~version:cache_version
    (Buffer.contents b)

let load t text =
  match Check.Libspec.unstamp ~kind:cache_kind text with
  | Error _ as e -> e
  | Ok (v, _) when v <> cache_version ->
      Error
        (Printf.sprintf "summary cache has format version %d, this build reads %d"
           v cache_version)
  | Ok (_, payload) -> (
      (* summaries follow the [summaries] marker line; the scan jumps
         from newline to newline and compares in place *)
      let occurs_at i sub =
        let n = String.length sub in
        i + n <= String.length payload
        &&
        let rec same k = k = n || (payload.[i + k] = sub.[k] && same (k + 1)) in
        same 0
      in
      let marker = "\n" ^ summaries_marker ^ "\n" in
      let rec find i =
        match String.index_from_opt payload i '\n' with
        | None -> None
        | Some j when occurs_at j marker -> Some (j + String.length marker)
        | Some j -> find (j + 1)
      in
      let start =
        if
          String.length payload > String.length summaries_marker
          && occurs_at 0 summaries_marker
        then Some (String.length summaries_marker + 1)
        else find 0
      in
      match start with
      | None -> Error "summary cache has no [summaries] section"
      | Some start ->
          let body =
            String.sub payload start (String.length payload - start)
          in
          let n = ref 0 in
          let err = ref None in
          List.iter
            (fun line ->
              if String.trim line <> "" && !err = None then
                match J.of_string line with
                | Error e -> err := Some e
                | Ok j -> (
                    let str k = Option.bind (J.member k j) J.to_string_opt in
                    match (str "key", str "file", str "fn", J.member "diags" j) with
                    | Some key, Some file, Some fn, Some (J.List ds) -> (
                        let diags =
                          List.fold_left
                            (fun acc d ->
                              match (acc, Diag.of_json d) with
                              | Ok acc, Ok d -> Ok (d :: acc)
                              | Ok _, (Error _ as e) -> e
                              | (Error _ as e), _ -> e)
                            (Ok []) ds
                        in
                        match diags with
                        | Ok ds ->
                            Hashtbl.replace t.persisted key
                              (file, fn, List.rev ds);
                            incr n
                        | Error e -> err := Some e)
                    | _ -> err := Some "malformed summary record"))
            (String.split_on_char '\n' body);
          (match !err with
          | Some e -> Error e
          | None -> Ok !n))
