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
    - [fns]: per-function summaries keyed by (defining file, name).  An
      entry pins the checked AST object, the funsig hash of the function
      and of each direct callee, under [+xproc] each direct callee's
      effect-summary hash, the type-environment hash and the canonical
      flag string; it is valid while all of those still hold.
      [order] indexes the current entries in definition order, which is
      the order {!assemble} reads them in.
    - [summaries]: under [+xproc], the effect summaries of [env] with the
      call graph they were solved over.  A Patched request refreshes
      them for the bodies it swapped in ({!Summary.refresh}); every
      other tier solves them again.  [summary_hashes] holds their hashes
      for the entries' callee-summary comparison.
    - [persisted]: content-key → diagnostics, loaded from a {!save}d
      artifact; a miss whose full content key is present here adopts the
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
      unchanged functions keep their entries by generation, dirty ones
      are dropped and re-checked.  No re-parse of unchanged files, no
      re-sema of anything.
    - {e Rebuilt}: an interface, the file list or the flag set changed.
      The environment is rebuilt (unchanged files reuse cached ASTs so
      only changed files re-parse) and every function revalidates
      against the new funsig/type-env hashes — a funsig edit therefore
      re-checks exactly the edited function and the functions that call
      it.

    The misses are checked through {!Check.Checker.plan}, the plan the
    cold drivers run, on the {!Parcheck.map_tasks} pool: a miss in a
    file with a body that can register block-scope declarations (or
    whose swapped-out body could) re-checks that whole file, in order,
    against a {!Sema.copy_for_check} copy, and every other miss reads
    the environment in place.  The answer is assembled by
    {!Check.finish}, the cold drivers' emission step, so it is
    byte-identical to a cold [olclint] run at every [-j]. *)

module Ast = Cfront.Ast
module Diag = Cfront.Diag
module Loc = Cfront.Loc
module Flags = Annot.Flags
module J = Telemetry.Json

type doc = { doc_name : string; doc_text : string }

type fn_entry = {
  mutable fn_fd : Ast.fundef;  (** the AST object the summary is for *)
  fn_sig_hash : string;
  fn_callees : (string * string) list;  (** direct callee → funsig hash *)
  fn_callee_sums : (string * string) list;
      (** direct callee → effect-summary hash; populated only under
          [+xproc], where a callee {e body} edit that changes the
          callee's derived effects must re-check this caller even though
          the callee's declared signature is unchanged *)
  fn_flags_canon : string;
  fn_typeenv_hash : string;
  fn_diags : Diag.t list;  (** raw checker output, unsorted, unsuppressed *)
  mutable fn_gen : int;  (** generation of the last validation *)
}

type file_entry = {
  fe_text : string;
  fe_typedefs : string list;  (** typedef names in scope at parse time *)
  fe_ast : Ast.tunit;
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
  fns : (string * string, fn_entry) Hashtbl.t;
  mutable order : fn_entry array;
      (** the [fns] entry of each function at its {!Sema.fundefs}
          position: rebuilt by every full revalidation; a Patched one
          replaces only the swapped-in bodies' slots, whose positions
          {!Sema.patch_fundef} keeps *)
  mutable sig_hashes : (string, string) Hashtbl.t;
  mutable summaries : Summary.solution option;
      (** the [+xproc] effect summaries of [env]; [None] otherwise *)
  mutable summary_hashes : (string, string) Hashtbl.t;
      (** function → effect-summary hash; brought up to date at the top
          of every revalidation when [+xproc] is on, empty otherwise *)
  mutable typeenv_hash : string;
  mutable gen : int;
  persisted : (string, string * string * Diag.t list) Hashtbl.t;
      (** content key → (file, fn, diagnostics) *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_invalidated : int;
  mutable n_rechecked : int;
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
    fns = Hashtbl.create 256;
    order = [||];
    sig_hashes = Hashtbl.create 256;
    summaries = None;
    summary_hashes = Hashtbl.create 256;
    typeenv_hash = "";
    gen = 0;
    persisted = Hashtbl.create 64;
    n_hits = 0;
    n_misses = 0;
    n_invalidated = 0;
    n_rechecked = 0;
  }

(* ------------------------------------------------------------------ *)
(* Reading documents                                                   *)
(* ------------------------------------------------------------------ *)

(* One read buffer per domain: a per-file buffer would allocate as much
   as the text it saves. *)
let read_buffer = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Do the remaining [String.length text] bytes of [ic] equal [text]?
   Reads through [read_buffer] and compares 8 bytes at a time, so an
   unchanged file costs no allocation. *)
let same_contents ic text =
  let buf = Domain.DLS.get read_buffer in
  let len = String.length text in
  let rec chunk off =
    off >= len
    ||
    let n = min (Bytes.length buf) (len - off) in
    really_input ic buf 0 n;
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
    words 0 && chunk (off + n)
  in
  try chunk 0 with End_of_file -> false

let doc_of_file ?current path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      match Option.bind current (fun t -> Hashtbl.find_opt t.files path) with
      | Some fe
        when String.length fe.fe_text = len && same_contents ic fe.fe_text ->
          { doc_name = path; doc_text = fe.fe_text }
      | _ ->
          seek_in ic 0;
          { doc_name = path; doc_text = really_input_string ic len })

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
   digested together in declaration (enums: sorted) order. *)
let typeenv_fingerprint (env : Sema.program) =
  let in_order tbl order f =
    List.filter_map
      (fun name -> Option.map (f name) (Hashtbl.find_opt tbl name))
      order
  in
  let structs =
    in_order env.Sema.p_structs (Sema.struct_order env) (fun _ su -> su)
  in
  let typedefs =
    in_order env.Sema.p_typedefs (Sema.typedef_order env)
      (fun name (ty, set) -> (name, ty, set))
  in
  let globals =
    in_order env.Sema.p_globals (Sema.global_order env) (fun _ gv -> gv)
  in
  let enums =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.Sema.p_enum_consts []
    |> List.sort compare
  in
  digest_of (structs, typedefs, globals, enums)

let callee_hash t name =
  match Hashtbl.find_opt t.sig_hashes name with Some h -> h | None -> "?"

let callee_summary_hash t name =
  match Hashtbl.find_opt t.summary_hashes name with Some h -> h | None -> "?"

let cache_kind = "summary-cache"
let cache_version = 5

(* The function's own funsig hash: the current generation's, or derived
   afresh for a function the table does not know. *)
let own_sig_hash t (fs : Sema.funsig) =
  match Hashtbl.find_opt t.sig_hashes fs.Sema.fs_name with
  | Some h -> h
  | None -> funsig_hash fs

(* [mutators env file]: the digest of the bodies in [file] that can
   register declarations ({!Ir.mutates_env}), memoised per file.  Such a
   body changes what the later bodies of its file see, so every
   function of the file keys over it; covering the later ones too
   over-approximates, which is sound. *)
let mutators (env : Sema.program) =
  let memo = Hashtbl.create 16 in
  fun file ->
    match Hashtbl.find_opt memo file with
    | Some d -> d
    | None ->
        let d =
          digest_of
            (List.filter_map
               (fun (_, fd) -> if Ir.mutates_env fd then Some fd else None)
               (Sema.fundefs_in env file))
        in
        Hashtbl.add memo file d;
        d

(* The full content key of one function result — the on-disk identity.
   It covers every input the checker reads for this function: the cache
   format itself, the flag set, the type environment, the mutating
   bodies of its file ([mutators]), the function's own signature, its
   callees' signatures, and the exact body (the structural digest of the
   AST with its locations, so even a pure reformat that moves lines gets
   a fresh key — diagnostics carry line numbers). *)
let full_key t ~mutators (fs : Sema.funsig) (fd : Ast.fundef) =
  let calls = Sema.calls_of_fundef fd in
  let b = Buffer.create 512 in
  Buffer.add_string b (string_of_int cache_version);
  Buffer.add_char b '\n';
  Buffer.add_string b t.flags_canon;
  Buffer.add_char b '\n';
  Buffer.add_string b t.typeenv_hash;
  Buffer.add_char b '\n';
  Buffer.add_string b (mutators fd.Ast.f_loc.Loc.file);
  Buffer.add_char b '\n';
  Buffer.add_string b (own_sig_hash t fs);
  Buffer.add_char b '\n';
  List.iter
    (fun c ->
      Buffer.add_string b c;
      Buffer.add_char b '=';
      Buffer.add_string b (callee_hash t c);
      Buffer.add_char b ';')
    calls;
  Buffer.add_char b '\n';
  (* [+xproc] only: the checker additionally reads the callees' derived
     effect summaries, so they join the content key.  Gated on the flag
     so that no other key depends on a summary. *)
  if t.flags.Flags.xproc then begin
    List.iter
      (fun c ->
        Buffer.add_string b c;
        Buffer.add_char b '!';
        Buffer.add_string b (callee_summary_hash t c);
        Buffer.add_char b ';')
      calls;
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b (digest_of fd);
  hex (Buffer.contents b)

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
   Its parse step reuses the cached AST of a file whose text and typedef
   scope are both unchanged, and records what every file was parsed
   under.  Raises [Diag.Fatal] on frontend errors — the caller commits
   no state until this returns. *)
let build_env t ~flags docs =
  let new_files = Hashtbl.create (List.length docs * 2) in
  let doc_pragmas = ref 0 in
  let parse ~typedefs ~file text =
    let ast =
      match Hashtbl.find_opt t.files file with
      | Some fe
        when String.equal fe.fe_text text && fe.fe_typedefs = typedefs ->
          fe.fe_ast
      | _ -> Cfront.Parser.parse_string ~typedefs ~file text
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
  let sigs = Hashtbl.create (Hashtbl.length env.Sema.p_funcs * 2) in
  Hashtbl.iter
    (fun name fs -> Hashtbl.replace sigs name (funsig_hash fs))
    env.Sema.p_funcs;
  t.sig_hashes <- sigs;
  (* the next revalidation solves the new environment from scratch; the
     old solution is dead from here on, so let the collector have it
     while the new one is built *)
  t.summaries <- None;
  t.typeenv_hash <- typeenv_fingerprint env;
  t.gen <- t.gen + 1

(* ------------------------------------------------------------------ *)
(* Validation and re-checking                                          *)
(* ------------------------------------------------------------------ *)

let fn_id (fs : Sema.funsig) = (fs.Sema.fs_loc.Loc.file, fs.Sema.fs_name)

let entry_valid t (e : fn_entry) (fs : Sema.funsig) (fd : Ast.fundef) =
  (e.fn_fd == fd || Ast.equal_fundef e.fn_fd fd)
  && String.equal e.fn_flags_canon t.flags_canon
  && String.equal e.fn_typeenv_hash t.typeenv_hash
  && (match Hashtbl.find_opt t.sig_hashes fs.Sema.fs_name with
     | Some h -> String.equal h e.fn_sig_hash
     | None -> false)
  && List.for_all
       (fun (c, h) -> String.equal h (callee_hash t c))
       e.fn_callees
  && List.for_all
       (fun (c, h) -> String.equal h (callee_summary_hash t c))
       e.fn_callee_sums

let make_entry t (fs : Sema.funsig) (fd : Ast.fundef) diags =
  let calls = Sema.calls_of_fundef fd in
  {
    fn_fd = fd;
    fn_sig_hash = own_sig_hash t fs;
    fn_callees = List.map (fun c -> (c, callee_hash t c)) calls;
    fn_callee_sums =
      (if t.flags.Flags.xproc then
         List.map (fun c -> (c, callee_summary_hash t c)) calls
       else []);
    fn_flags_canon = t.flags_canon;
    fn_typeenv_hash = t.typeenv_hash;
    fn_diags = diags;
    fn_gen = t.gen;
  }

(* [+xproc]: bring the effect summaries and their hashes up to date.
   [patched] holds the definitions a Patched request swapped in; only
   their components and the callers their new summaries reach are
   re-solved and re-hashed.  Every other tier solves from scratch.
   Returns the table and whether any summary hash may have moved. *)
let update_summaries t env ~patched =
  if not t.flags.Flags.xproc then begin
    t.summaries <- None;
    if Hashtbl.length t.summary_hashes > 0 then
      t.summary_hashes <- Hashtbl.create 256;
    (None, false)
  end
  else
    match (patched, t.summaries) with
    | Some dirty, Some sol ->
        let changed = Summary.refresh env sol ~dirty in
        let tbl = Summary.table sol in
        List.iter
          (fun name ->
            Hashtbl.replace t.summary_hashes name
              (Summary.hash (Hashtbl.find tbl name)))
          changed;
        (Some tbl, changed <> [])
    | _ ->
        let sol = Summary.solve env in
        let tbl = Summary.table sol in
        let hashes = Hashtbl.create (Hashtbl.length tbl * 2) in
        Hashtbl.iter
          (fun name sm -> Hashtbl.replace hashes name (Summary.hash sm))
          tbl;
        t.summaries <- Some sol;
        t.summary_hashes <- hashes;
        (Some tbl, true)

(* Validate every function of the environment against the cache (on
   the Patched fast path, only the swapped-in bodies); adopt persisted
   results by content key; re-check the rest through the cold drivers'
   plan on the checking pool; bring [t.order] up to date.  [patched]
   holds the (old, new) bodies a Patched request swapped.  Returns
   (hits, misses, rechecked). *)
let revalidate_and_check t ~jobs ~patched (env : Sema.program) =
  (* summaries first: validation below compares cached callee-summary
     hashes against them, so a callee body edit that changes the
     callee's derived effects (with an unchanged declared signature)
     invalidates its cached callers *)
  let dirty = Option.map (List.map snd) patched in
  let summaries, moved = update_summaries t env ~patched:dirty in
  let all_pairs = Sema.fundefs env in
  (* a Patched request whose summaries did not move dropped exactly the
     entries of the bodies it swapped in; every other function keeps its
     current-generation entry, in its slot of [t.order] (the invariant
     the Clean tier relies on), so only those bodies, found with their
     positions, need validating *)
  let slots =
    match dirty with
    | Some dirty when not moved ->
        let rec find i = function
          | [] -> []
          | ((_, fd) as pair) :: rest ->
              if List.memq fd dirty then (i, pair) :: find (i + 1) rest
              else find (i + 1) rest
        in
        Some (find 0 all_pairs)
    | _ -> None
  in
  let pairs =
    match slots with Some s -> List.map snd s | None -> all_pairs
  in
  let hits = ref (List.length all_pairs - List.length pairs)
  and misses = ref 0 in
  (* the bodies the dropped results were computed with *)
  let replaced =
    ref (match patched with Some p -> List.map fst p | None -> [])
  in
  let miss_list =
    List.filter
      (fun ((fs : Sema.funsig), fd) ->
        (* current-generation entries skip full validation, but not the
           summary comparison when a summary moved: a Patched-tier body
           edit leaves the generation alone yet can change a callee's
           derived effects, which must dirty its cached callers under
           [+xproc].  Until a hash moves, every current entry still
           holds the hashes it was last validated against. *)
        let sums_current (e : fn_entry) =
          (not moved)
          || List.for_all
               (fun (c, h) -> String.equal h (callee_summary_hash t c))
               e.fn_callee_sums
        in
        match Hashtbl.find_opt t.fns (fn_id fs) with
        | Some e when e.fn_gen = t.gen && sums_current e ->
            incr hits;
            false
        | Some e when entry_valid t e fs fd ->
            e.fn_gen <- t.gen;
            e.fn_fd <- fd;
            incr hits;
            false
        | old ->
            (match old with
            | Some e when e.fn_fd != fd -> replaced := e.fn_fd :: !replaced
            | _ -> ());
            incr misses;
            true)
      pairs
  in
  (* a miss whose content key is in the persisted cache adopts the
     stored result — a restarted service warms up without re-checking *)
  let to_check =
    if Hashtbl.length t.persisted = 0 then miss_list
    else
      let mutators = mutators env in
      List.filter
        (fun (fs, fd) ->
          match Hashtbl.find_opt t.persisted (full_key t ~mutators fs fd) with
          | Some (_, _, diags) ->
              Hashtbl.replace t.fns (fn_id fs) (make_entry t fs fd diags);
              incr hits;
              decr misses;
              false
          | None -> true)
        miss_list
  in
  let tasks = Check.Checker.plan ~replaced:!replaced env to_check in
  (* the persistent environment stays pristine: [Proc] tasks only read
     it, and a [File] task writes its own copy *)
  let results =
    Parcheck.map_tasks ~jobs (Array.length tasks) (fun ~par:_ i ->
        Check.Checker.check_task ?summaries env tasks.(i))
  in
  let rechecked = ref 0 in
  Array.iteri
    (fun i diag_lists ->
      List.iter2
        (fun (fs, fd) diags ->
          incr rechecked;
          Hashtbl.replace t.fns (fn_id fs) (make_entry t fs fd diags))
        (Check.Checker.task_procs tasks.(i))
        diag_lists)
    results;
  (* every function now has its current entry in [t.fns]; a whole-file
     task also replaced entries outside [slots] *)
  let entry (fs : Sema.funsig) = Hashtbl.find t.fns (fn_id fs) in
  let whole =
    Array.exists (function Check.Checker.File _ -> true | _ -> false) tasks
  in
  (match slots with
  | Some s when not whole ->
      List.iter (fun (i, (fs, _)) -> t.order.(i) <- entry fs) s
  | _ ->
      t.order <- Array.of_list (List.map (fun (fs, _) -> entry fs) all_pairs));
  (!hits, !misses, !rechecked)

(* The request's answer: the cached per-function results in definition
   order through the cold drivers' emission step. *)
let assemble t (env : Sema.program) =
  Check.finish env
    (Array.fold_right (fun e acc -> e.fn_diags @ acc) t.order [])

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

(* Decide how to bring the environment up to date with [docs]; returns
   the tier and, for Patched, the (old, new) definitions whose bodies
   were swapped.  Raises [Diag.Fatal] before committing any state. *)
let update t ~flags ~canon docs =
  let structure_changed =
    t.env = None
    || (not (String.equal canon t.flags_canon))
    || List.map (fun d -> d.doc_name) docs <> t.doc_order
  in
  if structure_changed then begin
    let was_cold = t.env = None in
    let env, base_pragmas, new_files = build_env t ~flags docs in
    commit_env t ~flags ~canon env base_pragmas new_files docs;
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
        let env, base_pragmas, new_files = build_env t ~flags docs in
        commit_env t ~flags ~canon env base_pragmas new_files docs;
        (Rebuilt, None)
      end
      else begin
        let env = Option.get t.env in
        let patched = ref [] in
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
                      ignore (Sema.patch_fundef env nfd);
                      patched := (ofd, nfd) :: !patched;
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
            Hashtbl.replace t.files d.doc_name
              {
                fe_text = d.doc_text;
                fe_typedefs = fe.fe_typedefs;
                fe_ast = { tu with Ast.tu_decls = decls };
              })
          parsed;
        (* suppression comments live in the per-file pragma lists; a
           body edit may have changed them *)
        env.Sema.p_pragmas <- rebuild_pragmas t;
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
  (match files with
  | None ->
      dropped := Hashtbl.length t.fns;
      Hashtbl.reset t.fns;
      Hashtbl.reset t.files;
      Hashtbl.reset t.persisted;
      t.env <- None;
      t.doc_order <- []
  | Some names ->
      List.iter
        (fun name ->
          Hashtbl.remove t.files name;
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
    ("entries", Hashtbl.length t.fns);
    ("files", Hashtbl.length t.files);
    ( "functions",
      match t.env with Some e -> List.length (Sema.fundefs e) | None -> 0 );
    ("generation", t.gen);
    ("incr_hits", t.n_hits);
    ("incr_invalidations", t.n_invalidated);
    ("incr_misses", t.n_misses);
    ("incr_rechecked", t.n_rechecked);
    ("persisted", Hashtbl.length t.persisted);
  ]

let environment t = t.env

let file_ast t name = Option.map (fun fe -> fe.fe_ast) (Hashtbl.find_opt t.files name)

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
  (match t.env with
  | Some env ->
      (* the interface section IS an interface library: the same
         stamped artifact [-dump-lib] writes, loadable with
         {!Check.Libspec.load} *)
      Buffer.add_string b (Check.Libspec.save env)
  | None -> ());
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
  (* live entries first (recomputing their content keys), then any
     still-unsuperseded adopted records: caches accumulate *)
  let written = Hashtbl.create 256 in
  (match t.env with
  | Some env ->
      let mutators = mutators env in
      List.iter
        (fun ((fs : Sema.funsig), fd) ->
          match Hashtbl.find_opt t.fns (fn_id fs) with
          | Some e when e.fn_gen = t.gen ->
              let key = full_key t ~mutators fs fd in
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
