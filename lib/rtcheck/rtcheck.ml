(** Run-time memory checking: the dynamic baseline the paper compares
    against (dmalloc, mprof, Purify — Section 1).

    [run] interprets a program on the instrumented heap and produces the
    errors observed *on the executed path*, plus an end-of-run leak report.
    Tests and benches use this to reproduce the paper's claims about the
    complementary strengths of static and run-time checking. *)

module Layout = Layout
module Heap = Heap
module Interp = Interp

open Cfront
module Ctype = Sema.Ctype

(** Why a run stopped before the program exited.  The limits are
    expected terminations (looping or error-dense programs under a
    budget); [Aunsupported] means the interpreter itself gave up — the
    differential oracle treats only the latter as a harness bug.  Errors
    detected before the cut-off are still reported in [errors]. *)
type abort =
  | Astep_limit of string  (** [max_steps] exhausted *)
  | Aerror_limit of string  (** [max_errors] exhausted *)
  | Aunsupported of string  (** unsupported construct / harness failure *)

let abort_string = function
  | Astep_limit msg -> "step limit: " ^ msg
  | Aerror_limit msg -> "error limit: " ^ msg
  | Aunsupported msg -> msg

type result = {
  errors : Heap.error list;  (** in detection order *)
  leaks : Heap.leak list;  (** live heap blocks at exit *)
  output : string;  (** collected stdout *)
  exit_code : int option;  (** [None] when the run was aborted *)
  aborted : abort option;  (** abort reason, if any *)
  steps : int;
  heap_allocs : int;
  heap_frees : int;
  alloc_requests : int;
      (** heap allocation requests seen, including any injected failure;
          sizes an OOM fault-injection sweep *)
  profile : (Cfront.Loc.t * Heap.site_stats) list;
      (** mprof-style per-site allocation statistics, heaviest first *)
}

(** Interpret [prog] starting from [entry] (default ["main"]).
    [max_steps] bounds execution so looping programs terminate.
    [oom_fail] forces heap allocation request #n (1-based) to fail once,
    exercising the out-of-memory paths static checking reasons about. *)
let run ?(entry = "main") ?(max_steps = 2_000_000) ?(max_errors = 100)
    ?oom_fail (prog : Sema.program) : result =
  let heap = Heap.create () in
  let st =
    {
      Interp.prog;
      heap;
      globals = Hashtbl.create 32;
      fundefs = Hashtbl.create 64;
      literals = Hashtbl.create 64;
      output = Buffer.create 256;
      frames = [];
      steps = 0;
      max_steps;
      max_errors;
      rng = 1;
      alloc_requests = 0;
      oom_fail;
    }
  in
  (* function definitions *)
  List.iter
    (fun ((fs : Sema.funsig), def) ->
      Hashtbl.replace st.Interp.fundefs fs.Sema.fs_name (fs, def))
    (Sema.fundefs prog);
  (* global storage, zero-initialized per C semantics, in declaration
     order (a block's id is never printed, so the order shows nowhere) *)
  List.iter
    (fun name ->
      let gv = Option.get (Sema.find_global prog name) in
      if gv.Sema.gv_defined || not (Ctype.is_function gv.Sema.gv_ty) then begin
        let size = Layout.size_of prog gv.Sema.gv_ty in
        let p =
          Heap.alloc heap ~kind:(Heap.Kglobal name) ~size ~loc:gv.Sema.gv_loc
        in
        (match Heap.find heap p.Heap.p_block with
        | Some b ->
            let zero =
              if Ctype.is_pointer gv.Sema.gv_ty then Heap.Snull
              else Heap.Sint 0L
            in
            Array.fill b.Heap.b_slots 0 (Array.length b.Heap.b_slots) zero
        | None -> ());
        Hashtbl.replace st.Interp.globals name (p, gv.Sema.gv_ty)
      end)
    (Sema.global_order prog);
  let exit_code, aborted =
    match Hashtbl.find_opt st.Interp.fundefs entry with
    | None ->
        (None, Some (Aunsupported (Printf.sprintf "no %s function" entry)))
    | Some (fs, def) -> (
        try
          let v =
            Interp.call_fundef st fs def [] ~loc:def.Ast.f_loc
          in
          match v with
          | Heap.Sint n -> (Some (Int64.to_int n), None)
          | _ -> (Some 0, None)
        with
        | Interp.Exit_program n -> (Some n, None)
        | Interp.Limit (Interp.Lsteps, msg) -> (None, Some (Astep_limit msg))
        | Interp.Limit (Interp.Lerrors, msg) -> (None, Some (Aerror_limit msg))
        | Interp.Abort reason -> (None, Some (Aunsupported reason)))
  in
  (* leak detection: roots are the pointers still stored in globals *)
  let roots =
    Hashtbl.fold
      (fun _ (p, _) acc ->
        match Heap.find heap p.Heap.p_block with
        | Some b ->
            Array.fold_left
              (fun acc slot ->
                match slot with Heap.Sptr q -> q :: acc | _ -> acc)
              acc b.Heap.b_slots
        | None -> acc)
      st.Interp.globals []
  in
  {
    errors = Heap.errors heap;
    leaks = Heap.leaks heap ~roots;
    output = Buffer.contents st.Interp.output;
    exit_code;
    aborted;
    steps = st.Interp.steps;
    heap_allocs = heap.Heap.heap_allocs;
    heap_frees = heap.Heap.heap_frees;
    alloc_requests = st.Interp.alloc_requests;
    profile = Heap.profile_rows heap;
  }

(** Render a result summary (used by the CLI and examples). *)
let pp_summary ppf (r : result) =
  Fmt.pf ppf "exit: %s, steps: %d, allocs: %d, frees: %d@\n"
    (match (r.exit_code, r.aborted) with
    | Some n, _ -> string_of_int n
    | None, Some why -> "aborted (" ^ abort_string why ^ ")"
    | None, None -> "?")
    r.steps r.heap_allocs r.heap_frees;
  List.iter
    (fun (e : Heap.error) ->
      Fmt.pf ppf "%s: [%s] %s@\n" (Loc.to_string e.Heap.e_loc)
        (Heap.error_kind_string e.Heap.e_kind)
        e.Heap.e_msg)
    r.errors;
  List.iter
    (fun (l : Heap.leak) ->
      Fmt.pf ppf "leak: block of %d slots allocated at %s%s@\n"
        l.Heap.lk_block.Heap.b_size
        (Loc.to_string l.Heap.lk_block.Heap.b_alloc_site)
        (if l.Heap.lk_reachable then " (still reachable from globals)" else ""))
    r.leaks


(** Render the allocation profile (the mprof role in the paper's
    comparison: where does the memory go?). *)
let pp_profile ppf (r : result) =
  Fmt.pf ppf "%-30s %8s %8s %10s@\n" "allocation site" "allocs" "frees"
    "slots";
  List.iter
    (fun ((loc : Loc.t), (st : Heap.site_stats)) ->
      Fmt.pf ppf "%-30s %8d %8d %10d@\n" (Loc.to_string loc)
        st.Heap.st_allocs st.Heap.st_frees st.Heap.st_slots)
    r.profile
