(** Pipeline observability (see telemetry.mli for the contract). *)

module Json = Json

(* Toggled on the main domain before any worker domains are spawned and
   read-only afterwards, so the plain ref is safe to read from workers
   (no tearing on an immediate value, and no concurrent writes). *)
let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Wall clock; elapsed times are clamped at zero (see the mli). *)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_file : string option;
  sp_label : string option;
  sp_secs : float;
  sp_children : span list;
}

type frame = {
  f_name : string;
  f_file : string option;
  f_label : string option;
  f_start : float;
  mutable f_children : span list;  (** reverse completion order *)
}

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)
(* ------------------------------------------------------------------ *)

(* All recording is domain-local: every domain accumulates into its own
   span forest and counter slots, and the parallel driver merges worker
   recordings into the main domain with {!snapshot}/{!absorb}.  Counter
   ids come from a single mutex-guarded registry so the per-domain value
   arrays line up. *)
type state = {
  mutable st_stack : frame list;
  mutable st_roots : span list;  (* reverse completion order *)
  mutable st_counts : int array;  (* indexed by Counter id *)
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_stack = []; st_roots = []; st_counts = Array.make 64 0 })

let state () = Domain.DLS.get state_key

(* A completed span goes under the innermost open span, or is a root. *)
let attach st sp =
  match st.st_stack with
  | parent :: _ -> parent.f_children <- sp :: parent.f_children
  | [] -> st.st_roots <- sp :: st.st_roots

let close_frame st fr =
  let sp =
    {
      sp_name = fr.f_name;
      sp_file = fr.f_file;
      sp_label = fr.f_label;
      sp_secs = Float.max 0. (now () -. fr.f_start);
      sp_children = List.rev fr.f_children;
    }
  in
  (* pop to (and including) fr even if an exception skipped inner pops *)
  let rec pop = function
    | top :: rest when top == fr -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  st.st_stack <- pop st.st_stack;
  attach st sp

let with_span ?file ?label name f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let fr =
      {
        f_name = name;
        f_file = file;
        f_label = label;
        f_start = now ();
        f_children = [];
      }
    in
    st.st_stack <- fr :: st.st_stack;
    match f () with
    | v ->
        close_frame st fr;
        v
    | exception e ->
        close_frame st fr;
        raise e
  end

let record_span ?file name secs =
  if !enabled_flag then
    attach (state ())
      {
        sp_name = name;
        sp_file = file;
        sp_label = None;
        sp_secs = Float.max 0. secs;
        sp_children = [];
      }

let spans () = List.rev (state ()).st_roots

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { c_name : string; c_id : int }

  (* Registry of counter names -> dense ids, shared by every domain. *)
  let mu = Mutex.create ()
  let by_name : (string, t) Hashtbl.t = Hashtbl.create 32
  let names = ref (Array.make 64 "")
  let registered = ref 0

  let make name =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt by_name name with
        | Some c -> c
        | None ->
            let id = !registered in
            incr registered;
            if id >= Array.length !names then begin
              let bigger = Array.make (2 * Array.length !names) "" in
              Array.blit !names 0 bigger 0 (Array.length !names);
              names := bigger
            end;
            !names.(id) <- name;
            let c = { c_name = name; c_id = id } in
            Hashtbl.add by_name name c;
            c)

  let ensure st id =
    if id >= Array.length st.st_counts then begin
      let bigger = Array.make (max (2 * Array.length st.st_counts) (id + 1)) 0 in
      Array.blit st.st_counts 0 bigger 0 (Array.length st.st_counts);
      st.st_counts <- bigger
    end

  (* Unconditional (enabled or not): used by [absorb]. *)
  let add_always c n =
    let st = state () in
    ensure st c.c_id;
    st.st_counts.(c.c_id) <- st.st_counts.(c.c_id) + n

  let add c n = if !enabled_flag then add_always c n
  let tick c = add c 1

  let value c =
    let st = state () in
    if c.c_id < Array.length st.st_counts then st.st_counts.(c.c_id) else 0

  let name c = c.c_name

  let registry_snapshot () =
    Mutex.protect mu (fun () -> (Array.sub !names 0 !registered : string array))
end

let count name n = if !enabled_flag then Counter.add_always (Counter.make name) n

let counters () =
  let st = state () in
  let names = Counter.registry_snapshot () in
  let acc = ref [] in
  for i = Array.length names - 1 downto 0 do
    let v = if i < Array.length st.st_counts then st.st_counts.(i) else 0 in
    if v <> 0 then acc := (names.(i), v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* ------------------------------------------------------------------ *)
(* Snapshots (cross-domain merge)                                      *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  sn_roots : span list;  (* reverse completion order *)
  sn_counts : (string * int) list;
}

let snapshot () =
  let st = state () in
  { sn_roots = st.st_roots; sn_counts = counters () }

let absorb sn =
  let st = state () in
  st.st_roots <- sn.sn_roots @ st.st_roots;
  List.iter
    (fun (name, v) -> Counter.add_always (Counter.make name) v)
    sn.sn_counts

(* ------------------------------------------------------------------ *)
(* Well-known names                                                    *)
(* ------------------------------------------------------------------ *)

let phase_lex = "lex"
let phase_parse = "parse"
let phase_sema = "sema"
let phase_infer = "infer"
let phase_check = "check"
let phase_interp = "interp"
let phase_difftest = "difftest"

let c_tokens = Counter.make "tokens"
let c_ast_nodes = Counter.make "ast_nodes"
let c_procedures = Counter.make "procedures_checked"
let c_store_ops = Counter.make "store_ops"
let c_store_ops_elided = Counter.make "store_ops_elided"
let c_srefs_interned = Counter.make "srefs_interned"
let c_infer_rounds = Counter.make "infer_rounds"
let c_infer_summaries = Counter.make "infer_summaries"
let c_infer_annots = Counter.make "infer_annotations"
let c_infer_candidates = Counter.make "infer_candidates"
let c_infer_probes_skipped = Counter.make "infer_probes_skipped"
let c_suppressed = Counter.make "suppressed_total"
let c_difftest_trials = Counter.make "difftest_trials"
let c_difftest_findings = Counter.make "difftest_findings"
let c_difftest_checks = Counter.make "difftest_reduction_checks"
let c_loop_fixpoint_iters = Counter.make "loop_fixpoint_iters"
let c_loop_widenings = Counter.make "loop_widenings"
let c_loop_bailouts = Counter.make "loop_bailouts"
let c_incr_hits = Counter.make "incr_hits"
let c_incr_misses = Counter.make "incr_misses"
let c_incr_invalidations = Counter.make "incr_invalidations"
let c_incr_rechecked = Counter.make "incr_rechecked"
let c_oom_injections = Counter.make "oom_injections"
let c_ir_instrs = Counter.make "ir_instrs"
let c_ir_blocks = Counter.make "ir_blocks"
let c_tasks_stolen = Counter.make "tasks_stolen"
let c_pool_reuses = Counter.make "pool_reuses"
let c_summary_funcs = Counter.make "summary_funcs"
let c_summary_rounds = Counter.make "summary_rounds"
let c_summary_top = Counter.make "summary_top"
let c_summary_consults = Counter.make "summary_consults"
let c_summary_clashes = Counter.make "summary_clashes"

let registered_counters () =
  let names = Array.to_list (Counter.registry_snapshot ()) in
  List.sort String.compare names
let diag_counter_prefix = "diag."

let reset () =
  let st = state () in
  st.st_stack <- [];
  st.st_roots <- [];
  Array.fill st.st_counts 0 (Array.length st.st_counts) 0

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type phase_row = {
  ph_file : string;
  ph_phase : string;
  ph_calls : int;
  ph_secs : float;
}

let phase_order =
  [
    phase_lex; phase_parse; phase_sema; phase_infer; phase_check;
    phase_interp; phase_difftest;
  ]

let phase_rank p =
  let rec go i = function
    | [] -> List.length phase_order
    | q :: rest -> if String.equal p q then i else go (i + 1) rest
  in
  go 0 phase_order

(** Aggregate the whole span forest by (file, phase name).  Nested spans
    of a DIFFERENT name each contribute their own time (so "parse"
    includes the "lex" below it, like inclusive profiler time); phases
    never nest under themselves. *)
let phase_rows () =
  let tbl : (string * string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let file_order : string list ref = ref [] in
  let rec walk sp =
    let file = Option.value sp.sp_file ~default:"" in
    if not (List.mem file !file_order) then
      file_order := file :: !file_order;
    let key = (file, sp.sp_name) in
    let calls, secs =
      Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.)
    in
    Hashtbl.replace tbl key (calls + 1, secs +. sp.sp_secs);
    List.iter walk sp.sp_children
  in
  List.iter walk (spans ());
  let files = List.rev !file_order in
  let file_rank f =
    let rec go i = function
      | [] -> max_int
      | g :: rest -> if String.equal f g then i else go (i + 1) rest
    in
    go 0 files
  in
  Hashtbl.fold
    (fun (file, phase) (calls, secs) acc ->
      { ph_file = file; ph_phase = phase; ph_calls = calls; ph_secs = secs }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare (file_rank a.ph_file) (file_rank b.ph_file) with
         | 0 -> (
             match compare (phase_rank a.ph_phase) (phase_rank b.ph_phase) with
             | 0 -> String.compare a.ph_phase b.ph_phase
             | c -> c)
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let pp_secs ppf s =
  if s >= 1.0 then Format.fprintf ppf "%8.3f s " s
  else if s >= 1e-3 then Format.fprintf ppf "%8.3f ms" (s *. 1e3)
  else Format.fprintf ppf "%8.1f us" (s *. 1e6)

(** Labelled spans (per-procedure checks), slowest first. *)
let labelled_spans () =
  let acc = ref [] in
  let rec walk sp =
    (match sp.sp_label with Some _ -> acc := sp :: !acc | None -> ());
    List.iter walk sp.sp_children
  in
  List.iter walk (spans ());
  List.sort (fun a b -> compare b.sp_secs a.sp_secs) !acc

let pp_stats ppf () =
  let rows = phase_rows () in
  let phase_totals =
    List.fold_left
      (fun acc r ->
        let calls, secs =
          Option.value (List.assoc_opt r.ph_phase acc) ~default:(0, 0.)
          |> fun (c, s) -> (c + r.ph_calls, s +. r.ph_secs)
        in
        (r.ph_phase, (calls, secs)) :: List.remove_assoc r.ph_phase acc)
      [] rows
    |> List.sort (fun (a, _) (b, _) -> compare (phase_rank a) (phase_rank b))
  in
  Format.fprintf ppf "-- telemetry ----------------------------------------@\n";
  Format.fprintf ppf "phase totals:@\n";
  List.iter
    (fun (phase, (calls, secs)) ->
      Format.fprintf ppf "  %-10s %a  (%d call%s)@\n" phase pp_secs secs calls
        (if calls = 1 then "" else "s"))
    phase_totals;
  Format.fprintf ppf "counters:@\n";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-24s %d@\n" name v)
    (counters ());
  (match labelled_spans () with
  | [] -> ()
  | slow ->
      Format.fprintf ppf "slowest procedures:@\n";
      List.iteri
        (fun i sp ->
          if i < 5 then
            Format.fprintf ppf "  %-24s %a  (%s)@\n"
              (Option.value sp.sp_label ~default:"?")
              pp_secs sp.sp_secs
              (Option.value sp.sp_file ~default:""))
        slow);
  Format.fprintf ppf "-----------------------------------------------------@\n"

let pp_timings ppf () =
  Format.fprintf ppf "-- timings ------------------------------------------@\n";
  Format.fprintf ppf "  %-28s %-8s %6s %11s@\n" "file" "phase" "calls" "time";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-28s %-8s %6d %a@\n"
        (if r.ph_file = "" then "-" else r.ph_file)
        r.ph_phase r.ph_calls pp_secs r.ph_secs)
    (phase_rows ());
  Format.fprintf ppf "-----------------------------------------------------@\n"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let rec json_of_span sp =
  Json.Obj
    ([ ("name", Json.String sp.sp_name) ]
    @ (match sp.sp_file with
      | Some f -> [ ("file", Json.String f) ]
      | None -> [])
    @ (match sp.sp_label with
      | Some l -> [ ("label", Json.String l) ]
      | None -> [])
    @ [ ("seconds", Json.Float sp.sp_secs) ]
    @
    match sp.sp_children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map json_of_span cs)) ])

let to_json () =
  Json.Obj
    [
      ( "phases",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("file", Json.String r.ph_file);
                   ("phase", Json.String r.ph_phase);
                   ("calls", Json.Int r.ph_calls);
                   ("seconds", Json.Float r.ph_secs);
                 ])
             (phase_rows ())) );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
      ("spans", Json.List (List.map json_of_span (spans ())));
    ]
