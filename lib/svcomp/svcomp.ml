(** SV-COMP MemSafety task adapter (see svcomp.mli for the scoring
    contract).  The [.yml] records are read with a purpose-built
    line-oriented parser — the SV-COMP task format only uses one level
    of nesting and scalar values, so a YAML library would be overkill
    (and the toolchain does not ship one). *)

type task = {
  t_name : string;
  t_file : string;
  t_expected : bool;
  t_subproperty : string option;
}

(* ------------------------------------------------------------------ *)
(* Task records *)

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && ((s.[0] = '\'' && s.[n - 1] = '\'')
               || (s.[0] = '"' && s.[n - 1] = '"'))
  then String.sub s 1 (n - 2)
  else s

(* "key: value" anywhere in the record, at any indentation; list-item
   dashes are stripped so "  - property_file: ..." parses the same. *)
let field_of_line line =
  let line = String.trim line in
  let line =
    if String.length line >= 2 && String.sub line 0 2 = "- " then
      String.sub line 2 (String.length line - 2)
    else line
  in
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let key = String.trim (String.sub line 0 i) in
      let v =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if key = "" || v = "" then None else Some (key, strip_quotes v)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_record ~dir ~name text : (task, string) result =
  let fields =
    List.filter_map field_of_line (String.split_on_char '\n' text)
  in
  let find k = List.assoc_opt k fields in
  match (find "input_files", find "expected_verdict") with
  | None, _ -> Error (name ^ ": missing input_files")
  | _, None -> Error (name ^ ": missing expected_verdict")
  | Some input, Some verdict ->
      let expected =
        match String.lowercase_ascii verdict with
        | "true" -> Some true
        | "false" -> Some false
        | _ -> None
      in
      (match expected with
      | None -> Error (name ^ ": expected_verdict must be true or false")
      | Some t_expected ->
          let t_file =
            if Filename.is_relative input then Filename.concat dir input
            else input
          in
          Ok { t_name = name; t_file; t_expected;
               t_subproperty = find "subproperty" })

let load_dir dir : (task list, string) result =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | entries ->
      let ymls =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".yml")
        |> List.sort String.compare
      in
      if ymls = [] then Error (dir ^ ": no .yml task records")
      else
        List.fold_left
          (fun acc yml ->
            match acc with
            | Error _ as e -> e
            | Ok tasks -> (
                let name = Filename.remove_extension yml in
                match read_file (Filename.concat dir yml) with
                | exception Sys_error m -> Error m
                | text -> (
                    match parse_record ~dir ~name text with
                    | Ok t -> Ok (t :: tasks)
                    | Error _ as e -> e)))
          (Ok []) ymls
        |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Scoring *)

type verdict = Vtrue | Vfalse | Vunknown

let verdict_string = function
  | Vtrue -> "true"
  | Vfalse -> "false"
  | Vunknown -> "unknown"

type scored = {
  s_task : task;
  s_verdict : verdict;
  s_codes : string list;
  s_detail : string;
}

(* The run-time error classes ({!Check.Errclass}) that violate each
   MemSafety subproperty. *)
let classes_of_subproperty = function
  | Some "valid-deref" -> [ "null-deref"; "use-after-free"; "use-undef" ]
  | Some "valid-free" -> [ "double-free"; "free-offset"; "free-static" ]
  | Some "valid-memtrack" -> [ "leak"; "global-leak" ]
  | Some _ | None ->
      [
        "null-deref"; "use-after-free"; "use-undef"; "double-free";
        "free-offset"; "free-static"; "leak"; "global-leak";
      ]

let run_task ?(flags = Annot.Flags.default) (t : task) : scored =
  match read_file t.t_file with
  | exception Sys_error m ->
      { s_task = t; s_verdict = Vunknown; s_codes = [];
        s_detail = "cannot read input: " ^ m }
  | src -> (
      match Stdspec.check ~flags ~file:(Filename.basename t.t_file) src with
      | exception Cfront.Diag.Fatal d ->
          { s_task = t; s_verdict = Vunknown; s_codes = [];
            s_detail = "parse failure: " ^ Cfront.Diag.to_string d }
      | exception e ->
          { s_task = t; s_verdict = Vunknown; s_codes = [];
            s_detail = "analysis failure: " ^ Printexc.to_string e }
      | { Check.reports; _ } ->
          let classes = classes_of_subproperty t.t_subproperty in
          let witnesses =
            List.filter
              (fun (d : Cfront.Diag.t) ->
                List.exists
                  (fun c -> List.mem c classes)
                  (Check.Errclass.of_code d.Cfront.Diag.code))
              reports
          in
          if witnesses <> [] then
            { s_task = t; s_verdict = Vfalse;
              s_codes =
                List.sort_uniq String.compare
                  (List.map (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code)
                     witnesses);
              s_detail = "" }
          else if reports = [] then
            { s_task = t; s_verdict = Vtrue; s_codes = []; s_detail = "" }
          else
            (* reports outside the subproperty: cannot certify the task
               clean, but there is no witness for the violation either *)
            { s_task = t; s_verdict = Vunknown; s_codes = [];
              s_detail =
                Printf.sprintf
                  "%d diagnostics outside subproperty %s"
                  (List.length reports)
                  (Option.value t.t_subproperty ~default:"<any>") })

type summary = {
  n_tasks : int;
  n_correct_true : int;
  n_correct_false : int;
  n_unsound : int;
  n_imprecise : int;
  n_unknown : int;
}

let summarize (scored : scored list) : summary =
  List.fold_left
    (fun acc s ->
      let acc = { acc with n_tasks = acc.n_tasks + 1 } in
      match (s.s_task.t_expected, s.s_verdict) with
      | true, Vtrue -> { acc with n_correct_true = acc.n_correct_true + 1 }
      | false, Vfalse -> { acc with n_correct_false = acc.n_correct_false + 1 }
      | false, Vtrue -> { acc with n_unsound = acc.n_unsound + 1 }
      | true, Vfalse -> { acc with n_imprecise = acc.n_imprecise + 1 }
      | _, Vunknown -> { acc with n_unknown = acc.n_unknown + 1 })
    {
      n_tasks = 0;
      n_correct_true = 0;
      n_correct_false = 0;
      n_unsound = 0;
      n_imprecise = 0;
      n_unknown = 0;
    }
    scored
