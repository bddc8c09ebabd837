(** NDJSON protocol for the incremental checking daemon (see
    server.mli).  The protocol layer is deliberately thin: decode the
    request, call {!Service}, encode the result.  Diagnostics are emitted
    as the same records [olclint -json] writes ({!Cfront.Diag.to_json}),
    so existing consumers parse server output unchanged. *)

module Diag = Cfront.Diag
module J = Telemetry.Json

let error_response op msg =
  J.Obj [ ("op", J.String op); ("ok", J.Bool false); ("error", J.String msg) ]

let strings_of = function
  | Some (J.List items) ->
      Some
        (List.filter_map (function J.String s -> Some s | _ -> None) items)
  | _ -> None

(* A [files] entry: "path" (read from disk) or {"name":..,"text":..}
   (in-memory document).  A path whose bytes are unchanged comes back
   as the service's stored text, without allocating a copy. *)
let doc_of_entry t = function
  | J.String path -> Ok (Service.doc_of_file ~current:t path)
  | J.Obj _ as o -> (
      match
        ( Option.bind (J.member "name" o) J.to_string_opt,
          Option.bind (J.member "text" o) J.to_string_opt )
      with
      | Some name, Some text ->
          Ok { Service.doc_name = name; doc_text = text }
      | _ -> Error "file entry object needs \"name\" and \"text\"")
  | _ -> Error "file entry must be a path string or a {name,text} object"

let check_response (oc : Service.outcome) =
  let diag_records =
    List.map (fun d -> Diag.to_json ~suppressed:false d) oc.Service.oc_kept
    @ List.map (fun d -> Diag.to_json ~suppressed:true d) oc.Service.oc_suppressed
  in
  J.Obj
    [
      ("op", J.String "check");
      ("ok", J.Bool true);
      ("tier", J.String (Service.tier_name oc.Service.oc_tier));
      ("warnings", J.Int (List.length oc.Service.oc_kept));
      ("suppressed", J.Int (List.length oc.Service.oc_suppressed));
      ("functions", J.Int oc.Service.oc_functions);
      ("hits", J.Int oc.Service.oc_hits);
      ("misses", J.Int oc.Service.oc_misses);
      ("rechecked", J.Int oc.Service.oc_rechecked);
      ("diagnostics", J.List diag_records);
    ]

let handle t request =
  let op =
    match Option.bind (J.member "op" request) J.to_string_opt with
    | Some op -> op
    | None -> "?"
  in
  match op with
  | "check" -> (
      let entries =
        match J.member "files" request with
        | Some (J.List items) -> Ok items
        | _ -> Error "check request needs a \"files\" array"
      in
      let docs =
        Result.bind entries (fun items ->
            List.fold_left
              (fun acc e ->
                Result.bind acc (fun acc ->
                    match doc_of_entry t e with
                    | Ok d -> Ok (d :: acc)
                    | Error _ as err -> err))
              (Ok []) items
            |> Result.map List.rev)
      in
      match docs with
      | Error msg -> (error_response "check" msg, true)
      | Ok docs -> (
          let flag_args =
            Option.value ~default:[] (strings_of (J.member "flags" request))
          in
          let jobs =
            match Option.bind (J.member "jobs" request) J.to_int_opt with
            | Some n when n > 0 -> n
            | Some 0 -> Parcheck.default_jobs ()
            | _ -> 1
          in
          match
            try Service.check ~jobs ~flag_args t docs
            with Sys_error msg ->
              Error
                (Diag.make
                   ~loc:{ Cfront.Loc.file = "<request>"; line = 1; col = 1 }
                   ~code:"io" msg)
          with
          | Ok oc -> (check_response oc, true)
          | Error d -> (error_response "check" (Diag.to_string d), true)))
  | "invalidate" ->
      let files = strings_of (J.member "files" request) in
      let dropped = Service.invalidate t files in
      ( J.Obj
          [
            ("op", J.String "invalidate");
            ("ok", J.Bool true);
            ("dropped", J.Int dropped);
          ],
        true )
  | "stats" ->
      (* the process's major heap next to the service's gauges *)
      let gc = Gc.quick_stat () in
      let heap =
        [ ("heap_words", gc.Gc.heap_words); ("top_heap_words", gc.Gc.top_heap_words) ]
      in
      ( J.Obj
          ([ ("op", J.String "stats"); ("ok", J.Bool true) ]
          @ List.map
              (fun (k, v) -> (k, J.Int v))
              (List.merge
                 (fun (a, _) (b, _) -> String.compare a b)
                 (Service.stats t) heap)),
        true )
  | "shutdown" ->
      (J.Obj [ ("op", J.String "shutdown"); ("ok", J.Bool true) ], false)
  | op -> (error_response op (Printf.sprintf "unknown op %S" op), true)

let serve ?cache t ic oc =
  (match cache with
  | Some path when Sys.file_exists path -> (
      let text =
        let c = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr c)
          (fun () -> really_input_string c (in_channel_length c))
      in
      match Service.load t text with
      | Ok _ -> ()
      | Error msg ->
          Printf.eprintf "olclint: ignoring cache %s: %s\n%!" path msg)
  | _ -> ());
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line when String.trim line = "" -> ()
    | line ->
        let response, keep =
          match J.of_string line with
          | Error msg -> (error_response "?" ("bad request: " ^ msg), true)
          | Ok request -> handle t request
        in
        output_string oc (J.to_string response);
        output_char oc '\n';
        flush oc;
        (* a cold or rebuilt answer leaves the previous environment and
           the build's temporaries behind: collect them while the client
           reads the answer, so the heap does not grow by an environment
           per rebuild before the collector catches up *)
        (match J.member "tier" response with
        | Some (J.String ("cold" | "rebuilt")) -> Gc.full_major ()
        | _ -> ());
        continue := keep
  done;
  match cache with
  | Some path ->
      let c = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr c)
        (fun () -> output_string c (Service.save t))
  | None -> ()
