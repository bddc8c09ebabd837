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
   as the service's stored text, without allocating a copy.  A path
   that cannot be read is an error naming it. *)
let doc_of_entry t = function
  | J.String path -> (
      let naming msg =
        if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
      in
      try Ok (Service.doc_of_file ~current:t path) with
      | Sys_error msg -> Error (naming msg)
      | Unix.Unix_error (e, _, _) -> Error (naming (Unix.error_message e)))
  | J.Obj _ as o -> (
      match
        ( Option.bind (J.member "name" o) J.to_string_opt,
          Option.bind (J.member "text" o) J.to_string_opt )
      with
      | Some name, Some text ->
          Ok { Service.doc_name = name; doc_text = text }
      | _ -> Error "file entry object needs \"name\" and \"text\"")
  | _ -> Error "file entry must be a path string or a {name,text} object"

(* The diagnostic records of the last answer encoded.  The service
   hands out the very same lists while its answer stands, and equal
   lists encode alike, so a physically equal pair reuses them. *)
let last_records = ref ([], [], J.List [])

let diag_records (oc : Service.outcome) =
  let kept, suppressed, records = !last_records in
  if oc.Service.oc_kept == kept && oc.Service.oc_suppressed == suppressed then
    records
  else begin
    let records =
      J.List
        (List.map (fun d -> Diag.to_json ~suppressed:false d) oc.Service.oc_kept
        @ List.map
            (fun d -> Diag.to_json ~suppressed:true d)
            oc.Service.oc_suppressed)
    in
    last_records := (oc.Service.oc_kept, oc.Service.oc_suppressed, records);
    records
  end

let check_response (oc : Service.outcome) =
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
      ("diagnostics", diag_records oc);
    ]

(* Where the last answered [check] request's time went, in
   microseconds: reading its documents, {!Service.check} (updating the
   environment, revalidating, re-checking and assembling the answer),
   and encoding the response, which {!serve} completes by writing it
   out as text.  [stats] reports them. *)
type times = {
  mutable read_us : int;
  mutable update_us : int;
  mutable encode_us : int;
}

let last = { read_us = 0; update_us = 0; encode_us = 0 }
let microseconds_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)

let handle t request =
  let op =
    match Option.bind (J.member "op" request) J.to_string_opt with
    | Some op -> op
    | None -> "?"
  in
  match op with
  | "check" -> (
      let t_read = Unix.gettimeofday () in
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
          let read_us = microseconds_since t_read in
          let t_update = Unix.gettimeofday () in
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
          | Ok oc ->
              last.read_us <- read_us;
              last.update_us <- microseconds_since t_update;
              let t_encode = Unix.gettimeofday () in
              let response = check_response oc in
              last.encode_us <- microseconds_since t_encode;
              (response, true)
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
      (* the process's major heap next to the service's gauges; the
         runtime reports its heap sizes as 0 until a major cycle has
         completed, so they are null until then *)
      let gc = Gc.quick_stat () in
      let heap_gauge v =
        if gc.Gc.major_collections > 0 then J.Int v else J.Null
      in
      let gauges =
        [
          ("heap_words", heap_gauge gc.Gc.heap_words);
          ("last_encode_us", J.Int last.encode_us);
          ("last_read_us", J.Int last.read_us);
          ("last_update_us", J.Int last.update_us);
          ("top_heap_words", heap_gauge gc.Gc.top_heap_words);
        ]
      in
      ( J.Obj
          ([ ("op", J.String "stats"); ("ok", J.Bool true) ]
          @ List.merge
              (fun (a, _) (b, _) -> String.compare a b)
              (List.map (fun (k, v) -> (k, J.Int v)) (Service.stats t))
              gauges),
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
        let t_encode = Unix.gettimeofday () in
        let text = J.to_string response in
        (* a check answer carries its tier; its text is part of its
           encoding *)
        let tier = J.member "tier" response in
        if Option.is_some tier then
          last.encode_us <- last.encode_us + microseconds_since t_encode;
        output_string oc text;
        output_char oc '\n';
        flush oc;
        (* a cold answer leaves the build's temporaries behind: collect
           them while the client reads the answer.  A rebuild collects
           the environment it replaces before it builds
           ({!Service.check}), so one collection per rebuild is enough *)
        (match tier with
        | Some (J.String "cold") -> Gc.full_major ()
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
