(** Tests for the telemetry subsystem: span recording, counters, the JSON
    encoder/decoder, and a golden check that the [-json] diagnostic records
    for examples/sample.c round-trip through the parser. *)

module J = Telemetry.Json

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let r =
    Telemetry.with_span ~file:"a.c" "outer" (fun () ->
        Telemetry.with_span "inner1" (fun () -> ());
        Telemetry.with_span ~label:"f" "inner2" (fun () -> 42))
  in
  Alcotest.(check int) "with_span returns the body's value" 42 r;
  match Telemetry.spans () with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.Telemetry.sp_name;
      Alcotest.(check (option string))
        "root file" (Some "a.c") root.Telemetry.sp_file;
      Alcotest.(check (list string))
        "children in completion order" [ "inner1"; "inner2" ]
        (List.map (fun s -> s.Telemetry.sp_name) root.Telemetry.sp_children);
      Alcotest.(check (option string))
        "child label" (Some "f")
        (List.nth root.Telemetry.sp_children 1).Telemetry.sp_label;
      List.iter
        (fun (s : Telemetry.span) ->
          Alcotest.(check bool)
            ("non-negative time for " ^ s.Telemetry.sp_name)
            true
            (s.Telemetry.sp_secs >= 0.))
        (root :: root.Telemetry.sp_children)
  | spans ->
      Alcotest.failf "expected exactly one root span, got %d"
        (List.length spans)

let test_span_exception_safe () =
  with_telemetry @@ fun () ->
  (try
     Telemetry.with_span "outer" (fun () ->
         Telemetry.with_span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* both spans must have closed despite the exception, so a new root
     lands as a sibling, not a child *)
  Telemetry.with_span "after" (fun () -> ());
  Alcotest.(check (list string))
    "exception closed the open spans" [ "outer"; "after" ]
    (List.map (fun s -> s.Telemetry.sp_name) (Telemetry.spans ()))

let test_disabled_records_nothing () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  let r = Telemetry.with_span "phantom" (fun () -> 7) in
  Alcotest.(check int) "body still runs when disabled" 7 r;
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Telemetry.spans ()));
  let toks = Cfront.Lexer.tokenize ~file:"t.c" "int x = 1;" in
  Alcotest.(check bool) "lexer still works" true (List.length toks > 0);
  Alcotest.(check int) "no counters bumped" 0
    (Telemetry.Counter.value Telemetry.c_tokens);
  Alcotest.(check int) "no counter rows" 0
    (List.length (Telemetry.counters ()))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_accuracy () =
  with_telemetry @@ fun () ->
  let src = "int main(void) { return 6 * 7; }" in
  let toks = Cfront.Lexer.tokenize ~file:"t.c" src in
  Alcotest.(check int)
    "token counter matches the token list (incl. Eof)"
    (List.length toks)
    (Telemetry.Counter.value Telemetry.c_tokens);
  let c = Telemetry.Counter.make "test.scratch" in
  Telemetry.Counter.tick c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "tick + add" 42 (Telemetry.Counter.value c);
  Alcotest.(check int) "same name, same counter" 42
    (Telemetry.Counter.value (Telemetry.Counter.make "test.scratch"));
  Telemetry.count "test.dynamic" 3;
  Telemetry.count "test.dynamic" 4;
  Alcotest.(check (option int))
    "dynamic-name counter accumulates" (Some 7)
    (List.assoc_opt "test.dynamic" (Telemetry.counters ()))

let test_phase_rows () =
  with_telemetry @@ fun () ->
  ignore (Cfront.Lexer.tokenize ~file:"a.c" "int x;");
  ignore (Cfront.Lexer.tokenize ~file:"a.c" "int y;");
  ignore (Cfront.Lexer.tokenize ~file:"b.c" "int z;");
  let rows = Telemetry.phase_rows () in
  let row file =
    List.find
      (fun (r : Telemetry.phase_row) ->
        r.Telemetry.ph_file = file && r.Telemetry.ph_phase = Telemetry.phase_lex)
      rows
  in
  Alcotest.(check int) "a.c lexed twice" 2 (row "a.c").Telemetry.ph_calls;
  Alcotest.(check int) "b.c lexed once" 1 (row "b.c").Telemetry.ph_calls;
  Alcotest.(check bool) "aggregated time non-negative" true
    ((row "a.c").Telemetry.ph_secs >= 0.)

(* ------------------------------------------------------------------ *)
(* JSON encoder/decoder                                                *)
(* ------------------------------------------------------------------ *)

(* Structural equality of JSON values, an [Int] equal to a [Float] of
   the same value. *)
let rec json_equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Int x, J.Int y -> x = y
  | J.Float x, J.Float y -> x = y
  | J.Int x, J.Float y | J.Float y, J.Int x -> float_of_int x = y
  | J.String x, J.String y -> String.equal x y
  | J.List xs, J.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           xs ys
  | _ -> false

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (J.to_string v)) json_equal

let test_json_escaping () =
  Alcotest.(check string)
    "quote and backslash" {|"a\"b\\c"|}
    (J.to_string (J.String "a\"b\\c"));
  Alcotest.(check string)
    "shorthand control escapes" {|"\n\r\t\b\f"|}
    (J.to_string (J.String "\n\r\t\b\012"));
  Alcotest.(check string)
    "other control chars as \\u00XX" "\"\\u0001\\u001f\""
    (J.to_string (J.String "\x01\x1f"));
  Alcotest.(check string)
    "non-ASCII passes through as UTF-8" {|"café ↦ λ"|}
    (J.to_string (J.String "café ↦ λ"));
  Alcotest.(check string)
    "non-finite floats encode as null" {|[null,null,null]|}
    (J.to_string (J.List [ J.Float nan; J.Float infinity; J.Float neg_infinity ]))

let test_json_roundtrip () =
  let check_rt v =
    match J.of_string (J.to_string v) with
    | Ok v' -> Alcotest.check json (J.to_string v) v v'
    | Error e -> Alcotest.failf "parse failed on %s: %s" (J.to_string v) e
  in
  List.iter check_rt
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 1.5;
      J.Float 1e-9;
      J.String "plain";
      J.String "tricky \"\\\n\x02 café";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj
        [
          ("a", J.String "b");
          ("nested", J.Obj [ ("xs", J.List [ J.Bool false; J.Null ]) ]);
        ];
    ];
  (match J.of_string {|"caf\u00e9"|} with
  | Ok v -> Alcotest.check json "\\uXXXX decodes to UTF-8" (J.String "café") v
  | Error e -> Alcotest.failf "unicode escape: %s" e);
  (match J.of_string {|"\ud83d\ude00"|} with
  | Ok v ->
      Alcotest.check json "surrogate pair decodes" (J.String "\xf0\x9f\x98\x80") v
  | Error e -> Alcotest.failf "surrogate pair: %s" e);
  (match J.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing input should be rejected"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Golden: -json records for examples/sample.c                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_json_golden_sample () =
  let file = "../examples/sample.c" in
  let r =
    Stdspec.check ~flags:Annot.Flags.default ~file:"examples/sample.c"
      (read_file file)
  in
  Alcotest.(check int) "sample.c reports the paper's 2 anomalies" 2
    (List.length r.Check.reports);
  let records =
    List.map
      (fun d ->
        let line = J.to_string (Cfront.Diag.to_json d) in
        match J.of_string line with
        | Ok v -> v
        | Error e -> Alcotest.failf "record does not re-parse: %s\n%s" e line)
      r.Check.reports
  in
  List.iter
    (fun v ->
      List.iter
        (fun field ->
          if J.member field v = None then
            Alcotest.failf "record missing field %s: %s" field (J.to_string v))
        [
          "file"; "line"; "column"; "severity"; "category"; "code"; "message";
          "suppressed"; "procedure"; "inferred"; "notes";
        ];
      Alcotest.(check (option string))
        "file field" (Some "examples/sample.c")
        (Option.bind (J.member "file" v) J.to_string_opt);
      (* checker records carry the procedure they were found in, and the
         inferred provenance defaults to false when inference is off *)
      Alcotest.(check bool) "procedure is a string" true
        (Option.bind (J.member "procedure" v) J.to_string_opt <> None);
      Alcotest.(check (option string))
        "inferred false by default" (Some "false")
        (Option.map
           (function Telemetry.Json.Bool b -> string_of_bool b | _ -> "?")
           (J.member "inferred" v)))
    records;
  let mustfree =
    List.find_opt
      (fun v ->
        Option.bind (J.member "code" v) J.to_string_opt = Some "mustfree")
      records
  in
  match mustfree with
  | None -> Alcotest.fail "no mustfree record for sample.c"
  | Some v ->
      Alcotest.(check (option int))
        "mustfree line" (Some 16)
        (Option.bind (J.member "line" v) J.to_int_opt);
      Alcotest.(check (option int))
        "mustfree column" (Some 3)
        (Option.bind (J.member "column" v) J.to_int_opt);
      Alcotest.(check (option string))
        "mustfree category" (Some "allocation")
        (Option.bind (J.member "category" v) J.to_string_opt);
      (match J.member "notes" v with
      | Some (J.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "mustfree record should carry notes")

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "accuracy" `Quick test_counter_accuracy;
          Alcotest.test_case "phase rows" `Quick test_phase_rows;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sample.c -json records" `Quick
            test_json_golden_sample;
        ] );
    ]
