(* The flat lowering kept for the benchmark's [ir.lower] replay: golden
   lowerings of the paper's figure programs.  The last group pins the
   checker's diagnostics on generated and figure programs; the pins were
   recorded when a second, IR-interpreting engine still existed and
   agreed with the AST walk byte for byte on every one of them. *)

module Flags = Annot.Flags

let fundefs_of ~typedefs ~file src =
  let tu = Cfront.Parser.parse_string ~typedefs ~file src in
  List.filter_map
    (function Cfront.Ast.Tfundef f -> Some f | Cfront.Ast.Tdecl _ -> None)
    tu.Cfront.Ast.tu_decls

let lower_one ~typedefs ~file src =
  match fundefs_of ~typedefs ~file src with
  | [ f ] -> Ir.lower_fundef f
  | fs -> Alcotest.failf "expected 1 fundef in %s, got %d" file (List.length fs)

(* ------------------------------------------------------------------ *)
(* Golden lowerings                                                    *)
(* ------------------------------------------------------------------ *)

let test_golden_fig1 () =
  let p = lower_one ~typedefs:[] ~file:"fig1.c" Corpus.Figures.fig1_sample in
  Alcotest.(check string)
    "fig1 setName"
    "proc setName entry=b0 blocks=2 instrs=2\n\
     b0:\n\
    \  scope b1\n\
     b1:\n\
    \  expr (gname = pname) @5:3\n"
    (Ir.to_string p)

let test_golden_fig5 () =
  (* the paper's buggy [list_addh]: the while loop and the guarded
     then-branch become sub-blocks, the case/skip chaff is gone *)
  let p =
    lower_one ~typedefs:[ "size_t" ] ~file:"fig5.c"
      Corpus.Figures.fig5_list_addh
  in
  Alcotest.(check string)
    "fig5 list_addh"
    "proc list_addh entry=b0 blocks=6 instrs=8\n\
     b0:\n\
    \  scope b1\n\
     b1:\n\
    \  if (l != NULL) then b2\n\
     b2:\n\
    \  scope b3\n\
     b3:\n\
    \  while (l->next != NULL) body b4\n\
    \  expr (l->next = (cast)smalloc(sizeof(*l->next))) @16:5\n\
    \  expr (l->next->this = e) @17:5\n\
     b4:\n\
    \  scope b5\n\
     b5:\n\
    \  expr (l = l->next) @14:7\n"
    (Ir.to_string p)

let test_golden_fig7 () =
  let p =
    lower_one ~typedefs:[ "EXIT_FAILURE" ] ~file:"fig7.c"
      Corpus.Figures.fig7_erc_create
  in
  Alcotest.(check string)
    "fig7 erc_create"
    "proc erc_create entry=b0 blocks=4 instrs=9\n\
     b0:\n\
    \  scope b1\n\
     b1:\n\
    \  decl c @7:3\n\
    \  if (c == NULL) then b2\n\
    \  expr (c->vals = NULL) @14:3\n\
    \  expr (c->size = 0) @15:3\n\
    \  ret c @16:3\n\
     b2:\n\
    \  scope b3\n\
     b3:\n\
    \  expr error(\"malloc returned null\") @10:5\n\
    \  expr exit(EXIT_FAILURE) @11:5\n"
    (Ir.to_string p)

(* ------------------------------------------------------------------ *)
(* Diagnostic pins                                                     *)
(* ------------------------------------------------------------------ *)

(* Each pin is the diagnostic count and the MD5 of the rendered JSON
   records (reports, then suppressed), one per line. *)
let check_pin ~what (count, digest) (r : Check.result) =
  let ds = r.Check.reports @ r.Check.suppressed in
  let rendered =
    String.concat "\n"
      (List.map (fun d -> Telemetry.Json.to_string (Cfront.Diag.to_json d)) ds)
  in
  if (List.length ds, Digest.to_hex (Digest.string rendered)) <> (count, digest)
  then
    Alcotest.failf "%s: pinned %d diagnostics (%s), got %d:\n%s" what count
      digest (List.length ds) rendered

let test_pins_progen () =
  (* buggy, message-rich programs across several seeds *)
  let flags = Flags.(allimponly_off default) in
  List.iter
    (fun (seed, pin) ->
      let p =
        Progen.generate ~seed ~modules:3 ~fns_per_module:5
          ~bugs:Progen.all_bug_kinds ()
      in
      check_pin ~what:(Printf.sprintf "seed %d" seed) pin
        (Progen.static_check ~flags p))
    [
      (1, (3, "8020b01027ba49bfd69ac78f2ea3326e"));
      (2, (3, "8e1ed4ae0c9ac8259ef8b23847fecce3"));
      (3, (3, "9da2320b29627cc9125df4287c103127"));
      (4, (3, "3662d17573705a6b5fc39207bed05760"));
      (5, (3, "a8035c3c2709ccc93bd58e741e94a6b1"));
    ];
  (* these records are byte for byte what
     [olclint -json -f=-allimponly m0.c m1.c m2.c m3.c driver.c] prints
     for the generated files *)
  List.iter
    (fun (seed, pin) ->
      let p =
        Progen.generate ~seed ~modules:4 ~fns_per_module:4 ~annotated:false ()
      in
      check_pin ~what:(Printf.sprintf "unannotated seed %d" seed) pin
        (Progen.static_check ~flags p))
    [
      (6, (24, "169d685e7f186a9d8d1b5d2438a75f30"));
      (7, (24, "dd773e89af47d842b632ae4aedcde51e"));
    ]

let test_pins_progen_modes () =
  (* the loop-fixpoint and allocator-model paths *)
  let p =
    Progen.generate ~seed:11 ~modules:3 ~fns_per_module:5
      ~bugs:Progen.all_bug_kinds ()
  in
  let pin = (3, "ce36c58291d2f50eee672ad625c5a438") in
  List.iter
    (fun (what, flags) -> check_pin ~what pin (Progen.static_check ~flags p))
    [
      ("+loopexec", { Flags.default with Flags.loop_exec = true });
      ("+allocmodel", { Flags.default with Flags.alloc_model = true });
      ( "+loopexec +allocmodel -allimponly",
        Flags.(
          allimponly_off { default with loop_exec = true; alloc_model = true })
      );
    ]

let test_pins_figures () =
  (* every figure program in the stdlib environment, with the paper's
     own flag set; the figures with no diagnostics pin the empty digest *)
  let none = (0, "d41d8cd98f00b204e9800998ecf8427e") in
  List.iter
    (fun (name, src, pin) ->
      check_pin ~what:name pin
        (Stdspec.check
           ~flags:Flags.(allimponly_off default)
           ~file:(name ^ ".c") src))
    [
      ("fig1", Corpus.Figures.fig1_sample, none);
      ( "fig2",
        Corpus.Figures.fig2_sample_null,
        (1, "cce12938eb5eb5b007e6a609c60bba84") );
      ("fig3", Corpus.Figures.fig3_sample_fixed, none);
      ( "fig4",
        Corpus.Figures.fig4_sample_only_temp,
        (2, "e91aa905989243f6e9f0b82b127fdc43") );
      ( "fig5",
        Corpus.Figures.fig5_list_addh,
        (2, "3605652c1c5fe6d8585da3cac308f00d") );
      ("fig5_fixed", Corpus.Figures.fig5_list_addh_fixed, none);
      ("fig7", Corpus.Figures.fig7_erc_create, none);
      ( "fig8",
        Corpus.Figures.fig8_employee_setname,
        (1, "8f4c343de81b0ddd6d6ea0fefa1f7189") );
    ]

let () =
  Alcotest.run "ir"
    [
      ( "lowering",
        [
          Alcotest.test_case "fig1 golden" `Quick test_golden_fig1;
          Alcotest.test_case "fig5 golden" `Quick test_golden_fig5;
          Alcotest.test_case "fig7 golden" `Quick test_golden_fig7;
        ] );
      ( "pins",
        [
          Alcotest.test_case "progen programs" `Quick test_pins_progen;
          Alcotest.test_case "analysis modes" `Quick test_pins_progen_modes;
          Alcotest.test_case "figure programs" `Quick test_pins_figures;
        ] );
    ]
