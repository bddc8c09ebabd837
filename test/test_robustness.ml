(* Robustness properties: the whole pipeline must be total and
   deterministic over generated programs, under arbitrary flag settings. *)

module Flags = Annot.Flags

(* The diagnostic codes of a result, in report order. *)
let codes (r : Check.result) =
  List.map (fun (d : Cfront.Diag.t) -> d.Cfront.Diag.code) r.Check.reports

(* a flag configuration from a bitmask *)
let flags_of_bits bits =
  let b i = bits land (1 lsl i) <> 0 in
  {
    Flags.default with
    Flags.implicit_only_returns = b 0;
    implicit_only_globals = b 1;
    implicit_only_fields = b 2;
    implicit_temp_params = b 3;
    gc_mode = b 4;
    check_null = b 5;
    check_def = b 6;
    check_alloc = b 7;
    check_alias = b 8;
    check_use_released = b 9;
    free_offset = b 10;
    free_static = b 11;
    guard_refinement = b 12;
    alias_tracking = b 13;
  }

let prop_checker_total =
  QCheck.Test.make ~count:40
    ~name:"checker is total over programs x flags"
    QCheck.(pair (int_range 0 5_000) (int_bound 16_383))
    (fun (seed, bits) ->
      let p =
        Progen.generate ~seed ~modules:2 ~fns_per_module:4
          ~bugs:[ Progen.Bleak; Progen.Buse_after_free ] ()
      in
      let flags = flags_of_bits bits in
      (* must not raise; report count is irrelevant here *)
      ignore (Progen.static_check ~flags p);
      true)

let prop_checker_deterministic =
  QCheck.Test.make ~count:20 ~name:"checking is deterministic"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:2 ~fns_per_module:4 () in
      let run () =
        List.map Cfront.Diag.to_string (Progen.static_check p).Check.reports
      in
      run () = run ())

let prop_interp_deterministic =
  QCheck.Test.make ~count:15 ~name:"interpretation is deterministic"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p =
        Progen.generate ~seed ~modules:2 ~fns_per_module:4
          ~bugs:[ Progen.Bdouble_free ] ()
      in
      let run () =
        let r = Progen.dynamic_check p in
        ( r.Rtcheck.output,
          r.Rtcheck.exit_code,
          List.length r.Rtcheck.errors,
          List.length r.Rtcheck.leaks )
      in
      run () = run ())

let prop_libspec_fixpoint =
  QCheck.Test.make ~count:15
    ~name:"interface libraries are save/load/save fixpoints"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:2 ~fns_per_module:3 () in
      let prog = Progen.analyse p in
      let text1 = Check.Libspec.save prog in
      let env = Check.Libspec.load ~file:"lib.lh" text1 in
      let text2 = Check.Libspec.save env in
      let body t =
        let payload =
          match Check.Libspec.(unstamp ~kind:library_kind) t with
          | Ok (_, p) -> p
          | Error _ -> t
        in
        match String.index_opt payload '\n' with
        | Some i -> String.sub payload i (String.length payload - i)
        | None -> payload
      in
      body text1 = body text2)

let prop_suppression_partition =
  QCheck.Test.make ~count:30
    ~name:"suppression partitions the diagnostics"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p =
        Progen.generate ~seed ~modules:2 ~fns_per_module:2 ~annotated:false ()
      in
      let flags = Flags.(allimponly_off default) in
      let r = Progen.static_check ~flags p in
      (* every diagnostic is either kept or suppressed, never both *)
      List.for_all
        (fun (d : Cfront.Diag.t) -> not (List.memq d r.Check.suppressed))
        r.Check.reports)

let prop_gc_mode_subset =
  QCheck.Test.make ~count:20
    ~name:"+gc reports a subset (no leak messages)"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p =
        Progen.generate ~seed ~modules:2 ~fns_per_module:3
          ~bugs:[ Progen.Bleak; Progen.Bnull_deref ] ()
      in
      let gc = { Flags.default with Flags.gc_mode = true } in
      let r = Progen.static_check ~flags:gc p in
      List.for_all
        (fun c -> c <> "mustfree" && c <> "onlytrans")
        (codes r))

let prop_pretty_stable =
  QCheck.Test.make ~count:20 ~name:"pretty-printing is a fixpoint"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let p = Progen.generate ~seed ~modules:1 ~fns_per_module:5 () in
      List.for_all
        (fun (name, text) ->
          let typedefs = [ "size_t"; "FILE" ] in
          let tu = Cfront.Parser.parse_string ~typedefs ~file:name text in
          let once = Cfront.Pretty.tunit_to_string tu in
          let twice =
            Cfront.Pretty.tunit_to_string
              (Cfront.Parser.parse_string ~typedefs ~file:name once)
          in
          once = twice)
        p.Progen.files)

let () =
  Alcotest.run "robustness"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_checker_total;
          QCheck_alcotest.to_alcotest prop_checker_deterministic;
          QCheck_alcotest.to_alcotest prop_interp_deterministic;
          QCheck_alcotest.to_alcotest prop_libspec_fixpoint;
          QCheck_alcotest.to_alcotest prop_suppression_partition;
          QCheck_alcotest.to_alcotest prop_gc_mode_subset;
          QCheck_alcotest.to_alcotest prop_pretty_stable;
        ] );
    ]
