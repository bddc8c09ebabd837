(* lib/summary: the bottom-up interprocedural effect summaries behind
   [+xproc].  Extraction of per-parameter release/escape/out effects and
   return effects from single functions, bottom-up propagation through
   call chains, the recursion fixpoint, the sound ⊤ for unknowns, and
   the stable render/hash used by --dump-summaries and the incremental
   cache keys. *)

module Flags = Annot.Flags

let flags = Flags.default

let program src = Stdspec.load ~flags (Seq.return ("s.c", src))

let summaries src = Summary.of_program (program src)

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some sm -> sm
  | None -> Alcotest.failf "no summary for %s" name

let rendered src name = Summary.render (find (summaries src) name)

(* ------------------------------------------------------------------ *)
(* Single-function extraction                                          *)
(* ------------------------------------------------------------------ *)

let test_release_effects () =
  let tbl =
    summaries
      "void rel(char *r) { free(r); }\n\
       void cond(char *r, int c) { if (c) { free(r); } }\n\
       void keep(char *r) { r[0] = 'x'; }\n"
  in
  let pe i name = (find tbl name).Summary.sm_params.(i) in
  Alcotest.(check bool) "unconditional release" true
    ((pe 0 "rel").Summary.pe_rel = Summary.Prel);
  Alcotest.(check bool) "conditional release" true
    ((pe 0 "cond").Summary.pe_rel = Summary.Pcond);
  Alcotest.(check bool) "no release" true
    ((pe 0 "keep").Summary.pe_rel = Summary.Pnone);
  Alcotest.(check bool) "non-pointer param has no effects" true
    ((pe 1 "cond").Summary.pe_rel = Summary.Pnone)

let test_escape_and_globals () =
  let tbl =
    summaries
      "static char *slot;\n\
       void stash(char *r) { slot = r; }\n\
       void local(char *r) { char *t = r; t[0] = 'x'; }\n"
  in
  let stash = find tbl "stash" in
  Alcotest.(check bool) "stored param escapes" true
    stash.Summary.sm_params.(0).Summary.pe_escape;
  Alcotest.(check bool) "global escape recorded" true
    stash.Summary.sm_global_escape;
  let local = find tbl "local" in
  Alcotest.(check bool) "a local alias does not escape" false
    local.Summary.sm_params.(0).Summary.pe_escape

let test_return_effects () =
  let tbl =
    summaries
      "char *mk(void) { return (char *) malloc(4); }\n\
       char *id(char *r) { return r; }\n\
       char *pick(char *a, char *b, int c) { if (c) { return a; } return b; \
       }\n\
       char *nil(int c) { if (c) { return NULL; } return (char *) \
       malloc(1); }\n"
  in
  Alcotest.(check bool) "fresh return" true
    ((find tbl "mk").Summary.sm_ret = Summary.Rfresh);
  Alcotest.(check bool) "alias return" true
    ((find tbl "id").Summary.sm_ret = Summary.Ralias 0);
  Alcotest.(check bool) "mixed return is not an alias" true
    ((find tbl "pick").Summary.sm_ret = Summary.Rnone);
  Alcotest.(check bool) "null path sets retnull" true
    (find tbl "nil").Summary.sm_ret_null;
  Alcotest.(check bool) "pure fresh return is not retnull" false
    (find tbl "mk").Summary.sm_ret_null

(* ------------------------------------------------------------------ *)
(* Bottom-up propagation                                               *)
(* ------------------------------------------------------------------ *)

let test_transitive_release () =
  (* outer's release happens entirely inside inner: bottom-up order
     means outer's extraction already sees inner's summary *)
  let tbl =
    summaries
      "void inner(char *r) { free(r); }\n\
       void outer(char *r) { inner(r); }\n"
  in
  Alcotest.(check bool) "release propagates up a wrapper" true
    ((find tbl "outer").Summary.sm_params.(0).Summary.pe_rel = Summary.Prel)

let test_unknown_callee_is_top () =
  (* passing a pointer to an undefined external: nothing can be assumed
     about the parameter afterwards *)
  let tbl =
    summaries
      "extern void mystery(char *r);\n\
       void f(char *r) { mystery(r); }\n"
  in
  Alcotest.(check bool) "unknown callee poisons the param" true
    ((find tbl "f").Summary.sm_params.(0).Summary.pe_rel = Summary.Ptop)

let test_recursion_fixpoint () =
  (* a self-recursive release still converges to a definite effect, and
     mutual recursion does not hang *)
  let tbl =
    summaries
      "void walk(char *r, int n) { if (n == 0) { free(r); return; } walk(r, \
       n - 1); }\n\
       void ping(int n);\n\
       void pong(int n) { if (n > 0) { ping(n - 1); } }\n\
       void ping(int n) { if (n > 0) { pong(n - 1); } }\n"
  in
  (match (find tbl "walk").Summary.sm_params.(0).Summary.pe_rel with
  | Summary.Prel | Summary.Pcond -> ()
  | _ -> Alcotest.fail "recursive release lost");
  Alcotest.(check bool) "mutual recursion summarized" true
    (Hashtbl.mem tbl "ping" && Hashtbl.mem tbl "pong")

(* ------------------------------------------------------------------ *)
(* Render, vocabulary, hash                                            *)
(* ------------------------------------------------------------------ *)

let test_render_format () =
  Alcotest.(check string) "release render" "rel: params=[rel] ret=-"
    (rendered "void rel(char *r) { free(r); }\n" "rel");
  Alcotest.(check string) "fresh render" "mk: params=[] ret=fresh"
    (rendered "char *mk(void) { return (char *) malloc(4); }\n" "mk");
  Alcotest.(check string) "escape render"
    "stash: params=[-+esc] ret=- globesc"
    (rendered "static char *s;\nvoid stash(char *r) { s = r; }\n" "stash")

let test_render_tokens_in_vocabulary () =
  (* every token the renderer can emit is declared in the vocabulary the
     docs drift gate pins *)
  let tbl =
    summaries
      "static char *s;\n\
       extern void mystery(char *r);\n\
       void rel(char *r) { free(r); }\n\
       void cond(char *r, int c) { if (c) { free(r); } }\n\
       void stash(char *r) { s = r; }\n\
       void unk(char *r) { mystery(r); }\n\
       char *mk(void) { return (char *) malloc(4); }\n\
       char *id(char *r) { return r; }\n\
       char *nil(void) { return NULL; }\n"
  in
  let strip_plus tok = String.split_on_char '+' tok in
  let known tok =
    List.mem tok Summary.token_vocabulary
    || (String.length tok > 3
       && String.sub tok 0 3 = "arg"
       && List.mem "argN" Summary.token_vocabulary)
  in
  Hashtbl.iter
    (fun _ sm ->
      let line = Summary.render sm in
      (* pull the bracketed param list and the trailing tokens apart *)
      let lb = String.index line '[' and rb = String.index line ']' in
      let params = String.sub line (lb + 1) (rb - lb - 1) in
      List.iter
        (fun tok ->
          if tok <> "" then
            List.iter
              (fun atom ->
                Alcotest.(check bool) ("param token " ^ atom) true (known atom))
              (strip_plus tok))
        (String.split_on_char ',' params);
      let tail =
        String.sub line (rb + 1) (String.length line - rb - 1)
        |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
      in
      List.iter
        (fun tok ->
          let tok =
            match String.index_opt tok '=' with
            | Some i ->
                String.sub tok (i + 1) (String.length tok - i - 1)
            | None -> tok
          in
          Alcotest.(check bool) ("tail token " ^ tok) true (known tok))
        tail)
    tbl

let test_hash_tracks_render () =
  let a = summaries "void f(char *r) { free(r); }\n" in
  let b = summaries "void f(char *r) { free(r); }\n" in
  let c = summaries "void f(char *r) { r[0] = 'x'; }\n" in
  Alcotest.(check string) "same effects, same hash"
    (Summary.hash (find a "f"))
    (Summary.hash (find b "f"));
  Alcotest.(check bool) "different effects, different hash" true
    (Summary.hash (find a "f") <> Summary.hash (find c "f"))

let test_lattice_elements () =
  let bot = Summary.bottom "f" 2 and top = Summary.top "f" 2 in
  Alcotest.(check bool) "bottom is self-equal" true (Summary.equal bot bot);
  Alcotest.(check bool) "bottom <> top" false (Summary.equal bot top);
  Alcotest.(check bool) "top params are Ptop" true
    (Array.for_all
       (fun pe -> pe.Summary.pe_rel = Summary.Ptop)
       top.Summary.sm_params);
  Alcotest.(check bool) "top return is Rtop" true
    (top.Summary.sm_ret = Summary.Rtop)

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

let check_rendered src expected =
  let tbl = summaries src in
  List.iter
    (fun (name, line) ->
      Alcotest.(check string) name line (Summary.render (find tbl name)))
    expected

let test_switch_arms () =
  check_rendered
    "void sw_def(char *r, int c) { switch (c) { case 1: free(r); break; \
     default: free(r); } }\n\
     void sw_nodef(char *r, int c) { switch (c) { case 1: free(r); break; \
     case 2: free(r); break; } }\n\
     void sw_group(char *r, int c) { switch (c) { case 1: case 2: free(r); \
     break; default: break; } }\n\
     void sw_grpdef(char *r, int c) { switch (c) { case 1: default: \
     free(r); break; } }\n\
     void sw_bare(char *r, int c) { switch (c) case 1: free(r); }\n"
    [
      (* every arm releases and a default arm exists *)
      ("sw_def", "sw_def: params=[rel,-] ret=-");
      (* no default: the scrutinee may match no arm *)
      ("sw_nodef", "sw_nodef: params=[cond,-] ret=-");
      (* grouped labels extend one arm; the default arm releases nothing *)
      ("sw_group", "sw_group: params=[cond,-] ret=-");
      (* a default label nested under a case label opens no arm of its
         own, so the switch is treated as having no default *)
      ("sw_grpdef", "sw_grpdef: params=[cond,-] ret=-");
      (* a body that is not a compound statement is one arm *)
      ("sw_bare", "sw_bare: params=[cond,-] ret=-");
    ]

let test_for_initializer () =
  check_rendered
    "char *for_init(int n) { char *p; int i; for (p = (char *) malloc(4), \
     i = 0; i < n; i++) { } return p; }\n\
     char *for_decl(int n) { for (char *p = (char *) malloc(4); n > 0; \
     n--) { return p; } return NULL; }\n"
    [
      (* the initializer runs once, before the loop *)
      ("for_init", "for_init: params=[-] ret=fresh");
      ("for_decl", "for_decl: params=[-] ret=- retnull");
    ]

let test_loop_bodies () =
  check_rendered
    "void in_while(char *r, int c) { while (c) { free(r); c--; } }\n\
     void in_do(char *r, int c) { do { free(r); } while (c); }\n"
    [
      (* a while body may run zero times: its release is conditional *)
      ("in_while", "in_while: params=[cond,-] ret=-");
      (* a do body runs at least once: its release is kept *)
      ("in_do", "in_do: params=[rel,-] ret=-");
    ]

let test_labels_and_empty () =
  check_rendered
    "void lab(char *r, int c) { if (c) { done: free(r); } else { free(r); \
     } }\n\
     void empty(char *r, int c) { if (c) ; else free(r); }\n"
    [
      (* a label is transparent: both branches release *)
      ("lab", "lab: params=[rel,-] ret=-");
      (* an empty branch releases nothing *)
      ("empty", "empty: params=[cond,-] ret=-");
    ]

let test_path_cap () =
  let ifs n = String.concat " " (List.init n (fun _ -> "if (d) {}")) in
  let fn name body =
    Printf.sprintf
      "char *%s(int c, int d) { char *q = NULL; if (c) q = (char *) \
       malloc(1); %s return q; }\n"
      name body
  in
  check_rendered
    (fn "few" (ifs 5) ^ fn "many" (ifs 6)
    ^ fn "nested" ("{ " ^ ifs 6 ^ " }"))
    [
      (* 64 paths are kept apart: one returns NULL *)
      ("few", "few: params=[-,-] ret=- retnull");
      (* 128 paths: the NULL half is merged into one survivor, which
         forgets [q] *)
      ("many", "many: params=[-,-] ret=-");
      (* the same cap applies after a compound statement *)
      ("nested", "nested: params=[-,-] ret=-");
    ]

let test_null_guards () =
  check_rendered
    "void by_zero(char *r) { if (r != 0) free(r); }\n\
     void by_null(char *r) { if (r != NULL) free(r); }\n\
     void by_cast(char *r) { if ((char *) 0 == r) ; else free(r); }\n"
    [
      (* a release guarded by a null test releases on every path where
         the parameter is non-null, whichever spelling the test uses *)
      ("by_zero", "by_zero: params=[rel] ret=-");
      ("by_null", "by_null: params=[rel] ret=-");
      ("by_cast", "by_cast: params=[rel] ret=-");
    ]

let test_goto_is_top () =
  check_rendered
    "void jump(char *r) { goto out; out: free(r); }\n\
     void dead(char *r) { return; goto out; out: free(r); }\n"
    [
      ("jump", "jump: params=[top] ret=top");
      (* a goto that no path reaches leaves the body summarizable *)
      ("dead", "dead: params=[-] ret=-");
    ]

let () =
  Alcotest.run "summary"
    [
      ( "extraction",
        [
          Alcotest.test_case "release effects" `Quick test_release_effects;
          Alcotest.test_case "escape and globals" `Quick
            test_escape_and_globals;
          Alcotest.test_case "return effects" `Quick test_return_effects;
        ] );
      ( "control flow",
        [
          Alcotest.test_case "switch arms" `Quick test_switch_arms;
          Alcotest.test_case "for initializer" `Quick test_for_initializer;
          Alcotest.test_case "loop bodies" `Quick test_loop_bodies;
          Alcotest.test_case "labels and empty statements" `Quick
            test_labels_and_empty;
          Alcotest.test_case "path cap" `Quick test_path_cap;
          Alcotest.test_case "null guards" `Quick test_null_guards;
          Alcotest.test_case "goto is top" `Quick test_goto_is_top;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "transitive release" `Quick
            test_transitive_release;
          Alcotest.test_case "unknown callee is top" `Quick
            test_unknown_callee_is_top;
          Alcotest.test_case "recursion fixpoint" `Quick
            test_recursion_fixpoint;
        ] );
      ( "render",
        [
          Alcotest.test_case "format" `Quick test_render_format;
          Alcotest.test_case "tokens in vocabulary" `Quick
            test_render_tokens_in_vocabulary;
          Alcotest.test_case "hash tracks render" `Quick
            test_hash_tracks_render;
          Alcotest.test_case "lattice elements" `Quick test_lattice_elements;
        ] );
    ]
