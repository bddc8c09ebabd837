(* Storage-model tests: state lattices, merge rules, the store and its
   alias-image machinery. *)

open Check.State
module Store = Check.Store
module Sref = Check.Sref

let loc = Cfront.Loc.make ~file:"t.c" ~line:1 ~col:1

let v name = Sref.root (Sref.Rlocal name)
let g name = Sref.root (Sref.Rglobal name)
let fld b f = Sref.field b f

(* ------------------------------------------------------------------ *)
(* Lattice merges                                                      *)
(* ------------------------------------------------------------------ *)

let test_merge_def () =
  (* "Definition states are combined using the weakest assumption." *)
  Alcotest.(check bool) "defined+defined" true
    (equal_defstate (merge_def DSdefined DSdefined) DSdefined);
  Alcotest.(check bool) "defined+pdefined" true
    (equal_defstate (merge_def DSdefined DSpdefined) DSpdefined);
  Alcotest.(check bool) "allocated+defined" true
    (equal_defstate (merge_def DSallocated DSdefined) DSpdefined);
  Alcotest.(check bool) "undefined+defined" true
    (equal_defstate (merge_def DSundefined DSdefined) DSpdefined);
  Alcotest.(check bool) "undefined+undefined" true
    (equal_defstate (merge_def DSundefined DSundefined) DSundefined)

let test_def_conflict () =
  Alcotest.(check bool) "dead vs defined conflicts" true
    (def_conflict DSdead DSdefined);
  Alcotest.(check bool) "dead vs dead ok" false (def_conflict DSdead DSdead);
  Alcotest.(check bool) "error suppresses" false (def_conflict DSdead DSerror)

let test_merge_null () =
  Alcotest.(check bool) "null+notnull" true
    (equal_nullstate (merge_null NSnull NSnotnull) NSpossnull);
  Alcotest.(check bool) "notnull+notnull" true
    (equal_nullstate (merge_null NSnotnull NSnotnull) NSnotnull);
  Alcotest.(check bool) "null+null" true
    (equal_nullstate (merge_null NSnull NSnull) NSnull);
  Alcotest.(check bool) "untracked transparent" true
    (equal_nullstate (merge_null NSuntracked NSnull) NSnull)

let test_merge_alloc () =
  (* "there is no sensible way to combine the allocation states" *)
  (match merge_alloc ASkept ASonly with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kept vs only must conflict");
  (match merge_alloc ASonly ASonly with
  | Ok ASonly -> ()
  | _ -> Alcotest.fail "only vs only is only");
  (match merge_alloc AStemp ASdependent with
  | Ok ASdependent -> ()
  | _ -> Alcotest.fail "temp vs dependent is dependent");
  match merge_alloc ASnone AStemp with
  | Ok AStemp -> ()
  | _ -> Alcotest.fail "none is transparent"

let test_obligations () =
  Alcotest.(check bool) "only obliges" true (has_obligation ASonly);
  Alcotest.(check bool) "owned obliges" true (has_obligation ASowned);
  Alcotest.(check bool) "kept does not" false (has_obligation ASkept);
  Alcotest.(check bool) "temp cannot transfer" false (can_transfer_obligation AStemp)

(* merge_def is commutative and idempotent *)
let all_defstates =
  [ DSundefined; DSallocated; DSpdefined; DSdefined; DSdead; DSerror ]

let prop_merge_def_comm =
  QCheck.Test.make ~count:100 ~name:"merge_def commutative"
    QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (i, j) ->
      let a = List.nth all_defstates i and b = List.nth all_defstates j in
      equal_defstate (merge_def a b) (merge_def b a))

let all_nullstates = [ NSnull; NSpossnull; NSnotnull; NSrel; NSuntracked ]

let prop_merge_null_comm =
  QCheck.Test.make ~count:100 ~name:"merge_null commutative"
    QCheck.(pair (int_bound 4) (int_bound 4))
    (fun (i, j) ->
      let a = List.nth all_nullstates i and b = List.nth all_nullstates j in
      equal_nullstate (merge_null a b) (merge_null b a))

let prop_merge_null_idem =
  QCheck.Test.make ~count:20 ~name:"merge_null idempotent"
    QCheck.(int_bound 4)
    (fun i ->
      let a = List.nth all_nullstates i in
      equal_nullstate (merge_null a a) a)

(* ------------------------------------------------------------------ *)
(* Store operations                                                    *)
(* ------------------------------------------------------------------ *)

let state ?(def = DSdefined) ?(null = NSnotnull) ?(alloc = ASnone) () =
  Store.mk_refstate ~def ~null ~alloc ~defloc:loc ()

let test_store_basic () =
  let st = Store.empty in
  Alcotest.(check bool) "unknown is defined" true
    (equal_defstate (Store.get st (v "x")).Store.rs_def DSdefined);
  let st = Store.set st (v "x") (state ~def:DSundefined ()) in
  Alcotest.(check bool) "set/get" true
    (equal_defstate (Store.get st (v "x")).Store.rs_def DSundefined);
  Alcotest.(check bool) "mem" true (Store.mem st (v "x"));
  let st = Store.remove st (v "x") in
  Alcotest.(check bool) "removed" false (Store.mem st (v "x"))

let test_alias_images () =
  (* l aliases argl: updates to l->next reach argl->next *)
  let l = v "l" and argl = Sref.root (Sref.Rparam (0, "l")) in
  let st = Store.empty in
  let st = Store.set st l (state ()) in
  let st = Store.set st argl (state ()) in
  let st = Store.add_alias st l argl in
  let images = Store.location_images st (fld l "next") in
  Alcotest.(check bool) "l->next in images" true
    (Sref.Set.mem (fld l "next") images);
  Alcotest.(check bool) "argl->next in images" true
    (Sref.Set.mem (fld argl "next") images);
  (* value images of l include argl *)
  let vals = Store.value_images st l in
  Alcotest.(check bool) "argl in value images" true (Sref.Set.mem argl vals)

let test_assignment_vs_object_update () =
  (* set_def (an object update) touches value aliases; location images of
     a ROOT are just the root *)
  let p = v "p" and q = v "q" in
  let st = Store.empty in
  let st = Store.set st p (state ~alloc:ASonly ()) in
  let st = Store.set st q (state ~alloc:ASonly ()) in
  let st = Store.add_alias st p q in
  (* free through p kills q too *)
  let st' = Store.set_def ~loc st p DSdead in
  Alcotest.(check bool) "q dead too" true
    (equal_defstate (Store.get st' q).Store.rs_def DSdead);
  (* but a location rewrite of p alone leaves q's location distinct *)
  Alcotest.(check int) "location images of a root" 1
    (Sref.Set.cardinal (Store.location_images st p))

let test_drop_root () =
  let p = v "p" in
  let st = Store.empty in
  let st = Store.set st p (state ()) in
  let st = Store.set st (fld p "f") (state ()) in
  let st =
    Store.set st (g "gl")
      { (state ()) with Store.rs_aliases = Sref.Set.singleton p }
  in
  let q = v "q" in
  let st =
    Store.set st (g "both")
      { (state ()) with Store.rs_aliases = Sref.Set.of_list [ p; q ] }
  in
  let st = Store.set st (g "other") (state ()) in
  Alcotest.(check bool) "absent root: store unchanged" true
    (Store.drop_root st (Sref.Rlocal "absent") == st);
  let other = Store.get st (g "other") in
  let st = Store.drop_root st (Sref.Rlocal "p") in
  Alcotest.(check bool) "p gone" false (Store.mem st p);
  Alcotest.(check bool) "p->f gone" false (Store.mem st (fld p "f"));
  Alcotest.(check bool) "dangling edge removed" true
    (Sref.Set.is_empty (Store.get st (g "gl")).Store.rs_aliases);
  Alcotest.(check bool) "other edges kept" true
    (Sref.Set.equal (Sref.Set.singleton q)
       (Store.get st (g "both")).Store.rs_aliases);
  Alcotest.(check bool) "untouched binding kept" true
    (Store.get st (g "other") == other)

let test_merge_stores () =
  let p = v "p" in
  let a = Store.set Store.empty p (state ~def:DSdefined ~alloc:ASonly ()) in
  let b = Store.set Store.empty p (state ~def:DSdead ~alloc:ASonly ()) in
  let conflicts = ref [] in
  let merged = Store.merge ~on_conflict:(fun c -> conflicts := c :: !conflicts) a b in
  Alcotest.(check int) "one conflict" 1 (List.length !conflicts);
  Alcotest.(check bool) "error marker" true
    (equal_defstate (Store.get merged p).Store.rs_def DSerror)

let test_merge_dead_vs_null_ok () =
  (* the guarded-free idiom: if (p != NULL) free(p); *)
  let p = v "p" in
  let a = Store.set Store.empty p (state ~def:DSdead ~alloc:ASonly ()) in
  let b =
    Store.set Store.empty p (state ~def:DSdefined ~null:NSnull ~alloc:ASonly ())
  in
  let conflicts = ref [] in
  let merged = Store.merge ~on_conflict:(fun c -> conflicts := c :: !conflicts) a b in
  Alcotest.(check int) "no conflict" 0 (List.length !conflicts);
  Alcotest.(check bool) "dead wins" true
    (equal_defstate (Store.get merged p).Store.rs_def DSdead)

let test_merge_unreachable () =
  let p = v "p" in
  let a = Store.set Store.empty p (state ~def:DSdead ()) in
  let b = Store.unreachable (Store.set Store.empty p (state ())) in
  let merged = Store.merge ~on_conflict:(fun _ -> Alcotest.fail "no conflicts") a b in
  Alcotest.(check bool) "takes reachable side" true
    (equal_defstate (Store.get merged p).Store.rs_def DSdead)

let test_merge_derived_default () =
  (* a ref tracked on one side only derives its default from the parent on
     the other side: child of allocated storage is undefined *)
  let p = v "p" in
  let a =
    Store.set
      (Store.set Store.empty p (state ~def:DSpdefined ()))
      (fld p "f")
      (state ~def:DSundefined ())
  in
  let b = Store.set Store.empty p (state ~def:DSallocated ()) in
  let merged = Store.merge ~on_conflict:(fun _ -> ()) a b in
  Alcotest.(check bool) "undefined survives" true
    (equal_defstate (Store.get merged (fld p "f")).Store.rs_def DSundefined)

(* property: merging a store with itself changes no definition states *)
let prop_merge_idem =
  QCheck.Test.make ~count:100 ~name:"store merge idempotent on def states"
    QCheck.(list_of_size Gen.(int_bound 5) (pair (int_bound 3) (int_bound 5)))
    (fun entries ->
      let st =
        List.fold_left
          (fun st (i, j) ->
            let r = v (Printf.sprintf "x%d" i) in
            Store.set st r (state ~def:(List.nth all_defstates j) ()))
          Store.empty entries
      in
      let merged = Store.merge ~on_conflict:(fun _ -> ()) st st in
      Store.fold
        (fun r (s : Store.refstate) ok ->
          ok && equal_defstate (Store.get merged r).Store.rs_def s.Store.rs_def)
        st true)

(* property: merge is commutative in the observable states.  Locations
   are excluded on purpose — message attribution prefers the first
   branch's loc — as are conflict orderings; the def/null/alloc lattice
   outcomes and the alias sets must not depend on branch order. *)
let all_allocstates =
  [ ASnone; ASonly; ASshared; ASowned; ASdependent; ASkept; AStemp;
    ASobserver ]

let gen_states =
  QCheck.(
    list_of_size
      Gen.(int_bound 6)
      (quad (int_bound 3) (int_bound 5) (int_bound 4) (int_bound 7)))

let store_of entries =
  List.fold_left
    (fun st (i, d, n, a) ->
      let r = v (Printf.sprintf "x%d" i) in
      Store.set st r
        (state
           ~def:(List.nth all_defstates d)
           ~null:(List.nth all_nullstates n)
           ~alloc:(List.nth all_allocstates a)
           ()))
    Store.empty entries

let prop_merge_comm =
  QCheck.Test.make ~count:300
    ~name:"store merge commutative on def/null/alloc/aliases"
    QCheck.(pair gen_states gen_states)
    (fun (ea, eb) ->
      let a = store_of ea and b = store_of eb in
      let ab = Store.merge ~on_conflict:(fun _ -> ()) a b in
      let ba = Store.merge ~on_conflict:(fun _ -> ()) b a in
      Store.fold
        (fun r (x : Store.refstate) ok ->
          let y = Store.get ba r in
          ok
          && equal_defstate x.Store.rs_def y.Store.rs_def
          && equal_nullstate x.Store.rs_null y.Store.rs_null
          && equal_allocstate x.Store.rs_alloc y.Store.rs_alloc
          && Bool.equal x.Store.rs_offset y.Store.rs_offset
          && Sref.Set.equal x.Store.rs_aliases y.Store.rs_aliases)
        ab true)

(* ------------------------------------------------------------------ *)
(* Widening ([+loopexec] back-edge joins)                              *)
(* ------------------------------------------------------------------ *)

let prop_widen_comm =
  QCheck.Test.make ~count:300
    ~name:"store widen commutative on def/null/alloc/offset/aliases"
    QCheck.(pair gen_states gen_states)
    (fun (ea, eb) ->
      let a = store_of ea and b = store_of eb in
      let ab = Store.widen a b and ba = Store.widen b a in
      Store.equal ab ba
      && Store.fold
           (fun r (x : Store.refstate) ok ->
             let y = Store.get ba r in
             ok
             && equal_defstate x.Store.rs_def y.Store.rs_def
             && equal_nullstate x.Store.rs_null y.Store.rs_null
             && equal_allocstate x.Store.rs_alloc y.Store.rs_alloc
             && Bool.equal x.Store.rs_offset y.Store.rs_offset
             && Sref.Set.equal x.Store.rs_aliases y.Store.rs_aliases)
           ab true)

let test_widen_dead_dominates () =
  let p = v "p" in
  let dead = Store.set Store.empty p (state ~def:DSdead ~alloc:ASonly ()) in
  let live = Store.set Store.empty p (state ~def:DSdefined ~alloc:ASkept ()) in
  List.iter
    (fun (name, w) ->
      let s = Store.get w p in
      Alcotest.(check bool) (name ^ ": dead") true
        (equal_defstate s.Store.rs_def DSdead);
      Alcotest.(check bool) (name ^ ": live side's alloc") true
        (equal_allocstate s.Store.rs_alloc ASkept))
    [ ("dead first", Store.widen dead live); ("live first", Store.widen live dead) ];
  (* where the reporting merge would error-mark, widening keeps the
     stronger obligation *)
  let kept = Store.set Store.empty p (state ~alloc:ASkept ()) in
  let only = Store.set Store.empty p (state ~alloc:ASonly ()) in
  Alcotest.(check bool) "only survives kept" true
    (equal_allocstate (Store.get (Store.widen kept only) p).Store.rs_alloc ASonly)

let test_widen_one_sided_fill () =
  (* a reference bound on one side only gets the same implicit state from
     widen as from a merge that raises no conflict *)
  let p = v "p" and q = v "q" and r = v "r" in
  let a =
    List.fold_left
      (fun st (x, s) -> Store.set st x s)
      Store.empty
      [
        (p, state ~def:DSpdefined ());
        (fld p "f", state ~def:DSundefined ());
        (q, state ~def:DSallocated ());
        (r, state ~null:NSnull ());
      ]
  in
  let b =
    List.fold_left
      (fun st (x, s) -> Store.set st x s)
      Store.empty
      [
        (p, state ~def:DSallocated ());
        (fld q "g", state ~def:DSdefined ());
        (r, state ~null:NSnull ());
        (fld r "h", state ~def:DSpdefined ());
      ]
  in
  List.iter
    (fun (x, y) ->
      let merged =
        Store.merge ~on_conflict:(fun _ -> Alcotest.fail "no conflicts") x y
      in
      let widened = Store.widen x y in
      List.iter
        (fun ref_ ->
          Alcotest.(check bool)
            (Sref.to_string ref_ ^ " def")
            true
            (equal_defstate (Store.get merged ref_).Store.rs_def
               (Store.get widened ref_).Store.rs_def))
        [ fld p "f"; fld q "g"; fld r "h" ])
    [ (a, b); (b, a) ];
  Alcotest.(check bool) "child of allocated storage is undefined" true
    (equal_defstate (Store.get (Store.widen a b) (fld p "f")).Store.rs_def
       DSundefined);
  Alcotest.(check bool) "null parent: the other side stands" true
    (equal_defstate (Store.get (Store.widen a b) (fld r "h")).Store.rs_def
       DSpdefined)

let test_collapse_deep () =
  let p = v "p" and q = v "q" in
  let pf = fld p "f" in
  let pfg = fld pf "g" in
  let shallow =
    Store.set (Store.set Store.empty p (state ())) pf (state ~alloc:ASonly ())
  in
  Alcotest.(check bool) "nothing deep: store unchanged" true
    (Store.collapse_deep ~depth:1 shallow == shallow);
  let st = Store.set shallow pfg (state ~def:DSdead ~alloc:ASkept ()) in
  let st =
    Store.set st q { (state ()) with Store.rs_aliases = Sref.Set.singleton pfg }
  in
  let c = Store.collapse_deep ~depth:1 st in
  Alcotest.(check bool) "p->f->g folded away" false (Store.mem c pfg);
  let s = Store.get c pf in
  Alcotest.(check bool) "p->f joins the dead state" true
    (equal_defstate s.Store.rs_def DSdead);
  Alcotest.(check bool) "p->f keeps the live side's alloc" true
    (equal_allocstate s.Store.rs_alloc ASonly);
  Alcotest.(check bool) "alias set rewritten to p->f" true
    (Sref.Set.equal (Sref.Set.singleton pf) (Store.get c q).Store.rs_aliases);
  Alcotest.(check bool) "p untouched" true
    (equal_defstate (Store.get c p).Store.rs_def DSdefined)

let () =
  Alcotest.run "store"
    [
      ( "lattices",
        [
          Alcotest.test_case "merge_def" `Quick test_merge_def;
          Alcotest.test_case "def_conflict" `Quick test_def_conflict;
          Alcotest.test_case "merge_null" `Quick test_merge_null;
          Alcotest.test_case "merge_alloc" `Quick test_merge_alloc;
          Alcotest.test_case "obligations" `Quick test_obligations;
          QCheck_alcotest.to_alcotest prop_merge_def_comm;
          QCheck_alcotest.to_alcotest prop_merge_null_comm;
          QCheck_alcotest.to_alcotest prop_merge_null_idem;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic ops" `Quick test_store_basic;
          Alcotest.test_case "alias images" `Quick test_alias_images;
          Alcotest.test_case "assignment vs object update" `Quick test_assignment_vs_object_update;
          Alcotest.test_case "drop root" `Quick test_drop_root;
          Alcotest.test_case "merge conflict" `Quick test_merge_stores;
          Alcotest.test_case "dead vs null ok" `Quick test_merge_dead_vs_null_ok;
          Alcotest.test_case "unreachable merge" `Quick test_merge_unreachable;
          Alcotest.test_case "derived defaults" `Quick test_merge_derived_default;
          QCheck_alcotest.to_alcotest prop_merge_idem;
          QCheck_alcotest.to_alcotest prop_merge_comm;
        ] );
      ( "widen",
        [
          QCheck_alcotest.to_alcotest prop_widen_comm;
          Alcotest.test_case "dead dominates" `Quick test_widen_dead_dominates;
          Alcotest.test_case "one-sided fill" `Quick test_widen_one_sided_fill;
          Alcotest.test_case "collapse deep" `Quick test_collapse_deep;
        ] );
    ]
