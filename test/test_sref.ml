(* Interned storage references: physical uniqueness, coherence of
   equal/compare/hash, and agreement of the cached helpers ([root_of],
   [depth], [derived_from], [compare]) with their structural definitions
   — the pre-interning semantics the rest of the checker was written
   against. *)

module Sref = Check.Sref

(* A structural recipe for a reference.  Building one goes through the
   smart constructors, so building the same recipe twice must yield the
   same physical node. *)
type step = Sfield of string | Sderef | Sindex of int option

type recipe = { rroot : Sref.root; rsteps : step list }

let roots =
  [
    Sref.Rlocal "x";
    Sref.Rlocal "y";
    Sref.Rparam (0, "p");
    Sref.Rglobal "g";
    Sref.Rret;
    Sref.Rfresh (1, "malloc");
    Sref.Rstatic 3;
  ]

let gen_step =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Sfield f) (oneofl [ "f"; "next"; "label" ]);
        return Sderef;
        map (fun i -> Sindex i) (oneofl [ None; Some 0; Some 2 ]);
      ])

let gen_recipe =
  QCheck.Gen.(
    map2
      (fun rroot rsteps -> { rroot; rsteps })
      (oneofl roots)
      (list_size (int_bound 5) gen_step))

let build { rroot; rsteps } =
  List.fold_left
    (fun b s ->
      match s with
      | Sfield f -> Sref.field b f
      | Sderef -> Sref.deref b
      | Sindex i -> Sref.index b i)
    (Sref.root rroot) rsteps

let print_recipe r = Sref.to_string (build r)
let arb_recipe = QCheck.make ~print:print_recipe gen_recipe
let arb_pair = QCheck.(pair arb_recipe arb_recipe)

(* ------------------------------------------------------------------ *)
(* Structural reference definitions (the pre-interning semantics)      *)
(* ------------------------------------------------------------------ *)

let node_rank = function
  | Sref.Root _ -> 0
  | Sref.Field _ -> 1
  | Sref.Deref _ -> 2
  | Sref.Index _ -> 3

let rec structural_compare a b =
  match (Sref.view a, Sref.view b) with
  | Sref.Root ra, Sref.Root rb -> Sref.compare_root ra rb
  | Sref.Field (ba, fa), Sref.Field (bb, fb) ->
      let c = structural_compare ba bb in
      if c <> 0 then c else String.compare fa fb
  | Sref.Deref ba, Sref.Deref bb -> structural_compare ba bb
  | Sref.Index (ba, ia), Sref.Index (bb, ib) ->
      let c = structural_compare ba bb in
      if c <> 0 then c else Option.compare Int.compare ia ib
  | na, nb -> Int.compare (node_rank na) (node_rank nb)

let rec structural_root r =
  match Sref.view r with
  | Sref.Root rt -> rt
  | Sref.Field (b, _) | Sref.Deref b | Sref.Index (b, _) -> structural_root b

let rec structural_depth r =
  match Sref.view r with
  | Sref.Root _ -> 0
  | Sref.Field (b, _) | Sref.Deref b | Sref.Index (b, _) ->
      structural_depth b + 1

(* the old (pre-caching) derived_from: walk every base of [inner] and
   look for [outer], with no depth bound *)
let structural_derived_from ~outer inner =
  let rec up r =
    match Sref.base r with
    | None -> false
    | Some b -> Sref.equal b outer || up b
  in
  (not (Sref.equal inner outer)) && up inner

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_intern_unique =
  QCheck.Test.make ~count:300 ~name:"same term interns to same node"
    arb_recipe (fun r -> build r == build r)

let prop_equal_coherent =
  QCheck.Test.make ~count:500
    ~name:"equal = physical = (compare = 0), and equal implies same hash"
    arb_pair
    (fun (ra, rb) ->
      let a = build ra and b = build rb in
      let eq = Sref.equal a b in
      eq = (a == b)
      && eq = (Sref.compare a b = 0)
      && ((not eq) || Sref.hash a = Sref.hash b))

let prop_compare_structural =
  QCheck.Test.make ~count:500
    ~name:"compare agrees with the structural order" arb_pair
    (fun (ra, rb) ->
      let a = build ra and b = build rb in
      let sign c = Stdlib.compare c 0 in
      sign (Sref.compare a b) = sign (structural_compare a b))

let prop_cached_root_depth =
  QCheck.Test.make ~count:300 ~name:"cached root_of/depth match structure"
    arb_recipe
    (fun r ->
      let t = build r in
      Sref.equal_root (Sref.root_of t) (structural_root t)
      && Sref.depth t = structural_depth t)

let prop_derived_from =
  QCheck.Test.make ~count:500
    ~name:"derived_from agrees with the structural definition" arb_pair
    (fun (router, rinner) ->
      let outer = build router and inner = build rinner in
      Sref.derived_from ~outer inner
      = structural_derived_from ~outer inner)

(* a recipe is also derived from every prefix of itself — exercises the
   true case, which random independent pairs rarely hit *)
let prop_derived_from_prefix =
  QCheck.Test.make ~count:300 ~name:"derived_from holds for proper prefixes"
    arb_recipe
    (fun r ->
      let whole = build r in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      List.for_all
        (fun n ->
          let outer = build { r with rsteps = take n r.rsteps } in
          Sref.derived_from ~outer whole
          = structural_derived_from ~outer whole)
        (List.init (List.length r.rsteps) (fun i -> i)))

let () =
  Alcotest.run "sref"
    [
      ( "interning",
        [
          QCheck_alcotest.to_alcotest prop_intern_unique;
          QCheck_alcotest.to_alcotest prop_equal_coherent;
          QCheck_alcotest.to_alcotest prop_compare_structural;
          QCheck_alcotest.to_alcotest prop_cached_root_depth;
        ] );
      ( "derivation",
        [
          QCheck_alcotest.to_alcotest prop_derived_from;
          QCheck_alcotest.to_alcotest prop_derived_from_prefix;
        ] );
    ]
