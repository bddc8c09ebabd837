(** Storage references.

    A reference is "a variable or a location derived from a variable (e.g.,
    a field of a structure)" (paper, Section 3).  The checker tracks
    dataflow values per reference.  External references — those visible to
    the caller — are rooted at parameters, globals, the function result, or
    allocation sites whose storage escapes.

    References are hash-consed: {!root}, {!field}, {!deref} and {!index}
    return the unique physical representative of a term, so within one
    domain structural equality coincides with [(==)], and every value
    carries a precomputed hash, its root and its depth.
    The intern table is domain-local ({!Domain.DLS}): references are
    created, stored and compared inside the per-procedure checker, which
    never shares them across domains (the parallel driver exchanges only
    rendered diagnostics).  {!compare} preserves the pre-interning
    structural order — NOT interning order, which would depend on how
    many procedures a domain happened to check earlier — so store
    iteration, and therefore diagnostic text, is identical no matter how
    work is partitioned across domains. *)

type root =
  | Rlocal of string  (** local variable, or the local copy of a parameter *)
  | Rparam of int * string
      (** the externally visible parameter [argi] (paper, Section 5:
          "we use l to refer to the local variable and argl to refer to the
          externally visible parameter"); the string is the source name,
          kept for messages *)
  | Rglobal of string
  | Rret  (** the function result *)
  | Rfresh of int * string
      (** storage allocated during this function, by site id; the string
          names the allocating function for messages *)
  | Rstatic of int  (** a string literal or other static object *)
[@@deriving eq, ord]

type t = {
  sr_hash : int;  (** precomputed structural hash *)
  sr_node : node;
  sr_root : root;  (** cached [root_of] *)
  sr_depth : int;  (** cached derivation depth *)
  mutable sr_deref : t option;  (** memoized [deref] of this node *)
  mutable sr_fields : (string * t) list;  (** memoized [field]s *)
  mutable sr_indexes : (int option * t) list;  (** memoized [index]es *)
}

and node =
  | Root of root
  | Field of t * string  (** [r.f], or [r->f] via [Field (Deref r, f)] *)
  | Deref of t  (** [*r] *)
  | Index of t * int option
      (** [r[i]]: [Some i] for a compile-time-known index, [None] for an
          unknown index (conflated per the paper's simplifying assumption,
          Section 2) *)

let view r = r.sr_node
let hash r = r.sr_hash
let root_of r = r.sr_root
let depth r = r.sr_depth

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Only roots go through a table; a derived reference is memoized on its
   (unique) base node, so the hot construction path — rebuilding [l->next]
   for the thousandth time inside a loop — is a pointer chase through a
   one-or-two-entry list, with no hashing and no allocation.  The memo
   lists stay tiny because a struct has few fields and a node has one
   deref.  Mutating them is safe: spines never leave the domain that
   interned their root. *)
module Roots = Hashtbl.Make (struct
  type t = root

  let equal = equal_root
  let hash = Hashtbl.hash
end)

type intern_state = { roots : t Roots.t }

let intern_key : intern_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { roots = Roots.create 64 })

(* FNV-style mixing, masked to stay a positive tagged int. *)
let mix h x = (((h * 0x01000193) lxor x) land 0x3FFFFFFF : int)

let fresh node root depth hash =
  Telemetry.Counter.tick Telemetry.c_srefs_interned;
  { sr_hash = hash; sr_node = node; sr_root = root; sr_depth = depth;
    sr_deref = None; sr_fields = []; sr_indexes = [] }

let root rt =
  let st = Domain.DLS.get intern_key in
  match Roots.find_opt st.roots rt with
  | Some r -> r
  | None ->
      let r = fresh (Root rt) rt 0 (mix 1 (Hashtbl.hash rt)) in
      Roots.add st.roots rt r;
      r

let rec assoc_field f = function
  | [] -> None
  | (g, t) :: rest -> if String.equal f g then Some t else assoc_field f rest

let field b f =
  match assoc_field f b.sr_fields with
  | Some t -> t
  | None ->
      let t =
        fresh (Field (b, f)) b.sr_root (b.sr_depth + 1)
          (mix (mix 2 b.sr_hash) (Hashtbl.hash f))
      in
      b.sr_fields <- (f, t) :: b.sr_fields;
      t

let deref b =
  match b.sr_deref with
  | Some t -> t
  | None ->
      let t = fresh (Deref b) b.sr_root (b.sr_depth + 1) (mix 3 b.sr_hash) in
      b.sr_deref <- Some t;
      t

let rec assoc_index i = function
  | [] -> None
  | (j, t) :: rest ->
      if Option.equal Int.equal i j then Some t else assoc_index i rest

let index b i =
  match assoc_index i b.sr_indexes with
  | Some t -> t
  | None ->
      let t =
        fresh (Index (b, i)) b.sr_root (b.sr_depth + 1)
          (mix (mix 4 b.sr_hash) (Hashtbl.hash i))
      in
      b.sr_indexes <- (i, t) :: b.sr_indexes;
      t

(* ------------------------------------------------------------------ *)
(* Equality and order                                                  *)
(* ------------------------------------------------------------------ *)

(* Same-domain values are physically unique, so [==] (or a hash mismatch)
   decides almost every call; the structural fallback only runs on a hash
   collision, or for values interned by different domains. *)
let rec equal a b =
  a == b
  || a.sr_hash = b.sr_hash
     &&
     match (a.sr_node, b.sr_node) with
     | Root ra, Root rb -> equal_root ra rb
     | Field (ba, fa), Field (bb, fb) -> String.equal fa fb && equal ba bb
     | Deref ba, Deref bb -> equal ba bb
     | Index (ba, ia), Index (bb, ib) ->
         Option.equal Int.equal ia ib && equal ba bb
     | _, _ -> false

let node_rank = function
  | Root _ -> 0
  | Field _ -> 1
  | Deref _ -> 2
  | Index _ -> 3

(* Deliberately the OLD structural order (constructor rank, then
   lexicographic), not id order: ids depend on interning history, which
   differs between domains, while this order depends only on the term.
   Shared subterms short-circuit through [==], so in practice a compare
   touches one spine node. *)
let rec compare a b =
  if a == b then 0
  else
    match (a.sr_node, b.sr_node) with
    | Root ra, Root rb -> compare_root ra rb
    | Field (ba, fa), Field (bb, fb) ->
        let c = compare ba bb in
        if c <> 0 then c else String.compare fa fb
    | Deref ba, Deref bb -> compare ba bb
    | Index (ba, ia), Index (bb, ib) ->
        let c = compare ba bb in
        if c <> 0 then c else Option.compare Int.compare ia ib
    | na, nb -> Int.compare (node_rank na) (node_rank nb)

(* ------------------------------------------------------------------ *)
(* Derivation structure                                                *)
(* ------------------------------------------------------------------ *)

(** The base reference one derivation step up, if any. *)
let base r =
  match r.sr_node with
  | Root _ -> None
  | Field (b, _) | Deref b | Index (b, _) -> Some b

(** The ancestor of [r] at derivation depth at most [k] (the reference
    itself when it is already shallow enough).  Used by the [+loopexec]
    widening to collapse unboundedly growing derivation chains — e.g. the
    [p = p->next] list walk — onto a finite set of representatives. *)
let ancestor_at_depth r k =
  let k = if k < 0 then 0 else k in
  let rec up r =
    if r.sr_depth <= k then r
    else match base r with None -> r | Some b -> up b
  in
  up r

(** Has any reference been derived from [r]?  Every derived reference is
    memoized on its base, so a node with empty memo fields has no
    derivation anywhere, in any store. *)
let has_derivations r =
  match r with
  | { sr_deref = None; sr_fields = []; sr_indexes = []; _ } -> false
  | _ -> true

(** Is [inner] a proper derivation of [outer] (reachable from it)?  The
    cached depths bound the walk: once we are no deeper than [outer] no
    base can match. *)
let derived_from ~outer inner =
  let rec up r =
    if r.sr_depth <= outer.sr_depth then false
    else
      match base r with
      | None -> false
      | Some b -> equal b outer || up b
  in
  (not (equal inner outer)) && up inner

(** Does the reference mention the given root?  Roots only occur at the
    leaf, so this is the cached root. *)
let mentions_root rt r = equal_root r.sr_root rt

(** Source-like rendering for messages: [deref p] prints as [*p],
    [field p f] as [p->f]; a field of an explicit dereference renders
    with the star parenthesized. *)
let rec to_string r =
  match r.sr_node with
  | Root (Rlocal n) -> n
  | Root (Rparam (_, n)) -> n
  | Root (Rglobal n) -> n
  | Root Rret -> "<result>"
  | Root (Rfresh (_, fn)) -> Printf.sprintf "<fresh storage from %s>" fn
  | Root (Rstatic _) -> "<static storage>"
  | Field ({ sr_node = Deref b; _ }, f) ->
      Printf.sprintf "(*%s).%s" (to_string b) f
  | Field (b, f) ->
      (* pointer member access is normalized to [field p f], so the
         arrow form is the accurate rendering in practice *)
      Printf.sprintf "%s->%s" (to_string b) f
  | Deref b -> Printf.sprintf "*%s" (to_string b)
  | Index (b, Some i) -> Printf.sprintf "%s[%d]" (to_string b) i
  | Index (b, None) -> Printf.sprintf "%s[]" (to_string b)

(** Is this a reference visible in the caller's environment?  Locals are
    internal; parameters (the [arg] views), globals, result and escaped
    fresh objects are external. *)
let is_external r =
  match r.sr_root with
  | Rlocal _ -> false
  | Rparam _ | Rglobal _ | Rret | Rfresh _ | Rstatic _ -> true

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)

module Map = Stdlib.Map.Make (Ord)
