(** Bottom-up interprocedural memory-effect summaries (see summary.mli
    and docs/summaries.md).

    The extraction is a small path-forking abstract interpreter over the
    function's syntax tree, the one the checker walks: each path carries
    an abstract value per variable (parameter / fresh allocation / NULL /
    global / other), a per-parameter effect record, and the null-guard
    facts learned from conditions.
    Loops contribute their body effects as may-effects (the zero-or-one
    interpretation the checker itself uses); paths are capped and merged
    so extraction stays linear in practice. *)

module Callgraph = Callgraph
module Ast = Cfront.Ast
module Ctype = Sema.Ctype

type prel = Pnone | Pcond | Prelnull | Prel | Ptop

type peffect = { pe_rel : prel; pe_escape : bool; pe_out : bool }

type ret_effect = Rnone | Rfresh | Ralias of int | Rtop

type t = {
  sm_name : string;
  sm_params : peffect array;
  sm_ret : ret_effect;
  sm_ret_null : bool;
  sm_global_escape : bool;
}

type table = (string, t) Hashtbl.t

let no_effect = { pe_rel = Pnone; pe_escape = false; pe_out = false }
let top_effect = { pe_rel = Ptop; pe_escape = false; pe_out = false }

let bottom name n =
  {
    sm_name = name;
    sm_params = Array.make n no_effect;
    sm_ret = Rnone;
    sm_ret_null = false;
    sm_global_escape = false;
  }

let top name n =
  {
    sm_name = name;
    sm_params = Array.make n top_effect;
    sm_ret = Rtop;
    sm_ret_null = false;
    sm_global_escape = false;
  }

let equal_peffect (a : peffect) (b : peffect) =
  a.pe_rel = b.pe_rel && a.pe_escape = b.pe_escape && a.pe_out = b.pe_out

let equal (a : t) (b : t) =
  a.sm_name = b.sm_name
  && Array.length a.sm_params = Array.length b.sm_params
  && Array.for_all2 equal_peffect a.sm_params b.sm_params
  && a.sm_ret = b.sm_ret
  && a.sm_ret_null = b.sm_ret_null
  && a.sm_global_escape = b.sm_global_escape

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let prel_token = function
  | Pnone -> "-"
  | Pcond -> "cond"
  | Prelnull -> "relnull"
  | Prel -> "rel"
  | Ptop -> "top"

let peffect_token (p : peffect) =
  prel_token p.pe_rel
  ^ (if p.pe_escape then "+esc" else "")
  ^ if p.pe_out then "+out" else ""

let ret_token = function
  | Rnone -> "-"
  | Rfresh -> "fresh"
  | Ralias i -> Printf.sprintf "arg%d" i
  | Rtop -> "top"

let render (s : t) =
  Printf.sprintf "%s: params=[%s] ret=%s%s%s" s.sm_name
    (String.concat ","
       (Array.to_list (Array.map peffect_token s.sm_params)))
    (ret_token s.sm_ret)
    (if s.sm_ret_null then " retnull" else "")
    (if s.sm_global_escape then " globesc" else "")

(* One entry per token the render format can emit; cli_test.sh gates this
   list against the token table in docs/summaries.md. *)
let token_vocabulary =
  [ "-"; "rel"; "relnull"; "cond"; "top"; "esc"; "out"; "fresh"; "argN";
    "retnull"; "globesc" ]

let hash (s : t) = Digest.to_hex (Digest.string (render s))

(* ------------------------------------------------------------------ *)
(* Abstract domain of the extraction walk                              *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

(** Abstract value of an expression. *)
type aval =
  | Aparam of int  (** the value of parameter [i] at entry *)
  | Afresh  (** a fresh allocation made during this call *)
  | Anull  (** literal NULL *)
  | Aglobal  (** read directly from a global variable *)
  | Aother

(** Per-parameter facts along one path. *)
type pfact = {
  f_rel : bool;  (** released on this path *)
  f_cond : bool;  (** may have been released (loop body, callee [Pcond]) *)
  f_top : bool;  (** reached an unsummarizable call *)
  f_esc : bool;  (** a reference escaped (global / other parameter) *)
  f_out : bool;  (** written through on this path *)
  f_null : bool;  (** known NULL on this path (guard refinement) *)
}

let pfact0 =
  {
    f_rel = false;
    f_cond = false;
    f_top = false;
    f_esc = false;
    f_out = false;
    f_null = false;
  }

(** One abstract path state (immutable; the facts array is copied on
    write). *)
type pstate = {
  vars : aval SMap.t;
  facts : pfact array;
  ges : bool;  (** stored a pointer into a global on this path *)
}

let update_fact st i f =
  if i < 0 || i >= Array.length st.facts then st
  else
    let facts = Array.copy st.facts in
    facts.(i) <- f facts.(i);
    { st with facts }

let mark_rel st i = update_fact st i (fun p -> { p with f_rel = true })
let mark_cond st i = update_fact st i (fun p -> { p with f_cond = true })
let mark_top st i = update_fact st i (fun p -> { p with f_top = true })
let mark_esc st i = update_fact st i (fun p -> { p with f_esc = true })
let mark_out st i = update_fact st i (fun p -> { p with f_out = true })

let set_null st i v = update_fact st i (fun p -> { p with f_null = v })

(** Join two path states (used when capping the path population). *)
let join_pfact a b =
  {
    f_rel = a.f_rel && b.f_rel;
    f_cond = a.f_cond || b.f_cond || a.f_rel <> b.f_rel;
    f_top = a.f_top || b.f_top;
    f_esc = a.f_esc || b.f_esc;
    f_out = a.f_out && b.f_out;
    f_null = a.f_null && b.f_null;
  }

let join_state a b =
  {
    vars =
      SMap.merge
        (fun _ x y ->
          match (x, y) with Some v, Some w when v = w -> Some v | _ -> None)
        a.vars b.vars;
    facts = Array.map2 join_pfact a.facts b.facts;
    ges = a.ges || b.ges;
  }

let max_paths = 64
let max_rounds = 10

(** Keep at most [max_paths] states, merging the overflow into the last
    survivor (a pure precision loss, never a soundness one). *)
let cap (sts : pstate list) : pstate list =
  let rec take n = function
    | [] -> ([], [])
    | x :: rest ->
        if n = 0 then ([], x :: rest)
        else
          let kept, over = take (n - 1) rest in
          (x :: kept, over)
  in
  let kept, over = take max_paths sts in
  match over with
  | [] -> kept
  | _ -> (
      match List.rev kept with
      | last :: before ->
          List.rev (List.fold_left join_state last over :: before)
      | [] -> [ List.fold_left join_state (List.hd over) (List.tl over) ])

(** Path continuations out of a block. *)
type flow =
  | Fnext of pstate
  | Fret of pstate * aval
  | Fbreak of pstate
  | Fcont of pstate

type ctx = {
  c_prog : Sema.program;
  c_tbl : table;
  mutable c_goto : bool;  (** a goto makes control opaque: bail to ⊤ *)
}

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let is_global ctx st name =
  (not (SMap.mem name st.vars))
  && Option.is_some (Sema.find_global ctx.c_prog name)

let slot_unannotated (e : Sema.eannot) =
  (e.Sema.alloc_implicit || e.Sema.an.Annot.an_alloc = None)
  && not e.Sema.an.Annot.an_killref

(** Evaluate an expression for its memory effects; returns every
    (state, value) continuation.  An empty result means the path dies
    (a call annotated [exits]). *)
let rec eval ctx (st : pstate) (e : Ast.expr) : (pstate * aval) list =
  match e.Ast.e with
  | Ast.Eint (n, _) -> [ (st, if n = 0L then Anull else Aother) ]
  | Ast.Echar _ | Ast.Efloat _ | Ast.Estring _ -> [ (st, Aother) ]
  | Ast.Eident "NULL" when not (SMap.mem "NULL" st.vars) ->
      (* no preprocessor: the conventional spelling is a builtin *)
      [ (st, Anull) ]
  | Ast.Eident x -> (
      match SMap.find_opt x st.vars with
      | Some v -> [ (st, v) ]
      | None ->
          if Option.is_some (Sema.find_global ctx.c_prog x) then
            [ (st, Aglobal) ]
          else [ (st, Aother) ])
  | Ast.Ecast (_, b) -> eval ctx st b
  | Ast.Ecomma (a, b) ->
      List.concat_map (fun (st, _) -> eval ctx st b) (eval ctx st a)
  | Ast.Econd (c, a, b) ->
      List.concat_map
        (fun (st, _) ->
          eval ctx (refine ctx st c true) a
          @ eval ctx (refine ctx st c false) b)
        (eval ctx st c)
  | Ast.Eassign (op, lhs, rhs) ->
      List.concat_map
        (fun (st, v) ->
          let v = if op = None then v else Aother in
          assign ctx st lhs v)
        (eval ctx st rhs)
  | Ast.Ecall (fe, args) -> eval_call ctx st fe args
  | Ast.Emember (b, _) | Ast.Earrow (b, _) | Ast.Ederef b | Ast.Eaddr b ->
      List.map (fun (st, _) -> (st, Aother)) (eval ctx st b)
  | Ast.Eindex (a, i) ->
      List.concat_map
        (fun (st, _) ->
          List.map (fun (st, _) -> (st, Aother)) (eval ctx st i))
        (eval ctx st a)
  | Ast.Eunary (_, b) | Ast.Esizeof_expr b ->
      List.map (fun (st, _) -> (st, Aother)) (eval ctx st b)
  | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b ->
      (* a ++/-- writes its lvalue: tracked locals lose their binding *)
      List.map
        (fun (st, _) ->
          match b.Ast.e with
          | Ast.Eident x when SMap.mem x st.vars ->
              ({ st with vars = SMap.add x Aother st.vars }, Aother)
          | _ -> (st, Aother))
        (eval ctx st b)
  | Ast.Ebinary (_, a, b) ->
      List.concat_map
        (fun (st, _) ->
          List.map (fun (st, _) -> (st, Aother)) (eval ctx st b))
        (eval ctx st a)
  | Ast.Esizeof_type _ -> [ (st, Aother) ]

(** Store [v] into [lhs]: tracks local rebindings and escape/out
    effects. *)
and assign ctx st (lhs : Ast.expr) (v : aval) : (pstate * aval) list =
  match lhs.Ast.e with
  | Ast.Eident x when SMap.mem x st.vars ->
      let st = { st with vars = SMap.add x v st.vars } in
      let st = match v with Aparam i -> set_null st i false | _ -> st in
      (* overwriting a variable that held a parameter loses no fact: the
         facts describe the parameter's storage, not the name *)
      [ (st, v) ]
  | Ast.Eident g when is_global ctx st g ->
      [ (store_escape st v ~global:true, v) ]
  | Ast.Emember (b, _) | Ast.Earrow (b, _) | Ast.Ederef b ->
      List.map (fun (st, bv) -> (through_store st bv v, v)) (eval ctx st b)
  | Ast.Eindex (b, i) ->
      List.concat_map
        (fun (st, bv) ->
          List.map
            (fun (st, _) -> (through_store st bv v, v))
            (eval ctx st i))
        (eval ctx st b)
  | _ -> List.map (fun (st, _) -> (st, v)) (eval ctx st lhs)

(** Record the effects of storing value [v] somewhere that outlives the
    call ([global]), or of a write through base value [bv]. *)
and store_escape st (v : aval) ~global =
  let st =
    match v with
    | Aparam i when global -> { (mark_esc st i) with ges = true }
    | Aparam i -> mark_esc st i
    | Afresh when global -> { st with ges = true }
    | _ -> st
  in
  st

and through_store st (bv : aval) (v : aval) =
  match bv with
  | Aparam j ->
      (* write through a parameter: [out] effect; a stored pointer
         parameter escapes into caller-reachable storage *)
      let st = mark_out st j in
      store_escape st v ~global:false
  | Aglobal -> store_escape st v ~global:true
  | _ -> st

(* ---------------- condition refinement (null guards) ---------------- *)

and refine ctx st (c : Ast.expr) (sense : bool) : pstate =
  match c.Ast.e with
  | Ast.Eunary (Ast.Unot, b) -> refine ctx st b (not sense)
  | Ast.Ecast (_, b) -> refine ctx st b sense
  | Ast.Ebinary (Ast.Bland, a, b) ->
      if sense then refine ctx (refine ctx st a true) b true else st
  | Ast.Ebinary (Ast.Blor, a, b) ->
      if sense then st else refine ctx (refine ctx st a false) b false
  | Ast.Ebinary (Ast.Beq, a, b) when Ast.is_null_constant b ->
      refine_null ctx st a sense
  | Ast.Ebinary (Ast.Beq, a, b) when Ast.is_null_constant a ->
      refine_null ctx st b sense
  | Ast.Ebinary (Ast.Bne, a, b) when Ast.is_null_constant b ->
      refine_null ctx st a (not sense)
  | Ast.Ebinary (Ast.Bne, a, b) when Ast.is_null_constant a ->
      refine_null ctx st b (not sense)
  | _ -> (
      (* a bare pointer test: if (p) / while (p) *)
      match aval_of ctx st c with
      | Some (Aparam i) -> set_null st i (not sense)
      | _ -> st)

(** [refine_null st e known_null]: [e] is known NULL (or known non-null)
    from here on. *)
and refine_null ctx st (e : Ast.expr) (known_null : bool) : pstate =
  match aval_of ctx st e with
  | Some (Aparam i) -> set_null st i known_null
  | _ -> st

(** Effect-free peek at an expression's abstract value. *)
and aval_of ctx st (e : Ast.expr) : aval option =
  match e.Ast.e with
  | Ast.Eident "NULL" when not (SMap.mem "NULL" st.vars) -> Some Anull
  | Ast.Eident x -> (
      match SMap.find_opt x st.vars with
      | Some v -> Some v
      | None ->
          if Option.is_some (Sema.find_global ctx.c_prog x) then Some Aglobal
          else None)
  | Ast.Ecast (_, b) -> aval_of ctx st b
  | Ast.Eint (0L, _) -> Some Anull
  | _ -> None

(* ---------------------------- calls -------------------------------- *)

and eval_call ctx st (fe : Ast.expr) (args : Ast.expr list) :
    (pstate * aval) list =
  (* arguments, left to right, with forking *)
  let conts =
    List.fold_left
      (fun conts a ->
        List.concat_map
          (fun (st, avs) ->
            List.map (fun (st, v) -> (st, v :: avs)) (eval ctx st a))
          conts)
      [ (st, []) ] args
  in
  let conts = List.map (fun (st, avs) -> (st, List.rev avs)) conts in
  match fe.Ast.e with
  | Ast.Eident g when not (SMap.mem g st.vars) -> (
      match Sema.find_func ctx.c_prog g with
      | Some gs ->
          List.concat_map (fun (st, avs) -> apply_known ctx st gs avs) conts
      | None ->
          List.map (fun (st, avs) -> (apply_unknown st avs, Aother)) conts)
  | _ ->
      List.concat_map
        (fun (st, avs) ->
          List.map
            (fun (st, _) -> (apply_unknown st avs, Aother))
            (eval ctx st fe))
        conts

(** A call whose target is invisible (function pointer, undeclared):
    sound ⊤ — any parameter reaching it has unknown effects. *)
and apply_unknown st (avs : aval list) : pstate =
  List.fold_left
    (fun st v -> match v with Aparam i -> mark_top st i | _ -> st)
    st avs

and apply_known ctx st (gs : Sema.funsig) (avs : aval list) :
    (pstate * aval) list =
  let gname = gs.Sema.fs_name in
  let gsum =
    if gs.Sema.fs_defined then Hashtbl.find_opt ctx.c_tbl gname else None
  in
  (* per-slot effects on arguments that carry one of our parameters *)
  let rec fold st j (ps : Sema.param list) (avs : aval list) =
    match (ps, avs) with
    | [], _ | _, [] -> st
    | p :: ps', v :: avs' ->
        let st =
          match v with
          | Aparam i -> apply_slot ctx st gs gsum j p i
          | _ -> st
        in
        fold st (j + 1) ps' avs'
  in
  let st = fold st 0 gs.Sema.fs_params avs in
  (* a summarized callee that writes a global pointer does so on our
     behalf too *)
  let st =
    match gsum with
    | Some sm when sm.sm_global_escape -> { st with ges = true }
    | _ -> st
  in
  if gs.Sema.fs_ret_annots.Sema.an.Annot.an_exits then []
  else
    let ret_an = gs.Sema.fs_ret_annots in
    let returned_arg =
      let rec find ps avs =
        match (ps, avs) with
        | (p : Sema.param) :: _, v :: _
          when p.Sema.pr_annots.Sema.an.Annot.an_returned ->
            Some v
        | _ :: ps', _ :: avs' -> find ps' avs'
        | _ -> None
      in
      find gs.Sema.fs_params avs
    in
    let rv =
      match returned_arg with
      | Some v -> v
      | None -> (
          if not (slot_unannotated ret_an) then
            match ret_an.Sema.an.Annot.an_alloc with
            | Some Annot.Only | Some Annot.Owned -> Afresh
            | _ -> Aother
          else
            match gsum with
            | Some { sm_ret = Rfresh; _ } -> Afresh
            | Some { sm_ret = Ralias k; _ } -> (
                match List.nth_opt avs k with Some v -> v | None -> Aother)
            | _ -> Aother)
    in
    [ (st, rv) ]

(** Effect of passing our parameter [i] as slot [j] of callee [gs]. *)
and apply_slot ctx st (gs : Sema.funsig) (gsum : t option) (j : int)
    (p : Sema.param) (i : int) : pstate =
  ignore ctx;
  let ea = p.Sema.pr_annots in
  if not (slot_unannotated ea) then
    match ea.Sema.an.Annot.an_alloc with
    | Some Annot.Only ->
        (* an explicit only slot consumes the argument (free and the
           destructor wrappers) *)
        mark_rel st i
    | Some Annot.Keep | Some Annot.Owned ->
        (* the obligation transfers but the storage stays usable: our
           lattice cannot express "kept", so give up on this parameter *)
        mark_top st i
    | Some Annot.Temp | Some Annot.Dependent | Some Annot.Shared | None ->
        if ea.Sema.an.Annot.an_killref then mark_top st i else st
  else
    match gsum with
    | None ->
        (* external (or not yet summarized) and unannotated: ⊤ *)
        if Ctype.is_pointer p.Sema.pr_ty then mark_top st i else st
    | Some sm ->
        let pe =
          if j < Array.length sm.sm_params then sm.sm_params.(j)
          else no_effect
        in
        let st =
          match pe.pe_rel with
          | Prel -> mark_rel st i
          | Pcond | Prelnull -> mark_cond st i
          | Ptop -> mark_top st i
          | Pnone -> st
        in
        let st = if pe.pe_escape then mark_esc st i else st in
        let st = if pe.pe_out then mark_out st i else st in
        ignore gs;
        st

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Run the paths [live] through a statement sequence.  Each step sets
    the flows that leave the sequence aside in [acc] and caps the paths
    that go on; at the end, the survivors fall through. *)
let rec walk_stmts ctx (live : pstate list) (acc : flow list)
    (stmts : Ast.stmt list) : flow list =
  match stmts with
  | [] -> List.map (fun s -> Fnext s) live @ acc
  | s :: rest ->
      let live, acc = step ctx live acc s in
      walk_stmts ctx live acc rest

(** One path through a branch, loop body or case arm. *)
and walk_arm ctx (st : pstate) (s : Ast.stmt) : flow list =
  walk_stmts ctx [ st ] [] [ s ]

(** One statement of a sequence.  An empty statement is no step and a
    label is transparent; a [for]'s initializer is a step of its own
    before the loop; every other statement is one step. *)
and step ctx (live : pstate list) (acc : flow list) (s : Ast.stmt) :
    pstate list * flow list =
  let nexts conts = List.map (fun (st, _) -> Fnext st) conts in
  let each live acc (f : pstate -> flow list) =
    let flows = List.concat_map f live in
    let going_on, others =
      List.partition_map
        (function Fnext s -> Either.Left s | f -> Either.Right f)
        flows
    in
    (cap going_on, others @ acc)
  in
  match s.Ast.s with
  | Ast.Sskip -> (live, acc)
  | Ast.Scase (_, s) | Ast.Sdefault s | Ast.Slabel (_, s) -> step ctx live acc s
  | Ast.Sexpr e | Ast.Sassert e ->
      each live acc (fun st -> nexts (eval ctx st e))
  | Ast.Sdecl ds -> each live acc (fun st -> nexts (walk_decls ctx st ds))
  | Ast.Sblock stmts -> each live acc (fun st -> walk_stmts ctx [ st ] [] stmts)
  | Ast.Sif (c, then_, else_) ->
      each live acc (fun st ->
          List.concat_map
            (fun (st, _) ->
              let taken = walk_arm ctx (refine ctx st c true) then_ in
              let not_taken =
                match else_ with
                | Some e -> walk_arm ctx (refine ctx st c false) e
                | None -> [ Fnext (refine ctx st c false) ]
              in
              taken @ not_taken)
            (eval ctx st c))
  | Ast.Swhile (c, body) ->
      each live acc (fun st ->
          List.concat_map
            (fun (st, _) ->
              let skip = Fnext (refine ctx st c false) in
              let body = walk_arm ctx (refine ctx st c true) body in
              skip :: List.map (demote_loop_flow st) body)
            (eval ctx st c))
  | Ast.Sfor (init, copt, sopt, body) ->
      (* the initializer runs exactly once, before the loop *)
      let live, acc =
        match init with Some i -> step ctx live acc i | None -> (live, acc)
      in
      each live acc (fun st -> walk_for ctx st copt sopt body)
  | Ast.Sdo (body, c) ->
      each live acc (fun st ->
          List.concat_map
            (fun f ->
              match f with
              | Fnext s | Fcont s ->
                  List.map (fun (s, _) -> Fnext s) (eval ctx s c)
              | Fbreak s -> [ Fnext s ]
              | f -> [ f ])
            (walk_arm ctx st body))
  | Ast.Sreturn None -> each live acc (fun st -> [ Fret (st, Aother) ])
  | Ast.Sreturn (Some e) ->
      each live acc (fun st ->
          List.map (fun (st, v) -> Fret (st, v)) (eval ctx st e))
  | Ast.Sbreak -> each live acc (fun st -> [ Fbreak st ])
  | Ast.Scontinue -> each live acc (fun st -> [ Fcont st ])
  | Ast.Sswitch (e, body) ->
      let arms, has_default = Ast.switch_arms body in
      each live acc (fun st ->
          List.concat_map
            (fun (st, _) ->
              let arm_flows =
                List.concat_map
                  (fun arm ->
                    List.map
                      (function Fbreak s -> Fnext s | f -> f)
                      (walk_stmts ctx [ st ] [] arm))
                  arms
              in
              if has_default then arm_flows else Fnext st :: arm_flows)
            (eval ctx st e))
  | Ast.Sgoto _ ->
      (* only a goto that some path reaches makes the body opaque *)
      each live acc (fun st ->
          ctx.c_goto <- true;
          [ Fnext st ])

(** The loop of a [for] (its initializer already run) from one path. *)
and walk_for ctx st copt sopt body : flow list =
  let conts =
    match copt with Some c -> eval ctx st c | None -> [ (st, Aother) ]
  in
  List.concat_map
    (fun (st, _) ->
      let skip =
        match copt with
        | Some c -> Fnext (refine ctx st c false)
        | None -> Fnext st
      in
      let entry =
        match copt with Some c -> refine ctx st c true | None -> st
      in
      let body =
        (* the step expression runs after each iteration *)
        List.concat_map
          (fun f ->
            match (f, sopt) with
            | (Fnext s | Fcont s), Some step ->
                List.map (fun (s, _) -> Fnext s) (eval ctx s step)
            | (Fnext s | Fcont s), None -> [ Fnext s ]
            | f, _ -> [ f ])
          (walk_arm ctx entry body)
      in
      skip :: List.map (demote_loop_flow st) body)
    conts

(** Bind each declared name to its initializer's value, forking as the
    initializers do. *)
and walk_decls ctx st (ds : Ast.decl list) : (pstate * aval) list =
  List.fold_left
    (fun conts (d : Ast.decl) ->
      List.concat_map
        (fun (st, _) ->
          if d.Ast.d_name = "" then [ (st, Aother) ]
          else
            let bindings =
              match d.Ast.d_init with
              | Some (Ast.Iexpr e) -> eval ctx st e
              | Some (Ast.Ilist is) ->
                  let rec flatten st = function
                    | [] -> [ (st, Aother) ]
                    | Ast.Iexpr e :: rest ->
                        List.concat_map
                          (fun (st, _) -> flatten st rest)
                          (eval ctx st e)
                    | Ast.Ilist is :: rest ->
                        List.concat_map
                          (fun (st, _) -> flatten st rest)
                          (flatten st is)
                  in
                  flatten st is
              | None -> [ (st, Aother) ]
            in
            List.map
              (fun (st, v) ->
                ({ st with vars = SMap.add d.Ast.d_name v st.vars }, v))
              bindings)
        conts)
    [ (st, Aother) ] ds

(** Loop bodies execute zero or more times: a release first observed
    inside the body is only conditional at the loop exit, and an [out]
    gained inside is not a must-write. *)
and demote_loop_flow (pre : pstate) (f : flow) : flow =
  let demote (post : pstate) =
    let facts =
      Array.mapi
        (fun i (p : pfact) ->
          let p0 = pre.facts.(i) in
          let p =
            if p.f_rel && not p0.f_rel then
              { p with f_rel = false; f_cond = true }
            else p
          in
          if p.f_out && not p0.f_out then { p with f_out = false } else p)
        post.facts
    in
    { post with facts }
  in
  match f with
  | Fnext s -> Fnext (demote s)
  | Fbreak s | Fcont s -> Fnext (demote s)
  | Fret (s, v) -> Fret (s, v)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let summarize (prog : Sema.program) (tbl : table) (fs : Sema.funsig)
    (fd : Cfront.Ast.fundef) : t =
  let nparams = List.length fs.Sema.fs_params in
  let ctx = { c_prog = prog; c_tbl = tbl; c_goto = false } in
  let vars =
    List.fold_left
      (fun (m, i) (p : Sema.param) ->
        (SMap.add p.Sema.pr_name (Aparam i) m, i + 1))
      (SMap.empty, 0) fs.Sema.fs_params
    |> fst
  in
  let st0 = { vars; facts = Array.make nparams pfact0; ges = false } in
  let flows = walk_arm ctx st0 fd.Ast.f_body in
  if ctx.c_goto then top fs.Sema.fs_name nparams
  else begin
    (* normal outcomes: explicit returns, plus falling off the end *)
    let outs =
      List.filter_map
        (function
          | Fret (s, v) -> Some (s, v)
          | Fnext s | Fbreak s | Fcont s -> Some (s, Aother))
        flows
    in
    match outs with
    | [] ->
        (* every path exits: nothing is observable by the caller *)
        bottom fs.Sema.fs_name nparams
    | _ ->
        let param_effect i (p : Sema.param) =
          if not (Ctype.is_pointer p.Sema.pr_ty) then no_effect
          else
            let fact (s, _) = s.facts.(i) in
            let eff_rel o = (fact o).f_rel || (fact o).f_null in
            let all_rel = List.for_all eff_rel outs in
            let any_rel =
              List.exists (fun o -> (fact o).f_rel || (fact o).f_cond) outs
            in
            let any_top = List.exists (fun o -> (fact o).f_top) outs in
            let rel =
              if all_rel then Prel
              else if any_top then Ptop
              else if any_rel then begin
                let retnull (_, v) = v = Anull in
                let relnull =
                  List.exists (fun o -> (fact o).f_rel) outs
                  && List.for_all
                       (fun o ->
                         if (fact o).f_rel then retnull o
                         else if (fact o).f_null then true
                         else (not (retnull o)) && not (fact o).f_cond)
                       outs
                in
                if relnull then Prelnull else Pcond
              end
              else Pnone
            in
            {
              pe_rel = rel;
              pe_escape = List.exists (fun o -> (fact o).f_esc) outs;
              pe_out = List.for_all (fun o -> (fact o).f_out) outs;
            }
        in
        let rets = List.filter_map (function Fret (s, v) -> Some (s, v) | _ -> None) flows in
        let fell_through =
          List.exists (function Fnext _ | Fbreak _ | Fcont _ -> true | _ -> false) flows
        in
        let ret =
          if fell_through || rets = [] then Rnone
          else if List.for_all (fun (_, v) -> v = Afresh) rets then Rfresh
          else
            match rets with
            | (_, Aparam k) :: _
              when List.for_all (fun (_, v) -> v = Aparam k) rets ->
                Ralias k
            | _ -> Rnone
        in
        let ret_null =
          (* a literal-0 return from an int function is not "may return
             NULL"; only pointer returns carry the bit *)
          Ctype.is_pointer fs.Sema.fs_ret
          && List.exists (fun (_, v) -> v = Anull) rets
        in
        {
          sm_name = fs.Sema.fs_name;
          sm_params =
            Array.of_list (List.mapi param_effect fs.Sema.fs_params);
          sm_ret = ret;
          sm_ret_null = ret_null;
          sm_global_escape = List.exists (fun (s, _) -> s.ges) outs;
        }
  end

(* ------------------------------------------------------------------ *)
(* Bottom-up propagation                                               *)
(* ------------------------------------------------------------------ *)

type solution = {
  mutable table : table;
  mutable defs : (string, Sema.funsig * Ast.fundef) Hashtbl.t;
      (** the definition each name is summarized from (the last one in
          source order, like the call graph's edges) *)
  mutable graph : Callgraph.t;
  mutable order : string list array;  (** SCCs, callee-first *)
}

let table sol = sol.table

(* The one per-component solver: seed the component with [bottom] so
   same-SCC calls see the current iterate, then summarize its members
   until nothing changes (once, for a non-recursive component).  The
   result depends only on the members' bodies and on the summaries of
   the callees outside the component. *)
let solve_component prog tbl cg defs component =
  let members = List.filter_map (Hashtbl.find_opt defs) component in
  List.iter
    (fun ((fs : Sema.funsig), _) ->
      Hashtbl.replace tbl fs.Sema.fs_name
        (bottom fs.Sema.fs_name (List.length fs.Sema.fs_params)))
    members;
  let recursive = Callgraph.is_recursive cg component in
  let rec iterate round =
    Telemetry.Counter.tick Telemetry.c_summary_rounds;
    let changed =
      List.fold_left
        (fun changed ((fs : Sema.funsig), fd) ->
          let s = summarize prog tbl fs fd in
          let prev = Hashtbl.find tbl fs.Sema.fs_name in
          Hashtbl.replace tbl fs.Sema.fs_name s;
          changed || not (equal s prev))
        false members
    in
    if changed && recursive then
      if round + 1 >= max_rounds then begin
        (* bounded fixpoint: bail out to ⊤ for the whole component *)
        List.iter
          (fun ((fs : Sema.funsig), _) ->
            Telemetry.Counter.tick Telemetry.c_summary_top;
            Hashtbl.replace tbl fs.Sema.fs_name
              (top fs.Sema.fs_name (List.length fs.Sema.fs_params)))
          members
      end
      else iterate (round + 1)
  in
  if members <> [] then iterate 0;
  List.iter (fun _ -> Telemetry.Counter.tick Telemetry.c_summary_funcs) members

let solve (prog : Sema.program) : solution =
  let tbl : table = Hashtbl.create 64 in
  let defs = Hashtbl.create 64 in
  List.iter
    (fun ((fs : Sema.funsig), fd) ->
      Hashtbl.replace defs fs.Sema.fs_name (fs, fd))
    (Sema.fundefs prog);
  let cg = Callgraph.build prog in
  let order = Array.of_list (Callgraph.sccs cg) in
  Array.iter (solve_component prog tbl cg defs) order;
  { table = tbl; defs; graph = cg; order }

let of_program (prog : Sema.program) : table = (solve prog).table

let refresh (prog : Sema.program) (sol : solution)
    ~(dirty : Ast.fundef list) : string list =
  (* swap in the new bodies; a definition that is not the one a name is
     summarized from (a same-named static in another file) changes
     nothing *)
  let dirty =
    List.filter_map
      (fun (fd : Ast.fundef) ->
        match Hashtbl.find_opt sol.defs fd.Ast.f_name with
        | Some ((fs : Sema.funsig), _)
          when String.equal fs.Sema.fs_loc.Cfront.Loc.file
                 fd.Ast.f_loc.Cfront.Loc.file ->
            Hashtbl.replace sol.defs fd.Ast.f_name (fs, fd);
            Some fd.Ast.f_name
        | _ -> None)
      dirty
  in
  let same_callees name =
    Callgraph.calls sol.graph name
    = Callgraph.defined_callees sol.graph (snd (Hashtbl.find sol.defs name))
  in
  if not (List.for_all same_callees dirty) then begin
    (* the call graph moved: solve from scratch and report the diff *)
    let fresh = solve prog in
    let changed =
      Hashtbl.fold
        (fun name s acc ->
          match Hashtbl.find_opt sol.table name with
          | Some old when equal old s -> acc
          | _ -> name :: acc)
        fresh.table []
    in
    sol.table <- fresh.table;
    sol.defs <- fresh.defs;
    sol.graph <- fresh.graph;
    sol.order <- fresh.order;
    changed
  end
  else begin
    (* one callee-first pass: a component is re-solved after every
       component it calls into, so it sees their final summaries.  The
       pass allocates nothing per component until a summary changes. *)
    let changed = Hashtbl.create 16 in
    let is_dirty f = List.mem f dirty in
    let calls_changed f =
      List.exists (Hashtbl.mem changed) (Callgraph.calls sol.graph f)
    in
    let stale component =
      List.exists is_dirty component
      || (Hashtbl.length changed > 0 && List.exists calls_changed component)
    in
    Array.iter
      (fun component ->
        if stale component then begin
          let before = List.map (Hashtbl.find sol.table) component in
          solve_component prog sol.table sol.graph sol.defs component;
          List.iter2
            (fun name old ->
              if not (equal old (Hashtbl.find sol.table name)) then
                Hashtbl.replace changed name ())
            component before
        end)
      sol.order;
    Hashtbl.fold (fun name () acc -> name :: acc) changed []
  end
