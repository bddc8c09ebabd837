(** A C-subset interpreter over the instrumented heap — the run-time
    checking baseline (the role Purify/dmalloc play in the paper).

    The interpreter is deliberately strict: every memory access goes
    through {!Heap}, so null dereferences, uses of undefined values, uses
    after free, double frees, frees of interior/static storage and bounds
    violations are detected *on the executed path* — and only there, which
    is the paper's central observation about run-time tools ("its
    effectiveness depends entirely on running the right test cases").

    Supported: the whole corpus subset — scalars, pointers, structs/unions
    (by reference), arrays, all control flow except [goto], and an
    essential standard library.  Struct-by-value calls are not supported
    (the corpus never passes structs by value). *)

open Cfront
module Ctype = Sema.Ctype
open Heap

exception Return of slot
exception Break_exc
exception Continue_exc
exception Exit_program of int

exception Abort of string
(** Raised when execution cannot meaningfully continue because the
    program used a construct the interpreter does not support (or the
    harness itself is confused). *)

(** Execution stopped by a resource cap, not by the program: these are
    expected terminations of looping or error-dense programs, and the
    differential oracle must not confuse them with {!Abort} (a genuine
    harness limitation). *)
type limit = Lsteps | Lerrors

exception Limit of limit * string

type frame = {
  mutable vars : (string * (Heap.ptr * Ctype.t)) list;  (** innermost first *)
  frame_depth : int;
}

type state = {
  prog : Sema.program;
  heap : Heap.t;
  globals : (string, Heap.ptr * Ctype.t) Hashtbl.t;
  fundefs : (string, Sema.funsig * Ast.fundef) Hashtbl.t;
  literals : (string, Heap.ptr) Hashtbl.t;
  output : Buffer.t;
  mutable frames : frame list;  (** call stack, innermost first *)
  mutable steps : int;
  max_steps : int;
  max_errors : int;
  mutable rng : int;  (** deterministic pseudo-random state for [rand] *)
  mutable alloc_requests : int;
      (** heap allocation requests seen so far (1-based when gating) *)
  oom_fail : int option;
      (** fail exactly this allocation request (fault injection) *)
}

let step st ~loc =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then
    raise (Limit (Lsteps, Fmt.str "step limit exceeded at %a" Loc.pp loc));
  if List.length st.heap.Heap.errors > st.max_errors then
    raise (Limit (Lerrors, "error limit exceeded"))

let size_of st ty = Layout.size_of st.prog ty

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let current_frame st =
  match st.frames with
  | f :: _ -> f
  | [] -> raise (Abort "no active frame")

let push_frame st =
  let depth = List.length st.frames in
  st.frames <- { vars = []; frame_depth = depth } :: st.frames

let pop_frame st =
  match st.frames with
  | f :: rest ->
      Heap.release_frame st.heap ~depth:f.frame_depth;
      st.frames <- rest
  | [] -> ()

let declare_local st name ty ~loc : Heap.ptr =
  let f = current_frame st in
  let p =
    Heap.alloc st.heap ~kind:(Kstack f.frame_depth) ~size:(size_of st ty) ~loc
  in
  f.vars <- (name, (p, ty)) :: f.vars;
  p

let lookup_var st name : (Heap.ptr * Ctype.t) option =
  match st.frames with
  | f :: _ -> (
      match List.assoc_opt name f.vars with
      | Some v -> Some v
      | None -> Hashtbl.find_opt st.globals name)
  | [] -> Hashtbl.find_opt st.globals name

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let is_true st (v : slot) ~loc : bool =
  match v with
  | Sint 0L | Snull -> false
  | Sint _ | Sptr _ -> true
  | Sfloat f -> f <> 0.0
  | Sundef ->
      Heap.report st.heap Euse_undefined ~loc
        "branch on uninitialized value";
      false

let as_int st (v : slot) ~loc : int64 =
  match v with
  | Sint n -> n
  | Snull -> 0L
  | Sfloat f -> Int64.of_float f
  | Sundef ->
      Heap.report st.heap Euse_undefined ~loc
        "arithmetic on uninitialized value";
      0L
  | Sptr _ ->
      Heap.report st.heap (Ebad_arg "pointer-as-int") ~loc
        "pointer used as integer";
      0L

let intern_literal st (s : string) ~loc : Heap.ptr =
  match Hashtbl.find_opt st.literals s with
  | Some p -> p
  | None ->
      let n = String.length s in
      let p = Heap.alloc st.heap ~kind:Kstatic ~size:(n + 1) ~loc in
      (match Heap.find st.heap p.p_block with
      | Some b ->
          String.iteri
            (fun i c -> b.b_slots.(i) <- Sint (Int64.of_int (Char.code c)))
            s;
          b.b_slots.(n) <- Sint 0L
      | None -> ());
      Hashtbl.replace st.literals s p;
      p

(** Read a NUL-terminated string starting at [p]. *)
let read_cstring st (p : Heap.ptr) ~loc : string =
  let buf = Buffer.create 16 in
  let rec go off =
    if off - p.p_off > 1_000_000 then raise (Abort "unterminated string")
    else
      match Heap.read st.heap { p with p_off = off } ~loc with
      | Some (Sint 0L) | None -> ()
      | Some (Sint c) ->
          Buffer.add_char buf (Char.chr (Int64.to_int c land 0xff));
          go (off + 1)
      | Some Snull -> ()
      | Some Sundef ->
          Heap.report st.heap Euse_undefined ~loc
            "read of uninitialized character in string";
          ()
      | Some _ -> ()
  in
  go p.p_off;
  Buffer.contents buf

let write_cstring st (p : Heap.ptr) (s : string) ~loc : unit =
  String.iteri
    (fun i c ->
      Heap.write st.heap
        { p with p_off = p.p_off + i }
        (Sint (Int64.of_int (Char.code c)))
        ~loc)
    s;
  Heap.write st.heap
    { p with p_off = p.p_off + String.length s }
    (Sint 0L) ~loc

(* ------------------------------------------------------------------ *)
(* Static typing of expressions (for sizeof and pointer scaling)       *)
(* ------------------------------------------------------------------ *)

let rec type_of_expr st (e : Ast.expr) : Ctype.t =
  match e.e with
  | Ast.Eint _ -> Ctype.int_
  | Ast.Echar _ -> Ctype.char_
  | Ast.Efloat _ -> Ctype.Cfloat Ctype.Fdouble
  | Ast.Estring _ -> Ctype.charptr
  | Ast.Eident "NULL" when lookup_var st "NULL" = None -> Ctype.voidptr
  | Ast.Eident x -> (
      match lookup_var st x with
      | Some (_, ty) -> ty
      | None -> (
          match Sema.find_func st.prog x with
          | Some fs -> fs.Sema.fs_ret
          | None -> Ctype.int_))
  | Ast.Ecall ({ e = Ast.Eident f; _ }, _) -> (
      match Sema.find_func st.prog f with
      | Some fs -> fs.Sema.fs_ret
      | None -> Ctype.int_)
  | Ast.Ecall _ -> Ctype.int_
  | Ast.Emember (b, f) | Ast.Earrow (b, f) -> (
      let bty = type_of_expr st b in
      let obj = match Ctype.deref bty with Some t -> t | None -> bty in
      match Layout.field_offset st.prog obj f with
      | Some (_, fty) -> fty
      | None -> Ctype.int_)
  | Ast.Eindex (b, _) | Ast.Ederef b -> (
      match Ctype.deref (type_of_expr st b) with
      | Some t -> t
      | None -> Ctype.int_)
  | Ast.Eaddr b -> Ctype.Cptr (type_of_expr st b)
  | Ast.Eunary _ -> Ctype.int_
  | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b ->
      type_of_expr st b
  | Ast.Ebinary ((Ast.Badd | Ast.Bsub), a, b) ->
      let ta = type_of_expr st a in
      if Ctype.is_pointer ta then ta
      else
        let tb = type_of_expr st b in
        if Ctype.is_pointer tb then tb else ta
  | Ast.Ebinary _ -> Ctype.int_
  | Ast.Eassign (_, lhs, _) -> type_of_expr st lhs
  | Ast.Econd (_, t, _) -> type_of_expr st t
  | Ast.Ecast (ty, _) -> Sema.resolve_ty st.prog ~loc:e.eloc ty
  | Ast.Esizeof_expr _ | Ast.Esizeof_type _ -> Ctype.size_t
  | Ast.Ecomma (_, b) -> type_of_expr st b

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval st (e : Ast.expr) : slot =
  let loc = e.eloc in
  step st ~loc;
  match e.e with
  | Ast.Eint (v, _) -> Sint v
  | Ast.Echar c -> Sint (Int64.of_int (Char.code c))
  | Ast.Efloat (f, _) -> Sfloat f
  | Ast.Estring s -> Sptr (intern_literal st s ~loc)
  | Ast.Eident "NULL" when lookup_var st "NULL" = None -> Snull
  | Ast.Eident x -> (
      match lookup_var st x with
      | Some (p, ty) -> (
          match Ctype.unroll ty with
          | Ctype.Carray _ -> Sptr p (* array decays to pointer *)
          | Ctype.Cstruct _ | Ctype.Cunion _ ->
              raise (Abort "struct used as rvalue")
          | _ -> ( match Heap.read st.heap p ~loc with Some v -> v | None -> Sundef))
      | None -> (
          match Sema.find_enum_const st.prog x with
          | Some v -> Sint v
          | None ->
              if Option.is_some (Sema.find_func st.prog x) then Sint 0L
              else raise (Abort (Fmt.str "unbound identifier %s at %a" x Loc.pp loc))))
  | Ast.Ecall (f, args) -> eval_call st f args ~loc
  | Ast.Emember _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Ederef _ -> (
      match lval st e with
      | Some p, ty -> (
          match Ctype.unroll ty with
          | Ctype.Carray _ -> Sptr p
          | Ctype.Cstruct _ | Ctype.Cunion _ ->
              raise (Abort "struct used as rvalue")
          | _ -> (
              match Heap.read st.heap p ~loc with
              | Some v -> v
              | None -> Sundef))
      | None, _ -> Sundef)
  | Ast.Eaddr b -> (
      match lval st b with
      | Some p, _ -> Sptr p
      | None, _ -> Snull)
  | Ast.Eunary (op, b) -> (
      let v = eval st b in
      match op with
      | Ast.Uneg -> Sint (Int64.neg (as_int st v ~loc))
      | Ast.Ubnot -> Sint (Int64.lognot (as_int st v ~loc))
      | Ast.Unot -> Sint (if is_true st v ~loc then 0L else 1L))
  | Ast.Epostincr b | Ast.Epostdecr b | Ast.Epreincr b | Ast.Epredecr b -> (
      let post = match e.e with Ast.Epostincr _ | Ast.Epostdecr _ -> true | _ -> false in
      let dec = match e.e with Ast.Epostdecr _ | Ast.Epredecr _ -> true | _ -> false in
      match lval st b with
      | Some p, ty ->
          let old = match Heap.read st.heap p ~loc with Some v -> v | None -> Sundef in
          let stride =
            match Ctype.deref ty with
            | Some t when Ctype.is_pointer ty -> size_of st t
            | _ -> 1
          in
          let nv =
            match old with
            | Sptr q ->
                Sptr { q with p_off = q.p_off + (if dec then -stride else stride) }
            | v ->
                let d = if dec then -1L else 1L in
                Sint (Int64.add (as_int st v ~loc) d)
          in
          Heap.write st.heap p nv ~loc;
          if post then old else nv
      | None, _ -> Sundef)
  | Ast.Ebinary (op, a, b) -> eval_binop st op a b ~loc
  | Ast.Eassign (op, lhs, rhs) -> eval_assign st op lhs rhs ~loc
  | Ast.Econd (c, t, f) ->
      if is_true st (eval st c) ~loc then eval st t else eval st f
  | Ast.Ecast (_, b) -> eval st b
  | Ast.Esizeof_expr b -> Sint (Int64.of_int (size_of st (type_of_expr st b)))
  | Ast.Esizeof_type ty ->
      Sint (Int64.of_int (size_of st (Sema.resolve_ty st.prog ~loc ty)))
  | Ast.Ecomma (a, b) ->
      ignore (eval st a);
      eval st b

and eval_binop st op a b ~loc : slot =
  match op with
  | Ast.Bland ->
      if is_true st (eval st a) ~loc then
        Sint (if is_true st (eval st b) ~loc then 1L else 0L)
      else Sint 0L
  | Ast.Blor ->
      if is_true st (eval st a) ~loc then Sint 1L
      else Sint (if is_true st (eval st b) ~loc then 1L else 0L)
  | _ -> (
      let ta = type_of_expr st a in
      let va = eval st a in
      let vb = eval st b in
      match (op, va, vb) with
      (* pointer arithmetic: scale by pointee size *)
      | Ast.Badd, Sptr p, v | Ast.Badd, v, Sptr p ->
          let stride =
            match Ctype.deref (if Ctype.is_pointer ta then ta else type_of_expr st b) with
            | Some t -> size_of st t
            | None -> 1
          in
          Sptr { p with p_off = p.p_off + (Int64.to_int (as_int st v ~loc) * stride) }
      | Ast.Bsub, Sptr p, Sptr q ->
          if p.p_block <> q.p_block then begin
            Heap.report st.heap (Ebad_arg "ptrdiff") ~loc
              "subtraction of pointers into different blocks";
            Sint 0L
          end
          else
            let stride =
              match Ctype.deref ta with Some t -> size_of st t | None -> 1
            in
            Sint (Int64.of_int ((p.p_off - q.p_off) / max stride 1))
      | Ast.Bsub, Sptr p, v ->
          let stride =
            match Ctype.deref ta with Some t -> size_of st t | None -> 1
          in
          Sptr { p with p_off = p.p_off - (Int64.to_int (as_int st v ~loc) * stride) }
      (* pointer comparisons *)
      | Ast.Beq, pa, pb when is_ptrish pa || is_ptrish pb ->
          Sint (if ptr_eq st pa pb ~loc then 1L else 0L)
      | Ast.Bne, pa, pb when is_ptrish pa || is_ptrish pb ->
          Sint (if ptr_eq st pa pb ~loc then 0L else 1L)
      | _, Sfloat _, _ | _, _, Sfloat _ -> eval_float_binop st op va vb ~loc
      | _ ->
          let x = as_int st va ~loc and y = as_int st vb ~loc in
          let open Int64 in
          let bool_ b = if b then 1L else 0L in
          Sint
            (match op with
            | Ast.Badd -> add x y
            | Ast.Bsub -> sub x y
            | Ast.Bmul -> mul x y
            | Ast.Bdiv ->
                if y = 0L then (
                  Heap.report st.heap (Ebad_arg "div0") ~loc "division by zero";
                  0L)
                else div x y
            | Ast.Bmod ->
                if y = 0L then (
                  Heap.report st.heap (Ebad_arg "div0") ~loc "modulo by zero";
                  0L)
                else rem x y
            | Ast.Bshl -> shift_left x (to_int y land 63)
            | Ast.Bshr -> shift_right x (to_int y land 63)
            | Ast.Bband -> logand x y
            | Ast.Bbor -> logor x y
            | Ast.Bbxor -> logxor x y
            | Ast.Blt -> bool_ (x < y)
            | Ast.Bgt -> bool_ (x > y)
            | Ast.Ble -> bool_ (x <= y)
            | Ast.Bge -> bool_ (x >= y)
            | Ast.Beq -> bool_ (x = y)
            | Ast.Bne -> bool_ (x <> y)
            | Ast.Bland | Ast.Blor -> assert false))

and is_ptrish = function Sptr _ | Snull -> true | _ -> false

and ptr_eq st a b ~loc =
  match (a, b) with
  | Snull, Snull -> true
  | Snull, Sptr _ | Sptr _, Snull -> false
  | Sptr p, Sptr q -> p.p_block = q.p_block && p.p_off = q.p_off
  | Snull, v | v, Snull -> as_int st v ~loc = 0L
  | _ -> as_int st a ~loc = as_int st b ~loc

and eval_float_binop st op va vb ~loc : slot =
  let f = function
    | Sfloat f -> f
    | v -> Int64.to_float (as_int st v ~loc)
  in
  let x = f va and y = f vb in
  let bool_ b = Sint (if b then 1L else 0L) in
  match op with
  | Ast.Badd -> Sfloat (x +. y)
  | Ast.Bsub -> Sfloat (x -. y)
  | Ast.Bmul -> Sfloat (x *. y)
  | Ast.Bdiv -> Sfloat (x /. y)
  | Ast.Blt -> bool_ (x < y)
  | Ast.Bgt -> bool_ (x > y)
  | Ast.Ble -> bool_ (x <= y)
  | Ast.Bge -> bool_ (x >= y)
  | Ast.Beq -> bool_ (x = y)
  | Ast.Bne -> bool_ (x <> y)
  | _ ->
      Heap.report st.heap (Ebad_arg "float-op") ~loc
        "unsupported floating operation";
      Sundef

and eval_assign st op lhs rhs ~loc : slot =
  match op with
  | Some bop ->
      let v = eval_binop st bop lhs rhs ~loc in
      (match lval st lhs with
      | Some p, _ -> Heap.write st.heap p v ~loc
      | None, _ -> ());
      v
  | None -> (
      let lty = type_of_expr st lhs in
      if Ctype.is_aggregate lty then begin
        (* struct assignment: slot-wise copy *)
        match (lval st lhs, lval st rhs) with
        | (Some pd, _), (Some ps, _) ->
            let n = size_of st lty in
            for i = 0 to n - 1 do
              match Heap.read st.heap { ps with p_off = ps.p_off + i } ~loc with
              | Some v ->
                  Heap.write st.heap { pd with p_off = pd.p_off + i } v ~loc
              | None -> ()
            done;
            Snull
        | _ -> Sundef
      end
      else
        let v = eval st rhs in
        (match lval st lhs with
        | Some p, _ -> Heap.write st.heap p v ~loc
        | None, _ -> ());
        v)

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

and lval st (e : Ast.expr) : Heap.ptr option * Ctype.t =
  let loc = e.eloc in
  match e.e with
  | Ast.Eident x -> (
      match lookup_var st x with
      | Some (p, ty) -> (Some p, ty)
      | None -> raise (Abort (Fmt.str "unbound identifier %s at %a" x Loc.pp loc)))
  | Ast.Ederef b -> (
      let ty =
        match Ctype.deref (type_of_expr st b) with
        | Some t -> t
        | None -> Ctype.int_
      in
      match eval st b with
      | Sptr p -> (Some p, ty)
      | Snull ->
          Heap.report st.heap Enull_deref ~loc "dereference of null pointer";
          (None, ty)
      | Sundef ->
          Heap.report st.heap Euse_undefined ~loc
            "dereference of uninitialized pointer";
          (None, ty)
      | _ ->
          Heap.report st.heap (Ebad_arg "deref") ~loc
            "dereference of non-pointer value";
          (None, ty))
  | Ast.Eindex (b, idx) -> (
      let ety =
        match Ctype.deref (type_of_expr st b) with
        | Some t -> t
        | None -> Ctype.int_
      in
      let i = Int64.to_int (as_int st (eval st idx) ~loc) in
      match eval st b with
      | Sptr p -> (Some { p with p_off = p.p_off + (i * size_of st ety) }, ety)
      | Snull ->
          Heap.report st.heap Enull_deref ~loc "index of null pointer";
          (None, ety)
      | Sundef ->
          Heap.report st.heap Euse_undefined ~loc
            "index of uninitialized pointer";
          (None, ety)
      | _ -> (None, ety))
  | Ast.Emember (b, f) when not (Ctype.is_pointer (type_of_expr st b)) -> (
      let bty = type_of_expr st b in
      match (lval st b, Layout.field_offset st.prog bty f) with
      | (Some p, _), Some (off, fty) ->
          (Some { p with p_off = p.p_off + off }, fty)
      | _, Some (_, fty) -> (None, fty)
      | _, None ->
          raise (Abort (Fmt.str "unknown field %s at %a" f Loc.pp loc)))
  | Ast.Emember (b, f) | Ast.Earrow (b, f) -> (
      let bty = type_of_expr st b in
      let obj = match Ctype.deref bty with Some t -> t | None -> bty in
      match Layout.field_offset st.prog obj f with
      | None -> raise (Abort (Fmt.str "unknown field %s at %a" f Loc.pp loc))
      | Some (off, fty) -> (
          match eval st b with
          | Sptr p -> (Some { p with p_off = p.p_off + off }, fty)
          | Snull ->
              Heap.report st.heap Enull_deref ~loc
                "field access through null pointer (->%s)" f;
              (None, fty)
          | Sundef ->
              Heap.report st.heap Euse_undefined ~loc
                "field access through uninitialized pointer (->%s)" f;
              (None, fty)
          | _ -> (None, fty)))
  | Ast.Ecast (_, b) -> lval st b
  | _ ->
      (* not an lvalue: evaluate for effect and fail *)
      ignore (eval st e);
      (None, Ctype.int_)

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and eval_call st (f : Ast.expr) (args : Ast.expr list) ~loc : slot =
  match f.e with
  | Ast.Eident name -> (
      match Hashtbl.find_opt st.fundefs name with
      | Some (fs, def) ->
          let argv = List.map (fun a -> (eval st a, type_of_expr st a)) args in
          call_fundef st fs def argv ~loc
      | None -> call_builtin st name args ~loc)
  | _ -> raise (Abort (Fmt.str "unsupported indirect call at %a" Loc.pp loc))

and call_fundef st (fs : Sema.funsig) (def : Ast.fundef)
    (argv : (slot * Ctype.t) list) ~loc : slot =
  if List.length st.frames > 200 then
    raise (Abort (Fmt.str "call stack overflow at %a" Loc.pp loc));
  push_frame st;
  (* bind parameters as fresh stack slots *)
  List.iteri
    (fun i (p : Sema.param) ->
      let v = match List.nth_opt argv i with Some (v, _) -> v | None -> Sundef in
      let ptr = declare_local st p.Sema.pr_name p.Sema.pr_ty ~loc in
      Heap.write st.heap ptr v ~loc)
    fs.Sema.fs_params;
  let result =
    try
      exec st def.Ast.f_body;
      Sundef
    with Return v -> v
  in
  pop_frame st;
  result

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec st (s : Ast.stmt) : unit =
  let loc = s.sloc in
  step st ~loc;
  match s.s with
  | Ast.Sskip -> ()
  | Ast.Sexpr e -> ignore (eval st e)
  | Ast.Sassert e ->
      if not (is_true st (eval st e) ~loc) then begin
        Buffer.add_string st.output "assertion failed\n";
        raise (Exit_program 134)
      end
  | Ast.Sdecl decls -> List.iter (exec_decl st ~loc) decls
  | Ast.Sblock stmts ->
      (* locals are per-frame; block scoping approximated by name shadowing *)
      let f = current_frame st in
      let saved = f.vars in
      List.iter (exec st) stmts;
      f.vars <- saved
  | Ast.Sif (c, t, e) ->
      if is_true st (eval st c) ~loc then exec st t
      else Option.iter (exec st) e
  | Ast.Swhile (c, body) ->
      (try
         while is_true st (eval st c) ~loc do
           try exec st body with Continue_exc -> ()
         done
       with Break_exc -> ())
  | Ast.Sdo (body, c) ->
      (try
         let continue_ = ref true in
         while !continue_ do
           (try exec st body with Continue_exc -> ());
           continue_ := is_true st (eval st c) ~loc
         done
       with Break_exc -> ())
  | Ast.Sfor (init, cond, stepe, body) ->
      Option.iter (exec st) init;
      (try
         while
           match cond with Some c -> is_true st (eval st c) ~loc | None -> true
         do
           (try exec st body with Continue_exc -> ());
           Option.iter (fun e -> ignore (eval st e)) stepe
         done
       with Break_exc -> ())
  | Ast.Sreturn None -> raise (Return Sundef)
  | Ast.Sreturn (Some e) -> raise (Return (eval st e))
  | Ast.Sbreak -> raise Break_exc
  | Ast.Scontinue -> raise Continue_exc
  | Ast.Sswitch (e, body) -> exec_switch st e body ~loc
  | Ast.Scase (_, s) -> exec st s
  | Ast.Sdefault s -> exec st s
  | Ast.Sgoto _ -> raise (Abort "goto is not supported by the interpreter")
  | Ast.Slabel (_, s) -> exec st s

and exec_decl st ~loc (d : Ast.decl) : unit =
  if d.d_name = "" || d.d_storage = Ast.Stypedef then ()
  else begin
    let ty = Sema.resolve_ty st.prog ~loc:d.d_loc d.d_ty in
    let p = declare_local st d.d_name ty ~loc in
    match d.d_init with
    | Some (Ast.Iexpr e) ->
        if Ctype.is_aggregate ty then begin
          match lval st e with
          | Some ps, _ ->
              let n = size_of st ty in
              for i = 0 to n - 1 do
                match
                  Heap.read st.heap { ps with p_off = ps.p_off + i } ~loc
                with
                | Some v ->
                    Heap.write st.heap { p with p_off = p.p_off + i } v ~loc
                | None -> ()
              done
          | None, _ -> ()
        end
        else Heap.write st.heap p (eval st e) ~loc
    | Some (Ast.Ilist items) ->
        List.iteri
          (fun i item ->
            match item with
            | Ast.Iexpr e ->
                Heap.write st.heap { p with p_off = p.p_off + i } (eval st e) ~loc
            | Ast.Ilist _ -> ())
          items
    | None -> ()
  end

and exec_switch st e body ~loc : unit =
  let v = as_int st (eval st e) ~loc in
  (* find the matching case (or default) among the direct statements *)
  let stmts = match body.Ast.s with Ast.Sblock ss -> ss | _ -> [ body ] in
  let matches (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Scase (ce, _) -> (
        match Sema.const_eval st.prog ce with Some cv -> cv = v | None -> false)
    | _ -> false
  in
  let rec from l =
    match l with
    | [] -> []
    | s :: _ when matches s -> l
    | _ :: rest -> from rest
  in
  let selected =
    match from stmts with
    | [] ->
        let rec fromdef = function
          | [] -> []
          | ({ Ast.s = Ast.Sdefault _; _ } :: _ as l) -> l
          | _ :: rest -> fromdef rest
        in
        fromdef stmts
    | l -> l
  in
  try List.iter (exec st) selected with Break_exc -> ()

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

and call_builtin st name (args : Ast.expr list) ~loc : slot =
  let int_arg i =
    match List.nth_opt args i with
    | Some a -> as_int st (eval st a) ~loc
    | None -> 0L
  in
  let val_arg i =
    match List.nth_opt args i with Some a -> eval st a | None -> Sundef
  in
  let ptr_arg ?(what = name) i =
    match val_arg i with
    | Sptr p -> Some p
    | Snull -> None
    | Sundef ->
        Heap.report st.heap Euse_undefined ~loc
          "uninitialized pointer passed to %s" what;
        None
    | _ ->
        Heap.report st.heap (Ebad_arg what) ~loc "non-pointer passed to %s" what;
        None
  in
  (* Every heap allocation goes through this gate: the fault-injection
     schedule can force any single request to fail, modeling OOM. *)
  let heap_alloc ~size =
    st.alloc_requests <- st.alloc_requests + 1;
    match st.oom_fail with
    | Some n when n = st.alloc_requests ->
        Telemetry.Counter.tick Telemetry.c_oom_injections;
        None
    | _ -> Some (Heap.alloc st.heap ~kind:Kheap ~size ~loc)
  in
  let fresh_block ~size =
    match heap_alloc ~size with Some p -> Sptr p | None -> Snull
  in
  let zeroed_block ~size =
    match heap_alloc ~size with
    | None -> Snull
    | Some p ->
        (match Heap.find st.heap p.p_block with
        | Some b -> Array.fill b.b_slots 0 (Array.length b.b_slots) (Sint 0L)
        | None -> ());
        Sptr p
  in
  let realloc_impl ~what n =
    match val_arg 0 with
    | Snull -> fresh_block ~size:n
    | Sptr p -> (
        match Heap.find st.heap p.p_block with
        | Some b when b.b_live && p.p_off = 0 -> (
            match heap_alloc ~size:n with
            | None -> Snull (* injected failure: the old block survives *)
            | Some np ->
                (match Heap.find st.heap np.p_block with
                | Some nb -> Array.blit b.b_slots 0 nb.b_slots 0 (min b.b_size n)
                | None -> ());
                Heap.free st.heap p ~loc;
                Sptr np)
        | _ ->
            Heap.free st.heap p ~loc (* reports the right error *);
            Snull)
    | _ ->
        Heap.report st.heap (Ebad_arg what) ~loc "bad pointer passed to %s" what;
        Snull
  in
  match name with
  | "malloc" -> fresh_block ~size:(Int64.to_int (int_arg 0))
  | "aligned_alloc" ->
      (* alignment (arg 0) does not matter to the slot-based heap model *)
      fresh_block ~size:(Int64.to_int (int_arg 1))
  | "calloc" ->
      zeroed_block ~size:(Int64.to_int (int_arg 0) * Int64.to_int (int_arg 1))
  | "realloc" -> realloc_impl ~what:"realloc" (Int64.to_int (int_arg 1))
  | "reallocarray" ->
      realloc_impl ~what:"reallocarray"
        (Int64.to_int (int_arg 1) * Int64.to_int (int_arg 2))
  | "free" -> (
      match val_arg 0 with
      | Snull -> Snull (* ANSI allows free(NULL) *)
      | Sptr p ->
          Heap.free st.heap p ~loc;
          Snull
      | Sundef ->
          Heap.report st.heap Euse_undefined ~loc
            "uninitialized pointer passed to free";
          Snull
      | _ ->
          Heap.report st.heap (Ebad_arg "free") ~loc
            "non-pointer passed to free";
          Snull)
  | "exit" -> raise (Exit_program (Int64.to_int (int_arg 0)))
  | "abort" -> raise (Exit_program 134)
  | "assert" ->
      if not (is_true st (val_arg 0) ~loc) then begin
        Buffer.add_string st.output "assertion failed\n";
        raise (Exit_program 134)
      end
      else Sint 0L
  | "strlen" -> (
      match ptr_arg 0 with
      | Some p -> Sint (Int64.of_int (String.length (read_cstring st p ~loc)))
      | None ->
          Heap.report st.heap Enull_deref ~loc "null passed to strlen";
          Sint 0L)
  | "strcpy" | "strcat" -> (
      match (ptr_arg 0, ptr_arg 1) with
      | Some d, Some s ->
          let text = read_cstring st s ~loc in
          let base =
            if name = "strcat" then
              let existing = read_cstring st d ~loc in
              { d with p_off = d.p_off + String.length existing }
            else d
          in
          write_cstring st base text ~loc;
          Sptr d
      | _ ->
          Heap.report st.heap Enull_deref ~loc "null passed to %s" name;
          Snull)
  | "strcmp" | "strncmp" -> (
      match (ptr_arg 0, ptr_arg 1) with
      | Some a, Some b ->
          let sa = read_cstring st a ~loc and sb = read_cstring st b ~loc in
          let sa, sb =
            if name = "strncmp" then
              let n = Int64.to_int (int_arg 2) in
              let cut s = if String.length s > n then String.sub s 0 n else s in
              (cut sa, cut sb)
            else (sa, sb)
          in
          Sint (Int64.of_int (compare sa sb))
      | _ ->
          Heap.report st.heap Enull_deref ~loc "null passed to %s" name;
          Sint 0L)
  | "strdup" -> (
      match ptr_arg 0 with
      | Some p -> (
          let s = read_cstring st p ~loc in
          match heap_alloc ~size:(String.length s + 1) with
          | None -> Snull
          | Some np ->
              write_cstring st np s ~loc;
              Sptr np)
      | None ->
          Heap.report st.heap Enull_deref ~loc "null passed to strdup";
          Snull)
  | "memset" -> (
      match ptr_arg 0 with
      | Some p ->
          let v = int_arg 1 and n = Int64.to_int (int_arg 2) in
          for i = 0 to n - 1 do
            Heap.write st.heap { p with p_off = p.p_off + i } (Sint v) ~loc
          done;
          Sptr p
      | None -> Snull)
  | "memcpy" | "memmove" -> (
      match (ptr_arg 0, ptr_arg 1) with
      | Some d, Some s ->
          let n = Int64.to_int (int_arg 2) in
          for i = 0 to n - 1 do
            match Heap.read st.heap { s with p_off = s.p_off + i } ~loc with
            | Some v -> Heap.write st.heap { d with p_off = d.p_off + i } v ~loc
            | None -> ()
          done;
          Sptr d
      | _ -> Snull)
  | "printf" | "fprintf" | "sprintf" ->
      eval_printf st name args ~loc
  | "puts" -> (
      match ptr_arg 0 with
      | Some p ->
          Buffer.add_string st.output (read_cstring st p ~loc);
          Buffer.add_char st.output '\n';
          Sint 0L
      | None -> Sint (-1L))
  | "putchar" ->
      let c = Int64.to_int (int_arg 0) land 0xff in
      Buffer.add_char st.output (Char.chr c);
      Sint (Int64.of_int c)
  | "getchar" -> Sint (-1L)
  | "atoi" | "atol" -> (
      match ptr_arg 0 with
      | Some p -> (
          let s = String.trim (read_cstring st p ~loc) in
          match Int64.of_string_opt s with Some v -> Sint v | None -> Sint 0L)
      | None -> Sint 0L)
  | "abs" -> Sint (Int64.abs (int_arg 0))
  | "rand" ->
      st.rng <- ((st.rng * 1103515245) + 12345) land 0x3FFFFFFF;
      Sint (Int64.of_int st.rng)
  | "srand" ->
      st.rng <- Int64.to_int (int_arg 0) land 0x3FFFFFFF;
      Sint 0L
  | "getenv" -> Snull
  | "error" -> (
      (* corpus programs usually define their own; this is a fallback *)
      match ptr_arg 0 with
      | Some p ->
          Buffer.add_string st.output (read_cstring st p ~loc);
          Buffer.add_char st.output '\n';
          Snull
      | None -> Snull)
  | _ -> raise (Abort (Fmt.str "call to unknown function %s at %a" name Loc.pp loc))

and eval_printf st name (args : Ast.expr list) ~loc : slot =
  (* printf(fmt, ...) / fprintf(stream, fmt, ...) / sprintf(buf, fmt, ...) *)
  let fmt_index = if name = "printf" then 0 else 1 in
  let dest_buf = Buffer.create 32 in
  let get i = match List.nth_opt args i with Some a -> Some (eval st a) | None -> None in
  (match get fmt_index with
  | Some (Sptr fp) ->
      let fmt = read_cstring st fp ~loc in
      let argi = ref (fmt_index + 1) in
      let next () =
        let v = get !argi in
        incr argi;
        v
      in
      let n = String.length fmt in
      let i = ref 0 in
      while !i < n do
        let c = fmt.[!i] in
        if c = '%' && !i + 1 < n then begin
          (match fmt.[!i + 1] with
          | 'd' | 'i' | 'u' | 'x' -> (
              match next () with
              | Some v ->
                  Buffer.add_string dest_buf
                    (Int64.to_string (as_int st v ~loc))
              | None -> Buffer.add_string dest_buf "?")
          | 'c' -> (
              match next () with
              | Some v ->
                  let code = Int64.to_int (as_int st v ~loc) land 0xff in
                  Buffer.add_char dest_buf (Char.chr code)
              | None -> ())
          | 'f' | 'g' -> (
              match next () with
              | Some (Sfloat f) -> Buffer.add_string dest_buf (string_of_float f)
              | Some v ->
                  Buffer.add_string dest_buf
                    (Int64.to_string (as_int st v ~loc))
              | None -> ())
          | 's' -> (
              match next () with
              | Some (Sptr p) ->
                  Buffer.add_string dest_buf (read_cstring st p ~loc)
              | Some Snull ->
                  Heap.report st.heap Enull_deref ~loc
                    "null string passed to %s" name;
                  Buffer.add_string dest_buf "(null)"
              | Some Sundef ->
                  Heap.report st.heap Euse_undefined ~loc
                    "uninitialized string passed to %s" name
              | _ -> Buffer.add_string dest_buf "?")
          | '%' -> Buffer.add_char dest_buf '%'
          | other -> Buffer.add_char dest_buf other);
          i := !i + 2
        end
        else begin
          Buffer.add_char dest_buf c;
          incr i
        end
      done
  | Some Snull ->
      Heap.report st.heap Enull_deref ~loc "null format passed to %s" name
  | _ -> ());
  (match name with
  | "sprintf" -> (
      match get 0 with
      | Some (Sptr d) -> write_cstring st d (Buffer.contents dest_buf) ~loc
      | Some Snull ->
          Heap.report st.heap Enull_deref ~loc "null buffer passed to sprintf"
      | _ -> ())
  | _ -> Buffer.add_buffer st.output dest_buf);
  Sint (Int64.of_int (Buffer.length dest_buf))
