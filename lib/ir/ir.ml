(** Lowering to the flat checking IR (see ir.mli for the contract). *)

module Ast = Cfront.Ast
module Loc = Cfront.Loc

type block = int

type instr =
  | Iexpr of Ast.expr * Loc.t
  | Iassert of Ast.expr
  | Idecl of Ast.decl list * Loc.t
  | Iscope of block * Loc.t
  | Iif of Ast.expr * block * block option * Loc.t
  | Iwhile of Ast.expr * block * Loc.t
  | Ido of block * Ast.expr * Loc.t
  | Ifor of Ast.expr option * Ast.expr option * block * Loc.t
  | Iret of Ast.expr option * Loc.t
  | Ibreak
  | Icontinue
  | Iswitch of Ast.expr * block array * bool * Loc.t
  | Igoto of Loc.t

type proc = {
  p_name : string;
  p_entry : block;
  p_blocks : instr array array;
}

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

type builder = { mutable bd_blocks : instr list array; mutable bd_n : int }

let new_block (bd : builder) : block =
  if bd.bd_n >= Array.length bd.bd_blocks then begin
    let bigger = Array.make (2 * Array.length bd.bd_blocks) [] in
    Array.blit bd.bd_blocks 0 bigger 0 bd.bd_n;
    bd.bd_blocks <- bigger
  end;
  let id = bd.bd_n in
  bd.bd_n <- id + 1;
  id

let push (bd : builder) (b : block) (i : instr) =
  bd.bd_blocks.(b) <- i :: bd.bd_blocks.(b)

let rec lower_stmt bd b (s : Ast.stmt) : unit =
  let loc = s.Ast.sloc in
  match s.Ast.s with
  | Ast.Sskip -> ()
  | Ast.Sexpr e -> push bd b (Iexpr (e, loc))
  | Ast.Sassert e -> push bd b (Iassert e)
  | Ast.Sdecl ds -> push bd b (Idecl (ds, loc))
  | Ast.Sblock stmts ->
      let inner = new_block bd in
      List.iter (lower_stmt bd inner) stmts;
      push bd b (Iscope (inner, loc))
  | Ast.Sif (c, then_, else_) ->
      let bt = lower_arm bd then_ in
      let bf = Option.map (lower_arm bd) else_ in
      push bd b (Iif (c, bt, bf, loc))
  | Ast.Swhile (c, body) -> push bd b (Iwhile (c, lower_arm bd body, loc))
  | Ast.Sdo (body, c) -> push bd b (Ido (lower_arm bd body, c, loc))
  | Ast.Sfor (init, cond, step, body) ->
      (* the initializer runs exactly once, before the loop *)
      Option.iter (lower_stmt bd b) init;
      push bd b (Ifor (cond, step, lower_arm bd body, loc))
  | Ast.Sreturn eopt -> push bd b (Iret (eopt, loc))
  | Ast.Sbreak -> push bd b Ibreak
  | Ast.Scontinue -> push bd b Icontinue
  | Ast.Sswitch (e, body) ->
      let arms, has_default = Ast.switch_arms body in
      let arm_blocks =
        Array.of_list
          (List.map
             (fun arm ->
               let ab = new_block bd in
               List.iter (lower_stmt bd ab) arm;
               ab)
             arms)
      in
      push bd b (Iswitch (e, arm_blocks, has_default, loc))
  (* the checker treats case/default/goto labels as transparent *)
  | Ast.Scase (_, s) | Ast.Sdefault s | Ast.Slabel (_, s) -> lower_stmt bd b s
  | Ast.Sgoto _ -> push bd b (Igoto loc)

and lower_arm bd (s : Ast.stmt) : block =
  let b = new_block bd in
  lower_stmt bd b s;
  b

let lower_fundef (f : Ast.fundef) : proc =
  let bd = { bd_blocks = Array.make 8 []; bd_n = 0 } in
  let entry = new_block bd in
  lower_stmt bd entry f.Ast.f_body;
  let blocks =
    Array.init bd.bd_n (fun i -> Array.of_list (List.rev bd.bd_blocks.(i)))
  in
  { p_name = f.Ast.f_name; p_entry = entry; p_blocks = blocks }

(* ------------------------------------------------------------------ *)
(* Rendering (golden tests)                                            *)
(* ------------------------------------------------------------------ *)

let unop_str = function Ast.Uneg -> "-" | Ast.Unot -> "!" | Ast.Ubnot -> "~"

let binop_str = function
  | Ast.Badd -> "+" | Ast.Bsub -> "-" | Ast.Bmul -> "*" | Ast.Bdiv -> "/"
  | Ast.Bmod -> "%" | Ast.Bshl -> "<<" | Ast.Bshr -> ">>" | Ast.Bband -> "&"
  | Ast.Bbor -> "|" | Ast.Bbxor -> "^" | Ast.Blt -> "<" | Ast.Bgt -> ">"
  | Ast.Ble -> "<=" | Ast.Bge -> ">=" | Ast.Beq -> "==" | Ast.Bne -> "!="
  | Ast.Bland -> "&&" | Ast.Blor -> "||"

(* Compact C-ish expression summary; parenthesization is uniform rather
   than precedence-aware — the goal is a stable, readable golden form,
   not resugaring. *)
let rec expr_str (e : Ast.expr) : string =
  match e.Ast.e with
  | Ast.Eint (n, _) -> Int64.to_string n
  | Ast.Echar c -> Printf.sprintf "%C" c
  | Ast.Estring s -> Printf.sprintf "%S" s
  | Ast.Efloat (_, lit) -> lit
  | Ast.Eident x -> x
  | Ast.Ecall (f, args) ->
      Printf.sprintf "%s(%s)" (expr_str f)
        (String.concat ", " (List.map expr_str args))
  | Ast.Emember (b, f) -> expr_str b ^ "." ^ f
  | Ast.Earrow (b, f) -> expr_str b ^ "->" ^ f
  | Ast.Eindex (a, i) -> Printf.sprintf "%s[%s]" (expr_str a) (expr_str i)
  | Ast.Ederef b -> "*" ^ expr_str b
  | Ast.Eaddr b -> "&" ^ expr_str b
  | Ast.Eunary (op, b) -> unop_str op ^ expr_str b
  | Ast.Epostincr b -> expr_str b ^ "++"
  | Ast.Epostdecr b -> expr_str b ^ "--"
  | Ast.Epreincr b -> "++" ^ expr_str b
  | Ast.Epredecr b -> "--" ^ expr_str b
  | Ast.Ebinary (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Ast.Eassign (None, a, b) ->
      Printf.sprintf "(%s = %s)" (expr_str a) (expr_str b)
  | Ast.Eassign (Some op, a, b) ->
      Printf.sprintf "(%s %s= %s)" (expr_str a) (binop_str op) (expr_str b)
  | Ast.Econd (a, b, c) ->
      Printf.sprintf "(%s ? %s : %s)" (expr_str a) (expr_str b) (expr_str c)
  | Ast.Ecast (_, b) -> "(cast)" ^ expr_str b
  | Ast.Esizeof_expr b -> Printf.sprintf "sizeof(%s)" (expr_str b)
  | Ast.Esizeof_type _ -> "sizeof(type)"
  | Ast.Ecomma (a, b) -> Printf.sprintf "(%s, %s)" (expr_str a) (expr_str b)

let loc_str (l : Loc.t) = Printf.sprintf "%d:%d" l.Loc.line l.Loc.col

let instr_str (i : instr) : string =
  match i with
  | Iexpr (e, loc) -> Printf.sprintf "expr %s @%s" (expr_str e) (loc_str loc)
  | Iassert e -> Printf.sprintf "assert %s" (expr_str e)
  | Idecl (ds, loc) ->
      Printf.sprintf "decl %s @%s"
        (String.concat ", "
           (List.map
              (fun (d : Ast.decl) ->
                if d.Ast.d_name = "" then "<type>" else d.Ast.d_name)
              ds))
        (loc_str loc)
  | Iscope (b, _) -> Printf.sprintf "scope b%d" b
  | Iif (c, bt, Some bf, _) ->
      Printf.sprintf "if %s then b%d else b%d" (expr_str c) bt bf
  | Iif (c, bt, None, _) -> Printf.sprintf "if %s then b%d" (expr_str c) bt
  | Iwhile (c, b, _) -> Printf.sprintf "while %s body b%d" (expr_str c) b
  | Ido (b, c, _) -> Printf.sprintf "do b%d while %s" b (expr_str c)
  | Ifor (c, s, b, _) ->
      Printf.sprintf "for cond=%s step=%s body b%d"
        (match c with Some c -> expr_str c | None -> "-")
        (match s with Some s -> expr_str s | None -> "-")
        b
  | Iret (Some e, loc) ->
      Printf.sprintf "ret %s @%s" (expr_str e) (loc_str loc)
  | Iret (None, loc) -> Printf.sprintf "ret @%s" (loc_str loc)
  | Ibreak -> "break"
  | Icontinue -> "continue"
  | Iswitch (e, arms, has_default, _) ->
      Printf.sprintf "switch %s arms=[%s]%s" (expr_str e)
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "b%d") arms)))
        (if has_default then " default" else "")
  | Igoto loc -> Printf.sprintf "goto @%s" (loc_str loc)

let pp_proc ppf (p : proc) =
  Format.fprintf ppf "proc %s entry=b%d blocks=%d instrs=%d@\n" p.p_name
    p.p_entry (Array.length p.p_blocks)
    (Array.fold_left (fun n b -> n + Array.length b) 0 p.p_blocks);
  Array.iteri
    (fun bi instrs ->
      Format.fprintf ppf "b%d:@\n" bi;
      Array.iter
        (fun i -> Format.fprintf ppf "  %s@\n" (instr_str i))
        instrs)
    p.p_blocks

let to_string (p : proc) : string = Format.asprintf "%a" pp_proc p
