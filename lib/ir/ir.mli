(** A flat lowering of function bodies, kept for the benchmark's
    [ir.lower] replay and its golden tests.  No checker or analysis
    walks it: the checker ([Check.Checker]) and the [+xproc] summary
    pass ([Summary]) both walk the AST.

    [lower_fundef] compiles a function body into a compact array of
    basic blocks of checking-relevant instructions.  Lowering is purely
    syntactic — instructions keep references into the AST for
    expressions and declarations.

    Structured control flow is preserved: loops and branches reference
    sub-blocks rather than raw jump targets.  [Scase]/[Sdefault]/[Slabel]
    wrappers are stripped during lowering, [Sskip] disappears, and a
    [switch] body is segmented into its case arms
    ({!Cfront.Ast.switch_arms}). *)

type block = int
(** Index into {!proc.p_blocks}. *)

type instr =
  | Iexpr of Cfront.Ast.expr * Cfront.Loc.t
      (** expression statement (leak-checks an unconsumed fresh result) *)
  | Iassert of Cfront.Ast.expr  (** keep only the path where it holds *)
  | Idecl of Cfront.Ast.decl list * Cfront.Loc.t  (** local declarations *)
  | Iscope of block * Cfront.Loc.t
      (** run [block] in a fresh scope; scope-exit leak checks apply *)
  | Iif of Cfront.Ast.expr * block * block option * Cfront.Loc.t
  | Iwhile of Cfront.Ast.expr * block * Cfront.Loc.t
  | Ido of block * Cfront.Ast.expr * Cfront.Loc.t
  | Ifor of
      Cfront.Ast.expr option * Cfront.Ast.expr option * block * Cfront.Loc.t
      (** condition, step, body; the initializer is lowered inline
          before this instruction (it runs exactly once) *)
  | Iret of Cfront.Ast.expr option * Cfront.Loc.t
  | Ibreak
  | Icontinue
  | Iswitch of Cfront.Ast.expr * block array * bool * Cfront.Loc.t
      (** scrutinee, pre-segmented case arms, has-default *)
  | Igoto of Cfront.Loc.t  (** reported as unanalyzed; path abandoned *)

type proc = {
  p_name : string;
  p_entry : block;  (** the lowered function body *)
  p_blocks : instr array array;
}

val lower_fundef : Cfront.Ast.fundef -> proc
(** Compile one function body. *)

val to_string : proc -> string
(** [pp_proc] to a string. *)
