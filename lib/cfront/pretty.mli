(** Pretty-printer for the C-subset AST.

    Output is valid parser input (the test suite checks the
    parse-print-parse fixpoint); annotations print back in [/*@...@*/]
    form. *)

val pp_fundef : Format.formatter -> Ast.fundef -> unit
val tunit_to_string : Ast.tunit -> string
