(** The direct call graph over a {!Sema.program}: nodes are defined
    functions, edges direct calls between them.  Function-pointer calls
    are invisible, exactly as they are to the checker. *)

type t = {
  cg_nodes : string list;  (** defined functions, source order *)
  cg_edges : (string, string list) Hashtbl.t;
      (** per node: callees that are themselves defined, call order *)
}

val build : Sema.program -> t

val calls : t -> string -> string list
(** Defined functions called directly by [name] (empty for unknown
    names). *)

val defined_callees : t -> Cfront.Ast.fundef -> string list
(** The body's direct callees that are nodes of the graph, in call
    order: what {!build} records as the edges of a function with this
    body. *)

val sccs : t -> string list list
(** Tarjan's strongly connected components in bottom-up (callee-first)
    order: every component a component calls into precedes it.  Mutual
    recursion yields multi-member components. *)

val is_recursive : t -> string list -> bool
(** Whether a component returned by {!sccs} contains a cycle (a
    self-call, or more than one member). *)
